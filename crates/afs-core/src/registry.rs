//! The sentinel registry — the stand-in for executables and DLLs on disk.
//!
//! The prototype's active part names a real PE image; here the `:active`
//! stream names an entry in this registry and the runtime instantiates
//! fresh sentinel state per open ("the sentinel process is started and
//! terminated when a user process opens and closes the active file",
//! §2.2).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::logic::SentinelLogic;
use crate::spec::{runtime_keys, SentinelSpec, SpecKeyError};
use crate::strategy::process::RawProcessSentinel;

/// A factory producing one sentinel-logic instance per open.
pub type LogicFactory =
    Arc<dyn Fn(&SentinelSpec) -> Box<dyn SentinelLogic> + Send + Sync + 'static>;

/// A factory producing one raw process sentinel per open (the
/// hand-written, Figure 2 style programming model for the simple process
/// strategy).
pub type RawFactory =
    Arc<dyn Fn(&SentinelSpec) -> Box<dyn RawProcessSentinel> + Send + Sync + 'static>;

#[derive(Default)]
struct Entries {
    logic: HashMap<String, LogicFactory>,
    raw: HashMap<String, RawFactory>,
    /// Sentinel name → the config keys it declares. Names absent from
    /// this map accept any key (the permissive legacy behaviour for
    /// hand-registered test sentinels); names present reject unknown
    /// keys at install/open time, so a typo'd key fails loudly.
    declared: HashMap<String, Vec<String>>,
}

/// Name → sentinel-program registry. Cloning shares the registry.
#[derive(Clone, Default)]
pub struct SentinelRegistry {
    entries: Arc<RwLock<Entries>>,
}

impl std::fmt::Debug for SentinelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let e = self.entries.read();
        f.debug_struct("SentinelRegistry")
            .field("logic", &e.logic.keys().collect::<Vec<_>>())
            .field("raw", &e.raw.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl SentinelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SentinelRegistry::default()
    }

    /// Registers (or replaces) a strategy-independent sentinel under
    /// `name`.
    pub fn register<F>(&self, name: &str, factory: F)
    where
        F: Fn(&SentinelSpec) -> Box<dyn SentinelLogic> + Send + Sync + 'static,
    {
        self.entries
            .write()
            .logic
            .insert(name.to_owned(), Arc::new(factory));
    }

    /// Registers a sentinel together with the configuration keys it
    /// understands. Specs naming this sentinel are then validated: any
    /// config key that is neither in `keys` nor one of the runtime's own
    /// (the `DESIGN.md` "Runtime keys" table) fails
    /// [`Self::validate_spec`] with an error naming the key.
    pub fn register_with_keys<F>(&self, name: &str, keys: &[&str], factory: F)
    where
        F: Fn(&SentinelSpec) -> Box<dyn SentinelLogic> + Send + Sync + 'static,
    {
        let mut e = self.entries.write();
        e.logic.insert(name.to_owned(), Arc::new(factory));
        e.declared.insert(
            name.to_owned(),
            keys.iter().map(|&k| k.to_owned()).collect(),
        );
    }

    /// The keys declared for `name`, or `None` when the sentinel is
    /// permissive (registered without a declaration).
    pub fn declared_keys(&self, name: &str) -> Option<Vec<String>> {
        self.entries.read().declared.get(name).cloned()
    }

    /// Checks every config key of `spec` against the sentinel's declared
    /// keys (plus the runtime's own). Permissive sentinels pass
    /// unconditionally.
    ///
    /// # Errors
    ///
    /// [`SpecKeyError`] naming the first unknown key.
    pub fn validate_spec(&self, spec: &SentinelSpec) -> Result<(), SpecKeyError> {
        let Some(declared) = self.declared_keys(spec.name()) else {
            return Ok(());
        };
        for key in spec.config().keys() {
            if runtime_keys().any(|k| k == key) || declared.iter().any(|k| k == key) {
                continue;
            }
            let mut known: Vec<String> = runtime_keys()
                .map(str::to_owned)
                .chain(declared.iter().cloned())
                .collect();
            known.sort();
            known.dedup();
            return Err(SpecKeyError::new(key, spec.name(), known));
        }
        Ok(())
    }

    /// Registers a hand-written process sentinel (Figure 2 style) under
    /// `name`; only usable with [`crate::Strategy::Process`].
    pub fn register_raw<F>(&self, name: &str, factory: F)
    where
        F: Fn(&SentinelSpec) -> Box<dyn RawProcessSentinel> + Send + Sync + 'static,
    {
        self.entries
            .write()
            .raw
            .insert(name.to_owned(), Arc::new(factory));
    }

    /// Instantiates the named logic for one open.
    pub fn instantiate(&self, spec: &SentinelSpec) -> Option<Box<dyn SentinelLogic>> {
        let factory = self.entries.read().logic.get(spec.name()).cloned()?;
        Some(factory(spec))
    }

    /// Instantiates the named raw process sentinel for one open.
    pub fn instantiate_raw(&self, spec: &SentinelSpec) -> Option<Box<dyn RawProcessSentinel>> {
        let factory = self.entries.read().raw.get(spec.name()).cloned()?;
        Some(factory(spec))
    }

    /// `true` if `name` is registered (as either flavour).
    pub fn contains(&self, name: &str) -> bool {
        let e = self.entries.read();
        e.logic.contains_key(name) || e.raw.contains_key(name)
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let e = self.entries.read();
        let mut names: Vec<String> = e.logic.keys().chain(e.raw.keys()).cloned().collect();
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::NullSentinel;
    use crate::spec::Strategy;

    #[test]
    fn register_and_instantiate() {
        let reg = SentinelRegistry::new();
        reg.register("null", |_| Box::new(NullSentinel::new()));
        let spec = SentinelSpec::new("null", Strategy::DllOnly);
        assert!(reg.instantiate(&spec).is_some());
        assert!(reg.contains("null"));
        assert!(!reg.contains("ghost"));
    }

    #[test]
    fn unknown_name_is_none() {
        let reg = SentinelRegistry::new();
        let spec = SentinelSpec::new("ghost", Strategy::DllOnly);
        assert!(reg.instantiate(&spec).is_none());
    }

    #[test]
    fn each_instantiation_is_fresh() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let count = Arc::new(AtomicU32::new(0));
        let reg = SentinelRegistry::new();
        let c2 = Arc::clone(&count);
        reg.register("counted", move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
            Box::new(NullSentinel::new())
        });
        let spec = SentinelSpec::new("counted", Strategy::DllOnly);
        reg.instantiate(&spec);
        reg.instantiate(&spec);
        assert_eq!(count.load(Ordering::SeqCst), 2, "one sentinel per open");
    }

    #[test]
    fn names_are_sorted_and_deduped() {
        let reg = SentinelRegistry::new();
        reg.register("b", |_| Box::new(NullSentinel::new()));
        reg.register("a", |_| Box::new(NullSentinel::new()));
        assert_eq!(reg.names(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn declared_keys_reject_typos_naming_the_key() {
        let reg = SentinelRegistry::new();
        reg.register_with_keys("strict", &["service"], |_| Box::new(NullSentinel::new()));
        // Declared and runtime keys pass.
        let ok = SentinelSpec::new("strict", Strategy::DllOnly)
            .with("service", "files")
            .with("durable", "on")
            .with("share", "off");
        assert!(reg.validate_spec(&ok).is_ok());
        // The classic typo is caught, and the error names the key.
        let typo = SentinelSpec::new("strict", Strategy::DllOnly).with("durabel", "on");
        let err = reg.validate_spec(&typo).expect_err("typo must be rejected");
        assert_eq!(err.key(), "durabel");
        assert!(err.to_string().contains("`durabel`"), "{err}");
        assert!(err.to_string().contains("strict"), "{err}");
    }

    /// A key the runtime once owned is, to the world's `null` (which
    /// declares its keys: none), an unknown key like any other.
    #[test]
    fn a_retired_runtime_key_is_refused_naming_the_key() {
        let retired = "slo_p99_us";
        let world = crate::AfsWorld::new();
        let spec = SentinelSpec::new("null", Strategy::DllOnly).with(retired, "1000");
        let err = world
            .sentinels()
            .validate_spec(&spec)
            .expect_err("no runtime key and not declared by `null`");
        assert_eq!(err.key(), retired);
        assert!(err.to_string().contains(&format!("`{retired}`")), "{err}");
    }

    #[test]
    fn undeclared_sentinels_stay_permissive() {
        let reg = SentinelRegistry::new();
        reg.register("loose", |_| Box::new(NullSentinel::new()));
        let spec = SentinelSpec::new("loose", Strategy::DllOnly).with("anything", "goes");
        assert!(reg.validate_spec(&spec).is_ok());
        assert!(reg.declared_keys("loose").is_none());
        assert_eq!(
            reg.declared_keys("ghost"),
            None,
            "unknown names validate permissively too"
        );
    }

    #[test]
    fn clones_share_registrations() {
        let reg = SentinelRegistry::new();
        let clone = reg.clone();
        reg.register("shared", |_| Box::new(NullSentinel::new()));
        assert!(clone.contains("shared"));
    }
}
