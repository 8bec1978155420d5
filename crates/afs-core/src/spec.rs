//! The active part: sentinel specification stored in the `:active` stream.
//!
//! On NT the active part is "either an executable (in the process-based
//! approaches) or a DLL (in the DLL-based approaches)" (Appendix A). We
//! cannot store native code, so the active part is a [`SentinelSpec`]: the
//! registered *name* of the sentinel program, the implementation
//! [`Strategy`], the caching [`Backing`], and free-form configuration.
//! The spec is wire-encoded into the stream, so copying the file copies
//! the behaviour — a copy of an active file is another active file.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use afs_net::{BreakerConfig, ReliabilityPolicy, WireError, WireReader, WireWriter};
use afs_store::{StoreOptions, SyncMode};

/// Which of the four implementation approaches of §4 runs this file's
/// sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// §4.1: a separate "process" connected by two pipes. Streaming
    /// semantics only; seek, size, and scatter/gather are unsupported.
    Process,
    /// §4.2: process plus a control channel; the full file API works.
    ProcessControl,
    /// §4.3: sentinel thread injected into the application, shared-memory
    /// data transfer.
    DllThread,
    /// §4.4: sentinel routines called inline; no domain crossing at all.
    DllOnly,
}

impl Strategy {
    fn tag(self) -> u8 {
        match self {
            Strategy::Process => 0,
            Strategy::ProcessControl => 1,
            Strategy::DllThread => 2,
            Strategy::DllOnly => 3,
        }
    }

    fn from_tag(t: u8) -> Result<Self, WireError> {
        Ok(match t {
            0 => Strategy::Process,
            1 => Strategy::ProcessControl,
            2 => Strategy::DllThread,
            3 => Strategy::DllOnly,
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// All strategies, in the order the paper presents them. Useful for
    /// equivalence tests and benchmark sweeps.
    pub const ALL: [Strategy; 4] = [
        Strategy::Process,
        Strategy::ProcessControl,
        Strategy::DllThread,
        Strategy::DllOnly,
    ];

    /// Short label used in benchmark output ("Process", "Thread", "DLL"),
    /// matching Figure 6's series names.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Process => "SimpleProcess",
            Strategy::ProcessControl => "Process",
            Strategy::DllThread => "Thread",
            Strategy::DllOnly => "DLL",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which caching path (Figure 5) the sentinel's context provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backing {
    /// Path 1: no cache; the sentinel goes to the remote service for every
    /// operation.
    #[default]
    None,
    /// Path 3: an in-memory cache inside the sentinel.
    Memory,
    /// Path 2: the on-disk cache — the data part of the active file.
    Disk,
}

impl Backing {
    fn tag(self) -> u8 {
        match self {
            Backing::None => 0,
            Backing::Memory => 1,
            Backing::Disk => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, WireError> {
        Ok(match t {
            0 => Backing::None,
            1 => Backing::Memory,
            2 => Backing::Disk,
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// Label used in benchmark output ("remote", "disk", "memory").
    pub fn label(self) -> &'static str {
        match self {
            Backing::None => "remote",
            Backing::Memory => "memory",
            Backing::Disk => "disk",
        }
    }
}

/// Default submission-ring depth for `batch=on` opens that do not set
/// `ring_depth=` explicitly.
const DEFAULT_RING_DEPTH: usize = 8;

/// What a spec asks of the runtime itself (sharing, access control,
/// reliability, degraded mode, durability, objectives, ring batching):
/// its runtime keys, parsed once per open by [`RuntimeSpec::parse`].
/// Every sentinel accepts these keys in addition to the ones it declares;
/// those reach the sentinel untouched through
/// [`crate::SentinelCtx::config_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RuntimeSpec {
    /// `share`: later opens of the same active file may join its running
    /// sentinel as additional sessions. `share=off` gives every open a
    /// private sentinel, the paper's literal §2.2 model.
    pub share: bool,
    /// `allow_users`: the only users who may open the file, if set.
    pub allow_users: Option<Vec<String>>,
    /// `degraded`: with every replica down, reads are served from the
    /// last-good cache (flagged stale) and writes queue for replay.
    pub degraded: bool,
    /// `staleness_ms`, in ns: the longest a read may go without a copy that
    /// holds the session's acknowledged writes before it fails — waiting
    /// out a lagging replica, or serving last-good bytes in degraded mode.
    pub staleness_ns: Option<u64>,
    /// `durable=on` with its `sync`, `checkpoint_pages` and `page_size`:
    /// the cache is the WAL-backed page store.
    pub durable: Option<StoreOptions>,
    /// `replicas`: the owners [`crate::SentinelCtx::endpoint`] walks after
    /// the service it is asked for, in order. Also switches the policy on.
    pub replicas: Vec<String>,
    /// `retry*`, `breaker.*`: present once any of `retry`, `replicas` or
    /// `breaker.threshold` is; the sentinel's network then walks every
    /// remote call under it.
    pub reliability: Option<ReliabilityPolicy>,
    /// `batch=on` with `ring_depth` (default 8): the §4.2/§4.3 boundary
    /// is a submission/completion ring of this many slots. `Process`
    /// streams and `DllOnly` inline calls have no such boundary and
    /// ignore it, so one spec compares across all four strategies.
    pub ring_depth: Option<usize>,
}

impl Default for RuntimeSpec {
    fn default() -> Self {
        RuntimeSpec {
            share: true,
            allow_users: None,
            degraded: false,
            staleness_ns: None,
            durable: None,
            replicas: Vec::new(),
            reliability: None,
            ring_depth: None,
        }
    }
}

/// A [`RuntimeSpec`] under construction: groups that only exist once a
/// switch key turns them on collect here until [`Draft::finish`].
#[derive(Default)]
struct Draft {
    rt: RuntimeSpec,
    durable: bool,
    store: StoreOptions,
    reliable: bool,
    policy: ReliabilityPolicy,
    max_backoff_ns: Option<u64>,
    breaker_on: bool,
    breaker: BreakerConfig,
    batch: bool,
}

/// How a value lands in the draft; `None` refuses it.
type Apply = fn(&mut Draft, &str) -> Option<()>;

const FLAG: &str = "on|true|1 or off|false|0";
const MICROS: &str = "integer microseconds";

/// Every key the runtime owns, as `(key, values it takes, apply)`. The one
/// list: [`runtime_keys`] (what `SentinelRegistry::validate_spec`
/// accepts), [`RuntimeSpec::parse`] and the `DESIGN.md` reference table
/// all come from it.
const RUNTIME_KEYS: &[(&str, &str, Apply)] = &[
    ("share", FLAG, |d, v| set(&mut d.rt.share, flag(v))),
    ("allow_users", "comma-separated user names", |d, v| {
        set(&mut d.rt.allow_users, Some(Some(list(v))))
    }),
    ("degraded", FLAG, |d, v| set(&mut d.rt.degraded, flag(v))),
    ("staleness_ms", "integer milliseconds", |d, v| {
        set(&mut d.rt.staleness_ns, scaled(v, 1_000_000).map(Some))
    }),
    ("durable", FLAG, |d, v| set(&mut d.durable, flag(v))),
    ("sync", "always|commit|off", |d, v| {
        set(&mut d.store.sync, SyncMode::parse(v.trim()))
    }),
    ("checkpoint_pages", "integer pages, 0 disables", |d, v| {
        set(&mut d.store.checkpoint_pages, int(v, 0..=u32::MAX.into()))
    }),
    ("page_size", "positive integer bytes", |d, v| {
        set(&mut d.store.page_size, int(v, 1..=u32::MAX.into()))
    }),
    ("retry", "integer attempts, clamped to 1..=64", |d, v| {
        d.reliable = true;
        let attempts = int::<u64>(v, 0..=u64::MAX).map(|n| n.clamp(1, 64) as u32);
        set(&mut d.policy.retry.attempts, attempts)
    }),
    ("retry.deadline_us", MICROS, |d, v| {
        set(&mut d.policy.retry.deadline_ns, scaled(v, 1_000))
    }),
    ("retry.backoff_us", MICROS, |d, v| {
        set(
            &mut d.policy.retry.base_backoff_ns,
            scaled(v, 1_000).map(|ns| ns.max(1)),
        )
    }),
    ("retry.max_backoff_us", MICROS, |d, v| {
        set(&mut d.max_backoff_ns, scaled(v, 1_000).map(Some))
    }),
    ("replicas", "comma-separated service names", |d, v| {
        d.reliable = true;
        set(&mut d.rt.replicas, Some(list(v)))
    }),
    (
        "breaker.threshold",
        "integer failures, at least 1",
        |d, v| {
            d.reliable = true;
            d.breaker_on = true;
            let threshold = int::<u64>(v, 0..=u64::MAX).map(|n| n.clamp(1, u32::MAX.into()) as u32);
            set(&mut d.breaker.threshold, threshold)
        },
    ),
    ("breaker.cooldown_us", MICROS, |d, v| {
        set(&mut d.breaker.cooldown_ns, scaled(v, 1_000))
    }),
    ("batch", FLAG, |d, v| set(&mut d.batch, flag(v))),
    ("ring_depth", "positive integer slots", |d, v| {
        set(&mut d.rt.ring_depth, int(v, 1..=u64::MAX).map(Some))
    }),
];

/// The runtime's own keys, in table order.
pub(crate) fn runtime_keys() -> impl Iterator<Item = &'static str> {
    RUNTIME_KEYS.iter().map(|&(key, ..)| key)
}

fn set<T>(slot: &mut T, value: Option<T>) -> Option<()> {
    *slot = value?;
    Some(())
}

/// The one boolean grammar.
pub(crate) fn flag(v: &str) -> Option<bool> {
    match v.trim() {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}

/// The one bounded-integer grammar: decimal digits, inside `range`.
fn int<T: TryFrom<u64>>(v: &str, range: RangeInclusive<u64>) -> Option<T> {
    let n = v.trim().parse().ok().filter(|n| range.contains(n))?;
    T::try_from(n).ok()
}

/// A duration in `unit_ns` units, as ns (saturating).
fn scaled(v: &str, unit_ns: u64) -> Option<u64> {
    int::<u64>(v, 0..=u64::MAX).map(|n| n.saturating_mul(unit_ns))
}

/// A comma list: entries trimmed, empty ones dropped.
fn list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

impl Draft {
    /// The cross-key rules, after every key has landed.
    fn finish(self, backing: Backing) -> Result<RuntimeSpec, String> {
        let mut rt = self.rt;
        if self.durable {
            // `durable=on` needs *some* cache to make durable.
            if backing == Backing::None {
                return Err("durable=on with no cache to make durable".to_owned());
            }
            rt.durable = Some(self.store);
        }
        if self.reliable {
            let mut policy = self.policy;
            if let Some(max) = self.max_backoff_ns {
                policy.retry.max_backoff_ns = max.max(policy.retry.base_backoff_ns);
            }
            policy.breaker = self.breaker_on.then_some(self.breaker);
            rt.reliability = Some(policy);
        }
        match (self.batch, rt.ring_depth) {
            (true, None) => rt.ring_depth = Some(DEFAULT_RING_DEPTH),
            (false, Some(_)) => return Err("ring_depth without batch=on".to_owned()),
            _ => {}
        }
        Ok(rt)
    }
}

impl RuntimeSpec {
    /// Turns `spec`'s runtime keys into values — the only place that
    /// does. Keys the table does not own are the sentinel's and skipped.
    ///
    /// # Errors
    ///
    /// The refusal message: a typo'd value must fail the open, not
    /// silently run with different behaviour than asked for.
    pub(crate) fn parse(spec: &SentinelSpec) -> Result<RuntimeSpec, String> {
        let mut draft = Draft::default();
        for (key, value) in &spec.config {
            if let Some((_, values, apply)) = RUNTIME_KEYS.iter().find(|row| row.0 == key) {
                apply(&mut draft, value)
                    .ok_or_else(|| format!("bad {key} `{value}` (want {values})"))?;
            }
        }
        draft.finish(spec.backing)
    }
}

/// A spec carried a configuration key its sentinel does not declare —
/// almost always a typo (`durabel=on`), which would otherwise be
/// silently ignored and run with different behaviour than asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecKeyError {
    key: String,
    sentinel: String,
    known: Vec<String>,
}

impl SpecKeyError {
    pub(crate) fn new(key: &str, sentinel: &str, known: Vec<String>) -> Self {
        SpecKeyError {
            key: key.to_owned(),
            sentinel: sentinel.to_owned(),
            known,
        }
    }

    /// The offending key, verbatim.
    pub fn key(&self) -> &str {
        &self.key
    }
}

impl std::fmt::Display for SpecKeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown config key `{}` for sentinel `{}` (known keys: {})",
            self.key,
            self.sentinel,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for SpecKeyError {}

/// The serialisable description of an active file's behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentinelSpec {
    name: String,
    strategy: Strategy,
    backing: Backing,
    config: BTreeMap<String, String>,
}

impl SentinelSpec {
    /// Creates a spec for the sentinel registered under `name`, run with
    /// `strategy` and no cache.
    pub fn new(name: &str, strategy: Strategy) -> Self {
        SentinelSpec {
            name: name.to_owned(),
            strategy,
            backing: Backing::None,
            config: BTreeMap::new(),
        }
    }

    /// Sets the caching path.
    pub fn backing(mut self, backing: Backing) -> Self {
        self.backing = backing;
        self
    }

    /// Adds one configuration entry (builder style).
    pub fn with(mut self, key: &str, value: &str) -> Self {
        self.config.insert(key.to_owned(), value.to_owned());
        self
    }

    /// The registered sentinel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The implementation strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The caching path.
    pub fn backing_kind(&self) -> Backing {
        self.backing
    }

    /// The free-form configuration map.
    pub fn config(&self) -> &BTreeMap<String, String> {
        &self.config
    }

    /// Encodes the spec for storage in the `:active` stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(&self.name)
            .u8(self.strategy.tag())
            .u8(self.backing.tag())
            .seq(self.config.len());
        for (k, v) in &self.config {
            w.str(k).str(v);
        }
        w.finish()
    }

    /// Decodes a spec from the `:active` stream.
    ///
    /// # Errors
    ///
    /// [`WireError`] for truncated or corrupted streams.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let name = r.str()?.to_owned();
        let strategy = Strategy::from_tag(r.u8()?)?;
        let backing = Backing::from_tag(r.u8()?)?;
        let n = r.seq()?;
        let mut config = BTreeMap::new();
        for _ in 0..n {
            let k = r.str()?.to_owned();
            let v = r.str()?.to_owned();
            config.insert(k, v);
        }
        r.finish()?;
        Ok(SentinelSpec {
            name,
            strategy,
            backing,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let spec = SentinelSpec::new("compress", Strategy::DllThread)
            .backing(Backing::Disk)
            .with("level", "9")
            .with("service", "files");
        let decoded = SentinelSpec::decode(&spec.encode()).expect("decode");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.config().get("level").map(String::as_str), Some("9"));
    }

    #[test]
    fn empty_config_roundtrip() {
        let spec = SentinelSpec::new("null", Strategy::Process);
        assert_eq!(SentinelSpec::decode(&spec.encode()).expect("decode"), spec);
    }

    #[test]
    fn corrupt_stream_rejected() {
        assert!(SentinelSpec::decode(&[1, 2, 3]).is_err());
        let mut good = SentinelSpec::new("x", Strategy::DllOnly).encode();
        good.push(0xFF);
        assert!(
            SentinelSpec::decode(&good).is_err(),
            "trailing bytes rejected"
        );
    }

    #[test]
    fn bad_strategy_tag_rejected() {
        let mut w = WireWriter::new();
        w.str("x").u8(99).u8(0).seq(0);
        assert_eq!(
            SentinelSpec::decode(&w.finish()),
            Err(WireError::BadTag(99))
        );
    }

    #[test]
    fn labels_match_figure6_series() {
        assert_eq!(Strategy::ProcessControl.label(), "Process");
        assert_eq!(Strategy::DllThread.label(), "Thread");
        assert_eq!(Strategy::DllOnly.label(), "DLL");
        assert_eq!(Backing::None.label(), "remote");
        assert_eq!(Backing::Disk.label(), "disk");
        assert_eq!(Backing::Memory.label(), "memory");
    }

    #[test]
    fn all_lists_every_strategy() {
        assert_eq!(Strategy::ALL.len(), 4);
    }

    /// A memory-backed spec carrying `pairs`, run through the one parser.
    fn parsed(pairs: &[(&str, &str)]) -> Result<RuntimeSpec, String> {
        let spec = SentinelSpec::new("x", Strategy::DllThread).backing(Backing::Memory);
        let spec = pairs.iter().fold(spec, |s, (k, v)| s.with(k, v));
        RuntimeSpec::parse(&spec)
    }

    type Check = fn(&RuntimeSpec) -> bool;
    type Pairs = &'static [(&'static str, &'static str)];

    /// One row per documented value: `(key, value, the other keys that
    /// make it observable, what it must parse to)`.
    const ACCEPTED: &[(&str, &str, Pairs, Check)] = &[
        ("share", "off", &[], |rt| !rt.share),
        ("share", "on", &[], |rt| rt.share),
        ("allow_users", "alice, bob", &[], |rt| {
            rt.allow_users == Some(vec!["alice".to_owned(), "bob".to_owned()])
        }),
        ("degraded", "on", &[], |rt| rt.degraded),
        ("degraded", "true", &[], |rt| rt.degraded),
        ("degraded", "off", &[], |rt| !rt.degraded),
        ("staleness_ms", "5", &[], |rt| {
            rt.staleness_ns == Some(5_000_000)
        }),
        ("durable", "on", &[], |rt| {
            rt.durable == Some(StoreOptions::default())
        }),
        ("durable", "off", &[("sync", "always")], |rt| {
            rt.durable.is_none()
        }),
        ("sync", "always", &[("durable", "on")], |rt| {
            rt.durable.map(|o| o.sync) == Some(SyncMode::Always)
        }),
        ("sync", "commit", &[("durable", "1")], |rt| {
            rt.durable.map(|o| o.sync) == Some(SyncMode::Commit)
        }),
        ("sync", "off", &[("durable", "true")], |rt| {
            rt.durable.map(|o| o.sync) == Some(SyncMode::Off)
        }),
        ("checkpoint_pages", "0", &[("durable", "on")], |rt| {
            rt.durable.map(|o| o.checkpoint_pages) == Some(0)
        }),
        ("page_size", "512", &[("durable", "on")], |rt| {
            rt.durable.map(|o| o.page_size) == Some(512)
        }),
        ("retry", "3", &[], |rt| retry(rt).attempts == 3),
        ("retry", "0", &[], |rt| retry(rt).attempts == 1),
        ("retry", "1000", &[], |rt| retry(rt).attempts == 64),
        ("retry.deadline_us", "7", &[("retry", "3")], |rt| {
            retry(rt).deadline_ns == 7_000
        }),
        ("retry.deadline_us", "7", &[], |rt| rt.reliability.is_none()),
        ("retry.backoff_us", "1000", &[("retry", "3")], |rt| {
            retry(rt).base_backoff_ns == 1_000_000
        }),
        ("retry.backoff_us", "0", &[("retry", "3")], |rt| {
            retry(rt).base_backoff_ns == 1
        }),
        ("retry.max_backoff_us", "50000", &[("retry", "3")], |rt| {
            retry(rt).max_backoff_ns == 50_000_000
        }),
        (
            "retry.max_backoff_us",
            "1",
            &[("retry", "3"), ("retry.backoff_us", "9")],
            |rt| retry(rt).max_backoff_ns == 9_000,
        ),
        ("replicas", "files-b, files-c,,", &[], |rt| {
            rt.replicas == ["files-b", "files-c"] && policy(rt).breaker.is_none()
        }),
        ("breaker.threshold", "2", &[], |rt| {
            policy(rt).breaker
                == Some(BreakerConfig {
                    threshold: 2,
                    ..BreakerConfig::default()
                })
        }),
        ("breaker.threshold", "0", &[], |rt| {
            policy(rt).breaker.as_ref().map(|b| b.threshold) == Some(1)
        }),
        (
            "breaker.cooldown_us",
            "2000",
            &[("breaker.threshold", "1")],
            |rt| policy(rt).breaker.as_ref().map(|b| b.cooldown_ns) == Some(2_000_000),
        ),
        ("breaker.cooldown_us", "2000", &[("retry", "3")], |rt| {
            policy(rt).breaker.is_none()
        }),
        ("batch", "on", &[], |rt| {
            rt.ring_depth == Some(DEFAULT_RING_DEPTH)
        }),
        ("batch", "1", &[], |rt| rt.ring_depth.is_some()),
        // `off` is what no `batch` key means: no ring.
        ("batch", "off", &[], |rt| {
            rt.ring_depth == parsed(&[]).expect("no keys").ring_depth
        }),
        ("ring_depth", " 4 ", &[("batch", "on")], |rt| {
            rt.ring_depth == Some(4)
        }),
    ];

    fn policy(rt: &RuntimeSpec) -> &ReliabilityPolicy {
        rt.reliability.as_ref().expect("a reliability key was set")
    }

    fn retry(rt: &RuntimeSpec) -> &afs_net::RetryPolicy {
        &policy(rt).retry
    }

    #[test]
    fn every_runtime_key_parses_its_documented_values() {
        for (key, value, context, check) in ACCEPTED {
            let mut pairs = context.to_vec();
            pairs.push((key, value));
            let rt = parsed(&pairs).unwrap_or_else(|e| panic!("{key}={value}: {e}"));
            assert!(
                check(&rt),
                "{key}={value} with {context:?} parsed to {rt:?}"
            );
        }
        let mut covered: Vec<&str> = ACCEPTED.iter().map(|row| row.0).collect();
        covered.dedup();
        assert_eq!(
            covered,
            runtime_keys().collect::<Vec<_>>(),
            "one accepted row at least per table key, in table order"
        );
        assert_eq!(parsed(&[]), Ok(RuntimeSpec::default()));
        assert_eq!(
            parsed(&[("service", "files"), ("sync.mode", "x")]),
            Ok(RuntimeSpec::default()),
            "sentinel-declared keys are not the runtime's to judge"
        );
    }

    #[test]
    fn one_boolean_grammar_for_every_switch() {
        let switches: [(&str, Check); 4] = [
            ("share", |rt| rt.share),
            ("degraded", |rt| rt.degraded),
            ("durable", |rt| rt.durable.is_some()),
            ("batch", |rt| rt.ring_depth.is_some()),
        ];
        for (key, is_on) in switches {
            for (spellings, want) in [(["on", "true", "1"], true), (["off", "false", "0"], false)] {
                for value in spellings {
                    let rt = parsed(&[(key, value)]).expect("one grammar");
                    assert_eq!(is_on(&rt), want, "{key}={value}");
                }
            }
        }
    }

    #[test]
    fn garbage_in_any_runtime_key_is_refused_naming_the_key() {
        // Comma lists are free text; every other key has a grammar.
        let free_text = ["allow_users", "replicas"];
        for key in runtime_keys().filter(|k| !free_text.contains(k)) {
            for value in ["maybe", "-3", "3x", ""] {
                let err = parsed(&[(key, value)]).expect_err("garbage must fail the open");
                assert!(
                    err.contains(&format!("bad {key} `{value}`")),
                    "{key}={value}: {err}"
                );
            }
        }
        // Out-of-range is garbage too, whether or not its group is on.
        for (key, value) in [
            ("page_size", "0"),
            ("ring_depth", "0"),
            ("checkpoint_pages", "4294967296"),
        ] {
            assert!(parsed(&[(key, value)]).is_err(), "{key}={value}");
        }
    }

    #[test]
    fn cross_key_rules_are_refused() {
        let err = parsed(&[("ring_depth", "8")]).expect_err("depth needs batch=on");
        assert!(err.contains("ring_depth without batch=on"), "{err}");
        assert!(parsed(&[("ring_depth", "8"), ("batch", "off")]).is_err());
        // durable with no cache at all is a contradiction.
        let no_cache = SentinelSpec::new("x", Strategy::DllOnly).with("durable", "on");
        assert!(RuntimeSpec::parse(&no_cache).is_err());
        assert!(RuntimeSpec::parse(&no_cache.with("durable", "off")).is_ok());
    }

    /// `DESIGN.md`'s "Runtime keys" table is the table above, rendered:
    /// same keys, same order, same value grammar.
    #[test]
    fn design_md_lists_exactly_the_runtime_keys() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("\n### Runtime keys\n")
            .nth(1)
            .expect("DESIGN.md has a `Runtime keys` section");
        let section = section.split("\n## ").next().expect("section body");
        let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
        assert_eq!(rows.len(), RUNTIME_KEYS.len(), "one doc row per key");
        for (row, (key, values, _)) in rows.iter().zip(RUNTIME_KEYS) {
            assert!(row.starts_with(&format!("| `{key}` |")), "{key}: {row}");
            assert!(
                row.replace("\\|", "|").contains(values),
                "{key}: doc row must quote `{values}`: {row}"
            );
        }
    }
}
