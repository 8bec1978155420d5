//! Central validation of the runtime's environment knob.
//!
//! One knob steers every world: `AFS_TEST_SEED`, the deterministic seed
//! CI sweeps. Parsed ad hoc with a silent fallback, a CI job exporting
//! `AFS_TEST_SEED=0x21` ran quietly with a *different* configuration than
//! it asked for. A malformed value is clamped to a documented default
//! **and reported loudly on stderr at startup**, so a typo'd matrix entry
//! is visible in the job log instead of silently sweeping one seed eight
//! times.
//!
//! The policy is clamp-and-warn rather than abort: a world must still
//! come up under a hostile environment (tests run with arbitrary inherited
//! env), but never silently.

use std::fmt;

/// The seed used when `AFS_TEST_SEED` is unset or malformed.
pub const DEFAULT_SEED: u64 = 0xAF5_0001;

/// Environment variable naming the deterministic world seed.
pub const ENV_TEST_SEED: &str = "AFS_TEST_SEED";

/// The outcome of validating one knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobOutcome<T> {
    /// The variable was not set; the default applies silently.
    Unset(T),
    /// The variable parsed cleanly.
    Valid(T),
    /// The variable was set but unusable; `used` is the documented clamp.
    Clamped {
        /// The raw value found in the environment.
        raw: String,
        /// The value actually used.
        used: T,
        /// Why the raw value was rejected.
        reason: String,
    },
}

impl<T: Copy> KnobOutcome<T> {
    /// The value a world should run with.
    pub fn value(&self) -> T {
        match self {
            KnobOutcome::Unset(v) | KnobOutcome::Valid(v) => *v,
            KnobOutcome::Clamped { used, .. } => *used,
        }
    }

    /// `true` when the environment value was rejected.
    pub fn clamped(&self) -> bool {
        matches!(self, KnobOutcome::Clamped { .. })
    }
}

impl<T: fmt::Display> KnobOutcome<T> {
    fn warn(&self, var: &str) {
        if let KnobOutcome::Clamped { raw, used, reason } = self {
            eprintln!("afs: ignoring {var}={raw:?} ({reason}); using {used}");
        }
    }
}

/// Validates a raw `AFS_TEST_SEED` value. Accepts a decimal `u64`;
/// anything else (including hex like `0x21`, which `u64::from_str`
/// rejects) clamps to [`DEFAULT_SEED`].
pub fn validate_test_seed(raw: Option<&str>) -> KnobOutcome<u64> {
    let Some(raw) = raw else {
        return KnobOutcome::Unset(DEFAULT_SEED);
    };
    match raw.trim().parse::<u64>() {
        Ok(seed) => KnobOutcome::Valid(seed),
        Err(e) => KnobOutcome::Clamped {
            raw: raw.to_owned(),
            used: DEFAULT_SEED,
            reason: format!("not a decimal u64: {e}"),
        },
    }
}

/// Reads and validates `AFS_TEST_SEED`, warning on stderr if clamped.
pub(crate) fn test_seed_from_env() -> u64 {
    let raw = std::env::var(ENV_TEST_SEED).ok();
    let outcome = validate_test_seed(raw.as_deref());
    outcome.warn(ENV_TEST_SEED);
    outcome.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_use_defaults_silently() {
        assert_eq!(validate_test_seed(None), KnobOutcome::Unset(DEFAULT_SEED));
    }

    #[test]
    fn valid_knobs_parse() {
        assert_eq!(validate_test_seed(Some("21")), KnobOutcome::Valid(21));
        assert_eq!(validate_test_seed(Some(" 34 ")), KnobOutcome::Valid(34));
    }

    #[test]
    fn malformed_seed_clamps_to_default_with_reason() {
        for raw in ["0x21", "seed", "-1", "1e9", ""] {
            let outcome = validate_test_seed(Some(raw));
            assert!(outcome.clamped(), "{raw:?} must be rejected");
            assert_eq!(outcome.value(), DEFAULT_SEED);
            let KnobOutcome::Clamped { reason, .. } = outcome else {
                unreachable!()
            };
            assert!(!reason.is_empty());
        }
    }
}
