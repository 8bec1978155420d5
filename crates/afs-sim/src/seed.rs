//! The one reader of `AFS_TEST_SEED`, the seed CI sweeps.
//!
//! Every seeded world and suite reads it here, with one grammar: a decimal
//! `u64`, surrounding whitespace allowed. A value outside it is not quietly
//! replaced: a CI lane exporting `AFS_TEST_SEED=0x21` would otherwise sweep
//! the default seed while its log names another, so it says so in one
//! stderr line and runs the caller's default.

use std::io::Write;

/// The environment variable naming the seed.
const VAR: &str = "AFS_TEST_SEED";

/// The seed `AFS_TEST_SEED` names, or `default` when it is unset or
/// malformed; a malformed value is reported on stderr.
pub fn test_seed(default: u64) -> u64 {
    let (seed, warning) = resolve(std::env::var(VAR).ok().as_deref(), default);
    if let Some(warning) = warning {
        // Not `eprintln!`, which the test harness captures for a passing
        // test: a seed lane's log must show that it ran the default.
        let _ = writeln!(std::io::stderr(), "{warning}");
    }
    seed
}

/// The seed for `raw`, and the warning to print when `raw` is malformed.
fn resolve(raw: Option<&str>, default: u64) -> (u64, Option<String>) {
    let Some(raw) = raw else {
        return (default, None);
    };
    match raw.trim().parse::<u64>() {
        Ok(seed) => (seed, None),
        Err(e) => {
            let why = format!("not a decimal u64: {e}");
            let warning = format!("afs: ignoring {VAR}={raw:?} ({why}); using {default}");
            (default, Some(warning))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unset_seed_is_the_default_silently() {
        assert_eq!(resolve(None, 42), (42, None));
    }

    #[test]
    fn a_decimal_seed_parses_trimmed() {
        assert_eq!(resolve(Some("21"), 42), (21, None));
        assert_eq!(resolve(Some(" 34 "), 42), (34, None));
    }

    #[test]
    fn a_malformed_seed_falls_back_with_a_reason() {
        for raw in ["0x21", "seed", "-1", "1e9", ""] {
            let (seed, warning) = resolve(Some(raw), 0xAF5_0001);
            assert_eq!(seed, 0xAF5_0001, "{raw:?} must fall back");
            let warning = warning.expect("a malformed seed is reported");
            assert!(warning.contains(&format!("{raw:?}")), "{warning}");
            assert!(warning.contains("not a decimal u64: "), "{warning}");
        }
    }
}
