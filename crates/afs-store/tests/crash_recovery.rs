//! The headline durability proof: kill the store at *every* WAL record
//! boundary (and inside every record) of a seeded random workload,
//! reopen, and verify the recovered content is bit-for-bit the state at
//! the last commit wholly inside the surviving prefix — with torn final
//! records detected and discarded.
//!
//! The workload is derived from `AFS_TEST_SEED` so the CI seed sweep
//! exercises a different op sequence per lane. When `AFS_CRASH_TRANSCRIPT`
//! names a path, the per-kill-point transcript is written there for
//! upload as a CI artifact.

use afs_store::{crash_sweep, CrashOp, CrashReport, StoreOptions, SyncMode};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded random op script: bursts of writes with interleaved
/// truncations, sealed by commits and occasional checkpoints.
fn random_ops(seed: u64, n: usize) -> Vec<CrashOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    let mut len = 0u64;
    for _ in 0..n {
        match rng.gen_range(0..10) {
            0..=5 => {
                let offset = rng.gen_range(0..len.max(1) + 32);
                let size = rng.gen_range(1..48usize);
                let mut data = vec![0u8; size];
                rng.fill_bytes(&mut data);
                len = len.max(offset + data.len() as u64);
                ops.push(CrashOp::Write { offset, data });
            }
            6 => {
                len = rng.gen_range(0..len.max(1) + 16);
                ops.push(CrashOp::SetLen(len));
            }
            7..=8 => ops.push(CrashOp::Commit),
            _ => ops.push(CrashOp::Checkpoint),
        }
    }
    // Always end on a commit so the final batch is part of the sweep.
    ops.push(CrashOp::Commit);
    ops
}

fn write_transcript(label: &str, report: &CrashReport) {
    let Ok(path) = std::env::var("AFS_CRASH_TRANSCRIPT") else {
        return;
    };
    let mut body = format!("== {label} ==\n{}\n", report.transcript);
    if let Ok(existing) = std::fs::read_to_string(&path) {
        body = existing + &body;
    }
    std::fs::write(&path, body).expect("write crash transcript");
}

#[test]
fn recovery_holds_at_every_wal_boundary_for_the_seeded_workload() {
    let seed = afs_sim::test_seed(0xAF5_0001);
    let opts = StoreOptions {
        page_size: 64,
        checkpoint_pages: 0, // explicit checkpoints only: keep the WAL long
        ..StoreOptions::default()
    };
    let ops = random_ops(seed, 60);
    let report = crash_sweep(opts, &ops).expect("reference run");
    assert!(
        report.ok(),
        "seed {seed}: {} kill points, mismatches: {:#?}",
        report.kill_points,
        report.mismatches
    );
    assert!(
        report.kill_points > 100,
        "seed {seed}: sweep must cover many kill points, got {}",
        report.kill_points
    );
    assert!(
        report.torn_points > 0,
        "seed {seed}: mid-record cuts must be detected as torn"
    );
    write_transcript(&format!("seed {seed} random"), &report);
}

#[test]
fn recovery_holds_with_auto_checkpointing_and_sync_modes() {
    let seed = afs_sim::test_seed(0xAF5_0001) ^ 0x5EED;
    for sync in [SyncMode::Always, SyncMode::Commit, SyncMode::Off] {
        let opts = StoreOptions {
            page_size: 32,
            checkpoint_pages: 4, // auto-checkpoint kicks in mid-script
            sync,
        };
        let ops = random_ops(seed, 40);
        let report = crash_sweep(opts, &ops).expect("reference run");
        assert!(
            report.ok(),
            "seed {seed} sync {}: mismatches: {:#?}",
            sync.label(),
            report.mismatches
        );
        write_transcript(&format!("seed {seed} sync {}", sync.label()), &report);
    }
}

#[test]
fn recovery_holds_for_adversarial_small_pages() {
    // 8-byte pages force every write to straddle pages; checkpoints and
    // commits interleave densely.
    let opts = StoreOptions {
        page_size: 8,
        checkpoint_pages: 2,
        ..StoreOptions::default()
    };
    let ops = vec![
        CrashOp::Write {
            offset: 0,
            data: vec![0xAB; 20],
        },
        CrashOp::Commit,
        CrashOp::Write {
            offset: 15,
            data: vec![0xCD; 9],
        },
        CrashOp::SetLen(18),
        CrashOp::Commit,
        CrashOp::Checkpoint,
        CrashOp::SetLen(40),
        CrashOp::Write {
            offset: 39,
            data: vec![0xEF],
        },
        CrashOp::Commit,
    ];
    let report = crash_sweep(opts, &ops).expect("reference run");
    assert!(report.ok(), "mismatches: {:#?}", report.mismatches);
    write_transcript("adversarial small pages", &report);
}
