//! Property tests for the pipe: arbitrary chunkings of a byte stream must
//! arrive intact and in order, regardless of pipe capacity and reader
//! buffer sizes, with a concurrent reader thread — and both ends' virtual
//! clocks must not depend on which thread won the real race.

use std::time::Duration;

use afs_ipc::Pipe;
use afs_sim::{clock, CostModel, CrossingKind, HardwareProfile};
use proptest::prelude::*;

/// Streams `chunks` through a pipe of `capacity` with a virtual clock on
/// each end: the writer works 1 µs before each write, the reader 1 ms
/// after each chunk it reads whole. The real schedule is forced one way
/// or the other: either the reader sleeps before each read (the writer
/// runs ahead and blocks on a full pipe) or the writer sleeps before each
/// write (the reader waits for data and the writer always finds space).
/// Returns each end's clock after each of its operations.
fn transcripts(chunks: &[Vec<u8>], capacity: usize, reader_lags: bool) -> (Vec<u64>, Vec<u64>) {
    let model = CostModel::new(HardwareProfile::pentium_ii_300());
    let (tx, rx) = Pipe::with_capacity(model, CrossingKind::InterProcess, capacity);
    let lens: Vec<usize> = chunks.iter().map(Vec::len).collect();
    let nap = || std::thread::sleep(Duration::from_micros(300));
    let reader = std::thread::spawn(move || {
        let _g = clock::install(0);
        let read: Vec<u64> = lens
            .iter()
            .map(|&len| {
                if reader_lags {
                    nap();
                }
                let mut buf = vec![0u8; len];
                assert_eq!(rx.read_exact(&mut buf).expect("read"), len);
                clock::advance(1_000_000);
                clock::now()
            })
            .collect();
        // Trailing empty writes still need a reader to succeed.
        (read, rx)
    });
    let _g = clock::install(0);
    let written = chunks
        .iter()
        .map(|chunk| {
            if !reader_lags {
                nap();
            }
            clock::advance(1_000);
            tx.write(chunk).expect("write");
            clock::now()
        })
        .collect();
    (written, reader.join().expect("join").0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_chunking_roundtrips(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..24),
        capacity in 1usize..128,
        read_buf in 1usize..64,
    ) {
        let (tx, rx) = Pipe::with_capacity(CostModel::free(), CrossingKind::InterProcess, capacity);
        let expected: Vec<u8> = chunks.concat();
        let writer = std::thread::spawn(move || {
            for chunk in &chunks {
                tx.write(chunk).expect("write");
            }
        });
        let mut got = Vec::new();
        let mut buf = vec![0u8; read_buf];
        loop {
            let n = rx.read(&mut buf).expect("read");
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().expect("join");
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn duplicated_readers_partition_the_stream(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        // Two readers race over one pipe: every byte must be delivered to
        // exactly one of them, in globally consistent order per reader.
        let (tx, rx1) = Pipe::with_capacity(CostModel::free(), CrossingKind::InterThread, 32);
        let rx2 = rx1.duplicate();
        let total = payload.len();
        let collect = |rx: afs_ipc::PipeReader| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut buf = [0u8; 16];
                loop {
                    let n = rx.read(&mut buf).expect("read");
                    if n == 0 {
                        break;
                    }
                    got.extend_from_slice(&buf[..n]);
                }
                got
            })
        };
        let t1 = collect(rx1);
        let t2 = collect(rx2);
        tx.write(&payload).expect("write");
        drop(tx);
        let a = t1.join().expect("join 1");
        let b = t2.join().expect("join 2");
        prop_assert_eq!(a.len() + b.len(), total, "no loss, no duplication");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn clocks_do_not_depend_on_the_real_schedule(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..12),
        capacity in 1usize..128,
    ) {
        let lagging_reader = transcripts(&chunks, capacity, true);
        let lagging_writer = transcripts(&chunks, capacity, false);
        prop_assert_eq!(lagging_reader, lagging_writer);
    }
}
