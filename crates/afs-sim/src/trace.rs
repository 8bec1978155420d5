//! Per-operation observability: the [`OpTrace`] totals.
//!
//! The paper's §4 analysis reasons about each strategy in terms of *what
//! one operation costs*: how many protection-domain crossings, how many
//! buffer copies, how many bytes moved. The [`CostModel`](crate::CostModel)
//! counters aggregate those quantities globally; an [`OpTrace`] attributes
//! them to individual application-visible operations, so a run can be
//! audited against the paper's table (process strategies: 2 kernel copies
//! and 2 process switches per transfer; DLL-with-thread: 1 user copy and
//! 2 thread switches; DLL-only: nothing).
//!
//! The strategy handles record one [`TraceRecord`] per completed
//! operation into a cumulative per-(strategy, op) aggregate, so runs of
//! any length keep exact totals.
//!
//! Attribution rule: a record's crossings and copies are what was charged
//! between the operation's start and end — by the **calling thread** when
//! the strategy is inline (§4.4: every charge of the operation happens on
//! that thread, so the row is exact however many clients run beside it),
//! by **all threads** when the operation crosses a boundary (the sentinel
//! charges its share elsewhere; rows of concurrent wire clients take in
//! each other's charges). So work a *nested* sentinel's worker thread
//! does — §3 composition under a DLL-only outer file — shows in the
//! nested handle's own row, not also in the outer one.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use crate::stripe::{Striped, Tally};

/// Which application-visible operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// `ReadFile`.
    Read,
    /// `ReadFileScatter`.
    ReadScatter,
    /// `WriteFile` (and each buffer of `WriteFileGather`).
    Write,
    /// `GetFileSize`.
    Size,
    /// `FlushFileBuffers`.
    Flush,
    /// `DeviceIoControl`.
    Control,
    /// `CloseHandle`.
    Close,
}

impl OpKind {
    /// Every kind, in declaration order (an [`OpTrace`] row's column is
    /// its kind's index here).
    pub(crate) const ALL: [OpKind; 7] = [
        OpKind::Read,
        OpKind::ReadScatter,
        OpKind::Write,
        OpKind::Size,
        OpKind::Flush,
        OpKind::Control,
        OpKind::Close,
    ];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::ReadScatter => "scatter",
            OpKind::Write => "write",
            OpKind::Size => "size",
            OpKind::Flush => "flush",
            OpKind::Control => "control",
            OpKind::Close => "close",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One completed operation, as observed at the application-side handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Strategy label (e.g. `"Process"`, `"Thread"`, `"DLL"`).
    pub strategy: &'static str,
    /// What the operation was.
    pub op: OpKind,
    /// Payload bytes moved by this operation.
    pub bytes: u64,
    /// Virtual nanoseconds the operation took on the calling thread.
    pub elapsed_ns: u64,
    /// Protection-domain crossings (process + thread switches) charged
    /// while the operation ran.
    pub crossings: u64,
    /// Buffer copies (kernel pipe copies + user memcpys) charged while the
    /// operation ran.
    pub copies: u64,
}

/// Cumulative totals for one (strategy, op) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSummary {
    /// Strategy label.
    pub strategy: &'static str,
    /// Operation kind.
    pub op: OpKind,
    /// Number of operations recorded.
    pub count: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total virtual nanoseconds.
    pub elapsed_ns: u64,
    /// Total crossings.
    pub crossings: u64,
    /// Total copies.
    pub copies: u64,
}

impl OpSummary {
    /// Mean payload bytes per operation.
    pub fn bytes_per_op(&self) -> f64 {
        self.per(self.bytes)
    }

    /// Mean virtual microseconds per operation.
    pub fn micros_per_op(&self) -> f64 {
        self.per(self.elapsed_ns) / 1_000.0
    }

    /// Mean domain crossings per operation.
    pub fn crossings_per_op(&self) -> f64 {
        self.per(self.crossings)
    }

    /// Mean buffer copies per operation.
    pub fn copies_per_op(&self) -> f64 {
        self.per(self.copies)
    }

    fn per(&self, total: u64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            total as f64 / self.count as f64
        }
    }
}

/// Strategy labels an [`OpTrace`] has rows for, per [`OpKind`]: the
/// runtime's four strategies.
const LABELS: usize = 4;

/// One (strategy, op) row of a stripe: the strategy label, set once, and
/// the five totals.
#[derive(Debug, Default)]
struct Row {
    strategy: OnceLock<&'static str>,
    count: Tally,
    bytes: Tally,
    elapsed_ns: Tally,
    crossings: Tally,
    copies: Tally,
}

/// One stripe's rows: a column of [`LABELS`] rows per [`OpKind`].
#[derive(Debug, Default)]
struct Rows([[Row; LABELS]; OpKind::ALL.len()]);

impl Rows {
    /// The row of (`strategy`, `op`), given the first free row of its
    /// column if it has none yet. A label is one literal, so its row is
    /// found by address; the compare by content, a `memcmp` per op, only
    /// runs for a label spelled by another literal.
    fn row(&self, strategy: &'static str, op: OpKind) -> &Row {
        let column = &self.0[op as usize];
        let same = |row: &&Row| matches!(row.strategy.get(), Some(s) if std::ptr::eq(*s, strategy));
        let row = column.iter().find(same).or_else(|| {
            column
                .iter()
                .find(|row| *row.strategy.get_or_init(|| strategy) == strategy)
        });
        row.unwrap_or_else(|| {
            panic!("an OpTrace holds {LABELS} strategies; {strategy:?} is one more")
        })
    }

    /// Every row that has a label, with its op.
    fn labelled(&self) -> impl Iterator<Item = (&'static str, OpKind, &Row)> + '_ {
        OpKind::ALL
            .into_iter()
            .zip(&self.0)
            .flat_map(|(op, column)| {
                column
                    .iter()
                    .filter_map(move |row| Some((*row.strategy.get()?, op, row)))
            })
    }
}

/// Exact cumulative per-(strategy, op) totals. Cheap to share behind an
/// `Arc`; recording adds to the recording thread's own stripe, with a
/// load and a store per total when the thread owns it (see
/// [`Striped`]), and the readers merge the stripes.
#[derive(Debug, Default)]
pub struct OpTrace {
    rows: Striped<Rows>,
}

impl OpTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        OpTrace::default()
    }

    /// Adds one record to its (strategy, op) total.
    ///
    /// # Panics
    ///
    /// If the record's strategy would be the fifth distinct label recorded
    /// with its op: a trace has rows for the runtime's four strategies.
    pub fn record(&self, record: TraceRecord) {
        let (rows, writer) = self.rows.mine();
        let row = rows.row(record.strategy, record.op);
        row.count.add(writer, 1);
        row.bytes.add(writer, record.bytes);
        row.elapsed_ns.add(writer, record.elapsed_ns);
        row.crossings.add(writer, record.crossings);
        row.copies.add(writer, record.copies);
    }

    /// Cumulative per-(strategy, op) totals, ordered by strategy then op.
    pub fn summary(&self) -> Vec<OpSummary> {
        let mut totals = BTreeMap::new();
        for (strategy, op, row) in self.rows.iter().flat_map(Rows::labelled) {
            let total = totals.entry((strategy, op)).or_insert(OpSummary {
                strategy,
                op,
                count: 0,
                bytes: 0,
                elapsed_ns: 0,
                crossings: 0,
                copies: 0,
            });
            total.count += row.count.get();
            total.bytes += row.bytes.get();
            total.elapsed_ns += row.elapsed_ns.get();
            total.crossings += row.crossings.get();
            total.copies += row.copies.get();
        }
        totals
            .into_values()
            .filter(|total| total.count > 0)
            .collect()
    }

    /// Total number of operations ever recorded.
    pub fn len(&self) -> u64 {
        self.summary().iter().map(|total| total.count).sum()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all totals: exact only at rest, like a read.
    pub fn clear(&self) {
        for (_, _, row) in self.rows.iter().flat_map(Rows::labelled) {
            row.count.reset();
            row.bytes.reset();
            row.elapsed_ns.reset();
            row.crossings.reset();
            row.copies.reset();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn rec(strategy: &'static str, op: OpKind, bytes: u64) -> TraceRecord {
        TraceRecord {
            strategy,
            op,
            bytes,
            elapsed_ns: 1_000,
            crossings: 2,
            copies: 2,
        }
    }

    #[test]
    fn records_and_summarises() {
        let trace = OpTrace::new();
        trace.record(rec("Process", OpKind::Read, 100));
        trace.record(rec("Process", OpKind::Read, 300));
        trace.record(rec("Thread", OpKind::Write, 50));
        assert_eq!(trace.len(), 3);
        let summary = trace.summary();
        assert_eq!(summary.len(), 2);
        let reads = &summary[0];
        assert_eq!(
            (reads.strategy, reads.op, reads.count),
            ("Process", OpKind::Read, 2)
        );
        assert_eq!(reads.bytes, 400);
        assert!((reads.bytes_per_op() - 200.0).abs() < f64::EPSILON);
        assert!((reads.crossings_per_op() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn clear_resets_everything() {
        let trace = OpTrace::new();
        trace.record(rec("DLL", OpKind::Close, 0));
        assert!(!trace.is_empty());
        trace.clear();
        assert!(trace.is_empty());
        assert!(trace.summary().is_empty());
    }

    /// The trace this one replaced — every record into one `Vec` — kept
    /// as the reference model.
    #[derive(Default)]
    pub(crate) struct SingleVec(Vec<OpSummary>);

    impl SingleVec {
        pub(crate) fn record(&mut self, r: &TraceRecord) {
            match self
                .0
                .iter_mut()
                .find(|t| t.strategy == r.strategy && t.op == r.op)
            {
                Some(t) => {
                    t.count += 1;
                    t.bytes += r.bytes;
                    t.elapsed_ns += r.elapsed_ns;
                    t.crossings += r.crossings;
                    t.copies += r.copies;
                }
                None => self.0.push(OpSummary {
                    strategy: r.strategy,
                    op: r.op,
                    count: 1,
                    bytes: r.bytes,
                    elapsed_ns: r.elapsed_ns,
                    crossings: r.crossings,
                    copies: r.copies,
                }),
            }
        }

        pub(crate) fn summary(mut self) -> Vec<OpSummary> {
            self.0
                .sort_by(|a, b| a.strategy.cmp(b.strategy).then(a.op.cmp(&b.op)));
            self.0
        }
    }

    /// A seeded record of any kind, under one of three strategies.
    pub(crate) fn seeded_record(rng: &mut SimRng) -> TraceRecord {
        TraceRecord {
            strategy: ["Process", "Thread", "DLL"][rng.next_below(3) as usize],
            op: OpKind::ALL[rng.next_below(7) as usize],
            bytes: rng.next_below(4096),
            elapsed_ns: rng.next_below(1_000_000),
            crossings: rng.next_below(3),
            copies: rng.next_below(4),
        }
    }

    fn seeded_records(thread: u64) -> Vec<TraceRecord> {
        let mut rng = SimRng::new(0x7ACE + thread);
        (0..5_000).map(|_| seeded_record(&mut rng)).collect()
    }

    #[test]
    fn striped_totals_equal_the_single_vec_model_under_threads() {
        let trace = OpTrace::new();
        let mut model = SingleVec::default();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for thread in 0..4 {
                let records = seeded_records(thread);
                records.iter().for_each(|r| model.record(r));
                let (trace, start) = (&trace, &start);
                scope.spawn(move || {
                    start.wait();
                    records.into_iter().for_each(|r| trace.record(r));
                });
            }
        });
        assert_eq!(trace.len(), 20_000);
        assert_eq!(trace.summary(), model.summary());
        trace.clear();
        assert!(trace.is_empty());
        assert!(trace.summary().is_empty());
    }

    #[test]
    fn a_kinds_column_is_its_index_in_all() {
        for (index, op) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, index);
        }
    }

    #[test]
    #[should_panic(expected = "is one more")]
    fn each_op_has_rows_for_as_many_strategies_as_labels() {
        let trace = OpTrace::new();
        let labels = ["A", "B", "C", "D", "E"];
        for strategy in &labels[..LABELS] {
            for op in OpKind::ALL {
                trace.record(rec(strategy, op, 1));
            }
        }
        assert_eq!(trace.summary().len(), LABELS * OpKind::ALL.len());
        trace.record(rec(labels[LABELS], OpKind::Read, 1));
    }

    #[test]
    fn a_label_from_another_literal_finds_its_row() {
        let trace = OpTrace::new();
        let copy: &'static str = Box::leak(String::from("Thread").into_boxed_str());
        trace.record(rec("Thread", OpKind::Read, 8));
        trace.record(rec(copy, OpKind::Read, 8));
        trace.record(rec("Thread", OpKind::Read, 8));
        let s = trace.summary();
        assert_eq!((s.len(), s[0].strategy, s[0].count), (1, "Thread", 3));
    }

    #[test]
    fn micros_per_op_divides() {
        let trace = OpTrace::new();
        trace.record(rec("Thread", OpKind::Read, 8));
        trace.record(rec("Thread", OpKind::Read, 8));
        let s = trace.summary();
        assert!((s[0].micros_per_op() - 1.0).abs() < f64::EPSILON);
    }
}
