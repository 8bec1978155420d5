//! Every table `figure6` prints, as a view of the measured document.
//!
//! A view reads cells of a [`BenchDoc`] by name and measures nothing, so
//! every number it prints is a number the gate holds; a cell the document
//! lacks prints as "—". The Figure 6 tables in `EXPERIMENTS.md` are these
//! views of the committed `BENCH_baseline.json`, pasted between marker
//! comments, and a test holds them to it.

use crate::cluster::{
    CLUSTER_BLOCK, CLUSTER_COPIES, CLUSTER_FILES, CLUSTER_FLEET, CLUSTER_READ_FRACTION,
    CLUSTER_REBALANCE_KEYS, CLUSTER_SESSIONS, CLUSTER_STALENESS_MS, CLUSTER_THETA,
};
use crate::gate::{count_label, fig6_cell, mux_cell, BenchDoc, Cell, CROSSINGS};
use crate::{
    Direction, PathKind, BATCH_BLOCK, BATCH_RING_DEPTH, BLOCK_SIZES, FIGURE6_STRATEGIES,
    FLEET_BLOCK, FLEET_SIZES, MUX_BLOCK, MUX_CLIENTS,
};

/// Renders every view, in print order, under a title naming the profile
/// and the calls per cell.
pub fn render(doc: &BenchDoc) -> String {
    let mut out = format!(
        "# Active Files — Figure 6 reproduction ({} profile, {} calls per point)\n",
        doc.profile, doc.ops
    );
    for (_, view) in views(doc) {
        out.push('\n');
        out.push_str(&view);
    }
    out
}

/// Every view as `(id, markdown)`. The id names the view's marker comment
/// in `EXPERIMENTS.md` (`<!-- figure6 view: 6a-read -->`).
pub fn views(doc: &BenchDoc) -> Vec<(String, String)> {
    let mut views = Vec::new();
    for path in PathKind::ALL {
        for direction in Direction::BOTH {
            let id = format!("6{}-{}", path.panel(), direction.label());
            views.push((id, panel(doc, path, direction)));
        }
    }
    views.push(("simple-process".to_owned(), simple_process(doc)));
    views.push(("accounting".to_owned(), accounting(doc)));
    views.push(("concurrency".to_owned(), concurrency(doc)));
    views.push(("fleet".to_owned(), fleet(doc)));
    views.push(("batching".to_owned(), batching(doc)));
    views.push(("cluster".to_owned(), cluster(doc)));
    views.push(("store-trace".to_owned(), store_and_trace(doc)));
    views
}

/// A captioned markdown table (`header` is its column names joined by
/// `|`), every column right-aligned and padded to its widest entry.
fn table(caption: &str, header: &str, rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.split('|').map(str::to_owned).collect();
    let widths: Vec<usize> = (0..header.len())
        .map(|i| {
            let width = |row: &Vec<String>| row[i].chars().count();
            rows.iter().chain([&header]).map(width).max().unwrap_or(1)
        })
        .collect();
    let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
    let pad = |cells: &[String]| {
        let padded = cells.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}"));
        line(padded.collect())
    };
    let rule = widths.iter().map(|w| format!("{}:", "-".repeat(w - 1)));
    let mut out = format!("{caption}\n\n{}{}", pad(&header), line(rule.collect()));
    for row in rows {
        out.push_str(&pad(row));
    }
    out
}

/// Nanoseconds as microseconds with one decimal, the unit Figure 6 plots.
fn us(ns: f64) -> String {
    format!("{:.1}", ns / 1_000.0)
}

fn tenths(v: f64) -> String {
    format!("{v:.1}")
}

fn hundredths(v: f64) -> String {
    format!("{v:.2}")
}

fn whole(v: f64) -> String {
    format!("{v:.0}")
}

/// How a view prints one field.
type Format = fn(f64) -> String;

/// One field of a cell, formatted, or "—" where the document has no such
/// cell or field.
fn show(cell: Option<&Cell>, field: &str, format: Format) -> String {
    cell.and_then(|c| c.field(field))
        .map_or_else(|| "—".to_owned(), format)
}

/// One row per `(label, cell name)`: the label, then `fields` of the cell.
fn rows(
    doc: &BenchDoc,
    cells: impl IntoIterator<Item = (String, String)>,
    fields: &[(&str, Format)],
) -> Vec<Vec<String>> {
    let row = |(label, name): (String, String)| {
        let shown = fields
            .iter()
            .map(|&(f, format)| show(doc.strategies.get(&name), f, format));
        [label].into_iter().chain(shown).collect()
    };
    cells.into_iter().map(row).collect()
}

/// A table of mean µs per block size, one column per `(header, path,
/// direction, series)`.
fn means(doc: &BenchDoc, caption: &str, columns: &[(String, PathKind, Direction, &str)]) -> String {
    let rows: Vec<Vec<String>> = BLOCK_SIZES
        .iter()
        .map(|&block| {
            let mean = |&(_, path, direction, series): &(String, PathKind, Direction, &str)| {
                let cell = doc
                    .strategies
                    .get(&fig6_cell(path, direction, series, block));
                show(cell, "mean_ns", us)
            };
            [block.to_string()]
                .into_iter()
                .chain(columns.iter().map(mean))
                .collect()
        })
        .collect();
    let header: Vec<&str> = ["block"]
        .into_iter()
        .chain(columns.iter().map(|c| c.0.as_str()))
        .collect();
    table(caption, &header.join("|"), &rows)
}

fn panel(doc: &BenchDoc, path: PathKind, direction: Direction) -> String {
    let dir = if direction == Direction::Read {
        "Read"
    } else {
        "Write"
    };
    let caption = format!(
        "**Figure 6({}) — {} — {dir}** (µs per call, mean of {} calls)",
        path.panel(),
        path.describe(),
        doc.ops
    );
    let series = FIGURE6_STRATEGIES
        .iter()
        .map(|s| s.label())
        .chain(["baseline"]);
    let columns: Vec<_> = series.map(|s| (s.to_owned(), path, direction, s)).collect();
    means(doc, &caption, &columns)
}

fn simple_process(doc: &BenchDoc) -> String {
    let caption = format!(
        "**The §4.1 simple process strategy** (SimpleProcess, µs per call, mean of {} calls). \
         — : a §4.1 stream is a pipe and `ReadFile` returns whatever is buffered, so a \
         2048-byte read takes as many calls as the schedule makes it; not gated.",
        doc.ops
    );
    let mut columns = Vec::new();
    for path in PathKind::ALL {
        for direction in Direction::BOTH {
            let header = format!("6({}) {}", path.panel(), direction.label());
            columns.push((header, path, direction, "SimpleProcess"));
        }
    }
    means(doc, &caption, &columns)
}

fn accounting(doc: &BenchDoc) -> String {
    let caption = format!(
        "**Per-operation accounting** (2048-byte reads, averages over {} ops)",
        doc.ops
    );
    let mut rows = Vec::new();
    for path in PathKind::ALL {
        for strategy in FIGURE6_STRATEGIES {
            let cell =
                doc.strategies
                    .get(&fig6_cell(path, Direction::Read, strategy.label(), 2048));
            rows.push(vec![
                strategy.label().to_owned(),
                path.panel().to_owned(),
                show(cell, "syscalls_per_op", tenths),
                show(cell, "copies_per_op", tenths),
                show(cell, "copy_bytes_per_op", whole),
                show(cell, "process_switches_per_op", tenths),
                show(cell, "thread_switches_per_op", tenths),
            ]);
        }
    }
    let header = "strategy|path|syscalls|copies|copy-bytes|proc-switches|thread-switches";
    table(&caption, header, &rows)
}

fn concurrency(doc: &BenchDoc) -> String {
    let caption = format!(
        "**Concurrency ablation** — shared sentinel vs one per open (Process strategy, \
         memory cache, {MUX_BLOCK}-byte writes, {} per client; crossings over the whole run)",
        doc.ops
    );
    let fields: [(&str, Format); 3] = [("p50_ns", us), ("p99_ns", us), ("crossings", whole)];
    let rows: Vec<Vec<String>> = MUX_CLIENTS
        .iter()
        .map(|&clients| {
            let mut row = vec![clients.to_string()];
            for shared in [true, false] {
                let cell = doc.strategies.get(&mux_cell(clients, shared));
                row.extend(fields.iter().map(|&(f, format)| show(cell, f, format)));
            }
            row
        })
        .collect();
    let header = "clients|shared p50 (µs)|shared p99 (µs)|shared crossings\
                  |private p50 (µs)|private p99 (µs)|private crossings";
    table(&caption, header, &rows)
}

fn fleet(doc: &BenchDoc) -> String {
    let caption = format!(
        "**Fleet panel** — sentinel executor, one run queue (Thread strategy, memory \
         cache, {FLEET_BLOCK}-byte reads, one per file; the last row is one file on a \
         one-worker pool, {} reads). Workers, wake-ups and parks depend on the host: \
         `afsh fleet` and `benchmark/`'s `core.exec_*` report them.",
        doc.ops
    );
    let sizes = FLEET_SIZES
        .iter()
        .map(|&f| (f.to_string(), format!("fleet-{}", count_label(f))));
    let parity = ("1 (parity)".to_owned(), "fleet-1-parity".to_owned());
    let fields: [(&str, Format); 3] = [("p50_ns", us), ("p99_ns", us), ("sentinels", whole)];
    let rows = rows(doc, sizes.chain([parity]), &fields);
    table(&caption, "files|p50 (µs)|p99 (µs)|sentinels", &rows)
}

fn batching(doc: &BenchDoc) -> String {
    let caption = format!(
        "**Batching ablation** — submission/completion ring vs per-op round trips \
         (Thread strategy, memory cache, {BATCH_BLOCK}-byte sequential reads, \
         ring_depth={BATCH_RING_DEPTH}, {} ops; unbatched is the `Thread` cell, and the \
         batched reads returned the seeded bytes)",
        doc.ops
    );
    let sides = [("unbatched", "Thread"), ("batched", "ablation_batch-on")];
    let fields: [(&str, Format); 4] = [
        ("mean_ns", us),
        ("p50_ns", us),
        ("p99_ns", us),
        (CROSSINGS, hundredths),
    ];
    let rows = rows(
        doc,
        sides.map(|(m, n)| (m.to_owned(), n.to_owned())),
        &fields,
    );
    let crossings = |name| doc.strategies.get(name).and_then(|c| c.field(CROSSINGS));
    let reduction = match (crossings(sides[0].1), crossings(sides[1].1)) {
        (Some(plain), Some(ring)) => format!("{:.1}x", plain / ring.max(f64::EPSILON)),
        _ => "—".to_owned(),
    };
    let header = "mode|mean (µs)|p50 (µs)|p99 (µs)|crossings/op";
    let table = table(&caption, header, &rows);
    format!("{table}\nCrossing reduction: {reduction}.\n")
}

fn cluster(doc: &BenchDoc) -> String {
    let caption = format!(
        "**Cluster panel** — {CLUSTER_FLEET}-node fleet, {CLUSTER_COPIES} copies per file, \
         zipf({CLUSTER_THETA}) over {CLUSTER_FILES} files, {:.0}% reads, {CLUSTER_BLOCK}-byte \
         ops, staleness_ms={CLUSTER_STALENESS_MS}; the mirror row is the 1k mix as \
         ReadFile/WriteFile on {CLUSTER_FILES} mirror files (DllThread)",
        CLUSTER_READ_FRACTION * 100.0
    );
    let sessions = CLUSTER_SESSIONS
        .iter()
        .map(|&n| (n.to_string(), format!("cluster-{}", count_label(n))));
    let mirror = ("1000 (mirror)".to_owned(), "cluster-mirror".to_owned());
    let fields: [(&str, Format); 6] = [
        ("p50_ns", us),
        ("p99_ns", us),
        (CROSSINGS, hundredths),
        ("failovers", whole),
        ("replications", whole),
        ("stale_waits", whole),
    ];
    let rows = rows(doc, sessions.chain([mirror]), &fields);
    let header = "clients|p50 (µs)|p99 (µs)|msgs/op|failovers|replications|stale-waits";
    let r = doc.strategies.get("cluster-rebalance");
    format!(
        "{}\nRebalance: files-{CLUSTER_FLEET} joins {CLUSTER_FLEET} nodes — {} of \
         {CLUSTER_REBALANCE_KEYS} primaries moved (bound {}), post-join read p99 {} µs, \
         failovers {}.\n",
        table(&caption, header, &rows),
        show(r, "moved", whole),
        show(r, "moved_bound", tenths),
        show(r, "p99_ns", us),
        show(r, "failovers", whole),
    )
}

fn store_and_trace(doc: &BenchDoc) -> String {
    let caption = format!(
        "**Store and tracing cells** — `store-durable`: a 128-byte write + commit through \
         a WAL-backed null sentinel; `store-recovery`: a cold reopen + redo of a 32-commit \
         WAL; `ablation_trace`: the `Thread` cell with telemetry fully on ({} calls where \
         the cell takes a count)",
        doc.ops
    );
    let names = ["store-durable", "store-recovery", "ablation_trace"];
    let fields: [(&str, Format); 3] = [("mean_ns", us), ("p50_ns", us), ("p99_ns", us)];
    let rows = rows(doc, names.map(|n| (n.to_owned(), n.to_owned())), &fields);
    let same = match (
        doc.strategies.get("Thread"),
        doc.strategies.get("ablation_trace"),
    ) {
        (Some(t), Some(a)) if t == a => "equals `Thread` in every field",
        (Some(_), Some(_)) => "DIFFERS from `Thread`",
        _ => "—",
    };
    let table = table(&caption, "cell|mean (µs)|p50 (µs)|p99 (µs)", &rows);
    format!("{table}\n`ablation_trace` {same}.\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::parse_bench_doc;

    /// The Figure 6 tables of `EXPERIMENTS.md` are the committed document,
    /// rendered: every marked table equals its view of
    /// `BENCH_baseline.json`, and all seven are marked.
    #[test]
    fn experiments_md_tables_are_the_committed_document() {
        let baseline = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ));
        let experiments =
            include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"));
        let doc = parse_bench_doc(baseline).expect("baseline");
        let mut marked = Vec::new();
        for (id, view) in views(&doc) {
            let open = format!("<!-- figure6 view: {id} -->\n");
            if let Some(start) = experiments.find(&open) {
                let text = &experiments[start + open.len()..];
                let end = text.find("<!-- end view -->").expect("end marker");
                assert_eq!(&text[..end], view, "EXPERIMENTS.md view `{id}`");
                marked.push(id);
            }
        }
        let expected = [
            "6a-read",
            "6a-write",
            "6b-read",
            "6b-write",
            "6c-read",
            "6c-write",
            "accounting",
        ];
        assert_eq!(marked, expected);
    }

    #[test]
    fn a_cell_the_document_lacks_prints_as_a_dash() {
        let doc = parse_bench_doc(
            r#"{"ops": 2, "profile": "p", "strategies": {
                "Thread": {"mean_ns": 19072.0, "p50_ns": 19072, "p99_ns": 19072}}}"#,
        )
        .expect("document");
        let text = render(&doc);
        assert!(text.contains("|   19.1 |"), "{text}");
        assert!(text.contains("|       — |"), "{text}");
        assert!(text.contains("Crossing reduction: —."), "{text}");
    }
}
