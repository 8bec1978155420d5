//! A tiny scriptable shell over the simulated world — the repository's
//! "legacy application" playground.
//!
//! Every command goes through the plain [`FileApi`]; the shell neither
//! knows nor cares which files are active. `install` and `demo` are the
//! only world-aware commands (they play the role of the administrator who
//! sets active files up).
//!
//! Used by the `afsh` binary (`cargo run --bin afsh`) and by integration
//! tests, which feed scripts through [`Shell::run_script`].

use std::fmt::Write as _;
use std::sync::Arc;

use afs_core::{
    AfsWorld, Backing, SentinelSpec, Strategy, CTL_STORE_CHECKPOINT, CTL_STORE_STATS,
    CTL_STORE_SYNC,
};
use afs_interpose::{CallCounters, CountingLayer};
use afs_net::Service;
use afs_remote::{FileServer, MailStore, PopServer, QuoteServer, SmtpServer};
use afs_telemetry::{json_snapshot, prometheus_text, Metric, SpanRecord};
use afs_winapi::{Access, Disposition, FileApi, SeekMethod};

/// Shell errors carry the failing command and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShellError {
    /// The command that failed.
    pub command: String,
    /// Why.
    pub message: String,
}

impl std::fmt::Display for ShellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.command, self.message)
    }
}

impl std::error::Error for ShellError {}

/// The shell session: a world plus its API handle.
pub struct Shell {
    world: AfsWorld,
    api: afs_interpose::ApiHandle,
    demo_files: Option<Arc<FileServer>>,
    counters: Arc<CallCounters>,
}

impl Shell {
    /// Creates a shell over a fresh world with the standard sentinels
    /// registered, telemetry enabled, and a call-counting layer installed
    /// (the shell is an interactive observability surface, so it pays for
    /// the instrumentation up front).
    pub fn new() -> Self {
        let world = AfsWorld::new();
        afs_sentinels::register_all(world.sentinels());
        world.telemetry().set_enabled(true);
        let counters = CallCounters::new();
        world
            .connector()
            .install(Arc::new(CountingLayer::new(Arc::clone(&counters))))
            .expect("fresh connector accepts the counting layer");
        let c = Arc::clone(&counters);
        world.metrics().register(move |out| {
            let snap = c.snapshot();
            let call = |name, v| Metric::counter("afs_calls_total", v).label("call", name);
            out.push(call("create_file", snap.create_file));
            out.push(call("read_file", snap.read_file));
            out.push(call("write_file", snap.write_file));
            out.push(call("close_handle", snap.close_handle));
            out.push(call("get_file_size", snap.get_file_size));
            out.push(call("set_file_pointer", snap.set_file_pointer));
            out.push(call("flush_file_buffers", snap.flush_file_buffers));
            out.push(call("device_io_control", snap.device_io_control));
            out.push(call("read_file_scatter", snap.read_file_scatter));
            out.push(call("write_file_gather", snap.write_file_gather));
            out.push(call("other", snap.other));
        });
        let api = world.api();
        Shell {
            world,
            api,
            demo_files: None,
            counters,
        }
    }

    /// The underlying world (tests use this to inspect state).
    pub fn world(&self) -> &AfsWorld {
        &self.world
    }

    /// Runs one command line, returning its output text.
    ///
    /// # Errors
    ///
    /// [`ShellError`] describing the failing command.
    pub fn run(&mut self, line: &str) -> Result<String, ShellError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let mut parts = line.splitn(2, char::is_whitespace);
        let cmd = parts.next().expect("non-empty line");
        let rest = parts.next().unwrap_or("").trim();
        let fail = |message: String| ShellError {
            command: cmd.to_owned(),
            message,
        };
        match cmd {
            "help" => Ok(HELP.to_owned()),
            "mkdir" => {
                self.api
                    .create_directory(rest)
                    .map_err(|e| fail(e.to_string()))?;
                Ok(String::new())
            }
            "ls" => {
                let dir = if rest.is_empty() { "/" } else { rest };
                let entries = self.api.find_files(dir).map_err(|e| fail(e.to_string()))?;
                let mut out = String::new();
                for e in entries {
                    let kind = match e.kind {
                        afs_vfs::NodeKind::Directory => "dir ",
                        afs_vfs::NodeKind::File => "file",
                    };
                    writeln!(out, "{kind} {:>8}  {}", e.len, e.name).expect("write to string");
                }
                Ok(out)
            }
            "cat" => {
                let h = self
                    .api
                    .create_file(rest, Access::read_only(), Disposition::OpenExisting)
                    .map_err(|e| fail(e.to_string()))?;
                let mut out = Vec::new();
                let mut buf = [0u8; 256];
                loop {
                    let n = self
                        .api
                        .read_file(h, &mut buf)
                        .map_err(|e| fail(e.to_string()))?;
                    if n == 0 {
                        break;
                    }
                    out.extend_from_slice(&buf[..n]);
                    if out.len() > 1 << 20 {
                        break; // generators can be infinite
                    }
                }
                self.api.close_handle(h).map_err(|e| fail(e.to_string()))?;
                Ok(String::from_utf8_lossy(&out).into_owned())
            }
            "write" | "append" => {
                let (path, text) = rest
                    .split_once(' ')
                    .ok_or_else(|| fail("usage: write <path> <text>".into()))?;
                let disposition = if cmd == "write" {
                    Disposition::CreateAlways
                } else {
                    Disposition::OpenAlways
                };
                let h = self
                    .api
                    .create_file(path, Access::read_write(), disposition)
                    .map_err(|e| fail(e.to_string()))?;
                if cmd == "append" {
                    self.api
                        .set_file_pointer(h, 0, SeekMethod::End)
                        .map_err(|e| fail(e.to_string()))?;
                }
                // Shell convention: "\n" in the text is a newline.
                let text = text.replace("\\n", "\n");
                self.api
                    .write_file(h, text.as_bytes())
                    .map_err(|e| fail(e.to_string()))?;
                self.api.close_handle(h).map_err(|e| fail(e.to_string()))?;
                Ok(String::new())
            }
            "cp" | "mv" => {
                let (from, to) = rest
                    .split_once(' ')
                    .ok_or_else(|| fail(format!("usage: {cmd} <from> <to>")))?;
                let result = if cmd == "cp" {
                    self.api.copy_file(from.trim(), to.trim())
                } else {
                    self.api.move_file(from.trim(), to.trim())
                };
                result.map_err(|e| fail(e.to_string()))?;
                Ok(String::new())
            }
            "rm" => {
                self.api
                    .delete_file(rest)
                    .map_err(|e| fail(e.to_string()))?;
                Ok(String::new())
            }
            "stat" => {
                let h = self
                    .api
                    .create_file(rest, Access::read_only(), Disposition::OpenExisting)
                    .map_err(|e| fail(e.to_string()))?;
                let size = self.api.get_file_size(h);
                self.api.close_handle(h).map_err(|e| fail(e.to_string()))?;
                let mut out = String::new();
                match size {
                    Ok(n) => writeln!(out, "size: {n}").expect("write to string"),
                    Err(e) => writeln!(out, "size: unavailable ({e})").expect("write to string"),
                }
                match self.world.active_spec(rest) {
                    Some(spec) => writeln!(
                        out,
                        "active: {} ({}, {})",
                        spec.name(),
                        spec.strategy().label(),
                        spec.backing_kind().label()
                    )
                    .expect("write to string"),
                    None => writeln!(out, "active: no").expect("write to string"),
                }
                Ok(out)
            }
            "install" => {
                // install <path> <sentinel> <strategy> <backing> [k=v ...]
                let mut args = rest.split_whitespace();
                let path = args.next().ok_or_else(|| fail("missing path".into()))?;
                let name = args
                    .next()
                    .ok_or_else(|| fail("missing sentinel name".into()))?;
                let strategy = match args.next().unwrap_or("dll") {
                    "process" => Strategy::Process,
                    "control" => Strategy::ProcessControl,
                    "thread" => Strategy::DllThread,
                    "dll" => Strategy::DllOnly,
                    other => return Err(fail(format!("unknown strategy {other}"))),
                };
                let backing = match args.next().unwrap_or("none") {
                    "none" => Backing::None,
                    "memory" => Backing::Memory,
                    "disk" => Backing::Disk,
                    other => return Err(fail(format!("unknown backing {other}"))),
                };
                let mut spec = SentinelSpec::new(name, strategy).backing(backing);
                for kv in args {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| fail(format!("bad config `{kv}` (want k=v)")))?;
                    spec = spec.with(k, v);
                }
                self.world
                    .install_active_file(path, &spec)
                    .map_err(|e| fail(e.to_string()))?;
                Ok(String::new())
            }
            "stats" => {
                // Rendered from the trace's exact cumulative aggregates;
                // the §4 crossings and copies are the cost model's count.
                let summary = self.world.trace().summary();
                if summary.is_empty() {
                    return Ok("no active-file operations recorded yet\n".to_owned());
                }
                let mut out = String::new();
                writeln!(
                    out,
                    "{:<14} {:<8} {:>6} {:>10}",
                    "strategy", "op", "count", "bytes/op"
                )
                .expect("write to string");
                let (mut ops, mut bytes) = (0u64, 0u64);
                for row in summary {
                    ops += row.count;
                    bytes += row.bytes;
                    writeln!(
                        out,
                        "{:<14} {:<8} {:>6} {:>10.1}",
                        row.strategy,
                        row.op.label(),
                        row.count,
                        row.bytes_per_op(),
                    )
                    .expect("write to string");
                }
                let cost = self.world.model().snapshot();
                writeln!(
                    out,
                    "total: {ops} ops, {bytes} bytes, {} crossings, {} copies",
                    cost.process_switches + cost.thread_switches,
                    cost.copies,
                )
                .expect("write to string");
                Ok(out)
            }
            "top" => Ok(self.render_top()),
            "spans" => match rest.split_whitespace().collect::<Vec<_>>().as_slice() {
                [] => Ok(self.render_spans()),
                ["--trace", id] => {
                    let id: u64 = id
                        .parse()
                        .map_err(|_| fail("spans --trace <decimal trace id>".into()))?;
                    Ok(self.render_trace(id))
                }
                _ => Err(fail("usage: spans [--trace <id>]".into())),
            },
            "metrics" => {
                let snapshot = self.world.metrics().snapshot();
                match rest {
                    "" | "prometheus" => Ok(prometheus_text(&snapshot)),
                    "json" | "--json" => Ok(json_snapshot(&snapshot)),
                    other => Err(fail(format!(
                        "unknown format {other} (want prometheus|json)"
                    ))),
                }
            }
            "dump" => Ok(self.world.flight_dump() + "\n"),
            "telemetry" => {
                let tel = self.world.telemetry();
                match rest.split_whitespace().collect::<Vec<_>>().as_slice() {
                    ["on"] => {
                        tel.set_enabled(true);
                        Ok("telemetry on\n".to_owned())
                    }
                    ["off"] => {
                        tel.set_enabled(false);
                        Ok("telemetry off\n".to_owned())
                    }
                    ["slow", ns] => {
                        let ns: u64 = ns
                            .parse()
                            .map_err(|_| fail("telemetry slow <nanoseconds>".into()))?;
                        tel.set_slow_threshold_ns(ns);
                        Ok(format!("slow-op threshold set to {ns} ns\n"))
                    }
                    [] => Ok(format!(
                        "telemetry {} ({} spans recorded)\n",
                        if tel.enabled() { "on" } else { "off" },
                        tel.span_count()
                    )),
                    _ => Err(fail("usage: telemetry [on|off|slow <ns>]".into())),
                }
            }
            "faults" => self.run_faults(rest).map_err(fail),
            "store" => self.run_store(rest).map_err(fail),
            "sessions" => {
                let shared = self.world.shared_sentinels();
                let mut out = String::new();
                if shared.is_empty() {
                    out.push_str("no shared sentinels\n");
                } else {
                    for (path, name, strategy, count) in shared {
                        writeln!(out, "{path}  {name} ({strategy})  sessions={count}")
                            .expect("write to string");
                    }
                }
                let s = self.world.telemetry().sessions().snapshot();
                writeln!(
                    out,
                    "current={} peak={} attaches={} coalesced_writes={} batch_flushes={}",
                    s.sessions, s.sessions_peak, s.attaches, s.coalesced_writes, s.flushed_batches
                )
                .expect("write to string");
                Ok(out)
            }
            "fleet" => {
                let mut out = String::new();
                let f = self.world.telemetry().fleet().snapshot();
                writeln!(
                    out,
                    "workers={}/{} live_tasks={} queued={}",
                    f.workers,
                    self.world.fleet_workers(),
                    self.world.fleet_task_count(),
                    self.world.fleet_queued()
                )
                .expect("write to string");
                writeln!(
                    out,
                    "spawned={} peak={} polls={} wakeups={} parks={} \
                     queue_depth_peak={} pinned={} abandoned={}",
                    f.spawned,
                    f.sentinels_peak,
                    f.polls,
                    f.wakeups,
                    f.parks,
                    f.queue_depth_peak,
                    f.pinned,
                    f.abandoned
                )
                .expect("write to string");
                Ok(out)
            }
            "cluster" => {
                let c = self.world.telemetry().cluster().snapshot();
                let mut out = String::new();
                writeln!(out, "nodes={} rebalances={}", c.nodes, c.rebalances)
                    .expect("write to string");
                writeln!(
                    out,
                    "writes={} replications={} replication_failures={}",
                    c.writes, c.replications, c.replication_failures
                )
                .expect("write to string");
                writeln!(
                    out,
                    "reads={} failovers={} stale_waits={} stale_rejects={}",
                    c.reads, c.read_failovers, c.stale_waits, c.stale_rejects
                )
                .expect("write to string");
                Ok(out)
            }
            "sentinels" => Ok(self.world.sentinels().names().join("\n") + "\n"),
            "services" => Ok(self.world.net().services().join("\n") + "\n"),
            "demo" => {
                // Stand up demo remote services so scripts have sources.
                let files = FileServer::new();
                files.seed("/pub/motd", b"welcome to the active files demo\n");
                files.seed("/pub/data.csv", b"region,units\neast,120\nwest,80\n");
                self.world
                    .net()
                    .register("files", Arc::clone(&files) as Arc<dyn Service>);
                self.demo_files = Some(files);
                let quotes = QuoteServer::new(7, &["ACME", "GLOBEX"]);
                self.world
                    .net()
                    .register("quotes", quotes as Arc<dyn Service>);
                let mail = MailStore::new();
                mail.deliver(
                    "demo@system",
                    &format!("{}@local", self.world.user()),
                    "hello",
                    "demo message",
                );
                self.world
                    .net()
                    .register("pop", PopServer::new(mail.clone()) as Arc<dyn Service>);
                self.world
                    .net()
                    .register("smtp", SmtpServer::new(mail) as Arc<dyn Service>);
                Ok("demo services registered: files, quotes, pop, smtp\n".to_owned())
            }
            other => Err(ShellError {
                command: other.to_owned(),
                message: "unknown command (try `help`)".to_owned(),
            }),
        }
    }

    /// The `store` command: pragma-style controls against a durable
    /// active file. `checkpoint`, `stats`, and `sync <mode>` map onto
    /// the runtime `CTL_STORE_*` control codes; a non-durable file
    /// answers with the same `NotSupported` the application would see.
    fn run_store(&mut self, rest: &str) -> Result<String, String> {
        const USAGE: &str = "usage: store <path> checkpoint|stats|sync <always|commit|off>";
        let args: Vec<&str> = rest.split_whitespace().collect();
        let (path, op) = match args.as_slice() {
            [path, op @ ..] if !op.is_empty() => (*path, op),
            _ => return Err(USAGE.to_owned()),
        };
        let (code, payload): (u32, &[u8]) = match *op {
            ["checkpoint"] => (CTL_STORE_CHECKPOINT, b""),
            ["stats"] => (CTL_STORE_STATS, b""),
            ["sync", mode] => (CTL_STORE_SYNC, mode.as_bytes()),
            _ => return Err(USAGE.to_owned()),
        };
        let h = self
            .api
            .create_file(path, Access::read_write(), Disposition::OpenExisting)
            .map_err(|e| e.to_string())?;
        // Close even when the control fails — the handle must not leak.
        let reply = self.api.device_io_control(h, code, payload);
        let closed = self.api.close_handle(h);
        let reply = reply.map_err(|e| e.to_string())?;
        closed.map_err(|e| e.to_string())?;
        let mut text = String::from_utf8_lossy(&reply).into_owned();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        Ok(text)
    }

    /// The `faults` command: with no arguments, renders the reliability
    /// counters, circuit-breaker states, and per-service fault summaries;
    /// with arguments, configures fault injection against one service.
    fn run_faults(&mut self, rest: &str) -> Result<String, String> {
        let net = self.world.net();
        let args: Vec<&str> = rest.split_whitespace().collect();
        if args.is_empty() {
            let rel = net.reliability();
            let mut out = String::new();
            writeln!(
                out,
                "reliability: retries={} failovers={} breaker_trips={} \
                 breaker_rejections={} degraded_reads={} queued_writes={} \
                 replayed_writes={}",
                rel.retries,
                rel.failovers,
                rel.breaker_trips,
                rel.breaker_rejections,
                rel.degraded_reads,
                rel.queued_writes,
                rel.replayed_writes,
            )
            .expect("write to string");
            for (service, state) in net.breaker_states() {
                writeln!(out, "breaker {service}: {state}").expect("write to string");
            }
            for service in net.services() {
                if let Some(plan) = net.plan(&service) {
                    writeln!(out, "{service}: {}", plan.describe()).expect("write to string");
                }
            }
            return Ok(out);
        }
        let service = args[0];
        let plan = net
            .plan(service)
            .ok_or_else(|| format!("unknown service {service}"))?;
        let parse = |s: &str| s.parse::<u64>().map_err(|_| format!("bad number {s}"));
        match &args[1..] {
            [] => Ok(format!("{service}: {}\n", plan.describe())),
            ["drop", n] => {
                plan.drop_next(parse(n)?);
                Ok(String::new())
            }
            ["flaky", n] => {
                plan.flaky(parse(n)?);
                Ok(String::new())
            }
            ["partition", "on"] => {
                plan.set_partitioned(true);
                Ok(String::new())
            }
            ["partition", "off"] => {
                plan.set_partitioned(false);
                Ok(String::new())
            }
            ["window", start, end] => {
                plan.partition_window(parse(start)?, parse(end)?);
                Ok(String::new())
            }
            ["latency", base] => {
                plan.latency(parse(base)?, 0);
                Ok(String::new())
            }
            ["latency", base, jitter] => {
                plan.latency(parse(base)?, parse(jitter)?);
                Ok(String::new())
            }
            ["loss", ppm] => {
                plan.loss_ppm(parse(ppm)?);
                Ok(String::new())
            }
            ["clear"] => {
                plan.clear();
                Ok(String::new())
            }
            _ => Err(
                "usage: faults [<service> [drop <n>|flaky <n>|partition on|off|\
                      window <start_ns> <end_ns>|latency <base_ns> [jitter_ns]|\
                      loss <ppm>|clear]]"
                    .to_owned(),
            ),
        }
    }

    /// Renders the `top` table: per-(strategy, op) latency percentiles
    /// from the telemetry histograms, per-sentinel service latencies and
    /// resource accounting, and the call counters.
    fn render_top(&self) -> String {
        let tel = self.world.telemetry();
        let strategy_rows = tel.strategy_hist_snapshots();
        if strategy_rows.is_empty() {
            return "no telemetry recorded yet (is telemetry on?)\n".to_owned();
        }
        let us = |ns: u64| ns as f64 / 1000.0;
        let mut out = String::new();
        writeln!(
            out,
            "{:<14} {:<8} {:>6} {:>9} {:>9} {:>9} {:>9}",
            "strategy", "op", "count", "p50 us", "p90 us", "p99 us", "max us"
        )
        .expect("write to string");
        for ((strategy, op), h) in strategy_rows {
            writeln!(
                out,
                "{strategy:<14} {op:<8} {:>6} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                h.count,
                us(h.p50_ns()),
                us(h.p90_ns()),
                us(h.p99_ns()),
                us(h.max_ns),
            )
            .expect("write to string");
        }
        let sentinel_rows = tel.sentinel_hist_snapshots();
        if !sentinel_rows.is_empty() {
            writeln!(
                out,
                "\n{:<14} {:>6} {:>9} {:>9} {:>9}",
                "sentinel", "count", "p50 us", "p90 us", "max us"
            )
            .expect("write to string");
            for (sentinel, h) in sentinel_rows {
                writeln!(
                    out,
                    "{sentinel:<14} {:>6} {:>9.2} {:>9.2} {:>9.2}",
                    h.count,
                    us(h.p50_ns()),
                    us(h.p90_ns()),
                    us(h.max_ns),
                )
                .expect("write to string");
            }
        }
        let stats = tel.sentinel_stats_snapshots();
        if !stats.is_empty() {
            writeln!(
                out,
                "\n{:<14} {:>8} {:>7} {:>12} {:>12} {:>10}",
                "sentinel", "ops", "errors", "bytes_in", "bytes_out", "queue_peak"
            )
            .expect("write to string");
            for (name, s) in stats {
                writeln!(
                    out,
                    "{name:<14} {:>8} {:>7} {:>12} {:>12} {:>10}",
                    s.ops, s.errors, s.bytes_in, s.bytes_out, s.queue_depth_peak,
                )
                .expect("write to string");
            }
        }
        let calls = self.counters.snapshot();
        writeln!(
            out,
            "\ncalls: create={} read={} write={} close={} size={} seek={} \
             flush={} ioctl={} scatter={} gather={} other={}",
            calls.create_file,
            calls.read_file,
            calls.write_file,
            calls.close_handle,
            calls.get_file_size,
            calls.set_file_pointer,
            calls.flush_file_buffers,
            calls.device_io_control,
            calls.read_file_scatter,
            calls.write_file_gather,
            calls.other,
        )
        .expect("write to string");
        out
    }

    /// Renders the `spans` view: the most recent complete span trees
    /// (indented by depth), then any recorded slow operations with their
    /// ancestor chains.
    fn render_spans(&self) -> String {
        const MAX_ROOTS: usize = 8;
        let tel = self.world.telemetry();
        let spans = tel.spans();
        if spans.is_empty() {
            return "no spans recorded yet (is telemetry on?)\n".to_owned();
        }
        let mut out = String::new();
        let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
        let skipped = roots.len().saturating_sub(MAX_ROOTS);
        if skipped > 0 {
            writeln!(out, "... {skipped} earlier root spans omitted").expect("write to string");
        }
        for root in roots.iter().rev().take(MAX_ROOTS).rev() {
            render_span_tree(&mut out, &spans, root, 0);
        }
        let slow = tel.slow_ops();
        if !slow.is_empty() {
            writeln!(out, "\nslow ops:").expect("write to string");
            for op in slow {
                writeln!(
                    out,
                    "  {} ({:.2} us) via {}",
                    op.record.name,
                    op.record.duration_ns() as f64 / 1000.0,
                    op.ancestry,
                )
                .expect("write to string");
            }
        }
        out
    }

    /// Renders `spans --trace <id>`: only the spans of one causal trace,
    /// as parent-linked trees.
    fn render_trace(&self, trace: u64) -> String {
        let tel = self.world.telemetry();
        let spans: Vec<SpanRecord> = tel
            .spans()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect();
        if spans.is_empty() {
            return format!("no spans recorded for trace {trace}\n");
        }
        let mut out = String::new();
        writeln!(out, "trace {trace} ({} spans):", spans.len()).expect("write to string");
        // Roots of the filtered set: spans whose parent is outside it
        // (normally just the interpose root with parent 0).
        let roots: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| !spans.iter().any(|p| p.id == s.parent))
            .collect();
        for root in roots {
            render_span_tree(&mut out, &spans, root, 1);
        }
        out
    }

    /// Runs a multi-line script, concatenating outputs. Stops at the
    /// first error.
    ///
    /// # Errors
    ///
    /// The first [`ShellError`], annotated with the line number.
    pub fn run_script(&mut self, script: &str) -> Result<String, ShellError> {
        let mut out = String::new();
        for (i, line) in script.lines().enumerate() {
            match self.run(line) {
                Ok(text) => out.push_str(&text),
                Err(e) => {
                    return Err(ShellError {
                        command: e.command,
                        message: format!("line {}: {}", i + 1, e.message),
                    })
                }
            }
        }
        Ok(out)
    }
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

/// Prints `span` and its descendants from `spans`, indented by depth.
fn render_span_tree(out: &mut String, spans: &[SpanRecord], span: &SpanRecord, depth: usize) {
    let strategy = if span.strategy.is_empty() {
        String::new()
    } else {
        format!(" [{}]", span.strategy)
    };
    let note = match span.annotation() {
        note if note.is_empty() => String::new(),
        note => format!("[{note}]"),
    };
    writeln!(
        out,
        "{:indent$}{} {}{note}{} ({:.2} us, {} bytes)",
        "",
        span.layer.label(),
        span.name,
        strategy,
        span.duration_ns() as f64 / 1000.0,
        span.bytes,
        indent = depth * 2,
    )
    .expect("write to string");
    for child in spans.iter().filter(|s| s.parent == span.id) {
        render_span_tree(out, spans, child, depth + 1);
    }
}

/// `help` text.
pub const HELP: &str = "\
commands:
  mkdir <dir>                          create a directory
  ls [dir]                             list a directory
  cat <path>                           print a file (active or passive)
  write <path> <text>                  create/replace a file with text
  append <path> <text>                 append text to a file
  cp <from> <to> | mv <from> <to>      copy / rename
  rm <path>                            delete
  stat <path>                          size + active-file info
  install <path> <sentinel> <strategy> <backing> [k=v ...]
                                       make <path> an active file
                                       strategy: process|control|thread|dll
                                       backing:  none|memory|disk
  sentinels | services                 list registered names
  stats                                per-strategy/per-op table (count,
                                       bytes) and the cost model's
                                       crossings and copies
  top                                  latency percentiles per strategy/op
                                       and per sentinel, per-sentinel ops,
                                       errors, bytes and queue peak, plus
                                       call counts
  spans                                recent span trees across the chain
                                       (interpose > strategy > transport >
                                       sentinel > backend) and slow ops
  spans --trace <id>                   only the spans of one causal trace
  dump                                 flight-recorder post-mortem bundles
                                       plus metrics/fault/breaker state, as
                                       one JSON document
  faults                               reliability counters, breaker states,
                                       and per-service fault summaries
  faults <service> <fault ...>         inject faults against a service:
                                       drop <n> | flaky <n> | partition on|off
                                       window <start_ns> <end_ns>
                                       latency <base_ns> [jitter_ns]
                                       loss <ppm> | clear
  store <path> checkpoint              fold the WAL into pages now
  store <path> stats                   durable-store counters (WAL appends,
                                       fsyncs, commits, recovery outcome)
  store <path> sync <always|commit|off>
                                       switch the durability/speed knob
  sessions                             live shared sentinels with their
                                       session counts, plus the session
                                       gauges (attaches, queue depth,
                                       coalesced writes, batch flushes)
  fleet                                sentinel-executor status: worker
                                       pool bound, live and queued tasks,
                                       poll/wake-up/park counters
  cluster                              replicated-fleet gauges: membership,
                                       primary-ack writes/replications,
                                       read failovers, bounded-staleness
                                       waits and rejections
  metrics [prometheus|json]            export the full metrics snapshot
  telemetry [on|off|slow <ns>]         toggle span/histogram recording or
                                       set the slow-op report threshold
  demo                                 register demo remote services
  help                                 this text
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cat_roundtrip() {
        let mut sh = Shell::new();
        sh.run("write /hello.txt hi there").expect("write");
        assert_eq!(sh.run("cat /hello.txt").expect("cat"), "hi there");
    }

    #[test]
    fn store_command_drives_the_durable_controls() {
        let mut sh = Shell::new();
        sh.run("install /ledger.af null dll disk durable=on sync=commit")
            .expect("install");
        sh.run("write /ledger.af committed state").expect("write");
        let stats = sh.run("store /ledger.af stats").expect("stats");
        assert!(stats.contains("commits="), "stats: {stats}");
        assert!(stats.contains("torn=false"), "stats: {stats}");
        let ckpt = sh.run("store /ledger.af checkpoint").expect("checkpoint");
        assert!(ckpt.contains("pages_written="), "checkpoint: {ckpt}");
        let sync = sh.run("store /ledger.af sync off").expect("sync");
        assert!(sync.contains("off"), "sync: {sync}");
        // A passive file answers NotSupported, surfaced as an error.
        sh.run("write /plain.txt hello").expect("write");
        assert!(sh.run("store /plain.txt stats").is_err());
        assert!(sh.run("store /ledger.af sync sometimes").is_err());
        assert!(sh.run("store").is_err());
    }

    #[test]
    fn install_makes_cat_see_the_sentinel() {
        let mut sh = Shell::new();
        sh.run("install /loud.af uppercase dll disk")
            .expect("install");
        sh.run("append /loud.af quiet words").expect("append");
        assert_eq!(sh.run("cat /loud.af").expect("cat"), "QUIET WORDS");
        let stat = sh.run("stat /loud.af").expect("stat");
        assert!(stat.contains("active: uppercase (DLL, disk)"));
    }

    #[test]
    fn sessions_reports_shared_sentinels_and_gauges() {
        let mut sh = Shell::new();
        sh.run("install /loud.af uppercase dll disk")
            .expect("install");
        let idle = sh.run("sessions").expect("sessions");
        assert!(idle.contains("no shared sentinels"), "{idle}");
        sh.run("append /loud.af abc").expect("append");
        let after = sh.run("sessions").expect("sessions");
        // Each shell command opens and closes, so no sentinel is live
        // afterwards — but the attach was counted.
        assert!(after.contains("attaches=1"), "{after}");
        assert!(after.contains("current=0"), "{after}");
    }

    #[test]
    fn cluster_reports_fleet_gauges() {
        use afs_remote::ClusterClient;
        let mut sh = Shell::new();
        let idle = sh.run("cluster").expect("cluster");
        assert!(idle.contains("nodes=0"), "{idle}");
        assert!(idle.contains("writes=0"), "{idle}");
        // Drive a small replicated fleet feeding the world's hub gauges —
        // what the command then reports.
        let net = sh.world.net().clone();
        let client = ClusterClient::new(net.clone(), 2, Some(5))
            .with_gauges(Arc::clone(sh.world.telemetry().cluster()));
        for i in 0..2 {
            let name = format!("files-{i}");
            net.register(&name, FileServer::new() as Arc<dyn Service>);
            client.add_node(&name);
        }
        client.write("/k.af", 0, b"bytes").expect("write");
        client.read("/k.af", 0, 5).expect("read");
        let after = sh.run("cluster").expect("cluster");
        assert!(after.contains("nodes=2"), "{after}");
        assert!(after.contains("writes=1 replications=1"), "{after}");
        assert!(after.contains("reads=1 failovers=0"), "{after}");
    }

    #[test]
    fn fleet_reports_executor_status() {
        let mut sh = Shell::new();
        let idle = sh.run("fleet").expect("fleet");
        assert!(idle.contains("live_tasks=0"), "{idle}");
        assert!(idle.contains("spawned=0"), "{idle}");
        sh.run("install /loud.af uppercase thread memory")
            .expect("install");
        sh.run("append /loud.af abc").expect("append");
        let after = sh.run("fleet").expect("fleet");
        // Each shell command opens and closes, so the task retired — but
        // its spawn and polls were counted.
        assert!(after.contains("live_tasks=0"), "{after}");
        assert!(!after.contains("spawned=0"), "{after}");
        assert!(after.contains("workers="), "{after}");
        assert!(after.contains("queued=0"), "{after}");
    }

    #[test]
    fn demo_services_feed_aggregators() {
        let mut sh = Shell::new();
        sh.run("demo").expect("demo");
        sh.run("install /motd.af remote-file dll memory service=files remote=/pub/motd")
            .expect("install");
        let motd = sh.run("cat /motd.af").expect("cat");
        assert!(motd.contains("welcome"));
    }

    #[test]
    fn scripts_stop_at_first_error_with_line_number() {
        let mut sh = Shell::new();
        let err = sh
            .run_script("write /a one\nbogus command\nwrite /b two")
            .expect_err("must fail");
        assert_eq!(err.command, "bogus");
        assert!(err.message.starts_with("line 2"));
        // Line 3 never ran.
        assert!(sh.run("cat /b").is_err());
    }

    #[test]
    fn ls_and_namespace_commands() {
        let mut sh = Shell::new();
        sh.run_script("mkdir /d\nwrite /d/a aa\ncp /d/a /d/b\nmv /d/b /d/c\nrm /d/a")
            .expect("script");
        let listing = sh.run("ls /d").expect("ls");
        assert!(listing.contains("c"));
        assert!(!listing.contains(" a\n"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut sh = Shell::new();
        let out = sh
            .run_script("# a comment\n\nwrite /x 1\n# done")
            .expect("script");
        assert!(out.is_empty());
    }

    #[test]
    fn stats_reports_per_strategy_ops() {
        let mut sh = Shell::new();
        assert!(sh
            .run("stats")
            .expect("empty stats")
            .contains("no active-file operations"));
        sh.run("install /s.af null dll disk").expect("install");
        sh.run("append /s.af abc").expect("append");
        sh.run("cat /s.af").expect("cat");
        let stats = sh.run("stats").expect("stats");
        let header = stats.lines().next().expect("header");
        assert_eq!(
            header.split_whitespace().collect::<Vec<_>>(),
            ["strategy", "op", "count", "bytes/op"],
            "no time column: the shell runs no virtual clock"
        );
        assert!(!stats.contains("virtual"), "no time in the footer: {stats}");
        assert!(stats.contains("DLL"), "strategy column present: {stats}");
        assert!(stats.contains("read"), "read row present: {stats}");
        assert!(stats.contains("write"), "write row present: {stats}");
        assert!(stats.contains(" copies"), "the model's totals: {stats}");
    }

    #[test]
    fn stats_totals_survive_ring_wrap() {
        let mut sh = Shell::new();
        sh.run("install /w.af null dll memory").expect("install");
        sh.run("append /w.af x").expect("seed");
        // The stats table renders cumulative aggregates, so a long run
        // keeps exact counts.
        let ops = 4_296;
        let h = sh
            .api
            .create_file("/w.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 1];
        for _ in 0..ops {
            sh.api
                .set_file_pointer(h, 0, SeekMethod::Begin)
                .expect("seek");
            sh.api.read_file(h, &mut buf).expect("read");
        }
        sh.api.close_handle(h).expect("close");
        let stats = sh.run("stats").expect("stats");
        let read_row = stats
            .lines()
            .find(|l| l.contains("read"))
            .expect("read row");
        assert!(
            read_row.contains(&format!("{ops}")),
            "exact read count rendered: {read_row}"
        );
        assert!(stats.contains("total:"), "totals footer present: {stats}");
    }

    #[test]
    fn top_and_spans_render_telemetry() {
        let mut sh = Shell::new();
        sh.run("install /t.af null thread memory").expect("install");
        sh.run("append /t.af payload").expect("append");
        sh.run("cat /t.af").expect("cat");
        let top = sh.run("top").expect("top");
        assert!(top.contains("Thread"), "strategy row present: {top}");
        assert!(top.contains("p99 us"), "percentile header present: {top}");
        assert!(top.contains("calls:"), "call counters present: {top}");
        let accounting = top
            .split_once("queue_peak\n")
            .unwrap_or_else(|| panic!("per-sentinel accounting header: {top}"))
            .1;
        let row: Vec<&str> = accounting
            .lines()
            .next()
            .expect("a sentinel row")
            .split_whitespace()
            .collect();
        let count = |i: usize| row[i].parse::<u64>().expect("a count");
        assert_eq!(row[0], "null", "one row per sentinel: {top}");
        assert!(count(1) >= 2, "the append and the read are ops: {top}");
        assert_eq!(count(2), 0, "no errors: {top}");
        assert!(count(3) >= 7 && count(4) >= 7, "payload in and out: {top}");
        assert!(count(5) >= 1, "a served op was queued: {top}");
        let spans = sh.run("spans").expect("spans");
        assert!(spans.contains("interpose ReadFile"), "root span: {spans}");
        assert!(spans.contains("strategy read"), "strategy span: {spans}");
        assert!(spans.contains("transport"), "transport span: {spans}");
    }

    /// Two sessions of one shared file: each sentinel span names its
    /// session in the tree, as slow-op ancestry does.
    #[test]
    fn spans_name_each_session_of_a_shared_file() {
        let mut sh = Shell::new();
        sh.run("install /two.af null thread memory")
            .expect("install");
        sh.run("append /two.af payload").expect("append");
        let open = || {
            sh.api
                .create_file("/two.af", Access::read_only(), Disposition::OpenExisting)
                .expect("open")
        };
        let (a, b) = (open(), open());
        let mut buf = [0u8; 4];
        sh.api.read_file(a, &mut buf).expect("read a");
        sh.api.read_file(b, &mut buf).expect("read b");
        sh.api.close_handle(a).expect("close a");
        sh.api.close_handle(b).expect("close b");
        let spans = sh.run("spans").expect("spans");
        let sessions: std::collections::BTreeSet<&str> = spans
            .lines()
            .filter(|l| l.trim_start().starts_with("sentinel "))
            .filter_map(|l| l.split("session=").nth(1)?.split(' ').next())
            .collect();
        assert_eq!(sessions.len(), 2, "both sessions' ids show: {spans}");
        assert!(spans.contains("file=/two.af"), "the file shows: {spans}");
    }

    #[test]
    fn metrics_export_in_both_formats() {
        let mut sh = Shell::new();
        sh.run("install /m.af null dll memory").expect("install");
        sh.run("append /m.af data").expect("append");
        sh.run("cat /m.af").expect("cat");
        let prom = sh.run("metrics").expect("prometheus");
        assert!(prom.contains("afs_ops_total"), "trace metrics: {prom}");
        assert!(prom.contains("afs_calls_total"), "call counters: {prom}");
        let json = sh.run("metrics json").expect("json");
        assert!(afs_telemetry::json_is_valid(&json), "valid JSON: {json}");
        assert!(sh.run("metrics yaml").is_err(), "unknown format rejected");
    }

    #[test]
    fn telemetry_toggle_and_slow_threshold() {
        let mut sh = Shell::new();
        assert!(sh.run("telemetry").expect("status").contains("on"));
        sh.run("telemetry off").expect("off");
        sh.run("install /q.af null dll memory").expect("install");
        sh.run("append /q.af data").expect("append");
        assert_eq!(sh.world.telemetry().span_count(), 0, "off records nothing");
        sh.run("telemetry on").expect("on");
        sh.run("telemetry slow 1").expect("threshold");
        sh.run("cat /q.af").expect("cat");
        assert!(sh.world.telemetry().span_count() > 0);
        let spans = sh.run("spans").expect("spans");
        assert!(
            spans.contains("slow ops:"),
            "1 ns threshold flags ops: {spans}"
        );
    }

    #[test]
    fn faults_command_injects_and_reports() {
        let mut sh = Shell::new();
        sh.run("demo").expect("demo");
        assert!(
            sh.run("faults ghost partition on").is_err(),
            "unknown services are rejected"
        );
        sh.run("faults files partition on").expect("partition");
        let status = sh.run("faults").expect("status");
        assert!(status.contains("files: partitioned"), "summary: {status}");
        assert!(
            status.contains("reliability: retries="),
            "counters: {status}"
        );
        sh.run("install /motd.af remote-file dll memory service=files remote=/pub/motd")
            .expect("install");
        assert!(sh.run("cat /motd.af").is_err(), "partition surfaces");
        sh.run("faults files clear").expect("clear");
        let motd = sh.run("cat /motd.af").expect("healed");
        assert!(motd.contains("welcome"));
        assert!(sh
            .run("faults files")
            .expect("describe")
            .contains("healthy"));
    }

    #[test]
    fn newline_escape_expands() {
        let mut sh = Shell::new();
        sh.run("write /multi line1\\nline2").expect("write");
        assert_eq!(sh.run("cat /multi").expect("cat"), "line1\nline2");
    }
}
