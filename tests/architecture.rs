//! The architecture is a test: each row below is one of the tree's
//! one-mechanism claims, checked as text over the source. A row is the
//! guard's test and name, why it holds, a sample that breaks its first
//! clause, and its clauses. A clause bounds how many lines of its scope
//! match a needle. A scope is paths from the repository root, applied in
//! order: `*` matches any run, `/` included, and `a/**/b` matches `a/b`;
//! `!` excludes; `#fn name` or `#struct Name` narrows a file to that item.
//! An entry that matches nothing fails its row. A needle is literal text
//! but for three regex atoms: `\b`, `\w*`, `.*`. DESIGN.md lists the rows.

use std::{collections::BTreeMap, fs, iter::once, ops::Range, path::Path};

macro_rules! guards {
    ($($test:ident: $name:literal, $why:literal, $sample:literal => $($clause:expr),+;)+) => {
        fn table() -> Vec<Guard> {
            let row = |test, name, why, sample, clauses| Guard { test, name, why, sample, clauses };
            vec![$(row(stringify!($test), $name, $why, $sample, vec![$($clause),+])),+]
        }
        $(#[test] fn $test() { hold(stringify!($test)) })+
    };
}

guards! {
    declared_once: "Declared once (runtime spec keys, metric families)", "A runtime key is read from a spec only by `RuntimeSpec::parse` and a metric family is named only by its `metric_family!` declaration: a literal of either anywhere else is a second copy of a list this tree keeps once.",
    r#"    let share = spec.config().get("share");"# => grep(&["crates/**/*.rs", "src/**/*.rs", "!crates/afs-core/src/spec.rs"], &[
        r#"config.*.get("share")"#, r#"config.*.get("allow_users")"#, r#"config.*.get("degraded")"#, r#"config.*.get("durable")"#, r#"config.*.get("sync")"#,
        r#"config.*.get("checkpoint_pages")"#, r#"config.*.get("page_size")"#, r#"config.*.get("retry.*")"#, r#"config.*.get("replicas")"#,
        r#"config.*.get("breaker.\w*")"#, r#"config.*.get("staleness_ms")"#,
        r#"config.*.get("batch")"#, r#"config.*.get("ring_depth")"#]).tests(),
    grep(&["crates/afs-core/src/world.rs"], &[r#""afs_pipe"#, r#""afs_shm"#, r#""afs_pool"#, r#""afs_session"#, r#""afs_coalesced"#, r#""afs_batch_flushes"#,
        r#""afs_fleet"#, r#""afs_store"#, r#""afs_ring"#, r#""afs_cluster"#, r#""afs_retries"#, r#""afs_failovers"#, r#""afs_breaker"#, r#""afs_degraded"#,
        r#""afs_queued"#, r#""afs_replayed"#, r#""afs_sentinel_ops"#, r#""afs_sentinel_errors"#, r#""afs_sentinel_bytes"#, r#""afs_sentinel_queue"#]).tests();
    one_seam: "One seam (an operation is one call on the application side)", "The four-step transport protocol, and what it took to glue its steps back together, are gone, and none of it comes back by name.",
    "trait StreamTransport {}" => grep(&["crates/**", "src/**"], &["supports_control", "pending_write", "outbound_pos", "StreamTransport"]).tests();
    no_shared_write_per_op: "No shared write per op (an inline operation writes nothing another thread's does)", "The per-operation path once reached a world-shared cache line three ways, none of which may come back: a lock around the interception chain, a whole-model snapshot around every op and a pooled staging buffer under the inline carrier.",
    "    chain: RwLock<Vec<Hook>>," => grep(&["crates/afs-interpose/src/connector.rs"], &["RwLock"]).tests(),
    grep(&["crates/afs-core/src/strategy/handle.rs"], &[".snapshot()"]).tests(), grep(&["crates/afs-core/src/strategy/dll.rs"], &["BufferPool", "FreeList"]).tests();
    a_message_writes_nothing_another_clients_message_writes: "A message writes nothing another client's message writes", "Two cluster clients meet only at the servers they both reach: a message borrows its service from the registry with loads only, a network clone is one reference count with the cost model inside it, and each thread keeps its own memo of built rings.",
    "        let services = self.registry.read();" => grep(&["crates/afs-net/src/net.rs"], &["RwLock", "registry.read()"]),
    grep(&["crates/afs-net/src/cluster.rs"], &[r"static \w*:.*Mutex"]).tests(), grep(&["crates/afs-net/src/net.rs#struct Network"], &["CostModel"]).tests();
    locks_come_from_the_shim: "Locks come from the shim (one choke point for every block and wake)", "vendor/parking_lot's `Condvar` skips the futex wake when nobody waits, and its locks are the one choke point a lock-level scheduler (ROADMAP item 1) can see, so a std lock beside them is a switch point it cannot reach.",
    "use std::sync::{Arc, Mutex};" => grep(&["crates/**/*.rs", "src/**/*.rs"], &["std::sync::.*Mutex", "std::sync::.*RwLock", "std::sync::.*Condvar"]).tests();
    one_stamped_channel: "One stamped channel (a write's clock does not depend on who won a race)", "Every FIFO carrier in afs-ipc is an instance of the stamped core, which holds the only blocking loop and the only two moves of a clock between threads: a receiver's to the stamp of what it takes, a sender's to the drain stamp of the capacity it reuses.",
    "        clock::sync_to(stamp);" => grep(&["crates/afs-ipc/src/**", "!crates/afs-ipc/src/stamped.rs", "!crates/afs-ipc/src/mux.rs"], &["sync_to"]).tests(),
    grep(&["crates/afs-ipc/src/**", "!crates/afs-ipc/src/stamped.rs", "!crates/afs-ipc/src/mux.rs", "!crates/afs-ipc/src/sync.rs"], &["Condvar"]).tests(),
    grep(&["crates/**", "src/**"], &["struct WakerCell"]).tests();
    one_lock_per_lane_crossing: "One lock per lane crossing (a lane recycles its own buffers, the waker is read in place)", "A round trip takes each lane's stamped lock once per side and no other lock in afs-ipc: a pipe, a §4.3 lane or a ring recycles its buffers under that lock, a take that keeps a sender's buffer pays the lane back under it, the dispatch loop stages in a list it owns, and the stamped core reads its waker in place.",
    "use crate::BufferPool;" => grep(&["crates/afs-ipc/src/pipe.rs", "crates/afs-ipc/src/transport.rs", "crates/afs-ipc/src/control.rs",
        "crates/afs-ipc/src/ring.rs", "crates/afs-core/src/strategy/dispatch.rs", "crates/afs-core/src/strategy/batch.rs"], &["BufferPool"]),
    grep(&["crates/afs-ipc/src/stamped.rs"], &["waker.clone()", "Arc::clone(&.*waker)"]);
    a_counter_has_one_writer: "A counter has one writer (each thread owns its stripe)", "A thread owns one cell of every `Striped` until it exits, so the cost model, the op trace and the striped families add with a load and a store; only `Tally`'s shared cell, written by threads that found no free cell, adds with a locked read-modify-write, and `SentinelStats` (one set per sentinel name), the queue gauges, the fleet gauges and the store gauges, which every message, poll or commit records into, are striped.",
    "        counter.fetch_add(n, Ordering::Relaxed);" => grep(&["crates/afs-sim/src/cost.rs", "crates/afs-sim/src/trace.rs"], &["fetch_add", "Mutex"]),
    grep(&["crates/afs-sim/src/stripe.rs"], &["fetch_add"]).hits(1, 1),
    grep(&["crates/afs-telemetry/src/gauges.rs"], &["SentinelStats striped(", "QueueGauges striped(", "FleetGauges striped(", "StoreGauges striped("]).hits(4, 4);
    one_poll_loop: "One poll loop (a caller that runs its sentinel runs the workers' loop)", "A sentinel is polled in one place, `poll_once`, which a worker, a pinned sentinel's own thread and the sender of an awaited command all reach through `Inner::run`.",
    "            task.poll();" => grep(&["crates/afs-core/src/strategy/executor.rs"], &[".poll()"]).unless(&["gauges.poll()"]).hits(1, 1),
    grep(&["crates/afs-core/src/strategy/executor.rs#fn wake_awaited"], &["self.run(task)"]).tests().hits(1, usize::MAX);
    one_sentinel_exit: "One sentinel exit (a fault ends a sentinel where it is entered)", "A sentinel ends one way, its `SentinelExit` signalled and then reaped by the closing application, and a fault is caught only where a sentinel is entered: `TaskHandle::enter`, `spawn_sentinel`, `InlineShared::run` and the open hook in `open_active`.",
    "struct Reaper;" => grep(&["crates/**/*.rs", "src/**/*.rs"], &[r"\bTaskDone\b", r"\bReaper\b", r"\bSentinelReaper\b", "JoinHandle<SimTime>"]),
    grep(&["crates/**/*.rs", "src/**/*.rs", "!crates/afs-core/src/afs.rs#fn open_active", "!crates/afs-core/src/strategy/dll.rs#fn run",
        "!crates/afs-core/src/strategy/executor.rs#fn enter", "!crates/afs-core/src/strategy/mod.rs#fn spawn_sentinel"], &["catch_unwind"]).tests(),
    grep(&["crates/afs-core/src/afs.rs#fn open_active"], &["catch_unwind"]).tests().hits(1, 1),
    grep(&["crates/afs-core/src/strategy/dll.rs#fn run"], &["catch_unwind"]).tests().hits(1, 1),
    grep(&["crates/afs-core/src/strategy/executor.rs#fn enter"], &["catch_unwind"]).tests().hits(1, 1),
    grep(&["crates/afs-core/src/strategy/mod.rs#fn spawn_sentinel"], &["catch_unwind"]).tests().hits(1, 1);
    one_run_queue: "One run queue (a pinned sentinel is a task on a queue of its own)", "The pool's workers share one `RunQueue` and a pinned sentinel is the same task on a `RunQueue` of its own, so striped queues, their padding, a steal sweep or a private lane for pinned threads would be a second scheduler.",
    "    shards: Vec<CachePadded<Shard>>," => grep(&["crates/afs-core/src/strategy/executor.rs"], &["Shard", "CachePadded", "PinnedLane", "shard_of", "steal("]);
    a_call_carries_its_flush: "A call carries its flush (one held doorbell)", "A send that rings nothing is safe only when an awaited send by the same sender follows under the same lock: `PairTransport::send_call_behind` is the one place that knows both, and the `Outbox::send_flushed` it calls is the one send that holds a frame.",
    "        tx.send_all(0, [], Doorbell::Held)?;" => grep(&["crates/afs-ipc/src/*.rs", "!crates/afs-ipc/src/transport.rs#fn send_flushed"],
        &["Doorbell::Held"]).unless(&["Doorbell::Held =>"]),
    grep(&["crates/afs-ipc/src/transport.rs#fn send_flushed"], &["Doorbell::Held"]).hits(1, usize::MAX),
    grep(&["crates/afs-ipc/src/*.rs", "!crates/afs-ipc/src/transport.rs#fn send_call_behind"], &[".send_flushed("]),
    grep(&["crates/afs-ipc/src/transport.rs#fn send_call_behind"], &[".send_flushed("]).hits(1, 1);
    found_once: "Found once (one ring per fleet, one owner walk per op)", "A file session asks its endpoint for owner indices and borrows the names, and no session builds a ring: `Placement` steps its membership through the thread's memo of built rings.",
    "        let owners = endpoint.owners(path);" => grep(&["crates/afs-remote/src/file_server.rs", "crates/afs-remote/src/cluster.rs"], &[".owners("]),
    grep(&["crates/afs-remote/src/**"], &["HashRing::new"]).tests();
    a_path_resolves_once: "A path resolves once (a tracked file is reached through its pin)", "The file server reads, writes and measures a file's streams only through the `Vfs`'s pinned entry points, so a tracked file's GET, STAT, PUT and REPL walk no path while its pin holds; and a placement holds its ring, so no membership is looked up again by comparing its names (`shared_ring`).",
    "                    let n = self.vfs.read_stream(vp, offset, &mut reply[GET_HEADER..])" =>
    grep(&["crates/afs-remote/src/file_server.rs"], &[".read_stream(", ".write_stream(", ".stream_len("]),
    grep(&["crates/afs-net/src/**"], &["shared_ring"]).tests();
    a_messages_buffers_belong_to_its_thread: "A message's buffers belong to its thread (a file session's message allocates nothing)", "A message's request and reply are buffers its thread keeps between messages, and the network's one message path, `rpc_once` and `cast_once`, is the only caller of a service: the file client encodes into the one and reads its reply where it landed in the other, so a call that hands back an owned reply has no place in it.",
    "        let resp = owner.rpc(&request)?;" => grep(&["crates/afs-remote/src/file_server.rs"], &["rpc(", "rpc_at("]),
    grep(&["crates/afs-net/src/net.rs"], &["service.handle_into("]).hits(1, 1), grep(&["crates/afs-net/src/net.rs"], &["service.handle_cast("]).hits(1, 1),
    grep(&["crates/afs-net/src/net.rs"], &["service.handle("]);
    one_failover_walk: "One failover walk (the network's, over the caller's owners)", "`Network::walk` is the tree's only loop that fails over, over owners the caller names, so a file session reads its refusals inside that walk and the runtime reaches services through endpoints, not typed clients of its own.",
    "    replicas: Vec<String>," => grep(&["crates/afs-net/src/net.rs", "crates/afs-net/src/reliability.rs"], &["replicas"]),
    grep(&["crates/afs-remote/**"], &["failover_worthy"]).tests(), grep(&["crates/afs-core/Cargo.toml"], &["afs-remote"]).tests();
    a_cluster_read_is_one_message: "A cluster read is one message (the session's floor rides the read)", "Each owner a read asks gets one floor-carrying `GET`; a `STAT` first is the second round trip per read this tree took out.",
    "    pub fn get_into(&self, path: &str) -> usize {\n        self.stat(path);\n    }" =>
    grep(&["crates/afs-remote/src/file_server.rs#fn get_into"], &["encode_get(w, path, offset, len, floor)"]).hits(1, usize::MAX),
    grep(&["crates/afs-remote/src/file_server.rs#fn get_into"], &[".stat(", "encode_stat"]);
    one_file_client: "One file client (the session is FileClient's; ClusterClient is a constructor)", "Reads and writes have one opcode each and only `FileClient` walks owners; `ClusterClient` is a name kept for `benchmark/`, not a second client.",
    "pub const OP_PUT_ACK: u8 = 9;" => grep(&["crates/afs-remote/**"], &["OP_GET_AT_FLOOR", "OP_PUT_ACK"]).tests(),
    grep(&["crates/afs-remote/src/*.rs", "!crates/afs-remote/src/file_server.rs"], &["net.walk(", "net().walk("]), grep(&["crates/afs-remote/src/cluster.rs"], &[""]).hits(0, 40);
    a_commit_is_one_append: "A commit is one append (the staged batch is its own WAL image)", "`PageStore` frames each record straight onto the one staged buffer and keeps dirty pages as bits; staged records, a page set or a body built on the side to frame from are the per-commit allocations this tree took out.",
    "    dirty: BTreeSet<u64>," => grep(&["crates/afs-store/src/store.rs"], &["BTreeSet", "Vec<WalRecord>"]),
    grep(&["crates/afs-store/src/wal.rs"], &["let mut body", "body.push", "body.extend"]);
    one_trace_carrier: "One trace carrier (an op's trace context rides the frame that carries the op)", "A sentinel span parents to the context its command's frame carried, not to a per-session cell, the thread's span stack or a bare parent id.",
    "pub struct SpanScope;" => grep(&["crates/*/src/**", "src/**"], &["SpanScope", "span_with_parent", "observe_inline", "observe_root"]).tests();
    one_recorder: "One recorder (a flight bundle is a cut of the span ring)", "The span ring and each thread's stack of open frames are the only recorders: a bundle freezes the ring and the triggering thread's frames, with no per-subsystem event ring or hub-wide list of open spans beside them.",
    "pub struct FlightEvent;" => grep(&["crates/**/*.rs", "src/**/*.rs"], &["SubsystemRing", "FlightEvent", "PendingSpan", "OpenSpan", "flight_note"]);
    batched_files_share: "Batched files share (batch=on composes with share, one round-trip charge)", "A batched open is a session on its file's one ring like any other sharable open, so no clause may force it private again and no carrier may leave its crossings to the handle.",
    "        if spec.batch.is_none() {" => grep(&["crates/afs-core/src/**"], &["ring_depth.is_none()", "batch.is_none()", "charges_own_crossings"]).tests();
    panels_are_views: "Panels are views (figure6 measures only through the grid)", "Every table figure6 prints reads the measured document, so a `measure*` call in the binary would print a number the gate does not hold.",
    "    let grid = measure_grid(ops);" => grep(&["crates/afs-bench/src/bin/figure6.rs"], &[r"\bmeasure\w*("]).tests();
    the_default_stream_is_a_field: "The default stream is a field (no op compares an empty name)", "A file's data part is `FileNode::data` and its sorted list of named streams never holds the empty name: `FileNode::find`, the one search of it, tests names for equality, which compares no bytes of names of unequal length, and only `stream`, `stream_mut`, `stream_or_new` (which branch on the empty name) and `remove_named` call it, and only `stream_or_new` orders names, to insert one. A map lookup keyed by `\"\"` calls `memcmp` at Rust's dangling empty-string address, which cost a server read 100–150 ns.",
    "        let data = file.streams.get(DEFAULT_STREAM);" => grep(&["crates/afs-vfs/src/**"], &[r"get\w*(DEFAULT_STREAM", "contains_key(DEFAULT_STREAM",
        "insert(DEFAULT_STREAM", r"get\w*(path.stream()", "contains_key(path.stream()", "insert(path.stream()"]),
    grep(&["crates/afs-vfs/src/**", "!crates/afs-vfs/src/node.rs#fn find", "!crates/afs-vfs/src/node.rs#fn stream_or_new"],
        &[r"named.get\w*(", "named.contains_key(", "named.insert(", "named.iter().position(", "named.iter().find(", "named.binary_search",
        "named.partition_point("]),
    grep(&["crates/afs-vfs/src/node.rs#fn stream_or_new"], &["named.partition_point(", "named.insert("]).hits(2, 2),
    grep(&["crates/afs-vfs/src/node.rs#fn find"], &["n == name"]).hits(1, 1),
    grep(&["crates/afs-vfs/src/**", "!crates/afs-vfs/src/node.rs#fn stream", "!crates/afs-vfs/src/node.rs#fn stream_mut",
        "!crates/afs-vfs/src/node.rs#fn stream_or_new", "!crates/afs-vfs/src/node.rs#fn remove_named"], &["self.find("]),
    grep(&["crates/afs-vfs/src/node.rs#fn stream", "crates/afs-vfs/src/node.rs#fn stream_mut", "crates/afs-vfs/src/node.rs#fn stream_or_new"],
        &["name.is_empty()"]).hits(3, 3);
    one_harness_per_clock: "One harness per clock (afs-bench is virtual time only)", "Host time belongs to `benchmark/`, so a Criterion target or a `benches/` directory in the workspace would be a benchmark no job runs.",
    r#"criterion = "0.5""# => grep(&["Cargo.toml", "crates/*/Cargo.toml"], &["criterion", "[[bench]]"]).tests(),
    grep(&["crates/**", "vendor/**"], &["/benches/", "/criterion/"]).paths().tests();
    one_spawn: "One spawn (a thread starts named and on its clock in one place)", "An executor worker, a §4.1 or pinned sentinel and a benchmark client each start through `afs_sim::spawn`, which names the thread and puts it on the virtual clock it is given, so a thread started by hand is one the lock-level scheduler (ROADMAP item 1) would not see.",
    "    let worker = std::thread::spawn(move || inner.worker_loop(&queue));" =>
    grep(&["crates/**/*.rs", "src/**/*.rs", "!crates/afs-sim/src/spawn.rs#fn spawn"], &["thread::spawn", "thread::Builder"]);
    one_seed: "One seed (AFS_TEST_SEED has one reader)", "`afs_sim::test_seed` is the one reader of the seed CI sweeps, with one grammar and one stderr line for a value outside it, so a world and every seeded suite run the seed their lane names: a reader of its own is a second grammar that can quietly run its default instead.",
    r#"    let seed = std::env::var("AFS_TEST_SEED").ok().and_then(|v| v.parse().ok());"# =>
    grep(&["crates/**/*.rs", "src/**/*.rs", "tests/*.rs", "examples/*.rs", "!crates/afs-sim/src/seed.rs", "!tests/architecture.rs"], &[r#""AFS_TEST_SEED""#]).tests();
    one_counting_allocator: "One counting allocator (a cost test counts through afs-sim's)", "A test that budgets allocations installs `afs_sim::CountingAlloc` with one line and counts with `afs_sim::allocations`, so every budget counts the same thing the same way; `benchmark/` keeps its own copy until ROADMAP item 9 rebuilds that harness.",
    "unsafe impl GlobalAlloc for Counting {}" =>
    grep(&["crates/**/*.rs", "src/**/*.rs", "tests/*.rs", "!crates/afs-sim/src/alloc.rs", "!tests/architecture.rs"], &["GlobalAlloc for"]).tests();
    a_batched_read_hashes_nothing: "A batched read hashes nothing (a ring's bytes travel in the buffers it hands around)", "The ring's completion index and the driver's readahead are short lists scanned by id and by span, the driver keeps one batch `Vec` across doorbells, and a read's bytes come back in the buffer its submission entry carried: a hash map, a `Vec` built per batch or bytes copied out of a completion is the per-read host work this tree took out.",
    "    cq: HashMap<u64, (Cqe<R>, SimTime)>," => grep(&["crates/afs-ipc/src/ring.rs", "crates/afs-core/src/strategy/batch.rs"], &["HashMap", "HashSet"]),
    grep(&["crates/afs-core/src/strategy/batch.rs"], &["Vec::with_capacity", ".to_vec()"]);
    a_thread_reply_carries_its_bytes: "A thread reply carries its bytes (§4.3: one lane back to the application)", "A read's reply and the buffer the sentinel staged its bytes in are one item of the reply lane, as a ring completion is, so the §4.3 wiring builds no shared buffer, and a hub parks a peer's reply in the buffer it came in: a slot of the application's own, or a buffer zero-filled to copy a reply into, is the per-read host work this tree took out.",
    "    fn shared_build() { let to_app = SharedBuffer::new(model); }" =>
    grep(&["crates/afs-ipc/src/transport.rs#fn shared_build"], &["SharedBuffer::"]).hits(0, 0),
    grep(&["crates/afs-ipc/src/mux.rs#fn pull"], &["vec![0;"]);
    a_thread_command_carries_its_bytes: "A thread command carries its bytes (§4.3: one lane to the sentinel)", "A write's command and the buffer its bytes were copied into are one item of the command lane, as a ring entry is, and the dispatch loop takes that buffer as the write's payload: a data lane beside the commands, read by length after its command, is the second mechanism and the per-write slot this tree took out, and the one-slot buffer it was is left only for `benchmark/`'s probe to time.",
    "pub trait DataTx: Send + Sync {}" =>
    grep(&["crates/**/*.rs", "src/**/*.rs"], &[r"\bDataTx\b", r"\bDataRx\b", r"\brecv_data_exact\b", r"\bsend_data\b"]).tests(),
    grep(&["crates/**/*.rs", "src/**/*.rs", "!crates/afs-ipc/src/shared_buf.rs", "!crates/afs-ipc/src/lib.rs"], &["SharedBuffer"]).tests();
    locks_are_counted_by_tests_only: "Locks are counted by tests only (the shim's count is a dev-dependency's)", "The shim counts each thread's locks under its `count` feature, which a cost test turns on through `[dev-dependencies]`: a manifest that turns it on anywhere else would count every lock of a release build or of `benchmark/`.",
    r#"parking_lot = { workspace = true, features = ["count"] }"# =>
    grep(&["Cargo.toml", "crates/*/Cargo.toml", "vendor/*/Cargo.toml", "benchmark/Cargo.toml", "!Cargo.toml#dev-dependencies",
        "!crates/*/Cargo.toml#dev-dependencies"], &[r#""count""#, "parking_lot/count"]);
    one_release_profile: "One release profile (fat LTO, one codegen unit, set in .cargo/config.toml)", "`.cargo/config.toml` is the one place a profile is set, so the workspace, `benchmark/` (a workspace of its own) and every script build one fat-LTO unit that inlines across crate seams by what a call costs: a profile in a manifest reaches only its own workspace, and a panic strategy that aborts would end the process a sentinel's fault is caught in.",
    "[profile.release]" => grep(&["crates/*/Cargo.toml", "Cargo.toml", "vendor/*/Cargo.toml", "benchmark/Cargo.toml", "scripts/*.sh", "benchmark/run.sh"],
        &["[profile", "PROFILE_RELEASE_LTO", "PROFILE_RELEASE_CODEGEN_UNITS"]).tests(),
    grep(&[".cargo/config.toml#profile.release"], &[r#"lto = "fat""#]).tests().hits(1, 1),
    grep(&[".cargo/config.toml#profile.release"], &[r"codegen-units = 1\b"]).tests().hits(1, 1),
    grep(&[".cargo/config.toml", "Cargo.toml", "crates/*/Cargo.toml", "vendor/*/Cargo.toml", "benchmark/Cargo.toml", "scripts/*.sh",
        "benchmark/run.sh", ".github/workflows/*.yml"], &["panic.*abort", "PANIC.*abort"]).tests();
}

struct Guard {
    test: &'static str,
    name: &'static str,
    why: &'static str,
    sample: &'static str,
    clauses: Vec<Clause>,
}

/// How many lines of `scope` may match a needle and no `unless` needle;
/// `tests` reads test code too, and `paths` reads each file's path instead.
#[derive(Default)]
struct Clause {
    scope: &'static [&'static str],
    needles: &'static [&'static str],
    unless: &'static [&'static str],
    tests: bool,
    paths: bool,
    hits: (usize, usize),
}

/// A clause that no line of non-test code in `scope` may match.
fn grep(scope: &'static [&'static str], needles: &'static [&'static str]) -> Clause {
    let mut clause = Clause::default();
    (clause.scope, clause.needles) = (scope, needles);
    clause
}

impl Clause {
    fn tests(self) -> Self {
        let tests = true;
        Clause { tests, ..self }
    }
    fn paths(self) -> Self {
        let paths = true;
        Clause { paths, ..self }
    }
    fn unless(self, unless: &'static [&'static str]) -> Self {
        Clause { unless, ..self }
    }
    fn hits(self, lo: usize, hi: usize) -> Self {
        let hits = (lo, hi);
        Clause { hits, ..self }
    }

    /// Empty if the clause holds, else why, naming each hit `path:line: text`.
    fn check(&self, read: &dyn Fn(&str) -> String) -> String {
        let mut picked = BTreeMap::new();
        for raw in self.scope {
            let mut parts = raw.trim_start_matches('!').split('#');
            let (glob, item) = (parts.next().unwrap(), parts.next());
            let mut matched = false;
            for f in files(glob) {
                let text = if self.paths { f.clone() } else { read(&f) };
                let lines = lines(&f, &text, self.tests);
                let spans = item.map_or(once(0..lines.len()).collect(), |i| bodies(&lines, i));
                matched |= !spans.is_empty();
                let keep = &mut picked.entry(f).or_insert((text.clone(), vec![])).1;
                keep.resize(lines.len(), false);
                let pick = !raw.starts_with('!');
                spans.into_iter().for_each(|span| keep[span].fill(pick));
            }
            if !matched {
                return format!("`{raw}` matches nothing\n");
            }
        }
        let any = |pats: &[&str], line: &str| pats.iter().any(|p| found(p, line));
        let mut hits = String::new();
        for (f, (text, keep)) in picked {
            let could = self.needles.iter().any(|p| pieces_in(p, &text));
            for (n, (line, _)) in text.lines().zip(keep).enumerate().filter(|(_, (_, k))| *k) {
                if could && any(self.needles, line) && !any(self.unless, line) {
                    hits += &format!("  {f}:{}: {}\n", n + 1, line.trim());
                }
            }
        }
        let ((lo, hi), n) = (self.hits, hits.lines().count());
        let breach = format!("{n} hits of {:?}, not {lo}..={hi}:\n{hits}", self.needles);
        (lo..=hi).contains(&n).then(String::new).unwrap_or(breach)
    }
}

fn breaches(guard: &Guard, read: &dyn Fn(&str) -> String) -> String {
    guard.clauses.iter().map(|c| c.check(read)).collect()
}

fn hold(test: &str) {
    let guard = table().into_iter().find(|g| g.test == test).unwrap();
    let breaches = breaches(&guard, &read);
    assert!(breaches.is_empty(), "{}\n{breaches}", guard.name);
}

/// The lines of `text` a clause reads, under the one test-code rule: a file
/// under a `tests/` directory or named `tests.rs` is test code, as is any
/// other file from a line that is exactly `#[cfg(test)]` on.
fn lines<'a>(path: &str, text: &'a str, tests: bool) -> Vec<&'a str> {
    let test_file = !tests && (path.contains("/tests/") || path.ends_with("/tests.rs"));
    let code = text.lines().take_while(|l| tests || *l != "#[cfg(test)]");
    code.take_while(|_| !test_file).collect()
}

/// Each item `item` (`fn name`, `struct Name`) in `lines`: its header line
/// through the first line that is `}` at the header's indent.
fn bodies(lines: &[&str], item: &str) -> Vec<Range<usize>> {
    let mut bodies = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if !l.trim_start().starts_with("//") && found(&format!(r"\b{item}\b"), l) {
            let close = format!("{}}}", &l[..l.len() - l.trim_start().len()]);
            let one_line = l.trim_end().ends_with(['}', ';']);
            let end = lines[i..].iter().position(|m| one_line || *m == close);
            bodies.push(i..end.map_or(lines.len(), |n| i + n + 1));
        }
    }
    bodies
}

/// Does `text` hold every literal piece of needle `pat`? (A quick reject.)
fn pieces_in(pat: &str, text: &str) -> bool {
    let pat = pat.replace(r"\b", ".*").replace(r"\w*", ".*");
    pat.split(".*").all(|piece| text.contains(piece))
}

fn found(pat: &str, line: &str) -> bool {
    let mut starts = line.char_indices().map(|(i, _)| i).chain([line.len()]);
    pieces_in(pat, line) && starts.any(|i| at(pat, line, i))
}

/// Does needle `pat` match `text` from byte `i` on?
fn at(pat: &str, text: &str, i: usize) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let next = text[i..].chars().next();
    if let Some(rest) = pat.strip_prefix(r"\b") {
        return is_word(text[..i].chars().next_back()) != is_word(next) && at(rest, text, i);
    }
    let star = pat.strip_prefix(".*").map(|rest| (rest, true));
    if let Some((rest, any)) = star.or_else(|| pat.strip_prefix(r"\w*").map(|rest| (rest, false))) {
        let step = |c: char| (any || is_word(Some(c))) && at(pat, text, i + c.len_utf8());
        return at(rest, text, i) || next.is_some_and(step);
    }
    match pat.chars().next() {
        None => true,
        Some(c) => next == Some(c) && at(&pat[c.len_utf8()..], text, i + c.len_utf8()),
    }
}

fn read(path: &str) -> String {
    let bytes = fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join(path));
    String::from_utf8_lossy(&bytes.unwrap_or_default()).into_owned()
}

/// The files `glob` matches, sorted; no `target/` or dot-directory is walked.
fn files(glob: &str) -> Vec<String> {
    let pat = format!("{}\n", glob.replace("**/", "*").replace('*', ".*"));
    let (mut todo, mut found) = (vec![glob.split("/*").next().unwrap().to_string()], vec![]);
    while let Some(rel) = todo.pop() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(&rel);
        for entry in fs::read_dir(&path).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != "target" && !name.starts_with('.') {
                todo.push(format!("{rel}/{name}"));
            }
        }
        if path.is_file() && at(&pat, &format!("{rel}\n"), 0) {
            found.push(rel);
        }
    }
    found.sort();
    found
}

/// Each test is named for its guard. Each guard that holds flags its sample
/// planted atop its first clause's first file and, if that clause skips
/// test code, passes it planted after `#[cfg(test)]`.
#[test]
fn every_guard_flags_its_planted_sample() {
    for g in table() {
        let short = g.name.split(" (").next().unwrap().to_lowercase();
        assert_eq!(g.test, short.replace(' ', "_").replace('\'', ""));
        if !breaches(&g, &read).is_empty() {
            continue; // its own test names the breach
        }
        let first = &g.clauses[0];
        let target = files(first.scope[0].split('#').next().unwrap()).remove(0);
        let (file, real) = (&target, read(&target));
        let plant = |text: String| move |f: &str| if f == file { text.clone() } else { read(f) };
        let top = breaches(&g, &plant(format!("{}\n{real}", g.sample)));
        let tail = breaches(&g, &plant(format!("{real}\n#[cfg(test)]\n{}", g.sample)));
        assert!(!top.is_empty(), "{}: sample passes", g.name);
        assert!(first.tests || tail.is_empty(), "{}: fails in tests", g.name);
    }
}

/// DESIGN.md's "Invariants" lists every guard and its why, in table order.
#[test]
fn design_md_lists_exactly_the_guards() {
    let design = read("DESIGN.md");
    let (_, section) = design.split_once("## 8. Invariants").unwrap_or_default();
    let listed: Vec<_> = section.lines().filter(|l| l.starts_with("- **")).collect();
    let row = |g: Guard| format!("- **{}** — {}", g.name, g.why);
    assert_eq!(listed, table().into_iter().map(row).collect::<Vec<_>>());
}

/// "One release profile" flags a release build that aborts on panic, its
/// second sample beside the crate-manifest profile every row's test plants.
#[test]
fn one_release_profile_flags_an_abort() {
    let g = table()
        .into_iter()
        .find(|g| g.test == "one_release_profile")
        .unwrap();
    let file = ".cargo/config.toml";
    let text = format!("{}panic = \"abort\"\n", read(file));
    let plant = |f: &str| if f == file { text.clone() } else { read(f) };
    assert!(
        !breaches(&g, &plant).is_empty(),
        "an abort in {file} passes"
    );
}
