//! The intercepted file API: active-file detection, sentinel launch, and
//! per-handle dispatch.
//!
//! [`ActiveFileSystem`] wraps any inner [`FileApi`]. Its `create_file`
//! stub "checks to see if the file name corresponds to an active file or
//! not … If the file is not an active file, the stub calls the standard
//! Win32 OpenFile routine" (Appendix A.2). For active files it launches
//! the sentinel per the spec's strategy and returns a fictitious handle
//! whose subsequent operations are routed to the sentinel.
//!
//! [`ActiveFilesLayer`] packages the whole thing as an
//! [`afs_interpose::ApiLayer`] so it can be installed into a
//! [`afs_interpose::MediatingConnector`] at runtime — and securely, so the
//! application cannot undo it.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use afs_interpose::ApiLayer;
use afs_ipc::SyncRegistry;
use afs_net::Network;
use afs_sim::{CostModel, OpTrace};
use afs_telemetry::{intern, Layer, SpanGuard, Telemetry};
use afs_vfs::{VPath, Vfs, ACTIVE_STREAM};
use afs_winapi::{
    Access, ApiResult, DelegateFileApi, Disposition, FileApi, FileInformation, Handle, HandleTable,
    Layered, SeekMethod, ShareMode, Win32Error,
};

use crate::ctx::SentinelCtx;
use crate::registry::SentinelRegistry;
use crate::spec::{RuntimeSpec, SentinelSpec, Strategy};
use crate::strategy::executor::{self, FleetShardStat, SentinelExecutor};
use crate::strategy::mux::SharedSentinel;
use crate::strategy::wire::Launched;
use crate::strategy::{self, ActiveOps, Instruments};

/// Handle-number base for active handles, disjoint from the passive
/// layer's range so dispatch is unambiguous.
const ACTIVE_HANDLE_BASE: u64 = 1 << 32;

/// Sharable sentinels keyed by `(path, encoded spec)`: a second open of
/// the same active file with the same spec attaches a new session instead
/// of spawning a second sentinel. Weak entries — the sentinel lives
/// exactly as long as some open handle keeps it alive.
type SharedMap = Mutex<HashMap<(String, Vec<u8>), Weak<dyn SharedSentinel>>>;

struct ActiveEntry {
    ops: Arc<dyn ActiveOps>,
    access: Access,
    /// Keeps the sentinel this handle is a session of (if any) alive while
    /// the handle is open; the registry only holds a `Weak`. Never read —
    /// its drop is its purpose.
    #[allow(dead_code)]
    shared: Option<Arc<dyn SharedSentinel>>,
}

/// The runtime shared by every [`ActiveFileSystem`] layer instance in one
/// world: file system, network, sentinel registry, sync namespace, cost
/// model, and the identity of the "current user".
struct Runtime {
    vfs: Arc<Vfs>,
    net: Network,
    registry: SentinelRegistry,
    sync: SyncRegistry,
    model: CostModel,
    trace: Arc<OpTrace>,
    telemetry: Arc<Telemetry>,
    user: String,
    signing_key: Option<u64>,
    handles: HandleTable<ActiveEntry>,
    shared: SharedMap,
    /// The bounded worker pool every §4.2/§4.3 and mux sentinel of this
    /// runtime is scheduled on. Declared after `handles` so that when the
    /// runtime drops, closing transports wake their tasks before the
    /// executor's own teardown drains the stragglers.
    exec: Arc<SentinelExecutor>,
}

/// The intercepted API over one `inner` API below it: an instance of the
/// [`ActiveFilesLayer`] that wrapped it, sharing that layer's runtime.
#[derive(Clone)]
pub struct ActiveFileSystem {
    inner: Arc<dyn FileApi>,
    runtime: Arc<Runtime>,
    /// `true` on the clone handed to sentinel contexts: opens made
    /// through it are §3 composition, whose sentinels are pinned off the
    /// bounded pool (the opener may block a worker waiting on them).
    nested: bool,
}

impl std::fmt::Debug for ActiveFileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveFileSystem")
            .field("user", &self.runtime.user)
            .field("open_active_handles", &self.runtime.handles.len())
            .finish_non_exhaustive()
    }
}

impl ActiveFileSystem {
    /// Opens the root [`Layer::Interpose`] span for one intercepted call
    /// against an active handle (no-op while telemetry is disabled).
    fn interpose_span(&self, name: &'static str) -> Option<SpanGuard> {
        self.runtime.telemetry.span(Layer::Interpose, name)
    }

    /// Decides whether `path` names an active file: the file exists and
    /// carries an `:active` stream holding a spec, and the caller is
    /// addressing the default (data) stream.
    fn active_spec(&self, path: &str) -> Option<(VPath, SentinelSpec)> {
        let vpath = VPath::parse(path).ok()?;
        if vpath.stream() != afs_vfs::DEFAULT_STREAM {
            return None;
        }
        let active = vpath.with_stream(ACTIVE_STREAM);
        let bytes = self.runtime.vfs.read_stream_to_end(&active).ok()?;
        if bytes.is_empty() {
            return None;
        }
        SentinelSpec::decode(&bytes).ok().map(|spec| (vpath, spec))
    }

    fn open_active(
        &self,
        vpath: VPath,
        spec: SentinelSpec,
        access: Access,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        let run = &*self.runtime;
        // A spec smuggled past `install_active_file` (written straight
        // into the `:active` stream) is validated again here: unknown
        // keys for a declaring sentinel fail the open, and so does a bad
        // value of a runtime key — on every open, before anything
        // launches.
        let rt = run
            .registry
            .validate_spec(&spec)
            .map_err(|e| e.to_string())
            .and_then(|()| RuntimeSpec::parse(&spec))
            .map_err(|e| {
                eprintln!("afs: refusing to open {}: {e}", vpath.file_path());
                Win32Error::InvalidParameter
            })?;
        // Access control: opening is "predicated upon access to the
        // passive file components" (§2.3).
        let meta = run.vfs.stat(&vpath.file_path())?;
        if meta.attributes.readonly && access.write {
            return Err(Win32Error::AccessDenied);
        }
        // Code-signing policy (§2.3 extension): with a signing key set,
        // only sentinels whose active part verifies may launch.
        if let Some(key) = run.signing_key {
            if !crate::security::check_active_file(&run.vfs, &vpath.file_path(), key) {
                return Err(Win32Error::AccessDenied);
            }
        }
        if matches!(&rt.allow_users, Some(allowed) if !allowed.contains(&run.user)) {
            return Err(Win32Error::AccessDenied);
        }
        match disposition {
            Disposition::CreateNew => return Err(Win32Error::FileExists),
            Disposition::CreateAlways | Disposition::TruncateExisting => {
                // Directory-level dispositions act on the passive data
                // part; the active part is untouched.
                run.vfs.write_stream_replace(&vpath.file_path(), &[])?;
                // A truncating open of a durable file also resets the
                // store streams — otherwise recovery would resurrect the
                // truncated-away state.
                if rt.durable.is_some() {
                    let file = vpath.file_path();
                    let _ = run
                        .vfs
                        .delete_stream(&file.with_stream(afs_store::PAGES_STREAM));
                    let _ = run
                        .vfs
                        .delete_stream(&file.with_stream(afs_store::WAL_STREAM));
                }
            }
            Disposition::OpenExisting | Disposition::OpenAlways => {}
        }
        // Session sharing: a second open of an already-active file joins
        // the running sentinel as a new session instead of spawning
        // another one — unless the spec opts out (`share=off`), the
        // strategy cannot carry commands (§4.1 streams), or the open
        // truncates the data part (a truncating open must not see, or
        // feed, the running sentinel's cached state).
        // Batched opens always get a private sentinel: the ring driver
        // stages writes and speculates reads application-side, and the
        // session hub that would have to order those across sessions
        // costs more per operation than a batched read does (see
        // `strategy::wire::open`).
        let sharable = rt.share
            && rt.ring_depth.is_none()
            && !matches!(spec.strategy(), Strategy::Process)
            && matches!(
                disposition,
                Disposition::OpenExisting | Disposition::OpenAlways
            );
        let key = (vpath.file_path().to_string(), spec.encode());
        if sharable {
            if let Some(existing) = run.shared.lock().get(&key).and_then(Weak::upgrade) {
                if let Some(ops) = existing.attach() {
                    return Ok(run.handles.insert(ActiveEntry {
                        ops,
                        access,
                        shared: Some(existing),
                    }));
                }
            }
        }
        let mut ctx = SentinelCtx::new(
            vpath.clone(),
            run.user.clone(),
            &spec,
            &rt,
            Arc::clone(&run.vfs),
            run.net.clone(),
            run.sync.clone(),
            run.model.clone(),
            Arc::clone(run.telemetry.store()),
        )
        .map_err(|e| strategy::to_win32(&e))?;
        // Sentinels see the intercepted API (this layer), so they can
        // open other active files — §3 composition. Clones share the
        // runtime, so handles interoperate. The clone is marked nested:
        // sentinels it spawns are pinned off the bounded pool.
        ctx.set_api(Arc::new(Layered(ActiveFileSystem {
            nested: true,
            ..self.clone()
        })));
        // Service-level objectives: spec keys declare the targets, the
        // telemetry hub tracks burn rates per file.
        let slo = rt.slo.is_declared().then(|| {
            run.telemetry
                .slo_register(&vpath.file_path().to_string(), spec.name(), rt.slo)
        });
        let instr = Instruments {
            model: run.model.clone(),
            trace: Arc::clone(&run.trace),
            strategy: spec.strategy().label(),
            tel: Arc::clone(&run.telemetry),
            sentinel: intern(spec.name()),
            exec: Arc::clone(&run.exec),
            pinned: self.nested,
            slo,
        };
        // Built *without* holding the registry lock — the open hook may
        // recursively open other active files through this same layer.
        let logic = || {
            run.registry
                .instantiate(&spec)
                .ok_or(Win32Error::FileNotFound)
        };
        let launched = match spec.strategy() {
            // Prefer a hand-written process sentinel; fall back to the
            // adapted logic pump.
            Strategy::Process => Launched::Private(match run.registry.instantiate_raw(&spec) {
                Some(raw) => strategy::process::open_raw(raw, ctx, instr),
                None => strategy::process::open_logic(logic()?, ctx, instr)?,
            }),
            Strategy::ProcessControl => {
                strategy::control::open(logic()?, ctx, instr, rt.ring_depth, sharable)?
            }
            Strategy::DllThread => {
                strategy::thread::open(logic()?, ctx, instr, rt.ring_depth, sharable)?
            }
            Strategy::DllOnly => {
                Launched::Shared(strategy::dll::open_shared(logic()?, ctx, instr)?)
            }
        };
        let (ops, shared) = match launched {
            Launched::Private(ops) => (ops, None),
            Launched::Shared(built) => {
                if sharable {
                    let mut map = run.shared.lock();
                    if let Some(existing) = map.get(&key).and_then(Weak::upgrade) {
                        if let Some(ops) = existing.attach() {
                            // Lost a racing first-open: join theirs.
                            // Dropping `built` shuts its wire down; a
                            // spawned loop sees the dead transport and
                            // runs its close hook.
                            drop(map);
                            return Ok(run.handles.insert(ActiveEntry {
                                ops,
                                access,
                                shared: Some(existing),
                            }));
                        }
                    }
                    map.retain(|_, weak| weak.strong_count() > 0);
                    map.insert(key, Arc::downgrade(&built));
                }
                let ops = built.attach().ok_or(Win32Error::BrokenPipe)?;
                (ops, Some(built))
            }
        };
        Ok(run.handles.insert(ActiveEntry {
            ops,
            access,
            shared,
        }))
    }

    fn active(&self, handle: Handle) -> Option<Arc<ActiveEntry>> {
        if handle.raw() < ACTIVE_HANDLE_BASE {
            return None;
        }
        self.runtime.handles.get(handle).ok()
    }
}

impl DelegateFileApi for ActiveFileSystem {
    fn delegate(&self) -> &dyn FileApi {
        &*self.inner
    }

    fn create_file(
        &self,
        path: &str,
        access: Access,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        match self.active_spec(path) {
            Some((vpath, spec)) => self.open_active(vpath, spec, access, disposition),
            None => self.delegate().create_file(path, access, disposition),
        }
    }

    fn create_file_shared(
        &self,
        path: &str,
        access: Access,
        share: ShareMode,
        disposition: Disposition,
    ) -> ApiResult<Handle> {
        match self.active_spec(path) {
            // Multiple concurrent opens of one active file are the
            // intended semantics (§2.2: one sentinel per open, sentinels
            // synchronise among themselves), so share modes do not gate
            // active opens.
            Some((vpath, spec)) => self.open_active(vpath, spec, access, disposition),
            None => self
                .delegate()
                .create_file_shared(path, access, share, disposition),
        }
    }

    fn read_file(&self, handle: Handle, buf: &mut [u8]) -> ApiResult<usize> {
        match self.active(handle) {
            Some(entry) => {
                if !entry.access.read {
                    return Err(Win32Error::AccessDenied);
                }
                let _op = self.interpose_span("ReadFile");
                entry.ops.read(buf)
            }
            None => self.delegate().read_file(handle, buf),
        }
    }

    fn write_file(&self, handle: Handle, data: &[u8]) -> ApiResult<usize> {
        match self.active(handle) {
            Some(entry) => {
                if !entry.access.write {
                    return Err(Win32Error::AccessDenied);
                }
                let _op = self.interpose_span("WriteFile");
                entry.ops.write(data)
            }
            None => self.delegate().write_file(handle, data),
        }
    }

    fn close_handle(&self, handle: Handle) -> ApiResult<()> {
        if handle.raw() >= ACTIVE_HANDLE_BASE {
            let entry = self.runtime.handles.remove(handle)?;
            let _op = self.interpose_span("CloseHandle");
            return entry.ops.close();
        }
        self.delegate().close_handle(handle)
    }

    fn get_file_size(&self, handle: Handle) -> ApiResult<u64> {
        match self.active(handle) {
            Some(entry) => {
                let _op = self.interpose_span("GetFileSize");
                entry.ops.size()
            }
            None => self.delegate().get_file_size(handle),
        }
    }

    fn set_file_pointer(&self, handle: Handle, offset: i64, method: SeekMethod) -> ApiResult<u64> {
        match self.active(handle) {
            Some(entry) => {
                let _op = self.interpose_span("SetFilePointer");
                entry.ops.seek(offset, method)
            }
            None => self.delegate().set_file_pointer(handle, offset, method),
        }
    }

    fn read_file_scatter(&self, handle: Handle, bufs: &mut [&mut [u8]]) -> ApiResult<usize> {
        match self.active(handle) {
            // "Operations such as ReadFileScatter that do not have direct
            // correspondence with operations on pipes are simply dropped"
            // for pipe strategies (Appendix A.2); strategies with control
            // channels run it as one protocol round trip.
            Some(entry) => {
                if !entry.access.read {
                    return Err(Win32Error::AccessDenied);
                }
                let _op = self.interpose_span("ReadFileScatter");
                entry.ops.read_scatter(bufs)
            }
            None => self.delegate().read_file_scatter(handle, bufs),
        }
    }

    fn write_file_gather(&self, handle: Handle, bufs: &[&[u8]]) -> ApiResult<usize> {
        match self.active(handle) {
            Some(entry) => {
                // One visible call, one interpose span; the per-buffer
                // strategy spans all nest under it.
                let _op = self.interpose_span("WriteFileGather");
                let mut total = 0;
                for buf in bufs {
                    total += entry.ops.write(buf)?;
                }
                Ok(total)
            }
            None => self.delegate().write_file_gather(handle, bufs),
        }
    }

    fn flush_file_buffers(&self, handle: Handle) -> ApiResult<()> {
        match self.active(handle) {
            Some(entry) => {
                let _op = self.interpose_span("FlushFileBuffers");
                entry.ops.flush()
            }
            None => self.delegate().flush_file_buffers(handle),
        }
    }

    fn lock_file(&self, handle: Handle, offset: u64, len: u64, exclusive: bool) -> ApiResult<()> {
        match self.active(handle) {
            // Locking an active file is a sentinel-policy matter (the
            // logging example of §3 locks *inside* the sentinel); the
            // plain byte-range API is not meaningful against a sentinel.
            Some(_) => Err(Win32Error::NotSupported),
            None => self.delegate().lock_file(handle, offset, len, exclusive),
        }
    }

    fn unlock_file(&self, handle: Handle, offset: u64, len: u64) -> ApiResult<()> {
        match self.active(handle) {
            Some(_) => Err(Win32Error::NotSupported),
            None => self.delegate().unlock_file(handle, offset, len),
        }
    }

    fn get_file_information(&self, handle: Handle) -> ApiResult<FileInformation> {
        match self.active(handle) {
            Some(entry) => Ok(FileInformation {
                size: entry.ops.size().unwrap_or(0),
                attributes: afs_vfs::FileAttributes::default(),
                created: 0,
                modified: 0,
            }),
            None => self.delegate().get_file_information(handle),
        }
    }

    fn set_end_of_file(&self, handle: Handle) -> ApiResult<()> {
        match self.active(handle) {
            Some(_) => Err(Win32Error::NotSupported),
            None => self.delegate().set_end_of_file(handle),
        }
    }

    fn device_io_control(&self, handle: Handle, code: u32, input: &[u8]) -> ApiResult<Vec<u8>> {
        match self.active(handle) {
            // The control lane of §4.2/A.3: the request travels to the
            // sentinel's `control` hook over the strategy's command
            // channel.
            Some(entry) => {
                let _op = self.interpose_span("DeviceIoControl");
                entry.ops.control(code, input)
            }
            None => self.delegate().device_io_control(handle, code, input),
        }
    }
}

/// The installable interception layer carrying an [`ActiveFileSystem`]
/// runtime. All instances produced by [`ApiLayer::wrap`] share it — one
/// active handle table, so the layer can report how many sentinels are
/// live, and one executor, so they all schedule their sentinels on the
/// same bounded pool.
pub struct ActiveFilesLayer {
    runtime: Arc<Runtime>,
}

impl ActiveFilesLayer {
    /// Creates the layer; `wrap` will build an [`ActiveFileSystem`] over
    /// whatever API is below it in the chain.
    pub fn new(
        vfs: Arc<Vfs>,
        net: Network,
        registry: SentinelRegistry,
        sync: SyncRegistry,
        model: CostModel,
        user: &str,
    ) -> Self {
        let telemetry = Telemetry::new();
        let exec =
            SentinelExecutor::new(executor::default_workers(), Arc::clone(telemetry.fleet()));
        let runtime = Arc::new(Runtime {
            vfs,
            net,
            registry,
            sync,
            model,
            trace: Arc::new(OpTrace::new()),
            telemetry,
            user: user.to_owned(),
            signing_key: None,
            handles: HandleTable::with_start(ACTIVE_HANDLE_BASE),
            shared: Mutex::new(HashMap::new()),
            exec,
        });
        ActiveFilesLayer { runtime }
    }

    /// The runtime, while this layer is still being configured.
    fn configure(&mut self) -> &mut Runtime {
        Arc::get_mut(&mut self.runtime).expect("a layer is configured before it wraps an API")
    }

    /// Rebuilds the sentinel executor with an explicit worker-pool bound
    /// M. Only meaningful before the first open (the fresh pool spawns its
    /// workers lazily, so swapping here is free).
    pub fn with_fleet_workers(mut self, workers: usize) -> Self {
        let fleet = Arc::clone(self.runtime.telemetry.fleet());
        self.configure().exec = SentinelExecutor::new(workers, fleet);
        self
    }

    /// Enables the code-signing policy: opens refuse unsigned or
    /// tampered active parts.
    pub fn with_signing_key(mut self, key: u64) -> Self {
        self.configure().signing_key = Some(key);
        self
    }

    /// The worker-pool bound M of the sentinel executor.
    pub fn fleet_workers(&self) -> usize {
        self.runtime.exec.worker_cap()
    }

    /// Live sentinel tasks registered on the executor (§4.2/§4.3 and mux
    /// sentinels; §4.1 pumps and §4.4 inline opens are not tasks).
    pub fn fleet_tasks(&self) -> u64 {
        self.runtime.exec.live()
    }

    /// Per-shard executor occupancy, for diagnostics (`afsh fleet`).
    pub fn fleet_shards(&self) -> Vec<FleetShardStat> {
        self.runtime.exec.shard_stats()
    }

    /// Deterministic executor teardown: joins every worker, then drains
    /// remaining tasks inline (close hooks still run).
    pub fn fleet_shutdown(&self) {
        self.runtime.exec.shutdown();
    }

    /// Deterministic world teardown: drops every still-open active handle
    /// (closing each transport wakes its sentinel, which runs its close
    /// hook and retires), then drains the executor. After this returns no
    /// sentinel task and no fleet worker is live.
    pub fn quiesce(&self) {
        drop(self.runtime.handles.drain());
        self.runtime.shared.lock().clear();
        self.runtime.exec.shutdown();
    }

    /// The per-world observability ring: every operation on every active
    /// handle records strategy, kind, bytes, time, crossings, and copies.
    pub fn trace(&self) -> &Arc<OpTrace> {
        &self.runtime.trace
    }

    /// Live shared sentinels: `(path, sentinel name, strategy label,
    /// session count)` per entry, across every instance this layer wraps
    /// (for diagnostics: `afsh sessions`).
    pub fn shared_sentinels(&self) -> Vec<(String, String, &'static str, usize)> {
        self.runtime
            .shared
            .lock()
            .iter()
            .filter_map(|((path, spec_bytes), weak)| {
                let shared = weak.upgrade()?;
                let spec = SentinelSpec::decode(spec_bytes).ok()?;
                Some((
                    path.clone(),
                    spec.name().to_owned(),
                    spec.strategy().label(),
                    shared.session_count(),
                ))
            })
            .collect()
    }

    /// The telemetry hub shared by every layer this runtime spans: spans,
    /// latency histograms, and queue gauges. Disabled (and free) by
    /// default; see [`Telemetry::set_enabled`].
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.runtime.telemetry
    }

    /// Number of currently open active handles (each holds a live
    /// sentinel).
    pub fn open_sentinels(&self) -> usize {
        self.runtime.handles.len()
    }
}

impl ApiLayer for ActiveFilesLayer {
    fn name(&self) -> &str {
        "active-files"
    }

    fn wrap(&self, inner: Arc<dyn FileApi>) -> Arc<dyn FileApi> {
        Arc::new(Layered(ActiveFileSystem {
            inner,
            runtime: Arc::clone(&self.runtime),
            nested: false,
        }))
    }
}
