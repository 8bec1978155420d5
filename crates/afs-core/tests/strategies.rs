//! Cross-strategy behaviour tests: the same sentinel logic must present
//! the same file to the application under every implementation approach,
//! and the approach-specific limitations of §4.1 must hold.

use afs_core::{
    AfsWorld, Backing, ProcessIo, RawProcessSentinel, SentinelCtx, SentinelError, SentinelLogic,
    SentinelResult, SentinelSpec, Strategy,
};
use afs_winapi::{Access, Disposition, FileApi, SeekMethod, Win32Error};

fn open_rw(world: &AfsWorld, path: &str) -> (afs_interpose::ApiHandle, afs_winapi::Handle) {
    let api = world.api();
    let h = api
        .create_file(path, Access::read_write(), Disposition::OpenExisting)
        .expect("open active file");
    (api, h)
}

fn read_to_end(api: &dyn FileApi, h: afs_winapi::Handle) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 64];
    loop {
        let n = api.read_file(h, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    out
}

#[test]
fn null_sentinel_roundtrips_under_every_strategy() {
    for strategy in Strategy::ALL {
        for backing in [Backing::Memory, Backing::Disk] {
            let world = AfsWorld::new();
            let path = "/t.af";
            world
                .install_active_file(path, &SentinelSpec::new("null", strategy).backing(backing))
                .expect("install");
            let (api, h) = open_rw(&world, path);
            api.write_file(h, b"hello active world").expect("write");
            api.close_handle(h).expect("close");

            // Reopen and stream the contents back.
            let (api, h) = open_rw(&world, path);
            let content = read_to_end(&api, h);
            assert_eq!(
                content, b"hello active world",
                "strategy {strategy:?} backing {backing:?}"
            );
            api.close_handle(h).expect("close");
        }
    }
}

#[test]
fn seek_and_size_work_everywhere_except_simple_process() {
    for strategy in Strategy::ALL {
        let world = AfsWorld::new();
        world
            .install_active_file(
                "/s.af",
                &SentinelSpec::new("null", strategy).backing(Backing::Memory),
            )
            .expect("install");
        let (api, h) = open_rw(&world, "/s.af");
        api.write_file(h, b"0123456789").expect("write");
        if strategy == Strategy::Process {
            assert_eq!(
                api.get_file_size(h),
                Err(Win32Error::CallNotImplemented),
                "§4.1: GetFileSize cannot be implemented without control information"
            );
            assert_eq!(
                api.set_file_pointer(h, 0, SeekMethod::Begin),
                Err(Win32Error::CallNotImplemented)
            );
        } else {
            assert_eq!(api.get_file_size(h).expect("size"), 10, "{strategy:?}");
            api.set_file_pointer(h, 4, SeekMethod::Begin).expect("seek");
            let mut buf = [0u8; 3];
            assert_eq!(api.read_file(h, &mut buf).expect("read"), 3);
            assert_eq!(&buf, b"456", "{strategy:?}");
            // End-relative seek.
            assert_eq!(
                api.set_file_pointer(h, -2, SeekMethod::End).expect("seek"),
                8
            );
        }
        api.close_handle(h).expect("close");
    }
}

#[test]
fn memory_backing_persists_across_opens() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/m.af",
            &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Memory),
        )
        .expect("install");
    let (api, h) = open_rw(&world, "/m.af");
    api.write_file(h, b"persist me").expect("write");
    api.close_handle(h).expect("close");
    // Close persists the memory cache into the data part, so a new
    // sentinel instance sees it.
    let (api, h) = open_rw(&world, "/m.af");
    assert_eq!(read_to_end(&api, h), b"persist me");
    api.close_handle(h).expect("close");
}

#[test]
fn passive_files_pass_through_untouched() {
    let world = AfsWorld::new();
    let api = world.api();
    let h = api
        .create_file("/plain.txt", Access::read_write(), Disposition::CreateNew)
        .expect("create passive");
    api.write_file(h, b"ordinary").expect("write");
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    let mut buf = [0u8; 8];
    api.read_file(h, &mut buf).expect("read");
    assert_eq!(&buf, b"ordinary");
    api.close_handle(h).expect("close");
    assert_eq!(world.open_sentinel_count(), 0);
}

#[test]
fn copying_an_active_file_copies_the_behaviour() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/orig.af",
            &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Disk),
        )
        .expect("install");
    let (api, h) = open_rw(&world, "/orig.af");
    api.write_file(h, b"carried").expect("write");
    api.close_handle(h).expect("close");
    // CopyFile goes through the passive layer, which copies all streams —
    // "a copy operation produces a second active file with the same data
    // and executable components" (§2.1).
    let api = world.api();
    api.copy_file("/orig.af", "/copy.af").expect("copy");
    assert_eq!(
        world
            .active_spec("/copy.af")
            .expect("copy carries the spec")
            .name(),
        "null"
    );
    let (api, h) = open_rw(&world, "/copy.af");
    assert_eq!(read_to_end(&api, h), b"carried");
    api.close_handle(h).expect("close");
}

#[test]
fn sentinel_lifecycle_tracks_open_close() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/l.af",
            &SentinelSpec::new("null", Strategy::ProcessControl).backing(Backing::Memory),
        )
        .expect("install");
    assert_eq!(world.open_sentinel_count(), 0);
    let (api, h) = open_rw(&world, "/l.af");
    assert_eq!(world.open_sentinel_count(), 1, "sentinel started on open");
    let (api2, h2) = open_rw(&world, "/l.af");
    assert_eq!(
        world.open_sentinel_count(),
        2,
        "multiple opens, multiple sentinels"
    );
    api.close_handle(h).expect("close 1");
    api2.close_handle(h2).expect("close 2");
    assert_eq!(
        world.open_sentinel_count(),
        0,
        "sentinels terminated on close"
    );
}

#[test]
fn unknown_sentinel_name_fails_the_open() {
    let world = AfsWorld::new();
    world
        .install_active_file("/ghost.af", &SentinelSpec::new("ghost", Strategy::DllOnly))
        .expect("install");
    let api = world.api();
    assert_eq!(
        api.create_file("/ghost.af", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::FileNotFound)
    );
}

#[test]
fn access_rights_enforced_on_active_handles() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/ro.af",
            &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Memory),
        )
        .expect("install");
    let api = world.api();
    let h = api
        .create_file("/ro.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open ro");
    assert_eq!(api.write_file(h, b"x"), Err(Win32Error::AccessDenied));
    api.close_handle(h).expect("close");
}

#[test]
fn allow_users_config_gates_the_open() {
    let world = AfsWorld::builder().user("mallory").build();
    world
        .install_active_file(
            "/secret.af",
            &SentinelSpec::new("null", Strategy::DllOnly)
                .backing(Backing::Memory)
                .with("allow_users", "alice, bob"),
        )
        .expect("install");
    let api = world.api();
    assert_eq!(
        api.create_file("/secret.af", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::AccessDenied)
    );
    // The same spec opened by an allowed user works.
    let world = AfsWorld::builder().user("alice").build();
    world
        .install_active_file(
            "/secret.af",
            &SentinelSpec::new("null", Strategy::DllOnly)
                .backing(Backing::Memory)
                .with("allow_users", "alice, bob"),
        )
        .expect("install");
    let api = world.api();
    let h = api
        .create_file("/secret.af", Access::read_only(), Disposition::OpenExisting)
        .expect("alice may open");
    api.close_handle(h).expect("close");
}

#[test]
fn readonly_attribute_on_passive_part_blocks_write_open() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/attr.af",
            &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Memory),
        )
        .expect("install");
    world
        .vfs()
        .set_readonly(&afs_vfs::VPath::parse("/attr.af").expect("p"), true)
        .expect("set ro");
    let api = world.api();
    assert_eq!(
        api.create_file("/attr.af", Access::read_write(), Disposition::OpenExisting),
        Err(Win32Error::AccessDenied),
        "opening is predicated upon access to the passive components (§2.3)"
    );
}

/// A hand-written Figure 2 sentinel: uppercases the stream in the read
/// direction and appends everything written to the cache.
struct ShoutingSentinel;

impl RawProcessSentinel for ShoutingSentinel {
    fn run(&mut self, mut io: ProcessIo) {
        // Read direction: stream the cache through an uppercase filter.
        let data = io.ctx.cache().to_vec().unwrap_or_default();
        let shouted: Vec<u8> = data.iter().map(|b| b.to_ascii_uppercase()).collect();
        let _ = io.stdout.write(&shouted);
        drop(io.stdout);
        // Write direction: append raw bytes to the cache.
        let mut cursor = io.ctx.cache().len().unwrap_or(0);
        let mut buf = [0u8; 256];
        loop {
            match io.stdin.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if io.ctx.cache().write_at(cursor, &buf[..n]).is_err() {
                        break;
                    }
                    cursor += n as u64;
                }
            }
        }
        io.ctx.persist_cache();
    }
}

#[test]
fn raw_process_sentinel_runs_figure2_style() {
    let world = AfsWorld::new();
    world
        .sentinels()
        .register_raw("shout", |_| Box::new(ShoutingSentinel));
    world
        .install_active_file(
            "/shout.af",
            &SentinelSpec::new("shout", Strategy::Process).backing(Backing::Disk),
        )
        .expect("install");
    // Seed the data part directly.
    world
        .vfs()
        .write_stream(
            &afs_vfs::VPath::parse("/shout.af").expect("p"),
            0,
            b"quiet words",
        )
        .expect("seed");
    let (api, h) = open_rw(&world, "/shout.af");
    assert_eq!(read_to_end(&api, h), b"QUIET WORDS");
    api.write_file(h, b"+more").expect("write");
    api.close_handle(h).expect("close");
    assert_eq!(
        world
            .vfs()
            .read_stream_to_end(&afs_vfs::VPath::parse("/shout.af").expect("p"))
            .expect("read"),
        b"quiet words+more"
    );
}

/// A logic with a control surface: code 7 echoes the payload reversed;
/// anything else is unsupported. Reads and writes hit the cache.
struct EchoControl;

impl SentinelLogic for EchoControl {
    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        ctx.cache().read_at(offset, buf)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        ctx.cache().write_at(offset, data)
    }

    fn control(
        &mut self,
        _ctx: &mut SentinelCtx,
        code: u32,
        payload: &[u8],
    ) -> SentinelResult<Vec<u8>> {
        match code {
            7 => Ok(payload.iter().rev().copied().collect()),
            _ => Err(SentinelError::Unsupported),
        }
    }
}

#[test]
fn control_round_trips_under_every_strategy() {
    for strategy in Strategy::ALL {
        let world = AfsWorld::new();
        world
            .sentinels()
            .register("echo-ctl", |_| Box::new(EchoControl));
        world
            .install_active_file(
                "/c.af",
                &SentinelSpec::new("echo-ctl", strategy).backing(Backing::Memory),
            )
            .expect("install");
        let (api, h) = open_rw(&world, "/c.af");
        if strategy == Strategy::Process {
            assert_eq!(
                api.device_io_control(h, 7, b"abc"),
                Err(Win32Error::CallNotImplemented),
                "§4.1: no method of passing control information"
            );
        } else {
            assert_eq!(
                api.device_io_control(h, 7, b"abc").expect("control"),
                b"cba".to_vec(),
                "{strategy:?}: control must reach the sentinel and return its reply"
            );
            assert_eq!(
                api.device_io_control(h, 99, b""),
                Err(Win32Error::NotSupported),
                "{strategy:?}: unknown codes surface the sentinel's refusal"
            );
        }
        api.close_handle(h).expect("close");
    }
}

#[test]
fn sentinels_without_control_refuse_the_op() {
    let world = AfsWorld::new();
    world
        .install_active_file(
            "/n.af",
            &SentinelSpec::new("null", Strategy::DllThread).backing(Backing::Memory),
        )
        .expect("install");
    let (api, h) = open_rw(&world, "/n.af");
    assert_eq!(
        api.device_io_control(h, 1, b""),
        Err(Win32Error::NotSupported),
        "the default SentinelLogic::control is Unsupported"
    );
    api.close_handle(h).expect("close");
}

#[test]
fn scatter_reads_are_equivalent_across_strategies() {
    for strategy in Strategy::ALL {
        let world = AfsWorld::new();
        world
            .install_active_file(
                "/sc.af",
                &SentinelSpec::new("null", strategy).backing(Backing::Memory),
            )
            .expect("install");
        let (api, h) = open_rw(&world, "/sc.af");
        api.write_file(h, b"0123456789abcdef").expect("write");
        let mut a = [0u8; 4];
        let mut b = [0u8; 6];
        let mut c = [0u8; 9];
        let mut bufs: Vec<&mut [u8]> = vec![&mut a, &mut b, &mut c];
        if strategy == Strategy::Process {
            assert_eq!(
                api.read_file_scatter(h, &mut bufs),
                Err(Win32Error::CallNotImplemented),
                "§4.1/A.2: ReadFileScatter is dropped without a control channel"
            );
        } else {
            api.set_file_pointer(h, 0, SeekMethod::Begin)
                .expect("rewind");
            let n = api.read_file_scatter(h, &mut bufs).expect("scatter");
            assert_eq!(n, 16, "{strategy:?}");
            assert_eq!(&a, b"0123", "{strategy:?}");
            assert_eq!(&b, b"456789", "{strategy:?}");
            assert_eq!(
                &c[..6],
                b"abcdef",
                "{strategy:?}: short tail fills partially"
            );
            // The pointer advanced past everything read, exactly like a
            // sequence of plain reads would have left it.
            let mut rest = [0u8; 4];
            assert_eq!(
                api.read_file(h, &mut rest).expect("tail"),
                0,
                "{strategy:?}"
            );
        }
        api.close_handle(h).expect("close");
    }
}

/// The §4 cost table, asserted from the cost model's count around four
/// reads: per read, the process-based strategy pays two process switches
/// and two pipe copies more than DLL-only; the thread strategy pays two
/// thread switches and one user-level copy more; DLL-only crosses nothing.
#[test]
fn traces_reproduce_the_section4_cost_table() {
    const READS: u64 = 4;
    let mut per_strategy = std::collections::HashMap::new();
    for strategy in [
        Strategy::ProcessControl,
        Strategy::DllThread,
        Strategy::DllOnly,
    ] {
        let world = AfsWorld::new();
        world
            .install_active_file(
                "/t.af",
                &SentinelSpec::new("null", strategy).backing(Backing::Memory),
            )
            .expect("install");
        let (api, h) = open_rw(&world, "/t.af");
        api.write_file(h, &[0x5A; 256]).expect("write");
        // Writes are acknowledged eagerly, so the sentinel-side cost of
        // the write is still in flight; a GetFileSize round trip drains
        // the command channel so those charges cannot bleed into the
        // reads' count below.
        api.get_file_size(h).expect("size barrier");
        api.set_file_pointer(h, 0, SeekMethod::Begin)
            .expect("rewind");
        let before = world.model().snapshot();
        let mut buf = [0u8; 64];
        for _ in 0..READS {
            api.read_file(h, &mut buf).expect("read");
        }
        let reads = world.model().snapshot().since(&before);
        api.close_handle(h).expect("close");
        let read = world
            .trace()
            .summary()
            .into_iter()
            .find(|row| row.op == afs_sim::OpKind::Read)
            .expect("read row traced");
        assert_eq!((read.count, read.bytes), (READS, READS * 64));
        per_strategy.insert(strategy, (read.strategy, reads));
    }
    let (process_label, process) = per_strategy[&Strategy::ProcessControl];
    let (thread_label, thread) = per_strategy[&Strategy::DllThread];
    let (dll_label, dll) = per_strategy[&Strategy::DllOnly];
    assert_eq!(
        (process_label, thread_label, dll_label),
        ("Process", "Thread", "DLL")
    );
    // Crossings: two per round trip for both boundary strategies
    // (request over, reply back), none inline.
    assert_eq!(
        (process.process_switches, process.thread_switches),
        (2 * READS, 0),
        "§4.2: two process switches per read"
    );
    assert_eq!(
        (thread.process_switches, thread.thread_switches),
        (0, 2 * READS),
        "§4.3: two thread switches per read"
    );
    assert_eq!(
        (dll.process_switches, dll.thread_switches),
        (0, 0),
        "§4.4: no domain crossing at all"
    );
    // Copies, relative to the DLL-only floor (the logic's own cache
    // memcpy is common to all three): pipes cost two kernel copies per
    // transfer, shared memory one user-level copy, inline zero.
    assert_eq!(
        process.copies - dll.copies,
        2 * READS,
        "§4.2: 2 kernel copies per transfer"
    );
    assert_eq!(
        thread.copies - dll.copies,
        READS,
        "§4.3: 1 user copy per transfer"
    );
}

#[test]
fn write_then_read_same_handle_sees_own_writes() {
    for strategy in [
        Strategy::ProcessControl,
        Strategy::DllThread,
        Strategy::DllOnly,
    ] {
        let world = AfsWorld::new();
        world
            .install_active_file(
                "/rw.af",
                &SentinelSpec::new("null", strategy).backing(Backing::Memory),
            )
            .expect("install");
        let (api, h) = open_rw(&world, "/rw.af");
        api.write_file(h, b"abcdef").expect("write");
        api.set_file_pointer(h, 2, SeekMethod::Begin).expect("seek");
        let mut buf = [0u8; 2];
        api.read_file(h, &mut buf).expect("read");
        assert_eq!(&buf, b"cd", "{strategy:?}: writes visible to later reads");
        api.close_handle(h).expect("close");
    }
}
