//! Coverage of the remaining API surface against active files: flush,
//! file information, truncating dispositions, scatter/gather, locks, and
//! attribute queries — each pinned to the behaviour the runtime promises.

use activefiles::prelude::*;
use activefiles::{FileServer, Service};
use std::sync::Arc;

fn world() -> AfsWorld {
    let w = AfsWorld::new();
    register_standard_sentinels(&w);
    w
}

#[test]
fn flush_pushes_write_behind_state_out() {
    let w = world();
    let server = FileServer::new();
    server.seed("/doc", b"orig");
    w.net()
        .register("files", Arc::clone(&server) as Arc<dyn Service>);
    w.install_active_file(
        "/doc.af",
        &SentinelSpec::new("remote-file", Strategy::DllThread)
            .backing(Backing::Memory)
            .with("service", "files")
            .with("remote", "/doc"),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/doc.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    api.write_file(h, b"edited!").expect("write");
    // Before flush the remote still has the original (write-behind).
    api.flush_file_buffers(h).expect("flush");
    let client = activefiles::FileClient::new(w.net().endpoint(["files"]));
    assert_eq!(client.get_all("/doc").expect("get"), b"edited!");
    api.close_handle(h).expect("close");
}

#[test]
fn truncate_existing_clears_the_data_part_only() {
    let w = world();
    w.install_active_file(
        "/t.af",
        &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Disk),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/t.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    api.write_file(h, b"old content").expect("write");
    api.close_handle(h).expect("close");
    let h = api
        .create_file("/t.af", Access::read_write(), Disposition::TruncateExisting)
        .expect("truncating open");
    assert_eq!(
        api.get_file_size(h).expect("size"),
        0,
        "data part truncated"
    );
    api.close_handle(h).expect("close");
    // The active part survived: the file still runs its sentinel.
    assert!(w.active_spec("/t.af").is_some());
}

#[test]
fn scatter_gather_work_on_seekable_active_files() {
    let w = world();
    w.install_active_file(
        "/sg.af",
        &SentinelSpec::new("null", Strategy::DllThread).backing(Backing::Memory),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/sg.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    api.write_file_gather(h, &[b"ab", b"cdef", b"g"])
        .expect("gather");
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    let mut a = [0u8; 3];
    let mut b = [0u8; 4];
    let n = api
        .read_file_scatter(h, &mut [&mut a[..], &mut b[..]])
        .expect("scatter");
    assert_eq!(n, 7);
    assert_eq!(&a, b"abc");
    assert_eq!(&b, b"defg");
    api.close_handle(h).expect("close");
}

#[test]
fn byte_range_locks_rejected_on_active_handles() {
    // Locking belongs to the sentinel's policy (§3's logging example
    // locks inside the sentinel); the raw API reports NotSupported.
    let w = world();
    w.install_active_file(
        "/l.af",
        &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Memory),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/l.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    assert_eq!(api.lock_file(h, 0, 10, true), Err(Win32Error::NotSupported));
    assert_eq!(api.unlock_file(h, 0, 10), Err(Win32Error::NotSupported));
    api.close_handle(h).expect("close");
    // Passive files keep full locking through the same chain.
    let h = api
        .create_file("/p.txt", Access::read_write(), Disposition::CreateNew)
        .expect("create passive");
    api.write_file(h, b"0123456789").expect("write");
    api.lock_file(h, 0, 4, true).expect("lock passive");
    api.unlock_file(h, 0, 4).expect("unlock passive");
    api.close_handle(h).expect("close");
}

#[test]
fn file_information_reports_sentinel_backed_size() {
    let w = world();
    w.install_active_file(
        "/i.af",
        &SentinelSpec::new("sequence", Strategy::DllThread).with("count", "3"),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/i.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let info = api.get_file_information(h).expect("info");
    assert_eq!(info.size, 6, "0\\n1\\n2\\n as reported by the sentinel");
    api.close_handle(h).expect("close");
}

#[test]
fn set_end_of_file_is_not_supported_on_active_handles() {
    let w = world();
    w.install_active_file(
        "/e.af",
        &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Memory),
    )
    .expect("install");
    let api = w.api();
    let h = api
        .create_file("/e.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    assert_eq!(api.set_end_of_file(h), Err(Win32Error::NotSupported));
    api.close_handle(h).expect("close");
}

#[test]
fn create_new_on_existing_active_file_fails() {
    let w = world();
    w.install_active_file(
        "/n.af",
        &SentinelSpec::new("null", Strategy::DllOnly).backing(Backing::Memory),
    )
    .expect("install");
    let api = w.api();
    assert_eq!(
        api.create_file("/n.af", Access::read_write(), Disposition::CreateNew),
        Err(Win32Error::FileExists)
    );
}

#[test]
fn hidden_attribute_round_trips_through_listing() {
    let w = world();
    let api = w.api();
    api.create_directory("/d").expect("mkdir");
    let h = api
        .create_file("/d/h.txt", Access::read_write(), Disposition::CreateNew)
        .expect("create");
    api.close_handle(h).expect("close");
    w.vfs()
        .set_hidden(&"/d/h.txt".parse::<activefiles::VPath>().expect("p"), true)
        .expect("hide");
    let listing = api.find_files("/d").expect("list");
    assert_eq!(
        listing.len(),
        1,
        "hidden files are listed (filtering is caller policy)"
    );
    assert!(listing[0].attributes.hidden);
    assert!(api.get_file_attributes("/d/h.txt").expect("attrs").hidden);
}

#[test]
fn share_modes_flow_through_the_interception_chain() {
    use activefiles::ShareMode;
    let w = world();
    let api = w.api();
    let h = api
        .create_file("/excl.txt", Access::read_write(), Disposition::CreateNew)
        .expect("create");
    api.close_handle(h).expect("close");
    let h = api
        .create_file_shared(
            "/excl.txt",
            Access::read_write(),
            ShareMode::none(),
            Disposition::OpenExisting,
        )
        .expect("exclusive through the chain");
    assert_eq!(
        api.create_file("/excl.txt", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::SharingViolation),
        "the passive layer's sharing table is reached through interception"
    );
    api.close_handle(h).expect("close");
}

#[test]
fn active_files_permit_concurrent_opens_regardless_of_share_mode() {
    use activefiles::ShareMode;
    let w = world();
    w.install_active_file(
        "/multi.af",
        &SentinelSpec::new("shared-log", Strategy::DllOnly).backing(Backing::Disk),
    )
    .expect("install");
    let api = w.api();
    // §2.2: multiple opens mean multiple sentinels; share modes do not
    // gate active files (coordination is the sentinels' job).
    let a = api
        .create_file_shared(
            "/multi.af",
            Access::write_only(),
            ShareMode::none(),
            Disposition::OpenExisting,
        )
        .expect("first");
    let b = api
        .create_file_shared(
            "/multi.af",
            Access::write_only(),
            ShareMode::none(),
            Disposition::OpenExisting,
        )
        .expect("second despite exclusive request");
    api.close_handle(a).expect("close");
    api.close_handle(b).expect("close");
}
