//! Behavioural reproduction of Figure 2: the hand-written two-thread null
//! filter sentinel for the simple process strategy.
//!
//! Figure 2's sentinel has two `RWThrd` loops: one reads from the remote
//! source and forwards to both the cache and the application ("read from
//! remote source … WriteFile(hout) … WriteFile(hcache)"), the other reads
//! application writes and forwards them to the cache and the source
//! ("write to remote source").

use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{FileClient, FileServer, ProcessIo, RawProcessSentinel, Service};

/// The Figure 2 sentinel, translated line for line: two pump loops over
/// `stdin`/`stdout`, a remote source, and the local cache.
struct Fig2NullFilter;

impl RawProcessSentinel for Fig2NullFilter {
    fn run(&mut self, mut io: ProcessIo) {
        let service = io
            .ctx
            .require_str("service")
            .expect("service config")
            .to_owned();
        let remote = io
            .ctx
            .require_str("remote")
            .expect("remote config")
            .to_owned();
        let client = FileClient::new(io.ctx.endpoint(&service));

        // Thread 1 (dir == READ in the paper): remote -> cache + stdout.
        // Run inline first: pull the whole source through in 1 KiB chunks
        // exactly like the `char buf[1024]` loop.
        let mut offset = 0u64;
        while let Ok(chunk) = client.get(&remote, offset, 1024) {
            if chunk.is_empty() {
                break;
            }
            if io.ctx.cache().write_at(offset, &chunk).is_err() {
                break;
            }
            if io.stdout.write(&chunk).is_err() {
                break;
            }
            offset += chunk.len() as u64;
        }
        drop(io.stdout); // EOF for the application's reads

        // Thread 2 (dir == WRITE): stdin -> cache + remote.
        let mut buf = [0u8; 1024];
        let mut write_offset = offset;
        loop {
            match io.stdin.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if io.ctx.cache().write_at(write_offset, &buf[..n]).is_err() {
                        break;
                    }
                    let _ = client.put_async(&remote, write_offset, &buf[..n]);
                    write_offset += n as u64;
                }
            }
        }
    }
}

#[test]
fn figure2_sentinel_mirrors_remote_source_both_directions() {
    let world = AfsWorld::new();
    world
        .sentinels()
        .register_raw("fig2-null", |_| Box::new(Fig2NullFilter));

    let server = FileServer::new();
    server.seed("/src/data", b"bytes that live on a remote machine");
    world
        .net()
        .register("ftp", Arc::clone(&server) as Arc<dyn Service>);

    world
        .install_active_file(
            "/proxy.af",
            &SentinelSpec::new("fig2-null", Strategy::Process)
                .backing(Backing::Disk)
                .with("service", "ftp")
                .with("remote", "/src/data"),
        )
        .expect("install");

    let api = world.api();
    let h = api
        .create_file("/proxy.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");

    // Reads stream the remote content.
    let mut content = Vec::new();
    let mut buf = [0u8; 16];
    loop {
        let n = api.read_file(h, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        content.extend_from_slice(&buf[..n]);
    }
    assert_eq!(content, b"bytes that live on a remote machine");

    // Writes are appended and forwarded to the remote source.
    api.write_file(h, b" + local additions").expect("write");
    api.close_handle(h).expect("close");

    let client = activefiles::FileClient::new(world.net().endpoint(["ftp"]));
    assert_eq!(
        client.get_all("/src/data").expect("remote read"),
        b"bytes that live on a remote machine + local additions"
    );

    // The cache (data part) holds the local copy, as Figure 2's hcache
    // writes require.
    let cached = world
        .vfs()
        .read_stream_to_end(&"/proxy.af".parse::<activefiles::VPath>().expect("path"))
        .expect("cache");
    assert_eq!(
        cached,
        b"bytes that live on a remote machine + local additions"
    );
}

#[test]
fn figure2_streaming_semantics_reject_seek_and_size() {
    let world = AfsWorld::new();
    world
        .sentinels()
        .register_raw("fig2-null", |_| Box::new(Fig2NullFilter));
    let server = FileServer::new();
    server.seed("/s", b"x");
    world
        .net()
        .register("ftp", Arc::clone(&server) as Arc<dyn Service>);
    world
        .install_active_file(
            "/p.af",
            &SentinelSpec::new("fig2-null", Strategy::Process)
                .backing(Backing::Disk)
                .with("service", "ftp")
                .with("remote", "/s"),
        )
        .expect("install");
    let api = world.api();
    let h = api
        .create_file("/p.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    assert_eq!(api.get_file_size(h), Err(Win32Error::CallNotImplemented));
    assert_eq!(
        api.set_file_pointer(h, 0, SeekMethod::Begin),
        Err(Win32Error::CallNotImplemented)
    );
    api.close_handle(h).expect("close");
}
