//! Failure injection: how sentinel-mediated remote failures surface
//! through the plain file API, and how the system behaves across
//! partitions and message loss.

use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{FileServer, Service};

fn world_with_server() -> (AfsWorld, Arc<FileServer>, activefiles::Network) {
    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    let server = FileServer::new();
    server.seed("/blob", b"remote data bytes");
    world
        .net()
        .register("files", Arc::clone(&server) as Arc<dyn Service>);
    let net = world.net().clone();
    (world, server, net)
}

#[test]
fn partition_during_open_fails_create_file() {
    let (world, _server, net) = world_with_server();
    let plan = net.plan("files").expect("plan for registered service");
    world
        .install_active_file(
            "/r.af",
            &SentinelSpec::new("remote-file", Strategy::DllOnly)
                .backing(Backing::Memory)
                .with("service", "files")
                .with("remote", "/blob"),
        )
        .expect("install");
    plan.set_partitioned(true);
    let api = world.api();
    assert_eq!(
        api.create_file("/r.af", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::NetworkError),
        "the on-open fetch hits the partition"
    );
    // Healing the partition makes the same open succeed.
    plan.set_partitioned(false);
    let h = api
        .create_file("/r.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open after heal");
    api.close_handle(h).expect("close");
}

#[test]
fn partition_mid_stream_fails_reads_with_network_error() {
    let (world, _server, net) = world_with_server();
    let plan = net.plan("files").expect("plan for registered service");
    world
        .install_active_file(
            "/m.af",
            &SentinelSpec::new("mirror", Strategy::DllOnly)
                .with("service", "files")
                .with("remote", "/blob"),
        )
        .expect("install");
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    let mut buf = [0u8; 6];
    api.read_file(h, &mut buf).expect("first read works");
    plan.set_partitioned(true);
    assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::NetworkError));
    plan.set_partitioned(false);
    api.read_file(h, &mut buf).expect("read works after heal");
    api.close_handle(h).expect("close");
}

#[test]
fn partition_mid_stream_under_control_strategy() {
    // Same failure, but the error must travel sentinel → control reply →
    // application across the process boundary.
    let (world, _server, net) = world_with_server();
    let plan = net.plan("files").expect("plan for registered service");
    world
        .install_active_file(
            "/m.af",
            &SentinelSpec::new("mirror", Strategy::ProcessControl)
                .with("service", "files")
                .with("remote", "/blob"),
        )
        .expect("install");
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    plan.set_partitioned(true);
    let mut buf = [0u8; 4];
    assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::NetworkError));
    plan.set_partitioned(false);
    api.read_file(h, &mut buf).expect("recovers");
    api.close_handle(h).expect("close");
}

#[test]
fn dropped_write_surfaces_as_sticky_error_on_later_operation() {
    // Writes are issued without waiting (§6): a failed remote update
    // cannot fail the WriteFile that caused it, but it must not vanish —
    // the next synchronous operation reports it.
    let (world, _server, net) = world_with_server();
    let plan = net.plan("files").expect("plan for registered service");
    world
        .install_active_file(
            "/m.af",
            &SentinelSpec::new("mirror", Strategy::ProcessControl)
                .with("service", "files")
                .with("remote", "/blob"),
        )
        .expect("install");
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    plan.drop_next(1);
    api.write_file(h, b"lost")
        .expect("async write returns success");
    // The failure parks in the sentinel and surfaces on the next op.
    let result = api.get_file_size(h);
    assert_eq!(
        result,
        Err(Win32Error::NetworkError),
        "sticky error surfaces"
    );
    // After surfacing once the handle is usable again.
    api.get_file_size(h).expect("recovered");
    api.close_handle(h).expect("close");
}

#[test]
fn message_loss_counts_are_observable() {
    let (world, _server, net) = world_with_server();
    let plan = net.plan("files").expect("plan for registered service");
    plan.drop_next(3);
    let client = activefiles::FileClient::new(net.endpoint(["files"]));
    for _ in 0..3 {
        assert!(client.stat("/blob").is_err());
    }
    assert!(client.stat("/blob").is_ok());
    assert_eq!(net.stats().dropped, 3);
    let _ = world;
}

#[test]
fn sentinel_survives_application_misuse() {
    // Double close, reads after close, writes to read-only handles: the
    // runtime must return errors, never hang or poison the world.
    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    world
        .install_active_file(
            "/n.af",
            &SentinelSpec::new("null", Strategy::DllThread).backing(Backing::Memory),
        )
        .expect("install");
    let api = world.api();
    let h = api
        .create_file("/n.af", Access::read_only(), Disposition::OpenExisting)
        .expect("open");
    assert_eq!(api.write_file(h, b"x"), Err(Win32Error::AccessDenied));
    api.close_handle(h).expect("close");
    assert_eq!(api.close_handle(h), Err(Win32Error::InvalidHandle));
    let mut buf = [0u8; 1];
    assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::InvalidHandle));
    // The world is still healthy.
    let h = api
        .create_file("/n.af", Access::read_write(), Disposition::OpenExisting)
        .expect("fresh open");
    api.write_file(h, b"fine").expect("write");
    api.close_handle(h).expect("close");
    assert_eq!(world.open_sentinel_count(), 0);
}
