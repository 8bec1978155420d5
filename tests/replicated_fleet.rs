//! A replicated fleet behind an active file: a sentinel names it with
//! `service=`, and the runtime's degraded mode and spec checks treat it
//! as what it is — owners that answer, and a placement that already
//! names every path's replicas.

use std::sync::Arc;

use activefiles::prelude::*;
use activefiles::{FileClient, FileServer, Fleet, Service, CTL_QUERY_STALE};

/// A three-member fleet keeping two copies, named `fleet` in `world`.
fn fleet(world: &AfsWorld) {
    let fleet = Fleet::new(2);
    for i in 0..3 {
        let name = format!("files-{i}");
        world
            .net()
            .register(&name, FileServer::new() as Arc<dyn Service>);
        fleet.add_node(&name);
    }
    world.net().register_fleet("fleet", fleet);
}

fn mirror(keys: &[(&str, &str)]) -> SentinelSpec {
    let mut spec = SentinelSpec::new("mirror", Strategy::DllOnly)
        .backing(Backing::Memory)
        .with("service", "fleet")
        .with("remote", "/data/x.af");
    for (key, value) in keys {
        spec = spec.with(key, value);
    }
    spec
}

#[test]
fn degraded_mode_never_serves_a_floor_refusal_but_serves_an_unreachable_fleet() {
    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    fleet(&world);
    let spec = mirror(&[("degraded", "on"), ("staleness_ms", "2")]);
    world.install_active_file("/m.af", &spec).expect("install");
    let _g = activefiles::clock::install(0);
    let api = world.api();
    let h = api
        .create_file("/m.af", Access::read_write(), Disposition::OpenExisting)
        .expect("open");
    let stale =
        |api: &activefiles::ApiHandle| api.device_io_control(h, CTL_QUERY_STALE, &[]).expect("ctl");
    // An acknowledged write whose cast the replica misses, read back once
    // from the primary: the last-good cache holds it.
    let owners = FileClient::new(world.net().endpoint(["fleet"])).owners("/data/x.af");
    let plan = |name: &str| world.net().plan(name).expect("plan");
    plan(&owners[1]).drop_next(1);
    api.write_file(h, b"acked").expect("write");
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    let mut buf = [0u8; 5];
    api.read_file(h, &mut buf)
        .expect("warm the last-good cache");
    assert_eq!(&buf, b"acked");

    // The primary goes: the replica answers, behind the floor. Past the
    // budget that is a refusal, and the cache does not hide it.
    plan(&owners[0]).set_partitioned(true);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    assert_eq!(api.read_file(h, &mut buf), Err(Win32Error::NetworkError));
    assert_eq!(stale(&api), vec![0u8], "nothing stale was served");
    assert_eq!(world.net().reliability().degraded_reads, 0);
    let cluster = world.telemetry().cluster().snapshot();
    assert_eq!((cluster.stale_waits, cluster.stale_rejects), (2, 1));

    // The replica goes too: no owner answers, and last-good is served.
    plan(&owners[1]).set_partitioned(true);
    api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
    buf = [0u8; 5];
    api.read_file(h, &mut buf)
        .expect("an unreachable fleet is degraded mode's case");
    assert_eq!(&buf, b"acked", "last-good bytes");
    assert_eq!(stale(&api), vec![1u8]);
    assert_eq!(world.net().reliability().degraded_reads, 1);
    api.close_handle(h).expect("close");
}

#[test]
fn replicas_beside_a_fleet_name_fail_the_open() {
    let world = AfsWorld::new();
    register_standard_sentinels(&world);
    fleet(&world);
    world
        .install_active_file("/m.af", &mirror(&[("replicas", "files-2")]))
        .expect("install checks key names only");
    assert_eq!(
        world
            .api()
            .create_file("/m.af", Access::read_only(), Disposition::OpenExisting),
        Err(Win32Error::InvalidParameter),
        "the fleet's placement already names the replicas"
    );
    assert_eq!(world.open_sentinel_count(), 0, "nothing was launched");
    world
        .install_active_file("/ok.af", &mirror(&[]))
        .expect("install");
    let h = world
        .api()
        .create_file("/ok.af", Access::read_only(), Disposition::OpenExisting)
        .expect("the fleet alone opens");
    world.api().close_handle(h).expect("close");
}
