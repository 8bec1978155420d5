#![warn(missing_docs)]
//! A library of ready-made sentinels covering every use case in §3 of the
//! paper.
//!
//! | §3 action        | Sentinels here                                                        |
//! |------------------|------------------------------------------------------------------------|
//! | Data generation  | [`generate::RandomGenSentinel`], [`generate::SequenceSentinel`]        |
//! | I/O filtering    | [`filter::UppercaseSentinel`], [`filter::Rot13Sentinel`], [`filter::LineEndingSentinel`], [`compress::CompressSentinel`], [`cipher::XorCipherSentinel`] |
//! | Aggregation      | [`aggregate::RemoteFileSentinel`], [`aggregate::MergeSentinel`], [`aggregate::InboxSentinel`], [`aggregate::StockTickerSentinel`], [`aggregate::RegistryFileSentinel`], [`aggregate::TableSentinel`], [`mirror::MirrorSentinel`], [`consistency::LiveQuerySentinel`] |
//! | Distribution     | [`distribute::OutboxSentinel`], [`distribute::FanOutSentinel`], [`distribute::NotifySentinel`] |
//! | Logging/locking  | [`logging::SharedLogSentinel`], [`logging::AccessLogSentinel`]         |
//!
//! Call [`register_all`] to make every sentinel available by name in a
//! [`SentinelRegistry`]; each sentinel documents its configuration keys.

pub mod aggregate;
pub mod cipher;
pub mod compress;
pub mod consistency;
pub mod distribute;
pub mod filter;
pub mod generate;
pub mod guard;
pub mod logging;
pub mod mirror;
pub mod relay;

use afs_core::SentinelRegistry;

/// Registers every sentinel in this crate under its canonical name.
///
/// Names: `random`, `sequence`, `uppercase`, `lowercase`, `rot13`,
/// `line-ending`, `compress`, `xor-cipher`, `remote-file`, `merge`,
/// `inbox`, `stock-ticker`, `registry-file`, `table`, `mirror`,
/// `live-query`, `outbox`, `fan-out`, `notify`, `shared-log`,
/// `access-log`, `quota`, `checksum`, `relay`.
pub fn register_all(registry: &SentinelRegistry) {
    generate::register(registry);
    filter::register(registry);
    compress::register(registry);
    cipher::register(registry);
    aggregate::register(registry);
    distribute::register(registry);
    logging::register(registry);
    mirror::register(registry);
    consistency::register(registry);
    guard::register(registry);
    relay::register(registry);
}

/// Test helper: a world with every sentinel of this crate registered.
#[cfg(test)]
pub(crate) fn test_world() -> afs_core::AfsWorld {
    let world = afs_core::AfsWorld::new();
    register_all(world.sentinels());
    world
}

/// Test helper: a fleet of three file servers keeping two copies of
/// every file, registered in `world` as `fleet`; its servers (member
/// `files-{i}` is the `i`-th).
#[cfg(test)]
pub(crate) fn test_fleet(
    world: &afs_core::AfsWorld,
) -> Vec<std::sync::Arc<afs_remote::FileServer>> {
    let fleet = afs_net::Fleet::new(2);
    let servers = (0..3)
        .map(|i| {
            let (name, server) = (format!("files-{i}"), afs_remote::FileServer::new());
            let service = std::sync::Arc::clone(&server) as std::sync::Arc<dyn afs_net::Service>;
            world.net().register(&name, service);
            fleet.add_node(&name);
            server
        })
        .collect();
    world.net().register_fleet("fleet", fleet);
    servers
}

/// Test helper: read an active file to the end through the file API.
#[cfg(test)]
pub(crate) fn read_active(world: &afs_core::AfsWorld, path: &str) -> Vec<u8> {
    use afs_winapi::{Access, Disposition, FileApi};
    let api = world.api();
    let h = api
        .create_file(path, Access::read_only(), Disposition::OpenExisting)
        .expect("open for read");
    let mut out = Vec::new();
    let mut buf = [0u8; 128];
    loop {
        let n = api.read_file(h, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    api.close_handle(h).expect("close");
    out
}

/// Test helper: write bytes to an active file through the file API.
#[cfg(test)]
pub(crate) fn write_active(world: &afs_core::AfsWorld, path: &str, data: &[u8]) {
    use afs_winapi::{Access, Disposition, FileApi};
    let api = world.api();
    let h = api
        .create_file(path, Access::write_only(), Disposition::OpenExisting)
        .expect("open for write");
    api.write_file(h, data).expect("write");
    api.close_handle(h).expect("close");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_all_registers_everything() {
        let registry = SentinelRegistry::new();
        register_all(&registry);
        for name in [
            "random",
            "sequence",
            "uppercase",
            "lowercase",
            "rot13",
            "line-ending",
            "compress",
            "xor-cipher",
            "remote-file",
            "merge",
            "inbox",
            "stock-ticker",
            "registry-file",
            "table",
            "mirror",
            "live-query",
            "outbox",
            "fan-out",
            "notify",
            "shared-log",
            "access-log",
            "quota",
            "checksum",
            "relay",
        ] {
            assert!(registry.contains(name), "{name} must be registered");
        }
    }
}
