//! The live-query sentinel: the motivating example from §1.
//!
//! "An end application that searches through a collection of distributed
//! databases cannot see changes in these databases … when an intermediary
//! first aggregates data from these databases and presents it to the
//! search application as a file." An active file, in contrast, keeps the
//! view live: [`LiveQuerySentinel`] renders a database prefix scan as a
//! text file and re-checks the database's change feed on every read,
//! refreshing the view when anything under the prefix changed.

use afs_core::{SentinelCtx, SentinelError, SentinelLogic, SentinelRegistry, SentinelResult};
use afs_remote::DbClient;

/// A consistency-tracking view over a [`DbServer`](afs_remote::DbServer)
/// prefix scan, rendered as `key=value` lines.
///
/// Configuration: `service` (database service name), `prefix` (key
/// prefix; default empty = whole database), `track` (`true` to re-check
/// the change feed on every read, default true — set `false` to get the
/// paper's "decoupled intermediary" behaviour for comparison).
pub struct LiveQuerySentinel {
    view: Vec<u8>,
    seen_seq: u64,
    track: bool,
}

impl LiveQuerySentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        LiveQuerySentinel {
            view: Vec::new(),
            seen_seq: 0,
            track: true,
        }
    }

    fn render(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let service = ctx.require_str("service")?.to_owned();
        let prefix = ctx.config_str("prefix").unwrap_or("").to_owned();
        let client = DbClient::new(ctx.endpoint(&service));
        let rows = client.scan(&prefix)?;
        let mut rendered = String::new();
        for (k, v) in rows {
            rendered.push_str(&format!("{}={}\n", k, String::from_utf8_lossy(&v)));
        }
        self.view = rendered.into_bytes();
        self.seen_seq = client.seq()?;
        Ok(())
    }

    fn refresh_if_stale(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        if !self.track {
            return Ok(());
        }
        let service = ctx.require_str("service")?.to_owned();
        let prefix = ctx.config_str("prefix").unwrap_or("").to_owned();
        let client = DbClient::new(ctx.endpoint(&service));
        let changes = client.changes_since(self.seen_seq)?;
        if changes.iter().any(|c| c.key.starts_with(&prefix)) {
            self.render(ctx)?;
        } else if let Some(last) = changes.last() {
            // Changes outside our prefix: remember we saw them.
            self.seen_seq = last.seq;
        }
        Ok(())
    }
}

impl Default for LiveQuerySentinel {
    fn default() -> Self {
        LiveQuerySentinel::new()
    }
}

impl SentinelLogic for LiveQuerySentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.track = ctx
            .config_str("track")
            .map(|v| v != "false")
            .unwrap_or(true);
        self.render(ctx)
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        self.refresh_if_stale(ctx)?;
        let start = (offset as usize).min(self.view.len());
        let n = buf.len().min(self.view.len() - start);
        buf[..n].copy_from_slice(&self.view[start..start + n]);
        Ok(n)
    }

    fn write(
        &mut self,
        _ctx: &mut SentinelCtx,
        _offset: u64,
        _data: &[u8],
    ) -> SentinelResult<usize> {
        Err(SentinelError::Unsupported)
    }

    fn len(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        self.refresh_if_stale(ctx)?;
        Ok(self.view.len() as u64)
    }
}

/// Registers `live-query`.
pub fn register(registry: &SentinelRegistry) {
    registry.register("live-query", |_| Box::new(LiveQuerySentinel::new()));
}

#[cfg(test)]
mod tests {
    use crate::test_world;
    use afs_core::{SentinelSpec, Strategy};
    use afs_net::Service;
    use afs_remote::DbServer;
    use afs_winapi::{Access, Disposition, FileApi, SeekMethod};
    use std::sync::Arc;

    fn setup(track: bool) -> (afs_core::AfsWorld, Arc<DbServer>) {
        let world = test_world();
        let db = DbServer::new();
        db.put("user:1", b"alice");
        db.put("user:2", b"bob");
        db.put("group:1", b"admins");
        world
            .net()
            .register("db", Arc::clone(&db) as Arc<dyn Service>);
        world
            .install_active_file(
                "/q.af",
                &SentinelSpec::new("live-query", Strategy::DllOnly)
                    .with("service", "db")
                    .with("prefix", "user:")
                    .with("track", if track { "true" } else { "false" }),
            )
            .expect("install");
        (world, db)
    }

    #[test]
    fn renders_prefix_scan_as_text() {
        let (world, _db) = setup(true);
        assert_eq!(
            crate::read_active(&world, "/q.af"),
            b"user:1=alice\nuser:2=bob\n"
        );
    }

    #[test]
    fn sees_database_changes_mid_open() {
        let (world, db) = setup(true);
        let api = world.api();
        let h = api
            .create_file("/q.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        let mut buf = [0u8; 256];
        let n = api.read_file(h, &mut buf).expect("read");
        assert_eq!(&buf[..n], b"user:1=alice\nuser:2=bob\n");
        // The database changes while the file is open.
        db.put("user:3", b"carol");
        api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
        let n = api.read_file(h, &mut buf).expect("read again");
        assert_eq!(
            &buf[..n],
            b"user:1=alice\nuser:2=bob\nuser:3=carol\n",
            "the active file tracks changes in the original sources (§1)"
        );
        api.close_handle(h).expect("close");
    }

    #[test]
    fn decoupled_mode_reproduces_the_intermediary_weakness() {
        let (world, db) = setup(false);
        let api = world.api();
        let h = api
            .create_file("/q.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        db.put("user:3", b"carol");
        let mut buf = [0u8; 256];
        let n = api.read_file(h, &mut buf).expect("read");
        assert_eq!(
            &buf[..n],
            b"user:1=alice\nuser:2=bob\n",
            "track=false is the paper's static intermediary: stale"
        );
        api.close_handle(h).expect("close");
    }

    #[test]
    fn changes_outside_prefix_do_not_rerender() {
        let (world, db) = setup(true);
        let api = world.api();
        let h = api
            .create_file("/q.af", Access::read_only(), Disposition::OpenExisting)
            .expect("open");
        db.put("group:2", b"users");
        let mut buf = [0u8; 256];
        let n = api.read_file(h, &mut buf).expect("read");
        assert_eq!(&buf[..n], b"user:1=alice\nuser:2=bob\n");
        // Follow-up in-prefix change is still caught.
        db.delete("user:2");
        api.set_file_pointer(h, 0, SeekMethod::Begin).expect("seek");
        let n = api.read_file(h, &mut buf).expect("read");
        assert_eq!(&buf[..n], b"user:1=alice\n");
        api.close_handle(h).expect("close");
    }
}
