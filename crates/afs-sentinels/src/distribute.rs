//! Distribution sentinels (§3).
//!
//! "Sentinel processes can also distribute information to various
//! sources, triggered by file operations against the active file."

use afs_core::{SentinelCtx, SentinelError, SentinelLogic, SentinelRegistry, SentinelResult};
use afs_net::WireWriter;
use afs_remote::{FileClient, MailClient};

/// The outbox file: "the outbox-file can be programmed to send email to a
/// particular recipient, every time some data is written to it. This
/// concept can be extended such that the sentinel process parses the data
/// written to the file to extract the 'To' addresses and send the data to
/// each recipient" (§3).
///
/// The message accumulates across writes and is parsed and sent on flush
/// or close. Expected format:
///
/// ```text
/// To: a@x, b@y
/// Subject: hello
///
/// body…
/// ```
///
/// Configuration: `service` (SMTP service name), `from` (sender; defaults
/// to the opening user).
pub struct OutboxSentinel {
    buffer: Vec<u8>,
}

impl OutboxSentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        OutboxSentinel { buffer: Vec::new() }
    }

    fn parse(text: &str) -> SentinelResult<(Vec<String>, String, String)> {
        let mut recipients = Vec::new();
        let mut subject = String::new();
        let mut lines = text.lines();
        let mut body_lines = Vec::new();
        let mut in_body = false;
        for line in lines.by_ref() {
            if in_body {
                body_lines.push(line);
                continue;
            }
            if line.trim().is_empty() {
                in_body = true;
                continue;
            }
            if let Some(rest) = line.strip_prefix("To:") {
                recipients.extend(
                    rest.split(',')
                        .map(|r| r.trim().to_owned())
                        .filter(|r| !r.is_empty()),
                );
            } else if let Some(rest) = line.strip_prefix("Subject:") {
                subject = rest.trim().to_owned();
            }
        }
        if recipients.is_empty() {
            return Err(SentinelError::Other(
                "outbox message has no To: header".into(),
            ));
        }
        Ok((recipients, subject, body_lines.join("\n")))
    }
}

impl Default for OutboxSentinel {
    fn default() -> Self {
        OutboxSentinel::new()
    }
}

impl SentinelLogic for OutboxSentinel {
    fn read(
        &mut self,
        _ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        // Reading the outbox shows what is queued, like a draft.
        let start = (offset as usize).min(self.buffer.len());
        let n = buf.len().min(self.buffer.len() - start);
        buf[..n].copy_from_slice(&self.buffer[start..start + n]);
        Ok(n)
    }

    fn write(&mut self, _ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        let end = offset as usize + data.len();
        if self.buffer.len() < end {
            self.buffer.resize(end, 0);
        }
        self.buffer[offset as usize..end].copy_from_slice(data);
        Ok(data.len())
    }

    fn len(&mut self, _ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        Ok(self.buffer.len() as u64)
    }

    fn flush(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let service = ctx.require_str("service")?.to_owned();
        let from = ctx
            .config_str("from")
            .map(str::to_owned)
            .unwrap_or_else(|| ctx.user().to_owned());
        let text = String::from_utf8_lossy(&self.buffer).into_owned();
        let (recipients, subject, body) = Self::parse(&text)?;
        let refs: Vec<&str> = recipients.iter().map(String::as_str).collect();
        MailClient::new(ctx.net().clone()).send(&service, &from, &refs, &subject, &body)?;
        self.buffer.clear();
        Ok(())
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.flush(ctx)
    }
}

/// Replicates every write to N remote files — distribution fan-out over
/// file servers. Reads come from the local cache.
///
/// Configuration: `service`, `targets` (comma-separated remote paths).
pub struct FanOutSentinel {
    /// The session with `service`, made at the first write and kept, so
    /// its read-your-writes floors outlive a write.
    client: Option<FileClient>,
}

impl FanOutSentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        FanOutSentinel { client: None }
    }
}

impl Default for FanOutSentinel {
    fn default() -> Self {
        FanOutSentinel::new()
    }
}

impl SentinelLogic for FanOutSentinel {
    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        ctx.cache().read_at(offset, buf)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        let n = ctx.cache().write_at(offset, data)?;
        let service = ctx.require_str("service")?.to_owned();
        let targets = ctx.require_str("targets")?.to_owned();
        let client = self
            .client
            .get_or_insert_with(|| FileClient::new(ctx.endpoint(&service)));
        for target in targets.split(',').map(str::trim) {
            // Streamed (asynchronous) update to each replica (§6).
            client.put_async(target, offset, data)?;
        }
        Ok(n)
    }
}

/// Triggers a notification message to a service whenever the file is
/// accessed — the "side effect (such as notification) … triggered as a
/// result of the access" of §1. Otherwise behaves like a null filter.
///
/// Configuration: `service` (notification sink service), `events`
/// (comma-separated subset of `open,read,write,close`; default all).
pub struct NotifySentinel;

impl NotifySentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        NotifySentinel
    }

    fn notify(ctx: &SentinelCtx, event: &str) -> SentinelResult<()> {
        let Some(service) = ctx.config_str("service") else {
            return Ok(());
        };
        if let Some(events) = ctx.config_str("events") {
            if !events.split(',').any(|e| e.trim() == event) {
                return Ok(());
            }
        }
        let mut w = WireWriter::new();
        w.str(event).str(&ctx.path().to_string()).str(ctx.user());
        ctx.endpoint(service).cast(&w.finish())?;
        Ok(())
    }
}

impl Default for NotifySentinel {
    fn default() -> Self {
        NotifySentinel::new()
    }
}

impl SentinelLogic for NotifySentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        Self::notify(ctx, "open")
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        Self::notify(ctx, "read")?;
        ctx.cache().read_at(offset, buf)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        Self::notify(ctx, "write")?;
        ctx.cache().write_at(offset, data)
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        Self::notify(ctx, "close")
    }
}

/// Registers `outbox`, `fan-out`, and `notify`.
pub fn register(registry: &SentinelRegistry) {
    registry.register("outbox", |_| Box::new(OutboxSentinel::new()));
    registry.register("fan-out", |_| Box::new(FanOutSentinel::new()));
    registry.register("notify", |_| Box::new(NotifySentinel::new()));
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::{test_world, write_active};
    use afs_core::{Backing, SentinelSpec, Strategy};
    use afs_net::Service;
    use afs_remote::{FileServer, MailStore, PopServer, SmtpServer};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn outbox_parses_recipients_and_delivers() {
        let world = test_world();
        let store = MailStore::new();
        world
            .net()
            .register("smtp", SmtpServer::new(store.clone()) as Arc<dyn Service>);
        world
            .net()
            .register("pop", PopServer::new(store.clone()) as Arc<dyn Service>);
        world
            .install_active_file(
                "/outbox.af",
                &SentinelSpec::new("outbox", Strategy::ProcessControl)
                    .with("service", "smtp")
                    .with("from", "me@here"),
            )
            .expect("install");
        write_active(
            &world,
            "/outbox.af",
            b"To: a@x, b@y\nSubject: greetings\n\nhello everyone\nsecond line",
        );
        assert_eq!(store.count("a@x"), 1);
        assert_eq!(store.count("b@y"), 1);
        let client = afs_remote::MailClient::new(world.net().clone());
        let ids = client.list("pop", "a@x").expect("list");
        let msg = client.retrieve("pop", "a@x", ids[0]).expect("retr");
        assert_eq!(msg.from, "me@here");
        assert_eq!(msg.subject, "greetings");
        assert_eq!(msg.body, "hello everyone\nsecond line");
    }

    #[test]
    fn outbox_without_recipients_fails_the_close() {
        use afs_winapi::{Access, Disposition, FileApi};
        let world = test_world();
        let store = MailStore::new();
        world
            .net()
            .register("smtp", SmtpServer::new(store) as Arc<dyn Service>);
        world
            .install_active_file(
                "/outbox.af",
                &SentinelSpec::new("outbox", Strategy::DllOnly).with("service", "smtp"),
            )
            .expect("install");
        let api = world.api();
        let h = api
            .create_file(
                "/outbox.af",
                Access::write_only(),
                Disposition::OpenExisting,
            )
            .expect("open");
        api.write_file(h, b"Subject: no recipients\n\nbody")
            .expect("write");
        assert!(
            api.close_handle(h).is_err(),
            "missing To: surfaces at close"
        );
    }

    #[test]
    fn fan_out_replicates_writes_to_all_targets() {
        let world = test_world();
        let server = FileServer::new();
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/pub.af",
                &SentinelSpec::new("fan-out", Strategy::DllThread)
                    .backing(Backing::Memory)
                    .with("service", "files")
                    .with("targets", "/r1, /r2, /r3"),
            )
            .expect("install");
        write_active(&world, "/pub.af", b"replicated payload");
        let client = afs_remote::FileClient::new(world.net().endpoint(["files"]));
        for target in ["/r1", "/r2", "/r3"] {
            assert_eq!(client.get_all(target).expect("get"), b"replicated payload");
        }
    }

    #[test]
    fn fan_out_to_a_fleet_lands_on_both_owners_at_one_version() {
        let world = test_world();
        let servers = crate::test_fleet(&world);
        let fleet = afs_remote::FileClient::new(world.net().endpoint(["fleet"]));
        world
            .install_active_file(
                "/pub.af",
                &SentinelSpec::new("fan-out", Strategy::DllThread)
                    .backing(Backing::Memory)
                    .with("service", "fleet")
                    .with("targets", "/r1, /r2"),
            )
            .expect("install");
        write_active(&world, "/pub.af", b"replicated payload");
        for target in ["/r1", "/r2"] {
            let owners = fleet.owners(target);
            assert_eq!(owners.len(), 2, "{target}");
            for owner in &owners {
                let server = &servers[owner["files-".len()..].parse::<usize>().expect("member")];
                // Acknowledged by one, cast to the other at that version.
                assert_eq!(server.version(target), 1, "{target} on {owner}");
                let path = afs_vfs::VPath::parse(target).expect("path");
                let bytes = server.vfs().read_stream_to_end(&path).expect("copy");
                assert_eq!(bytes, b"replicated payload", "{target} on {owner}");
            }
        }
    }

    #[test]
    fn fan_out_to_a_fleet_refuses_a_write_only_a_lagging_copy_could_take() {
        use afs_winapi::{Access, Disposition, FileApi};
        let world = test_world();
        let servers = crate::test_fleet(&world);
        let fleet = afs_remote::FileClient::new(world.net().endpoint(["fleet"]));
        world
            .install_active_file(
                "/pub.af",
                &SentinelSpec::new("fan-out", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("service", "fleet")
                    .with("targets", "/r1"),
            )
            .expect("install");
        let owners = fleet.owners("/r1");
        let server =
            |name: &str| &servers[name["files-".len()..].parse::<usize>().expect("member")];
        let (primary, replica) = (&owners[0], &owners[1]);
        let api = world.api();
        let h = api
            .create_file("/pub.af", Access::write_only(), Disposition::OpenExisting)
            .expect("open");
        // The primary acknowledges; the replica misses the cast.
        world.net().plan(replica).expect("plan").drop_next(1);
        api.write_file(h, b"one").expect("first write");
        assert_eq!(server(primary).version("/r1"), 1);
        assert_eq!(server(replica).version("/r1"), 0);
        // With the primary gone only the lagging copy is reachable. The
        // session still holds its floor, so the copy refuses to issue a
        // sequence the primary already issued, and the write fails.
        world
            .net()
            .plan(primary)
            .expect("plan")
            .set_partitioned(true);
        assert!(api.write_file(h, b"two").is_err(), "a split-brain write");
        assert_eq!(server(replica).version("/r1"), 0, "no sequence issued");
        world
            .net()
            .plan(primary)
            .expect("plan")
            .set_partitioned(false);
        api.close_handle(h).expect("close");
    }

    /// Collects notification messages for assertions.
    #[derive(Default)]
    struct Sink {
        events: Mutex<Vec<(String, String, String)>>,
    }

    impl Service for Sink {
        fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
            let mut r = afs_net::WireReader::new(request);
            let event = r.str()?.to_owned();
            let path = r.str()?.to_owned();
            let user = r.str()?.to_owned();
            self.events.lock().push((event, path, user));
            Ok(Vec::new())
        }
    }

    #[test]
    fn notify_fires_selected_events() {
        let world = test_world();
        let sink = Arc::new(Sink::default());
        world
            .net()
            .register("audit", Arc::clone(&sink) as Arc<dyn Service>);
        world
            .install_active_file(
                "/watched.af",
                &SentinelSpec::new("notify", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("service", "audit")
                    .with("events", "open,close"),
            )
            .expect("install");
        write_active(&world, "/watched.af", b"x");
        let events = sink.events.lock();
        let kinds: Vec<&str> = events.iter().map(|(e, _, _)| e.as_str()).collect();
        assert_eq!(kinds, vec!["open", "close"], "write events filtered out");
        assert_eq!(events[0].1, "/watched.af");
    }

    #[test]
    fn notify_defaults_to_all_events() {
        let world = test_world();
        let sink = Arc::new(Sink::default());
        world
            .net()
            .register("audit", Arc::clone(&sink) as Arc<dyn Service>);
        world
            .install_active_file(
                "/w.af",
                &SentinelSpec::new("notify", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("service", "audit"),
            )
            .expect("install");
        write_active(&world, "/w.af", b"x");
        let _ = crate::read_active(&world, "/w.af");
        let kinds: Vec<String> = sink
            .events
            .lock()
            .iter()
            .map(|(e, _, _)| e.clone())
            .collect();
        assert!(kinds.contains(&"open".to_owned()));
        assert!(kinds.contains(&"write".to_owned()));
        assert!(kinds.contains(&"read".to_owned()));
        assert!(kinds.contains(&"close".to_owned()));
    }
}
