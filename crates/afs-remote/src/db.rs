//! A key-value database with a change feed.
//!
//! The paper's introduction motivates active files with "an end
//! application that searches through a collection of distributed
//! databases" which, behind an intermediary, "cannot see changes in these
//! databases". [`DbServer`] keeps a monotonic change log so a sentinel can
//! poll [`DbClient::changes_since`] and keep its cached view live.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use afs_net::{Endpoint, Service, WireWriter};

use crate::{check_status, err_response, ok_response};

const OP_PUT: u8 = 1;
const OP_GET: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_SCAN: u8 = 4;
const OP_CHANGES: u8 = 5;
const OP_SEQ: u8 = 6;

/// The kind of mutation recorded in the change log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbOp {
    /// Key inserted or updated.
    Put,
    /// Key removed.
    Delete,
}

/// One change-log entry. Plain data; fields are public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbEvent {
    /// Monotonic sequence number (1-based).
    pub seq: u64,
    /// What happened.
    pub op: DbOp,
    /// The affected key.
    pub key: String,
}

#[derive(Debug, Default)]
struct DbState {
    data: BTreeMap<String, Vec<u8>>,
    log: Vec<DbEvent>,
}

/// The database service.
#[derive(Debug, Default)]
pub struct DbServer {
    state: Mutex<DbState>,
}

impl DbServer {
    /// Creates an empty database.
    pub fn new() -> Arc<Self> {
        Arc::new(DbServer::default())
    }

    /// Inserts directly (experiment setup / out-of-band mutation).
    pub fn put(&self, key: &str, value: &[u8]) {
        let mut state = self.state.lock();
        state.data.insert(key.to_owned(), value.to_vec());
        let seq = state.log.len() as u64 + 1;
        state.log.push(DbEvent {
            seq,
            op: DbOp::Put,
            key: key.to_owned(),
        });
    }

    /// Deletes directly; `true` if the key existed.
    pub fn delete(&self, key: &str) -> bool {
        let mut state = self.state.lock();
        if state.data.remove(key).is_none() {
            return false;
        }
        let seq = state.log.len() as u64 + 1;
        state.log.push(DbEvent {
            seq,
            op: DbOp::Delete,
            key: key.to_owned(),
        });
        true
    }

    /// Highest sequence number issued.
    pub fn seq(&self) -> u64 {
        self.state.lock().log.len() as u64
    }
}

impl Service for DbServer {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        let mut r = afs_net::WireReader::new(request);
        let op = r.u8()?;
        Ok(match op {
            OP_PUT => {
                let key = r.str()?.to_owned();
                let value = r.bytes()?.to_vec();
                self.put(&key, &value);
                ok_response(|w| {
                    w.u64(self.seq());
                })
            }
            OP_GET => {
                let key = r.str()?.to_owned();
                match self.state.lock().data.get(&key) {
                    Some(v) => {
                        let v = v.clone();
                        ok_response(|w| {
                            w.bytes(&v);
                        })
                    }
                    None => err_response("key not found"),
                }
            }
            OP_DELETE => {
                let key = r.str()?.to_owned();
                if self.delete(&key) {
                    ok_response(|w| {
                        w.u64(self.seq());
                    })
                } else {
                    err_response("key not found")
                }
            }
            OP_SCAN => {
                let prefix = r.str()?.to_owned();
                let state = self.state.lock();
                let hits: Vec<(String, Vec<u8>)> = state
                    .data
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                ok_response(|w| {
                    w.seq(hits.len());
                    for (k, v) in &hits {
                        w.str(k).bytes(v);
                    }
                })
            }
            OP_CHANGES => {
                let since = r.u64()?;
                let state = self.state.lock();
                let events: Vec<DbEvent> = state
                    .log
                    .iter()
                    .filter(|e| e.seq > since)
                    .cloned()
                    .collect();
                ok_response(|w| {
                    w.seq(events.len());
                    for e in &events {
                        w.u64(e.seq).u8(match e.op {
                            DbOp::Put => 0,
                            DbOp::Delete => 1,
                        });
                        w.str(&e.key);
                    }
                })
            }
            OP_SEQ => ok_response(|w| {
                w.u64(self.seq());
            }),
            t => err_response(&format!("unknown db op {t}")),
        })
    }
}

/// Typed client for [`DbServer`].
#[derive(Debug, Clone)]
pub struct DbClient {
    endpoint: Endpoint,
}

impl DbClient {
    /// Creates a client for the service `endpoint` reaches.
    pub fn new(endpoint: Endpoint) -> Self {
        DbClient { endpoint }
    }

    /// Inserts or updates a key; returns the new change sequence.
    ///
    /// # Errors
    ///
    /// Network faults.
    pub fn put(&self, key: &str, value: &[u8]) -> afs_net::Result<u64> {
        let mut w = WireWriter::new();
        w.u8(OP_PUT).str(key).bytes(value);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.u64()?)
    }

    /// Reads a key.
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] if missing.
    pub fn get(&self, key: &str) -> afs_net::Result<Vec<u8>> {
        let mut w = WireWriter::new();
        w.u8(OP_GET).str(key);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.bytes()?.to_vec())
    }

    /// Deletes a key; returns the new change sequence.
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] if missing.
    pub fn delete(&self, key: &str) -> afs_net::Result<u64> {
        let mut w = WireWriter::new();
        w.u8(OP_DELETE).str(key);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.u64()?)
    }

    /// Returns `(key, value)` pairs whose keys start with `prefix`, in key
    /// order.
    ///
    /// # Errors
    ///
    /// Network faults.
    pub fn scan(&self, prefix: &str) -> afs_net::Result<Vec<(String, Vec<u8>)>> {
        let mut w = WireWriter::new();
        w.u8(OP_SCAN).str(prefix);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        let n = r.seq()?;
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let k = r.str()?.to_owned();
            let v = r.bytes()?.to_vec();
            out.push((k, v));
        }
        Ok(out)
    }

    /// Returns every change with `seq > since` — the polling hook a
    /// consistency-tracking sentinel uses.
    ///
    /// # Errors
    ///
    /// Network faults.
    pub fn changes_since(&self, since: u64) -> afs_net::Result<Vec<DbEvent>> {
        let mut w = WireWriter::new();
        w.u8(OP_CHANGES).u64(since);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        let n = r.seq()?;
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let seq = r.u64()?;
            let op = match r.u8()? {
                0 => DbOp::Put,
                1 => DbOp::Delete,
                t => return Err(afs_net::NetError::Malformed(afs_net::WireError::BadTag(t))),
            };
            let key = r.str()?.to_owned();
            out.push(DbEvent { seq, op, key });
        }
        Ok(out)
    }

    /// Current change sequence number.
    ///
    /// # Errors
    ///
    /// Network faults.
    pub fn seq(&self) -> afs_net::Result<u64> {
        let mut w = WireWriter::new();
        w.u8(OP_SEQ);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.u64()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::CostModel;

    fn setup() -> (Arc<DbServer>, DbClient) {
        let net = afs_net::Network::new(CostModel::free());
        let server = DbServer::new();
        net.register("db", Arc::clone(&server) as Arc<dyn Service>);
        (server, DbClient::new(net.endpoint(["db"])))
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (_server, client) = setup();
        client.put("user:1", b"alice").expect("put");
        assert_eq!(client.get("user:1").expect("get"), b"alice");
        client.delete("user:1").expect("delete");
        assert!(client.get("user:1").is_err());
        assert!(client.delete("user:1").is_err());
    }

    #[test]
    fn scan_returns_prefix_matches_in_order() {
        let (_server, client) = setup();
        client.put("user:2", b"b").expect("put");
        client.put("user:1", b"a").expect("put");
        client.put("group:1", b"g").expect("put");
        let hits = client.scan("user:").expect("scan");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, "user:1");
        assert_eq!(hits[1].0, "user:2");
    }

    #[test]
    fn change_feed_reports_out_of_band_mutations() {
        let (server, client) = setup();
        let baseline = client.seq().expect("seq");
        // Mutations performed directly on the server — "behind the
        // intermediary's back".
        server.put("k", b"v");
        server.delete("k");
        let events = client.changes_since(baseline).expect("changes");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].op, DbOp::Put);
        assert_eq!(events[1].op, DbOp::Delete);
        assert_eq!(events[1].key, "k");
        assert!(events[1].seq > events[0].seq);
    }

    #[test]
    fn changes_since_latest_is_empty() {
        let (_server, client) = setup();
        client.put("a", b"1").expect("put");
        let seq = client.seq().expect("seq");
        assert!(client.changes_since(seq).expect("changes").is_empty());
    }

    #[test]
    fn empty_prefix_scans_everything() {
        let (_server, client) = setup();
        client.put("x", b"1").expect("put");
        client.put("y", b"2").expect("put");
        assert_eq!(client.scan("").expect("scan").len(), 2);
    }
}
