//! A Windows-registry-like hierarchical configuration store.
//!
//! §3: "Filtering can also be used to provide a file-based interface to
//! the Windows system registry … The sentinel checks the registry,
//! providing a simplified version (e.g., a plain text file) to the client
//! application. Any modifications by the client application can in turn be
//! parsed by the sentinel process and translated into appropriate registry
//! modifications."
//!
//! Keys are `/`-separated paths under root hives (e.g.
//! `HKLM/Software/Afs`); each key holds named values.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use afs_net::{Endpoint, Service, WireWriter};

use crate::{check_status, err_response, ok_response};

const OP_GET_VALUE: u8 = 1;
const OP_SET_VALUE: u8 = 2;
const OP_DELETE_VALUE: u8 = 3;
const OP_ENUM_KEYS: u8 = 4;
const OP_ENUM_VALUES: u8 = 5;
const OP_CREATE_KEY: u8 = 6;
const OP_DELETE_KEY: u8 = 7;

const TAG_STR: u8 = 1;
const TAG_U32: u8 = 2;
const TAG_BIN: u8 = 3;

/// A registry value (`REG_SZ`, `REG_DWORD`, `REG_BINARY`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryValue {
    /// A string value.
    Str(String),
    /// A 32-bit integer value.
    U32(u32),
    /// An opaque binary value.
    Bin(Vec<u8>),
}

impl RegistryValue {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            RegistryValue::Str(s) => {
                w.u8(TAG_STR).str(s);
            }
            RegistryValue::U32(v) => {
                w.u8(TAG_U32).u32(*v);
            }
            RegistryValue::Bin(b) => {
                w.u8(TAG_BIN).bytes(b);
            }
        }
    }

    fn decode(r: &mut afs_net::WireReader<'_>) -> Result<Self, afs_net::WireError> {
        match r.u8()? {
            TAG_STR => Ok(RegistryValue::Str(r.str()?.to_owned())),
            TAG_U32 => Ok(RegistryValue::U32(r.u32()?)),
            TAG_BIN => Ok(RegistryValue::Bin(r.bytes()?.to_vec())),
            t => Err(afs_net::WireError::BadTag(t)),
        }
    }
}

#[derive(Debug, Default)]
struct Key {
    values: BTreeMap<String, RegistryValue>,
    subkeys: BTreeMap<String, Key>,
}

impl Key {
    fn walk(&self, path: &str) -> Option<&Key> {
        let mut cur = self;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = cur.subkeys.get(comp)?;
        }
        Some(cur)
    }

    fn walk_mut(&mut self, path: &str, create: bool) -> Option<&mut Key> {
        let mut cur = self;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            if create {
                cur = cur.subkeys.entry(comp.to_owned()).or_default();
            } else {
                cur = cur.subkeys.get_mut(comp)?;
            }
        }
        Some(cur)
    }
}

/// The registry service.
pub struct RegistryServer {
    root: Mutex<Key>,
}

impl RegistryServer {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(RegistryServer {
            root: Mutex::new(Key::default()),
        })
    }

    /// Sets a value directly (experiment setup).
    pub fn set(&self, key: &str, name: &str, value: RegistryValue) {
        let mut root = self.root.lock();
        let k = root.walk_mut(key, true).expect("create walks infallibly");
        k.values.insert(name.to_owned(), value);
    }

    /// Reads a value directly (test/diagnostic access).
    pub fn get(&self, key: &str, name: &str) -> Option<RegistryValue> {
        self.root
            .lock()
            .walk(key)
            .and_then(|k| k.values.get(name).cloned())
    }
}

impl Service for RegistryServer {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        let mut r = afs_net::WireReader::new(request);
        let op = r.u8()?;
        let key_path = r.str()?.to_owned();
        let mut root = self.root.lock();
        Ok(match op {
            OP_GET_VALUE => {
                let name = r.str()?.to_owned();
                match root.walk(&key_path).and_then(|k| k.values.get(&name)) {
                    Some(v) => ok_response(|w| v.encode(w)),
                    None => err_response("value not found"),
                }
            }
            OP_SET_VALUE => {
                let name = r.str()?.to_owned();
                let value = RegistryValue::decode(&mut r)?;
                let key = root
                    .walk_mut(&key_path, true)
                    .expect("create walks infallibly");
                key.values.insert(name, value);
                ok_response(|_| {})
            }
            OP_DELETE_VALUE => {
                let name = r.str()?.to_owned();
                match root.walk_mut(&key_path, false) {
                    Some(k) => {
                        if k.values.remove(&name).is_some() {
                            ok_response(|_| {})
                        } else {
                            err_response("value not found")
                        }
                    }
                    None => err_response("value not found"),
                }
            }
            OP_ENUM_KEYS => match root.walk(&key_path) {
                Some(k) => ok_response(|w| {
                    w.seq(k.subkeys.len());
                    for name in k.subkeys.keys() {
                        w.str(name);
                    }
                }),
                None => err_response("key not found"),
            },
            OP_ENUM_VALUES => match root.walk(&key_path) {
                Some(k) => ok_response(|w| {
                    w.seq(k.values.len());
                    for (name, v) in &k.values {
                        w.str(name);
                        v.encode(w);
                    }
                }),
                None => err_response("key not found"),
            },
            OP_CREATE_KEY => {
                root.walk_mut(&key_path, true);
                ok_response(|_| {})
            }
            OP_DELETE_KEY => {
                let Some((parent, leaf)) = key_path.rsplit_once('/') else {
                    return Ok(match root.subkeys.remove(&key_path) {
                        Some(_) => ok_response(|_| {}),
                        None => err_response("key not found"),
                    });
                };
                match root.walk_mut(parent, false) {
                    Some(k) => {
                        if k.subkeys.remove(leaf).is_some() {
                            ok_response(|_| {})
                        } else {
                            err_response("key not found")
                        }
                    }
                    None => err_response("key not found"),
                }
            }
            t => err_response(&format!("unknown registry op {t}")),
        })
    }
}

/// Typed client for [`RegistryServer`].
#[derive(Debug, Clone)]
pub struct RegistryClient {
    endpoint: Endpoint,
}

impl RegistryClient {
    /// Creates a client for the service `endpoint` reaches.
    pub fn new(endpoint: Endpoint) -> Self {
        RegistryClient { endpoint }
    }

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] if key or value is missing.
    pub fn get_value(&self, key: &str, name: &str) -> afs_net::Result<RegistryValue> {
        let mut w = WireWriter::new();
        w.u8(OP_GET_VALUE).str(key).str(name);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(RegistryValue::decode(&mut r)?)
    }

    /// Sets one value, creating the key path as needed.
    ///
    /// # Errors
    ///
    /// Network faults.
    pub fn set_value(&self, key: &str, name: &str, value: &RegistryValue) -> afs_net::Result<()> {
        let mut w = WireWriter::new();
        w.u8(OP_SET_VALUE).str(key).str(name);
        value.encode(&mut w);
        let resp = self.endpoint.rpc(&w.finish())?;
        check_status(&resp)?;
        Ok(())
    }

    /// Deletes one value.
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] if missing.
    pub fn delete_value(&self, key: &str, name: &str) -> afs_net::Result<()> {
        let mut w = WireWriter::new();
        w.u8(OP_DELETE_VALUE).str(key).str(name);
        let resp = self.endpoint.rpc(&w.finish())?;
        check_status(&resp)?;
        Ok(())
    }

    /// Lists subkey names of `key`.
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] if the key is missing.
    pub fn enum_keys(&self, key: &str) -> afs_net::Result<Vec<String>> {
        let mut w = WireWriter::new();
        w.u8(OP_ENUM_KEYS).str(key);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        let n = r.seq()?;
        (0..n).map(|_| Ok(r.str()?.to_owned())).collect()
    }

    /// Lists `(name, value)` pairs of `key`.
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] if the key is missing.
    pub fn enum_values(&self, key: &str) -> afs_net::Result<Vec<(String, RegistryValue)>> {
        let mut w = WireWriter::new();
        w.u8(OP_ENUM_VALUES).str(key);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        let n = r.seq()?;
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = r.str()?.to_owned();
            let value = RegistryValue::decode(&mut r)?;
            out.push((name, value));
        }
        Ok(out)
    }

    /// Creates a key path.
    ///
    /// # Errors
    ///
    /// Network faults.
    pub fn create_key(&self, key: &str) -> afs_net::Result<()> {
        let mut w = WireWriter::new();
        w.u8(OP_CREATE_KEY).str(key);
        let resp = self.endpoint.rpc(&w.finish())?;
        check_status(&resp)?;
        Ok(())
    }

    /// Deletes a key (and its subtree).
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] if missing.
    pub fn delete_key(&self, key: &str) -> afs_net::Result<()> {
        let mut w = WireWriter::new();
        w.u8(OP_DELETE_KEY).str(key);
        let resp = self.endpoint.rpc(&w.finish())?;
        check_status(&resp)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::CostModel;

    fn setup() -> (Arc<RegistryServer>, RegistryClient) {
        let net = afs_net::Network::new(CostModel::free());
        let server = RegistryServer::new();
        net.register("registry", Arc::clone(&server) as Arc<dyn Service>);
        (server, RegistryClient::new(net.endpoint(["registry"])))
    }

    #[test]
    fn set_get_roundtrip_all_types() {
        let (_server, client) = setup();
        for (name, value) in [
            ("s", RegistryValue::Str("text".into())),
            ("d", RegistryValue::U32(7)),
            ("b", RegistryValue::Bin(vec![1, 2, 3])),
        ] {
            client
                .set_value("HKLM/Software/Afs", name, &value)
                .expect("set");
            assert_eq!(
                client.get_value("HKLM/Software/Afs", name).expect("get"),
                value
            );
        }
    }

    #[test]
    fn missing_value_rejected() {
        let (_server, client) = setup();
        assert!(client.get_value("HKLM", "nope").is_err());
    }

    #[test]
    fn enum_keys_and_values() {
        let (server, client) = setup();
        server.set("HKLM/A", "v1", RegistryValue::U32(1));
        server.set("HKLM/B", "v2", RegistryValue::U32(2));
        assert_eq!(
            client.enum_keys("HKLM").expect("keys"),
            vec!["A".to_owned(), "B".to_owned()]
        );
        let values = client.enum_values("HKLM/A").expect("values");
        assert_eq!(values, vec![("v1".to_owned(), RegistryValue::U32(1))]);
    }

    #[test]
    fn delete_value_and_key() {
        let (server, client) = setup();
        server.set("HKLM/X", "v", RegistryValue::U32(1));
        client.delete_value("HKLM/X", "v").expect("del value");
        assert!(client.get_value("HKLM/X", "v").is_err());
        client.delete_key("HKLM/X").expect("del key");
        assert!(client.enum_values("HKLM/X").is_err());
    }

    #[test]
    fn create_key_makes_empty_key_visible() {
        let (_server, client) = setup();
        client.create_key("HKCU/Deep/Nested/Key").expect("create");
        assert_eq!(
            client.enum_keys("HKCU/Deep/Nested").expect("keys"),
            vec!["Key".to_owned()]
        );
    }

    #[test]
    fn top_level_key_delete() {
        let (server, client) = setup();
        server.set("Top", "v", RegistryValue::U32(9));
        client.delete_key("Top").expect("delete");
        assert!(client.enum_values("Top").is_err());
    }
}
