//! Deterministic stock-quote feed.
//!
//! §3: "an active file that reflects the latest stock quotes (downloaded
//! by the sentinel from a server) every time the file is opened". Prices
//! follow a seeded random walk; [`QuoteServer::advance`] moves the market
//! forward one tick, so experiments control exactly when quotes change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use afs_net::{Endpoint, Service, WireWriter};

use crate::{check_status, err_response, ok_response};

const OP_GET: u8 = 1;
const OP_TICK: u8 = 2;

/// One quoted price. Plain data; fields are public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Ticker symbol.
    pub symbol: String,
    /// Price in cents.
    pub cents: u64,
    /// Market tick the price belongs to.
    pub tick: u64,
}

/// A quote server with a seeded random-walk market.
pub struct QuoteServer {
    prices: Mutex<BTreeMap<String, u64>>,
    rng: Mutex<SmallRng>,
    tick: AtomicU64,
}

impl QuoteServer {
    /// Creates a market over `symbols` with deterministic prices derived
    /// from `seed`.
    pub fn new(seed: u64, symbols: &[&str]) -> Arc<Self> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let prices = symbols
            .iter()
            .map(|s| ((*s).to_owned(), rng.gen_range(1_000..50_000)))
            .collect();
        Arc::new(QuoteServer {
            prices: Mutex::new(prices),
            rng: Mutex::new(rng),
            tick: AtomicU64::new(0),
        })
    }

    /// Advances the market one tick, nudging every price by up to ±5%.
    pub fn advance(&self) {
        let mut prices = self.prices.lock();
        let mut rng = self.rng.lock();
        for price in prices.values_mut() {
            let delta = rng.gen_range(-5i64..=5) * (*price as i64) / 100;
            *price = (*price as i64 + delta).max(1) as u64;
        }
        self.tick.fetch_add(1, Ordering::SeqCst);
    }

    /// Current market tick.
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::SeqCst)
    }

    /// Current price of one symbol (test/diagnostic access).
    pub fn price(&self, symbol: &str) -> Option<u64> {
        self.prices.lock().get(symbol).copied()
    }
}

impl Service for QuoteServer {
    fn handle(&self, request: &[u8]) -> afs_net::Result<Vec<u8>> {
        let mut r = afs_net::WireReader::new(request);
        let op = r.u8()?;
        Ok(match op {
            OP_GET => {
                let n = r.seq()?;
                let mut symbols = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    symbols.push(r.str()?.to_owned());
                }
                let prices = self.prices.lock();
                let tick = self.tick.load(Ordering::SeqCst);
                let mut found = Vec::new();
                for sym in &symbols {
                    match prices.get(sym) {
                        Some(&cents) => found.push((sym.clone(), cents)),
                        None => return Ok(err_response(&format!("unknown symbol {sym}"))),
                    }
                }
                ok_response(|w| {
                    w.u64(tick).seq(found.len());
                    for (sym, cents) in &found {
                        w.str(sym).u64(*cents);
                    }
                })
            }
            OP_TICK => {
                self.advance();
                ok_response(|w| {
                    w.u64(self.tick.load(Ordering::SeqCst));
                })
            }
            t => err_response(&format!("unknown quote op {t}")),
        })
    }
}

/// Typed client for [`QuoteServer`].
#[derive(Debug, Clone)]
pub struct QuoteClient {
    endpoint: Endpoint,
}

impl QuoteClient {
    /// Creates a client for the service `endpoint` reaches.
    pub fn new(endpoint: Endpoint) -> Self {
        QuoteClient { endpoint }
    }

    /// Fetches current quotes for `symbols`.
    ///
    /// # Errors
    ///
    /// [`afs_net::NetError::Rejected`] for unknown symbols.
    pub fn quotes(&self, symbols: &[&str]) -> afs_net::Result<Vec<Quote>> {
        let mut w = WireWriter::new();
        w.u8(OP_GET).seq(symbols.len());
        for s in symbols {
            w.str(s);
        }
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        let tick = r.u64()?;
        let n = r.seq()?;
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let symbol = r.str()?.to_owned();
            let cents = r.u64()?;
            out.push(Quote {
                symbol,
                cents,
                tick,
            });
        }
        Ok(out)
    }

    /// Asks the server to advance one market tick (experiment control).
    ///
    /// # Errors
    ///
    /// Network faults.
    pub fn advance(&self) -> afs_net::Result<u64> {
        let mut w = WireWriter::new();
        w.u8(OP_TICK);
        let resp = self.endpoint.rpc(&w.finish())?;
        let mut r = check_status(&resp)?;
        Ok(r.u64()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afs_sim::CostModel;

    fn setup() -> (Arc<QuoteServer>, QuoteClient) {
        let net = afs_net::Network::new(CostModel::free());
        let server = QuoteServer::new(42, &["ACME", "INIT"]);
        net.register("quotes", Arc::clone(&server) as Arc<dyn Service>);
        (server, QuoteClient::new(net.endpoint(["quotes"])))
    }

    #[test]
    fn quotes_are_deterministic_for_a_seed() {
        let a = QuoteServer::new(7, &["X"]);
        let b = QuoteServer::new(7, &["X"]);
        assert_eq!(a.price("X"), b.price("X"));
        a.advance();
        b.advance();
        assert_eq!(a.price("X"), b.price("X"));
    }

    #[test]
    fn client_fetches_quotes() {
        let (server, client) = setup();
        let quotes = client.quotes(&["ACME", "INIT"]).expect("quotes");
        assert_eq!(quotes.len(), 2);
        assert_eq!(quotes[0].symbol, "ACME");
        assert_eq!(Some(quotes[0].cents), server.price("ACME"));
        assert_eq!(quotes[0].tick, 0);
    }

    #[test]
    fn unknown_symbol_rejected() {
        let (_server, client) = setup();
        assert!(client.quotes(&["NOPE"]).is_err());
    }

    #[test]
    fn advance_changes_tick_and_usually_prices() {
        let (server, client) = setup();
        let before = server.price("ACME").expect("price");
        let tick = client.advance().expect("tick");
        assert_eq!(tick, 1);
        let quotes = client.quotes(&["ACME"]).expect("quotes");
        assert_eq!(quotes[0].tick, 1);
        // The walk may coincidentally return the same price; ticks always
        // move.
        let _ = before;
    }

    #[test]
    fn prices_stay_positive() {
        let server = QuoteServer::new(1, &["P"]);
        for _ in 0..500 {
            server.advance();
        }
        assert!(server.price("P").expect("price") >= 1);
    }
}
