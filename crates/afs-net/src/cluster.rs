//! Membership and placement for a replicated active-file cluster.
//!
//! The paper's sentinels talk to one remote service per file. To run the
//! same files against a *fleet* of services, something has to decide
//! which service owns which path — and keep that decision stable as the
//! fleet grows or shrinks, or every membership change would invalidate
//! every client's routing.
//!
//! [`HashRing`] is the classic consistent-hash answer: each node is
//! hashed onto a ring at [`HashRing::DEFAULT_VNODES`] points, a key is
//! owned by the first node point at or after its own hash, and a
//! membership change only reassigns the keys adjacent to the points that
//! appeared or vanished — in expectation `1/N` of the keyspace for a
//! join of an `N+1`-th node, never a full reshuffle. [`Placement`] wraps
//! the ring with a replication factor and answers the routing question
//! the cluster client actually asks: `owners(path)` → the primary
//! followed by the replicas, each a distinct node, in deterministic
//! order.
//!
//! Everything here is pure data — hashing is an in-tree FNV-1a, so
//! placement is bit-identical across runs, processes, and the seed
//! sweep's seeds. The ring itself is one sorted `Vec` of points over the
//! sorted member names, built without allocating per point: a cluster
//! session owns a private ring, so building one has to cost about what
//! the handful of ops the session then issues cost.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Continues an FNV-1a state over `bytes`.
fn fnv1a_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// The SplitMix64-style finalizer. It matters: raw FNV of short, similar
/// strings ("files-1#0", "files-1#1", …) clusters in the high bits, and
/// ring placement keys off the whole word.
fn finalize(mut state: u64) -> u64 {
    state ^= state >> 30;
    state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state ^= state >> 27;
    state = state.wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^ (state >> 31)
}

/// 64-bit FNV-1a with the finalizer: tiny, dependency-free, and stable
/// across platforms — placement must be reproducible, not cryptographic.
fn fnv1a(bytes: &[u8]) -> u64 {
    finalize(fnv1a_extend(FNV_OFFSET, bytes))
}

/// The FNV-1a state after `"{name}#"`: what all of a member's points
/// have in common.
fn point_prefix(name: &str) -> u64 {
    fnv1a_extend(fnv1a_extend(FNV_OFFSET, name.as_bytes()), b"#")
}

/// `fnv1a("{name}#{v}")` given [`point_prefix`]`(name)`: continues the
/// state over the decimal digits of `v`, so no string is built.
fn point_hash(prefix: u64, v: usize) -> u64 {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    finalize(fnv1a_extend(prefix, &digits[at..]))
}

/// A consistent-hash ring over named service nodes.
///
/// Nodes are placed at `vnodes` points each (virtual nodes smooth the
/// per-node load to within a few percent of uniform); a key belongs to
/// the first node point clockwise from the key's hash.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// Every member's points as `(hash, index into nodes)`, sorted. When
    /// two members hash to the same point, the first entry of the
    /// equal-hash run — the smaller index, i.e. the smaller name — owns
    /// it and the walk skips the rest of the run, so placement never
    /// depends on insertion order; the shadowed entries stay in the
    /// vector and take the point over when their shadower leaves.
    points: Vec<(u64, usize)>,
    /// Virtual-node count used for every member.
    vnodes: usize,
    /// Member names in insertion-independent (sorted) order.
    nodes: Vec<String>,
}

impl HashRing {
    /// Virtual nodes per member when none is specified: enough to keep
    /// per-node share within ~10% of uniform at small fleet sizes.
    pub const DEFAULT_VNODES: usize = 64;

    /// Creates an empty ring with `vnodes` points per member (clamped to
    /// at least 1).
    pub fn new(vnodes: usize) -> HashRing {
        HashRing {
            points: Vec::new(),
            vnodes: vnodes.max(1),
            nodes: Vec::new(),
        }
    }

    /// The member names, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.nodes.binary_search_by(|n| n.as_str().cmp(name))
    }

    /// Adds a member; a duplicate name is a no-op.
    pub fn add_node(&mut self, name: &str) {
        let prefix = point_prefix(name);
        self.add_node_at(name, |v| point_hash(prefix, v));
    }

    /// [`add_node`](HashRing::add_node) with the hash of point `v` as an
    /// input, so a test can make two members collide.
    fn add_node_at(&mut self, name: &str, hash: impl Fn(usize) -> u64) {
        let Err(at) = self.position(name) else {
            return;
        };
        self.nodes.insert(at, name.to_owned());
        for point in &mut self.points {
            if point.1 >= at {
                point.1 += 1;
            }
        }
        let mut fresh: Vec<u64> = (0..self.vnodes).map(hash).collect();
        fresh.sort_unstable();
        // Merge the two sorted runs from the back, in place.
        let (mut old, mut new) = (self.points.len(), fresh.len());
        self.points.resize(old + new, (0, 0));
        while new > 0 {
            let point = (fresh[new - 1], at);
            if old > 0 && self.points[old - 1] > point {
                self.points[old + new - 1] = self.points[old - 1];
                old -= 1;
            } else {
                self.points[old + new - 1] = point;
                new -= 1;
            }
        }
    }

    /// Removes a member; an unknown name is a no-op.
    pub fn remove_node(&mut self, name: &str) {
        let Ok(at) = self.position(name) else {
            return;
        };
        self.nodes.remove(at);
        self.points.retain_mut(|point| {
            if point.1 > at {
                point.1 -= 1;
                return true;
            }
            point.1 != at
        });
    }

    /// The first `count` *distinct* members clockwise from `key`'s hash:
    /// the primary first, then the failover/replica order. Returns fewer
    /// than `count` when the fleet is smaller than that.
    pub fn owners(&self, key: &str, count: usize) -> Vec<String> {
        let want = count.min(self.nodes.len());
        let mut out: Vec<String> = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let start = fnv1a(key.as_bytes());
        let first = self.points.partition_point(|point| point.0 < start);
        let (before, after) = self.points.split_at(first);
        let (mut last_hash, mut last_id) = (None, None);
        for &(hash, id) in after.iter().chain(before) {
            // An entry behind another of the same hash is shadowed: not
            // on the ring. A member seen twice in a row was taken the
            // first time; that spares most of the name comparisons below.
            if last_hash.replace(hash) == Some(hash) || last_id.replace(id) == Some(id) {
                continue;
            }
            let node = &self.nodes[id];
            if !out.contains(node) {
                out.push(node.clone());
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The single owner of `key`, when the ring is non-empty.
    pub fn primary(&self, key: &str) -> Option<String> {
        self.owners(key, 1).into_iter().next()
    }
}

/// Replica-aware placement: a [`HashRing`] plus a replication factor.
///
/// `owners(path)` answers the cluster client's routing question — writes
/// go to the first entry (the primary) and replicate to the rest; reads
/// try the entries in order.
#[derive(Debug, Clone)]
pub struct Placement {
    ring: HashRing,
    copies: usize,
}

impl Placement {
    /// Creates an empty placement keeping `copies` total copies of every
    /// file (primary included; clamped to at least 1), with the default
    /// virtual-node count.
    pub fn new(copies: usize) -> Placement {
        Placement {
            ring: HashRing::new(HashRing::DEFAULT_VNODES),
            copies: copies.max(1),
        }
    }

    /// Total copies kept per file (primary included).
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// The member names, sorted.
    pub fn nodes(&self) -> &[String] {
        self.ring.nodes()
    }

    /// Adds a member service to the fleet.
    pub fn add_node(&mut self, name: &str) {
        self.ring.add_node(name);
    }

    /// Removes a member service from the fleet.
    pub fn remove_node(&mut self, name: &str) {
        self.ring.remove_node(name);
    }

    /// `[primary, replica, ...]` for `path` — distinct nodes, at most
    /// [`copies`](Placement::copies), deterministic for a given
    /// membership.
    pub fn owners(&self, path: &str) -> Vec<String> {
        self.ring.owners(path, self.copies)
    }

    /// The primary for `path`, when the fleet is non-empty.
    pub fn primary(&self, path: &str) -> Option<String> {
        self.ring.primary(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn fleet(n: usize) -> HashRing {
        let mut ring = HashRing::new(HashRing::DEFAULT_VNODES);
        for i in 0..n {
            ring.add_node(&format!("files-{i}"));
        }
        ring
    }

    fn keys(k: usize) -> Vec<String> {
        (0..k).map(|i| format!("/data/file-{i}.af")).collect()
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let mut a = HashRing::new(32);
        for n in ["beta", "alpha", "gamma"] {
            a.add_node(n);
        }
        let mut b = HashRing::new(32);
        for n in ["gamma", "beta", "alpha"] {
            b.add_node(n);
        }
        for key in keys(200) {
            assert_eq!(a.owners(&key, 2), b.owners(&key, 2), "{key}");
        }
    }

    #[test]
    fn owners_are_distinct_and_led_by_the_primary() {
        let ring = fleet(5);
        for key in keys(100) {
            let owners = ring.owners(&key, 3);
            assert_eq!(owners.len(), 3);
            assert_eq!(owners[0], ring.primary(&key).expect("primary"));
            let mut dedup = owners.clone();
            dedup.dedup();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "{key}: {owners:?}");
        }
    }

    #[test]
    fn small_fleets_return_every_node() {
        let ring = fleet(2);
        assert_eq!(ring.owners("/x", 3).len(), 2);
        assert!(HashRing::new(8).owners("/x", 3).is_empty());
        assert_eq!(HashRing::new(8).primary("/x"), None);
    }

    #[test]
    fn join_moves_at_most_its_fair_share_of_keys() {
        // The consistency bound the cluster gate also asserts: adding an
        // (N+1)-th node reassigns at most 1/(N+1) of keys, plus slack for
        // virtual-node variance.
        let keys = keys(10_000);
        for n in [2usize, 4, 8] {
            let before = fleet(n);
            let mut after = before.clone();
            after.add_node("files-new");
            let moved = keys
                .iter()
                .filter(|k| before.primary(k) != after.primary(k))
                .count();
            let bound = keys.len() / (n + 1) + keys.len() / 20;
            assert!(
                moved <= bound,
                "N={n}: moved {moved} of {} (bound {bound})",
                keys.len()
            );
            // And every moved key moved *to* the joiner, not between
            // incumbents.
            for k in &keys {
                if before.primary(k) != after.primary(k) {
                    assert_eq!(after.primary(k).as_deref(), Some("files-new"), "{k}");
                }
            }
        }
    }

    #[test]
    fn leave_reassigns_only_the_leavers_keys() {
        let before = fleet(5);
        let mut after = before.clone();
        after.remove_node("files-2");
        for key in keys(2_000) {
            let was = before.primary(&key).expect("primary");
            if was != "files-2" {
                assert_eq!(after.primary(&key).as_deref(), Some(was.as_str()), "{key}");
            } else {
                assert_ne!(after.primary(&key).as_deref(), Some("files-2"));
            }
        }
    }

    #[test]
    fn virtual_nodes_spread_load_evenly() {
        let ring = fleet(4);
        let mut counts = BTreeMap::new();
        let total = 8_000usize;
        for key in keys(total) {
            *counts
                .entry(ring.primary(&key).expect("primary"))
                .or_insert(0usize) += 1;
        }
        for (node, count) in counts {
            let share = count as f64 / total as f64;
            assert!(
                (share - 0.25).abs() < 0.10,
                "{node} owns {share:.3} of the keyspace"
            );
        }
    }

    /// The ring as it was before it became flat data: one `BTreeMap`
    /// entry per distinct point, the name rule applied on add, displaced
    /// points re-added on remove. Kept as the reference the flat ring
    /// must agree with on every call.
    struct Model {
        points: BTreeMap<u64, String>,
        vnodes: usize,
        nodes: Vec<String>,
    }

    impl Model {
        fn add(&mut self, name: &str, hash: &dyn Fn(&str, usize) -> u64) {
            if self.nodes.iter().any(|n| n == name) {
                return;
            }
            for v in 0..self.vnodes {
                let point = hash(name, v);
                match self.points.get(&point) {
                    Some(existing) if existing.as_str() <= name => {}
                    _ => drop(self.points.insert(point, name.to_owned())),
                }
            }
            self.nodes.push(name.to_owned());
            self.nodes.sort();
        }

        fn remove(&mut self, name: &str, hash: &dyn Fn(&str, usize) -> u64) {
            self.nodes.retain(|n| n != name);
            self.points.retain(|_, n| n != name);
            for node in &self.nodes {
                for v in 0..self.vnodes {
                    self.points
                        .entry(hash(node, v))
                        .or_insert_with(|| node.clone());
                }
            }
        }

        fn owners(&self, key: &str, count: usize) -> Vec<String> {
            let start = fnv1a(key.as_bytes());
            let mut out: Vec<String> = Vec::new();
            for (_, node) in self.points.range(start..).chain(self.points.range(..start)) {
                if out.len() < count.min(self.nodes.len()) && !out.contains(node) {
                    out.push(node.clone());
                }
            }
            out
        }
    }

    fn formatted_hash(name: &str, v: usize) -> u64 {
        fnv1a(format!("{name}#{v}").as_bytes())
    }

    /// Sixteen ring positions in all, so members collide constantly.
    fn crowded_hash(name: &str, v: usize) -> u64 {
        formatted_hash(name, v) & 0xF000_0000_0000_0000
    }

    /// Drives the flat ring and the model through one seeded add/remove
    /// sequence, comparing them after every step.
    fn differential(seed: u64, vnodes: usize, hash: fn(&str, usize) -> u64) {
        const NAMES: [&str; 10] = [
            "files-0",
            "files-1",
            "files-10",
            "files-1#0",
            "n",
            "n#",
            "n#1",
            "#",
            "7",
            "70",
        ];
        let mut rng = afs_sim::SimRng::new(seed);
        let mut ring = HashRing::new(vnodes);
        let mut model = Model {
            points: BTreeMap::new(),
            vnodes,
            nodes: Vec::new(),
        };
        let keys = keys(48);
        for step in 0..60 {
            let name = NAMES[rng.next_below(NAMES.len() as u64) as usize];
            if rng.next_below(3) == 0 {
                ring.remove_node(name);
                model.remove(name, &hash);
            } else {
                ring.add_node_at(name, |v| hash(name, v));
                model.add(name, &hash);
            }
            assert_eq!(ring.nodes(), model.nodes, "seed {seed} step {step}");
            for key in &keys {
                for count in 1..=3 {
                    assert_eq!(
                        ring.owners(key, count),
                        model.owners(key, count),
                        "seed {seed} vnodes {vnodes} step {step} {key} x{count}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_ring_agrees_with_the_btreemap_model() {
        for vnodes in [1, 7, 64, 130] {
            for seed in 0..4 {
                differential(seed, vnodes, formatted_hash);
                differential(seed, vnodes, crowded_hash);
            }
        }
    }

    #[test]
    fn incremental_point_hash_equals_the_formatted_one() {
        for name in ["files-3", "n#1", "", "#", "42"] {
            let prefix = point_prefix(name);
            for v in (0..1100).chain([usize::MAX]) {
                assert_eq!(point_hash(prefix, v), formatted_hash(name, v), "{name}#{v}");
            }
        }
    }

    #[test]
    fn colliding_points_go_to_the_smaller_name_and_back() {
        // Every member sits on the same single point, so the whole
        // keyspace belongs to whoever owns that point.
        let add = |ring: &mut HashRing, name: &str| ring.add_node_at(name, |_| 7);
        let mut ring = HashRing::new(1);
        add(&mut ring, "beta");
        add(&mut ring, "gamma");
        assert_eq!(
            ring.owners("/x", 3),
            ["beta"],
            "the later, larger name loses"
        );
        add(&mut ring, "alpha");
        assert_eq!(
            ring.owners("/x", 3),
            ["alpha"],
            "the later, smaller name wins"
        );
        ring.remove_node("alpha");
        assert_eq!(
            ring.owners("/x", 3),
            ["beta"],
            "the displaced point comes back"
        );
        ring.remove_node("beta");
        assert_eq!(ring.owners("/x", 3), ["gamma"]);
    }

    #[test]
    fn placement_wraps_the_ring_with_a_replication_factor() {
        let mut placement = Placement::new(3);
        assert_eq!(placement.copies(), 3);
        for i in 0..5 {
            placement.add_node(&format!("files-{i}"));
        }
        let owners = placement.owners("/data/x.af");
        assert_eq!(owners.len(), 3);
        assert_eq!(owners[0], placement.primary("/data/x.af").expect("primary"));
        placement.remove_node(&owners[0]);
        assert_eq!(placement.nodes().len(), 4);
        assert_ne!(placement.owners("/data/x.af")[0], owners[0]);
    }
}
