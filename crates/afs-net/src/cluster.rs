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
//! sorted member names, built without allocating per point — and built
//! once per membership: it is a pure function of the virtual-node count
//! and the member names, so every [`Placement`] with the same members
//! holds the same `Arc` (`shared_ring` below), and opening a cluster
//! session costs a name list, not a ring.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

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

/// Where `name` is (`Ok`) or belongs (`Err`) in sorted member names.
fn position(nodes: &[String], name: &str) -> Result<usize, usize> {
    nodes.binary_search_by(|n| n.as_str().cmp(name))
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

    /// Adds a member; a duplicate name is a no-op.
    pub fn add_node(&mut self, name: &str) {
        let prefix = point_prefix(name);
        self.add_node_at(name, |v| point_hash(prefix, v));
    }

    /// [`add_node`](HashRing::add_node) with the hash of point `v` as an
    /// input, so a test can make two members collide.
    fn add_node_at(&mut self, name: &str, hash: impl Fn(usize) -> u64) {
        let Err(at) = position(&self.nodes, name) else {
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
        let Ok(at) = position(&self.nodes, name) else {
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

    /// The one walk behind every owner lookup: offers `take` the members
    /// clockwise from `key`'s hash, by index into
    /// [`nodes`](HashRing::nodes), until it has taken `count` of them or
    /// the whole fleet. `take` answers whether the member was new to it.
    fn walk(&self, key: &str, count: usize, mut take: impl FnMut(usize) -> bool) {
        let mut wanted = count.min(self.nodes.len());
        if wanted == 0 {
            return;
        }
        let start = fnv1a(key.as_bytes());
        let first = self.points.partition_point(|point| point.0 < start);
        let (before, after) = self.points.split_at(first);
        let (mut last_hash, mut last_id) = (None, None);
        for &(hash, id) in after.iter().chain(before) {
            // An entry behind another of the same hash is shadowed: not
            // on the ring. A member seen twice in a row was taken the
            // first time; that spares `take` most of its comparisons.
            if last_hash.replace(hash) == Some(hash) || last_id.replace(id) == Some(id) {
                continue;
            }
            if take(id) {
                wanted -= 1;
                if wanted == 0 {
                    break;
                }
            }
        }
    }

    /// The first `count` *distinct* members clockwise from `key`'s hash:
    /// the primary first, then the failover/replica order. Returns fewer
    /// than `count` when the fleet is smaller than that.
    pub fn owners(&self, key: &str, count: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::with_capacity(count.min(self.nodes.len()));
        self.walk(key, count, |id| {
            let new = !out.contains(&self.nodes[id]);
            if new {
                out.push(self.nodes[id].clone());
            }
            new
        });
        out
    }

    /// [`owners`](HashRing::owners), naming nobody: fills `out` from the
    /// front with the owners' indices into [`nodes`](HashRing::nodes), at
    /// most `out.len()` of them, and returns the filled part.
    fn owner_indices<'a>(&self, key: &str, out: &'a mut [usize]) -> &'a [usize] {
        let mut found = 0;
        self.walk(key, out.len(), |id| {
            let new = !out[..found].contains(&id);
            if new {
                out[found] = id;
                found += 1;
            }
            new
        });
        &out[..found]
    }

    /// The single owner of `key`, when the ring is non-empty.
    pub fn primary(&self, key: &str) -> Option<String> {
        self.owners(key, 1).into_iter().next()
    }
}

/// Most memberships [`shared_ring`] remembers before it starts over.
const REMEMBERED_RINGS: usize = 16;

/// Every ring built and still remembered, found again by what it was
/// built from. The memo holds its rings strongly: a workload of short
/// sessions drops each session before it opens the next, so a memo of
/// `Weak`s would find its ring dead and rebuild it at most opens.
static RINGS: Mutex<Vec<Arc<HashRing>>> = Mutex::new(Vec::new());

/// The ring of `nodes` (sorted) at `vnodes` points each: built on the
/// first request for that membership, the same allocation on every one
/// after it. One lock per call, and a [`Placement`] calls once per
/// membership change, never per lookup.
fn shared_ring(vnodes: usize, nodes: &[String]) -> Arc<HashRing> {
    let mut rings = RINGS.lock();
    let known = rings
        .iter()
        .find(|ring| ring.vnodes == vnodes && ring.nodes == nodes);
    if let Some(ring) = known {
        return Arc::clone(ring);
    }
    let mut ring = HashRing::new(vnodes);
    for name in nodes {
        ring.add_node(name);
    }
    let ring = Arc::new(ring);
    if rings.len() == REMEMBERED_RINGS {
        rings.clear();
    }
    rings.push(Arc::clone(&ring));
    ring
}

/// Replica-aware placement: a membership, its [`HashRing`] and a
/// replication factor.
///
/// `owners(path)` answers the cluster client's routing question — writes
/// go to the first entry (the primary) and replicate to the rest; reads
/// try the entries in order. A placement owns only its member names; the
/// ring is shared with every other placement of the same members.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Member names, sorted.
    nodes: Vec<String>,
    copies: usize,
    /// The ring of `nodes`, resolved by the first lookup after a
    /// membership change: the memberships a fleet passes through while
    /// it is being listed are never built.
    ring: OnceLock<Arc<HashRing>>,
}

impl Placement {
    /// Creates an empty placement keeping `copies` total copies of every
    /// file (primary included; clamped to at least 1), with the default
    /// virtual-node count.
    pub fn new(copies: usize) -> Placement {
        Placement {
            nodes: Vec::new(),
            copies: copies.max(1),
            ring: OnceLock::new(),
        }
    }

    /// Total copies kept per file (primary included).
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// The member names, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Adds a member service to the fleet; a duplicate name is a no-op.
    pub fn add_node(&mut self, name: &str) {
        if let Err(at) = position(&self.nodes, name) {
            self.nodes.insert(at, name.to_owned());
            self.ring = OnceLock::new();
        }
    }

    /// Removes a member service from the fleet; an unknown name is a
    /// no-op.
    pub fn remove_node(&mut self, name: &str) {
        if let Ok(at) = position(&self.nodes, name) {
            self.nodes.remove(at);
            self.ring = OnceLock::new();
        }
    }

    fn ring(&self) -> &Arc<HashRing> {
        self.ring
            .get_or_init(|| shared_ring(HashRing::DEFAULT_VNODES, &self.nodes))
    }

    /// `[primary, replica, ...]` for `path` — distinct nodes, at most
    /// [`copies`](Placement::copies), deterministic for a given
    /// membership.
    pub fn owners(&self, path: &str) -> Vec<String> {
        self.ring().owners(path, self.copies)
    }

    /// [`owners`](Placement::owners) without naming anybody: fills `out`
    /// from the front with the owners' indices into
    /// [`nodes`](Placement::nodes) — at most `out.len()` of them, so a
    /// caller after every owner passes [`copies`](Placement::copies)
    /// slots — and returns the filled part. Allocates nothing.
    pub fn owner_indices<'a>(&self, path: &str, out: &'a mut [usize]) -> &'a [usize] {
        let want = out.len().min(self.copies);
        self.ring().owner_indices(path, &mut out[..want])
    }

    /// The primary for `path`, when the fleet is non-empty.
    pub fn primary(&self, path: &str) -> Option<String> {
        self.ring().primary(path)
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

    /// The memo of built rings is one per process, and the tests below
    /// count on what it holds: one of them at a time.
    static MEMO_TESTS: Mutex<()> = Mutex::new(());

    fn placed(copies: usize, members: &[&str]) -> Placement {
        let mut placement = Placement::new(copies);
        for name in members {
            placement.add_node(name);
        }
        placement
    }

    #[test]
    fn placements_of_one_membership_share_one_ring() {
        let _alone = MEMO_TESTS.lock();
        let a = placed(2, &["share-b", "share-a", "share-c"]);
        let mut b = placed(3, &["share-c", "share-a", "share-b", "share-a"]);
        assert!(Arc::ptr_eq(a.ring(), b.ring()), "same members, any order");
        // A membership change resolves another ring and leaves a clone
        // taken before it where it was.
        let before = b.clone();
        b.add_node("share-d");
        assert!(!Arc::ptr_eq(a.ring(), b.ring()));
        assert_eq!(b.ring().nodes(), b.nodes());
        assert!(Arc::ptr_eq(a.ring(), before.ring()));
        assert_eq!(before.nodes(), a.nodes());
        for key in keys(50) {
            assert_eq!(before.owners(&key)[..2], a.owners(&key)[..]);
        }
        // Back at the first membership, back on its ring.
        b.remove_node("share-d");
        assert!(Arc::ptr_eq(a.ring(), b.ring()));
        // Every placement gone, and the next one still finds it built.
        let ring = Arc::downgrade(a.ring());
        drop((a, b, before));
        let again = placed(1, &["share-a", "share-b", "share-c"]);
        let kept = ring.upgrade().expect("the memo keeps its rings");
        assert!(Arc::ptr_eq(again.ring(), &kept));
    }

    #[test]
    fn more_memberships_than_the_memo_holds_still_place_correctly() {
        let _alone = MEMO_TESTS.lock();
        let keys = keys(40);
        for _round in 0..2 {
            for size in 1..=REMEMBERED_RINGS + 3 {
                let members: Vec<String> = (0..size).map(|i| format!("many-{i}")).collect();
                let mut placement = Placement::new(2);
                let mut ring = HashRing::new(HashRing::DEFAULT_VNODES);
                for name in &members {
                    placement.add_node(name);
                    ring.add_node(name);
                }
                for key in &keys {
                    assert_eq!(placement.owners(key), ring.owners(key, 2), "{size} {key}");
                }
                assert!(RINGS.lock().len() <= REMEMBERED_RINGS);
            }
        }
    }

    #[test]
    fn the_index_walk_names_the_same_owners() {
        let _alone = MEMO_TESTS.lock();
        let ring = fleet(5);
        let names: Vec<&str> = ring.nodes().iter().map(String::as_str).collect();
        let placement = placed(2, &names);
        for key in keys(100) {
            // Nobody, the primary, `copies`, and more than the fleet.
            for count in [0, 1, 2, 3, 5, 9] {
                let mut ids = vec![usize::MAX; count];
                let ids = ring.owner_indices(&key, &mut ids);
                let named: Vec<&String> = ids.iter().map(|&id| &ring.nodes()[id]).collect();
                assert_eq!(named, ring.owners(&key, count).iter().collect::<Vec<_>>());
                assert_eq!(ids.len(), count.min(5), "{key} x{count}");
                // A placement stops at `copies` however many slots it is
                // given, and sooner when given fewer.
                let mut ids = vec![usize::MAX; count];
                let ids = placement.owner_indices(&key, &mut ids);
                let named: Vec<&String> = ids.iter().map(|&id| &placement.nodes()[id]).collect();
                let owners = placement.owners(&key);
                assert_eq!(named, owners.iter().take(count).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn placement_wraps_the_ring_with_a_replication_factor() {
        let _alone = MEMO_TESTS.lock();
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
