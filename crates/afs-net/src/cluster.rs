//! Membership and placement for a replicated file service.
//!
//! To run files against a *fleet* of services, something has to decide
//! which service owns which path, and keep that decision stable as the
//! fleet changes. [`HashRing`] is the consistent-hash answer: each member
//! sits at [`HashRing::DEFAULT_VNODES`] points, a key belongs to the first
//! point at or after its hash, and a join of an `N+1`-th member moves
//! about `1/N` of the keys, never a full reshuffle. [`Placement`] adds a
//! replication factor — `owners(path)` is the primary, then the replicas —
//! and [`Fleet`] is a placement behind one lock, shared by every endpoint
//! placed over it.
//!
//! Hashing is an in-tree FNV-1a, so placement is bit-identical across runs
//! and seeds. A ring is one sorted `Vec` of points over the sorted member
//! names, a pure function of them. A placement holds its ring, and a
//! membership change steps to the next one through a per-thread memo
//! (`step` below), so a thread builds each step once and a session that
//! repeats a membership's steps allocates nothing.

use std::cell::RefCell;
use std::sync::Arc;

use afs_telemetry::ClusterGauges;
use parking_lot::RwLock;

use crate::net::{Members, Registrations};

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
    /// Where each member was last found in a network's registry: a ring
    /// is built once and walked by every message its placement sends.
    registrations: Registrations,
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
            registrations: Registrations::default(),
        }
    }

    /// The member names, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
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
        self.registrations = Registrations::new(self.nodes.len());
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
        self.registrations = Registrations::new(self.nodes.len());
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
}

/// Most membership steps [`step`] remembers, per thread, before it starts
/// over. A step taken is remembered with its reverse, so a member that
/// leaves and rejoins steps back onto the ring it left.
const REMEMBERED_STEPS: usize = 32;

/// One membership step: `name` added to (or removed from) the ring `from`
/// (`None`: the empty one) gives the ring `to`.
struct Step {
    from: Option<Arc<HashRing>>,
    add: bool,
    name: Box<str>,
    to: Option<Arc<HashRing>>,
}

thread_local! {
    /// Every step this thread took and still remembers. Per thread, so two
    /// clients opening sessions on two threads share no lock and no
    /// reference count: each builds the fleet's rings once. A step holds
    /// its rings strongly, so no other ring can take `from`'s address
    /// while the step is remembered; and a workload of short sessions
    /// drops each session before it opens the next, so a memo of `Weak`s
    /// would find its rings dead and rebuild them at most opens.
    static STEPS: RefCell<Vec<Step>> = const { RefCell::new(Vec::new()) };
}

/// The ring after adding (`add`) or removing `name` from `from`, at
/// [`HashRing::DEFAULT_VNODES`] points a member: built on the thread's
/// first such step from that very ring, the same allocation on every one
/// after it. A duplicate add or an unknown removal is no step.
fn step(from: Option<&Arc<HashRing>>, name: &str, add: bool) -> Option<Arc<HashRing>> {
    let same = |ring: &Option<Arc<HashRing>>| match (ring, from) {
        (Some(ring), Some(from)) => Arc::ptr_eq(ring, from),
        (None, None) => true,
        _ => false,
    };
    STEPS.with_borrow_mut(|steps| {
        let known = steps
            .iter()
            .find(|step| same(&step.from) && step.add == add && *step.name == *name);
        if let Some(step) = known {
            return step.to.clone();
        }
        let nodes = from.map_or(&[][..], |ring| ring.nodes());
        if position(nodes, name).is_ok() == add {
            return from.cloned();
        }
        let mut ring = from.map_or_else(
            || HashRing::new(HashRing::DEFAULT_VNODES),
            |from| HashRing::clone(from),
        );
        if add {
            ring.add_node(name);
        } else {
            ring.remove_node(name);
        }
        let to = (!ring.nodes.is_empty()).then(|| Arc::new(ring));
        if steps.len() + 2 > REMEMBERED_STEPS {
            steps.clear();
        }
        let name = Box::<str>::from(name);
        // The way back, unless it starts from the empty ring: no ring is
        // new there, so the memo may hold that step already.
        if let Some(back) = &to {
            steps.push(Step {
                from: Some(Arc::clone(back)),
                add: !add,
                name: name.clone(),
                to: from.cloned(),
            });
        }
        steps.push(Step {
            from: from.cloned(),
            add,
            name,
            to: to.clone(),
        });
        to
    })
}

/// Replica-aware placement: a membership, its [`HashRing`] and a
/// replication factor.
///
/// `owners(path)` answers the cluster client's routing question — writes
/// go to the first entry (the primary) and replicate to the rest; reads
/// try the entries in order. A placement holds its membership's ring,
/// built once per thread: every placement that took the same membership
/// steps on this thread holds the same one.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The members' ring; `None` while there are none, so an empty
    /// placement allocates nothing.
    ring: Option<Arc<HashRing>>,
    copies: usize,
}

impl Placement {
    /// Creates an empty placement keeping `copies` total copies of every
    /// file (primary included; clamped to at least 1), with the default
    /// virtual-node count.
    pub fn new(copies: usize) -> Placement {
        Placement {
            ring: None,
            copies: copies.max(1),
        }
    }

    /// Total copies kept per file (primary included).
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// The member names, sorted.
    pub fn nodes(&self) -> &[String] {
        self.ring.as_deref().map_or(&[], HashRing::nodes)
    }

    /// The members as a walk's targets.
    pub(crate) fn members(&self) -> Members<'_> {
        self.ring.as_deref().map_or(Members::NONE, |ring| {
            Members::new(&ring.nodes, &ring.registrations)
        })
    }

    /// Adds a member service to the fleet; a duplicate name is a no-op.
    pub fn add_node(&mut self, name: &str) {
        self.ring = step(self.ring.as_ref(), name, true);
    }

    /// Removes a member service from the fleet; an unknown name is a
    /// no-op.
    pub fn remove_node(&mut self, name: &str) {
        self.ring = step(self.ring.as_ref(), name, false);
    }

    /// `[primary, replica, ...]` for `path` — distinct nodes, at most
    /// [`copies`](Placement::copies), deterministic for a given
    /// membership.
    pub fn owners(&self, path: &str) -> Vec<String> {
        self.ring
            .as_ref()
            .map_or_else(Vec::new, |ring| ring.owners(path, self.copies))
    }

    /// [`owners`](Placement::owners) without naming anybody: fills `out`
    /// from the front with the owners' indices into
    /// [`nodes`](Placement::nodes) — at most `out.len()` of them, so a
    /// caller after every owner passes [`copies`](Placement::copies)
    /// slots — and returns the filled part. Allocates nothing.
    pub fn owner_indices<'a>(&self, path: &str, out: &'a mut [usize]) -> &'a [usize] {
        let want = out.len().min(self.copies);
        match &self.ring {
            Some(ring) => ring.owner_indices(path, &mut out[..want]),
            None => &out[..0],
        }
    }
}

/// A replicated service's membership: one [`Placement`] behind one lock,
/// shared by reference — a clone is the same fleet. An op walks its owners
/// under the read side and a change takes the write side, so a change
/// lands between ops: an op sees the membership before it or after it.
#[derive(Debug, Clone)]
pub struct Fleet(pub(crate) Arc<RwLock<Membership>>);

/// A fleet's placement, and where its changes are counted: in the gauges
/// [`Fleet::count_in`] attached, or until then in `uncounted`.
#[derive(Debug)]
pub(crate) struct Membership {
    pub(crate) placement: Placement,
    gauges: Option<Arc<ClusterGauges>>,
    uncounted: u64,
}

impl Fleet {
    /// An empty fleet keeping `copies` copies of every file.
    pub fn new(copies: usize) -> Fleet {
        Fleet(Arc::new(RwLock::new(Membership {
            placement: Placement::new(copies),
            gauges: None,
            uncounted: 0,
        })))
    }

    /// Adds a member service (at most `1/N` of keys move).
    pub fn add_node(&self, name: &str) {
        self.change(|placement| placement.add_node(name));
    }

    /// Removes a member service.
    pub fn remove_node(&self, name: &str) {
        self.change(|placement| placement.remove_node(name));
    }

    fn change(&self, edit: impl FnOnce(&mut Placement)) {
        let mut membership = self.0.write();
        edit(&mut membership.placement);
        let nodes = membership.placement.nodes().len() as u64;
        match &membership.gauges {
            Some(gauges) => gauges.membership(nodes, 1),
            None => membership.uncounted += 1,
        }
    }

    /// Counts the membership changes from now on in `gauges`, and with
    /// `earlier` also the ones made since the fleet last had gauges.
    pub fn count_in(&self, gauges: &Arc<ClusterGauges>, earlier: bool) {
        let mut membership = self.0.write();
        let uncounted = std::mem::take(&mut membership.uncounted);
        if earlier && uncounted > 0 {
            gauges.membership(membership.placement.nodes().len() as u64, uncounted);
        }
        membership.gauges = Some(Arc::clone(gauges));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    impl HashRing {
        /// The single owner of `key`, when the ring is non-empty.
        fn primary(&self, key: &str) -> Option<String> {
            self.owners(key, 1).into_iter().next()
        }
    }

    impl Placement {
        /// The ring of a placement with members.
        fn ring(&self) -> &Arc<HashRing> {
            self.ring.as_ref().expect("a placement with members")
        }
    }

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

    fn placed(copies: usize, members: &[&str]) -> Placement {
        let mut placement = Placement::new(copies);
        for name in members {
            placement.add_node(name);
        }
        placement
    }

    #[test]
    fn placements_of_one_membership_share_one_ring() {
        let a = placed(2, &["share-b", "share-a", "share-c"]);
        let mut b = placed(3, &["share-b", "share-a", "share-c", "share-a"]);
        assert!(Arc::ptr_eq(a.ring(), b.ring()), "same steps, same ring");
        assert_eq!(a.nodes(), ["share-a", "share-b", "share-c"]);
        // A membership change steps to another ring and leaves a clone
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
        // Back at the first membership, back on its ring; and forward
        // again, onto the ring the first step built.
        let ahead = Arc::clone(b.ring());
        b.remove_node("share-d");
        assert!(Arc::ptr_eq(a.ring(), b.ring()));
        b.add_node("share-d");
        assert!(Arc::ptr_eq(&ahead, b.ring()));
        // Every placement gone, and the next one still finds it built.
        let ring = Arc::downgrade(a.ring());
        drop((a, b, before, ahead));
        let again = placed(1, &["share-b", "share-a", "share-c"]);
        let kept = ring.upgrade().expect("the memo keeps its rings");
        assert!(Arc::ptr_eq(again.ring(), &kept));
        // No member, no ring: an empty placement owns nothing.
        let mut gone = placed(2, &["share-a"]);
        gone.remove_node("share-a");
        assert!(gone.ring.is_none() && gone.nodes().is_empty());
        assert!(gone.owners("/x").is_empty());
        assert!(gone.owner_indices("/x", &mut [0; 2]).is_empty());
    }

    #[test]
    fn two_add_orders_of_one_membership_place_alike() {
        let members = ["order-a", "order-b", "order-c", "order-d", "order-e"];
        let forward = placed(3, &members);
        let mut reversed = members;
        reversed.reverse();
        let backward = placed(3, &reversed);
        assert_eq!(forward.nodes(), backward.nodes());
        for key in keys(1_000) {
            assert_eq!(forward.owners(&key), backward.owners(&key), "{key}");
        }
    }

    #[test]
    fn each_thread_builds_the_fleets_ring_once_for_itself() {
        let members = ["own-a", "own-b", "own-c"];
        let here = placed(2, &members);
        let there = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let first = placed(2, &members);
                    let again = placed(1, &members);
                    assert!(Arc::ptr_eq(first.ring(), again.ring()));
                    Arc::clone(first.ring())
                })
                .join()
                .expect("other thread")
        });
        // Two threads' sessions share no ring, so opening and dropping
        // them moves no reference count the other thread moves.
        assert!(!Arc::ptr_eq(here.ring(), &there));
        for key in keys(50) {
            assert_eq!(here.owners(&key), there.owners(&key, 2));
        }
    }

    #[test]
    fn more_memberships_than_the_memo_holds_still_place_correctly() {
        let keys = keys(40);
        for _round in 0..2 {
            for size in 1..=REMEMBERED_STEPS + 3 {
                let members: Vec<String> = (0..size).map(|i| format!("many-{i}")).collect();
                let mut placement = Placement::new(2);
                let mut ring = HashRing::new(HashRing::DEFAULT_VNODES);
                for name in &members {
                    placement.add_node(name);
                    ring.add_node(name);
                    assert!(STEPS.with_borrow(Vec::len) <= REMEMBERED_STEPS);
                }
                for key in &keys {
                    assert_eq!(placement.owners(key), ring.owners(key, 2), "{size} {key}");
                }
                // Leaving one at a time walks back through the memo, or
                // past what it still holds.
                for name in members.iter().rev().skip(1) {
                    placement.remove_node(name);
                    ring.remove_node(name);
                }
                for key in &keys {
                    assert_eq!(placement.owners(key), ring.owners(key, 2), "{size} {key}");
                }
                assert!(STEPS.with_borrow(Vec::len) <= REMEMBERED_STEPS);
            }
        }
    }

    #[test]
    fn the_index_walk_names_the_same_owners() {
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
        let mut placement = Placement::new(3);
        assert_eq!(placement.copies(), 3);
        for i in 0..5 {
            placement.add_node(&format!("files-{i}"));
        }
        let owners = placement.owners("/data/x.af");
        assert_eq!(owners.len(), 3);
        assert_eq!(
            owners[0],
            placement.ring().primary("/data/x.af").expect("primary")
        );
        placement.remove_node(&owners[0]);
        assert_eq!(placement.nodes().len(), 4);
        assert_ne!(placement.owners("/data/x.af")[0], owners[0]);
    }
}
