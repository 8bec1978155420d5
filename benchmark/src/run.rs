//! Running a rig: barrier-synchronised slices on pinned client threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use afs_sim::clock;

use crate::host::{self, ProcessUsage, Yardstick};
use crate::spec::HOST_SAMPLE_STRIDE;
use crate::stats::{self, Slice};
use crate::workloads::{Recorder, Rig};

/// How long a leg runs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Exactly this many slices: a fixed op count, so every virtual
    /// number repeats.
    Slices(usize),
    /// At least this many slices, then until the deadline passes.
    Deadline(usize, Instant),
}

/// One leg's plan.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Ops per client per slice.
    pub slice_ops: u64,
    /// When to stop.
    pub stop: Stop,
    /// Keep every sampled host latency and every op's virtual latency
    /// (fixed-count legs). A deadline leg keeps neither beyond the
    /// slice it is in, so its memory does not grow with its length and
    /// `host_peak_rss_mb` stays the program's.
    pub keep_samples: bool,
    /// Open an `app.op` seam span per op.
    pub traced: bool,
}

/// What a leg measured.
#[derive(Debug, Default)]
pub struct Leg {
    /// One entry per slice: all clients' ops over the common window.
    pub slices: Vec<Slice>,
    /// One recorder per client.
    pub recorders: Vec<Recorder>,
}

impl Leg {
    /// Appends what a later leg of the same phase measured.
    pub fn absorb(&mut self, later: Leg) {
        self.slices.extend(later.slices);
        self.recorders.extend(later.recorders);
    }

    /// Ops attempted across clients.
    pub fn attempted(&self) -> u64 {
        self.recorders.iter().map(|r| r.attempted).sum()
    }

    /// Ops failed across clients.
    pub fn failed(&self) -> u64 {
        self.recorders.iter().map(|r| r.failed).sum()
    }

    /// Median slice rate, ops per second of reference-core time.
    pub fn ref_ops_per_s(&self) -> f64 {
        stats::median_of_slices(&self.slices, Slice::ref_rate)
    }

    /// Every sampled host latency, ascending.
    pub fn host_latencies_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .recorders
            .iter()
            .flat_map(|r| r.host_lat_ns.iter().map(|&ns| u64::from(ns)))
            .collect();
        all.sort_unstable();
        all
    }

    /// Every op's virtual latency, ascending (fixed-count legs).
    pub fn sim_latencies_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .recorders
            .iter()
            .filter_map(|r| r.sim_lat_ns.as_ref())
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        all
    }

    /// Sum of every op's virtual ns.
    pub fn sim_total_ns(&self) -> u64 {
        self.recorders.iter().map(|r| r.sim_sum_ns).sum()
    }
}

/// Runs the first `clients` clients of `rig` through one leg. Client
/// `i` pins itself to `cpus[i % cpus.len()]`; every slice starts and
/// ends on a barrier, so a slice's wall time, CPU time and op count
/// all cover the same window, and every slice is followed by one
/// yardstick run.
pub fn run_leg(rig: &mut Rig, clients: usize, cpus: &[usize], plan: Plan) -> Leg {
    let start_line = Barrier::new(clients);
    let finish_line = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    // For preallocation: every sample of a fixed-count leg, one slice's
    // worth otherwise.
    let expected_ops = match plan.stop {
        Stop::Slices(n) if plan.keep_samples => plan.slice_ops * n as u64,
        _ => plan.slice_ops,
    };
    let sim_now = rig.sim_now.clone();
    // Per client: its recorder, its `(p50_ns, yardstick_ns)` of every
    // slice, the slices (client 0 only), and where its virtual clock
    // ended.
    type PerClient = (Recorder, Vec<(u64, u64)>, Vec<Slice>, u64);
    let per_client: Vec<PerClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .take(clients)
            .enumerate()
            .map(|(index, client)| {
                let (start_line, finish_line, stop) = (&start_line, &finish_line, &stop);
                let sim_start = sim_now[index];
                scope.spawn(move || {
                    if !cpus.is_empty() {
                        host::pin_current_thread(&[cpus[index % cpus.len()]]);
                    }
                    let _clock = clock::install(sim_start);
                    let mut rec =
                        Recorder::new(index, expected_ops, plan.keep_samples, plan.traced);
                    let mut yardstick = Yardstick::default();
                    let mut own = Vec::new();
                    let mut slices = Vec::new();
                    loop {
                        start_line.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let sampled_before = rec.host_lat_ns.len();
                        let usage_before = ProcessUsage::now();
                        let wall = Instant::now();
                        client.run(plan.slice_ops, &mut rec);
                        finish_line.wait();
                        let wall_ns = wall.elapsed().as_nanos() as u64;
                        let usage = ProcessUsage::now();
                        // Every client at once, each on its own CPU: the
                        // speed of the cores the slice just ran on.
                        let yardstick_ns = yardstick.run_ns();
                        let mut sampled: Vec<u64> = rec.host_lat_ns[sampled_before..]
                            .iter()
                            .map(|&ns| u64::from(ns))
                            .collect();
                        own.push((stats::percentile(&mut sampled, 50.0), yardstick_ns));
                        if !plan.keep_samples {
                            rec.host_lat_ns.truncate(sampled_before);
                        }
                        if index == 0 {
                            slices.push(Slice {
                                ops: plan.slice_ops * clients as u64,
                                wall_ns,
                                cpu_us: usage.cpu_us.saturating_sub(usage_before.cpu_us),
                                ctx_switches: usage
                                    .ctx_switches
                                    .saturating_sub(usage_before.ctx_switches),
                                // Filled in below, from every client.
                                p50_ns: 0,
                                yardstick_ns: 0,
                            });
                            let done = match plan.stop {
                                Stop::Slices(n) => slices.len() >= n,
                                Stop::Deadline(n, at) => slices.len() >= n && Instant::now() >= at,
                            };
                            // Published before this thread reaches the
                            // next start line, read by the others after
                            // they pass it.
                            stop.store(done, Ordering::SeqCst);
                        }
                    }
                    if !plan.keep_samples {
                        // The phase keeps every leg's recorder: hand the
                        // (emptied) sample buffer back now.
                        rec.host_lat_ns = Vec::new();
                    }
                    (rec, own, slices, clock::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut slices = Vec::new();
    let mut recorders = Vec::new();
    let mut own: Vec<Vec<(u64, u64)>> = Vec::new();
    for (index, (rec, client_own, client_slices, sim_end)) in per_client.into_iter().enumerate() {
        rig.sim_now[index] = sim_end;
        if index == 0 {
            slices = client_slices;
        }
        own.push(client_own);
        recorders.push(rec);
    }
    for (k, slice) in slices.iter_mut().enumerate() {
        let n = own.len() as u64;
        slice.p50_ns = own.iter().map(|c| c[k].0).sum::<u64>() / n;
        slice.yardstick_ns = own.iter().map(|c| c[k].1).sum::<u64>() / n;
    }
    debug_assert!(
        !plan.keep_samples
            || recorders
                .iter()
                .all(|r| r.host_lat_ns.len() as u64 >= r.attempted / HOST_SAMPLE_STRIDE)
    );
    Leg { slices, recorders }
}

/// Full read-back of everything the first `clients` clients wrote;
/// returns `(attempted, failed)`.
pub fn read_back(rig: &mut Rig, clients: usize) -> (u64, u64) {
    let _clock = clock::install(rig.sim_now.iter().copied().max().unwrap_or(0));
    let mut rec = Recorder::new(0, 0, false, false);
    for client in rig.clients.iter_mut().take(clients) {
        client.read_back(&mut rec);
    }
    (rec.attempted, rec.failed)
}
