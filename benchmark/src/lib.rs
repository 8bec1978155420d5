//! The repo's benchmark: seven whole-path workloads over the public
//! API of the Active Files stack, measured on two named clocks —
//! `host_*` (real time, CPU, memory of this process) and `sim.*`
//! (virtual time under `HardwareProfile::pentium_ii_300()`) — plus a
//! traced pass that attributes time to layers through bench-owned seam
//! wrappers. See `benchmark/README.md`.

pub mod bench;
pub mod host;
pub mod layers;
pub mod probes;
pub mod report;
pub mod run;
pub mod seams;
pub mod spec;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;
