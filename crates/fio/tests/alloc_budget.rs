//! Allocation budgets of the small runs every pipeline pass repeats: the
//! §V-B validation run (`run_jobs`) and the generated-host build
//! (`TopoGen::build_routed`). A counting global allocator tallies the
//! calls made on the test's own thread, so tests running beside it do not
//! move the counts. Each budget is the measured count with 2 of slack:
//! per-call churn that creeps back in fails here first. Before the
//! churn was cut the same calls made 60 (1 x 4 run), 72 (2 x 2 run), 28
//! (8-node build) and 89 (32-node build) allocations.

use numa_fabric::calibration::dl585_fabric;
use numa_fabric::Fabric;
use numa_fio::{run_jobs, JobSpec};
use numa_iodev::NicOp;
use numa_topology::hostgen::TopoGen;
use numa_topology::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: an allocation made while the thread tears down its
    // locals goes uncounted instead of panicking.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the tally touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) `f` makes on
/// this thread; the result is dropped outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = CALLS.with(Cell::get);
    let out = f();
    let after = CALLS.with(Cell::get);
    drop(out);
    after - before
}

/// `allocations(f)` on a warm second call: lazily built state (thread
/// locals, statics) is paid by the first call, not by each pass.
fn steady_allocations<T>(mut f: impl FnMut() -> T) -> u64 {
    drop(f());
    allocations(f)
}

fn assert_budget(what: &str, count: u64, budget: u64) {
    assert!(
        count.abs_diff(budget) <= 2,
        "{what}: {count} allocations, budget {budget} +- 2"
    );
}

/// Seed of the sampled host the validation run uses: 8 single-die
/// sockets, fully meshed, one NIC and two SSDs.
const RUN_HOST: u64 = 2;
/// Seed of a sampled 8-node host: 4 sockets of 2 dies, fully meshed,
/// one NIC, no SSD (the DL585's shape).
const HOST8: u64 = 39;
/// Seed of a sampled 32-node host: 8 sockets of 4 dies on a ladder.
const HOST32: u64 = 7;

fn sampled_fabric(seed: u64) -> Fabric {
    let (topo, routes) = TopoGen::sample("gen", seed)
        .build_routed()
        .expect("sampled host builds");
    Fabric::builder(topo, routes).dma_hop_decay(0.06).build()
}

#[test]
fn nic_run_on_a_sampled_host_stays_in_budget() {
    let fabric = sampled_fabric(RUN_HOST);
    let jobs = [JobSpec::nic(NicOp::RdmaWrite, NodeId(1))
        .numjobs(4)
        .size_gbytes(4.0)];
    let count = steady_allocations(|| run_jobs(&fabric, &jobs).expect("run"));
    assert_budget("1 x 4 RDMA_WRITE run, 8-node sampled host", count, 30);
}

#[test]
fn two_job_run_on_the_dl585_stays_in_budget() {
    let fabric = dl585_fabric();
    let jobs = [
        JobSpec::nic(NicOp::RdmaWrite, NodeId(7))
            .numjobs(2)
            .size_gbytes(4.0),
        JobSpec::nic(NicOp::RdmaWrite, NodeId(2))
            .numjobs(2)
            .size_gbytes(4.0),
    ];
    let count = steady_allocations(|| run_jobs(&fabric, &jobs).expect("run"));
    assert_budget("2 x 2 RDMA_WRITE run, DL585", count, 32);
}

#[test]
fn sampled_host_builds_stay_in_budget() {
    for (seed, nodes, budget) in [(HOST8, 8, 12), (HOST32, 32, 13)] {
        let gen = TopoGen::sample("gen", seed);
        assert_eq!(usize::from(gen.spec().num_nodes()), nodes, "seed {seed}");
        let count = steady_allocations(|| gen.build_routed().expect("sampled host builds"));
        assert_budget(&format!("{nodes}-node build_routed"), count, budget);
    }
}
