//! Work counters for the simulator's per-test cost, exact for a fixed
//! seed: heap allocations per instance and per decoded journal record,
//! counted by this test binary's own allocator, and timer firings per
//! instance, read through an installed `ObsSink`. Wall clock cannot
//! resolve a 10 % change on a shared runner; these counts move only when
//! the code does.
//!
//! The bounds pin three changes. A read result is one shared `ReadView`
//! from the replica's cached snapshot to the trace, so a read allocates
//! only when a read path builds a fresh sequence. An agent cancels a
//! request's retry timer when the answer arrives, so answered requests
//! cost no timer firing. A journal record decodes each read view into one
//! allocation, not three.

use conprobe::harness::campaign::{run_instance, CampaignConfig};
use conprobe::harness::journal::{cell_id, completed_record_json, parse_record_payload};
use conprobe::harness::TestKind;
use conprobe::services::ServiceKind;
use conprobe::sim::{ObsSink, SimRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the blocks this thread allocates; the test harness runs tests on
/// threads of their own, so one test's count is its own work.
struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Reallocations: a `Vec` growing or shrinking in place or by a move.
    static RESIZES: Cell<u64> = const { Cell::new(0) };
}

fn count(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread being torn down has no slot left; its blocks are not a test's.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&BLOCKS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&BLOCKS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&RESIZES);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SEED: u64 = 7;
const INSTANCES: u32 = 20;

fn cell(service: ServiceKind) -> CampaignConfig {
    CampaignConfig::paper(service, TestKind::Test2, INSTANCES).with_seed(SEED)
}

/// Runs every instance of `config` on this thread, as a campaign worker
/// does, under the seeds a campaign derives.
fn run_cell(config: &CampaignConfig) {
    let root = SimRng::new(config.seed);
    for i in 0..config.tests {
        let run = run_instance(config, i, root.split_indexed("test", u64::from(i)).seed());
        assert!(run.outcome.is_ok_and(|r| r.completed), "instance {i} completes");
    }
}

/// Blocks allocated per instance of a Test 2 cell, warm: one instance runs
/// first so that one-time set-up is not counted.
fn blocks_per_instance(service: ServiceKind) -> u64 {
    let config = cell(service);
    run_cell(&CampaignConfig { tests: 1, ..config.clone() });
    let before = BLOCKS.with(Cell::get);
    run_cell(&config);
    (BLOCKS.with(Cell::get) - before) / u64::from(INSTANCES)
}

/// Timer firings per instance of a Test 2 cell.
fn timers_per_instance(service: ServiceKind) -> u64 {
    let mut config = cell(service);
    let sink = ObsSink::new();
    config.test.obs = Some(sink.clone());
    run_cell(&config);
    sink.metrics.counter("sim.timers").get() / u64::from(INSTANCES)
}

#[test]
fn a_read_allocates_only_the_views_a_read_path_builds() {
    // (service, bound). Google+ and FB Group serve a replica's cached
    // snapshot; before views were shared they took 558 and 460 blocks.
    // Feed's ranking and Quorum's merge build one view per read from the
    // shared snapshots; while Feed copied every stored post to rank it and
    // Quorum copied every replica's store to merge them, they took 613
    // and 671.
    // Blogger's one replica and PBFT's ordered log are bounded at the
    // counts they first measured.
    let cells = [
        (ServiceKind::GooglePlus, 350),
        (ServiceKind::FacebookGroup, 260),
        (ServiceKind::FacebookFeed, 495),
        (ServiceKind::Quorum, 494),
        (ServiceKind::Blogger, 103),
        (ServiceKind::Pbft, 347),
    ];
    let measured = cells.map(|(service, _)| blocks_per_instance(service));
    eprintln!("blocks per Test 2 instance, seed {SEED}: {measured:?}");
    for ((service, bound), blocks) in cells.into_iter().zip(measured) {
        assert!(blocks <= bound, "{service:?}: {blocks} blocks per instance > {bound}");
    }
}

#[test]
fn answered_requests_leave_no_retry_timer_to_fire() {
    let timers = timers_per_instance(ServiceKind::GooglePlus);
    eprintln!("sim.timers per Google+ Test 2 instance, seed {SEED}: {timers}");
    // 630 while every retry timer fired, answered or not.
    assert!(timers <= 460, "{timers} timer firings per instance");
}

/// Allocator calls (blocks and reallocations) per decoded Google+ Test 2
/// journal record, warm.
fn allocator_calls_per_decoded_record() -> u64 {
    let config = cell(ServiceKind::GooglePlus);
    let root = SimRng::new(config.seed);
    let cell = cell_id(ServiceKind::GooglePlus, TestKind::Test2);
    let payloads: Vec<String> = (0..4)
        .map(|i| {
            let seed = root.split_indexed("test", u64::from(i)).seed();
            let result = run_instance(&config, i, seed).outcome.expect("instance completes");
            completed_record_json(&cell, i, seed, &result)
        })
        .collect();
    drop(parse_record_payload(&payloads[0]).expect("a record decodes"));
    let calls = || BLOCKS.with(Cell::get) + RESIZES.with(Cell::get);
    let before = calls();
    for payload in &payloads {
        drop(parse_record_payload(payload).expect("a record decodes"));
    }
    (calls() - before) / payloads.len() as u64
}

#[test]
fn a_decoded_record_allocates_once_per_read_view() {
    let calls = allocator_calls_per_decoded_record();
    eprintln!("allocator calls per decoded Google+ Test 2 record, seed {SEED}: {calls}");
    // 561 while each of its 180 read views was a `Vec` grown by pushes,
    // shrunk to fit and copied into its shared slice.
    assert!(calls <= 207, "{calls} allocator calls per decoded record");
}
