//! Proof that xcheck is free when disabled: with checking off, the
//! semaphore hot path (`p`/`v` fast paths, the instrumentation points the
//! happens-before checker hooks) performs **zero heap allocations** —
//! measured with a counting global allocator — and leaves no report
//! behind. With checking on, the same operations populate vector clocks
//! and happens-before edges. The schedule fingerprint is folded
//! unconditionally, so identical runs hash identically with or without
//! the checker.

// A counting `GlobalAlloc` is the only way to observe allocations, and the
// trait is unsafe by definition; this is test-only code delegating straight
// to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread: the simulation runs on the test's
    /// own thread, and tests running in parallel must not count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs a hot loop of non-blocking V/P pairs in a shepherd process and
/// returns the number of heap allocations the measured loop performed.
fn allocs_for_sema_loop(cfg: SimConfig) -> (u64, Sim) {
    let sim = Sim::new(cfg);
    let kernel = Kernel::new(&sim, "host-a");
    let host = kernel.host();
    let out: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&out);
    sim.spawn(host, move |ctx| {
        let s = SharedSema::labeled(1, "hot");
        // Warm every lazy path (the checker's first deposit/join on a
        // semaphore may allocate legitimately when checking is on).
        for _ in 0..4 {
            s.v(ctx);
            s.p(ctx);
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..1_000 {
            s.v(ctx);
            s.p(ctx);
        }
        let after = ALLOCS.with(Cell::get);
        *o2.borrow_mut() = Some(after - before);
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let n = out.borrow_mut().take().expect("loop ran");
    (n, sim)
}

#[test]
fn disabled_checking_allocates_nothing_on_the_sema_hot_path() {
    let (allocs, sim) = allocs_for_sema_loop(SimConfig::scheduled());
    assert_eq!(
        allocs, 0,
        "with checking off, p/v fast paths must not touch the heap"
    );
    assert!(!sim.check_enabled());
    let report = sim.check_report();
    assert!(!report.enabled);
    assert_eq!(report.hb_edges, 0, "no edges with checking off");
    assert!(report.violations.is_empty());
}

#[test]
fn enabled_checking_tracks_clocks_and_edges() {
    let (_allocs, sim) = allocs_for_sema_loop(SimConfig::scheduled().with_check());
    assert!(sim.check_enabled());
    let report = sim.check_report();
    assert!(report.enabled);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        report.hb_edges >= 1_000,
        "every fast-path P joins the V's deposit: {}",
        report.hb_edges
    );
    assert!(report.lps >= 1, "the shepherd process is clocked");
    assert!(report.semas >= 1, "the hot semaphore is tracked");
}

/// The schedule fingerprint is independent of the checker: folded over
/// every executed event either way, and deterministic across runs.
#[test]
fn sched_hash_is_deterministic_and_checker_independent() {
    let (_a, plain1) = allocs_for_sema_loop(SimConfig::scheduled());
    let (_b, plain2) = allocs_for_sema_loop(SimConfig::scheduled());
    let (_c, checked) = allocs_for_sema_loop(SimConfig::scheduled().with_check());
    assert_ne!(plain1.sched_hash(), 0, "fingerprint is always folded");
    assert_eq!(plain1.sched_hash(), plain2.sched_hash());
    assert_eq!(plain1.sched_hash(), checked.sched_hash());
}
