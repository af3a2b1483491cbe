//! Proof that xtrace is free when disabled: with tracing off, the hot-path
//! instrumentation points (`charge_class`, `trace_note`, `enter_layer`)
//! perform **zero heap allocations** — measured with a counting global
//! allocator — and leave no events or ledger behind. With tracing on, the
//! same operations produce events and attributed cost.

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

/// Runs the instrumented hot-path operations in a shepherd process and
/// returns the number of heap allocations the measured loop performed.
fn allocs_for_hot_loop(cfg: SimConfig) -> (u64, Sim) {
    let sim = Sim::new(cfg);
    let kernel = Kernel::new(&sim, "host-a");
    let host = kernel.host();
    let out: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let o2 = Rc::clone(&out);
    sim.spawn(host, move |ctx| {
        // Warm every lazy path (first ring/span/ledger touch may allocate
        // legitimately when tracing is on).
        for _ in 0..4 {
            ctx.charge_class(OpClass::Compute, 5);
            ctx.trace_note("warm");
            let _g = ctx.enter_layer(ProtoId(0), EventKind::Push, 0);
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..1_000 {
            ctx.charge_class(OpClass::Compute, 3);
            ctx.trace_note("hot");
            let _g = ctx.enter_layer(ProtoId(0), EventKind::Push, 64);
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
fn disabled_tracing_allocates_nothing_on_the_hot_path() {
    let (allocs, sim) = allocs_for_hot_loop(SimConfig::scheduled());
    assert_eq!(
        allocs, 0,
        "with tracing off, charge/note/span must not touch the heap"
    );
    assert!(!sim.trace_enabled());
    assert!(sim.trace_events().is_empty(), "no events with tracing off");
    assert!(
        sim.cost_breakdown().is_empty(),
        "no ledger with tracing off"
    );
}

#[test]
fn enabled_tracing_records_events_and_attributes_cost() {
    let (_allocs, sim) = allocs_for_hot_loop(SimConfig::scheduled().with_trace());
    assert!(sim.trace_enabled());
    let events = sim.trace_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Note("hot"))),
        "notes recorded"
    );
    assert!(
        events.iter().any(|e| matches!(e.kind, EventKind::Push)),
        "span entries recorded"
    );
    let bd = sim.cost_breakdown();
    assert!(!bd.is_empty());
    // 1004 charges of 5/3 ns plus scheduler attribution; at minimum the
    // explicit compute charges are all there.
    assert!(
        bd.class_total(OpClass::Compute) >= 4 * 5 + 1_000 * 3,
        "compute charges attributed: {bd:?}"
    );
}
