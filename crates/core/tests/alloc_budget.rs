//! Allocation budget of the inline null call: after warm-up, one null RPC
//! on each paper stack makes at most a fixed number of heap allocations,
//! counted by a counting global allocator. The budgets are the measured
//! counts; they may be tightened as the hot path sheds allocations, never
//! raised.
#![allow(unsafe_code)] // the counting GlobalAlloc below; nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inet::testbed::{base_registry, two_hosts};
use xkernel::sim::SimConfig;
use xrpc::procs::NULL_PROC;
use xrpc::stacks::ALL_RPC_STACKS;

thread_local! {
    /// Allocations made by this thread (tests on other threads do not count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Most heap allocations one inline null call may make, per paper stack.
const BUDGET: [(&str, u64); 5] = [
    ("M_RPC-ETH", 17),
    ("M_RPC-IP", 19),
    ("M_RPC-VIP", 17),
    ("L_RPC-VIP", 18),
    ("L_RPC-VIPSIZE", 12),
];

const WARM_CALLS: u64 = 500;
const MEASURED_CALLS: u64 = 100;

#[test]
fn inline_null_call_stays_within_its_allocation_budget() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    for def in ALL_RPC_STACKS {
        let budget = BUDGET
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|&(_, k)| k)
            .unwrap_or_else(|| panic!("{}: no allocation budget", def.name));
        let tb = two_hosts(SimConfig::inline_mode(), &reg, def.graph).expect("testbed builds");
        xrpc::procs::register_standard(&tb.server, def.entry).expect("procedures register");
        let ctx = tb.sim.ctx(tb.client.host());
        let null_call = || {
            let reply = xrpc::call(&ctx, &tb.client, def.entry, tb.server_ip, NULL_PROC, vec![]);
            assert_eq!(reply.as_deref(), Ok(&[][..]), "{}: null call", def.name);
        };
        for _ in 0..WARM_CALLS {
            null_call();
        }
        let before = ALLOCS.with(Cell::get);
        for _ in 0..MEASURED_CALLS {
            null_call();
        }
        let total = ALLOCS.with(Cell::get) - before;
        assert_eq!(
            total % MEASURED_CALLS,
            0,
            "{}: every warm call allocates alike ({total} over {MEASURED_CALLS} calls)",
            def.name
        );
        let per_call = total / MEASURED_CALLS;
        assert!(
            per_call <= budget,
            "{}: {per_call} allocations per null call, budget {budget}",
            def.name
        );
    }
}
