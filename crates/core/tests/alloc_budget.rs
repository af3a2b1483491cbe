//! Allocation budgets of the null call: after warm-up, one null RPC on
//! each paper stack makes a fixed number of heap allocations, counted by a
//! counting global allocator, both inline (the protocols alone) and
//! scheduled (with the event queue, timers and processes). The budgets are
//! the measured counts; they may be tightened as the hot path sheds
//! allocations, never raised.
#![allow(unsafe_code)] // the counting GlobalAlloc below; nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

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
    ("M_RPC-ETH", 0),
    ("M_RPC-IP", 0),
    ("M_RPC-VIP", 0),
    ("L_RPC-VIP", 0),
    ("L_RPC-VIPSIZE", 0),
];

/// Heap allocations one scheduled null call makes, per paper stack. The
/// protocols make none; the rest is the engine's: a boxed wire-delivery
/// event per frame, the processes that run deliveries (a task and a
/// coroutine each), the reply-wait timer, and on L_RPC-VIP each FRAGMENT
/// send's discard timer.
const SCHEDULED_BUDGET: [(&str, u64); 5] = [
    ("M_RPC-ETH", 7),
    ("M_RPC-IP", 7),
    ("M_RPC-VIP", 7),
    ("L_RPC-VIP", 13),
    ("L_RPC-VIPSIZE", 7),
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

#[test]
fn scheduled_null_call_makes_exactly_its_allocation_budget() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    for def in ALL_RPC_STACKS {
        let budget = SCHEDULED_BUDGET
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|&(_, k)| k)
            .unwrap_or_else(|| panic!("{}: no scheduled allocation budget", def.name));
        let tb = two_hosts(SimConfig::scheduled(), &reg, def.graph).expect("testbed builds");
        xrpc::procs::register_standard(&tb.server, def.entry).expect("procedures register");
        let measured = Rc::new(Cell::new(None));
        let out = Rc::clone(&measured);
        let (entry, server_ip) = (def.entry, tb.server_ip);
        tb.sim.spawn(tb.client.host(), move |ctx| {
            let k = ctx.kernel();
            let null_call = || {
                let reply = xrpc::call(ctx, k, entry, server_ip, NULL_PROC, vec![]);
                assert_eq!(reply.as_deref(), Ok(&[][..]), "{entry}: null call");
            };
            for _ in 0..WARM_CALLS {
                null_call();
            }
            let before = ALLOCS.with(Cell::get);
            for _ in 0..MEASURED_CALLS {
                null_call();
            }
            out.set(Some(ALLOCS.with(Cell::get) - before));
        });
        assert_eq!(tb.sim.run_until_idle().blocked, 0, "{}: drained", def.name);
        let total = measured.get().expect("client process finished");
        assert_eq!(
            total % MEASURED_CALLS,
            0,
            "{}: every warm call allocates alike ({total} over {MEASURED_CALLS} calls)",
            def.name
        );
        assert_eq!(
            total / MEASURED_CALLS,
            budget,
            "{}: allocations per scheduled null call",
            def.name
        );
    }
}
