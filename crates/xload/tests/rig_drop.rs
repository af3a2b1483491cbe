//! Dropped rigs are freed: building, using and dropping a two-host testbed
//! or a warmed and measured `LoadRig` twenty times leaves this thread's
//! live heap bytes where they were, measured with a counting global
//! allocator. A reference cycle between the simulator, its kernels, the
//! network and its NICs would leak every rig whole.

// A counting `GlobalAlloc` is the only way to observe allocations, and the
// trait is unsafe by definition; this is test-only code delegating straight
// to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inet::testbed::{base_registry, two_hosts};
use xkernel::sim::SimConfig;
use xload::{GenMode, LoadSpec, LoadStack, Topology};
use xrpc::procs::NULL_PROC;
use xrpc::stacks::ALL_RPC_STACKS;

struct CountingAlloc;

thread_local! {
    /// Bytes allocated and not yet freed by this thread. Every rig is built
    /// and dropped on the test's own thread; tests running in parallel on
    /// other threads do not count.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    LIVE.with(|l| l.set(l.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `build_and_drop` once to warm lazily initialized state, then twenty
/// times more, and asserts the live heap did not grow over those twenty.
fn assert_freed(what: &str, mut build_and_drop: impl FnMut()) {
    build_and_drop();
    let before = LIVE.with(Cell::get);
    for _ in 0..20 {
        build_and_drop();
    }
    let grown = LIVE.with(Cell::get) - before;
    assert!(
        grown <= 0,
        "{what}: {grown} bytes still live after 20 rigs were dropped"
    );
}

#[test]
fn dropped_two_host_rigs_are_freed() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    for def in ALL_RPC_STACKS {
        assert_freed(def.name, || {
            let tb = two_hosts(SimConfig::inline_mode(), &reg, def.graph).expect("testbed builds");
            xrpc::procs::register_standard(&tb.server, def.entry).expect("procedures register");
            let ctx = tb.sim.ctx(tb.client.host());
            let reply = xrpc::call(&ctx, &tb.client, def.entry, tb.server_ip, NULL_PROC, vec![]);
            assert_eq!(reply.as_deref(), Ok(&[][..]), "{}: null call", def.name);
        });
    }
}

#[test]
fn dropped_load_rigs_are_freed() {
    for stack in LoadStack::all() {
        let spec = LoadSpec {
            stack,
            topo: Topology::Segment { hosts: 4 },
            gen: GenMode::Open { rate_cps: 400 },
            duration_ns: 200_000_000,
            payload: 64,
            seed: 7,
            shepherds: 2,
            pending: 16,
            reject: false,
            trace: false,
        };
        assert_freed(stack.name(), || {
            let rig = spec.build_warm();
            let r = spec.measure(&rig);
            assert!(r.completed > 0, "{}: the window made calls", stack.name());
        });
    }
}
