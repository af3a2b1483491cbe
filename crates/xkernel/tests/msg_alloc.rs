//! Host heap allocations of the message operations the per-call path
//! uses, counted with a counting global allocator: reserving headroom,
//! cutting off a tail that is empty or thrown away, and recycling front
//! buffers through the per-thread free list all stay off `malloc`.

// A counting `GlobalAlloc` is the only way to observe allocations, and the
// trait is unsafe by definition; this is test-only code delegating straight
// to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xkernel::msg::{HeaderPolicy, Message};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread (tests on other threads do not count).
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

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn empty_and_discarded_tails_allocate_nothing() {
    let mut m = Message::from_user(vec![7; 64]);
    let n = allocs_during(|| {
        let tail = m.split_off(64).unwrap();
        assert!(tail.is_empty());
    });
    assert_eq!(n, 0, "split_off(len) builds an empty tail for free");
    // Cutting inside the one segment, and at a segment boundary.
    let n = allocs_during(|| m.truncate(10));
    assert_eq!(n, 0, "truncate builds no tail at all");
    let mut two = Message::concat([
        Message::from_user(vec![1; 8]),
        Message::from_user(vec![2; 8]),
    ]);
    let n = allocs_during(|| two.truncate(8));
    assert_eq!(n, 0);
    assert_eq!(m.to_vec(), vec![7; 10]);
    assert_eq!(two.to_vec(), vec![1; 8]);
}

#[test]
fn a_warm_request_reply_cycle_never_calls_malloc() {
    // The null call's message life: an empty request and an empty reply,
    // each with headers pushed, a retained copy, then everything dropped.
    let cycle = || {
        let mut request = Message::empty();
        request.push_header(&[1; 4]);
        let retained = request.clone();
        request.push_header(&[2; 36]);
        request.push_header(&[3; 14]);
        let _ = request.pop_header(54).unwrap();
        let mut reply = Message::empty();
        reply.push_header(&[4; 36]);
        drop((request, retained, reply));
    };
    cycle(); // Fills the free list.
    assert_eq!(allocs_during(cycle), 0);
    // Reserving headroom takes nothing, whatever its size.
    let n = allocs_during(|| {
        let _ = Message::empty_with(HeaderPolicy::Headroom { headroom: 4096 });
    });
    assert_eq!(n, 0);
}
