//! Spans recorded by the traced run, from the benchmark's own code around
//! its calls into each layer. Spans stay in memory until [`write_spans`]
//! at exit.
//!
//! A span has a name, start and end (host ns since the first span), the id
//! of the span that caused it, and the allocation counts of
//! [`crate::count_alloc`] over its interval. A `call` span's id is also the
//! request's id; the `server.proc` span the request causes names it as its
//! parent.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use crate::count_alloc;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the span covers (`call`, `server.proc`, `xload.measure`, ...).
    pub name: &'static str,
    /// Unique within the run; for `call`, the request id.
    pub id: u64,
    /// The span that caused this one (0 for none).
    pub parent: u64,
    /// Which stack or configuration the span ran on (index into the
    /// workload's stack list).
    pub tag: u32,
    /// Host ns since the run's first span.
    pub start: u64,
    /// Host ns since the run's first span.
    pub end: u64,
    /// Allocations made during the span.
    pub allocs: u64,
    /// Bytes allocated during the span.
    pub bytes: u64,
}

impl Span {
    /// Host ns from start to end.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    tag: u32,
    start: u64,
    allocs: u64,
    bytes: u64,
}

impl Open {
    /// This span's id, for children to name as parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static NEXT_ID: Cell<u64> = const { Cell::new(1) };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts a span. Reads the clock last, so the span's time excludes this
/// bookkeeping.
pub fn open(name: &'static str, parent: u64, tag: u32) -> Open {
    let id = NEXT_ID.with(|n| {
        let id = n.get();
        n.set(id + 1);
        id
    });
    let (allocs, bytes) = count_alloc::counts();
    Open {
        name,
        id,
        parent,
        tag,
        allocs,
        bytes,
        start: now_ns(),
    }
}

/// Ends a span and keeps it. Reads the clock and counters first, so the
/// push into the span buffer is outside the span.
pub fn close(o: Open) -> Span {
    let end = now_ns();
    let (allocs, bytes) = count_alloc::counts();
    let span = Span {
        name: o.name,
        id: o.id,
        parent: o.parent,
        tag: o.tag,
        start: o.start,
        end,
        allocs: allocs - o.allocs,
        bytes: bytes - o.bytes,
    };
    SPANS.with(|s| s.borrow_mut().push(span));
    span
}

/// Makes room for `n` more spans, so recording them inside a measured
/// interval never allocates.
pub fn reserve(n: usize) {
    SPANS.with(|s| s.borrow_mut().reserve(n));
}

/// Sets the span that server-side spans opened from now on belong to.
pub fn set_current(id: u64) {
    CURRENT.with(|c| c.set(id));
}

/// The span set by [`set_current`].
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Every span recorded so far, in the order they ended.
pub fn spans() -> Vec<Span> {
    SPANS.with(|s| s.borrow().clone())
}

/// Writes every span as CSV (`name,id,parent,tag,start_ns,end_ns,allocs,bytes`).
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,id,parent,tag,start_ns,end_ns,allocs,bytes")?;
    for s in spans() {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            s.name, s.id, s.parent, s.tag, s.start, s.end, s.allocs, s.bytes
        )?;
    }
    out.flush()
}
