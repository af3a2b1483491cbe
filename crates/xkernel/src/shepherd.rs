//! Shepherd-process pools for server-side RPC concurrency.
//!
//! The paper's Sprite RPC parks a pool of kernel "shepherd" processes on the
//! server; an arriving request is handed to a free shepherd so the interrupt
//! handler never runs user procedures. Our stacks historically ran every
//! handler inline in the delivering process — correct, but fully serialized
//! per host. This module gives any server protocol a configurable pool:
//! up to `workers` requests execute concurrently (in simulated time), up to
//! `pending` more wait in a bounded FIFO, and beyond that an explicit
//! overload policy applies ([`Overload::Drop`] or [`Overload::Reject`]).
//!
//! With `workers == 0` (the default) `submit` runs the job synchronously in
//! the caller's process — bit-identical to the historical behaviour, so
//! existing latency goldens are unperturbed. Pools never park processes on
//! semaphores: a worker is spawned per burst and exits when the queue
//! drains, which keeps `run_until_idle().blocked == 0` invariants intact.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::sim::{Ctx, Mode};
use crate::trace::OpClass;

/// A deferred unit of server work (one request's dispatch + reply).
pub type Job = Box<dyn FnOnce(&Ctx) + 'static>;

/// What to do with a request that finds both the pool and the queue full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overload {
    /// Silently discard; the client's retransmission machinery recovers.
    Drop,
    /// Send an explicit busy indication so the client can back off.
    Reject,
}

/// Pool shape and overload policy.
#[derive(Clone, Copy, Debug)]
pub struct ShepherdConfig {
    /// Concurrent worker processes. `0` disables the pool (synchronous).
    pub workers: usize,
    /// Bounded pending-queue capacity behind the workers.
    pub pending: usize,
    /// Policy once `workers` are busy and `pending` jobs wait.
    pub policy: Overload,
}

impl Default for ShepherdConfig {
    fn default() -> ShepherdConfig {
        ShepherdConfig {
            workers: 0,
            pending: 16,
            policy: Overload::Drop,
        }
    }
}

impl ShepherdConfig {
    /// Builds a config from graph-DSL style parameters; `workers == 0`
    /// keeps the protocol synchronous.
    pub fn from_params(workers: u64, pending: u64, policy: Option<&str>) -> ShepherdConfig {
        ShepherdConfig {
            workers: workers as usize,
            pending: pending as usize,
            policy: match policy {
                Some("reject") => Overload::Reject,
                _ => Overload::Drop,
            },
        }
    }
}

/// Monotonic pool counters (a snapshot; see [`Shepherds::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShepherdStats {
    /// Jobs offered to the pool.
    pub submitted: u64,
    /// Jobs actually executed (inline or by a worker).
    pub executed: u64,
    /// Jobs discarded by [`Overload::Drop`].
    pub dropped: u64,
    /// Jobs refused with a busy indication by [`Overload::Reject`].
    pub rejected: u64,
    /// High-water mark of the pending queue.
    pub peak_queue: u64,
    /// High-water mark of concurrently active workers.
    pub peak_workers: u64,
}

/// Outcome of [`Shepherds::submit`].
#[derive(Debug)]
pub enum Submitted {
    /// The job ran synchronously in the caller's process.
    Ran,
    /// The job was handed to (or queued for) a worker process.
    Accepted,
    /// Pool and queue were full; the caller must apply this policy.
    Overloaded(Overload),
}

struct PoolState {
    active: usize,
    queue: VecDeque<Job>,
}

/// A per-protocol shepherd pool.
pub struct Shepherds {
    cfg: ShepherdConfig,
    st: RefCell<PoolState>,
    submitted: Cell<u64>,
    executed: Cell<u64>,
    dropped: Cell<u64>,
    rejected: Cell<u64>,
    peak_queue: Cell<u64>,
    peak_workers: Cell<u64>,
}

impl Shepherds {
    /// Creates a pool with the given shape.
    pub fn new(cfg: ShepherdConfig) -> Rc<Shepherds> {
        Rc::new(Shepherds {
            cfg,
            st: RefCell::new(PoolState {
                active: 0,
                queue: VecDeque::new(),
            }),
            submitted: Cell::new(0),
            executed: Cell::new(0),
            dropped: Cell::new(0),
            rejected: Cell::new(0),
            peak_queue: Cell::new(0),
            peak_workers: Cell::new(0),
        })
    }

    /// The configured shape.
    pub fn config(&self) -> ShepherdConfig {
        self.cfg
    }

    /// Current pending-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.st.borrow().queue.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ShepherdStats {
        ShepherdStats {
            submitted: self.submitted.get(),
            executed: self.executed.get(),
            dropped: self.dropped.get(),
            rejected: self.rejected.get(),
            peak_queue: self.peak_queue.get(),
            peak_workers: self.peak_workers.get(),
        }
    }

    /// Overwrites the counters with `s` — whole-sim snapshot restore
    /// (capture is [`Shepherds::stats`]). Legal only at a quiescent
    /// instant, when no worker is active and the queue is empty; stray
    /// queued jobs are dropped.
    pub fn restore_stats(&self, s: ShepherdStats) {
        {
            let mut st = self.st.borrow_mut();
            debug_assert!(
                st.active == 0 && st.queue.is_empty(),
                "shepherd pool snapshot restore mid-burst (not quiescent)"
            );
            st.active = 0;
            st.queue.clear();
        }
        self.submitted.set(s.submitted);
        self.executed.set(s.executed);
        self.dropped.set(s.dropped);
        self.rejected.set(s.rejected);
        self.peak_queue.set(s.peak_queue);
        self.peak_workers.set(s.peak_workers);
    }

    /// Offers `job` to the pool. Synchronous configurations (and inline
    /// mode, which has no scheduler) run it immediately; otherwise it is
    /// dispatched to a worker, queued, or refused per the overload policy.
    /// On [`Submitted::Overloaded`] the caller owns the protocol response
    /// (the job has already been counted dropped/rejected).
    pub fn submit(self: &Rc<Shepherds>, ctx: &Ctx, job: Job) -> Submitted {
        self.submitted.set(self.submitted.get() + 1);
        if self.cfg.workers == 0 || ctx.mode() == Mode::Inline {
            self.executed.set(self.executed.get() + 1);
            job(ctx);
            return Submitted::Ran;
        }
        let mut st = self.st.borrow_mut();
        if st.active < self.cfg.workers {
            st.active += 1;
            self.peak_workers
                .set(self.peak_workers.get().max(st.active as u64));
            drop(st);
            // Interrupt-side handoff to a shepherd process.
            ctx.charge_class(OpClass::Dispatch, ctx.cost().dispatch);
            let pool = Rc::clone(self);
            ctx.spawn_on(ctx.host(), move |wctx| pool.worker(wctx, job));
            Submitted::Accepted
        } else if st.queue.len() < self.cfg.pending {
            st.queue.push_back(job);
            self.peak_queue
                .set(self.peak_queue.get().max(st.queue.len() as u64));
            drop(st);
            ctx.charge_class(OpClass::Dispatch, ctx.cost().dispatch);
            Submitted::Accepted
        } else {
            drop(st);
            match self.cfg.policy {
                Overload::Drop => self.dropped.set(self.dropped.get() + 1),
                Overload::Reject => self.rejected.set(self.rejected.get() + 1),
            };
            Submitted::Overloaded(self.cfg.policy)
        }
    }

    fn worker(self: Rc<Shepherds>, ctx: &Ctx, first: Job) {
        let mut job = first;
        loop {
            self.executed.set(self.executed.get() + 1);
            job(ctx);
            let next = {
                let mut st = self.st.borrow_mut();
                match st.queue.pop_front() {
                    Some(j) => Some(j),
                    None => {
                        st.active -= 1;
                        None
                    }
                }
            };
            match next {
                Some(j) => {
                    // Context switch to the next pending request.
                    ctx.charge_class(OpClass::Switch, ctx.cost().proc_switch);
                    job = j;
                }
                None => return,
            }
        }
    }
}
