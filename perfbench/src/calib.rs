//! Host-speed calibration.
//!
//! On a shared host the speed of this process moves by 10–30% in phases of
//! tens of seconds as other tenants come and go, which swamps the program's
//! own changes. Each round is therefore bracketed by runs of a fixed kernel
//! of the kinds of work the simulator does (a binary-heap queue, hash-map
//! inserts and removes, short-lived heap buffers). The kernel is the
//! benchmark's own code, so a change to the program cannot move it; its
//! time tells how fast the host ran around that round.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, splitmix};

/// The kernel's time on the reference host. A calibrated second is a host
/// second scaled by `NOMINAL_S / kernel time`, so on a host that runs the
/// kernel in `NOMINAL_S` the two are equal.
pub const NOMINAL_S: f64 = 0.010;

/// Kernel runs before and after each round.
const RUNS: usize = 3;

/// One run of the kernel; returns its host seconds.
fn kernel() -> f64 {
    let t = Instant::now();
    let mut queue = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    let mut x = 1u64;
    for i in 0..25_000u64 {
        x = splitmix(x);
        queue.push(Reverse(x));
        if queue.len() > 4096 {
            queue.pop();
        }
        map.insert(x & 0xffff, i);
        map.remove(&((x >> 16) & 0xffff));
        let mut buf = vec![0u8; 64 + (x & 2047) as usize];
        buf[(x & 63) as usize] = x as u8;
        bufs.push(buf);
        if bufs.len() > 512 {
            bufs.swap_remove((x % 512) as usize);
        }
    }
    black_box((&queue, &map, &bufs));
    t.elapsed().as_secs_f64()
}

/// Host kernel times around one round: call [`Bracket::open`] before the
/// round and [`Bracket::speed`] after it.
pub struct Bracket(Vec<f64>);

impl Bracket {
    /// Runs the kernel before the round.
    pub fn open() -> Bracket {
        Bracket((0..RUNS).map(|_| kernel()).collect())
    }

    /// Runs the kernel after the round and returns the host's speed over
    /// it relative to the reference host: `NOMINAL_S` over the median
    /// kernel time. A host-time duration times this is calibrated seconds;
    /// a rate divided by it is per calibrated second.
    pub fn speed(mut self) -> f64 {
        self.0.extend((0..RUNS).map(|_| kernel()));
        NOMINAL_S / median(&self.0)
    }
}
