//! Small measurement helpers: a fixed-size latency histogram, medians,
//! a digest, and the process's peak resident set.

/// Per-call host latencies at 1 ns resolution. The bucket array has a fixed
/// size, so the benchmark's own memory does not grow with the number of
/// calls a faster program completes; the rare call slower than the array
/// covers is kept exactly in a side list.
pub struct LatencyHist {
    buckets: Vec<u32>,
    over: Vec<u64>,
    count: u64,
}

const BUCKETS: usize = 1 << 18;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: vec![0; BUCKETS],
            over: Vec::new(),
            count: 0,
        }
    }
}

impl LatencyHist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut(ns as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
    }

    /// The smallest sample with at least `q` of all samples at or below it.
    pub fn quantile(&mut self, q: f64) -> u64 {
        assert!(self.count > 0, "quantile of an empty histogram");
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &n) in self.buckets.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return ns as u64;
            }
        }
        self.over.sort_unstable();
        self.over[(rank - seen - 1) as usize]
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of integer counts.
pub fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// The `q` quantile of `v` by linear interpolation between closest ranks.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// FNV-1a over `text`: the correctness digest of a round's simulated
/// results.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Splitmix64: derives every generated input from the workload seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
