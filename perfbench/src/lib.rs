//! Host-time benchmark of the x-kernel simulator.
//!
//! `perfbench` measures the end-to-end metrics of one workload with tracing
//! off; `perfbench-traced` runs the same workload with the counting
//! allocator installed and spans recorded around every call into a layer,
//! and reports the per-layer metrics. Both measure the simulator on the
//! host, not the Sun 3/75 it models: simulated (virtual-time) results
//! appear only in the correctness digest.
//!
//! A run repeats one round of its workload until `--seconds` have passed
//! (at least two rounds). Rounds repeat identical simulated work, so their
//! digests must agree; a run whose digests differ, whose simulator leaves a
//! process blocked, or that sees a wrong reply reports `correct: false`
//! and exits non-zero. End-to-end timings are in calibrated seconds, host
//! seconds scaled by the host's speed around each phase (see [`calib`]).

pub mod calib;
pub mod count_alloc;
pub mod inline;
pub mod sched;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inline::Kind;
use stats::{median, proc_status_bytes, quantile, LatencyHist};

/// Command-line arguments shared by both binaries.
pub struct Args {
    /// `null_rpc`, `bulk_16k`, `load_open` or `mclient`.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Host seconds to keep repeating rounds for (at least two rounds run).
    pub seconds: f64,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["null_rpc", "bulk_16k", "load_open", "mclient"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench[-traced] --workload <{}> --seed N --seconds S [--spans FILE]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

/// Parses the command line, exiting with status 2 on a malformed one.
pub fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || !args.seconds.is_finite() {
        usage();
    }
    args
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Every correctness check passed and every round's digest agreed.
    pub correct: bool,
    /// Simulated calls attempted in measured phases.
    pub attempted: u64,
    /// Simulated calls whose outcome failed a check: on `null_rpc` and
    /// `bulk_16k` a call that errored on the quiet wire, returned a wrong
    /// reply or sent a corrupt request; on `load_open` and `mclient` a call
    /// left neither completed nor failed, or counted as both.
    pub failed: u64,
    /// Simulated calls the simulated protocol itself reported failed, such
    /// as SUNRPC-UDP's timeouts on `load_open`. They are simulated results,
    /// which the digest checks, not failed operations; `completed_frac`
    /// reports them.
    pub sim_failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric value is not finite");
        self.metrics.push((name.into(), value, unit));
    }

    /// The result as the one-line JSON object the runner reads.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Runs rounds until `seconds` of host time have passed, at least two.
/// Returns the process's peak resident set, in MB, as it stood after the
/// second round: a fixed amount of work, so a faster program that fits
/// more rounds into the same seconds does not read as a bigger one.
fn rounds(seconds: f64, mut round: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut n = 0;
    let mut peak_rss_mb = 0.0;
    while n < 2 || start.elapsed().as_secs_f64() < seconds {
        round();
        n += 1;
        if n == 2 {
            peak_rss_mb = proc_status_bytes("VmHWM") as f64 / (1024.0 * 1024.0);
        }
    }
    peak_rss_mb
}

/// Calls per calibrated second over rounds that each made `calls / rounds`
/// calls in the given calibrated seconds: the median over rounds, as the
/// untraced `calls_per_s` is. The traced runs' rate, for the tracing
/// overhead.
fn traced_rate(calls: u64, calibrated_s: &[f64]) -> f64 {
    let per_round = calls as f64 / calibrated_s.len() as f64;
    median(
        &calibrated_s
            .iter()
            .map(|t| per_round / t)
            .collect::<Vec<_>>(),
    )
}

/// Checks that every digest equals the first and prints it.
fn digests_agree(workload: &str, digests: &[u64]) -> bool {
    let agree = digests.iter().all(|&d| d == digests[0]);
    println!(
        "digest {workload} {:016x} rounds={} agree={agree}",
        digests[0],
        digests.len()
    );
    agree
}

/// Per-round figures of an untraced run, in calibrated time (see
/// [`calib`]). The end-to-end metrics are their medians over rounds, so a
/// burst of interference moves one round, not the result.
#[derive(Default)]
struct Samples {
    calls_per_s: Vec<f64>,
    call_us_p50: Vec<f64>,
    call_us_p99: Vec<f64>,
    round_us: Vec<f64>,
    events_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    completed: u64,
    /// Host speed and uncalibrated calls per second of each round, printed
    /// beside the result.
    speed: Vec<f64>,
    host_calls_per_s: Vec<f64>,
}

impl Samples {
    /// Records a set-up that took `host_s` at host speed `speed`.
    fn setup(&mut self, host_s: f64, speed: f64) {
        self.setup_s.push(host_s * speed);
    }

    /// Records the round's measured phase: `calls` calls and `events`
    /// events in `host_s` at host speed `speed`.
    fn phase(&mut self, calls: u64, events: u64, host_s: f64, speed: f64) {
        let s = host_s * speed;
        self.calls_per_s.push(calls as f64 / s);
        self.events_per_s.push(events as f64 / s);
        self.speed.push(speed);
        self.host_calls_per_s.push(calls as f64 / host_s);
    }

    /// Records a scheduled-mode measured phase. A scheduled call has no
    /// host time of its own, because its events interleave with every other
    /// call's, so the phase's µs per call is the latency sample: the run
    /// reports the median and the 99th percentile over its rounds.
    fn scheduled_phase(&mut self, calls: u64, events: u64, host_s: f64, speed: f64) {
        self.phase(calls, events, host_s, speed);
        self.round_us.push(host_s * speed * 1e6 / calls as f64);
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    fn finish(self, o: &mut Outcome, peak_rss_mb: f64) {
        let (p50, p99) = if self.round_us.is_empty() {
            (median(&self.call_us_p50), median(&self.call_us_p99))
        } else {
            (median(&self.round_us), quantile(&self.round_us, 0.99))
        };
        let (lo, hi) = self
            .speed
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        println!(
            "host speed {:.3} of nominal (rounds {lo:.3}..{hi:.3}); uncalibrated calls_per_s {:.6}",
            median(&self.speed),
            median(&self.host_calls_per_s)
        );
        o.metric("calls_per_s", median(&self.calls_per_s), "calls/s");
        o.metric("call_us_p50", p50, "us");
        o.metric("call_us_p99", p99, "us");
        o.metric("events_per_s", median(&self.events_per_s), "events/s");
        o.metric("setup_s", median(&self.setup_s), "s");
        o.metric("peak_rss_mb", peak_rss_mb, "MB");
        o.metric(
            "completed_frac",
            self.completed as f64 / o.attempted as f64,
            "ratio",
        );
    }
}

/// The untraced run of `null_rpc` or `bulk_16k`. Each round's p50 and p99
/// come from every call of the round (100k on `null_rpc`, 25k on
/// `bulk_16k`).
fn inline_untraced(a: &Args, kind: Kind) -> Outcome {
    let mut x = Samples::default();
    let mut digests = Vec::new();
    let mut o = Outcome::default();
    let rss = rounds(a.seconds, || {
        let bracket = calib::Bracket::open();
        let t = Instant::now();
        let s = inline::setup(kind, a.seed, false);
        let setup_s = t.elapsed().as_secs_f64();
        let mut hist = LatencyHist::default();
        let r = inline::measure(&s, false, |ns| hist.record(ns));
        let speed = bracket.speed();
        o.attempted += r.calls;
        o.failed += r.bad;
        x.completed += r.calls - r.bad;
        x.setup(setup_s, speed);
        x.phase(r.calls, r.delivered, r.measure_s, speed);
        x.call_us_p50.push(hist.quantile(0.50) as f64 / 1e3 * speed);
        x.call_us_p99.push(hist.quantile(0.99) as f64 / 1e3 * speed);
        digests.push(r.digest);
    });
    o.correct = digests_agree(&a.workload, &digests) && o.failed == 0;
    x.finish(&mut o, rss);
    o
}

/// The untraced run of `load_open`.
fn load_untraced(a: &Args) -> Outcome {
    let mut x = Samples::default();
    let mut digests = Vec::new();
    let mut o = Outcome::default();
    let mut ok = true;
    let rss = rounds(a.seconds, || {
        let (stacks, digest) = sched::load_round(a.seed, false);
        let (mut calls, mut events) = (0u64, 0u64);
        let (mut host_s, mut cal_s, mut setup_host, mut setup_cal) = (0.0, 0.0, 0.0, 0.0);
        for st in &stacks {
            ok &= st.consistent;
            o.failed += st.unaccounted;
            o.sim_failed += st.failed;
            x.completed += st.completed;
            events += st.events;
            calls += st.attempted;
            host_s += st.measure_s;
            cal_s += st.measure_s * st.speed;
            setup_host += st.setup_s;
            setup_cal += st.setup_s * st.speed;
        }
        o.attempted += calls;
        x.setup(setup_host, setup_cal / setup_host);
        x.scheduled_phase(calls, events, host_s, cal_s / host_s);
        digests.push(digest);
    });
    o.correct = digests_agree(&a.workload, &digests) && ok;
    x.finish(&mut o, rss);
    o
}

/// The untraced run of `mclient`.
fn mclient_untraced(a: &Args) -> Outcome {
    let spec = sched::mclient_spec(a.seed);
    let mut x = Samples::default();
    let mut digests = Vec::new();
    let mut o = Outcome::default();
    let mut ok = true;
    let rss = rounds(a.seconds, || {
        let bracket = calib::Bracket::open();
        // Set-up is cheap beside the population run, so take several
        // samples of it per round.
        let setups: Vec<f64> = (0..3).map(|_| sched::mclient_setup(&spec)).collect();
        let (r, s, _) = sched::mclient_round(&spec, false);
        let speed = bracket.speed();
        ok &= sched::mclient_consistent(&spec, &r);
        o.attempted += r.attempted;
        o.failed += sched::mclient_unaccounted(&r);
        o.sim_failed += r.failed;
        x.completed += r.completed;
        setups.into_iter().for_each(|t| x.setup(t, speed));
        x.scheduled_phase(r.attempted, r.run.events, s, speed);
        digests.push(stats::fnv1a(&format!("{r:?}")));
    });
    o.correct = digests_agree(&a.workload, &digests) && ok;
    x.finish(&mut o, rss);
    o
}

/// The traced run of `null_rpc` or `bulk_16k`, plus host-time Table III
/// on `null_rpc`.
fn inline_traced(a: &Args, kind: Kind) -> Outcome {
    let mut o = Outcome::default();
    let mut digests = Vec::new();
    let (mut measure_s, mut sent) = (Vec::new(), vec![0u64; 5]);
    rounds(a.seconds, || {
        let span = trace::open("setup", 0, 0);
        trace::set_current(span.id());
        let s = inline::setup(kind, a.seed, true);
        trace::close(span);
        let bracket = calib::Bracket::open();
        let r = inline::measure(&s, true, |_| {});
        let speed = bracket.speed();
        o.attempted += r.calls;
        o.failed += r.bad;
        measure_s.push(r.measure_s * speed);
        sent.iter_mut().zip(&r.sent).for_each(|(a, b)| *a += b);
        digests.push(r.digest);
    });
    o.correct = digests_agree(&a.workload, &digests) && o.failed == 0;
    o.metric(
        "traced_calls_per_s",
        traced_rate(o.attempted, &measure_s),
        "calls/s",
    );
    let spans = trace::spans();
    let names = inline::stack_names();
    let per_stack = o.attempted / names.len() as u64;
    let mut call_ns = Vec::new();
    for (tag, name) in names.iter().enumerate() {
        let [ns, allocs, bytes, req, rep] = inline::call_medians(&spans, tag as u32);
        call_ns.push((ns, allocs));
        match kind {
            Kind::Null => {
                o.metric(format!("null.{name}.call_ns"), ns, "ns");
                o.metric(format!("null.{name}.allocs"), allocs, "count");
                o.metric(format!("null.{name}.alloc_bytes"), bytes, "bytes");
                o.metric(format!("null.{name}.request_ns"), req, "ns");
                o.metric(format!("null.{name}.reply_ns"), rep, "ns");
            }
            Kind::Bulk => {
                o.metric(format!("bulk.{name}.call_ns"), ns, "ns");
                o.metric(format!("bulk.{name}.allocs"), allocs, "count");
                o.metric(
                    format!("bulk.{name}.copy_ratio"),
                    bytes / inline::BULK_BYTES as f64,
                    "ratio",
                );
                o.metric(
                    format!("bulk.{name}.frames"),
                    sent[tag] as f64 / per_stack as f64,
                    "count",
                );
            }
        }
    }
    if kind == Kind::Null {
        table3(&mut o, a.seed, &call_ns);
    }
    o
}

/// Host-time Table III. ip and vip are M_RPC-IP and M_RPC-VIP minus
/// M_RPC-ETH; fragment, channel and select are the differences along the
/// PINGER prefixes VIP, FRAGMENT-VIP, CHANNEL-FRAGMENT-VIP and the full
/// L_RPC-VIP call. `call` holds (ns, allocs) per paper stack in
/// `ALL_RPC_STACKS` order.
fn table3(o: &mut Outcome, seed: u64, call: &[(f64, f64)]) {
    let ping = inline::table3_pinger(seed, 20_000);
    let (eth, ip, vip, lrpc) = (call[0], call[1], call[2], call[3]);
    let rows = [
        ("ip", ip, eth, 2.10 - 1.73),
        ("vip", vip, eth, 1.79 - 1.73),
        ("fragment", ping[1], ping[0], 0.21),
        ("channel", ping[2], ping[1], 0.49),
        ("select", lrpc, ping[2], 0.11),
    ];
    println!("host-time Table III: layer  +host ns  +allocs  (paper +virtual ms)");
    for (layer, with, without, paper_ms) in rows {
        let (ns, allocs) = (with.0 - without.0, with.1 - without.1);
        println!("  {layer:<9} {ns:>9.0} {allocs:>8.0}  ({paper_ms:.2})");
        o.metric(format!("layer.{layer}.ns"), ns, "ns");
        o.metric(format!("layer.{layer}.allocs"), allocs, "count");
    }
}

/// The traced run of `load_open`.
fn load_traced(a: &Args) -> Outcome {
    let mut o = Outcome::default();
    let (mut digests, mut all) = (Vec::new(), Vec::new());
    let mut ok = true;
    let mut measure_s = Vec::new();
    rounds(a.seconds, || {
        let (stacks, digest) = sched::load_round(a.seed, true);
        for st in &stacks {
            ok &= st.consistent;
            o.attempted += st.attempted;
            o.failed += st.unaccounted;
            o.sim_failed += st.failed;
        }
        measure_s.push(stacks.iter().map(|st| st.measure_s * st.speed).sum());
        all.push(stacks);
        digests.push(digest);
    });
    o.correct = digests_agree(&a.workload, &digests) && ok;
    o.metric(
        "traced_calls_per_s",
        traced_rate(o.attempted, &measure_s),
        "calls/s",
    );
    for (i, st) in all[0].iter().enumerate() {
        let med = |f: fn(&sched::LoadStackRun) -> f64| {
            median(&all.iter().map(|round| f(&round[i])).collect::<Vec<_>>())
        };
        let (calls, ev, s) = (st.attempted as f64, st.events as f64, st.stack);
        o.metric(
            format!("load.{s}.ns_per_event"),
            med(|st| st.measure_s * 1e9 / st.events as f64),
            "ns",
        );
        o.metric(format!("load.{s}.events_per_call"), ev / calls, "count");
        o.metric(
            format!("load.{s}.allocs_per_event"),
            st.allocs as f64 / ev,
            "count",
        );
        o.metric(format!("load.{s}.peak_live"), st.peak_live as f64, "count");
        o.metric(
            format!("load.{s}.frames_per_call"),
            st.frames as f64 / calls,
            "count",
        );
        o.metric(
            format!("load.{s}.useful_frac"),
            st.completed as f64 / st.executed as f64,
            "ratio",
        );
        o.metric(
            format!("load.{s}.retransmits_per_call"),
            st.retransmits as f64 / calls,
            "count",
        );
        o.metric(
            format!("load.{s}.build_warm_s"),
            med(|st| st.setup_s / sched::LOAD_SEEDS_PER_STACK as f64),
            "s",
        );
    }
    o
}

/// The traced run of `mclient`.
fn mclient_traced(a: &Args) -> Outcome {
    let spec = sched::mclient_spec(a.seed);
    let mut o = Outcome::default();
    let (mut digests, mut runs) = (Vec::new(), Vec::new());
    let mut ok = true;
    let mut rss_bytes = 0u64;
    rounds(a.seconds, || {
        let span = trace::open("setup", 0, 0);
        sched::mclient_setup(&spec);
        trace::close(span);
        let rss_before = proc_status_bytes("VmRSS");
        let bracket = calib::Bracket::open();
        let (r, s, allocs) = sched::mclient_round(&spec, true);
        let speed = bracket.speed();
        if runs.is_empty() {
            rss_bytes = proc_status_bytes("VmHWM").saturating_sub(rss_before);
        }
        ok &= sched::mclient_consistent(&spec, &r);
        o.attempted += r.attempted;
        o.failed += sched::mclient_unaccounted(&r);
        o.sim_failed += r.failed;
        digests.push(stats::fnv1a(&format!("{r:?}")));
        runs.push((r, s, allocs, speed));
    });
    o.correct = digests_agree(&a.workload, &digests) && ok;
    let measure_s: Vec<f64> = runs.iter().map(|r| r.1 * r.3).collect();
    o.metric(
        "traced_calls_per_s",
        traced_rate(o.attempted, &measure_s),
        "calls/s",
    );
    let (r, _, allocs, _) = &runs[0];
    let (calls, events, clients) = (
        r.attempted as f64,
        r.run.events as f64,
        f64::from(spec.clients),
    );
    let ns_per_event = median(
        &runs
            .iter()
            .map(|(r, s, _, _)| s * 1e9 / r.run.events as f64)
            .collect::<Vec<_>>(),
    );
    o.metric("mclient.ns_per_event", ns_per_event, "ns");
    o.metric("mclient.events_per_call", events / calls, "count");
    o.metric("mclient.peak_live", r.run.peak_live as f64, "count");
    o.metric(
        "mclient.rss_bytes_per_client",
        rss_bytes as f64 / clients,
        "bytes",
    );
    o.metric(
        "mclient.allocs_per_client",
        *allocs as f64 / clients,
        "count",
    );
    o
}

/// Runs the workload named in the arguments and prints its result as the
/// last line of standard output. Exits non-zero if any check failed.
pub fn main_with(traced: bool) -> ExitCode {
    let a = parse_args();
    println!("host cores={}", xkernel::par::detect_cores());
    let o = match (a.workload.as_str(), traced) {
        ("null_rpc", false) => inline_untraced(&a, Kind::Null),
        ("bulk_16k", false) => inline_untraced(&a, Kind::Bulk),
        ("load_open", false) => load_untraced(&a),
        ("mclient", false) => mclient_untraced(&a),
        ("null_rpc", true) => inline_traced(&a, Kind::Null),
        ("bulk_16k", true) => inline_traced(&a, Kind::Bulk),
        ("load_open", true) => load_traced(&a),
        _ => mclient_traced(&a),
    };
    println!(
        "simulated: {} of {} calls reported failed by the simulated protocols",
        o.sim_failed, o.attempted
    );
    if let Some(path) = &a.spans {
        if let Err(e) = trace::write_spans(path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", o.json());
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
