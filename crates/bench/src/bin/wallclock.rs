//! `xbench wallclock` — the wall-clock performance harness.
//!
//! Every other binary in this crate reports **virtual** time: calibrated
//! Sun 3/75 nanoseconds that reproduce the paper's tables bit for bit.
//! This one measures how fast the simulator itself runs on the host —
//! null-RPC calls per second over the inline-synchronous network, scheduler
//! events per second in discrete-event mode, and the chaos soak matrix's
//! wall time sequentially versus fanned out across OS threads.
//!
//! Emits `BENCH_wallclock.json` (self-validated before writing; the
//! process exits non-zero if a required field is missing). Usage:
//!
//! ```text
//! wallclock [--quick] [--threads N] [--out PATH]
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use chaos::{full_matrix, run_matrix};
use std::rc::Rc;
use xbench::{registry, rpc_rig};
use xkernel::par;
use xkernel::sim::Mode;
use xrpc::procs::NULL_PROC;
use xrpc::stacks::{StackDef, ALL_RPC_STACKS};

struct Opts {
    quick: bool,
    threads: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        threads: par::default_threads(),
        out: "BENCH_wallclock.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                opts.threads = v.parse().expect("--threads needs a number");
            }
            "--out" => opts.out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: wallclock [--quick] [--threads N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Wall-clock time of `calls` null RPCs over the inline-synchronous
/// network (one call chain on one thread, no scheduler).
fn null_rpc_wall(stack: &StackDef, calls: u32) -> f64 {
    let tb = rpc_rig(stack, Mode::Inline);
    let ctx = tb.sim.ctx(tb.client.host());
    let k = tb.client.clone();
    let server_ip = tb.server_ip;
    // Warm ARP and session caches outside the timed window.
    xrpc::call(&ctx, &k, stack.entry, server_ip, NULL_PROC, Vec::new()).expect("warm-up call");
    let t0 = Instant::now();
    for _ in 0..calls {
        xrpc::call(&ctx, &k, stack.entry, server_ip, NULL_PROC, Vec::new()).expect("null call");
    }
    t0.elapsed().as_secs_f64()
}

/// Runs `calls` null RPCs in discrete-event mode and returns
/// (events executed, wall seconds) for the whole scheduled run.
fn scheduled_events_wall(stack: &StackDef, calls: u32) -> (u64, f64) {
    let tb = rpc_rig(stack, Mode::Scheduled);
    let server_ip = tb.server_ip;
    let entry = stack.entry;
    let done = Rc::new(RefCell::new(false));
    let d2 = Rc::clone(&done);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..calls {
            xrpc::call(ctx, k, entry, server_ip, NULL_PROC, Vec::new()).expect("null call");
        }
        *d2.borrow_mut() = true;
    });
    let t0 = Instant::now();
    let report = tb.sim.run_until_idle();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.blocked, 0, "scheduled run must drain");
    assert!(*done.borrow_mut(), "client must finish");
    (report.events, wall)
}

/// Escapes a string for JSON (the only non-ASCII-safe thing we emit is a
/// stack name, but be correct anyway).
fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Required fields of the `xbench.wallclock/1` schema. The harness refuses
/// to write a file that is missing any of them, and `ci.sh` greps for the
/// same list, so a field can't silently vanish from either side.
const REQUIRED_FIELDS: &[&str] = &[
    "\"schema\"",
    "\"quick\"",
    "\"cores\"",
    "\"threads\"",
    "\"null_rpc\"",
    "\"calls_per_sec\"",
    "\"scheduled\"",
    "\"events_per_sec\"",
    "\"soak\"",
    "\"scenarios\"",
    "\"sequential_wall_secs\"",
    "\"parallel_wall_secs\"",
    "\"per_stack_wall_secs\"",
    "\"speedup\"",
    "\"reports_bit_identical\"",
];

fn validate(json: &str) -> Result<(), String> {
    for f in REQUIRED_FIELDS {
        if !json.contains(f) {
            return Err(format!("missing required field {f}"));
        }
    }
    let opens = json.matches(['{', '[']).count();
    let closes = json.matches(['}', ']']).count();
    if opens != closes {
        return Err(format!("unbalanced brackets: {opens} open, {closes} close"));
    }
    if !json.contains("\"schema\": \"xbench.wallclock/1\"") {
        return Err("schema tag is not xbench.wallclock/1".to_string());
    }
    Ok(())
}

fn main() {
    let opts = parse_opts();
    // Honest core count: available_parallelism alone under-reports inside
    // cgroup-pinned containers (see par::detect_cores), which used to make
    // this harness claim cores: 1 / threads: 1 on multi-core hosts.
    let cores = par::detect_cores();
    let (null_calls, sched_calls, soak_seeds, soak_calls) = if opts.quick {
        (200u32, 100u32, 1u64, 4u32)
    } else {
        (2000u32, 400u32, 2u64, 8u32)
    };

    // Touch the registry once up front so first-use construction cost does
    // not land inside the first stack's timed window.
    let _ = registry();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"xbench.wallclock/1\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"threads\": {},", opts.threads);

    // --- Null-RPC calls/sec, inline-synchronous network. ---
    eprintln!("null-RPC calls/sec (inline, {null_calls} calls per stack)");
    json.push_str("  \"null_rpc\": [\n");
    for (i, stack) in ALL_RPC_STACKS.iter().enumerate() {
        let wall = null_rpc_wall(stack, null_calls);
        let rate = f64::from(null_calls) / wall;
        eprintln!("  {:>12}  {:>12.0} calls/sec", stack.name, rate);
        let _ = writeln!(
            json,
            "    {{\"stack\": {}, \"calls\": {}, \"wall_secs\": {:.6}, \"calls_per_sec\": {:.1}}}{}",
            js(stack.name),
            null_calls,
            wall,
            rate,
            if i + 1 < ALL_RPC_STACKS.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- Scheduler events/sec, discrete-event mode. ---
    eprintln!("scheduler events/sec (scheduled, {sched_calls} calls per stack)");
    json.push_str("  \"scheduled\": [\n");
    for (i, stack) in ALL_RPC_STACKS.iter().enumerate() {
        let (events, wall) = scheduled_events_wall(stack, sched_calls);
        let rate = events as f64 / wall;
        eprintln!("  {:>12}  {:>12.0} events/sec", stack.name, rate);
        let _ = writeln!(
            json,
            "    {{\"stack\": {}, \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}}}{}",
            js(stack.name),
            events,
            wall,
            rate,
            if i + 1 < ALL_RPC_STACKS.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");

    // --- Chaos soak matrix: sequential vs parallel wall time. ---
    let scenarios = full_matrix(0xbe9c_0000, soak_seeds, soak_calls);
    eprintln!(
        "soak matrix: {} scenarios, sequential then {} threads",
        scenarios.len(),
        opts.threads
    );
    // Per-stack sequential wall time: each scenario timed individually so
    // the per-stack split costs nothing extra.
    let mut per_stack: Vec<(&'static str, f64)> = Vec::new();
    let mut seq_reports = Vec::with_capacity(scenarios.len());
    let t_seq = Instant::now();
    for sc in &scenarios {
        let t0 = Instant::now();
        seq_reports.push(sc.run_checked());
        let dt = t0.elapsed().as_secs_f64();
        let name = sc.stack.name();
        match per_stack.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => *acc += dt,
            None => per_stack.push((name, dt)),
        }
    }
    let seq_wall = t_seq.elapsed().as_secs_f64();
    let t_par = Instant::now();
    let par_reports = run_matrix(scenarios.clone(), opts.threads, true);
    let par_wall = t_par.elapsed().as_secs_f64();
    let identical = seq_reports == par_reports;
    let speedup = seq_wall / par_wall;
    eprintln!(
        "  sequential {seq_wall:.3}s, parallel {par_wall:.3}s, speedup {speedup:.2}x, \
         bit-identical: {identical}"
    );

    json.push_str("  \"soak\": {\n");
    let _ = writeln!(json, "    \"scenarios\": {},", scenarios.len());
    let _ = writeln!(json, "    \"calls_per_scenario\": {soak_calls},");
    let _ = writeln!(json, "    \"sequential_wall_secs\": {seq_wall:.6},");
    let _ = writeln!(json, "    \"parallel_wall_secs\": {par_wall:.6},");
    let _ = writeln!(json, "    \"parallel_threads\": {},", opts.threads);
    let _ = writeln!(json, "    \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "    \"reports_bit_identical\": {identical},");
    json.push_str("    \"per_stack_wall_secs\": [\n");
    for (i, (name, secs)) in per_stack.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"stack\": {}, \"wall_secs\": {:.6}}}{}",
            js(name),
            secs,
            if i + 1 < per_stack.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    if let Err(e) = validate(&json) {
        eprintln!("BENCH_wallclock.json failed schema validation: {e}");
        std::process::exit(1);
    }
    assert!(
        identical,
        "parallel soak reports diverged from sequential — determinism broken"
    );
    std::fs::write(&opts.out, &json).expect("write BENCH_wallclock.json");
    eprintln!("wrote {}", opts.out);
}
