//! `xbench mclient` — the million-client closed-loop soak.
//!
//! Drives [`xload::MClientSpec`]: one persistent stackless machine per
//! client plus a transient coroutine per in-flight call, which is what
//! lets a single-threaded deterministic engine hold a million concurrent
//! closed-loop clients in a few hundred megabytes. Emits
//! `BENCH_mclient.json` (self-validated before writing; the process exits
//! non-zero if a required field is missing or the run fails its own
//! acceptance checks). Usage:
//!
//! ```text
//! mclient [--clients N] [--quick] [--out PATH]
//! ```
//!
//! `--quick` defaults the population to 100 000 (the CI smoke size);
//! otherwise the default is the full million. Acceptance is asserted
//! in-process: every client completes every call, nothing is left
//! blocked, and `peak_live >= clients` — the engine's own proof that the
//! whole population was concurrently resident.

use std::fmt::Write as _;
use std::time::Instant;

use xbench::validate;
use xload::MClientSpec;

struct Opts {
    clients: u32,
    stagger_per_client_ns: Option<u64>,
    quick: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut clients: Option<u32> = None;
    let mut stagger_per_client_ns = None;
    let mut quick = false;
    let mut out = "BENCH_mclient.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--clients" => {
                let v = args.next().expect("--clients needs a value");
                clients = Some(v.parse().expect("--clients needs a number"));
            }
            "--stagger" => {
                let v = args
                    .next()
                    .expect("--stagger needs a value (ns per client)");
                stagger_per_client_ns = Some(v.parse().expect("--stagger needs a number"));
            }
            "--out" => out = args.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: mclient [--clients N] [--stagger NS_PER_CLIENT] [--quick] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let clients = clients.unwrap_or(if quick { 100_000 } else { 1_000_000 });
    Opts {
        clients,
        stagger_per_client_ns,
        quick,
        out,
    }
}

/// Required fields of the `xbench.mclient/1` schema; the harness refuses
/// to write a file missing any of them, and `ci.sh` greps the same list.
const REQUIRED_FIELDS: &[&str] = &[
    "\"schema\"",
    "\"quick\"",
    "\"clients\"",
    "\"calls_per_client\"",
    "\"attempted\"",
    "\"completed\"",
    "\"failed\"",
    "\"peak_live\"",
    "\"events\"",
    "\"fuel_used\"",
    "\"wall_secs\"",
    "\"events_per_sec\"",
    "\"latency_ns\"",
    "\"p50\"",
    "\"p99\"",
];

fn main() {
    let opts = parse_opts();
    let mut spec = MClientSpec::sized(opts.clients);
    if let Some(per_client) = opts.stagger_per_client_ns {
        spec.stagger_ns = u64::from(opts.clients) * per_client;
    }
    eprintln!(
        "mclient soak: {} clients x {} call(s), stagger {} virtual secs",
        spec.clients,
        spec.calls_per_client,
        spec.stagger_ns / 1_000_000_000
    );
    let t0 = Instant::now();
    let report = spec.run();
    let wall = t0.elapsed().as_secs_f64();
    let events_per_sec = report.run.events as f64 / wall.max(1e-9);
    eprintln!(
        "  {} calls in {:.1}s wall ({} events, {:.0} events/sec), peak_live {}",
        report.completed, wall, report.run.events, events_per_sec, report.run.peak_live
    );

    // Acceptance, asserted in-process so a regression cannot write a
    // plausible-looking artifact.
    let expect = u64::from(spec.clients) * u64::from(spec.calls_per_client);
    assert_eq!(report.attempted, expect, "every client must call");
    assert_eq!(report.completed, expect, "every call must complete");
    assert_eq!(report.failed, 0, "no call may fail on the quiet segment");
    assert_eq!(report.run.blocked, 0, "the run must drain");
    assert!(
        report.run.peak_live >= spec.clients as usize,
        "peak_live {} < clients {} — the population was not concurrent",
        report.run.peak_live,
        spec.clients
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"xbench.mclient/1\",\n");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "  \"label\": \"{}\",", report.label);
    let _ = writeln!(json, "  \"clients\": {},", report.clients);
    let _ = writeln!(json, "  \"calls_per_client\": {},", report.calls_per_client);
    let _ = writeln!(json, "  \"stagger_ns\": {},", spec.stagger_ns);
    let _ = writeln!(json, "  \"attempted\": {},", report.attempted);
    let _ = writeln!(json, "  \"completed\": {},", report.completed);
    let _ = writeln!(json, "  \"failed\": {},", report.failed);
    let _ = writeln!(json, "  \"peak_live\": {},", report.run.peak_live);
    let _ = writeln!(json, "  \"events\": {},", report.run.events);
    let _ = writeln!(json, "  \"fuel_used\": {},", report.run.fuel_used);
    let _ = writeln!(json, "  \"wall_secs\": {wall:.3},");
    let _ = writeln!(json, "  \"events_per_sec\": {events_per_sec:.1},");
    let l = &report.latency;
    let _ = writeln!(
        json,
        "  \"latency_ns\": {{\"count\": {}, \"min\": {}, \"mean\": {}, \"p50\": {}, \
         \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}",
        l.count, l.min_ns, l.mean_ns, l.p50_ns, l.p90_ns, l.p99_ns, l.p999_ns, l.max_ns
    );
    json.push_str("}\n");

    if let Err(e) = validate(&json, "xbench.mclient/1", REQUIRED_FIELDS) {
        eprintln!("BENCH_mclient.json failed schema validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(&opts.out, &json).expect("write BENCH_mclient.json");
    eprintln!("wrote {}", opts.out);
}
