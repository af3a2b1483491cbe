#!/usr/bin/env python3
"""Runs one workload of the simulator's host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. It builds the benchmark package
(perfbench/Cargo.toml, into $CARGO_TARGET_DIR or .bench_build), runs it, and
prints as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json for that workload, measured with tracing off; --workload all
runs every workload in turn and names them <workload>.<metric>. With
--trace 1 it runs the traced binary on every workload and prints every
per-layer metric of BENCHMARK.json; spans go to
.bench_out/spans-<workload>.csv.

Before the result it prints each metric by name with its unit, then the host
fingerprint. Both, with the digests, are also written to
.bench_out/result-<workload>-trace<t>.json.
Exits non-zero, without a result, if the build fails; exits non-zero after
printing a result with "correct": false if any correctness check or digest
agreement failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["null_rpc", "bulk_16k", "load_open", "mclient"]
OUT = Path(".bench_out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(target):
    """Builds both binaries; returns False if the build fails."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run_binary(exe, workload, seed, seconds, spans=None):
    """Runs one binary; returns (exit code, printed lines, result dict)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{exe.name} {workload}: timed out", file=sys.stderr)
        return 1, [], None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, lines[:-1], result


def source_revision():
    """The git revision, or a hash of the source tree where there is none."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [Path("Cargo.toml"), Path("Cargo.lock")]
    for top in ("crates", "shims", "perfbench"):
        files += [p for p in Path(top).rglob("*") if p.is_file()]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p).encode() + b"\0" + p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def fingerprint(seed, lines):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    cores = next((int(l.split("=", 1)[1]) for l in lines
                  if l.startswith("host cores=")), None)
    return {"cpu": cpu, "cores": cores, "rustc": rustc,
            "rev": source_revision(), "seed": seed}


def declared(kind):
    """(name, unit) of every metric BENCHMARK.json declares of this kind."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def matches(metrics, want):
    got = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"metrics differ from BENCHMARK.json: missing {missing}, "
              f"unexpected {extra}", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target):
        return 1
    plain = target / "release" / "perfbench"
    traced = target / "release" / "perfbench-traced"

    lines, code, ok = [], 0, True
    res = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    if args.trace == 0:
        # `all` runs every workload in turn; its metrics are named
        # <workload>.<metric>.
        names = WORKLOADS if args.workload == "all" else [args.workload]
        for w in names:
            c, l, r = run_binary(plain, w, args.seed, args.seconds)
            if r is None:
                return 1
            code, lines = code or c, lines + l
            ok &= matches(r["metrics"], declared("end_to_end"))
            res["correct"] &= r["correct"]
            res["attempted"] += r["attempted"]
            res["failed"] += r["failed"]
            prefix = f"{w}." if args.workload == "all" else ""
            res["metrics"].update(
                {prefix + k: m for k, m in r["metrics"].items()})
    else:
        # Every per-layer metric is printed on every traced run, so the
        # traced run covers all four workloads. Each also runs untraced for
        # as long, to give the tracing overhead.
        each = args.seconds / (2 * len(WORKLOADS))
        for w in WORKLOADS:
            c1, l1, base = run_binary(plain, w, args.seed, each)
            c2, l2, tr = run_binary(traced, w, args.seed, each,
                                    OUT / f"spans-{w}.csv")
            if base is None or tr is None:
                return 1
            code = code or c1 or c2
            lines += l1 + l2
            res["correct"] &= base["correct"] and tr["correct"]
            res["attempted"] += tr["attempted"]
            res["failed"] += tr["failed"]
            m = tr["metrics"]
            traced_rate = m.pop("traced_calls_per_s")["value"]
            untraced_rate = base["metrics"]["calls_per_s"]["value"]
            m[f"{w}.trace_overhead"] = {
                "value": untraced_rate / traced_rate - 1, "unit": "ratio"}
            res["metrics"].update(m)
        ok = matches(res["metrics"], declared("per_layer"))

    fp = fingerprint(args.seed, lines)
    for line in lines:
        if not line.startswith("host cores="):
            print(line)
    OUT.mkdir(exist_ok=True)
    record = {"fingerprint": fp, "workload": args.workload,
              "trace": args.trace, "lines": lines, "result": res}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, m in res["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print("fingerprint " + json.dumps(fp))
    res["correct"] = bool(res["correct"] and ok and code == 0)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
