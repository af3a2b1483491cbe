#!/usr/bin/env python3
"""Self-test of the benchmark, on short runs.

    python3 perfbench/selftest.py

Run from the root of the repository. Checks that:
  * every workload prints every end-to-end metric of BENCHMARK.json, with
    its unit, as a positive finite number, and reports correct with no
    failed call;
  * the correctness digest repeats across invocations with the same seed;
  * the traced run prints every per-layer metric with its unit, and its
    allocation and per-call/per-event counts repeat exactly across runs;
  * every `call` span has exactly one `server.proc` child inside it, so
    `call` self time plus `server.proc` equals `call`, and every span name
    the benchmark records appears;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    runner exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SPAN_NAMES = {"call", "server.proc", "pinger.rtt", "setup",
              "xload.build_warm", "xload.measure", "mclient.run"}
# Per-layer metrics measured in host time; every other one is a count or a
# ratio of counts and must repeat exactly.
TIMED = ("_ns", ".ns", "ns_per_event", "build_warm_s", "rss_bytes_per_client",
         "trace_overhead")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, seed=7, cwd=None, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=600)
    return done.returncode, done.stdout.strip().splitlines()


def result(workload, trace, kind):
    code, lines = run(workload, trace)
    if code != 0:
        fail(f"{workload} trace={trace} exited {code}")
    res = json.loads(lines[-1])
    if list(res) != ["correct", "attempted", "failed", "metrics"]:
        fail(f"{workload}: result keys {list(res)}")
    if res["correct"] is not True or res["attempted"] < 1:
        fail(f"{workload}: correct={res['correct']} attempted={res['attempted']}")
    if res["failed"] != 0:
        fail(f"{workload}: {res['failed']} calls failed a check")
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics/units differ from {kind}: "
             f"{sorted(set(want.items()) ^ set(got.items()))[:6]}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{k} is not a finite number")
        if kind == "end_to_end" and v["value"] <= 0:
            fail(f"{workload}: {k} = {v['value']} is not positive")
    digest = [l.split()[2] for l in lines if l.startswith("digest ")]
    return res, digest


def check_spans(path):
    spans = list(csv.DictReader(open(path)))
    children = {}
    for s in spans:
        if s["name"] == "server.proc":
            children.setdefault(s["parent"], []).append(s)
    calls = [s for s in spans if s["name"] == "call"]
    if not calls:
        fail(f"{path}: no call spans")
    for c in calls:
        kids = children.get(c["id"], [])
        if len(kids) != 1:
            fail(f"{path}: call {c['id']} has {len(kids)} server.proc children")
        k = kids[0]
        c0, c1, k0, k1 = (int(c["start_ns"]), int(c["end_ns"]),
                          int(k["start_ns"]), int(k["end_ns"]))
        covered = max(0, min(c1, k1) - max(c0, k0))
        self_ns = (c1 - c0) - covered
        if not (c0 <= k0 <= k1 <= c1) or self_ns + (k1 - k0) != c1 - c0:
            fail(f"{path}: call {c['id']} self time + server.proc != call")
    return {s["name"] for s in spans}


def main():
    for w in WORKLOADS:
        _, digest = result(w, 0, "end_to_end")
        if w == "null_rpc":
            _, again = result(w, 0, "end_to_end")
            if digest != again or not digest:
                fail(f"digest differs between invocations: {digest} {again}")
        print(f"selftest: {w}: end-to-end metrics and digest ok")

    first, _ = result("null_rpc", 1, "per_layer")
    second, _ = result("null_rpc", 1, "per_layer")
    for k, v in first["metrics"].items():
        a, b = v["value"], second["metrics"][k]["value"]
        if k.endswith(TIMED) or a == b:
            continue
        # Allocations in scheduled mode vary between processes by a few in
        # millions, on SUNRPC-UDP only: most likely the layout of hash
        # tables under insert/remove churn (its outstanding-call map during
        # retransmission), which std seeds per process.
        if k.startswith("load.") and k.endswith(".allocs_per_event") \
                and abs(a - b) <= 1e-5 * abs(a):
            print(f"selftest: note: {k} {a} vs {b} (hash-seed jitter)")
            continue
        fail(f"count {k} differs between traced runs: {a} vs {b}")
    names = set()
    for w in WORKLOADS:
        path = Path(".bench_out") / f"spans-{w}.csv"
        names |= check_spans(path) if w in ("null_rpc", "bulk_16k") else {
            s["name"] for s in csv.DictReader(open(path))}
    if names != SPAN_NAMES:
        fail(f"span names {sorted(names)} != {sorted(SPAN_NAMES)}")
    print("selftest: per-layer metrics, repeatable counts and spans ok")

    bare = Path(".bench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    code, lines = run(WORKLOADS[0], 0, cwd=bare, env=env)
    shutil.rmtree(bare)
    if code == 0 or any(l.startswith("{") for l in lines):
        fail(f"bare directory: exit {code}, output {lines[-1:]}")
    print("selftest: bare directory fails cleanly")
    print("selftest: ok")


if __name__ == "__main__":
    main()
