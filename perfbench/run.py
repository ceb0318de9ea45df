#!/usr/bin/env python3
"""End-to-end benchmark of the Diffy reproduction.

    python3 perfbench/run.py --workload paper-warm --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Builds the `perfbench` binary (perfbench/CMakeLists.txt, Release, into
.bench_build/) from the enclosing source tree, runs one workload and
prints the host context and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list, derived from the span files of a traced run.

Workload parameters and the layer-to-metric mapping are in
workloads.json; digests recorded per seed are in digests.json
(refresh with --record-digests 0-20 after a deliberate output change).
Exits 1 when an output check fails, or on paper-* when any cell failed.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 160


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once, Release) and build the binary; the binary itself
    refuses to run from any other build type."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no Diffy source tree at {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", str(nproc())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed")


def run_binary(args):
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        die(f"perfbench exited with {proc.returncode}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def binary_args(workload, seed, seconds, work, extra=()):
    params = load_json(os.path.join(HERE, "workloads.json"))
    serve = params["serve"]
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--threads", str(params["threads"]),
            "--work-dir", work, "--rate", str(serve["rate_fps"]),
            "--ladder", ",".join(str(r) for r in serve["ladder_fps"]),
            "--p99-limit-ms", str(serve["p99_limit_ms"])]
    return args + list(extra)


# ---------------------------------------------------------------------
# Traced-run attribution

# Span name -> the per-layer metric its self time is charged to. The
# repetition roots' own self time is the unattributed remainder.
SELF_METRIC = {
    "bench.run": "unattributed_s",
    "bench.replay": "unattributed_s",
    "runtime.sweep": "runtime.sweep_s",
    "runtime.cell": "runtime.sweep_s",
    "trace_cache.get": "trace_cache.overhead_s",
    "image.render": "image.render_s",
    "nn.run_network": "nn.run_network_s",
    "encode.footprint": "encode.footprint_s",
    "encode.traffic": "encode.traffic_s",
    "sim.compute": "sim.compute_s",
    "sim.memory": "sim.memory_s",
    "serve.run_batch": "serve.run_batch_s",
    "temporal.step": "temporal.step_s",
}
ROOTS = ("bench.run", "bench.replay")
# Timestamps carry six significant digits (about 10 us within a file).
TOL_US = 10.0


def spans_of(path):
    events = load_json(path)["traceEvents"]
    return [{"name": e["name"], "ts": e["ts"], "end": e["ts"] + e["dur"],
             "dur": e["dur"], "tid": e["tid"], "children": []}
            for e in events]


def union_us(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def attribute(spans):
    """Link each span to its parent; return the root spans.

    The parent is the innermost span containing it on its own thread;
    a worker's outermost span (a sweep cell) hangs off the innermost
    span containing it on the driving thread, the one holding roots.
    """
    lanes = {}
    for s in spans:
        lanes.setdefault(s["tid"], []).append(s)
    roots = [s for s in spans if s["name"] in ROOTS]
    driving = {s["tid"] for s in roots}
    orphans = []
    for lane in lanes.values():
        lane.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in lane:
            while stack and not (s["end"] <= stack[-1]["end"] + TOL_US
                                 and s["dur"] <= stack[-1]["dur"]):
                stack.pop()
            if stack:
                stack[-1]["children"].append(s)
            elif s["name"] not in ROOTS:
                orphans.append(s)
            stack.append(s)
    main_lane = [s for t in driving for s in lanes[t]]
    for s in orphans:
        hosts = [d for d in main_lane if d["ts"] <= s["ts"] + TOL_US
                 and s["end"] <= d["end"] + TOL_US]
        if hosts:
            min(hosts, key=lambda d: d["dur"])["children"].append(s)
    return roots


def layer_metrics(paths, counts):
    self_us = {m: 0.0 for m in set(SELF_METRIC.values())}
    get_us = 0.0
    per_root = {}  # root name -> (count, {metric: us})
    for path in paths:
        spans = spans_of(path)
        for root in attribute(spans):
            n, acc = per_root.setdefault(root["name"], [0, {}])
            per_root[root["name"]][0] = n + 1
            todo = [root]
            while todo:
                s = todo.pop()
                kids = s["children"]
                todo.extend(kids)
                own = s["dur"] - union_us([(k["ts"], k["end"]) for k in kids])
                m = SELF_METRIC.get(s["name"])
                if m:
                    acc[m] = acc.get(m, 0.0) + max(own, 0.0)
                if s["name"] == "trace_cache.get":
                    get_us += s["dur"]
    # Per repetition: each layer's time over the roots it ran under.
    runs = per_root.get("bench.run", [1, {}])[0] or 1
    for n, acc in per_root.values():
        for m, us in acc.items():
            self_us[m] += us / max(n, 1)
    sec = {m: us * 1e-6 for m, us in self_us.items()}
    c = counts
    encode_s = sec["encode.traffic_s"] + sec["encode.footprint_s"]
    sim_s = sec["sim.compute_s"] + sec["sim.memory_s"]
    out = dict(sec)
    out.update({
        "trace_cache.get_s": get_us * 1e-6 / runs,
        "encode.calls": c.get("encode.calls", 0.0),
        "encode.values_per_s":
            c.get("encode.values", 0.0) / encode_s if encode_s else 0.0,
        "trace_cache.gets": c.get("trace_cache.gets", 0.0),
        "trace_cache.bytes": c.get("trace_cache.bytes", 0.0),
        "nn.passes": c.get("nn.passes", 0.0),
        "sim.frames": c.get("sim.frames", 0.0),
        "sim.us_per_frame":
            1e6 * sim_s / c["sim.frames"] if c.get("sim.frames") else 0.0,
        "sim.cycles_total": c.get("sim.cycles_total", 0.0),
        "runtime.cells": c.get("runtime.cells", 0.0),
        "runtime.busy_ratio": c.get("runtime.busy_ratio", 0.0),
        "trace_overhead_s": c["traced_run_s"] - c["run_s"],
    })
    for k in ("serve.batches", "serve.batch_fill", "serve.queue_depth_mean",
              "serve.rejected", "serve.offer_lag_p99_ms", "serve.fps",
              "serve.slo_fps", "temporal.anchor_ratio", "temporal.term_ratio",
              "temporal.bits_per_value"):
        out[k] = c.get(k, 0.0)
    return out


# ---------------------------------------------------------------------


def record_digests(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    digests = {}
    for w in (x["name"] for x in bench["workloads"]):
        work = os.path.join(BUILD, "perfbench-work", w)
        digests[w] = {}
        for seed in seeds:
            _, res = run_binary(binary_args(w, seed, 1, work, ["--digest-only"]))
            if not res["correct"]:
                die(f"{w} seed {seed}: outputs inconsistent, not recording")
            digests[w][str(seed)] = res["digest"]
            print(f"{w} seed {seed}: {res['digest']}", file=sys.stderr)
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def run_workload(bench, workload, seed, seconds, trace):
    """Run one workload, print its context and result lines; return the
    exit status."""
    work = os.path.join(BUILD, "perfbench-work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    extra = []
    recorded = load_json(os.path.join(HERE, "digests.json"))
    expect = recorded.get(workload, {}).get(str(seed))
    if expect:
        extra += ["--expect-digest", expect]
    trace_base = os.path.join(work, "spans")
    if trace:
        extra += ["--trace-out", trace_base]
    context, res = run_binary(
        binary_args(workload, seed, seconds, work, extra))

    got = res["metrics"]
    if trace:
        values = layer_metrics(sorted(glob.glob(trace_base + ".*.json")),
                               {k: v["value"] for k, v in got.items()})
        wanted = bench["per_layer"]
    else:
        values = {k: v["value"] for k, v in got.items()}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    context.update(workload=workload, seed=seed, digest=res["digest"],
                   expected_digest=expect or "")
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}),
          flush=True)
    paper_failed = workload.startswith("paper-") and res["failed"] > 0
    return 0 if res["correct"] and not paper_failed else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a BENCHMARK.json workload, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="LO-HI")
    a = ap.parse_args()

    build()
    if a.record_digests:
        record_digests(a.record_digests)
        return 0

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if a.workload != "all" and a.workload not in names:
        die(f"unknown workload {a.workload!r}")
    todo = names if a.workload == "all" else [a.workload]
    return max(run_workload(bench, w, a.seed, a.seconds, a.trace)
               for w in todo)


if __name__ == "__main__":
    sys.exit(main())
