#!/usr/bin/env python3
"""The repo benchmark: host cost of the distributed planarity tester.

    python3 perfbench/run.py --workload grid-peel [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  It builds perfbench/perfbench.exe with
dune, then measures one workload (defined in perfbench/pinned.json) for
--seconds of wall time, set-up included; a process does at least one
tester run, so a budget shorter than that is overrun.

* --trace 0 starts WORKERS processes one after another, each with an equal
  share of the time left.  Each sets the workload up (generate, Gio
  round-trip, ground truth, one warm-up tester run), then times untraced
  tester runs while the next one fits in its share.  Printed: run_s
  (median wall of one tester run), setup_s (median set-up), alloc_mw
  (median words allocated per run), peak_rss_mb (median VmHWM of the
  processes after their first tester run) and fail_frac.
* --trace 1 starts one process whose reps are pairs of an untraced and a
  traced run, in alternating order.  It writes its spans to perfbench/out/
  as trace_event JSON and prints the per-layer metrics and a self-time
  table per layer.

--seed picks the generator seed from the workload's pinned pool, so every
input has a pinned verdict and Report.Ledger.digest_core; each tester run
is checked against them.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 1 when
any run mismatched its pin and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from statistics import median

WORKERS = 3
PINS = os.path.join("perfbench", "pinned.json")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join("perfbench", "out")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a repository checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=600,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0:
        die("build failed")


def git_commit():
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def loadavg():
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def worker(name, wl, pin, seconds, trace=None):
    """One measuring process with a wall budget of `seconds`."""
    seconds = max(seconds, 0.0)
    cmd = [
        EXE, "--label", name,
        "--family", wl["family"], "--n", str(wl["n"]), "--param", repr(wl["param"]),
        "--mode", wl["mode"], "--domains", str(wl["domains"]),
        "--gen-seed", str(pin["gen_seed"]),
        "--expect-verdict", pin["verdict"], "--expect-digest", pin["digest"],
        "--seconds", repr(seconds),
    ]
    if trace:
        cmd += ["--trace", trace]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=45 + seconds)
    except subprocess.TimeoutExpired:
        die("a measuring process timed out")
    if p.returncode != 0 or not p.stdout.strip():
        die(f"measuring process exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def untraced(name, wl, pin, deadline):
    procs = []
    for k in range(WORKERS):
        procs.append(worker(name, wl, pin, (deadline - time.time()) / (WORKERS - k)))
    runs = [r for p in procs for r in p["runs"]]
    walls = [r["wall_s"] for r in runs]
    metrics = {
        "run_s": (median(walls), "s"),
        "setup_s": (median(p["setup_s"] for p in procs), "s"),
        "alloc_mw": (median(r["alloc_mw"] for r in runs), "Mwords"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in procs), "MB"),
    }
    notes = {
        "run_s": f"median of {len(walls)} runs, min {min(walls):.4f} max {max(walls):.4f}, "
                 f"CPU {median(r['cpu_s'] for r in runs):.4f} s",
        "setup_s": f"median of {WORKERS} processes",
        "alloc_mw": f"median of {len(runs)} runs",
        "peak_rss_mb": f"median of {WORKERS} processes, each read after its first tester run",
    }
    return procs, metrics, notes


def self_times(path):
    """Per span name (phase numbers folded): calls, total and self seconds."""
    with open(path) as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    child = {}
    for e in events:
        parent = e["args"]["parent"]
        child[parent] = child.get(parent, 0) + e["dur"]
    table = {}
    for e in events:
        key = re.sub(r"-\d+$", "", e["name"])
        calls, total, own = table.get(key, (0, 0, 0))
        table[key] = (calls + 1, total + e["dur"], own + e["dur"] - child.get(e["args"]["span_id"], 0))
    return table


LAYER = {
    "setup": "perfbench", "graphlib.gen": "graphlib", "graphlib.load": "graphlib",
    "planarity.lr": "planarity", "warmup": "tester (whole run)", "rep": "perfbench",
    "harness.run": "tester.harness", "stage1": "partition", "stage1.phase": "partition",
    "stage2": "tester.stage2", "report": "report",
}
SETUP_SPANS = ("setup", "graphlib.gen", "graphlib.load", "planarity.lr", "warmup")


def traced(name, wl, pin, deadline, seed):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
    p = worker(name, wl, pin, deadline - time.time(), trace=path)
    t = p["traced"]

    def m(key):
        return median(r[key] for r in t)

    # runs[i] and traced[i] are the two halves of rep i, and the second run
    # of a rep tends to be the slower one.  Reps 2k and 2k+1 run the two
    # orders once each, so their summed walls cancel that out.
    walls = [(pl["wall_s"], tr["wall_s"]) for pl, tr in zip(p["runs"], t)]
    couples = [walls[i:i + 2] for i in range(0, max(len(walls) - 1, 1), 2)]
    overhead = [sum(tr for _, tr in c) / sum(pl for pl, _ in c) - 1 for c in couples]
    metrics = {
        "graphlib.gen_s": (p["gen_s"], "s"),
        "graphlib.load_s": (p["load_s"], "s"),
        "planarity.lr_s": (p["lr_s"], "s"),
        "stage1.s": (m("stage1_s"), "s"),
        "stage1.alloc_mw": (m("stage1_mw"), "Mwords"),
        "stage1.rounds": (m("stage1_rounds"), "count"),
        "stage1.messages": (m("stage1_messages"), "count"),
        "stage1.us_per_round": (median(r["stage1_s"] / r["stage1_rounds"] * 1e6 for r in t), "us"),
        "stage1.ns_per_msg": (median(r["stage1_s"] / r["stage1_messages"] * 1e9 for r in t), "ns"),
        "stage2.s": (m("stage2_s"), "s"),
        "stage2.share": (median(r["stage2_s"] / r["wall_s"] for r in t), "ratio"),
        "stage2.alloc_mw": (m("stage2_mw"), "Mwords"),
        "stage2.rounds": (median(r["rounds"] - r["stage1_rounds"] for r in t), "count"),
        "stage2.messages": (median(r["messages"] - r["stage1_messages"] for r in t), "count"),
        "harness.other_s": (
            median(r["wall_s"] - r["stage1_s"] - r["stage2_s"] - r["report_s"] for r in t), "s"),
        "report.s": (m("report_s"), "s"),
        "congest.rounds_per_s": (median(r["rounds"] / r["harness_s"] for r in t), "1/s"),
        "congest.msgs_per_s": (median(r["messages"] / r["harness_s"] for r in t), "1/s"),
        "congest.ff_frac": (median(r["ff_rounds"] / r["rounds"] for r in t), "ratio"),
        "congest.cpu_util": (median(r["cpu_s"] / (r["wall_s"] * wl["domains"]) for r in t), "ratio"),
        "gc.major_collections": (m("major_collections"), "count"),
        "gc.top_heap_mb": (p["top_heap_mb"], "MB"),
        "trace_overhead_frac": (median(overhead), "ratio"),
    }
    notes = {k: f"median of {len(t)} traced runs" for k in metrics}
    for k in ("graphlib.gen_s", "graphlib.load_s", "planarity.lr_s", "gc.top_heap_mb"):
        notes[k] = "one set-up"
    notes["trace_overhead_frac"] = (
        f"median over {len(overhead)} couples of reps (one of each order) of traced / "
        f"untraced wall - 1: {' '.join(f'{x:+.4f}' for x in overhead)}")
    return [p], metrics, notes, path


def print_self_times(path):
    print(f"self time per span (traced wall = stage1 + stage2 + report + harness.other); "
          f"spans in {path}")
    print(f"  {'span':<16}{'layer':<20}{'calls':>6}{'total ms/call':>15}"
          f"{'self ms/call':>14}{'self/rep':>10}")
    table = self_times(path)
    rep_us = table["rep"][1]
    for key, (calls, total, own) in table.items():
        share = "-" if key in SETUP_SPANS else f"{own / rep_us:.4f}"
        print(f"  {key:<16}{LAYER[key]:<20}{calls:>6}{total / calls / 1e3:>15.3f}"
              f"{own / calls / 1e3:>14.3f}{share:>10}")


def main():
    ap = argparse.ArgumentParser(description="Measure one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be > 0")
    if not os.path.isfile(PINS):
        die(f"{PINS} not found: run from the root of a repository checkout")
    with open(PINS) as fh:
        workloads = json.load(fh)["workloads"]
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r} (known: {', '.join(workloads)})")
    build()
    deadline = time.time() + args.seconds
    wl = workloads[args.workload]
    pin = wl["pins"][args.seed % len(wl["pins"])]
    load_before = loadavg()
    if args.trace:
        procs, metrics, notes, spans = traced(args.workload, wl, pin, deadline, args.seed)
    else:
        procs, metrics, notes = untraced(args.workload, wl, pin, deadline)
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    p0 = procs[0]
    print(f"workload {args.workload}: {wl['family']} n={p0['n']} m={p0['m']} "
          f"param={wl['param']} gen-seed={pin['gen_seed']}, mode {wl['mode']}, "
          f"domains {wl['domains']}, eps 0.1, tester seed 3")
    print(f"outcome: {p0['verdict']} rounds={p0['rounds']} messages={p0['messages']} "
          f"digest={p0['digest']} (pinned {pin['verdict']} {pin['digest']})")
    print(f"host: nproc {os.cpu_count()}, load {load_before} before, {loadavg()} after, "
          f"ocaml {p0['ocaml']}, git {git_commit()}")
    if args.trace:
        print_self_times(spans)
    for k, (v, unit) in metrics.items():
        print(f"  {k:<22}{v:>16.6g} {unit:<7} {notes[k]}")
    print(f"  {'fail_frac':<22}{failed / attempted:>16.6g} {'ratio':<7} "
          f"{failed} of {attempted} tester runs off their pin")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
