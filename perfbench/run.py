#!/usr/bin/env python3
"""qnnckpt benchmark: closed-loop preemptible training against the checkpointer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload params-sync --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR (default .bench_build), checks that the workload
configuration compiled into the binary matches perfbench/design.json,
runs one workload and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.
--trace 1 reports the per-layer metrics: the binary runs the loop again
with every sink attached and writes a Chrome trace, which this script
validates with bench/check_trace.py and breaks down by span (count, self
time, and the span-derived metrics below); the table goes to stderr.

Exit status 0 only when every resume was bit-exact, no operation failed,
the workload self-checks passed and (traced) the trace validated.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "qnnbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "qnnbench",
                    "-j", BUILD_JOBS], stdout=sys.stderr, check=True)


def check_design():
    """The configuration the binary runs must be the one design.json records."""
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as f:
        design = json.load(f)
    recorded = {w["name"]: w["config"] for w in design["workloads"]}
    out = subprocess.run([BINARY, "--print-config"], capture_output=True,
                         text=True, check=True).stdout
    compiled = json.loads(out)
    if compiled != recorded:
        for name in sorted(set(compiled) | set(recorded)):
            if compiled.get(name) != recorded.get(name):
                log(f"design drift in {name}:\n  compiled {compiled.get(name)}"
                    f"\n  recorded {recorded.get(name)}")
        raise SystemExit("perfbench/design.json does not match the binary")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


# --- trace breakdown ------------------------------------------------------

def parse_spans(events):
    """B/E pairs -> spans with parent links; recovery instants per resume."""
    spans, by_id, stacks = [], {}, {}
    recoveries, open_recovery = [], {}
    for ev in events:
        ph, tid, ts = ev["ph"], ev["tid"], ev["ts"]
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            args = ev.get("args", {})
            sp = {"name": ev["name"], "start": ts, "end": ts, "children": [],
                  "parent": int(args.get("parent", 0)),
                  "enclosing": stack[-1] if stack else None}
            stack.append(sp)
            spans.append(sp)
            by_id[int(args.get("span", 0))] = sp
            if ev["name"] == "recover_latest":
                open_recovery[tid] = {"start": ts}
        elif ph == "E":
            sp = stack.pop()
            sp["end"] = ts
            if sp["name"] == "recover_latest" and tid in open_recovery:
                recoveries.append(open_recovery.pop(tid))
        elif ph == "i" and tid in open_recovery:
            open_recovery[tid][ev["name"]] = ts
    for sp in spans:
        parent = by_id.get(sp["parent"]) if sp["parent"] else sp["enclosing"]
        if parent is not None:
            parent["children"].append(sp)
    return spans, recoveries


def covered(sp):
    """Length of sp's interval covered by the union of its children."""
    cuts = sorted((max(c["start"], sp["start"]), min(c["end"], sp["end"]))
                  for c in sp["children"])
    total, reach = 0, sp["start"]
    for a, b in cuts:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def span_metrics(trace_path, info):
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans, recoveries = parse_spans(events)
    table = {}
    for sp in spans:
        row = table.setdefault(sp["name"], [0, 0, 0])
        dur = sp["end"] - sp["start"]
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered(sp)
    log(f"{'span':<26}{'count':>9}{'total_ms':>12}{'self_ms':>12}"
        f"{'self_us_each':>14}")
    for name, (n, total, self_us) in sorted(table.items(),
                                            key=lambda kv: -kv[1][2]):
        log(f"{name:<26}{n:>9}{total / 1e3:>12.3f}{self_us / 1e3:>12.3f}"
            f"{self_us / n:>14.2f}")

    ckpts = max(1, info["checkpoints"])
    resumes = max(1, len(recoveries))
    ckpt_total = table.get("checkpoint", [0, 0, 0])[1]
    ckpt_self = table.get("checkpoint", [0, 0, 0])[2]

    def mean_gap(first, second):
        gaps = [r[second] - r[first] for r in recoveries
                if first in r and second in r]
        return sum(gaps) / resumes

    return {
        "ckpt.unattributed_share": (ckpt_self / ckpt_total, "ratio")
        if ckpt_total else (0.0, "ratio"),
        "gc.us_per_ckpt": (table.get("gc.collect", [0, 0])[1] / ckpts, "us"),
        "tier.migrate_us_per_ckpt": (table.get("demote", [0, 0])[1] / ckpts,
                                     "us"),
        "recovery.scan_us": (mean_gap("start", "manifest.scan"), "us"),
        "recovery.resolve_us": (mean_gap("candidate.try", "chain.resolved"),
                                "us"),
        "recovery.replay_us": (mean_gap("chain.resolved", "recovered"), "us"),
        "wal.replay_us_per_resume": (mean_gap("chain.resolved", "wal.replay"),
                                     "us"),
    }


# --- main -----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    check_design()

    env = dict(os.environ)
    env["QNNCKPT_THREADS"] = "2"
    for var in ("QNNCKPT_FORCE_SCALAR_CRC", "QNNCKPT_TRACE"):
        env.pop(var, None)
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True, env=env,
            timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            log(f"qnnbench exited {proc.returncode} without a result")
            return 1
        result = json.loads(lines[-1])
        correct = result["correct"] and proc.returncode == 0
        trace = result.pop("trace", None)
        if trace is not None:
            check = subprocess.run(
                [sys.executable, os.path.join(ROOT, "bench", "check_trace.py"),
                 trace["file"]], stdout=sys.stderr)
            correct = correct and check.returncode == 0
            for name, (value, unit) in span_metrics(trace["file"],
                                                    trace).items():
                result["metrics"][name] = {"value": value, "unit": unit}
        missing = expected_metrics(args.trace) - set(result["metrics"])
        if missing:
            log(f"metrics missing from the result: {sorted(missing)}")
            correct = False
        result["correct"] = correct
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
