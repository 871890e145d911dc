#!/usr/bin/env python3
"""Campaign benchmark for onebit.

Builds perfbench/bench.exe from the checkout's sources, runs one workload
(or all of them) and prints every metric by name with its unit, then one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Everything the benchmark writes goes under perfbench/_build
(the dune build) and perfbench/_out (raw and summarised results, with the
host context of each run).  README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "_build")
OUT = os.path.join(HERE, "_out")
DIGESTS = os.path.join(HERE, "digests")
EXE = os.path.join(BUILD, "default", "perfbench", "bench.exe")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150

# Fresh-process set-ups per untraced run, half before and half after the
# measured process; setup_s is the median of their normalised times
# (bench.ml explains the normalisation).
SETUP_SAMPLES = 20


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    # The program's own defaults, not the caller's ONEBIT_* settings, and
    # no dune cache outside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ONEBIT_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s at %s: run from the root of a onebit checkout" % (need, ROOT))
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "perfbench/bench.exe"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0 or not os.path.exists(EXE):
        fail("build failed:\n" + p.stdout + p.stderr)


def bench(args):
    """Run bench.exe to completion and return its standard output."""
    with subprocess.Popen([EXE] + args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as p:
        try:
            out, err = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            fail("bench.exe %s timed out" % " ".join(args))
    if p.returncode != 0:
        fail("bench.exe %s exited %d:\n%s" % (" ".join(args), p.returncode, err))
    return out


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[:3]
    except OSError:
        return []


def run_workload(spec, workload, seed, seconds, trace):
    stem = os.path.join(OUT, "%s.seed%s.trace%d" % (workload, seed, trace))
    before = loadavg()
    setups = []

    def sample_setups():
        # Each line: measured and normalised seconds.
        if not trace:
            setups.extend([float(x) for x in bench(["setup", "--workload", workload]).split()]
                          for _ in range(SETUP_SAMPLES // 2))

    sample_setups()
    bench(["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--digests", DIGESTS, "--out", stem + ".raw.json"])
    sample_setups()
    after = loadavg()
    with open(stem + ".raw.json") as f:
        raw = json.load(f)

    if trace:
        wanted = spec["per_layer"]
        values = raw["metrics"]
    else:
        wanted = spec["end_to_end"]
        setup_s = statistics.median(norm for _, norm in setups)
        campaign_s = raw["campaign_cell_median_s"]
        values = {
            "setup_s": setup_s,
            "exps_per_s": raw["exps_per_pass"] / campaign_s,
            "wall_s": setup_s + campaign_s,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("%s: no value for %s" % (workload, ", ".join(missing)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    host = {"nproc": os.cpu_count(),
            "jobs": raw["jobs"], "engine_jobs": raw["engine_jobs"],
            "ocaml": raw["ocaml"],
            "loadavg_before": before, "loadavg_after": after}
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "host": host, "setup_samples_s": setups, "raw": raw, "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump(summary, f, indent=1)

    print("%s: seed %s, jobs %d (engine pass %d), nproc %d, OCaml %s, loadavg %s -> %s"
          % (workload, seed, raw["jobs"], raw["engine_jobs"], host["nproc"], raw["ocaml"],
             "/".join(before), "/".join(after)))
    for name, m in metrics.items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for note in raw["failures"]:
        print("  FAILED: " + note)
    return raw["attempted"], raw["failed"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if a.workload == "all" else [a.workload]
    if any(w not in names for w in chosen):
        fail("unknown workload %s (one of %s, or all)" % (a.workload, ", ".join(names)))
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)

    attempted = failed = 0
    metrics = {}
    for w in chosen:
        at, fl, ms = run_workload(spec, w, a.seed, seconds, a.trace)
        attempted += at
        failed += fl
        for name, m in ms.items():
            metrics[name if len(chosen) == 1 else w + "." + name] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
