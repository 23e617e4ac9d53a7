#!/usr/bin/env python3
"""End-to-end benchmark for Canopy: training, certified evaluation and
fleet serving, with traced per-layer breakdowns.

One run of one workload (the benchmark contract):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the measuring program (perfbench/canopy_perf.ml) from the checkout
with dune, runs it, turns its raw measurements into the metrics that
BENCHMARK.json names, checks the outputs, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.

Other commands:

    python3 perfbench/run.py report [--runs N] [--seconds S] [--workload W]...
        runs every workload N times (seeds 1..N) plus one traced run, and
        prints each metric's median, quartiles and sample count per
        workload, then the per-layer table with each span's share.
    python3 perfbench/run.py regen
        rebuilds the committed policy inputs from the recorded seed and
        records their checksums in perfbench/manifest.json.

The statistics, checks and report live here; perfbench/test_run.py tests
them (python3 perfbench/test_run.py).
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
MANIFEST_PATH = HERE / "manifest.json"
EXE_TARGET = "./perfbench/canopy_perf.exe"
EXE_PATH = ROOT / "_build" / "default" / "perfbench" / "canopy_perf.exe"

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

SPEC_KEYS = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# Quality figures that are fractions.
UNIT_INTERVAL = ("utilization", "loss_rate", "fcc", "fcs")

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# Timings are reported as on a host where the CALIB_Q-quantile of the
# calibration kernel's trials takes CALIB_REF_MS: about the development
# host (a 2-vCPU Intel Xeon VM) in its faster stretches, so the figures
# read close to its own.
CALIB_REF_MS = 1.4
CALIB_Q = 0.10
TIME_UNITS = ("s", "ms", "us", "ns")


class BenchError(Exception):
    """The benchmark cannot produce a result (no checkout, build failed)."""


# ---------------------------------------------------------------------------
# BENCHMARK.json


def validate_spec(spec):
    """Return the list of problems with a BENCHMARK.json document."""
    problems = []
    if not isinstance(spec, dict) or sorted(spec) != sorted(SPEC_KEYS):
        return ["keys must be exactly " + ", ".join(SPEC_KEYS)]
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command: 1 to 32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        problems.append("command: no absolute paths or '..'")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH_RE.match(p)
                    and ".." not in p.split("/") for p in paths)):
        problems.append("paths: 1 to 16 relative directory names")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    names = []

    def check_list(key, lo, hi, fields, each):
        items = spec[key]
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            problems.append(f"{key}: {lo} to {hi} entries")
            return
        for item in items:
            if not isinstance(item, dict) or sorted(item) != sorted(fields):
                problems.append(f"{key}: entries have exactly {', '.join(fields)}")
                continue
            name = item["name"]
            if not (isinstance(name, str) and NAME_RE.match(name)):
                problems.append(f"{key}: bad name {name!r}")
            names.append(name)
            each(item)

    def check_workload(w):
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            problems.append(f"workload {w['name']}: why is one line of at most 200 characters")

    def check_metric(m, bounded):
        if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
            problems.append(f"metric {m['name']}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: better is lower or higher")
        if bounded:
            b = m["bound"]
            if not (isinstance(b, (int, float)) and not isinstance(b, bool)
                    and 0 < b <= 0.25):
                problems.append(f"metric {m['name']}: bound in (0, 0.25]")

    check_list("workloads", 2, 8, ["name", "why"], check_workload)
    check_list("end_to_end", 1, 16, ["name", "unit", "better", "bound"],
               lambda m: check_metric(m, True))
    check_list("per_layer", 1, 128, ["name", "unit", "better"],
               lambda m: check_metric(m, False))
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:
        problems.append("names used more than once: " + ", ".join(map(str, dups)))
    setup = [m for m in spec["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end: setup_s with unit s, better lower, is required")
    if len(dump_spec(spec).encode()) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    return problems


def dump_spec(spec):
    return json.dumps(spec, indent=2) + "\n"


def load_spec(path=SPEC_PATH):
    spec = json.loads(Path(path).read_text())
    problems = validate_spec(spec)
    if problems:
        raise BenchError(f"{path}: " + "; ".join(problems))
    return spec


def load_manifest(path=MANIFEST_PATH):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Statistics


def tail_supported(n, q):
    """True when the q-quantile of n samples has TAIL_SAMPLES beyond it."""
    return round(n * (1.0 - q), 9) >= TAIL_SAMPLES


def percentile(samples, q):
    """Linearly interpolated q-quantile (0 <= q <= 1) of the samples."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """(q1, median, q3) as the benchmark's spread rule takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# From raw measurements to the result line


def best_units(reps):
    """Each unit's fastest latency over the repeats of a run. The repeats
    do the same work unit for unit, so a unit's spread over them is the
    host's doing: a shared host slows the program for a fraction of a
    second to tens of seconds at a time, by up to 1.6x, and of the
    estimators tried (pooled quantiles, per-repeat quantiles, per-unit
    medians) the fastest repeat moved least from run to run."""
    return [min(col) for col in zip(*(r["unit_ms"] for r in reps))]


def throughput(reps):
    """Decisions per second: one repeat's decisions over the summed
    fastest latencies of its units."""
    total_s = sum(best_units(reps)) / 1e3
    return reps[0]["decisions"] / total_s if total_s > 0 else math.nan


def step_quantile(reps, q):
    """The q-quantile of the units' fastest latencies, or None when fewer
    than TAIL_SAMPLES of the run's samples (units x repeats) lie beyond
    it."""
    if tail_supported(len(reps[0]["unit_ms"]) * len(reps), q):
        return percentile(best_units(reps), q)
    return None


def setup_time(reps):
    """The fastest set-up trial of the run. Train's set-up, microseconds
    long, reads about 9 or 17 us per repeat, switching between repeats of
    one process; the fastest of all trials is the figure every run
    reaches."""
    return min(x for r in reps for x in r["setup_s"])


def host_scale(raw):
    """The factor that brings the run's timings to the reference host:
    CALIB_REF_MS over the CALIB_Q-quantile of the calibration kernel's
    trials (a fixed piece of work that uses none of the libraries, timed
    at the start of every repeat). The fastest unit of a run cannot be
    faster than the host is during that run, and the host drifts by a
    quarter over minutes; scaled by the kernel, the figures of ten runs
    spread half as much. The low quantile, rather than the fastest trial,
    because the fastest of a hundred trials is itself an outlier."""
    return CALIB_REF_MS / percentile(raw["calib_ms"], CALIB_Q)


def calibrated(value, unit, scale):
    """A timing in TIME_UNITS or a rate in 1/s, brought to the reference
    host; any other value as it is."""
    if unit in TIME_UNITS:
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def end_to_end_values(raw):
    """The end-to-end metrics of one run, and the problems found."""
    reps = raw["repeats"]
    problems = []
    if len({len(r["unit_ms"]) for r in reps}) != 1:
        problems.append("repeats timed different numbers of units")
    if len({r["decisions"] for r in reps}) != 1:
        problems.append("repeats made different numbers of decisions")
    values = {
        "setup_s": setup_time(reps),
        "decisions_per_s": throughput(reps),
        "peak_heap_mb": raw["peak_heap_mb"],
    }
    for name, q in (("step_p50_ms", 0.50), ("step_p95_ms", 0.95)):
        v = step_quantile(reps, q)
        if v is None:
            problems.append(f"too few step latencies for {name}")
        else:
            values[name] = v
    quality = reps[0]["quality"]
    values.update(quality)
    # Gated as complements, which are never 0: a loss rate or a fully
    # certified share can be exactly 0 (a short training run), and a
    # relative bound on 0 gates nothing.
    for name, of in (("delivered_frac", "loss_rate"), ("uncertified_step_frac", "fcs")):
        if of in quality:
            values[name] = 1.0 - quality[of]
    return values, problems


def repeat_problems(reps):
    """Output checks over the repeats of one run: their digests, and the
    quality figures of every repeat that computed them, must agree bit for
    bit (the work is deterministic), and every fraction must lie in
    [0, 1]."""
    problems = []
    first = reps[0]
    if not first["quality"]:
        problems.append("repeat 1 has no quality figures")
    for i, r in enumerate(reps[1:], start=2):
        if r["digest"] != first["digest"]:
            problems.append(f"repeat {i} digest {r['digest']} != {first['digest']}")
        if r["quality"] and r["quality"] != first["quality"]:
            problems.append(f"repeat {i} quality differs from repeat 1")
    for name in UNIT_INTERVAL:
        v = first["quality"].get(name)
        if v is not None and not 0.0 <= v <= 1.0:
            problems.append(f"{name} = {v} is outside [0, 1]")
    return problems


def assemble(raw, metrics_spec, applies_to=None):
    """Build the result line from one raw run.

    metrics_spec is the BENCHMARK.json list to report (end_to_end for an
    untraced run, per_layer for a traced one). A per-layer metric that does
    not apply to the workload (applies_to) reads 0: the layer did no work.
    Any failed check fails every unit of work the run attempted."""
    reps = raw["repeats"]
    attempted = sum(r["units"] for r in reps)
    problems = repeat_problems(reps)
    if raw["calib_ms"]:
        scale = host_scale(raw)
    else:
        problems.append("no calibration trials")
        scale = 1.0
    if raw["traced"]:
        values = dict(raw["layers"])
        for m in metrics_spec:
            applies = applies_to is None or raw["workload"] in applies_to.get(m["name"], [])
            if m["name"] not in values:
                if applies:
                    problems.append(f"layer metric {m['name']} missing")
                values[m["name"]] = 0.0
    else:
        values, more = end_to_end_values(raw)
        problems += more
    metrics = {}
    for m in metrics_spec:
        v = values.get(m["name"])
        if v is None:
            problems.append(f"metric {m['name']} missing")
            v = 0.0
        elif not math.isfinite(v):
            problems.append(f"metric {m['name']} is not finite")
            v = 0.0
        metrics[m["name"]] = {"value": calibrated(v, m["unit"], scale), "unit": m["unit"]}
    failed = attempted if problems else 0
    return {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }, problems


# ---------------------------------------------------------------------------
# Building and running the measuring program


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        raise BenchError(f"{ROOT} is not a Canopy checkout (no dune-project or lib/)")
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", EXE_TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not EXE_PATH.is_file():
        raise BenchError("building the measuring program failed")


def measure(workload, seed, seconds, trace, manifest):
    """Run the measuring program once; return its raw measurements."""
    inputs = manifest["inputs"]
    cmd = [str(EXE_PATH), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--inputs", str(ROOT / inputs["dir"]),
           "--actor-crc", inputs["actor.ckpt"], "--tree-crc", inputs["tree.ckpt"]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: measuring program exited {proc.returncode}")
    return json.loads(lines[-1])


def run_once(workload, seed, seconds, trace, spec, manifest):
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r} (one of {', '.join(names)})")
    raw = measure(workload, seed, seconds, trace, manifest)
    metrics_spec = spec["per_layer"] if trace else spec["end_to_end"]
    result, problems = assemble(raw, metrics_spec, manifest.get("applies_to"))
    return result, problems, raw


# ---------------------------------------------------------------------------
# Commands


def cmd_run(args):
    spec = load_spec()
    manifest = load_manifest()
    build()
    result, problems, raw = run_once(args.workload, args.seed, args.seconds,
                                     args.trace, spec, manifest)
    if raw["calib_ms"]:
        print(f"host scale {host_scale(raw):.4f} (timings x, rates /)", file=sys.stderr)
    for p in problems:
        print("check failed: " + p, file=sys.stderr)
    print(json.dumps(result))


def fmt(v):
    return f"{v:.6g}"


def cmd_report(args):
    spec = load_spec()
    manifest = load_manifest()
    build()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs, traced = {}, {}
    for w in workloads:
        for seed in range(1, args.runs + 1):
            runs.setdefault(w, []).append(
                run_once(w, seed, args.seconds, 0, spec, manifest)[0])
        traced[w] = run_once(w, 1, args.seconds, 1, spec, manifest)
    print(f"end-to-end metrics: {args.runs} runs per workload, "
          f"{args.seconds} s each; median [q1, q3], spread = (q3-q1)/median, n")
    for m in spec["end_to_end"]:
        print(f"\n{m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']})")
        for w in workloads:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else math.inf
            print(f"  {w:<16} {fmt(med):>12} [{fmt(q1)}, {fmt(q3)}]"
                  f"  spread {spread:.4f}  n={len(vals)}")
    for w in workloads:
        bad = [r for r in runs[w] if not r["correct"]]
        att = sum(r["attempted"] for r in runs[w])
        fail = sum(r["failed"] for r in runs[w])
        print(f"\n{w}: {len(bad)} incorrect runs; error_rate {fail}/{att}")
    applies = manifest.get("applies_to", {})
    print("\nper-layer metrics (one traced run, seed 1)")
    for w, (r, problems, raw) in traced.items():
        ms = {k: v["value"] for k, v in r["metrics"].items()}
        print(f"\n{w}: self-check {'passed' if r['correct'] else 'FAILED'}"
              + "".join("; " + p for p in problems))
        for m in spec["per_layer"]:
            if w in applies.get(m["name"], []):
                print(f"  {m['name']:<34} {fmt(ms[m['name']]):>12} {m['unit']}")
        print("  share of the traced loop's time:")
        for name, share in raw["shares"].items():
            print(f"    {name:<32} {100.0 * share:6.1f}%")


def cmd_regen(_args):
    manifest = load_manifest()
    build()
    inputs = manifest["inputs"]
    proc = subprocess.run(
        [str(EXE_PATH), "regen", "--out", str(ROOT / inputs["dir"]),
         "--seed", str(inputs["regen_seed"])],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    crcs = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("actor.ckpt", "tree.ckpt"):
        inputs[name] = crcs[name]
    MANIFEST_PATH.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"regenerated {inputs['dir']}: actor.ckpt {crcs['actor.ckpt']}, "
          f"tree.ckpt {crcs['tree.ckpt']}")


def main(argv):
    if argv and argv[0] == "report":
        p = argparse.ArgumentParser(prog="run.py report")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--seconds", type=int, default=None)
        p.add_argument("--workload", action="append")
        args = p.parse_args(argv[1:])
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return cmd_report(args)
    if argv and argv[0] == "regen":
        return cmd_regen(argv[1:])
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
