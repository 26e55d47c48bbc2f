#!/usr/bin/env python3
"""alqr benchmark: what a Monte Carlo run costs, end to end and per layer.

    python3 perfbench/run.py --workload mc_long --seed 0 --seconds 60 --trace 0

Run it from the root of a checkout. It drives alqr from outside, from the
sources under ``src/``, and changes nothing there. One *unit* is a fresh
interpreter running ``alqr simulate`` on the workload, followed by a second
fresh interpreter running ``alqr analyze`` (trial logs on) or ``alqr
verify`` (trial logs off). Units repeat until ``--seconds`` is spent;
every unit's outputs are checked. Every process of a run is pinned to one
CPU, and a fixed reference loop (``reference_loop``) is timed before,
between and after a unit's two processes. Each timing is the mean over the
units that passed, given at a fixed host speed (``at_reference_speed``);
peak_rss_mb is their median. ``--seed`` is passed to alqr only as
``base_seed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced unit, both at one worker, and reports per-layer
totals from the traced one (see tracer.py); the traced outputs must equal
the untraced ones byte for byte and the per-layer counts must repeat
exactly across traced units.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller report, with the
environment, every unit, tail percentiles and whether the outputs match
the recorded bytes, goes to ``.perfbench_work/BENCH_<workload>_...json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

# every process of the run, this one included, gets one BLAS thread, so
# none of them runs more threads than the one CPU the run is pinned to
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
RECORDED = os.path.join(HERE, "recorded.json")
UNIT_TIMEOUT_S = 120
# every run is pinned to one CPU, so every workload, traced or not, runs
# alqr at one worker
WORKERS = 1


@dataclass(frozen=True)
class Workload:
    """One alqr simulate command line, and whether its logs are analyzed."""

    config: str
    overrides: tuple[str, ...]
    trials: int
    horizon: int
    logs: bool


# Why these two (README.md has the longer account, and says why an
# every-step workload was dropped and why mc_long runs at one worker):
# - mc_long: the shape of the acceptance long_run (reference plant, logs
#   off, several trials at a long horizon), cut so a unit takes a second or
#   two. The per-step Python loop does nearly all the work.
# - logs_roundtrip: 8x4 plant with trial logs written by simulate and read
#   back by analyze; the only workload that runs records, regret and the
#   analyze command.
WORKLOADS = {
    "mc_long": Workload(
        config="configs/reference.json",
        overrides=("write_trial_logs=false",),
        trials=4, horizon=12_500, logs=False),
    "logs_roundtrip": Workload(
        config="configs/standin_8x4.json",
        overrides=("write_trial_logs=true",),
        trials=3, horizon=2_500, logs=True),
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ns_per_trial_step": "ns",
    "analyze_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
}

# Timings given at a fixed host speed. The shared 2-vCPU host this was
# written on flips between a fast and a slow state about 1.8x apart, for
# seconds to minutes at a time, so one run can fall wholly in either. A
# fixed loop of small numpy operations, timed on the same CPU between the
# run's processes, slows down with the host as alqr's own per-step loop
# does. A run's mean timing is scaled by REFERENCE_S over the loop's mean
# time in that run. The state can flip inside a unit, so the loop timings
# around one unit say little about it; the run's means do.
REFERENCE_STEPS = 12_000
REFERENCE_S = 0.05
SCALED = ("setup_s", "wall_s", "ns_per_trial_step", "analyze_s", "cpu_s")

# layers traced as spans; each reports calls, total_s and self_s
LAYERS = (
    "plant.step", "plant.draw_process_noise", "plant.draw_probe_noise",
    "controller.compute_input", "controller.update_gain",
    "estimator.absorb", "estimator.estimate",
    "control_math.solve_dare", "control_math.controllability_rank",
    "control_math.stability_margin",
    "diagnostics.compute_trial_diagnostics", "diagnostics.detect_t_stab",
    "harness.run_trial", "harness.run_experiment",
    "records.save_trial_csv", "records.load_trial_csv",
    "records.save_gain_sidecar", "records.load_gain_sidecar",
    "regret.decompose_at", "cli.main.simulate", "cli.main.analyze",
    "config.load_config_file", "config.parse_config_document",
)

# exact event counts recorded by the tracer's after-hooks
COUNTS = {
    "controller.update_gain.fired": "count",
    "controller.gain_updates_nonzero": "count",
    "controller.breaker_triggers": "count",
    "controller.breaker_dwell_steps": "count",
    "control_math.solve_dare.iterations": "count",
    "diagnostics.detect_t_stab.segments": "count",
    "regret.decompose_at.checkpoints": "count",
    "records.save_trial_csv.bytes": "bytes",
    "records.load_trial_csv.bytes": "bytes",
    "records.save_gain_sidecar.bytes": "bytes",
}

DERIVED = {
    "harness.trial_steps": "count",
    "control_math.solve_dare.failures": "count",
    "controller.gain_updates_nonzero_ratio": "ratio",
    "records.save_trial_csv.mb_per_s": "MB/s",
    "records.load_trial_csv.mb_per_s": "MB/s",
    "setup.import_s": "s",
    "trace.root_s": "s",
    "trace.unattributed_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTS)
    units.update(DERIVED)
    return units


# --- statistics --------------------------------------------------------------


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it.

    Returns (percentile, value) by the nearest-rank rule, or None when
    fewer than twenty samples leave no such percentile.
    """
    values = sorted(samples)
    n = len(values)
    best = None
    for per_mille in (500, 900, 990, 999):
        rank = -(-per_mille * n // 1000)  # ceil(p n), 1-based
        if n - rank >= 10:
            best = (per_mille / 10, values[rank - 1])
    return best


def ns_per_trial_step(simulate_s: float, trials: int, horizon: int) -> float:
    return simulate_s / (trials * horizon) * 1e9


def reference_loop(steps: int = REFERENCE_STEPS) -> float:
    """Seconds this process takes for a fixed loop; no alqr code runs.

    The loop has the shape of alqr's per-step work (3x2 matrix-vector
    products and a Gaussian draw per step), so host slowdowns hit it as
    they hit a trial.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) * 0.3
    b = rng.standard_normal((3, 2))
    k = rng.standard_normal((2, 3)) * 0.1
    x = np.zeros(3)
    t0 = time.perf_counter()
    for _ in range(steps):
        u = -(k @ x)
        x = a @ x + b @ u + rng.standard_normal(3)
    return time.perf_counter() - t0


def at_reference_speed(seconds, loop_seconds) -> float:
    """Mean of ``seconds``, rescaled from a host on which the reference
    loop took ``loop_seconds`` (mean of the timings) to one on which it
    takes REFERENCE_S."""
    return (statistics.fmean(seconds) * REFERENCE_S
            / statistics.fmean(loop_seconds))


def self_time_gap(layers: dict) -> float:
    """Root total minus the sum of every span's self time (0 if balanced)."""
    return layers[ROOT_SPAN][1] - sum(rec[2] for rec in layers.values())


# --- processes ---------------------------------------------------------------


def steal_ticks() -> int | None:
    """Host steal ticks summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


@dataclass
class Proc:
    """One finished child: its own result file plus what the parent saw."""

    rc: int
    result: dict
    stdout: str
    stderr: str
    t_spawn: float
    t_exit: float
    cpu_s: float
    peak_rss_mb: float


def _kill_group(pid: int) -> None:
    """Kill a child and the pool workers in its session."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(role: str, unit_dir: str, args: list[str], trace: bool) -> Proc:
    """Run child.py in a fresh interpreter and wait for it and its pool.

    CPU time and peak RSS come from wait4's rusage, which covers the child
    and every worker process it waited for.
    """
    result_path = os.path.join(unit_dir, role + ".result.json")
    out_path = os.path.join(unit_dir, role + ".stdout")
    err_path = os.path.join(unit_dir, role + ".stderr")
    cmd = [sys.executable, CHILD, "--src", SRC, "--result", result_path,
           *(["--trace"] if trace else []), role, *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(UNIT_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Proc(rc=proc.returncode if proc.returncode else result.get("rc", -1),
                result=result, stdout=stdout, stderr=stderr,
                t_spawn=t_spawn, t_exit=t_exit,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0)


def simulate_args(wl: Workload, out_dir: str, seed: int) -> list[str]:
    overrides = (*wl.overrides, f"trials={wl.trials}",
                 f"horizon={wl.horizon}", f"base_seed={seed}")
    args = ["--out", out_dir, "--", "--config", os.path.join(ROOT, wl.config),
            "--workers", str(WORKERS)]
    for override in overrides:
        args += ["--set", override]
    return args


# --- one unit ------------------------------------------------------------------


def run_unit(wl: Workload, seed: int, unit_dir: str, trace: bool,
             recorded: dict | None) -> dict:
    """simulate, then analyze or verify; returns metrics and problems."""
    os.makedirs(unit_dir)
    out_dir = os.path.join(unit_dir, "out")
    steal0 = steal_ticks()
    ref0 = reference_loop()
    sim = spawn("simulate", unit_dir, simulate_args(wl, out_dir, seed),
                trace)
    ref1 = reference_loop()
    if wl.logs:
        second = spawn("analyze", unit_dir, ["--out", out_dir], trace)
    else:
        second = spawn("verify", unit_dir, [], False)
    ref2 = reference_loop()
    steal1 = steal_ticks()

    unit = {"traced": trace, "problems": [],
            "reference_s": [ref0, ref1, ref2],
            "steal_ticks": (steal1 - steal0
                            if steal0 is not None and steal1 is not None
                            else None)}
    for proc, role in ((sim, "simulate"), (second, "second")):
        if proc.rc != 0 or "t_done" not in proc.result:
            unit["problems"].append(
                f"{role} exited {proc.rc}: {proc.stderr.strip()[-2000:]}")
    if unit["problems"]:
        return unit

    simulate_s = sim.result["t_done"] - sim.result["t_ready"]
    analyze_s = second.t_exit - second.t_spawn
    unit["metrics"] = {
        "setup_s": sim.result["t_ready"] - sim.t_spawn,
        "wall_s": simulate_s + (analyze_s if wl.logs else 0.0),
        "ns_per_trial_step": ns_per_trial_step(simulate_s, wl.trials,
                                               wl.horizon),
        "analyze_s": analyze_s,
        "cpu_s": sim.cpu_s + (second.cpu_s if wl.logs else 0.0),
        "peak_rss_mb": max(sim.peak_rss_mb,
                           second.peak_rss_mb if wl.logs else 0.0),
    }
    unit["import_s"] = sim.result["t_imported"] - sim.result["t_start"]

    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "curves.csv"), encoding="utf-8") as fh:
        curves = fh.read()
    problems = check.check_summary(summary, curves, wl.trials, wl.horizon,
                                   check.oracle_j_star(sim.result["plant"]))
    if wl.logs:
        try:
            problems += check.check_analyze(json.loads(second.stdout),
                                            wl.trials)
        except json.JSONDecodeError:
            problems.append(f"analyze printed no JSON: {second.stdout!r}")
    else:
        problems += check.check_verify(second.stdout)
    hashes = check.output_hashes(out_dir)
    if wl.logs:
        hashes["analyze.stdout"] = check.sha256_file(
            os.path.join(unit_dir, "analyze.stdout"))
    if recorded is not None:
        problems += check.check_recorded(summary, recorded)
        unit["bytes_match_recorded"] = check.bytes_match(hashes, recorded)
    unit["problems"] = problems
    unit["hashes"] = hashes
    unit["summary"] = {k: summary[k] for k in
                       ("trials", "failed_trials", "j_star", "final_worst",
                        "final_median", "final_mean")}

    if trace:
        unit.update(_traced_totals((sim, second) if wl.logs else (sim,)))
        gap = self_time_gap(unit["layers"])
        if abs(gap) > 1e-6 * unit["layers"][ROOT_SPAN][1]:
            problems.append(f"layer self times miss the root span by {gap}s")
    shutil.rmtree(out_dir)
    return unit


def _traced_totals(procs) -> dict:
    """Per-layer totals summed over the traced processes of one unit."""
    layers: dict[str, list] = {}
    counts: dict[str, int] = {}
    spans: dict[str, list] = {}
    missing = set()
    for proc in procs:
        for name, rec in proc.result["layers"].items():
            total = layers.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += rec[i]
        for name, value in proc.result["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, _, dur in proc.result["spans"]:
            spans.setdefault(name, []).append(dur)
        missing.update(proc.result["missing_bindings"])
    return {"layers": layers, "counts": counts, "spans": spans,
            "missing_bindings": sorted(missing)}


# --- metrics from many units -----------------------------------------------


def end_to_end_metrics(units: list[dict]) -> dict:
    loop = [t for u in units for t in u["reference_s"]]
    values = {}
    for name in END_TO_END:
        samples = [u["metrics"][name] for u in units]
        values[name] = (at_reference_speed(samples, loop) if name in SCALED
                        else statistics.median(samples))
    return values


def exact_counts(unit: dict) -> dict:
    """The values that must repeat exactly between traced units."""
    layers = unit["layers"]
    return {"calls": {name: rec[0] for name, rec in sorted(layers.items())},
            "counts": dict(sorted(unit["counts"].items()))}


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians of the traced units' layer times; counts from the first."""
    first = traced[0]

    def med(fn):
        return statistics.median(fn(u) for u in traced)

    def rec(unit, layer):
        return unit["layers"].get(layer, (0, 0.0, 0.0))

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = rec(first, layer)[0]
        values[f"{layer}.total_s"] = med(lambda u: rec(u, layer)[1])
        values[f"{layer}.self_s"] = med(lambda u: rec(u, layer)[2])
    for name in COUNTS:
        values[name] = first["counts"].get(name, 0)
    steps = rec(first, "plant.step")[0]
    values["harness.trial_steps"] = (
        steps - first["counts"].get("plant.step.raised", 0))
    values["control_math.solve_dare.failures"] = first["counts"].get(
        "control_math.solve_dare.raised", 0)
    fired = values["controller.update_gain.fired"]
    values["controller.gain_updates_nonzero_ratio"] = (
        values["controller.gain_updates_nonzero"] / fired if fired else 0.0)
    for kind in ("save", "load"):
        layer = f"records.{kind}_trial_csv"
        seconds = values[f"{layer}.total_s"]
        values[f"{layer}.mb_per_s"] = (
            values[f"{layer}.bytes"] / seconds / 1e6 if seconds else 0.0)
    values["setup.import_s"] = med(lambda u: u["import_s"])
    values["trace.root_s"] = med(lambda u: rec(u, ROOT_SPAN)[1])
    values["trace.unattributed_s"] = med(lambda u: rec(u, ROOT_SPAN)[2])
    plain = statistics.median(u["metrics"]["wall_s"] for u in untraced)
    traced_wall = med(lambda u: u["metrics"]["wall_s"])
    values["trace.untraced_wall_s"] = plain
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_pct"] = (traced_wall / plain - 1.0) * 100.0
    return values


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": PINNED_ENV,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "reference_steps": REFERENCE_STEPS,
        "reference_s": REFERENCE_S,
    }


def summarize_samples(units: list[dict]) -> dict:
    out = {}
    for name in END_TO_END:
        samples = [u["metrics"][name] for u in units]
        out[name] = {"median": statistics.median(samples),
                     "n": len(samples), "min": min(samples),
                     "max": max(samples), "tail": tail_percentile(samples)}
    return out


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy is first imported, here or in a child
    os.environ.update(PINNED_ENV)
    os.environ.pop("ALQR_THREADS", None)
    # this process and every child share one CPU, so the reference loop
    # runs where alqr runs; they take turns and never run at once
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes alqr's base_seed)")
    for needed in (os.path.join(SRC, "alqr", "__init__.py"),
                   os.path.join(ROOT, wl.config)):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} is missing; run from the root of a "
                  f"checkout of the repository", file=sys.stderr)
            return 2

    with open(RECORDED, encoding="utf-8") as fh:
        recorded = (json.load(fh)[args.workload]
                    if args.seed == check.DEFAULT_SEED else None)
    run_dir = os.path.join(
        WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # byte-compile alqr and warm the file cache; not timed
    warm = spawn("import", run_dir, [], False)
    if warm.rc != 0:
        print(f"perfbench: cannot import alqr: {warm.stderr}", file=sys.stderr)
        return 2
    reference_loop()  # imports numpy here and warms the loop; not used

    units: list[dict] = []
    started = time.monotonic()
    last = 0.0
    while not units or time.monotonic() - started + last <= args.seconds:
        t0 = time.monotonic()
        if trace:
            for traced in (False, True):
                units.append(run_unit(
                    wl, args.seed, os.path.join(run_dir, f"unit{len(units)}"),
                    traced, recorded))
        else:
            units.append(run_unit(
                wl, args.seed, os.path.join(run_dir, f"unit{len(units)}"),
                False, recorded))
        last = time.monotonic() - t0

    # every unit of a run has the same seed, so the same output bytes;
    # this is also what makes traced outputs equal to untraced ones
    passed = [u for u in units if not u["problems"]]
    for unit in passed[1:]:
        if unit["hashes"] != passed[0]["hashes"]:
            unit["problems"].append("outputs differ from the run's first unit")
    traced_units = [u for u in passed if u["traced"] and not u["problems"]]
    for unit in traced_units[1:]:
        if exact_counts(unit) != exact_counts(traced_units[0]):
            unit["problems"].append("per-layer counts did not repeat")
    passed = [u for u in units if not u["problems"]]
    untraced = [u for u in passed if not u["traced"]]
    traced_units = [u for u in passed if u["traced"]]
    failed = len(units) - len(passed)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "definition": asdict(wl),
        "environment": environment(),
        "steal_ticks": [u["steal_ticks"] for u in units],
        "bytes_match_recorded": (
            all(u.get("bytes_match_recorded") for u in passed)
            if recorded is not None and passed else None),
        "units": [{k: v for k, v in u.items()
                   if k not in ("layers", "spans", "hashes")} for u in units],
    }
    if not untraced or (trace and not traced_units):
        _write_report(run_dir, args, report)
        print("perfbench: no unit passed; see the report", file=sys.stderr)
        return 1
    report["samples"] = summarize_samples(untraced)
    report["reference_loop_mean_s"] = statistics.fmean(
        t for u in untraced for t in u["reference_s"])
    if trace:
        metrics = per_layer_metrics(traced_units, untraced)
        units_of = per_layer_units()
        report["missing_bindings"] = traced_units[0]["missing_bindings"]
        report["coarse_spans"] = {
            name: {"n": len(durs), "median_s": statistics.median(durs),
                   "tail": tail_percentile(durs)}
            for name, durs in traced_units[0]["spans"].items()}
    else:
        metrics = end_to_end_metrics(untraced)
        units_of = END_TO_END
    path = _write_report(run_dir, args, report)
    print(json.dumps({"report": os.path.relpath(path, ROOT),
                      "bytes_match_recorded": report["bytes_match_recorded"],
                      "steal_ticks": sum(s or 0 for s in report["steal_ticks"]),
                      "units": len(units)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_of.items()},
    }))
    return 0


def _write_report(run_dir: str, args, report: dict) -> str:
    path = os.path.join(
        WORK, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
