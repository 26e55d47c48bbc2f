"""Correctness checks on one benchmark unit's outputs.

Every seed gets the structural and independent checks: the trial count,
no failed trials, finite regret statistics that agree with the per-trial
summaries and with the last row of curves.csv, and ``j_star`` against
scipy's own DARE solver on the resolved plant. On the default seed the
summary is also held against values recorded in ``recorded.json``.
Whether summary.json and curves.csv match the recorded bytes is returned
separately: it is the determinism contract, reported, not gated.
"""

from __future__ import annotations

import hashlib
import math
import os

DEFAULT_SEED = 0
J_STAR_RTOL = 1e-8
# the regret statistics may move by rounding-level changes to the gain
# solve (a flipped breaker decision moves one trial slightly); a broken
# controller moves them by far more than this
REGRET_RTOL = 0.05
HASHED = ("summary.json", "curves.csv")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_hashes(out_dir: str) -> dict[str, str]:
    """sha256 of every file simulate (and its trial logs) left behind."""
    hashes = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            hashes[os.path.relpath(path, out_dir)] = sha256_file(path)
    return hashes


def oracle_j_star(plant: dict) -> float:
    """tr(W P) with P from scipy's DARE solver, independent of alqr."""
    import numpy as np
    import scipy.linalg

    A, B, W, Q, R = (np.array(plant[k], dtype=float) for k in "ABWQR")
    P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    return float(np.trace(W @ P))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_summary(summary: dict, curves_csv: str, trials: int, horizon: int,
                  j_star: float) -> list[str]:
    """Problems with one simulate output; empty when it is correct."""
    problems = []
    if summary.get("trials") != trials:
        problems.append(f"trials {summary.get('trials')} != {trials}")
    if summary.get("failed_trials") != 0:
        problems.append(f"failed_trials {summary.get('failed_trials')} != 0")
    per_trial = summary.get("trial_summaries", [])
    if len(per_trial) != trials or any(t["failed"] for t in per_trial):
        problems.append("trial_summaries do not list every trial as done")
        return problems
    stats = {k: summary.get(k) for k in
             ("final_worst", "final_median", "final_mean")}
    if not all(isinstance(v, float) and math.isfinite(v)
               for v in stats.values()):
        problems.append(f"non-finite regret statistics {stats}")
        return problems
    finals = sorted(t["final_rel_avg_regret"] for t in per_trial)
    mid = len(finals) // 2
    median = (finals[mid] if len(finals) % 2
              else 0.5 * (finals[mid - 1] + finals[mid]))
    if stats["final_worst"] != finals[-1]:
        problems.append("final_worst is not the largest trial's value")
    if not _close(stats["final_median"], median, 1e-12):
        problems.append("final_median is not the trials' median")
    if not _close(stats["final_mean"], sum(finals) / len(finals), 1e-12):
        problems.append("final_mean is not the trials' mean")
    if not _close(summary.get("j_star", math.nan), j_star, J_STAR_RTOL):
        problems.append(f"j_star {summary.get('j_star')} != oracle {j_star}")
    rows = curves_csv.strip().split("\n")
    last = rows[-1].split(",")
    if (rows[0] != "k,worst,median,mean,est_sq_median"
            or int(last[0]) != horizon
            or [float(v) for v in last[1:4]] != list(stats.values())):
        problems.append("curves.csv does not end at the horizon with the "
                        "summary's final statistics")
    return problems


def check_recorded(summary: dict, recorded: dict) -> list[str]:
    """Problems against the values recorded for the default seed."""
    problems = []
    for key in ("trials", "failed_trials"):
        if summary.get(key) != recorded[key]:
            problems.append(f"{key} {summary.get(key)} != recorded "
                            f"{recorded[key]}")
    if not _close(summary["j_star"], recorded["j_star"], J_STAR_RTOL):
        problems.append(f"j_star {summary['j_star']} != recorded "
                        f"{recorded['j_star']}")
    for key in ("final_worst", "final_median", "final_mean"):
        if not _close(summary[key], recorded[key], REGRET_RTOL):
            problems.append(f"{key} {summary[key]} != recorded "
                            f"{recorded[key]} (rtol {REGRET_RTOL})")
    return problems


def bytes_match(hashes: dict[str, str], recorded: dict) -> bool:
    return all(hashes.get(name) == recorded["sha256"][name]
               for name in HASHED)


def check_analyze(report: dict, trials: int) -> list[str]:
    """``alqr analyze`` must check every trial log and find no failure."""
    problems = []
    if report.get("checked") != trials:
        problems.append(f"analyze checked {report.get('checked')} logs, "
                        f"expected {trials}")
    if report.get("failures") != []:
        problems.append(f"analyze failures: {report.get('failures')}")
    return problems


def check_verify(text: str) -> list[str]:
    rows = text.strip().split("\n")
    if not rows or not all(row.startswith("PASS") for row in rows):
        return [f"verify did not pass every check: {text!r}"]
    return []
