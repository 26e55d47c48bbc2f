"""Command-line front end: simulate, analyze, gen-plant, verify.

The front end stays single-threaded and deterministic: every output file
is a pure function of the validated config document, so re-running a
command reproduces its artifacts byte for byte. Failures are reported as
single-line JSON on stderr with the dotted path of the offending field
when one exists; exit status 0 means every requested check passed, 1 means
a check ran and failed, 2 means the request itself was unusable.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import sys

import numpy as np

from .config import (
    RunSettings,
    apply_overrides,
    load_config_file,
    parse_config_document,
)
from .control_math import (
    CostWeights,
    SystemMatrices,
    solve_dare,
    solve_discrete_lyapunov,
)
from .diagnostics import check_noise_event, detect_t_nocb, detect_t_stab
from .errors import AlqrError, ConfigInvalid, IncompleteLog, IoError
from .harness import (
    ExperimentConfig,
    generate_stand_in_plant,
    resolve_workers,
    run_experiment,
    run_trial,
)
from .plant import plant_spec_to_dict
from .records import load_gain_sidecar, load_trial_csv
from .regret import decompose_at, stage_costs

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNUSABLE = 2

STAGE_RTOL = 1e-9


def _jsonable(value):
    """Recursively convert to strict-JSON values; non-finite floats -> null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _dump_json(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _emit_error(kind: str, message: str, path: str = "") -> None:
    report = {"error": kind, "message": message}
    if path:
        report["path"] = path
    print(json.dumps(report, sort_keys=True), file=sys.stderr)


def _curves_csv(summary) -> str:
    lines = ["k,worst,median,mean,est_sq_median"]
    for i, k in enumerate(summary.checkpoints.tolist()):
        lines.append(",".join([
            str(k),
            repr(float(summary.worst[i])),
            repr(float(summary.median[i])),
            repr(float(summary.mean[i])),
            repr(float(summary.est_sq_median[i])),
        ]))
    return "\n".join(lines) + "\n"


def _tnocb_csv(summary) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for j, count in enumerate(summary.tnocb_counts):
        lines.append(f"{summary.tnocb_edges[j]!r},"
                     f"{summary.tnocb_edges[j + 1]!r},{count}")
    return "\n".join(lines) + "\n"


def _load_settings(config_path: str, overrides) -> RunSettings:
    doc = load_config_file(config_path)
    apply_overrides(doc, overrides)
    return parse_config_document(doc)


def _cmd_simulate(args) -> int:
    overrides = list(args.overrides)
    if args.trials is not None:
        overrides.append(f"trials={args.trials}")
    if args.horizon is not None:
        overrides.append(f"horizon={args.horizon}")
    if args.seed is not None:
        overrides.append(f"base_seed={args.seed}")
    settings = _load_settings(args.config, overrides)
    if args.workers is not None and args.workers < 1:
        raise ConfigInvalid(f"must be >= 1, got {args.workers}",
                            path="--workers")
    workers = resolve_workers(args.workers)
    os.makedirs(args.out, exist_ok=True)
    log_dir = (os.path.join(args.out, "trials")
               if settings.write_trial_logs else None)
    summary = run_experiment(settings.experiment, log_dir=log_dir,
                             workers=workers)
    _write_text(os.path.join(args.out, "config.json"),
                _dump_json(settings.document))
    _write_text(os.path.join(args.out, "summary.json"),
                _dump_json(summary.to_dict()))
    _write_text(os.path.join(args.out, "curves.csv"), _curves_csv(summary))
    _write_text(os.path.join(args.out, "tnocb_hist.csv"), _tnocb_csv(summary))
    print(f"{args.out}: {settings.experiment.trials} trials, "
          f"{summary.failed_count} failed")
    return EXIT_OK


def _trial_files(trials_dir: str) -> list[tuple[int, str]]:
    found = []
    for path in glob.glob(os.path.join(trials_dir, "trial_*.csv")):
        match = re.fullmatch(r"trial_(\d+)\.csv", os.path.basename(path))
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def _analyze_trial(idx: int, path: str, experiment: ExperimentConfig,
                   oracle, failures: list) -> dict:
    spec = experiment.plant
    record = load_trial_csv(path, trial_index=idx)
    T = record.horizon

    U = record.U_cb + record.U_pr
    expected = stage_costs(record.X, U, spec.cost)
    gap = np.abs(record.stage_cost - expected)
    tol = STAGE_RTOL * np.maximum(1.0, np.abs(expected))
    bad = np.flatnonzero(gap > tol)
    if bad.size:
        row = int(bad[0]) + 1
        failures.append({
            "trial": idx, "kind": "stage_cost", "row": row,
            "message": (f"stage_cost at step {row} is "
                        f"{record.stage_cost[row - 1]!r}, "
                        f"recomputed {expected[row - 1]!r}")})

    # the boundary state one past the log, by the same dynamics formula
    record.x_final = (spec.sys.A @ record.X[-1] + spec.sys.B @ U[-1]
                      + record.W[-1])
    cps = experiment.checkpoints()
    cps = cps[cps <= T].tolist()
    if not cps or cps[-1] != T:
        cps.append(T)
    reports = decompose_at(record, oracle, spec, cps)
    worst_residual = 0.0
    for cp, report in zip(cps, reports):
        worst_residual = max(worst_residual, report.residual)
        if not report.within_tolerance:
            failures.append({
                "trial": idx, "kind": "decomposition", "checkpoint": int(cp),
                "message": (f"residual {report.residual:.3e} exceeds "
                            f"tolerance at checkpoint {cp}")})

    info = {"trial": idx, "steps": T, "worst_residual": worst_residual}
    t_nocb, censored = detect_t_nocb(record)
    info["t_nocb"] = t_nocb
    info["t_nocb_censored"] = censored
    info["noise_event_holds"] = check_noise_event(record, experiment.delta)
    gains_path = os.path.splitext(path)[0] + "_gains.json"
    if os.path.exists(gains_path):
        record.gain_segments = load_gain_sidecar(gains_path)
        t_stab, stab_censored = detect_t_stab(
            record, oracle, spec,
            log_base=experiment.controller.log_base)
        info["t_stab"] = t_stab
        info["t_stab_censored"] = stab_censored
    return info


def _cmd_analyze(args) -> int:
    settings = _load_settings(os.path.join(args.out, "config.json"), [])
    experiment = settings.experiment
    spec = experiment.plant
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    files = _trial_files(os.path.join(args.out, "trials"))
    if not files:
        raise IncompleteLog(f"no trial logs under {args.out}/trials")
    failures: list[dict] = []
    trials_info = []
    for idx, path in files:
        try:
            trials_info.append(
                _analyze_trial(idx, path, experiment, oracle, failures))
        except IncompleteLog as exc:
            failures.append({"trial": idx, "kind": "parse",
                             "message": str(exc)})
    print(_dump_json({"checked": len(files), "failures": failures,
                      "trials": trials_info}), end="")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _cmd_gen_plant(args) -> int:
    try:
        spec = generate_stand_in_plant(args.n, args.m, args.rho, args.seed)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    text = _dump_json(plant_spec_to_dict(spec))
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


def _verify_knobs(overrides) -> dict:
    knobs = {"dare_rtol": 1e-12, "horizon": 500, "seed": 0}
    for assignment in overrides:
        if "=" not in assignment:
            raise ConfigInvalid("override must look like key=value",
                                path=assignment)
        key, raw = assignment.split("=", 1)
        if key not in knobs:
            raise ConfigInvalid(f"unknown verify knob {key!r}", path=key)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"bad value {raw!r}", path=key) from exc
        knobs[key] = value
    return knobs


def _cmd_verify(args) -> int:
    knobs = _verify_knobs(args.overrides)
    rows = []

    # closed-form root of the scalar Riccati equation a=1/2, b=q=r=1:
    # p^2 - p/4 - 1 = 0
    p_true = (0.25 + math.sqrt(0.0625 + 4.0)) / 2.0
    k_true = -0.5 * p_true / (1.0 + p_true)
    sys1 = SystemMatrices(A=np.array([[0.5]]), B=np.array([[1.0]]))
    cost1 = CostWeights(Q=np.eye(1), R=np.eye(1))
    sol = solve_dare(sys1, cost1, rtol=knobs["dare_rtol"],
                     residual_tol=math.inf)
    p_err = abs(float(sol.P_star[0, 0]) - p_true)
    k_err = abs(float(sol.K_star[0, 0]) - k_true)
    res_tol = 1e-9 * (1.0 + abs(p_true))
    rows.append(("scalar-riccati-root",
                 p_err <= 1e-10 and k_err <= 1e-10,
                 f"|dp|={p_err:.3e} |dK|={k_err:.3e}"))
    rows.append(("scalar-riccati-residual", sol.residual <= res_tol,
                 f"residual={sol.residual:.3e} tol={res_tol:.3e}"))

    # Lyapunov series vs the closed form p0 = q / (1 - a^2)
    a_diag = np.diag([0.5, 0.8])
    cert = solve_discrete_lyapunov(a_diag, np.eye(2))
    p0_true = np.diag([1.0 / (1.0 - 0.25), 1.0 / (1.0 - 0.64)])
    lyap_err = float(np.max(np.abs(cert.P0 - p0_true)))
    rows.append(("lyapunov-closed-form", lyap_err <= 1e-10,
                 f"max|dP0|={lyap_err:.3e}"))

    # cost-difference decomposition must telescope on a real trajectory
    seed = int(knobs["seed"])
    spec = generate_stand_in_plant(3, 2, 0.9, seed)
    config = ExperimentConfig(plant=spec, horizon=int(knobs["horizon"]),
                              trials=1, base_seed=seed)
    result = run_trial(config, 0)
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    reports = decompose_at(result.record, oracle, spec,
                           config.checkpoints().tolist())
    worst = max(report.residual for report in reports)
    ok = all(report.within_tolerance for report in reports)
    rows.append(("regret-decomposition", ok, f"worst residual={worst:.3e}"))

    width = max(len(name) for name, _, _ in rows)
    for name, passed, detail in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {name:<{width}}  {detail}")
    return EXIT_OK if all(passed for _, passed, _ in rows) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alqr",
        description="Adaptive LQR simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured experiment")
    sim.add_argument("--config", required=True, help="JSON config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="PATH=VALUE", help="dotted-path config override")
    sim.add_argument("--trials", type=int, help="override trial count")
    sim.add_argument("--horizon", type=int, help="override horizon")
    sim.add_argument("--seed", type=int, help="override base seed")
    sim.add_argument("--workers", type=int,
                     help="worker processes (ALQR_THREADS caps this)")

    ana = sub.add_parser("analyze",
                         help="re-verify a simulate output directory")
    ana.add_argument("--out", required=True,
                     help="directory produced by simulate")

    gen = sub.add_parser("gen-plant", help="emit a random stable plant block")
    gen.add_argument("--n", type=int, required=True, help="state dimension")
    gen.add_argument("--m", type=int, required=True, help="input dimension")
    gen.add_argument("--rho", type=float, required=True,
                     help="target spectral radius in (0, 1)")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", help="write here instead of stdout")

    ver = sub.add_parser("verify", help="run the built-in oracle suite")
    ver.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="oracle knob (dare_rtol, horizon, seed)")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "gen-plant": _cmd_gen_plant,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigInvalid as exc:
        _emit_error("ConfigInvalid", exc.reason, path=exc.path)
        return EXIT_UNUSABLE
    except AlqrError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_UNUSABLE


if __name__ == "__main__":
    sys.exit(main())
