"""JSON experiment configuration: loading, overrides, validation.

A run is described by one JSON object; every semantic field is explicit so
a config file is a complete, diff-able replay key. The plant is given
either as row-major matrices or as a generator block that is resolved
deterministically from its seed. Command-line overrides use dotted paths
(``plant.generator.seed=7``) and are applied to the parsed document before
any validation happens. Validation errors carry the dotted path of the
offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .control_math import CostWeights, SystemMatrices
from .controller import ControllerConfig
from .errors import ConfigInvalid, IoError, UnstableMatrix
from .harness import ExperimentConfig, generate_stand_in_plant, trial_bytes
from .plant import PlantSpec

_TOP_KEYS = {"plant", "horizon", "trials", "base_seed", "checkpoint_factor",
             "delta", "controller", "write_trial_logs"}
_REQUIRED_TOP = ("plant", "horizon", "trials", "base_seed",
                 "checkpoint_factor", "delta")
_PLANT_KEYS = {"A", "B", "W", "Q", "R", "generator"}
_MATRIX_KEYS = ("A", "B", "W", "Q", "R")
_GENERATOR_KEYS = {"n", "m", "target_rho", "seed"}
_CONTROLLER_KEYS = {"gain_update_schedule"}


@dataclass(frozen=True)
class RunSettings:
    """A validated run: the experiment plus output-control knobs.

    ``document`` is the post-override JSON document the settings were
    built from, kept verbatim so simulate can write an exact copy next to
    its outputs.
    """

    experiment: ExperimentConfig
    write_trial_logs: bool
    document: dict


def _join(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigInvalid("must be a JSON object", path=path)
    return value


def _reject_unknown(doc: dict, allowed, path: str) -> None:
    for key in sorted(doc):
        if key not in allowed:
            raise ConfigInvalid(f"unknown key {key!r}", path=path or key)


def _get(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigInvalid("required field is missing", path=_join(path, key))
    return doc[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    # bool is an int subclass; a config saying "trials": true is a mistake
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"must be an integer, got {value!r}", path=path)
    if minimum is not None and value < minimum:
        raise ConfigInvalid(f"must be >= {minimum}, got {value}", path=path)
    return value


def _as_horizon(value, n: int, m: int) -> int:
    """A horizon >= 1 (at path ``horizon``) whose one-trial arrays for an
    n x m plant fit in one numpy array."""
    horizon = _as_int(value, "horizon", minimum=1)
    size = trial_bytes(horizon, n, m)
    if size > np.iinfo(np.intp).max:
        raise ConfigInvalid(
            f"too long: one trial's arrays would take {size} bytes, more "
            f"than an array can hold", path="horizon")
    return horizon


def _as_number(value, path: str, what: str = "") -> float:
    """``value`` as a finite float; ``what`` names a part of the field at
    ``path``, such as a matrix entry, in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{what}must be a number, got {value!r}",
                            path=path)
    # JSON reads 1e400 and Infinity as inf; an integer past the float
    # range does not convert at all
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigInvalid(f"{what}must be finite, got {value!r}", path=path)
    return number


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigInvalid(f"must be true or false, got {value!r}", path=path)
    return value


def _as_matrix(value, path: str) -> np.ndarray:
    if (not isinstance(value, list) or not value
            or not all(isinstance(row, list) and row for row in value)):
        raise ConfigInvalid("must be a non-empty list of non-empty rows",
                            path=path)
    width = len(value[0])
    for i, row in enumerate(value):
        if len(row) != width:
            raise ConfigInvalid(
                f"row {i} has {len(row)} entries, expected {width}", path=path)
    return np.array([[_as_number(cell, path, f"entry [{i}][{j}] ")
                      for j, cell in enumerate(row)]
                     for i, row in enumerate(value)])


def _parse_plant(doc: dict, path: str) -> PlantSpec:
    plant = _require_object(doc, path)
    _reject_unknown(plant, _PLANT_KEYS, path)
    has_generator = "generator" in plant
    has_matrices = any(key in plant for key in _MATRIX_KEYS)
    if has_generator and has_matrices:
        raise ConfigInvalid(
            "give either explicit matrices or a generator block, not both",
            path=path)
    if has_generator:
        gen = _require_object(plant["generator"], _join(path, "generator"))
        gpath = _join(path, "generator")
        _reject_unknown(gen, _GENERATOR_KEYS, gpath)
        n = _as_int(_get(gen, "n", gpath), _join(gpath, "n"), minimum=1)
        m = _as_int(_get(gen, "m", gpath), _join(gpath, "m"), minimum=1)
        rho = _as_number(_get(gen, "target_rho", gpath),
                         _join(gpath, "target_rho"))
        if not 0.0 < rho < 1.0:
            raise ConfigInvalid(f"must be in (0, 1), got {rho}",
                                path=_join(gpath, "target_rho"))
        seed = _as_int(_get(gen, "seed", gpath), _join(gpath, "seed"),
                       minimum=0)
        try:
            return generate_stand_in_plant(n, m, rho, seed)
        except ValueError as exc:
            raise ConfigInvalid(str(exc), path=gpath) from None
    if not has_matrices:
        raise ConfigInvalid(
            "needs either matrices A, B, W, Q, R or a generator block",
            path=path)
    mats = {key: _as_matrix(_get(plant, key, path), _join(path, key))
            for key in _MATRIX_KEYS}
    try:
        return PlantSpec(sys=SystemMatrices(A=mats["A"], B=mats["B"]),
                         W=mats["W"],
                         cost=CostWeights(Q=mats["Q"], R=mats["R"]))
    except (UnstableMatrix, ValueError) as exc:
        raise ConfigInvalid(str(exc), path=path) from exc


def _parse_controller(doc: dict, path: str) -> ControllerConfig:
    block = _require_object(doc, path)
    _reject_unknown(block, _CONTROLLER_KEYS, path)
    kwargs = {}
    if "gain_update_schedule" in block:
        value = block["gain_update_schedule"]
        if not isinstance(value, str):
            raise ConfigInvalid(f"must be a string, got {value!r}",
                                path=_join(path, "gain_update_schedule"))
        kwargs["gain_update_schedule"] = value
    try:
        return ControllerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigInvalid(str(exc), path=path) from exc


def parse_config_document(doc) -> RunSettings:
    """Validate a parsed JSON document and build the run it describes."""
    top = _require_object(doc, "")
    _reject_unknown(top, _TOP_KEYS, "")
    for key in _REQUIRED_TOP:
        if key not in top:
            raise ConfigInvalid("required field is missing", path=key)

    plant = _parse_plant(top["plant"], "plant")
    horizon = _as_horizon(top["horizon"], plant.n, plant.m)
    trials = _as_int(top["trials"], "trials", minimum=1)
    base_seed = _as_int(top["base_seed"], "base_seed", minimum=0)
    factor = _as_number(top["checkpoint_factor"], "checkpoint_factor")
    if not factor > 1.0:
        raise ConfigInvalid(f"must exceed 1, got {factor}",
                            path="checkpoint_factor")
    delta = _as_number(top["delta"], "delta")
    if not 0.0 < delta <= 0.5:
        raise ConfigInvalid(f"must be in (0, 1/2], got {delta}", path="delta")
    controller = (_parse_controller(top["controller"], "controller")
                  if "controller" in top else ControllerConfig())
    write_logs = (_as_bool(top["write_trial_logs"], "write_trial_logs")
                  if "write_trial_logs" in top else True)
    try:
        experiment = ExperimentConfig(
            plant=plant, horizon=horizon, trials=trials, base_seed=base_seed,
            checkpoint_factor=factor, controller=controller, delta=delta)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    return RunSettings(experiment=experiment, write_trial_logs=write_logs,
                       document=top)


def load_config_file(path: str) -> dict:
    """Read and parse a JSON config file (no validation yet)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"invalid UTF-8 in {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"invalid JSON in {path}: {exc}") from exc


def apply_overrides(doc: dict, assignments) -> dict:
    """Apply dotted-path ``key=value`` assignments to a parsed document.

    Values are parsed as JSON when possible and fall back to plain strings,
    so ``controller.gain_update_schedule=every-step`` needs no quoting.
    Intermediate objects are created on demand; typos surface later as
    unknown-key validation errors.
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigInvalid("override must look like path=value",
                                path=assignment)
        dotted, raw = assignment.split("=", 1)
        dotted = dotted.strip()
        if not dotted:
            raise ConfigInvalid("override has an empty path", path=assignment)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = dotted.split(".")
        for i, part in enumerate(parts[:-1]):
            if part not in node:
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ConfigInvalid(
                    "cannot descend into a non-object value",
                    path=".".join(parts[:i + 1]))
        node[parts[-1]] = value
    return doc
