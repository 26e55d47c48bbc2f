"""Per-layer spans for one traced benchmark child, recorded from outside alqr.

alqr modules import their collaborators by name (``from .plant import
step``), so a layer is traced by replacing the binding its caller looks up:
``alqr.harness.step`` for the plant step the harness loop calls, a class
attribute for a method. Nothing under ``src/`` is edited.

Per-step layers run millions of times, so every span is folded into
per-name totals (calls, total seconds, self seconds) as it closes and the
memory in use stays flat. Individual spans are kept only for the coarse
layers listed in ``COARSE``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

ROOT = "bench.root"

# layers whose individual spans are kept (a few per trial at most, except
# solve_dare on the every-step schedule: one per step, a few thousand)
COARSE = frozenset({
    "harness.run_experiment", "harness.run_trial", "control_math.solve_dare",
    "diagnostics.compute_trial_diagnostics", "diagnostics.detect_t_stab",
    "records.save_trial_csv", "records.load_trial_csv",
    "records.save_gain_sidecar", "records.load_gain_sidecar",
    "regret.decompose_at", "cli.main.simulate", "cli.main.analyze",
})


class Tracer:
    """Stack of open spans plus per-name aggregates and event counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[str, float, float]] = []  # (name, start, dur)
        self._stack: list[list] = []       # [name, start, child_s]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost span: its self time excludes its children."""
        end = self.clock()
        name, start, child = self._stack.pop()
        dur = end - start
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if name in COARSE:
            self.spans.append((name, start, dur))

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(tracer, args, outcome)`` once it ends.

        ``outcome`` is the return value, or the exception leaving ``fn``. An
        exception is also counted as ``<name>.raised`` and propagates
        unchanged.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit()
                tracer.count(name + ".raised")
                if after is not None:
                    after(tracer, args, exc)
                raise
            tracer.exit()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced


# --- what each layer counts besides its span -------------------------------


def _after_compute_input(tracer, args, out):
    if isinstance(out, BaseException):
        return
    if out.breaker_triggered_now:
        tracer.count("controller.breaker_triggers")
    elif out.breaker_active:
        tracer.count("controller.breaker_dwell_steps")


def _after_update_gain(tracer, args, fired):
    if fired is True:
        tracer.count("controller.update_gain.fired")
        if args[0].Khat.any():
            tracer.count("controller.gain_updates_nonzero")


def _after_solve_dare(tracer, args, outcome):
    # a NonConvergence carries the iterations it spent before giving up
    tracer.count("control_math.solve_dare.iterations",
                 getattr(outcome, "iterations", None) or 0)


def _after_detect_t_stab(tracer, args, outcome):
    if not isinstance(outcome, BaseException):
        tracer.count("diagnostics.detect_t_stab.segments",
                     len(args[0].gain_segments))


def _after_save(tracer, args, outcome, key):
    if not isinstance(outcome, BaseException):
        tracer.count(key, os.path.getsize(args[1]))


def _after_load(tracer, args, outcome, key):
    if not isinstance(outcome, BaseException):
        tracer.count(key, os.path.getsize(args[0]))


def _after_decompose_at(tracer, args, outcome):
    if not isinstance(outcome, BaseException):
        tracer.count("regret.decompose_at.checkpoints", len(outcome))


# (binding a caller looks up, layer name, after-hook). A binding is
# "module:attribute" or "module:Class.method".
BINDINGS = [
    ("alqr.harness:step", "plant.step", None),
    ("alqr.harness:draw_process_noise", "plant.draw_process_noise", None),
    ("alqr.controller:draw_probe_noise", "plant.draw_probe_noise", None),
    ("alqr.controller:AdaptiveController.compute_input",
     "controller.compute_input", _after_compute_input),
    ("alqr.controller:AdaptiveController.update_gain",
     "controller.update_gain", _after_update_gain),
    ("alqr.estimator:EstimatorState.absorb", "estimator.absorb", None),
    ("alqr.estimator:EstimatorState.estimate", "estimator.estimate", None),
    ("alqr.control_math:solve_dare", "control_math.solve_dare",
     _after_solve_dare),
    ("alqr.harness:solve_dare", "control_math.solve_dare", _after_solve_dare),
    ("alqr.controller:solve_dare", "control_math.solve_dare",
     _after_solve_dare),
    ("alqr.cli:solve_dare", "control_math.solve_dare", _after_solve_dare),
    ("alqr.controller:controllability_rank",
     "control_math.controllability_rank", None),
    ("alqr.harness:controllability_rank",
     "control_math.controllability_rank", None),
    ("alqr.control_math:stability_margin", "control_math.stability_margin",
     None),
    ("alqr.diagnostics:stability_margin", "control_math.stability_margin",
     None),
    ("alqr.harness:compute_trial_diagnostics",
     "diagnostics.compute_trial_diagnostics", None),
    ("alqr.diagnostics:detect_t_stab", "diagnostics.detect_t_stab",
     _after_detect_t_stab),
    ("alqr.cli:detect_t_stab", "diagnostics.detect_t_stab",
     _after_detect_t_stab),
    ("alqr.harness:run_trial", "harness.run_trial", None),
    ("alqr.cli:run_experiment", "harness.run_experiment", None),
    ("alqr.harness:save_trial_csv", "records.save_trial_csv",
     functools.partial(_after_save, key="records.save_trial_csv.bytes")),
    ("alqr.harness:save_gain_sidecar", "records.save_gain_sidecar",
     functools.partial(_after_save, key="records.save_gain_sidecar.bytes")),
    ("alqr.cli:load_trial_csv", "records.load_trial_csv",
     functools.partial(_after_load, key="records.load_trial_csv.bytes")),
    ("alqr.cli:load_gain_sidecar", "records.load_gain_sidecar", None),
    ("alqr.cli:decompose_at", "regret.decompose_at", _after_decompose_at),
    ("alqr.config:load_config_file", "config.load_config_file", None),
    ("alqr.cli:load_config_file", "config.load_config_file", None),
    ("alqr.config:parse_config_document", "config.parse_config_document",
     None),
    ("alqr.cli:parse_config_document", "config.parse_config_document", None),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding in BINDINGS; returns the bindings not found.

    A missing binding is reported rather than raised, so a later change
    that stops calling a layer through that name still benchmarks; its
    layer then reads zero calls.
    """
    missing = []
    for binding, name, after in BINDINGS:
        module_name, path = binding.split(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(binding)
            continue
        setattr(owner, attr, tracer.wrap(fn, name, after))
    return missing
