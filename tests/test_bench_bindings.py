"""The benchmark tracer's bindings still name live alqr attributes.

perfbench/tracer.py traces a layer by replacing the name its caller looks
up (``alqr.harness:step``, ``alqr.controller:Class.method``). A binding
that no longer resolves is skipped at run time and its layer silently
reads zero calls, so a rename must fail here instead. Bindings are
resolved, and the ``alqr.cli`` ones whose after-hooks read the call's
arguments or result, with ``alqr.harness:compute_trial_diagnostics``, are
wrapped through monkeypatch for one run, so no other test sees a traced
function.
"""

import importlib
import importlib.util
import json
import os

import pytest

import alqr.cli
import alqr.harness
from alqr.control_math import RiccatiSolution
from alqr.controller import InputBreakdown
from alqr.errors import NonConvergence

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _load_tracer():
    # loading the module only defines BINDINGS; install() is never called
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _load_tracer()
BINDINGS = [binding for binding, _, _ in TRACER_MODULE.BINDINGS]


def test_bindings_listed():
    assert BINDINGS


@pytest.mark.parametrize("binding", BINDINGS)
def test_binding_resolves(binding):
    module_name, path = binding.split(":")
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{binding}: {attr} not found"
        owner = getattr(owner, attr)
    assert callable(owner), binding


def test_input_breakdown_keeps_hooked_fields():
    # the compute_input hook counts breaker triggers and dwell steps
    fields = InputBreakdown.__dataclass_fields__
    assert "breaker_triggered_now" in fields
    assert "breaker_active" in fields


def test_solve_dare_outcomes_keep_iterations():
    # the solve_dare hook counts outcome.iterations and reads a missing
    # attribute as zero, on success and on NonConvergence alike
    assert "iterations" in RiccatiSolution.__dataclass_fields__
    assert NonConvergence("gave up", iterations=7).iterations == 7


def test_cli_hooks_run_on_analyze_and_verify(tmp_path, monkeypatch, capsys):
    # the hooks read args[0].gain_segments (detect_t_stab),
    # os.path.getsize(args[0]) (load_trial_csv) and len(outcome)
    # (decompose_at); a signature change that breaks one raises here.
    # simulate runs with alqr.harness:compute_trial_diagnostics wrapped, so
    # a harness that stops calling it once per completed trial fails here
    doc = {"plant": {"generator": {"n": 3, "m": 2, "target_rho": 0.9,
                                   "seed": 42}},
           "horizon": 300, "trials": 2, "base_seed": 5,
           "checkpoint_factor": 1.2, "delta": 0.05}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "run")
    tracer = TRACER_MODULE.Tracer()
    layers = {}

    def wrap(module, attrs):
        for binding, name, after in TRACER_MODULE.BINDINGS:
            module_name, attr = binding.split(":")
            if module_name == module.__name__ and attr in attrs:
                monkeypatch.setattr(module, attr, tracer.wrap(
                    getattr(module, attr), name, after))
                layers[attr] = name

    wrap(alqr.harness, {"compute_trial_diagnostics"})
    assert alqr.cli.main(["simulate", "--config", str(config),
                          "--out", out, "--workers", "1"]) == 0
    assert tracer.stats["diagnostics.compute_trial_diagnostics"][0] == 2
    wrapped = {"load_trial_csv", "decompose_at", "detect_t_stab",
               "load_gain_sidecar"}
    wrap(alqr.cli, wrapped)
    assert set(layers) == wrapped | {"compute_trial_diagnostics"}
    # decompose_at is verify's; analyze folds its logs block by block
    assert alqr.cli.main(["analyze", "--out", out]) == 0
    assert alqr.cli.main(["verify"]) == 0
    capsys.readouterr()
    for attr, name in layers.items():
        assert tracer.stats[name][0] >= 1, name
    assert tracer.stats["records.load_trial_csv"][0] == 2
    assert tracer.stats["diagnostics.detect_t_stab"][0] == 2
    assert tracer.counts["records.load_trial_csv.bytes"] == sum(
        os.path.getsize(os.path.join(out, "trials", f"trial_{i}.csv"))
        for i in range(2))
    assert tracer.counts["diagnostics.detect_t_stab.segments"] > 0
    assert tracer.counts["regret.decompose_at.checkpoints"] > 0
    assert not any(key.endswith(".raised") for key in tracer.counts)
