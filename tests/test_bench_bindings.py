"""The benchmark tracer's bindings still name live alqr attributes.

perfbench/tracer.py traces a layer by replacing the name its caller looks
up (``alqr.harness:step``, ``alqr.controller:Class.method``). A binding
that no longer resolves is skipped at run time and its layer silently
reads zero calls, so a rename must fail here instead. Bindings are only
resolved, never wrapped, so no other test sees a traced function.
"""

import importlib
import importlib.util
import os

import pytest

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


BINDINGS = [binding for binding, _, _ in _load_tracer().BINDINGS]


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
