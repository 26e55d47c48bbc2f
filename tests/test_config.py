"""Config document validation and override tests."""

import numpy as np
import pytest

from alqr.config import (apply_overrides, load_config_file,
                         parse_config_document)
from alqr.errors import ConfigInvalid, IoError


def minimal_doc(**over):
    doc = {
        "plant": {"generator": {"n": 1, "m": 1, "target_rho": 0.5,
                                "seed": 0}},
        "horizon": 100,
        "trials": 1,
        "base_seed": 3,
        "checkpoint_factor": 1.5,
        "delta": 0.05,
    }
    doc.update(over)
    return doc


def matrix_doc():
    return minimal_doc(plant={
        "A": [[0.5]], "B": [[1.0]], "W": [[1.0]], "Q": [[1.0]],
        "R": [[1.0]]})


def test_minimal_document_parses():
    settings = parse_config_document(minimal_doc())
    exp = settings.experiment
    assert exp.horizon == 100
    assert exp.trials == 1
    assert exp.plant.n == 1 and exp.plant.m == 1
    assert exp.controller.gain_update_schedule == "powers-of-two"
    assert settings.write_trial_logs


def test_explicit_matrices_parse():
    settings = parse_config_document(matrix_doc())
    assert settings.experiment.plant.sys.A[0, 0] == 0.5
    assert np.array_equal(settings.experiment.plant.W, np.eye(1))


def test_generator_matches_library_generator():
    from alqr.harness import generate_stand_in_plant
    settings = parse_config_document(minimal_doc())
    direct = generate_stand_in_plant(1, 1, 0.5, 0)
    assert np.array_equal(settings.experiment.plant.sys.A, direct.sys.A)
    assert np.array_equal(settings.experiment.plant.sys.B, direct.sys.B)


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.pop("horizon"), "horizon"),
    (lambda d: d.update(horizon=0), "horizon"),
    (lambda d: d.update(horizon=2.5), "horizon"),
    (lambda d: d.update(trials=True), "trials"),
    (lambda d: d.update(checkpoint_factor=1.0), "checkpoint_factor"),
    (lambda d: d.update(delta=0.7), "delta"),
    (lambda d: d.update(typo=1), "typo"),
    (lambda d: d.update(write_trial_logs="yes"), "write_trial_logs"),
])
def test_top_level_violations_name_the_field(mutate, path):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == path


@pytest.mark.parametrize("raw", ["1e400", "-Infinity", "NaN", "1" + "0" * 400],
                         ids=["1e400", "-Infinity", "NaN", "10**400"])
@pytest.mark.parametrize("path", [
    "checkpoint_factor", "delta", "plant.generator.target_rho"])
def test_non_finite_numbers_are_invalid(path, raw):
    # JSON reads 1e400 as inf, and the integer 10**400 has no float at all
    doc = minimal_doc()
    apply_overrides(doc, [f"{path}={raw}"])
    with pytest.raises(ConfigInvalid, match="must be finite") as err:
        parse_config_document(doc)
    assert err.value.path == path


def test_plant_block_violations():
    doc = minimal_doc()
    doc["plant"]["generator"]["target_rho"] = 1.5
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "plant.generator.target_rho"

    doc = minimal_doc(plant={})
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "plant"

    doc = matrix_doc()
    doc["plant"]["generator"] = {"n": 1, "m": 1, "target_rho": 0.5,
                                 "seed": 0}
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "plant"

    doc = matrix_doc()
    doc["plant"]["A"] = [[1.0, 2.0], [3.0]]
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "plant.A"

    # spectral radius 1.2 is rejected at plant construction
    doc = matrix_doc()
    doc["plant"]["A"] = [[1.2]]
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "plant"

    doc = matrix_doc()
    del doc["plant"]["W"]
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "plant.W"


def test_controller_block():
    doc = minimal_doc(controller={"gain_update_schedule": "every-step"})
    settings = parse_config_document(doc)
    assert settings.experiment.controller.gain_update_schedule == "every-step"

    doc = minimal_doc(controller={"gain_update_schedule": "sometimes"})
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "controller"

    # the breaker's natural log and the rank tolerance are not settable
    for key, value in (("cadence", 3), ("log_base", 2.718281828459045),
                       ("rank_rtol", 1e-10)):
        doc = minimal_doc(controller={key: value})
        with pytest.raises(ConfigInvalid) as err:
            parse_config_document(doc)
        assert err.value.path == "controller"
        assert repr(key) in err.value.reason


def test_overrides_reach_nested_fields():
    doc = minimal_doc()
    apply_overrides(doc, ["horizon=2000",
                          "controller.gain_update_schedule=every-step",
                          "plant.generator.seed=9"])
    assert doc["horizon"] == 2000
    assert doc["controller"] == {"gain_update_schedule": "every-step"}
    assert doc["plant"]["generator"]["seed"] == 9
    settings = parse_config_document(doc)
    assert settings.experiment.horizon == 2000


def test_override_values_parse_as_json_with_string_fallback():
    doc = {}
    apply_overrides(doc, ["a=1.5", "b=true", "c=[[0.5]]", "d=plain-text",
                          "e=\"quoted\""])
    assert doc == {"a": 1.5, "b": True, "c": [[0.5]], "d": "plain-text",
                   "e": "quoted"}


def test_override_errors():
    with pytest.raises(ConfigInvalid):
        apply_overrides({}, ["no-equals-sign"])
    with pytest.raises(ConfigInvalid):
        apply_overrides({}, ["=5"])
    with pytest.raises(ConfigInvalid) as err:
        apply_overrides({"horizon": 10}, ["horizon.nested=1"])
    assert err.value.path == "horizon"


def test_override_typo_caught_by_validation():
    doc = minimal_doc()
    apply_overrides(doc, ["controler.gain_update_schedule=every-step"])
    with pytest.raises(ConfigInvalid) as err:
        parse_config_document(doc)
    assert err.value.path == "controler"


def test_load_config_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"horizon": 5}')
    assert load_config_file(str(path)) == {"horizon": 5}
    path.write_text('{"horizon": }')
    with pytest.raises(ConfigInvalid):
        load_config_file(str(path))
    with pytest.raises(IoError):
        load_config_file(str(tmp_path / "absent.json"))
