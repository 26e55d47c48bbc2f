"""CSV and sidecar round-trip fidelity tests."""

import numpy as np
import pytest

from alqr.errors import IncompleteLog
from alqr.records import (
    TrialRecord,
    csv_header,
    load_gain_sidecar,
    load_trial_csv,
    save_gain_sidecar,
    save_trial_csv,
)


def synthetic_record(T=50, n=3, m=2, seed=0):
    rng = np.random.default_rng(seed)
    # include awkward magnitudes so the shortest-repr contract is exercised
    X = rng.standard_normal((T, n)) * np.logspace(-20, 3, T)[:, None]
    return TrialRecord(
        trial_index=4, seed=123,
        X=X,
        U_ce=rng.standard_normal((T, m)),
        U_cb=rng.standard_normal((T, m)),
        U_pr=rng.standard_normal((T, m)) * 1e-8,
        W=rng.standard_normal((T, n)),
        breaker=rng.integers(0, 3, size=T).astype(np.int8),
        stage_cost=np.abs(rng.standard_normal(T)) * 1e4,
        x_final=rng.standard_normal(n),
        gain_segments=[(1, np.zeros((m, n))), (8, rng.standard_normal((m, n)))])


def test_header_layout():
    assert csv_header(2, 1) == ("k,x_1,x_2,u_ce_1,u_cb_1,u_pr_1,"
                                "w_1,w_2,breaker,stage_cost")


def test_csv_round_trip_bit_exact(tmp_path):
    record = synthetic_record()
    path = tmp_path / "trial_4.csv"
    save_trial_csv(record, str(path))
    back = load_trial_csv(str(path), trial_index=4, seed=123)
    assert np.array_equal(back.X, record.X)
    assert np.array_equal(back.U_ce, record.U_ce)
    assert np.array_equal(back.U_cb, record.U_cb)
    assert np.array_equal(back.U_pr, record.U_pr)
    assert np.array_equal(back.W, record.W)
    assert np.array_equal(back.breaker, record.breaker)
    assert np.array_equal(back.stage_cost, record.stage_cost)
    assert back.x_final is None


@pytest.mark.parametrize("field, bad", [
    ("W", np.zeros((50, 2))),
    ("breaker", np.zeros((49,), dtype=np.int8)),
    ("stage_cost", np.zeros((50, 1))),
    ("x_final", np.zeros(2)),
])
def test_save_rejects_misshaped_field(tmp_path, field, bad):
    record = synthetic_record()
    setattr(record, field, bad)
    with pytest.raises(IncompleteLog) as info:
        save_trial_csv(record, str(tmp_path / "trial.csv"))
    assert field in str(info.value)


def test_save_twice_identical_bytes(tmp_path):
    record = synthetic_record(seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trial_csv(record, str(p1))
    save_trial_csv(record, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_missing_file(tmp_path):
    with pytest.raises(IncompleteLog):
        load_trial_csv(str(tmp_path / "absent.csv"))


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,foo,bar\n1,0.0,0.0\n")
    with pytest.raises(IncompleteLog):
        load_trial_csv(str(path))


def test_load_rejects_short_row(tmp_path):
    record = synthetic_record(T=5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = path.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteLog) as info:
        load_trial_csv(str(path))
    assert "row 4" in str(info.value)


def test_load_rejects_corrupt_cell(tmp_path):
    record = synthetic_record(T=5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[-1] = "not-a-number"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteLog) as info:
        load_trial_csv(str(path))
    assert "row 3" in str(info.value)


def test_load_rejects_gap_in_steps(tmp_path):
    record = synthetic_record(T=5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = path.read_text().splitlines()
    del lines[3]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteLog):
        load_trial_csv(str(path))


def test_gain_sidecar_round_trip(tmp_path):
    record = synthetic_record()
    path = tmp_path / "gains.json"
    save_gain_sidecar(record, str(path))
    segments = load_gain_sidecar(str(path))
    assert len(segments) == len(record.gain_segments)
    for (s_got, K_got), (s_want, K_want) in zip(segments, record.gain_segments):
        assert s_got == s_want
        assert np.array_equal(K_got, K_want)
