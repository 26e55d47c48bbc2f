"""CSV and sidecar round-trip fidelity tests."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from alqr.control_math import solve_dare
from alqr.errors import IncompleteLog
from alqr.plant import NOISE_CHUNK
from alqr.records import (
    BREAKER_CLEAR,
    TrialRecord,
    csv_header,
    load_gain_sidecar,
    load_trial_csv,
    save_gain_sidecar,
    save_trial_csv,
)
from alqr.regret import decompose_at
from helpers import reference_spec


def synthetic_record(T=50, n=3, m=2, seed=0):
    rng = np.random.default_rng(seed)
    # include awkward magnitudes so the shortest-repr contract is exercised
    X = rng.standard_normal((T, n)) * np.logspace(-20, 3, T)[:, None]
    return TrialRecord(
        trial_index=4, seed=123,
        X=X,
        U_ce=rng.standard_normal((T, m)),
        U_pr=rng.standard_normal((T, m)) * 1e-8,
        W=rng.standard_normal((T, n)),
        breaker=rng.integers(0, 3, size=T).astype(np.int8),
        stage_cost=np.abs(rng.standard_normal(T)) * 1e4,
        gain_segments=[(1, np.zeros((m, n))), (8, rng.standard_normal((m, n)))])


def test_header_layout():
    assert csv_header(2, 1) == ("k,x_1,x_2,u_ce_1,u_cb_1,u_pr_1,"
                                "w_1,w_2,breaker,stage_cost")


def test_csv_round_trip_bit_exact(tmp_path):
    record = synthetic_record()
    path = tmp_path / "trial_4.csv"
    save_trial_csv(record, str(path))
    save_gain_sidecar(record, str(tmp_path / "trial_4_gains.json"))
    [back] = load_trial_csv(str(path), trial_index=4)
    # the seed is not in the CSV
    assert (back.trial_index, back.seed) == (4, -1)
    assert np.array_equal(back.X, record.X)
    assert np.array_equal(back.U_ce, record.U_ce)
    assert np.array_equal(back.U_cb, record.U_cb)
    assert np.array_equal(back.U_pr, record.U_pr)
    assert np.array_equal(back.W, record.W)
    assert np.array_equal(back.breaker, record.breaker)
    assert np.array_equal(back.stage_cost, record.stage_cost)
    # the log and its sidecar hold every field the audit reads: the loaded
    # record decomposes to the same bits at every prefix, the horizon too
    back = replace(back, gain_segments=load_gain_sidecar(
        str(tmp_path / "trial_4_gains.json")))
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    steps = list(range(1, record.horizon + 1))
    assert decompose_at(back, oracle, spec, steps) == \
        decompose_at(record, oracle, spec, steps)


def test_csv_round_trip_keeps_every_bit_of_edge_values(tmp_path):
    # tobytes, not array_equal: NaN must come back as NaN and -0.0 as -0.0
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
              1.7976931348623157e308, -1.7976931348623157e308]
    values += [float(f"{sign}1e{k}") for k in range(-323, 309)
               for sign in ("", "-")]
    column = np.array(values)
    T = len(column)
    cols = np.stack([np.roll(column, j) for j in range(2 * 3 + 2 * 2 + 1)],
                    axis=1)
    record = TrialRecord(
        trial_index=0, seed=0, X=cols[:, 0:3], U_ce=cols[:, 3:5],
        U_pr=cols[:, 5:7], W=cols[:, 7:10],
        breaker=np.arange(T, dtype=np.int8) % 3, stage_cost=cols[:, 10])
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    [back] = load_trial_csv(str(path))
    for name in ("X", "U_ce", "U_cb", "U_pr", "W", "breaker", "stage_cost"):
        got, want = getattr(back, name), getattr(record, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), name


def test_load_yields_consecutive_blocks(tmp_path):
    record = synthetic_record(T=2 * NOISE_CHUNK + 5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    blocks = list(load_trial_csv(str(path), trial_index=4))
    assert [(b.first_step, b.horizon) for b in blocks] == [
        (1, NOISE_CHUNK), (NOISE_CHUNK + 1, 2 * NOISE_CHUNK),
        (2 * NOISE_CHUNK + 1, 2 * NOISE_CHUNK + 5)]
    for name in ("X", "U_ce", "U_cb", "U_pr", "W", "breaker", "stage_cost"):
        got = np.concatenate([getattr(b, name) for b in blocks])
        assert got.tobytes() == getattr(record, name).tobytes(), name


def _random_cell(rng) -> str:
    kind = rng.integers(4)
    if kind == 0:
        # any bit pattern, NaN payloads and subnormals included
        return repr(float(rng.integers(0, 2 ** 64, dtype=np.uint64)
                          .view(np.float64)))
    if kind == 1:
        # more digits than a double holds, so the parse has to round
        digits = "".join(str(d) for d in rng.integers(0, 10, 25))
        return (f"{rng.choice(['', '-', '+'])}{digits[:rng.integers(1, 5)]}"
                f".{digits[5:]}e{rng.integers(-330, 320)}")
    if kind == 2:
        return str(rng.choice(["0", "-0", "1.", ".5", "1E5", "inf", "-inf",
                               "Infinity", "nan", "-nan", "NaN", " 2.5",
                               "2.5 ", "1e-400", "-1e400", "00012.5000"]))
    return repr(float(rng.standard_normal()))


def test_load_matches_a_per_field_float_parse(tmp_path):
    # a u_cb cell follows the rule as a float: the u_ce cell's own text on
    # a clear row, any spelling of zero on a breaker row
    rng = np.random.default_rng(2024)
    n, m, T = 3, 2, 400
    lines = [csv_header(n, m)]
    for k in range(1, T + 1):
        code = int(rng.integers(3))
        x_cells = [_random_cell(rng) for _ in range(n)]
        ce_cells = [_random_cell(rng) for _ in range(m)]
        cb_cells = (ce_cells if code == BREAKER_CLEAR else
                    [str(rng.choice(["0", "-0", "0.0", "-0.0", "0e7"]))
                     for _ in range(m)])
        rest = [_random_cell(rng) for _ in range(m + n)]
        lines.append(",".join([str(k), *x_cells, *ce_cells, *cb_cells,
                               *rest, str(code), _random_cell(rng)]))
    path = tmp_path / "trial.csv"
    path.write_text("\n".join(lines) + "\n")
    want = np.array([[float(p) for p in line.split(",")]
                     for line in lines[1:]])
    [back] = load_trial_csv(str(path))
    got = np.hstack([back.X, back.U_ce, back.U_pr, back.W])
    ce = slice(1 + n, 1 + n + m)
    assert got.tobytes() == np.hstack(
        [want[:, 1:1 + n], want[:, ce], want[:, 1 + n + 2 * m:-2]]).tobytes()
    clear = want[:, -2] == BREAKER_CLEAR
    assert back.U_cb.tobytes() == np.where(clear[:, None], want[:, ce],
                                           0.0).tobytes()
    assert back.breaker.tobytes() == want[:, -2].astype(np.int8).tobytes()
    assert back.stage_cost.tobytes() == want[:, -1].tobytes()


def test_u_cb_cells_of_signed_zeros_and_nans(tmp_path):
    # u_ce of -0.0 and NaN on clear rows and on breaker rows: a clear row's
    # u_cb cell is its u_ce cell, NaN and sign kept, any other row's is 0.0
    codes = np.array([0, 1, 2, 0], dtype=np.int8)
    record = TrialRecord(
        trial_index=0, seed=0, X=np.zeros((4, 1)),
        U_ce=np.array([[-0.0, np.nan]] * 4), U_pr=np.zeros((4, 2)),
        W=np.zeros((4, 1)), breaker=codes, stage_cost=np.zeros(4))
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[2:4] for row in rows] == [["-0.0", "nan"]] * 4
    assert [row[4:6] for row in rows] == [
        ["-0.0", "nan"], ["0.0", "0.0"], ["0.0", "0.0"], ["-0.0", "nan"]]
    [back] = load_trial_csv(str(path))
    want = np.array([[-0.0, np.nan], [0.0, 0.0], [0.0, 0.0], [-0.0, np.nan]])
    assert back.U_cb.tobytes() == record.U_cb.tobytes() == want.tobytes()
    assert back.U_ce.tobytes() == record.U_ce.tobytes()


def _set_cells(line: str, cells: dict) -> str:
    parts = line.split(",")
    for column, value in cells.items():
        parts[column] = value
    return ",".join(parts)


# columns of a 3x2 log: k, x_1..3, u_ce_1..2 (4, 5), u_cb_1..2 (6, 7),
# u_pr, w, breaker (-2), stage_cost
@pytest.mark.parametrize("tamper, accepted", [
    (lambda row: {4: repr(float(row[4]) + 1.0)}, False),
    (lambda row: {-2: "1"}, False),
    (lambda row: {-2: "2", 6: "0.0", 7: "0.5"}, False),
    (lambda row: {6: "nan", 4: "nan"}, True),
    (lambda row: {-2: "1", 6: "-0.0", 7: "0"}, True),
], ids=["u_ce_raised", "code_flipped", "u_cb_nonzero_on_breaker_row",
        "nan_matches_nan", "any_zero_on_breaker_row"])
def test_load_checks_u_cb_against_the_rule(tmp_path, tamper, accepted):
    # a clear row with nonzero u_ce in the second block: the error names
    # the step, not the row of the block
    T, step = NOISE_CHUNK + 10, NOISE_CHUNK + 3
    record = replace(synthetic_record(T=T),
                     breaker=np.zeros(T, dtype=np.int8))
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = path.read_text().splitlines()
    row = lines[step].split(",")
    assert row[0] == str(step) and row[4] == row[6] != "0.0"
    lines[step] = _set_cells(lines[step], tamper(row))
    path.write_text("\n".join(lines) + "\n")
    if accepted:
        assert len(list(load_trial_csv(str(path)))) == 2
        return
    with pytest.raises(IncompleteLog) as info:
        list(load_trial_csv(str(path)))
    assert str(info.value) == (
        f"{path}: u_cb at step {step} contradicts its u_ce and breaker code "
        f"{lines[step].split(',')[-2]}")


@pytest.mark.parametrize("field, bad", [
    ("W", np.zeros((50, 2))),
    ("breaker", np.zeros((49,), dtype=np.int8)),
    ("stage_cost", np.zeros((50, 1))),
    ("U_pr", np.zeros((50, 3))),
    ("gain_segments", [(1, np.zeros((3, 2)))]),
])
def test_save_rejects_misshaped_field(field, bad):
    # a misshaped record never reaches save_trial_csv: building it fails
    with pytest.raises(IncompleteLog) as info:
        replace(synthetic_record(), **{field: bad})
    assert field in str(info.value)


def test_save_twice_identical_bytes(tmp_path):
    record = synthetic_record(seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trial_csv(record, str(p1))
    save_trial_csv(record, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_missing_file(tmp_path):
    with pytest.raises(IncompleteLog):
        list(load_trial_csv(str(tmp_path / "absent.csv")))


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,foo,bar\n1,0.0,0.0\n")
    with pytest.raises(IncompleteLog):
        list(load_trial_csv(str(path)))


def test_load_rejects_short_row(tmp_path):
    record = synthetic_record(T=5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = path.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteLog) as info:
        list(load_trial_csv(str(path)))
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
        list(load_trial_csv(str(path)))
    assert "row 3" in str(info.value)


def _with_cell(line: str, value: str) -> str:
    parts = line.split(",")
    parts[-1] = value
    return ",".join(parts)


@pytest.mark.parametrize("mangle, message", [
    # lines[0] is the header, row 1; a blank line still counts as a row
    (lambda lines: lines[:2] + [""] + [_with_cell(lines[2], "x")]
     + lines[3:], "row 4 failed to parse"),
    (lambda lines: lines[:2] + ["   "] + lines[2:], "row 3 has 1 fields"),
    (lambda lines: lines[:2] + [lines[2] + ","] + lines[3:],
     "row 3 has 16 fields"),
    (lambda lines: lines[:1] + [line.rsplit(",", 1)[0] for line in lines[1:]],
     "row 2 has 14 fields"),
    (lambda lines: lines[:2] + [_with_cell(lines[2], "1_0")] + lines[3:],
     "row 3 failed to parse"),
    (lambda lines: lines[:2] + [_with_cell(lines[2], "\u0661\u0662")]
     + lines[3:], "row 3 failed to parse"),
], ids=["blank_line_before_bad_row", "whitespace_line", "trailing_comma",
        "every_row_one_short", "underscored_digits", "non_ascii_digits"])
def test_load_names_the_bad_row(tmp_path, mangle, message):
    record = synthetic_record(T=5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = mangle(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteLog) as info:
        list(load_trial_csv(str(path)))
    assert message in str(info.value)


def test_bad_row_search_parses_only_from_the_failing_block(tmp_path,
                                                          monkeypatch):
    # the earlier blocks parsed already, so their lines are only counted
    # (the blank one too) and the one-line parses start at the third block
    record = synthetic_record(T=9000)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = path.read_text().splitlines()
    bad = 2 * NOISE_CHUNK + 100
    lines[bad] = _with_cell(lines[bad], "x")
    lines.insert(10, "")
    path.write_text("\n".join(lines) + "\n")
    parsed = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        if isinstance(source, list):
            parsed.append(int(source[0].split(",")[0]))
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr("alqr.records.np.loadtxt", spy)
    with pytest.raises(IncompleteLog) as info:
        list(load_trial_csv(str(path)))
    assert f"row {bad + 2} failed to parse" in str(info.value)
    assert parsed == list(range(2 * NOISE_CHUNK + 1, bad + 1))


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["header_only",
                                                    "blank_lines"])
def test_load_without_rows_warns_nothing(tmp_path, capsys, body):
    path = tmp_path / "trial.csv"
    path.write_text(csv_header(3, 2) + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IncompleteLog) as info:
            list(load_trial_csv(str(path)))
    assert "no data rows" in str(info.value)
    assert capsys.readouterr().err == ""


def test_load_rejects_gap_in_steps(tmp_path):
    record = synthetic_record(T=5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    lines = path.read_text().splitlines()
    del lines[3]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteLog):
        list(load_trial_csv(str(path)))


@pytest.mark.parametrize("corrupt", [
    lambda data: data + b"\xff\xfe",
    lambda data: data.replace(b"\n3,", b"\n3.9,", 1),
], ids=["invalid_utf8", "fractional_step"])
def test_load_rejects_unreadable_bytes(tmp_path, corrupt):
    record = synthetic_record(T=5)
    path = tmp_path / "trial.csv"
    save_trial_csv(record, str(path))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(IncompleteLog):
        list(load_trial_csv(str(path)))


def test_gain_sidecar_round_trip(tmp_path):
    record = synthetic_record()
    path = tmp_path / "gains.json"
    save_gain_sidecar(record, str(path))
    segments = load_gain_sidecar(str(path))
    assert len(segments) == len(record.gain_segments)
    for (s_got, K_got), (s_want, K_want) in zip(segments, record.gain_segments):
        assert s_got == s_want
        assert np.array_equal(K_got, K_want)
