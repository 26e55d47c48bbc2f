"""End-to-end checks of the command line entry points.

Everything goes through ``cli.main(argv)`` so the exit-code contract is
what gets tested: 0 all checks passed, 1 a check ran and failed, 2 the
request itself was unusable.
"""

import concurrent.futures
import json
import os
from dataclasses import astuple, replace

import numpy as np
import pytest

from alqr import cli, harness, records
from alqr.config import parse_config_document
from alqr.control_math import solve_dare
from alqr.harness import generate_stand_in_plant, run_trial, trial_budget
from alqr.plant import NOISE_CHUNK, plant_spec_to_dict
from alqr.records import load_trial_csv
from alqr.regret import TrialFold, decompose_at

SCALAR_DOC = {
    "plant": {"A": [[0.5]], "B": [[1.0]], "W": [[1.0]],
              "Q": [[1.0]], "R": [[1.0]]},
    "horizon": 300,
    "trials": 3,
    "base_seed": 11,
    "checkpoint_factor": 1.5,
    "delta": 0.05,
}


# 3x2, logs on, checkpoints at the powers of two: 4096 and 8192 are the
# last rows of the blocks analyze reads
EDGE_DOC = {
    "plant": {"generator": {"n": 3, "m": 2, "target_rho": 0.9, "seed": 42}},
    "horizon": 8192,
    "trials": 2,
    "base_seed": 2025,
    "checkpoint_factor": 2.0,
    "delta": 0.05,
}


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "configs")
REFERENCE = os.path.join(CONFIGS, "reference.json")
STANDIN_8X4 = os.path.join(CONFIGS, "standin_8x4.json")


def write_config(tmp_path, doc=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SCALAR_DOC if doc is None else doc))
    return str(path)


def simulate(tmp_path, out="run", extra=(), doc=None):
    cfg = write_config(tmp_path, doc)
    out_dir = str(tmp_path / out)
    code = cli.main(["simulate", "--config", cfg, "--out", out_dir,
                     *extra])
    return code, out_dir


def stderr_json(capsys):
    err = capsys.readouterr().err.strip()
    assert "\n" not in err, "error output must be a single line"
    return json.loads(err)


class TestSimulate:
    def test_writes_all_outputs(self, tmp_path, capsys):
        code, out = simulate(tmp_path)
        assert code == 0
        for name in ("config.json", "summary.json", "curves.csv",
                     "tnocb_hist.csv"):
            assert os.path.exists(os.path.join(out, name)), name
        # trial logs are on by default
        for i in range(3):
            base = os.path.join(out, "trials", f"trial_{i}")
            assert os.path.exists(base + ".csv")
            assert os.path.exists(base + "_gains.json")
        assert "3 trials, 0 failed" in capsys.readouterr().out

    def test_summary_and_curves_agree(self, tmp_path):
        _, out = simulate(tmp_path)
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["trials"] == 3
        assert summary["failed_trials"] == 0
        assert len(summary["trial_summaries"]) == 3
        with open(os.path.join(out, "curves.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "k,worst,median,mean,est_sq_median"
        last = lines[-1].split(",")
        assert int(last[0]) == 300
        assert float(last[1]) == summary["final_worst"]
        assert float(last[2]) == summary["final_median"]

    def test_flag_overrides_reach_config(self, tmp_path):
        code, out = simulate(
            tmp_path, extra=["--set", "trials=2", "--set", "horizon=50",
                             "--set", "base_seed=99"])
        assert code == 0
        with open(os.path.join(out, "config.json")) as f:
            doc = json.load(f)
        assert doc["trials"] == 2
        assert doc["horizon"] == 50
        assert doc["base_seed"] == 99
        logs = os.listdir(os.path.join(out, "trials"))
        assert sorted(logs) == ["trial_0.csv", "trial_0_gains.json",
                                "trial_1.csv", "trial_1_gains.json"]

    @pytest.mark.parametrize("blocked", ["run", "run/trials"])
    def test_uncreatable_output_dir_is_unusable(self, tmp_path, capsys,
                                                blocked):
        # a regular file stands where simulate needs a directory
        path = tmp_path / blocked
        path.parent.mkdir(exist_ok=True)
        path.write_text("")
        code, _ = simulate(tmp_path)
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "IoError"
        assert str(path) in err["message"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("blocked", ["trial_0.csv",
                                         "trial_0_gains.json"])
    def test_unwritable_trial_log_is_unusable(self, tmp_path, capsys,
                                              workers, blocked):
        # a directory stands where a worker writes a trial's log; at two
        # workers the error crosses the process pool
        path = tmp_path / "run" / "trials" / blocked
        path.mkdir(parents=True)
        code, _ = simulate(tmp_path, extra=["--workers", workers])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "IoError"
        assert str(path) in err["message"]

    @pytest.mark.parametrize("field, size", [
        ("n", 10_000_000_000), ("m", 10_000_000_000_000)])
    def test_generated_plant_too_large_to_allocate_is_unusable(
            self, tmp_path, capsys, field, size):
        # A (n = 1e10) is too big for numpy to index, and B (m = 1e13)
        # would take 218 TiB, past any address space
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", REFERENCE, "--out",
                         str(out), "--set", f"plant.generator.{field}={size}"])
        assert code == 2
        err = stderr_json(capsys)
        assert (err["error"], err["path"]) == ("ConfigInvalid",
                                               "plant.generator")
        assert f"{field}={size}" in err["message"]
        assert not out.exists()

    def test_set_override_reaches_controller(self, tmp_path):
        code, out = simulate(
            tmp_path,
            extra=["--set", "controller.gain_update_schedule=every-step",
                   "--set", "horizon=40"])
        assert code == 0
        with open(os.path.join(out, "config.json")) as f:
            doc = json.load(f)
        assert doc["controller"]["gain_update_schedule"] == "every-step"
        assert doc["horizon"] == 40

    def test_bad_horizon_is_unusable(self, tmp_path, capsys):
        code, out = simulate(tmp_path, extra=["--set", "horizon=0"])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "horizon"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["1e400", "-1e400", "Infinity"])
    def test_infinite_checkpoint_factor_is_unusable(self, tmp_path, capsys,
                                                    value):
        code, out = simulate(
            tmp_path, extra=["--set", f"checkpoint_factor={value}"])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "checkpoint_factor"
        assert "finite" in err["message"]
        assert not os.path.exists(out)

    def test_horizon_past_the_array_size_is_unusable(self, tmp_path, capsys):
        # one trial's arrays would need more bytes than an array can hold
        code, out = simulate(
            tmp_path, extra=["--set", "horizon=1" + "0" * 30])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "horizon"
        assert "too long" in err["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_horizon_past_memory_is_unusable(self, tmp_path, capsys,
                                             workers):
        # one trial's arrays fit an array's index range but not the 128 TiB
        # user address space, so allocating them fails at once under any
        # overcommit setting; from a pool worker the error reaches the
        # parent. A batch of one trial is named at the budget that
        # trial_batches counts for it, snapshots included
        code, _ = simulate(
            tmp_path, extra=["--set", "horizon=1" + "0" * 16,
                             "--workers", workers])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "horizon"
        assert "more than could be allocated" in err["message"]
        budget = trial_budget(parse_config_document(
            dict(SCALAR_DOC, horizon=10 ** 16)).experiment)
        assert f" would take {budget} bytes," in err["message"]

    @pytest.mark.parametrize("cell", ["1" + "0" * 400, "1e400", "-Infinity"],
                             ids=["10**400", "1e400", "-Infinity"])
    def test_matrix_cell_past_the_float_range_is_unusable(
            self, tmp_path, capsys, cell):
        plant = ('plant={"A": [[0.5]], "B": [[1]], "W": [[%s]], '
                 '"Q": [[1]], "R": [[1]]}' % cell)
        code, out = simulate(tmp_path, extra=["--set", plant])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "plant.W"
        assert "entry [0][0] must be finite" in err["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_unusable(self, tmp_path, capsys, workers):
        code, out = simulate(tmp_path, extra=["--workers", workers])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "--workers"
        assert not os.path.exists(out)

    def test_non_integer_thread_cap_is_unusable(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("ALQR_THREADS", "abc")
        code, out = simulate(tmp_path)
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "ALQR_THREADS"
        assert "abc" in err["message"]
        assert not os.path.exists(out)

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config",
                         str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "run")])
        assert code == 2
        assert stderr_json(capsys)["error"] == "IoError"

    def test_undecodable_config_is_unusable(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"horizon": 5\xff}')
        code = cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "run")])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert str(path) in err["message"]

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out1 = simulate(tmp_path, out="run1")
        _, out2 = simulate(tmp_path, out="run2")
        for name in ("summary.json", "curves.csv", "tnocb_hist.csv"):
            with open(os.path.join(out1, name), "rb") as f:
                blob1 = f.read()
            with open(os.path.join(out2, name), "rb") as f:
                blob2 = f.read()
            assert blob1 == blob2, name

    def test_parallel_matches_serial(self, tmp_path):
        _, serial = simulate(tmp_path, out="serial")
        _, par = simulate(tmp_path, out="par", extra=["--workers", "2"])
        for name in ("summary.json", "curves.csv"):
            with open(os.path.join(serial, name), "rb") as f:
                want = f.read()
            with open(os.path.join(par, name), "rb") as f:
                got = f.read()
            assert got == want, name

    def test_pool_has_no_more_workers_than_batches(self, tmp_path,
                                                   monkeypatch):
        # a forking pool starts all its workers at the first submit, so
        # --workers 8 on 3 trials (3 batches) must ask for 3. The pool is
        # replaced by one that records the request and maps in this
        # process, so the test starts no process
        asked = []

        class SerialPool:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.delenv("ALQR_THREADS", raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        _, serial = simulate(tmp_path, out="serial", extra=["--workers", "1"])
        _, pooled = simulate(tmp_path, out="pooled", extra=["--workers", "8"])
        assert asked == [3]
        names = sorted(os.path.relpath(os.path.join(root, name), serial)
                       for root, _, files in os.walk(serial)
                       for name in files)
        assert "trials/trial_2.csv" in names
        for name in names:
            with open(os.path.join(serial, name), "rb") as f:
                want = f.read()
            with open(os.path.join(pooled, name), "rb") as f:
                assert f.read() == want, name

    def test_logs_on_and_off_give_the_same_bytes(self, tmp_path,
                                                 monkeypatch):
        # with logs a trial holds the horizon's rows, without them one
        # window, so with a budget of two horizons the four trials run in
        # four batches with logs and in two without
        doc = dict(EDGE_DOC, horizon=9000, trials=4, checkpoint_factor=1.2)
        experiment = parse_config_document(doc).experiment
        monkeypatch.setattr(harness, "BATCH_BYTES",
                            2 * trial_budget(experiment) - 1)
        assert len(harness.trial_batches(experiment)) == 4
        assert len(harness.trial_batches(experiment, records=False)) == 2
        outputs = []
        for workers in ("1", "2"):
            for logs in ("true", "false"):
                code, out = simulate(
                    tmp_path, out=f"run_{workers}_{logs}", doc=doc,
                    extra=["--workers", workers,
                           "--set", f"write_trial_logs={logs}"])
                assert code == 0
                assert os.path.isdir(os.path.join(out, "trials")) == \
                    (logs == "true")
                outputs.append([open(os.path.join(out, name), "rb").read()
                                for name in ("summary.json", "curves.csv")])
        assert all(got == outputs[0] for got in outputs[1:])


class TestAnalyze:
    def test_clean_run_passes(self, tmp_path, capsys):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["checked"] == 3
        assert report["failures"] == []
        for info in report["trials"]:
            assert info["steps"] == 300
            assert info["worst_residual"] < 1e-6
            assert "t_nocb" in info
            assert "t_stab" in info
            assert isinstance(info["noise_event_holds"], bool)

    @pytest.mark.parametrize("T", [2 * NOISE_CHUNK, 9000])
    def test_block_edges_match_the_in_memory_trial(self, tmp_path, capsys,
                                                   T):
        doc = dict(EDGE_DOC, horizon=T)
        code, out = simulate(tmp_path, extra=("--workers", "1"), doc=doc)
        assert code == 0
        capsys.readouterr()
        assert cli.main(["analyze", "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        with open(os.path.join(out, "summary.json")) as f:
            summaries = json.load(f)["trial_summaries"]
        experiment = parse_config_document(doc).experiment
        spec = experiment.plant
        oracle = solve_dare(spec.sys, spec.cost, spec.W)
        cps = experiment.checkpoints().tolist()
        assert {NOISE_CHUNK, 2 * NOISE_CHUNK} <= set(cps) and cps[-1] == T
        for info, summary in zip(report["trials"], summaries):
            idx = info["trial"]
            record = run_trial(experiment, idx, oracle).record
            want = decompose_at(record, oracle, spec, cps)
            # the reports analyze makes from the log's blocks
            fold = TrialFold(oracle, spec, cps, experiment.delta, audit=True)
            for block in load_trial_csv(
                    os.path.join(out, "trials", f"trial_{idx}.csv")):
                fold.add(block)
            got = fold.reports(cps)
            assert np.array(list(map(astuple, got))).tobytes() == \
                np.array(list(map(astuple, want))).tobytes()
            assert info["worst_residual"] == max(r.residual for r in want)
            assert summary["final_regret"] == want[-1].regret
            for key in ("t_nocb", "t_nocb_censored", "noise_event_holds",
                        "t_stab", "t_stab_censored", "final_regret",
                        "final_rel_avg_regret", "max_state_norm_ratio"):
                assert info[key] == summary[key], key

    def test_reads_each_log_in_blocks(self, tmp_path, capsys, monkeypatch):
        _, out = simulate(tmp_path, extra=("--workers", "1"),
                          doc=dict(EDGE_DOC, horizon=9000))
        capsys.readouterr()
        real = records.np.loadtxt
        parsed = []

        def counting(*args, **kwargs):
            data = real(*args, **kwargs)
            parsed.append(len(data))
            return data

        monkeypatch.setattr(records.np, "loadtxt", counting)
        assert cli.main(["analyze", "--out", out]) == 0
        capsys.readouterr()
        # 9000 rows are 4096 + 4096 + 808, per log
        assert sorted(parsed) == [808, 808] + [NOISE_CHUNK] * 4

        # a bad cell in the second block, after a stage cost off in the
        # first: the trial is one parse failure, nothing from its first
        # block is reported
        log = os.path.join(out, "trials", "trial_0.csv")
        with open(log) as f:
            lines = f.read().splitlines()
        for i, value in ((10, "1e300"), (NOISE_CHUNK + 100, "x")):
            lines[i] = lines[i].rsplit(",", 1)[0] + "," + value
        with open(log, "w") as f:
            f.write("\n".join(lines) + "\n")
        parsed.clear()
        assert cli.main(["analyze", "--out", out]) == 1
        report = json.loads(capsys.readouterr().out)
        assert all(rows <= NOISE_CHUNK for rows in parsed)
        [failure] = report["failures"]
        assert (failure["trial"], failure["kind"]) == (0, "parse")
        # row 1 is the header
        assert f"row {NOISE_CHUNK + 101} failed to parse" in \
            failure["message"]
        assert [info["trial"] for info in report["trials"]] == [1]

    def test_corrupted_stage_cost_named_by_trial_and_row(
            self, tmp_path, capsys):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        log = os.path.join(out, "trials", "trial_1.csv")
        with open(log) as f:
            lines = f.read().splitlines()
        parts = lines[5].split(",")  # header + 4 rows, so this is step 5
        # a NaN compares false against any tolerance, so it needs its own case
        for value in ("999.0", "nan"):
            parts[-1] = value
            lines[5] = ",".join(parts)
            with open(log, "w") as f:
                f.write("\n".join(lines) + "\n")

            code = cli.main(["analyze", "--out", out])
            report = json.loads(capsys.readouterr().out)
            assert code == 1
            bad = [f for f in report["failures"] if f["kind"] == "stage_cost"]
            assert bad and bad[0]["trial"] == 1 and bad[0]["row"] == 5
            assert f"step 5 is {value}" in bad[0]["message"]
            # the other trials still check out
            assert all(f["trial"] == 1 for f in report["failures"])

    def test_mangled_line_reported_as_parse_failure(self, tmp_path, capsys):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        log = os.path.join(out, "trials", "trial_0.csv")
        with open(log) as f:
            lines = f.read().splitlines()
        lines[3] = "not,a,valid,row"
        with open(log, "w") as f:
            f.write("\n".join(lines) + "\n")

        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        kinds = {f["kind"] for f in report["failures"]}
        assert "parse" in kinds
        assert any(f["trial"] == 0 for f in report["failures"])

    @pytest.mark.parametrize("corrupt", [
        lambda data: data + b"\xff\xfe",
        lambda data: data.replace(b"\n3,", b"\n3.9,", 1),
    ], ids=["invalid_utf8", "fractional_step"])
    def test_unreadable_log_is_parse_failure(self, tmp_path, capsys,
                                             corrupt):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        log = os.path.join(out, "trials", "trial_1.csv")
        with open(log, "rb") as f:
            data = f.read()
        with open(log, "wb") as f:
            f.write(corrupt(data))

        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(f["trial"], f["kind"]) for f in report["failures"]] == [
            (1, "parse")]
        assert [info["trial"] for info in report["trials"]] == [0, 2]

    @pytest.mark.parametrize("name, trial", [("trial_1.csv", 1),
                                             ("trial_2_gains.json", 2)])
    def test_log_path_that_is_a_directory_is_parse_failure(
            self, tmp_path, capsys, name, trial):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        path = os.path.join(out, "trials", name)
        os.remove(path)
        os.mkdir(path)

        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(f["trial"], f["kind"]) for f in report["failures"]] == [
            (trial, "parse")]
        assert name in report["failures"][0]["message"]
        assert [info["trial"] for info in report["trials"]] == \
            [i for i in range(3) if i != trial]

    @pytest.mark.parametrize("tamper", [
        "u_ce_raised", "code_flipped", "u_cb_nonzero_on_breaker_row"])
    def test_log_against_the_breaker_rule_is_parse_failure(
            self, tmp_path, capsys, tamper):
        # trial 2 of the scalar run has breaker rows; its u_cb column must
        # be its u_ce where the code is 0 and 0 elsewhere. The scalar log's
        # columns: k, x_1, u_ce_1, u_cb_1, u_pr_1, w_1, breaker, stage_cost
        _, out = simulate(tmp_path)
        capsys.readouterr()
        path = os.path.join(out, "trials", "trial_2.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if tamper == "u_cb_nonzero_on_breaker_row":
            row = next(row for row in rows if row[6] != "0")
            row[3] = "0.5"
        else:
            row = next(row for row in rows
                       if row[6] == "0" and float(row[2]) != 0.0)
            if tamper == "u_ce_raised":
                row[2] = repr(float(row[2]) + 1.0)
            else:
                row[6] = "1"
        with open(path, "w") as f:
            f.write("\n".join([lines[0]] + [",".join(r) for r in rows])
                    + "\n")

        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["failures"] == [{
            "trial": 2, "kind": "parse",
            "message": (f"{path}: u_cb at step {row[0]} contradicts its "
                        f"u_ce and breaker code {row[6]}")}]
        assert [info["trial"] for info in report["trials"]] == [0, 1]

    def test_code_the_breaker_rule_does_not_give_is_breaker_failure(
            self, tmp_path, capsys):
        # step 1's u_ce is 0 (the first gain is zero), so a code flipped
        # to 1 there leaves u_cb 0 and passes load_trial_csv's u_cb check;
        # analyze replays the breaker rule from the logged u_ce and names
        # the step. The log's columns: k, x_1, u_ce_1, u_cb_1, u_pr_1, w_1,
        # breaker, stage_cost
        _, out = simulate(tmp_path)
        capsys.readouterr()
        path = os.path.join(out, "trials", "trial_0.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        row = lines[1].split(",")
        assert row[0] == "1" and float(row[2]) == 0.0 and row[6] == "0"
        row[6] = "1"
        lines[1] = ",".join(row)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["failures"] == [{
            "trial": 0, "kind": "breaker", "row": 1,
            "message": "breaker code at step 1 is 1, the rule gives 0"}]
        assert [info["trial"] for info in report["trials"]] == [0, 1, 2]

    @pytest.mark.parametrize("doc, extra", [
        (REFERENCE, ["--set", "horizon=5000", "--set", "trials=2"]),
        (STANDIN_8X4, ["--set", "horizon=5000", "--set", "trials=2"]),
        ("loud", ["--set", "controller.gain_update_schedule=every-step"]),
    ], ids=["reference", "standin_8x4", "W=40I_every_step"])
    def test_logged_codes_are_the_breaker_rule(self, tmp_path, capsys,
                                                doc, extra):
        # untampered logs give no breaker failure: the reference and 8x4
        # configs cross the block edge at 4096, and at W = 40 I the breaker
        # trips and dwells
        if doc == "loud":
            spec = generate_stand_in_plant(3, 2, 0.9, 42)
            block = plant_spec_to_dict(replace(spec, W=40.0 * spec.W))
            doc = dict(EDGE_DOC, plant=block, horizon=400, trials=3)
        else:
            with open(doc) as f:
                doc = json.load(f)
        code, out = simulate(tmp_path, doc=doc, extra=[
            "--set", "write_trial_logs=true", *extra])
        assert code == 0
        capsys.readouterr()
        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["failures"] == []
        if "every-step" in extra:
            codes = np.concatenate([block.breaker for block in load_trial_csv(
                os.path.join(out, "trials", "trial_0.csv"))])
            assert (codes == records.BREAKER_TRIGGER).any()
            assert (codes == records.BREAKER_DWELL).any()

    def test_hand_built_single_step_log(self, tmp_path, capsys):
        out = tmp_path / "byhand"
        (out / "trials").mkdir(parents=True)
        doc = dict(SCALAR_DOC, horizon=1, trials=1, base_seed=0)
        (out / "config.json").write_text(json.dumps(doc))
        # one step from x=0: pure probe input 0.3, noise 0.25,
        # stage cost = 0^2 * 1 + 0.3^2 * 1
        (out / "trials" / "trial_0.csv").write_text(
            "k,x_1,u_ce_1,u_cb_1,u_pr_1,w_1,breaker,stage_cost\n"
            "1,0.0,0.0,0.0,0.3,0.25,0,0.09\n")
        (out / "trials" / "trial_0_gains.json").write_text(json.dumps({
            "trial": 0, "seed": 0,
            "gain_segments": [{"from_step": 1, "K": [[0.0]]}],
        }))

        code = cli.main(["analyze", "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["checked"] == 1
        info = report["trials"][0]
        assert info["steps"] == 1
        assert info["worst_residual"] < 1e-12
        assert info["t_nocb"] == 1 and not info["t_nocb_censored"]

    @pytest.mark.parametrize("sidecar, named", [
        ('{"trial": 2, "seed": 0, "gain_segments": [{"from_step": 1, "K"',
         "trial_2_gains.json"),
        ('{"trial": 2, "seed": 0, "gain_segments": [{"K": [[0.0]]}]}',
         "trial_2_gains.json"),
        ('{"trial": 2, "seed": 0, "gain_segments": '
         '[{"from_step": 1, "K": [[0.0, 0.0]]}]}', "gain_segments"),
    ], ids=["truncated", "no_from_step", "wrong_shape"])
    def test_malformed_gain_sidecar_is_parse_failure(self, tmp_path, capsys,
                                                     sidecar, named):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        path = os.path.join(out, "trials", "trial_2_gains.json")
        with open(path, "w") as f:
            f.write(sidecar)

        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(f["trial"], f["kind"]) for f in report["failures"]] == [
            (2, "parse")]
        assert named in report["failures"][0]["message"]
        assert [info["trial"] for info in report["trials"]] == [0, 1]

    @pytest.mark.parametrize("entry", ["NaN", "1e400"])
    def test_non_finite_gain_is_parse_failure(self, tmp_path, capsys,
                                              entry):
        _, out = simulate(tmp_path)
        capsys.readouterr()
        path = os.path.join(out, "trials", "trial_0_gains.json")
        with open(path) as f:
            doc = json.load(f)
        doc["gain_segments"][-1]["K"][0][0] = "NONFINITE"
        with open(path, "w") as f:
            f.write(json.dumps(doc).replace('"NONFINITE"', entry))

        code = cli.main(["analyze", "--out", out])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [(f["trial"], f["kind"]) for f in report["failures"]] == [
            (0, "parse")]
        assert "non-finite" in report["failures"][0]["message"]
        assert [info["trial"] for info in report["trials"]] == [1, 2]

    def test_no_logs_is_unusable(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        (out / "config.json").write_text(json.dumps(SCALAR_DOC))
        code = cli.main(["analyze", "--out", str(out)])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "IncompleteLog"
        assert "trials" in err["message"]


class TestGenPlant:
    def test_emits_usable_plant_block(self, tmp_path, capsys):
        code = cli.main(["gen-plant", "--n", "2", "--m", "1",
                         "--rho", "0.8", "--seed", "3"])
        assert code == 0
        block = json.loads(capsys.readouterr().out)
        assert sorted(block) == ["A", "B", "Q", "R", "W"]
        assert len(block["A"]) == 2 and len(block["A"][0]) == 2
        assert len(block["B"][0]) == 1

        doc = dict(SCALAR_DOC, plant=block, horizon=30, trials=1)
        code, _ = simulate(tmp_path, doc=doc)
        assert code == 0

    def test_stdout_and_file_agree_and_repeat(self, tmp_path, capsys):
        argv = ["gen-plant", "--n", "3", "--m", "2", "--rho", "0.9",
                "--seed", "42"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

        path = tmp_path / "plant.json"
        assert cli.main(argv + ["--out", str(path)]) == 0
        assert path.read_text() == first

    def test_bad_rho_is_unusable(self, capsys):
        code = cli.main(["gen-plant", "--n", "2", "--m", "1",
                         "--rho", "1.5", "--seed", "0"])
        assert code == 2
        assert stderr_json(capsys)["error"] == "ConfigInvalid"

    def test_plant_too_large_to_allocate_is_unusable(self, capsys):
        # B would take 218 TiB, past any address space
        code = cli.main(["gen-plant", "--n", "3", "--m", "10000000000000",
                         "--rho", "0.5", "--seed", "0"])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["message"].startswith("n=3, m=10000000000000: ")


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code = cli.main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert [row.split()[:2] for row in out.splitlines()] == [
            ["PASS", "scalar-riccati-root"],
            ["PASS", "scalar-riccati-residual"],
            ["PASS", "regret-decomposition"]]

    def test_repeat_output_identical(self, capsys):
        assert cli.main(["verify"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().out == first

    def test_impossible_tolerance_fails(self, capsys):
        code = cli.main(["verify", "--set", "dare_rtol=1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_unknown_knob_is_unusable(self, capsys):
        code = cli.main(["verify", "--set", "nonsense=1"])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == "nonsense"

    @pytest.mark.parametrize("assignment, knob", [
        ("horizon=0", "horizon"),
        ("horizon=-5", "horizon"),
        ("horizon=1.5", "horizon"),
        # past an array's index range, and past the address space
        ("horizon=1" + "0" * 24, "horizon"),
        ("horizon=1" + "0" * 16, "horizon"),
        ("seed=-1", "seed"),
        ('dare_rtol="x"', "dare_rtol"),
    ])
    def test_bad_knob_value_is_unusable(self, capsys, assignment, knob):
        code = cli.main(["verify", "--set", assignment])
        assert code == 2
        err = stderr_json(capsys)
        assert err["error"] == "ConfigInvalid"
        assert err["path"] == knob


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
