import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinfer.bench import (
    run_coverage, run_power, run_predictive_coverage, run_selection, run_width,
    summarize_rows,
)
from mpinfer.cli import main
from mpinfer.core import MPConfig
from mpinfer.learners import ConstantLearner, RidgeLearner
from mpinfer.simgen import SimSpec


SPEC = SimSpec(model="linear", task="regression", N=60, M=10, snr=5.0, seed=0)
CFG = MPConfig(K=250, alpha=0.1, learner=RidgeLearner(lam=1e-4))


class TestBenchReports:
    def test_summary_recomputes_from_rows(self):
        rep = run_coverage(SPEC, CFG, j=0, replicates=3, seed=5, n_test=400)
        assert rep.verify_summary()
        rep2 = run_power(SPEC, CFG, j=0, snr_grid=[0.0, 5.0], replicates=2,
                         seed=6)
        assert rep2.verify_summary()

    def test_rows_are_prefix_stable(self):
        # any prefix of replicates is reproducible independently
        short = run_coverage(SPEC, CFG, j=0, replicates=2, seed=7, n_test=300)
        long = run_coverage(SPEC, CFG, j=0, replicates=4, seed=7, n_test=300)
        assert list(long.rows[:2]) == list(short.rows)

    def test_thread_count_invariance(self):
        kwargs = dict(j=0, replicates=4, seed=8, n_test=300)
        a = run_coverage(SPEC, CFG, threads=1, **kwargs)
        b = run_coverage(SPEC, CFG, threads=4, **kwargs)
        assert a.to_json() == b.to_json()
        sel1 = run_selection(SPEC, CFG, replicates=3, seed=9, threads=1)
        sel4 = run_selection(SPEC, CFG, replicates=3, seed=9, threads=3)
        assert sel1.to_json() == sel4.to_json()

    def test_seed_changes_rows(self):
        a = run_coverage(SPEC, CFG, j=0, replicates=2, seed=10, n_test=300)
        b = run_coverage(SPEC, CFG, j=0, replicates=2, seed=11, n_test=300)
        assert a.rows != b.rows

    def test_width_grid(self):
        rep = run_width(SPEC, CFG, j=0, n_grid=[50, 100], replicates=2, seed=12)
        assert set(rep.metrics["median_width_by_N"]) == {"50", "100"}
        assert rep.verify_summary()

    def test_power_includes_baseline(self):
        rep = run_power(SPEC, CFG, j=0, snr_grid=[0.0, 5.0], replicates=2,
                        seed=13)
        assert "split_power" in rep.metrics
        assert set(rep.metrics["power"]) == {"0.0", "5.0"}

    def test_selection_scores_against_known_support(self):
        rep = run_selection(SPEC, CFG, replicates=2, seed=14)
        row = rep.rows[0]
        assert 0.0 <= row["f1"] <= 1.0
        assert rep.settings["true_support"] == sorted(range(10))

    def test_selection_zero_predictions_give_zero_f1(self):
        cfg = MPConfig(K=250, alpha=0.1, learner=ConstantLearner())
        rep = run_selection(SPEC, cfg, replicates=2, seed=15)
        assert rep.metrics["mean_f1"] == 0.0

    def test_predictive_coverage_report(self):
        rep = run_predictive_coverage(SPEC, CFG, ensembles=2,
                                      points_per_ensemble=20, seed=16)
        assert rep.metrics["evaluations"] == 40
        assert 0.0 <= rep.metrics["coverage"] <= 1.0
        assert rep.verify_summary()

    def test_predictive_classification(self):
        spec = SimSpec(model="linear", task="classification", N=60, M=10,
                       snr=5.0, seed=0)
        rep = run_predictive_coverage(spec, CFG, ensembles=2,
                                      points_per_ensemble=15, seed=17)
        assert "mean_set_size" in rep.metrics

    def test_predictive_binomial_patch_count(self):
        rep = run_predictive_coverage(SPEC, CFG, ensembles=3,
                                      points_per_ensemble=10, seed=18,
                                      binomial_K_tilde=120)
        assert rep.settings["binomial_K_tilde"] == 120
        assert rep.metrics["evaluations"] == 30
        again = run_predictive_coverage(SPEC, CFG, ensembles=3,
                                        points_per_ensemble=10, seed=18,
                                        binomial_K_tilde=120)
        assert rep.to_json() == again.to_json()

    def test_rows_to_csv_tidy_output(self):
        rep = run_coverage(SPEC, CFG, j=0, replicates=2, seed=19, n_test=300)
        lines = rep.rows_to_csv().strip().split("\n")
        assert lines[0].split(",") == ["rep", "target", "target_se", "lo",
                                       "hi", "width", "covered"]
        assert len(lines) == 3

    def test_json_is_valid_and_sorted(self):
        rep = run_coverage(SPEC, CFG, j=0, replicates=2, seed=18, n_test=300)
        payload = json.loads(rep.to_json())
        assert payload["experiment"] == "coverage"
        assert payload["master_seed"] == 18
        assert "threads" not in json.dumps(payload["settings"])

    def test_summarize_rejects_unknown_experiment(self):
        from mpinfer.core import InvalidSpec
        with pytest.raises(InvalidSpec):
            summarize_rows("nope", [])


class TestCli:
    def test_simulate_and_infer_roundtrip(self, tmp_path, capsys):
        data = tmp_path / "sim.csv"
        rc = main(["simulate", "--model", "linear", "--task", "regression",
                   "--N", "60", "--M", "10", "--snr", "4", "--seed", "3",
                   "--out", str(data)])
        assert rc == 0
        assert data.exists() and (tmp_path / "sim.csv.json").exists()
        side = json.loads((tmp_path / "sim.csv.json").read_text())
        assert side["true_beta"][0] == 4.0
        capsys.readouterr()

        out = tmp_path / "report.csv"
        rc = main(["infer", "--data", str(data), "--task", "regression",
                   "--target-col", "target", "--K", "200", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 11
        assert lines[0].startswith("j,name,")

    def test_infer_json_to_stdout(self, tmp_path, capsys):
        data = tmp_path / "sim.csv"
        main(["simulate", "--N", "60", "--M", "10", "--snr", "2",
              "--out", str(data)])
        capsys.readouterr()
        rc = main(["infer", "--data", str(data), "--task", "regression",
                   "--target-col", "target", "--K", "150", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["features"]) == 10

    def test_predict_subcommand(self, tmp_path, capsys):
        data = tmp_path / "sim.csv"
        new = tmp_path / "new.csv"
        main(["simulate", "--N", "80", "--M", "10", "--snr", "3", "--seed",
              "5", "--out", str(data)])
        main(["simulate", "--N", "10", "--M", "10", "--snr", "3", "--seed",
              "6", "--out", str(new)])
        capsys.readouterr()
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--data", str(data), "--task", "regression",
                   "--target-col", "target", "--new-data", str(new),
                   "--K", "200", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "row_id,lo,hi"
        assert len(lines) == 11

    def test_oracle_subcommand(self, tmp_path, capsys):
        rc = main(["oracle", "--model", "linear", "--task", "regression",
                   "--N", "80", "--M", "10", "--snr", "0", "--j", "0",
                   "--K", "400", "--n-test", "500", "--seed", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"target_mc", "target_closed_form", "gap", "mc_se"} <= set(payload)

    def test_bench_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", "power", "--N", "60", "--M", "10",
                   "--snr-grid", "0,5", "--replicates", "2", "--K", "200",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "power"

    def test_bench_csv_format(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "width", "--N", "60", "--M", "10",
                   "--n-grid", "40,60", "--replicates", "2", "--K", "200",
                   "--seed", "4", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,rep,width"
        assert len(lines) == 5

    def test_predict_classification_sets(self, tmp_path, capsys):
        data = tmp_path / "sim.csv"
        new = tmp_path / "new.csv"
        main(["simulate", "--task", "classification", "--N", "80", "--M",
              "10", "--snr", "4", "--seed", "7", "--out", str(data)])
        main(["simulate", "--task", "classification", "--N", "10", "--M",
              "10", "--snr", "4", "--seed", "8", "--out", str(new)])
        capsys.readouterr()
        out = tmp_path / "sets.csv"
        rc = main(["predict", "--data", str(data), "--task", "classification",
                   "--target-col", "target", "--new-data", str(new),
                   "--K", "200", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "row_id,labels"
        assert len(lines) == 11
        for line in lines[1:]:
            labels = line.split(",", 1)[1]
            assert labels == "" or set(labels.split(";")) <= {"0", "1"}

    def test_predict_writes_original_class_labels(self, tmp_path, capsys):
        # first training label is "no", so internal code 0 is "no", not "0"
        gen = np.random.default_rng(4)
        X = gen.standard_normal((80, 3))
        X[0, 0] = -1.0
        labels = np.where(X[:, 0] > 0, "yes", "no")
        data = tmp_path / "train.csv"
        data.write_text("a,b,c,y\n" + "".join(
            ",".join(format(v, ".17g") for v in r) + f",{lab}\n"
            for r, lab in zip(X, labels)))
        new = tmp_path / "new.csv"
        new.write_text("c,b,a\n0,0,3\n0,0,-3\n")   # columns in another order
        out = tmp_path / "sets.csv"
        rc = main(["predict", "--data", str(data), "--task", "classification",
                   "--target-col", "y", "--new-data", str(new), "--K", "300",
                   "--out", str(out)])
        assert rc == 0
        sets = [set(line.split(",", 1)[1].split(";"))
                for line in out.read_text().strip().split("\n")[1:]]
        assert "yes" in sets[0] and "no" in sets[1]
        assert all(s <= {"yes", "no"} for s in sets)

    @pytest.mark.parametrize("new_text, needle", [
        ("x0,x1,x2,target\n1,2,3,4\n1,2\n", "data row 1 has 2 cells"),
        ("x0,x1,z2,target\n1,2,3,4\n", "no column named 'x2'"),
        ("", "empty file"),
    ])
    def test_bad_new_data_is_data_error(self, tmp_path, capsys, new_text, needle):
        gen = np.random.default_rng(5)
        data = tmp_path / "train.csv"
        data.write_text("x0,x1,x2,target\n" + "".join(
            ",".join(format(v, ".17g") for v in r) + "\n"
            for r in gen.standard_normal((30, 4))))
        new = tmp_path / "new.csv"
        new.write_text(new_text)
        rc = main(["predict", "--data", str(data), "--task", "regression",
                   "--target-col", "target", "--new-data", str(new),
                   "--K", "50"])
        assert rc == 3
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["\ufeff", "\n"])
    def test_new_data_with_bom_or_blank_first_line(self, tmp_path, capsys, prefix):
        gen = np.random.default_rng(5)
        data = tmp_path / "train.csv"
        data.write_text("x0,x1,x2,target\n" + "".join(
            ",".join(format(v, ".17g") for v in r) + "\n"
            for r in gen.standard_normal((30, 4))))
        new = tmp_path / "new.csv"
        new.write_bytes((prefix + "x0,x1,x2\n1,2,3\n").encode("utf8"))
        out = tmp_path / "pred.csv"
        rc = main(["predict", "--data", str(data), "--task", "regression",
                   "--target-col", "target", "--new-data", str(new),
                   "--K", "50", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert out.read_text().splitlines()[0] == "row_id,lo,hi"
        assert len(out.read_text().splitlines()) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "nonsense"])
        assert exc.value.code == 2

    def test_data_error_exit_code(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,y\n1,2,3\n4,5,6\n")
        rc = main(["infer", "--data", str(data), "--task", "regression",
                   "--target-col", "missing"])
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["infer", "--ridge-lambda", "0", "--n", "3", "--m", "5"],
        ["oracle", "--model", "nonlinear"],
        ["oracle", "--task", "classification"],
    ])
    def test_bad_inputs_are_data_errors(self, tmp_path, capsys, argv):
        # a singular ridge system and an oracle without a closed form
        data = tmp_path / "train.csv"
        header = ",".join(f"x{c}" for c in range(10)) + ",target\n"
        data.write_text(header + "".join(
            ",".join(format(v, ".17g") for v in r) + "\n"
            for r in np.random.default_rng(6).standard_normal((60, 11))))
        if argv[0] == "infer":
            argv = argv + ["--data", str(data), "--task", "regression", "--K", "50"]
        else:
            argv = argv + ["--N", "60", "--M", "10", "--K", "50", "--n-test", "50"]
        assert main(argv) == 3

    @pytest.mark.parametrize("command", ["infer", "predict"])
    @pytest.mark.parametrize("defect", ["directory", "not-utf8"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, command,
                                            defect):
        good = tmp_path / "good.csv"
        good.write_text("x0,x1,target\n" + "".join(
            ",".join(format(v, ".17g") for v in r) + "\n"
            for r in np.random.default_rng(7).standard_normal((30, 3))))
        bad = tmp_path / "bad.csv"
        if defect == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"x0,x1,target\n1,\xff\xfe,3\n")
        if command == "infer":
            argv = ["infer", "--data", str(bad)]
        else:
            argv = ["predict", "--data", str(good), "--new-data", str(bad)]
        rc = main(argv + ["--task", "regression", "--K", "50"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["width", "--n-grid", "a,b"],
        ["width", "--n-grid", "60,"],
        ["power", "--snr-grid", "x"],
    ])
    def test_malformed_grid_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == 2

    @pytest.mark.parametrize("experiment", ["coverage", "width", "power",
                                            "selection", "predictive"])
    @pytest.mark.parametrize("replicates", ["0", "-2"])
    def test_no_replicates_is_data_error(self, capsys, experiment, replicates):
        rc = main(["bench", experiment, "--replicates", replicates,
                   "--N", "60", "--M", "10", "--K", "50"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "replicates must be >= 1" in captured.err

    def test_missing_file_exit_code(self, capsys):
        rc = main(["infer", "--data", "/nonexistent/x.csv", "--task",
                   "regression", "--target-col", "y"])
        assert rc == 3

    def test_coverage_failure_exit_code(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        data.write_text("a,b,y\n1,2,0.5\n3,4,1.5\n")
        rc = main(["infer", "--data", str(data), "--task", "regression",
                   "--target-col", "y", "--K", "1", "--n", "1", "--m", "1",
                   "--seed", "0"])
        assert rc == 4


HEADER = ["x0", "x1", "x2", "target"]


def predict_files(task: str, seed: int) -> dict:
    """Valid training (12 rows) and new-points (3 rows) files, as lists
    of cell lists led by the header."""
    gen = np.random.default_rng(seed)
    data, new = ([list(HEADER)] + [[format(v, ".17g") for v in row]
                                   for row in gen.standard_normal((rows, 4))]
                 for rows in (12, 3))
    if task == "classification":
        for i, row in enumerate(data[1:]):
            row[3] = "ab"[i % 2]
    return {"data": data, "new": new}


def run_predict(task: str, files: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in files.items():
            (Path(tmp) / f"{name}.csv").write_text(
                "".join(",".join(cells) + "\n" for cells in lines))
        return main(["predict", "--data", f"{tmp}/data.csv", "--task", task,
                     "--new-data", f"{tmp}/new.csv", "--K", "50",
                     "--out", f"{tmp}/out.csv"])


@st.composite
def malformed_predict_inputs(draw):
    """A task and the two files of ``predict_files``, one of them given
    exactly one defect."""
    task = draw(st.sampled_from(["regression", "classification"]))
    files = predict_files(task, draw(st.integers(0, 2 ** 32 - 1)))
    which = draw(st.sampled_from(["data", "new"]))
    lines = files[which]
    r = draw(st.integers(1, len(lines) - 1))          # a data row
    c = draw(st.integers(0, 2))                       # a feature column
    defect = draw(st.sampled_from(["short", "long", "cell", "drop", "rename",
                                   "empty", "header-only"]))
    # the training file must keep its target: without one of its features
    # it is still valid, but renaming one leaves the new points without it
    if which == "data" and (defect == "drop"
                            or defect == "rename" and draw(st.booleans())):
        c = 3
    if defect == "short":
        lines[r] = lines[r][:draw(st.integers(1, 3))]
    elif defect == "long":
        lines[r] += ["1"] * draw(st.integers(1, 3))
    elif defect == "cell":
        lines[r][c] = draw(st.sampled_from(["", " ", "abc", "1.2.3", "nan",
                                            "-inf", "inf", "1e999"]))
    elif defect == "rename":
        lines[0][c] = "renamed"
    elif defect == "drop":
        for cells in lines:
            del cells[c]
    else:
        del lines[0 if defect == "empty" else 1:]
    return task, files


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_unbroken_predict_inputs_succeed(task):
    assert run_predict(task, predict_files(task, 0)) == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(malformed_predict_inputs())
def test_malformed_predict_inputs_are_data_errors(case):
    task, files = case
    assert run_predict(task, files) == 3
