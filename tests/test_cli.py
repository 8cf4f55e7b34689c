"""End-to-end tests for the command line: exit codes, artifacts, manifests."""
import numpy as np
import pytest

from covridge import (
    BnModel,
    bn_model_to_dict,
    evaluate_ranking,
    markov_boundary_of,
    read_csv,
    read_json,
    report_from_dict,
    truth_from_dict,
    write_json_atomic,
)
from covridge.cli import main


def gen_poly(tmp_path, *extra_flags):
    out = tmp_path / "toy"
    argv = [
        "gen", "poly", "--family", "gaussian", "--extras", "3", "--n", "60",
        "--seed", "4", "--out", str(out), *extra_flags,
    ]
    assert main(argv) == 0
    return out


class TestExitCodes:
    def test_missing_required_flag_is_usage(self, tmp_path, capsys):
        assert main(["run", "--data", str(tmp_path / "x.csv")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unparseable_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        assert main(["run", "--data", str(path), "--response", "b"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_data_file_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--data", str(tmp_path / "gone.csv"), "--response", "Y"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_singular_zero_penalty_is_numerical_error(self, tmp_path, capsys):
        # duplicated column keeps the whitened design rank deficient, so an
        # unpenalized fit cannot proceed
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        lines = ["X1,X2,Y"] + [f"{v},{v},{2 * v}" for v in x]
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "run", "--data", str(path), "--response", "Y",
            "--lambda", "0", "--covariance", "sample", "--B", "10",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_constant_column_under_sample_covariance_is_data_error(self, tmp_path, capsys):
        # the sample covariance of a constant column is singular; the error
        # names the column instead of failing on the eigenvalue floor
        rng = np.random.default_rng(0)
        x = rng.standard_normal((80, 3))
        x[:, 1] = 3.0
        y = x[:, 0] + rng.standard_normal(80)
        lines = ["X1,X2,X3,Y"] + [
            ",".join(repr(float(v)) for v in (*row, target)) for row, target in zip(x, y)
        ]
        path = tmp_path / "const.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "run", "--data", str(path), "--response", "Y", "--covariance", "sample",
            "--B", "10", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "'X2' is constant" in err

    def test_all_constant_explanatory_data_is_data_error(self, tmp_path, capsys):
        # every explanatory column constant: the default shrinkage has no
        # covariance to shrink
        y = np.random.default_rng(1).standard_normal(40)
        path = tmp_path / "flat.csv"
        path.write_text("X1,X2,Y\n" + "".join(f"1.5,-2.0,{float(v)!r}\n" for v in y))
        code = main([
            "run", "--data", str(path), "--response", "Y", "--B", "10",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "all samples identical" in err

    def test_version_flag_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "covridge" in capsys.readouterr().out


class TestGenPoly:
    def test_writes_data_and_truth(self, tmp_path):
        out = gen_poly(tmp_path)
        data = read_csv(out / "data.csv")
        assert data.column_names == [f"X{i}" for i in range(1, 9)] + ["Y"]
        assert data.values.shape == (60, 9)
        truth = truth_from_dict(read_json(out / "truth.json"))
        assert truth.target == "Y"
        assert truth.mb == frozenset({"X1", "X2", "X3", "X4", "X5"})

    def test_same_flags_give_byte_identical_outputs(self, tmp_path, monkeypatch):
        # identical argv (manifest records the command line), different cwd
        argv = ["gen", "poly", "--extras", "3", "--n", "60", "--seed", "4", "--out", "."]
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            assert main(argv) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_family_flag_maps_to_internal_name(self, tmp_path):
        out = tmp_path / "toy"
        assert main([
            "gen", "poly", "--family", "beta-random", "--extras", "1", "--n", "50",
            "--seed", "1", "--out", str(out),
        ]) == 0
        manifest = read_json(out / "truth.json")["manifest"]
        assert manifest["config"]["family"] == "beta_random"
        assert manifest["timestamp"] is None

    def test_negative_extras_is_usage_error(self, tmp_path, capsys):
        assert main([
            "gen", "poly", "--extras", "-1", "--out", str(tmp_path),
        ]) == 1
        assert "usage error" in capsys.readouterr().err


class TestGenSem:
    def test_writes_data_model_and_truth(self, tmp_path):
        out = tmp_path / "sem"
        assert main([
            "gen", "sem", "--p", "12", "--degree", "2", "--n", "80",
            "--seed", "5", "--out", str(out),
        ]) == 0
        data = read_csv(out / "data.csv")
        assert data.values.shape == (80, 12)
        model = read_json(out / "model.json")
        truth = truth_from_dict(read_json(out / "truth.json"))
        assert truth.target == model["response"]
        assert truth.source == "sem"
        assert truth.mb <= set(model["names"])

    def test_acyclic_flag_recorded(self, tmp_path):
        out = tmp_path / "sem"
        assert main([
            "gen", "sem", "--p", "8", "--n", "60", "--seed", "2", "--acyclic",
            "--out", str(out),
        ]) == 0
        assert read_json(out / "model.json")["manifest"]["config"]["acyclic"] is True


class TestGenBnSample:
    def bn_fixture(self, tmp_path):
        model = BnModel(
            names=["A", "B", "C"],
            arities=[2, 2, 2],
            parents=[[], [0], [1]],
            cpts=[
                np.array([[0.5, 0.5]]),
                np.array([[0.9, 0.1], [0.1, 0.9]]),
                np.array([[0.8, 0.2], [0.2, 0.8]]),
            ],
        )
        path = tmp_path / "model.json"
        write_json_atomic(path, bn_model_to_dict(model))
        return model, path

    def test_samples_and_truth(self, tmp_path):
        model, path = self.bn_fixture(tmp_path)
        out = tmp_path / "bn"
        assert main([
            "gen", "bn-sample", "--model", str(path), "--n", "200", "--seed", "3",
            "--target", "B", "--out", str(out),
        ]) == 0
        data = read_csv(out / "data.csv")
        assert data.values.shape == (200, 3)
        assert set(np.unique(data.values)) <= {0.0, 1.0}
        truth = truth_from_dict(read_json(out / "truth.json"))
        assert truth.mb == markov_boundary_of(model.graph(), "B", source="bn").mb

    def test_without_target_no_truth_file(self, tmp_path):
        _, path = self.bn_fixture(tmp_path)
        out = tmp_path / "bn"
        assert main([
            "gen", "bn-sample", "--model", str(path), "--n", "100", "--seed", "3",
            "--out", str(out),
        ]) == 0
        assert (out / "data.csv").exists()
        assert not (out / "truth.json").exists()


class TestRun:
    def test_report_artifact(self, tmp_path):
        out = gen_poly(tmp_path)
        report_path = tmp_path / "report.json"
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Y",
            "--B", "50", "--seed", "9", "--out", str(report_path),
        ]) == 0
        obj = read_json(report_path)
        report = report_from_dict(obj)
        assert sorted(report.ranking) == [f"X{i}" for i in range(1, 9)]
        assert set(report.selected) <= set(report.ranking)
        assert obj["manifest"]["inputs"]["data"]["path"] == str(out / "data.csv")
        assert obj["manifest"]["seeds"] == {"seed": 9}

    def test_maxt_selection(self, tmp_path):
        out = gen_poly(tmp_path)
        report_path = tmp_path / "report.json"
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Y",
            "--B", "50", "--seed", "9", "--selection", "maxt", "--out", str(report_path),
        ]) == 0
        obj = read_json(report_path)
        assert obj["config"]["selection"] == "maxt"
        assert obj["manifest"]["config"]["selection"] == "maxt"
        adjusted = dict(zip(obj["variable_names"], obj["adjusted_p_values"]))
        assert obj["selected"] == [v for v in obj["ranking"] if adjusted[v] <= 0.05]

    def test_unknown_selection_is_usage_error(self, tmp_path, capsys):
        out = gen_poly(tmp_path)
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Y",
            "--selection", "bonferroni",
        ]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_fixed_lambda_bypasses_cross_validation(self, tmp_path):
        out = gen_poly(tmp_path)
        report_path = tmp_path / "report.json"
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Y",
            "--B", "20", "--lambda", "0.5", "--out", str(report_path),
        ]) == 0
        assert read_json(report_path)["lambda_used"] == 0.5

    def test_repeat_run_is_byte_identical(self, tmp_path):
        out = gen_poly(tmp_path)
        report_path = tmp_path / "r.json"
        argv = [
            "run", "--data", str(out / "data.csv"), "--response", "Y",
            "--B", "30", "--seed", "2", "--out", str(report_path),
        ]
        assert main(argv) == 0
        first = report_path.read_bytes()
        assert main(argv) == 0
        assert report_path.read_bytes() == first

    def test_unknown_response_is_usage_error(self, tmp_path, capsys):
        out = gen_poly(tmp_path)
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Nope", "--B", "10",
        ]) == 1
        assert "usage error" in capsys.readouterr().err


class TestEval:
    def run_pipeline(self, tmp_path):
        out = gen_poly(tmp_path)
        report_path = tmp_path / "report.json"
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Y",
            "--B", "50", "--seed", "9", "--out", str(report_path),
        ]) == 0
        return out, report_path

    def test_summary_matches_in_process_scoring(self, tmp_path):
        out, report_path = self.run_pipeline(tmp_path)
        summary_path = tmp_path / "summary.json"
        assert main([
            "eval", "--report", str(report_path), "--truth", str(out / "truth.json"),
            "--out", str(summary_path),
        ]) == 0
        summary = read_json(summary_path)
        report = report_from_dict(read_json(report_path))
        truth = truth_from_dict(read_json(out / "truth.json"))
        expected = evaluate_ranking(report, truth, h=len(truth.mb))
        assert summary["h"] == 5
        assert summary["hit_at_h"] == expected.hit_at_h
        assert summary["tp_selected"] == expected.tp_selected
        assert summary["fp_selected"] == expected.fp_selected
        assert summary["mb_ranks"] == list(expected.mb_ranks)

    def test_h_beyond_variable_count_is_usage_error(self, tmp_path, capsys):
        out, report_path = self.run_pipeline(tmp_path)
        assert main([
            "eval", "--report", str(report_path), "--truth", str(out / "truth.json"),
            "--h", "99", "--out", str(tmp_path / "s.json"),
        ]) == 1
        assert "usage error" in capsys.readouterr().err


class TestBenchCommand:
    def test_toy_suite_smoke(self, tmp_path):
        out = tmp_path / "summary.json"
        assert main([
            "bench", "toy-gaussian", "--reps", "1", "--B", "20", "--n", "80",
            "--extras-levels", "1,2", "--seed", "0", "--out", str(out),
        ]) == 0
        obj = read_json(out)
        assert obj["suite"] == "toy-gaussian"
        assert [g["extras"] for g in obj["groups"]] == [1, 2]
        for group in obj["groups"]:
            assert set(group["aggregate"]) >= {"hit_rate", "mean_tp", "sd_tp", "subset_rate"}

    def test_manifest_records_selection_rule(self, tmp_path):
        out = tmp_path / "summary.json"
        assert main([
            "bench", "toy-gaussian", "--reps", "1", "--B", "10", "--n", "60",
            "--extras-levels", "1", "--out", str(out),
        ]) == 0
        assert read_json(out)["manifest"]["config"]["selection"] == "maxt"

    def test_bad_extras_list_is_usage_error(self, capsys):
        assert main([
            "bench", "toy-gaussian", "--extras-levels", "1,x",
        ]) == 1
        assert "usage error" in capsys.readouterr().err
