"""End-to-end tests for the command line: exit codes, artifacts, manifests."""
from dataclasses import asdict, fields

import numpy as np
import pytest

from covridge import (
    CrpConfig,
    GroundTruth,
    evaluate_ranking,
    read_csv,
    read_json,
    report_from_dict,
    truth_from_dict,
    write_json_atomic,
)
from covridge import cli, fileio
from covridge.cli import main


# a two-variable report as `covridge run` would write it
WRITTEN_REPORT = {
    "variable_names": ["X1", "X2"], "response": "Y", "ranking": ["X2", "X1"],
    "selected": ["X2"], "p_values": [0.5, 0.01], "statistics": [0.1, 2.0],
    "beta": [0.1, 2.0], "intercept": [0.0], "lambda_used": 1.0, "rho_used": 0.0,
    "loss_used": "mse", "covariance_used": "sample",
}


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

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("X1,Y\n1,2\n3,4\n5,\u00e9\n".encode("latin-1"))
        assert main(["run", "--data", str(path), "--response", "Y"]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_directory_as_data_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--data", str(tmp_path), "--response", "Y"]) == 1
        assert "is a directory" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["eval", "--report", "list.json", "--truth", "list.json", "--out", "s.json"],
        ["eval", "--report", "report.json", "--truth", "list.json", "--out", "s.json"],
    ])
    def test_non_object_json_is_data_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]")
        write_json_atomic(tmp_path / "report.json", WRITTEN_REPORT)
        assert main(argv) == 2
        assert "expected a JSON object, got list" in capsys.readouterr().err

    def test_version_flag_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "covridge" in capsys.readouterr().out


class TestUnwritableOut:
    """An --out that cannot be written is a usage error, found before any
    input is read or any work is done."""

    @pytest.fixture
    def inputs(self, tmp_path):
        toy = gen_poly(tmp_path)
        report = tmp_path / "report.json"
        assert main(["run", "--data", str(toy / "data.csv"), "--response", "Y", "--B", "9",
                     "--out", str(report)]) == 0
        return toy, report

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("read_csv", "read_json"):
            monkeypatch.setattr(fileio, name, refuse)
        for name in ("run_poly_suite", "gen_poly_toy", "gen_sem_model"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("command", ["run", "eval", "bench"])
    def test_directory_as_out_file(self, tmp_path, inputs, no_work, capsys, command):
        toy, report = inputs
        argv = {
            "run": ["run", "--data", str(toy / "data.csv"), "--response", "Y"],
            "eval": ["eval", "--report", str(report), "--truth", str(toy / "truth.json")],
            "bench": ["bench", "toy-gaussian", "--reps", "1", "--B", "9", "--n", "40",
                      "--extras-levels", "1"],
        }[command]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert f"--out {tmp_path} is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("generator", ["poly", "sem"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_file_as_out_directory(self, tmp_path, no_work, capsys, generator, below):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / below
        assert main(["gen", generator, "--out", str(out)]) == 1
        assert f"{blocker} exists and is not a directory" in capsys.readouterr().err

    def test_file_as_parent_of_out_file(self, tmp_path, inputs, no_work, capsys):
        toy, _ = inputs
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["run", "--data", str(toy / "data.csv"), "--response", "Y",
                     "--out", str(blocker / "report.json")]) == 1
        assert f"{blocker} exists and is not a directory" in capsys.readouterr().err


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
    def test_removed_command_is_an_invalid_choice(self, tmp_path, capsys):
        # the discrete-network generator was removed; its old command line
        # is refused before anything is read or written
        assert main([
            "gen", "bn-sample", "--model", "model.json", "--n", "50", "--seed", "3",
            "--target", "B", "--out", str(tmp_path / "bn"),
        ]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "invalid choice" in err and "bn-sample" in err
        assert not (tmp_path / "bn").exists()


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

    def test_zero_lambda_on_class_codes(self, tmp_path, monkeypatch, capsys):
        # the multinomial loss needs lambda > 0: under the default loss a
        # class-coded response is fitted by squared error, and an explicit
        # multinomial request is a usage error before the CSV is read
        rng = np.random.default_rng(35)
        x = rng.standard_normal((60, 3))
        y = rng.permutation(np.repeat([0, 1, 2], 20))
        data = tmp_path / "classes.csv"
        data.write_text("X1,X2,X3,Y\n" + "".join(
            f"{a!r},{b!r},{c!r},{v}\n" for (a, b, c), v in zip(x.tolist(), y)))
        argv = ["run", "--data", str(data), "--response", "Y", "--B", "9", "--lambda", "0",
                "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert read_json(tmp_path / "report.json")["loss_used"] == "mse"

        def refuse(*args, **kwargs):
            raise AssertionError("the CSV was read")

        monkeypatch.setattr(fileio, "read_csv", refuse)
        assert main([*argv, "--loss", "multinomial"]) == 1
        assert "multinomial fits require lambda > 0" in capsys.readouterr().err

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

    def test_lw2004_covariance_is_usage_error(self, tmp_path, capsys):
        out = gen_poly(tmp_path)
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Y", "--covariance", "lw2004",
        ]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_defaults_are_crp_config_defaults(self):
        args = cli.build_parser().parse_args(["run", "--data", "d.csv", "--response", "Y"])
        assert {f.name: getattr(args, f.name) for f in fields(CrpConfig)} == asdict(CrpConfig())

    def test_flags_reach_the_recorded_config(self, tmp_path):
        out = gen_poly(tmp_path)
        report_path = tmp_path / "report.json"
        assert main([
            "run", "--data", str(out / "data.csv"), "--response", "Y", "--loss", "mse",
            "--covariance", "sample", "--B", "20", "--folds", "3", "--alpha", "0.2",
            "--seed", "5", "--out", str(report_path),
        ]) == 0
        expected = {"loss": "mse", "covariance": "sample", "permutations": 20, "cv_folds": 3,
                    "alpha_level": 0.2, "seed": 5}
        config = read_json(report_path)["config"]
        assert {key: config[key] for key in expected} == expected

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

    def test_truth_for_another_target_is_usage_error(self, tmp_path, capsys):
        _, report_path = self.run_pipeline(tmp_path)
        truth_path = tmp_path / "z.json"
        truth = GroundTruth("Z", frozenset({"X1"}), "poly")
        write_json_atomic(truth_path, fileio.truth_to_dict(truth))
        assert main([
            "eval", "--report", str(report_path), "--truth", str(truth_path),
            "--out", str(tmp_path / "s.json"),
        ]) == 1
        assert "ground truth is for 'Z'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("source", "magic"), ("mb", ["X1", "Y"])])
    def test_malformed_truth_is_data_error(self, tmp_path, capsys, field, value):
        out, report_path = self.run_pipeline(tmp_path)
        truth = read_json(out / "truth.json") | {field: value}
        write_json_atomic(out / "truth.json", truth)
        assert main([
            "eval", "--report", str(report_path), "--truth", str(out / "truth.json"),
            "--out", str(tmp_path / "s.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"'{field}'" in err

    def test_h_beyond_variable_count_is_usage_error(self, tmp_path, capsys):
        out, report_path = self.run_pipeline(tmp_path)
        assert main([
            "eval", "--report", str(report_path), "--truth", str(out / "truth.json"),
            "--h", "99", "--out", str(tmp_path / "s.json"),
        ]) == 1
        assert "usage error" in capsys.readouterr().err

    def eval_written(self, tmp_path, mb, **changes):
        """`covridge eval` on a two-variable report with `changes` applied."""
        report = WRITTEN_REPORT | changes
        report_path, truth_path = tmp_path / "report.json", tmp_path / "truth.json"
        write_json_atomic(report_path, report)
        write_json_atomic(truth_path, fileio.truth_to_dict(GroundTruth("Y", frozenset(mb), "poly")))
        return main([
            "eval", "--report", str(report_path), "--truth", str(truth_path),
            "--out", str(tmp_path / "s.json"),
        ])

    def test_hand_written_report_scores(self, tmp_path):
        assert self.eval_written(tmp_path, {"X2"}) == 0
        assert read_json(tmp_path / "s.json")["mb_ranks"] == [1]

    @pytest.mark.parametrize("field, value", [("p_values", "abc"), ("lambda_used", "x")])
    def test_non_number_in_numeric_field_is_data_error(self, tmp_path, capsys, field, value):
        assert self.eval_written(tmp_path, {"X2"}, **{field: value}) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"'{field}'" in err

    @pytest.mark.parametrize("changes", [
        {"ranking": ["X2"]},
        {"ranking": ["X2", "X2"]},
        {"selected": ["X3"]},
    ])
    def test_names_outside_the_variables_are_data_error(self, tmp_path, capsys, changes):
        assert self.eval_written(tmp_path, {"X1"}, **changes) == 2
        assert "data error" in capsys.readouterr().err


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

    def test_suite_name_maps_to_family(self, tmp_path):
        out = tmp_path / "summary.json"
        assert main([
            "bench", "toy-beta-random", "--reps", "1", "--B", "10", "--n", "80",
            "--extras-levels", "1", "--seed", "2", "--out", str(out),
        ]) == 0
        assert read_json(out)["suite"] == "toy-beta-random"

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["bench", "toy-cauchy", "--reps", "1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_sem_suite_smoke(self, tmp_path):
        out = tmp_path / "summary.json"
        assert main([
            "bench", "sem", "--reps", "3", "--B", "10", "--p", "10", "--sizes", "60,100",
            "--seed", "1", "--out", str(out),
        ]) == 0
        obj = read_json(out)
        assert obj["suite"] == "sem"
        assert [g["n"] for g in obj["groups"]] == [60, 100]
        for group in obj["groups"]:
            assert group["aggregate"]["replicates"] + group["skipped_empty_boundary"] == 3

    def test_bad_extras_list_is_usage_error(self, capsys):
        assert main([
            "bench", "toy-gaussian", "--extras-levels", "1,x",
        ]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bench", "sem", "--sizes", ""],
        ["bench", "toy-gaussian", "--extras-levels", ","],
    ])
    def test_empty_level_list_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "summary.json"
        assert main([*argv, "--reps", "1", "--B", "9", "--out", str(out)]) == 1
        assert "need at least 1 level" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "sem", "--p", "10", "--n", "60", "--degree"],
    ["bench", "sem", "--reps", "1", "--B", "9", "--p", "10", "--sizes", "60", "--degree"],
], ids=["gen", "bench"])
@pytest.mark.parametrize("degree", ["nan", "inf"])
def test_non_finite_degree_is_usage_error_before_any_write(tmp_path, capsys, argv, degree):
    out = tmp_path / "out"
    assert main([*argv, degree, "--out", str(out)]) == 1
    assert "expected degree must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestManifestRule:
    """A manifest's config is the command's parsed settings: every flag but
    --out, the input paths (under "inputs") and --seed (under "seeds"). The
    toy family is recorded by its internal name and eval's h as resolved;
    run records its effective CrpConfig."""

    NOT_SETTINGS = {"command", "generator", "handler", "out", "seed", "data", "report", "truth"}

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("inputs")
        toy = gen_poly(work)
        report = work / "report.json"
        assert main(["run", "--data", str(toy / "data.csv"), "--response", "Y", "--B", "9",
                     "--out", str(report)]) == 0
        return {"data": str(toy / "data.csv"), "truth": str(toy / "truth.json"),
                "report": str(report)}

    @pytest.mark.parametrize("argv, artifact", [
        (["gen", "poly", "--family", "beta-random", "--extras", "2", "--n", "50",
          "--seed", "3"], "truth.json"),
        (["gen", "sem", "--p", "8", "--n", "60", "--seed", "2", "--acyclic"], "model.json"),
        (["gen", "sem", "--p", "8", "--n", "60", "--seed", "2", "--acyclic"], "truth.json"),
        (["eval", "--report", "{report}", "--truth", "{truth}"], None),
        (["eval", "--report", "{report}", "--truth", "{truth}", "--h", "2"], None),
        (["bench", "toy-gaussian", "--reps", "1", "--B", "9", "--n", "60",
          "--extras-levels", "1,2", "--seed", "1"], None),
        (["bench", "sem", "--reps", "1", "--B", "9", "--p", "10", "--sizes", "60",
          "--degree", "1.5"], None),
    ], ids=["gen-poly", "gen-sem-model", "gen-sem-truth", "eval", "eval-h", "bench-toy",
            "bench-sem"])
    def test_config_is_the_parsed_settings(self, tmp_path, inputs, argv, artifact):
        argv = [part.format(**inputs) for part in argv]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = read_json(out / artifact if artifact else out)["manifest"]
        args = vars(cli.build_parser().parse_args(argv))
        expected = {key: value for key, value in args.items() if key not in self.NOT_SETTINGS}
        if argv[:2] == ["gen", "poly"]:
            expected["family"] = "beta_random"
        if argv[0] == "eval" and args["h"] is None:
            expected["h"] = 5  # the boundary size
        if argv[0] == "bench":
            assert expected["selection"] == "maxt"
        assert manifest["config"] == expected
        assert manifest["seeds"] == ({"seed": args["seed"]} if "seed" in args else {})
        assert set(manifest["inputs"]) == {"report", "truth"} & set(args)

    def test_run_records_its_effective_config(self, tmp_path, inputs):
        argv = ["run", "--data", inputs["data"], "--response", "Y", "--B", "9", "--lambda",
                "0.5", "--selection", "maxt", "--seed", "4"]
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
        manifest = read_json(tmp_path / "r.json")["manifest"]
        args = cli.build_parser().parse_args(argv)
        config = CrpConfig(**{f.name: getattr(args, f.name) for f in fields(CrpConfig)})
        assert manifest["config"] == fileio.jsonable(asdict(config))
        assert manifest["seeds"] == {"seed": 4}
        assert set(manifest["inputs"]) == {"data"}
