"""Tests for CSV/JSON serialization, manifests, and model converters."""
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covridge import (
    BnModel,
    CrpConfig,
    DataError,
    GroundTruth,
    SampleMatrix,
    SemModel,
    UsageError,
    bn_model_from_dict,
    bn_model_to_dict,
    build_manifest,
    canonical_dumps,
    crp_run,
    read_csv,
    read_json,
    report_from_dict,
    report_to_dict,
    sem_model_from_dict,
    sem_model_to_dict,
    sha256_file,
    truth_from_dict,
    truth_to_dict,
    write_csv,
    write_json_atomic,
)
from covridge.fileio import format_value

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestFormatValue:
    @pytest.mark.parametrize(
        "value,literal",
        [(1.0, "1"), (-3.0, "-3"), (0.0, "0"), (-0.0, "-0"), (0.5, "0.5"), (0.1, "0.1"),
         (1e300, "1e+300")],
    )
    def test_examples(self, value, literal):
        assert format_value(value) == literal

    def test_huge_integral_values_keep_float_form(self):
        # beyond 2**53 int(value) could silently change the value
        assert format_value(float(2**53)) == repr(float(2**53))

    @given(finite)
    def test_literal_parses_back_exactly(self, value):
        assert float(format_value(value)) == value


class TestCsvRoundTrip:
    def test_write_then_read_restores_values_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        data = SampleMatrix(rng.standard_normal((20, 4)) * 10.0**rng.integers(-8, 8), ["A", "B", "C", "D"])
        path = tmp_path / "data.csv"
        write_csv(path, data)
        back = read_csv(path)
        assert back.column_names == data.column_names
        assert np.array_equal(back.values, data.values)

    def test_integral_cells_written_without_decimal_point(self, tmp_path):
        data = SampleMatrix(np.array([[1.0, 2.5], [3.0, -4.0]]), ["X1", "Y"])
        path = tmp_path / "x.csv"
        write_csv(path, data)
        assert path.read_text() == "X1,Y\n1,2.5\n3,-4\n"

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda cols: st.lists(
                st.lists(finite, min_size=cols, max_size=cols), min_size=2, max_size=6
            )
        )
    )
    def test_round_trip_any_finite_values(self, rows):
        data = SampleMatrix(np.array(rows, dtype=float), [f"C{i}" for i in range(len(rows[0]))])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(path, data)
            assert np.array_equal(read_csv(path).values, data.values)

    def test_bad_column_name_rejected_on_write(self, tmp_path):
        data = SampleMatrix(np.zeros((2, 2)) + np.eye(2), ["ok", "not ok"])
        with pytest.raises(DataError, match="not ok"):
            write_csv(tmp_path / "x.csv", data)

    def test_name_with_trailing_newline_rejected_on_write(self, tmp_path):
        # written, it would end the header early and read back as plain "B"
        data = SampleMatrix(np.zeros((2, 2)) + np.eye(2), ["A", "B\n"])
        with pytest.raises(DataError, match=r"'B\\n'"):
            write_csv(tmp_path / "x.csv", data)

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        data = SampleMatrix(np.array([[-0.0, 1.0], [0.0, -0.0]]), ["A", "B"])
        path = tmp_path / "x.csv"
        write_csv(path, data)
        assert np.array_equal(np.signbit(read_csv(path).values), np.signbit(data.values))

    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="no such file"):
            read_csv(tmp_path / "absent.csv")

    def test_bad_header_rejected_on_read(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b c\n1,2\n3,4\n")
        with pytest.raises(DataError, match="b c"):
            read_csv(path)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match=r"x\.csv:3"):
            read_csv(path)

    def test_unparseable_cell_reports_line_number(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"x\.csv:3"):
            read_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="header row"):
            read_csv(path)

    def test_single_data_row_rejected_as_too_small(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            read_csv(path)


class TestCanonicalJson:
    def test_sorted_keys_indent_two_trailing_newline(self):
        text = canonical_dumps({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_insertion_order_does_not_matter(self):
        assert canonical_dumps({"x": 1, "y": 2}) == canonical_dumps({"y": 2, "x": 1})

    def test_numpy_values_become_plain_json(self):
        obj = {
            "arr": np.array([[1.0, 2.0]]),
            "num": np.float64(0.5),
            "count": np.int64(3),
            "flag": np.bool_(True),
            "names": frozenset({"b", "a"}),
            "pair": (1, 2),
        }
        decoded = json.loads(canonical_dumps(obj))
        assert decoded == {
            "arr": [[1.0, 2.0]],
            "num": 0.5,
            "count": 3,
            "flag": True,
            "names": ["a", "b"],
            "pair": [1, 2],
        }

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            canonical_dumps({"v": bad})

    def test_write_and_read_json(self, tmp_path):
        path = tmp_path / "deep" / "obj.json"
        write_json_atomic(path, {"k": [1.5, 2]})
        assert read_json(path) == {"k": [1.5, 2]}

    def test_read_invalid_json_is_a_data_error(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(DataError, match="invalid JSON"):
            read_json(path)

    def test_read_non_utf8_json_is_a_data_error(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(DataError, match="not UTF-8"):
            read_json(path)

    def test_read_missing_json_is_a_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="no such file"):
            read_json(tmp_path / "absent.json")

    def test_no_temp_files_left_behind(self, tmp_path):
        write_json_atomic(tmp_path / "a.json", {"x": 1})
        write_json_atomic(tmp_path / "a.json", {"x": 2})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]
        assert read_json(tmp_path / "a.json") == {"x": 2}


class TestSha256:
    def test_known_digest(self, tmp_path):
        path = tmp_path / "hello.txt"
        path.write_bytes(b"hello\n")
        assert sha256_file(path) == (
            "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
        )


class TestBuildManifest:
    def test_timestamp_null_without_epoch_override(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        manifest = build_manifest(["cmd", "--flag"], {"a": 1}, {"seed": 7})
        assert manifest["timestamp"] is None
        assert manifest["command"] == ["cmd", "--flag"]
        assert manifest["seeds"] == {"seed": 7}

    def test_timestamp_honors_epoch_override(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert build_manifest([], {}, {})["timestamp"] == 1700000000

    def test_input_digests_recorded_by_role(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"hello\n")
        manifest = build_manifest([], {}, {}, inputs={"data": path})
        entry = manifest["inputs"]["data"]
        assert entry["path"] == str(path)
        assert entry["sha256"] == sha256_file(path)


def small_report():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 3))
    y = 2.0 * x[:, 0] + 0.1 * rng.standard_normal(60)
    data = SampleMatrix(np.column_stack([x, y]), ["X1", "X2", "X3", "Y"])
    return crp_run(data, "Y", CrpConfig(permutations=30, seed=1))


class TestConverters:
    def test_truth_round_trip(self):
        truth = GroundTruth(target="Y", mb=frozenset({"X2", "X1"}), source="sem")
        obj = truth_to_dict(truth)
        assert obj["mb"] == ["X1", "X2"]
        assert obj["schema_version"] == 1
        assert truth_from_dict(json.loads(canonical_dumps(obj))) == truth

    def test_truth_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing field"):
            truth_from_dict({"target": "Y", "mb": []})

    def test_report_round_trip_is_byte_stable(self):
        report = small_report()
        obj = report_to_dict(report)
        restored = report_from_dict(json.loads(canonical_dumps(obj)))
        assert canonical_dumps(report_to_dict(restored)) == canonical_dumps(obj)
        assert restored.ranking == report.ranking
        assert restored.selected == report.selected
        assert np.array_equal(restored.p_values, report.p_values)
        assert np.array_equal(restored.beta, report.beta)
        assert restored.lambda_used == report.lambda_used

    def test_report_round_trip_carries_adjusted_p_values(self):
        report = small_report()
        obj = report_to_dict(report)
        assert obj["adjusted_p_values"] == report.adjusted_p_values.tolist()
        restored = report_from_dict(json.loads(canonical_dumps(obj)))
        assert np.array_equal(restored.adjusted_p_values, report.adjusted_p_values)

    def test_report_without_adjusted_p_values_reads_none(self):
        obj = report_to_dict(small_report())
        del obj["adjusted_p_values"]
        restored = report_from_dict(json.loads(canonical_dumps(obj)))
        assert restored.adjusted_p_values is None
        assert report_to_dict(restored)["adjusted_p_values"] is None

    def test_report_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing field"):
            report_from_dict({"response": "Y"})

    def test_sem_model_round_trip(self):
        b = np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.3, 0.2, 0.0]])
        model = SemModel(b=b, d=np.array([1.0, 0.7, 1.2]), names=["A", "B", "C"], response_index=2)
        obj = sem_model_to_dict(model)
        assert obj["b"] == [[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.3, 0.2, 0.0]]
        assert obj["response"] == "C"
        restored = sem_model_from_dict(json.loads(canonical_dumps(obj)))
        assert np.array_equal(restored.b, model.b)
        assert np.array_equal(restored.d, model.d)
        assert restored.names == model.names
        assert restored.response_index == 2

    def test_sem_model_unknown_response_rejected(self):
        obj = {"names": ["A", "B"], "b": [[0, 0], [0, 0]], "d": [1, 1], "response": "Z"}
        with pytest.raises(DataError, match="response"):
            sem_model_from_dict(obj)

    def test_sem_model_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing field"):
            sem_model_from_dict({"names": ["A"], "b": [[0]]})

    def test_bn_model_round_trip_uses_parent_names_and_flat_cpts(self):
        model = BnModel(
            names=["A", "B"],
            arities=[2, 3],
            parents=[[], [0]],
            cpts=[np.array([[0.4, 0.6]]), np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])],
        )
        obj = bn_model_to_dict(model)
        assert obj["parents"] == [[], ["A"]]
        assert obj["cpts"][1] == [0.2, 0.3, 0.5, 0.1, 0.1, 0.8]
        restored = bn_model_from_dict(json.loads(canonical_dumps(obj)))
        assert restored.names == model.names
        assert restored.arities == model.arities
        assert restored.parents == model.parents
        for got, want in zip(restored.cpts, model.cpts):
            assert np.array_equal(got, want)

    def test_bn_model_unknown_parent_rejected(self):
        obj = bn_model_to_dict(
            BnModel(names=["A"], arities=[2], parents=[[]], cpts=[np.array([[0.5, 0.5]])])
        )
        obj["parents"] = [["Ghost"]]
        with pytest.raises(DataError, match="Ghost"):
            bn_model_from_dict(obj)

    def test_bn_model_cpt_size_mismatch_rejected(self):
        obj = {
            "variables": ["A"],
            "arities": [2],
            "parents": [[]],
            "cpts": [[0.5, 0.3, 0.2]],
        }
        with pytest.raises(DataError, match="CPT size"):
            bn_model_from_dict(obj)
