"""Tests for CSV/JSON serialization, manifests, and model converters."""
import json
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covridge import (
    CrpConfig,
    CrpReport,
    DataError,
    GroundTruth,
    SampleMatrix,
    SemModel,
    UsageError,
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
from covridge import fileio
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

    def test_bytes_match_one_joined_string(self, tmp_path):
        # more rows than one block, with integral cells and -0.0
        values = np.random.default_rng(4).standard_normal((2 * fileio._CSV_BLOCK_ROWS + 3, 3))
        values[::5, 1] = np.round(values[::5, 1] * 10)
        values[7, 2] = -0.0
        path = tmp_path / "x.csv"
        write_csv(path, SampleMatrix(values, ["A", "B", "C"]))
        lines = ["A,B,C"] + [",".join(format_value(float(v)) for v in row) for row in values]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_peak_memory_is_a_fraction_of_the_file(self, tmp_path):
        # the whole text held at once would peak above the file size
        rows = 16 * fileio._CSV_BLOCK_ROWS
        values = np.random.default_rng(5).standard_normal((rows, 21))
        data = SampleMatrix(values, [f"X{i}" for i in range(21)])
        path = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            write_csv(path, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2

    def test_failure_mid_write_leaves_nothing_behind(self, tmp_path, monkeypatch):
        # the last cell fails after two blocks of rows have been written
        values = np.arange(9.0 * fileio._CSV_BLOCK_ROWS).reshape(-1, 3)

        def fail_on_last_cell(value):
            if value == values[-1, -1]:
                raise OSError("disk full")
            return format_value(value)

        monkeypatch.setattr(fileio, "format_value", fail_on_last_cell)
        with pytest.raises(OSError, match="disk full"):
            write_csv(tmp_path / "x.csv", SampleMatrix(values, ["A", "B", "C"]))
        assert list(tmp_path.iterdir()) == []

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


def _outcome(read, path):
    """The values' bit patterns and the names, or the DataError's message."""
    try:
        data = read(path)
    except DataError as exc:
        return str(exc)
    return data.values.view(np.int64).tolist(), data.column_names


_CELLS = ["1_0", "\u0661", "nan", "-inf", "1e500", "0x10", "1#2", '"1"', "1\x00", "", " 1.5 ",
          "\t2\t", "-0", "+1.5e3", ".5", "5.", "\x1c1", "1\x1f", "\xa01", "4.9e-324"]
_TEXTS = {
    "crlf": "A,B\r\n1,2\r\n3,4\r\n",
    "lone cr": "A,B\r1,2\r3,4\r",
    "leading blank lines": "\n\nA,B\n1,2\n3,4\n",
    "inner blank lines": "A,B\n1,2\n\n\n3,4\n",
    "whitespace-only line": "A,B\n1,2\n \t\n3,4\n",
    "whitespace-only line, one column": "A\n1\n \n3\n",
    "ragged row": "A,B\n1,2\n3\n4,5\n",
    "trailing comma": "A,B\n1,2,\n3,4,\n",
    "comment character in a last cell": "A,B\n1,2#3\n4,5\n",
    "no final newline": "A,B\n1,2\n3,4",
    "utf-8 bom": "\ufeffA,B\n1,2\n3,4\n",
    "header only": "A,B\n",
    "one data row": "A,B\n1,2\n",
}


class TestBulkReaderAgreement:
    """`read_csv` parses in bulk and falls back to the per-line parser; on
    every input both give the same bits or the same error."""

    @pytest.mark.parametrize("text", [f"A,B\n{c},1\n2,{c}\n3,4\n" for c in _CELLS]
                             + list(_TEXTS.values()), ids=[repr(c) for c in _CELLS] + list(_TEXTS))
    def test_same_values_or_same_error(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_csv, path) == _outcome(fileio._read_csv_lines, path)

    def test_bulk_path_reads_without_the_line_parser(self, tmp_path, monkeypatch):
        # a bulk path that always fell back would pass every agreement test
        def no_line_parser(path):
            raise AssertionError("the line parser ran")

        monkeypatch.setattr(fileio, "_read_csv_lines", no_line_parser)
        values = np.array([[-0.0, 5e-324, 1e300], [2.2e-310, 3.0, -7.0], [0.1, -1e-300, 0.0]])
        data = SampleMatrix(values, ["A", "B", "C"])
        path = tmp_path / "x.csv"
        write_csv(path, data)
        back = read_csv(path)
        assert back.column_names == data.column_names
        assert np.array_equal(back.values.view(np.int64), values.view(np.int64))


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

    def test_read_non_object_json_is_a_data_error(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match="expected a JSON object, got list"):
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

    def test_truth_boundary_given_as_a_string_rejected(self):
        with pytest.raises(DataError, match="'mb' must be a list"):
            truth_from_dict({"target": "Y", "mb": "X1", "source": "poly"})

    def test_truth_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing field"):
            truth_from_dict({"target": "Y", "mb": []})

    def test_truth_from_the_removed_bn_generator_still_reads(self):
        # truth files that `gen bn-sample` wrote before it was removed are
        # outside input, and `eval` must still score against them
        obj = {"schema_version": 1, "target": "B", "mb": ["A", "C"], "source": "bn",
               "manifest": {"command": ["covridge", "gen", "bn-sample"]}}
        truth = truth_from_dict(json.loads(json.dumps(obj)))
        assert truth == GroundTruth(target="B", mb=frozenset({"A", "C"}), source="bn")

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

    def test_report_fields_are_the_dataclass_fields(self):
        obj = report_to_dict(small_report())
        assert set(obj) == {f.name for f in fields(CrpReport)} | {"schema_version"}

    @pytest.mark.parametrize("key", ["variable_names", "ranking", "selected"])
    def test_report_names_given_as_a_string_rejected(self, key):
        obj = json.loads(canonical_dumps(report_to_dict(small_report())))
        obj[key] = "X1"
        with pytest.raises(DataError, match=f"'{key}' must be a list"):
            report_from_dict(obj)

    @pytest.mark.parametrize("key, value", [("beta", {"X1": 1}), ("rho_used", None), ("seed", "x")])
    def test_report_non_number_rejected_by_field(self, key, value):
        obj = json.loads(canonical_dumps(report_to_dict(small_report()))) | {key: value}
        with pytest.raises(DataError, match=f"'{key}' must be numeric"):
            report_from_dict(obj)

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

    @pytest.mark.parametrize("field, value", [("b", [[0, "x"], [0, 0]]), ("d", [1, "x"])])
    def test_sem_model_non_numeric_entry_names_its_field(self, field, value):
        obj = {"names": ["A", "B"], "b": [[0, 0], [0, 0]], "d": [1, 1], "response": "B"}
        obj[field] = value
        with pytest.raises(DataError, match=f"field '{field}' must be numeric"):
            sem_model_from_dict(obj)

    def test_sem_model_scalar_edge_weights_rejected(self):
        obj = {"names": ["A"], "b": 5, "d": [1], "response": "A"}
        with pytest.raises(DataError, match="must be square"):
            sem_model_from_dict(obj)

    def test_sem_model_names_given_as_a_string_rejected(self):
        obj = {"names": "AB", "b": [[0, 0], [0, 0]], "d": [1, 1], "response": "B"}
        with pytest.raises(DataError, match="'names' must be a list"):
            sem_model_from_dict(obj)

    def test_sem_model_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing field"):
            sem_model_from_dict({"names": ["A"], "b": [[0]]})
