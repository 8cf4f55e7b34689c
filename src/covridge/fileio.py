"""File formats: CSV data matrices, canonical JSON artifacts, run manifests.

CSV is UTF-8 with a comma delimiter, a header row of [A-Za-z0-9_]+ names,
and shortest round-trip float literals, so write-then-read restores values
exactly. A cell may hold any literal Python's float() accepts. numpy's C
reader parses the file in bulk and rounds each cell as float() does; where
its answer could differ, a per-line parser reads the file instead. That
parser alone accepts literals such as "1_0", and alone raises read errors,
naming the file and line. JSON artifacts always serialize with sorted keys
and embed their run manifest; given the same inputs and seeds, two runs
produce byte-identical files. Writes go to a temporary file first and are
renamed into place.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .covmat import SampleMatrix
from .crp import CrpReport
from .errors import DataError, UsageError
from .synthgen import GroundTruth, SemModel

SCHEMA_VERSION = 1
_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
# ASCII separators that numpy strips around a number as whitespace and
# float() does not
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_CSV_BLOCK_ROWS = 1024


def format_value(value: float) -> str:
    """Shortest literal that parses back to exactly the same float; integral
    values are written without a decimal point, and -0.0 as "-0"."""
    if value.is_integer() and abs(value) < 2**53:
        return ("-" if np.signbit(value) else "") + str(int(abs(value)))
    return repr(value)


def write_csv(path: str | Path, data: SampleMatrix) -> None:
    """Header and rows, each line ending in a newline. The text goes out a
    block of rows at a time, so it is never held whole."""
    for name in data.column_names:
        if not _NAME_RE.fullmatch(name):
            raise DataError(f"column name {name!r} outside [A-Za-z0-9_]")
    _write_text_atomic(path, _csv_blocks(data))


def _csv_blocks(data: SampleMatrix) -> Iterator[str]:
    yield ",".join(data.column_names) + "\n"
    for start in range(0, data.n, _CSV_BLOCK_ROWS):
        rows = data.values[start:start + _CSV_BLOCK_ROWS].tolist()
        yield "".join(",".join(map(format_value, row)) + "\n" for row in rows)


def _check_file(path: Path) -> None:
    if not path.exists():
        raise UsageError(f"no such file: {path}")
    if path.is_dir():
        raise UsageError(f"{path} is a directory, not a file")


def _read_text(path: Path) -> str:
    """The UTF-8 text of an existing file; anything else is a clean error."""
    _check_file(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def read_csv(path: str | Path) -> SampleMatrix:
    path = Path(path)
    _check_file(path)
    data = _read_csv_bulk(path)
    return data if data is not None else _read_csv_lines(path)


def _read_csv_bulk(path: Path) -> SampleMatrix | None:
    """The CSV parsed by numpy's C reader, or None wherever its answer could
    differ from `_read_csv_lines`': a bad header, a separator byte, any error
    or warning, or a shape the line parser would reject. The text is read
    line by line, with the same universal newlines as `_read_text`."""
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(1 << 20), b""):
            if any(separator in chunk for separator in _SEPARATORS):
                return None
    try:
        with open(path, encoding="utf-8") as handle, warnings.catch_warnings():
            warnings.simplefilter("error")
            names = handle.readline().removesuffix("\n").split(",")
            if not all(_NAME_RE.fullmatch(name) for name in names):
                return None
            values = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if values.shape[0] < 2 or values.shape[1] != len(names):
        return None
    return SampleMatrix(values, names)


def _read_csv_lines(path: Path) -> SampleMatrix:
    """The CSV parsed one line and one float() call at a time; every read
    error is raised here, with the file and line it came from."""
    text = _read_text(path)
    lines = [line for line in text.split("\n") if line != ""]
    if len(lines) < 2:
        raise DataError(f"{path}: need a header row and at least 2 data rows")
    names = lines[0].split(",")
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise DataError(f"{path}: column name {name!r} outside [A-Za-z0-9_]")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise DataError(f"{path}:{i}: expected {len(names)} cells, got {len(cells)}")
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise DataError(f"{path}:{i}: {exc}") from None
    return SampleMatrix(np.array(rows, dtype=float), names)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays, sets and dataclass-ish
    values into plain JSON-serializable Python objects."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(str(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if not np.isfinite(value):
            raise DataError("refusing to serialize a non-finite number")
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json_atomic(path: str | Path, obj) -> None:
    _write_text_atomic(path, [canonical_dumps(obj)])


def read_json(path: str | Path) -> dict:
    """The JSON object in `path`; every artifact is an object at top level."""
    path = Path(path)
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _write_text_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the concatenated `chunks` to a temporary file, then rename it
    onto `path`; the temporary file is removed if anything fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    command: list[str], config: dict, seeds: dict, inputs: dict[str, str | Path] | None = None
) -> dict:
    """Provenance block embedded in every artifact: the command line, the
    effective config, the seeds, and a digest of every input file.

    The timestamp honors SOURCE_DATE_EPOCH and is otherwise null, so two
    runs with identical inputs and seeds stay byte-identical.
    """
    stamp = os.environ.get("SOURCE_DATE_EPOCH")
    digests = {
        role: {"path": str(p), "sha256": sha256_file(p)} for role, p in (inputs or {}).items()
    }
    return {
        "command": [str(c) for c in command],
        "config": jsonable(config),
        "seeds": jsonable(seeds),
        "inputs": digests,
        "tool_version": __version__,
        "timestamp": int(stamp) if stamp else None,
    }


def _names(obj: dict, key: str) -> list[str]:
    """The list of names under `key`; a string there is not a list of its
    characters."""
    value = obj[key]
    if not isinstance(value, list):
        raise DataError(f"field {key!r} must be a list of names, got {type(value).__name__}")
    return [str(v) for v in value]


def _numeric(obj: dict, key: str, convert=lambda value: np.asarray(value, dtype=float)):
    """convert(obj[key]), floats by default; a DataError names a non-number."""
    try:
        return convert(obj[key])
    except (TypeError, ValueError):
        raise DataError(f"field {key!r} must be numeric") from None


def truth_to_dict(truth: GroundTruth) -> dict:
    return {"schema_version": SCHEMA_VERSION} | jsonable(asdict(truth))


def truth_from_dict(obj: dict) -> GroundTruth:
    try:
        return GroundTruth(str(obj["target"]), frozenset(_names(obj, "mb")), str(obj["source"]))
    except KeyError as exc:
        raise DataError(f"ground-truth file is missing field {exc}") from None
    except UsageError as exc:  # GroundTruth names the field it rejects
        raise DataError(f"ground-truth file: {exc}") from None


def report_to_dict(report: CrpReport) -> dict:
    return {"schema_version": SCHEMA_VERSION} | jsonable(asdict(report))


def report_from_dict(obj: dict) -> CrpReport:
    """Inverse of `report_to_dict`; a report written before adjusted p-values
    existed reads back with `adjusted_p_values` None. The ranking must permute
    the variable names, and `selected` may name only them."""
    try:
        report = CrpReport(
            variable_names=_names(obj, "variable_names"),
            response=str(obj["response"]),
            ranking=_names(obj, "ranking"),
            selected=_names(obj, "selected"),
            p_values=_numeric(obj, "p_values"),
            adjusted_p_values=(
                None if obj.get("adjusted_p_values") is None
                else _numeric(obj, "adjusted_p_values")
            ),
            statistics=_numeric(obj, "statistics"),
            beta=_numeric(obj, "beta"),
            intercept=_numeric(obj, "intercept"),
            lambda_used=_numeric(obj, "lambda_used", float),
            rho_used=_numeric(obj, "rho_used", float),
            loss_used=str(obj["loss_used"]),
            covariance_used=str(obj["covariance_used"]),
            class_levels=obj.get("class_levels"),
            config=obj.get("config", {}),
            seed=_numeric(obj, "seed", int) if "seed" in obj else 0,
            versions=obj.get("versions", {}),
        )
    except KeyError as exc:
        raise DataError(f"report file is missing field {exc}") from None
    names = report.variable_names
    if sorted(report.ranking) != sorted(names) or not set(report.selected) <= set(names):
        raise DataError("report ranking must order its variable names, and selected name only them")
    return report


def sem_model_to_dict(model: SemModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sem",
        "names": list(model.names),
        "b": jsonable(model.b),
        "d": jsonable(model.d),
        "response": model.response,
    }


def sem_model_from_dict(obj: dict) -> SemModel:
    try:
        names, response = _names(obj, "names"), str(obj["response"])
        b, d = _numeric(obj, "b"), _numeric(obj, "d")
    except KeyError as exc:
        raise DataError(f"structural model file is missing field {exc}") from None
    if response not in names:
        raise DataError("structural model response is not among the variable names")
    return SemModel(b=b, d=d, names=names, response_index=names.index(response))

