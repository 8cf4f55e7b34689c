"""File formats: CSV data matrices, canonical JSON artifacts, run manifests.

CSV is UTF-8 with a comma delimiter, a header row of [A-Za-z0-9_]+ names,
and shortest round-trip float literals, so write-then-read restores values
exactly. JSON artifacts always serialize with sorted keys and embed their
run manifest; given the same inputs and seeds, two runs produce
byte-identical files. Writes go to a temporary file first and are renamed
into place.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .covmat import SampleMatrix
from .crp import CrpReport
from .errors import DataError, UsageError
from .synthgen import BnModel, GroundTruth, SemModel

SCHEMA_VERSION = 1
_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


def format_value(value: float) -> str:
    """Shortest literal that parses back to exactly the same float; integral
    values are written without a decimal point, and -0.0 as "-0"."""
    if value.is_integer() and abs(value) < 2**53:
        return ("-" if np.signbit(value) else "") + str(int(abs(value)))
    return repr(value)


def write_csv(path: str | Path, data: SampleMatrix) -> None:
    for name in data.column_names:
        if not _NAME_RE.fullmatch(name):
            raise DataError(f"column name {name!r} outside [A-Za-z0-9_]")
    lines = [",".join(data.column_names)]
    for row in data.values:
        lines.append(",".join(format_value(float(v)) for v in row))
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _read_text(path: Path) -> str:
    """The UTF-8 text of an existing file; anything else is a clean error."""
    if not path.exists():
        raise UsageError(f"no such file: {path}")
    if path.is_dir():
        raise UsageError(f"{path} is a directory, not a file")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def read_csv(path: str | Path) -> SampleMatrix:
    path = Path(path)
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
    _write_text_atomic(path, canonical_dumps(obj))


def read_json(path: str | Path):
    path = Path(path)
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None


def _write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
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


def truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "target": truth.target,
        "mb": sorted(truth.mb),
        "source": truth.source,
    }


def truth_from_dict(obj: dict) -> GroundTruth:
    try:
        return GroundTruth(str(obj["target"]), frozenset(obj["mb"]), str(obj["source"]))
    except KeyError as exc:
        raise DataError(f"ground-truth file is missing field {exc}") from None


def report_to_dict(report: CrpReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "response": report.response,
        "variable_names": list(report.variable_names),
        "ranking": list(report.ranking),
        "selected": list(report.selected),
        "p_values": jsonable(report.p_values),
        "adjusted_p_values": jsonable(report.adjusted_p_values),
        "statistics": jsonable(report.statistics),
        "beta": jsonable(report.beta),
        "intercept": jsonable(report.intercept),
        "lambda_used": report.lambda_used,
        "rho_used": report.rho_used,
        "loss_used": report.loss_used,
        "covariance_used": report.covariance_used,
        "class_levels": jsonable(report.class_levels),
        "config": jsonable(report.config),
        "seed": report.seed,
        "versions": jsonable(report.versions),
    }


def report_from_dict(obj: dict) -> CrpReport:
    """Inverse of `report_to_dict`; a report written before adjusted p-values
    existed reads back with `adjusted_p_values` None."""
    try:
        return CrpReport(
            variable_names=[str(v) for v in obj["variable_names"]],
            response=str(obj["response"]),
            ranking=[str(v) for v in obj["ranking"]],
            selected=[str(v) for v in obj["selected"]],
            p_values=np.asarray(obj["p_values"], dtype=float),
            adjusted_p_values=(
                None if obj.get("adjusted_p_values") is None
                else np.asarray(obj["adjusted_p_values"], dtype=float)
            ),
            statistics=np.asarray(obj["statistics"], dtype=float),
            beta=np.asarray(obj["beta"], dtype=float),
            intercept=np.asarray(obj["intercept"], dtype=float),
            lambda_used=float(obj["lambda_used"]),
            rho_used=float(obj["rho_used"]),
            loss_used=str(obj["loss_used"]),
            covariance_used=str(obj["covariance_used"]),
            class_levels=obj.get("class_levels"),
            config=obj.get("config", {}),
            seed=int(obj.get("seed", 0)),
            versions=obj.get("versions", {}),
        )
    except KeyError as exc:
        raise DataError(f"report file is missing field {exc}") from None


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
        names = [str(v) for v in obj["names"]]
        return SemModel(
            b=np.asarray(obj["b"], dtype=float),
            d=np.asarray(obj["d"], dtype=float),
            names=names,
            response_index=names.index(str(obj["response"])),
        )
    except KeyError as exc:
        raise DataError(f"structural model file is missing field {exc}") from None
    except ValueError:
        raise DataError("structural model response is not among the variable names") from None


def bn_model_to_dict(model: BnModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bn",
        "variables": list(model.names),
        "arities": list(model.arities),
        "parents": [[model.names[q] for q in pa] for pa in model.parents],
        "cpts": [jsonable(np.asarray(t).reshape(-1)) for t in model.cpts],
    }


def bn_model_from_dict(obj: dict) -> BnModel:
    try:
        names = [str(v) for v in obj["variables"]]
        arities = [int(a) for a in obj["arities"]]
        index = {name: i for i, name in enumerate(names)}
        parents = []
        for v, pa in enumerate(obj["parents"]):
            try:
                parents.append([index[str(q)] for q in pa])
            except KeyError as exc:
                raise DataError(f"unknown parent {exc} for variable {names[v]}") from None
        cpts = []
        for v, flat in enumerate(obj["cpts"]):
            flat = np.asarray(flat, dtype=float)
            width = arities[v]
            if width <= 0 or flat.size % width != 0:
                raise DataError(f"CPT size for {names[v]} does not match its arity")
            cpts.append(flat.reshape(-1, width))
        return BnModel(names=names, arities=arities, parents=parents, cpts=cpts)
    except KeyError as exc:
        raise DataError(f"network model file is missing field {exc}") from None
