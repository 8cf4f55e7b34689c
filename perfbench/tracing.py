"""Spans around the calls into each covridge module, recorded from outside.

`Tracer.install` replaces the module attributes through which `crp_run`,
`permutation_pvalues`, `cv_select_lambda` and `cli.main` call each layer
with timing wrappers, and `close` puts the originals back. A name that no
longer exists is skipped, so its layer reports zero calls. Spans are kept
in memory and turned into per-layer metrics once the run ends.

The recorder is thread-safe because `permtest` calls `fit_ridge` from pool
threads. A span opened on a thread with no open span of its own takes as
parent the innermost span open on the thread that installed the tracer,
which is the `permutation_pvalues` call waiting on the pool.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

# (module, attribute, span name). The layer is the span name's first part.
WRAPPED = (
    ("covridge.cli", "main", "cli.main"),
    ("covridge.cli", "crp_run", "crp.crp_run"),
    ("covridge.crp", "crp_run", "crp.crp_run"),
    ("covridge.crp", "lw_shrink", "covmat.lw_shrink"),
    ("covridge.crp", "sample_covariance", "covmat.sample_covariance"),
    ("covridge.crp", "fit_whitener", "whiten.fit_whitener"),
    ("covridge.crp", "apply_whitener", "whiten.apply_whitener"),
    ("covridge.crp", "unwhiten_coefficients", "whiten.unwhiten_coefficients"),
    ("covridge.crp", "cv_select_lambda", "solver.cv_select_lambda"),
    ("covridge.crp", "multinomial_feasible", "solver.multinomial_feasible"),
    ("covridge.crp", "fit_mse", "solver.fit_mse"),
    ("covridge.crp", "fit_multinomial", "solver.fit_multinomial"),
    ("covridge.crp", "permutation_pvalues", "permtest.permutation_pvalues"),
    ("covridge.solver", "fit_multinomial", "solver.fit_multinomial"),
    ("covridge.permtest", "fit_ridge", "solver.fit_ridge"),
    ("covridge.permtest", "permutation_stream", "permtest.permutation_stream"),
    ("covridge.permtest", "unwhiten_coefficients", "whiten.unwhiten_coefficients"),
    ("covridge.fileio", "read_csv", "fileio.read_csv"),
    ("covridge.fileio", "build_manifest", "fileio.build_manifest"),
    ("covridge.fileio", "write_json_atomic", "fileio.write_json_atomic"),
)
FIT_SPANS = {"solver.fit_mse", "solver.fit_multinomial", "solver.fit_ridge"}


def _describe(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counters taken at the span boundary from the call's arguments and result.

    Fields a later version of the program drops read as defaults, so that
    tracing never breaks a call.
    """
    if name in FIT_SPANS:
        return {"iterations": int(getattr(result, "iterations", 0)),
                "converged": bool(getattr(result, "converged", True))}
    if name == "permtest.permutation_pvalues":
        return {"failed": int(getattr(result, "failed", 0))}
    if name in ("fileio.read_csv", "fileio.write_json_atomic"):
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}
    return {}


class _TimedStream:
    """Stands in for a permutation stream and records each draw from it as a
    `permtest.draw` span, so shuffle time counts as stream time."""

    def __init__(self, generator, wrap) -> None:
        self._generator = generator
        self._wrap = wrap

    def __getattr__(self, name: str):
        attr = getattr(self._generator, name)
        return self._wrap(attr, "permtest.draw") if callable(attr) else attr


class Tracer:
    """Records spans as dicts: id, parent, name, thread, start, end, info."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._home = threading.get_ident()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        return self

    def close(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            with self._lock:
                span_id = next(self._ids)
                stack = self._stacks[thread]
                home = self._stacks[self._home]
                parent = stack[-1] if stack else (home[-1] if home else None)
                stack.append(span_id)
            info: dict = {"error": True}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                info = _describe(name, args, kwargs, result)
                if name == "permtest.permutation_stream":
                    result = _TimedStream(result, self._wrap)
                return result
            finally:
                end = time.perf_counter()
                with self._lock:
                    self._stacks[thread].pop()
                    self.spans.append(
                        {"id": span_id, "parent": parent, "name": name, "thread": thread,
                         "start": start, "end": end, "info": info}
                    )

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    clipped = [
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children
        if c["end"] > span["start"] and c["start"] < span["end"]
    ]
    return (span["end"] - span["start"]) - _covered(clipped)


def layer_metrics(spans: list[dict], calls: int) -> dict[str, float]:
    """Per-layer metrics, as totals per traced pipeline call.

    Times are in seconds, sizes in MB or kB. Ratios are over all calls.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def names_above(s: dict) -> set[str]:
        names = set()
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
            names.add(s["name"])
        return names

    above = {s["id"]: names_above(s) for s in spans}

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(selected: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in selected)

    def outermost(layer: str) -> list[dict]:
        """Spans of a layer not nested in another span of the same layer."""
        return [s for s in spans if s["name"].startswith(layer + ".")
                and not any(a.startswith(layer + ".") for a in above[s["id"]])]

    fits = [s for s in spans if s["name"] in FIT_SPANS and not FIT_SPANS & above[s["id"]]]
    cv_fits = [s for s in fits if "solver.cv_select_lambda" in above[s["id"]]]
    other_fits = [s for s in fits if "solver.cv_select_lambda" not in above[s["id"]]]
    refits = [s for s in fits if "permtest.permutation_pvalues" in above[s["id"]]]
    converged = sum(1 for s in fits if s["info"].get("converged"))
    permtest_busy = total(named("permtest.permutation_pvalues"))
    refit_s = total(refits)
    covmat_spans, whiten_spans = outermost("covmat"), outermost("whiten")
    per = 1.0 / max(calls, 1)

    def self_total(name: str) -> float:
        return sum(self_time(s, children[s["id"]]) for s in named(name))

    def info_total(name: str, key: str) -> float:
        return sum(s["info"].get(key, 0) for s in named(name))

    return {
        "solver.cv.busy_s": total(named("solver.cv_select_lambda")) * per,
        "solver.cv.fits": len(cv_fits) * per,
        "solver.fits": len(fits) * per,
        "solver.iterations": sum(s["info"].get("iterations", 0) for s in fits) * per,
        "solver.nonconverged": (len(fits) - converged) * per,
        "solver.converged_ratio": converged / len(fits) if fits else 1.0,
        "solver.fit.busy_s": total(other_fits) * per,
        "covmat.busy_s": total(covmat_spans) * per,
        "covmat.calls": len(covmat_spans) * per,
        "whiten.busy_s": total(whiten_spans) * per,
        "whiten.calls": len(whiten_spans) * per,
        "permtest.busy_s": permtest_busy * per,
        "permtest.stream_s": total(named("permtest.permutation_stream") + named("permtest.draw"))
        * per,
        "permtest.streams": len(named("permtest.permutation_stream")) * per,
        "permtest.refit_s": refit_s * per,
        "permtest.refits": len(refits) * per,
        "permtest.failed": info_total("permtest.permutation_pvalues", "failed") * per,
        "permtest.overlap": refit_s / permtest_busy if permtest_busy > 0 else 0.0,
        "fileio.read_s": total(named("fileio.read_csv")) * per,
        "fileio.read_mb": info_total("fileio.read_csv", "bytes") / 1e6 * per,
        "fileio.manifest_s": total(named("fileio.build_manifest")) * per,
        "fileio.write_s": total(named("fileio.write_json_atomic")) * per,
        "fileio.write_kb": info_total("fileio.write_json_atomic", "bytes") / 1e3 * per,
        "cli.self_s": self_total("cli.main") * per,
        "crp.busy_s": total(named("crp.crp_run")) * per,
        "crp.self_s": self_total("crp.crp_run") * per,
    }


def renumber(span_lists: list[list[dict]]) -> list[dict]:
    """Concatenate span lists from separate processes, keeping ids distinct."""
    out: list[dict] = []
    offset = 0
    for spans in span_lists:
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + offset
            out.append(dict(s, id=s["id"] + offset, parent=parent))
        offset += max((s["id"] for s in spans), default=0)
    return out
