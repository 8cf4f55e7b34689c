"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import tracing
import worker
from workloads import RESPONSE, WORKLOADS, call_in_process, make_input

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    w = WORKLOADS[name].warmup()
    if w.family == "poly":
        w = dataclasses.replace(w, n=120, extras=5)
    return w


@pytest.fixture
def cli_env(monkeypatch):
    """CLI calls in the tests import the checkout's sources."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, cli_env):
    result = worker.measure(tiny(name), seed=3, seconds=0.01, trace=trace, workdir=tmp_path)
    assert result["failed"] == 0, result["messages"]
    if not trace:
        result["metrics"]["setup_s"] = {"value": 0.5, "unit": "s"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}

    out = io.StringIO()
    with redirect_stdout(out):
        line = run.report(name, 3, trace, result)
    printed = out.getvalue()
    for metric in expected:
        assert f"  {metric['name']} " in printed
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    for quality in ("failed_frac", "hit_rate", "subset_rate", "mean_tp"):
        assert f"  {quality} " in printed
    assert line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def reference_report(name: str):
    w = tiny(name)
    data, _ = make_input(w, seed=5, index=0)
    report = call_in_process(w, data, seed=7).report
    assert checks.check_report(report, data, RESPONSE)[0] == []
    return report, data


@pytest.mark.parametrize("name", ["toy-mse", "multinomial-cv"])
def test_perturbed_beta_fails_the_stationarity_check(name):
    report, data = reference_report(name)
    report.beta = report.beta.copy()
    report.beta[0] *= 1.0 + 1e-3
    failures, kkt = checks.check_report(report, data, RESPONSE)
    assert any("stationarity" in f for f in failures), failures
    assert kkt > checks.KKT_TOLERANCE[report.loss_used]


def test_off_lattice_p_value_is_rejected():
    report, data = reference_report("toy-mse")
    report.p_values = report.p_values.copy()
    report.p_values[0] += 0.3 / (1 + report.config["permutations"])
    failures, _ = checks.check_report(report, data, RESPONSE)
    assert any("lattice" in f for f in failures), failures


def test_reordered_ranking_is_rejected():
    report, data = reference_report("toy-mse")
    report.ranking = list(report.ranking)
    report.ranking[0], report.ranking[1] = report.ranking[1], report.ranking[0]
    failures, _ = checks.check_report(report, data, RESPONSE)
    assert any("ranking" in f for f in failures), failures


def test_selection_must_match_alpha():
    report, data = reference_report("toy-mse")
    report.selected = list(report.selected) + [n for n in report.variable_names
                                               if n not in report.selected][:1]
    failures, _ = checks.check_report(report, data, RESPONSE)
    assert any("selected" in f for f in failures), failures


def test_manifest_digest_must_match(tmp_path):
    csv = tmp_path / "data.csv"
    csv.write_text("A,B\n1,2\n3,4\n", encoding="utf-8")
    good = {"inputs": {"data": {"sha256": checks.sha256_of(csv)}}}
    assert checks.check_manifest(good, csv) == []
    assert checks.check_manifest({"inputs": {"data": {"sha256": "0" * 64}}}, csv)
    assert checks.check_manifest(None, csv)


def test_self_time_subtracts_the_union_of_children():
    parent = {"start": 0.0, "end": 10.0}
    children = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 4.0},
                {"start": 8.0, "end": 12.0}]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 3.0 - 2.0)


def test_missing_wrapped_name_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("covridge.permtest", "no_longer_exists", "permtest.permutation_stream"),
    ))
    monkeypatch.delattr("covridge.fileio.read_csv")
    with tracing.Tracer() as tracer:
        pass
    metrics = tracing.layer_metrics(tracer.spans, calls=1)
    assert metrics["fileio.read_s"] == 0.0
    assert metrics["permtest.streams"] == 0.0


def test_recorder_keeps_every_span_under_thread_contention():
    """More pool workers than cores, with frequent thread switches."""
    tracer = tracing.Tracer()
    refit = tracer._wrap(lambda i: i, "whiten.unwhiten_coefficients")

    def pvalues():
        with ThreadPoolExecutor(max_workers=8) as pool:
            return sum(pool.map(refit, range(2000)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        total = tracer._wrap(pvalues, "permtest.permutation_pvalues")()
    finally:
        sys.setswitchinterval(interval)
    assert total == sum(range(2000))
    assert len(tracer.spans) == 2001
    (root,) = [s for s in tracer.spans if s["parent"] is None]
    assert all(s["parent"] == root["id"] for s in tracer.spans if s is not root)
    assert tracing.layer_metrics(tracer.spans, calls=1)["whiten.calls"] == 2000


def test_a_wrong_report_counts_as_a_failed_call(tmp_path, monkeypatch):
    import workloads

    original = workloads.crp_module.crp_run

    def tampered(*args, **kwargs):
        report = original(*args, **kwargs)
        report.beta = report.beta * 1.01
        return report

    monkeypatch.setattr(workloads.crp_module, "crp_run", tampered)
    result = worker.measure(tiny("toy-mse"), seed=3, seconds=0.01, trace=False, workdir=tmp_path)
    assert result["failed"] == result["attempted"] >= 1
    assert any("stationarity" in m for m in result["messages"])
