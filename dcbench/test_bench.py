"""Tests of the benchmark itself: corpus, checks and tracer.

    python3 -m pytest dcbench/test_bench.py
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import checks
import corpus
import run
import tracing

cli = run.import_deepconn()

import deepconn  # noqa: E402  (imported from this checkout by import_deepconn)
from deepconn import fdc, model, oracles  # noqa: E402


def _digest() -> str:
    corpora = {w: corpus.build(w) for w in corpus.WORKLOADS}
    text = json.dumps(
        {w: [c.docs, [[op.op_id, op.doc, *op.argv] for op in c.ops]]
         for w, c in corpora.items()},
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_is_fixed_across_interpreters():
    # Another hash seed changes set and dict-of-set iteration order; the
    # corpus must not depend on it, nor on the run's --seed.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import test_bench; print(test_bench._digest())"
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    other = subprocess.run(
        [sys.executable, "-c", code, str(run.HERE)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert other.stdout.split()[-1] == _digest()


def test_reference_covers_every_op():
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for workload in corpus.WORKLOADS:
        ops = [op.op_id for op in corpus.build(workload).ops]
        assert len(set(ops)) == len(ops)
        assert sorted(reference[workload]) == sorted(ops)


def test_sparsify_corpus_meets_precondition():
    for doc in corpus.build("sparsify").docs.values():
        assert corpus.survives_single_failures(doc)


def test_tail_leaves_ten_ops_beyond():
    times = [float(i) for i in range(59)]
    pct, value = run.tail(times)
    assert pct == 83
    assert sum(t > value for t in times) >= 10


def _report(argv, doc):
    path = run.HERE / ".work" / "test_doc.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main([*argv, "-i", str(path), "--json"]) == 0
    finally:
        path.unlink()
    return json.loads(out.getvalue())


FIG1 = corpus._fixture("fig1")


def test_checker_accepts_fdc_certificate():
    report = _report(["fdc", "--pair", "S", "T", "--witness"], FIG1)
    assert checks.problems(["fdc"], FIG1, report) == []


def test_checker_rejects_tampered_dual():
    report = _report(["fdc", "--pair", "S", "T", "--witness"], FIG1)
    dual = report["witness"]["dual"]
    # Move all dual mass onto one edge: objectives still agree, but the
    # other overlay paths become too cheap.
    total = sum(map(Fraction, dual.values()), Fraction(0))
    first = sorted(dual)[0]
    tampered = copy.deepcopy(report)
    tampered["witness"]["dual"] = {first: str(total)}
    assert any("dual" in p for p in checks.problems(["fdc"], FIG1, tampered))


def test_checker_rejects_non_disconnecting_cut():
    report = _report(["erdc", "--pair", "S", "T", "--witness"], FIG1)
    assert checks.problems(["erdc"], FIG1, report) == []
    tampered = copy.deepcopy(report)
    tampered["witness"]["cut"] = tampered["witness"]["cut"][:1]
    tampered["value"] = 1
    assert "cut does not disconnect the pair" in checks.problems(["erdc"], FIG1, tampered)


def test_checker_rejects_intersecting_packing():
    shared = corpus._fixture("shared_edge")
    report = _report(["pddc", "--pair", "s", "t", "--witness"], shared)
    assert checks.problems(["pddc"], shared, report) == []
    tampered = copy.deepcopy(report)
    tampered["witness"]["paths"] *= 2
    tampered["value"] = 2
    assert "packing images intersect" in checks.problems(["pddc"], shared, tampered)


def _bindings():
    """Every module attribute, dict value and class attribute the tracer may touch."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "deepconn" or name.startswith("deepconn."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if isinstance(obj, dict):
                    out.update({(name, attr, k): v for k, v in obj.items()})
                if isinstance(obj, type):
                    out.update({(name, attr, k): v for k, v in vars(obj).items()})
    return out


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    original = model.route_image
    with tracing.Tracer():
        assert model.route_image is not original
        assert fdc.route_image is model.route_image
        assert deepconn.route_image is model.route_image
        assert cli.parse_instance is model.parse_instance
        assert oracles._PAIR_OPS["erdc"] is oracles.erdc_pair
        assert oracles.erdc_pair.__wrapped__ is before[("deepconn.oracles", "erdc_pair")]
        assert model.Instance.h_neighbors.__wrapped__ is before[
            ("deepconn.model", "Instance", "h_neighbors")
        ]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_calls_through_every_binding():
    with tracing.Tracer() as tracer:
        report = _report(["erdc", "--all-pairs", "--witness"], FIG1)
        _report(["fdc", "--pair", "S", "T"], FIG1)
    spans = tracer.stats.spans
    pairs = len(FIG1["peers"]) * (len(FIG1["peers"]) - 1) // 2
    assert report["value"] == 2
    assert spans["oracles.erdc_pair"][0] == pairs  # dispatched via _PAIR_OPS
    assert spans["cli.main"][0] == 2
    assert spans["model.parse_instance"][0] == 2  # bound in cli
    assert spans["simplex.add_column"][0] > 0
    assert spans["model.route_image"][0] > 0  # bound in fdc
    assert tracer.stats.extra["simplex.rows"] > 0


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    before = _bindings()
    monkeypatch.delattr(fdc, "separation_oracle")
    with pytest.raises(LookupError, match="fdc.separation_oracle"):
        with tracing.Tracer():
            pass
    monkeypatch.undo()
    assert all(_bindings()[k] is v for k, v in before.items())


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = tracing.layer_metrics(tracing.Stats(), 1, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: tracing.unit_of(k) for k in layer
    }
    runner = types.SimpleNamespace(samples={f"op{i}": [float(i + 1)] for i in range(20)})
    metrics, _ = run.end_to_end(runner, [0.1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
