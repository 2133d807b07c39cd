"""Tests of the benchmark itself (run: ``python -m pytest ccfbench/tests -q``).

* the metric catalogue and ``BENCHMARK.json`` agree;
* at one seed every count repeats exactly, and another seed changes the
  inputs;
* a false negative planted in each answer path makes the run incorrect;
* without the program next to it, the command fails without a result.

Workloads run in-process at their ``SMOKE`` sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import ingest  # noqa: E402
import joblight  # noqa: E402
import metrics  # noqa: E402
import serve  # noqa: E402
from repro.ccf.chained import ChainedCCF  # noqa: E402
from repro.serve.frontend import CoalescingFrontEnd  # noqa: E402
from repro.serve.pool import WorkerPool  # noqa: E402
from repro.store import FilterStore  # noqa: E402

MODULES = {"ingest": ingest, "serve": serve, "joblight": joblight}


def _run(name: str, tmp_path: Path, seed: int = 3, trace: bool = False, tag: str = "") -> dict:
    module = MODULES[name]
    work = tmp_path / f"work-{name}-{seed}-{int(trace)}{tag}"
    work.mkdir()
    try:
        return module.run(seed, 1, trace, work, module.SMOKE)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _counts(out: dict) -> dict:
    e2e = out["e2e"]
    detail = out["detail"]
    ledger = out["ledger"]
    return {
        "pass_ratio": e2e["pass_ratio"],
        "bits_per_row": e2e["bits_per_row"],
        "counts": detail["counts"],
        "attempted": dict(ledger.attempted),
        "failed": dict(ledger.failed),
        "fpr": detail["figures"]["fpr"],
    }


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()
    }
    for name, (_, _, moves) in metrics.PER_LAYER.items():
        for e2e, workload in moves:
            assert workload in metrics.WORKLOADS, name
            assert e2e in metrics.END_TO_END or e2e in metrics.PER_LAYER, name


@pytest.mark.parametrize("name", sorted(MODULES))
def test_counts_repeat_at_one_seed(name, tmp_path):
    first = _run(name, tmp_path)
    second = _run(name, tmp_path, tag="-again")
    assert first["ledger"].correct, first["ledger"].violations
    assert second["ledger"].correct, second["ledger"].violations
    assert _counts(first) == _counts(second)
    assert sum(first["ledger"].failed.values()) == 0


@pytest.mark.parametrize("name", sorted(MODULES))
def test_seed_changes_inputs(name):
    module = MODULES[name]
    inputs = {"ingest": ingest.IngestInputs, "serve": serve.ServeInputs,
              "joblight": joblight.JoblightInputs}[name]
    size = module.SMOKE
    assert inputs(1, size).fingerprint() == inputs(1, size).fingerprint()
    assert inputs(1, size).fingerprint() != inputs(2, size).fingerprint()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    out = _run(name, tmp_path, trace=True)
    assert out["ledger"].correct, out["ledger"].violations
    printed = metrics.per_layer(out["layers"])
    assert set(printed) == set(metrics.PER_LAYER)
    assert 0.0 < out["layers"]["obs.coverage"] <= 1.0 + 1e-9
    assert out["layers"]["obs.tracing_overhead"] > 0.0


def test_joblight_per_table_builds_equal_the_whole_bundle():
    inputs = joblight.JoblightInputs(3, joblight.SMOKE)
    for kind in joblight.KINDS:
        whole = joblight.reduction.build_filter_bundle(inputs.dataset, kind, inputs.params)
        for table, view in inputs.views.items():
            one = joblight.reduction.build_filter_bundle(view, kind, inputs.params)
            assert list(one.ccfs) == [table]
            assert one.ccfs[table].size_in_bits() == whole.ccfs[table].size_in_bits()
            assert one.ccfs[table].num_entries == whole.ccfs[table].num_entries


def test_ingest_replays_every_batch_and_compaction(tmp_path):
    out = _run("ingest", tmp_path)
    assert out["ledger"].correct, out["ledger"].violations
    size = ingest.SMOKE
    replayed = out["ledger"].attempted["replay.insert"]
    per_sweep = sum(len(b.insert_rows) for b in ingest.IngestInputs(3, size).batches)
    assert replayed == per_sweep * ingest.SWEEPS * out["detail"]["rounds"]
    assert "compact" in out["detail"]["counts"]["maintenance_steps"]
    assert out["ledger"].attempted["replay.maintain"] > 0


def _drop_first_true(original):
    """Wrap a batch query so its first True answer per call reads False."""

    def patched(self, keys, *args, **kwargs):
        answers = np.array(original(self, keys, *args, **kwargs), dtype=bool)
        hits = np.flatnonzero(answers)
        if hits.size:
            answers[hits[0]] = False
        return answers

    return patched


def _violations_mention(out: dict, text: str) -> bool:
    return any(text in v for v in out["ledger"].violations)


def test_planted_false_negative_in_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(WorkerPool, "query_many", _drop_first_true(WorkerPool.query_many))
    out = _run("ingest", tmp_path)
    assert not out["ledger"].correct
    assert _violations_mention(out, "pool")


def test_planted_false_negative_in_store(monkeypatch, tmp_path):
    monkeypatch.setattr(FilterStore, "query_many", _drop_first_true(FilterStore.query_many))
    out = _run("ingest", tmp_path)
    assert not out["ledger"].correct
    assert _violations_mention(out, "writer store")
    assert _violations_mention(out, "recovered store")


def test_planted_false_negative_in_recovered_store(monkeypatch, tmp_path):
    original_open = FilterStore.open.__func__
    inputs = ingest.IngestInputs(3, ingest.SMOKE)
    # Every row of a live base key the recovery check probes, so even its
    # key-only answer must turn False.
    key = inputs.rows.keys[inputs.parity_rows[0]]
    row = inputs.rows.take(np.flatnonzero(inputs.rows.keys == key))
    opened = []

    def open_and_corrupt(cls, path):
        store = original_open(cls, path)
        if Path(path).name == "ingest-store":
            opened.append(path)
            if len(opened) == 2:  # a round opens its store for set-up, then to recover
                store.delete_many(row.keys, row.columns)
        return store

    monkeypatch.setattr(FilterStore, "open", classmethod(open_and_corrupt))
    out = _run("ingest", tmp_path)
    assert not out["ledger"].correct
    assert _violations_mention(out, "recovered store")


def test_planted_false_negative_in_front_end(monkeypatch, tmp_path):
    known = set(serve.ServeInputs(3, serve.SMOKE).rows.keys.tolist())
    original = CoalescingFrontEnd.query
    planted = []

    async def patched(self, key, predicate=None, tenant="default"):
        answer = await original(self, key, predicate, tenant)
        if answer and key in known and not planted:
            planted.append(key)
            return False
        return answer

    monkeypatch.setattr(CoalescingFrontEnd, "query", patched)
    out = _run("serve", tmp_path)
    assert planted
    assert not out["ledger"].correct
    assert _violations_mention(out, "front end")


def test_planted_false_negative_in_semijoin(monkeypatch, tmp_path):
    original = ChainedCCF.query_many

    def patched(self, keys, *args, **kwargs):
        return np.zeros(len(original(self, keys, *args, **kwargs)), dtype=bool)

    monkeypatch.setattr(ChainedCCF, "query_many", patched)
    out = _run("joblight", tmp_path)
    assert not out["ledger"].correct
    assert _violations_mention(out, "chained semijoin")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
