"""Workload ``joblight``: the paper's application (§10, figures 6 and 9).

The synthetic IMDB dataset and the 70-query JOB-light workload are fixed;
``--seed`` salts ``CCFParams.seed``, so each seed sketches the same data
with different hash functions.  The exact binned oracle (the best semijoin
after binning ``production_year``) is computed once, untimed.

Each round builds the chained and the Bloom bundle (the set-up) one table
at a time, each with ``build_filter_bundle`` over a view of the dataset that
lists only that table, so every (bundle, table) build is a timed piece of
its own.  Then it makes two passes over all 70 queries: every (query, base
table) instance scans its base table, then for each other table and each
bundle compiles the table's predicate and probes the instance's distinct
keys with ``query_many``.  Every pass must keep a superset of the exact
binned semijoin, and every pass must keep exactly the same rows.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields
from pathlib import Path
import statistics

import numpy as np

from harness import Ledger, PieceClock, derived_seed, peak_rss_mb, rounds_for, run_rounds, spread
from repro.ccf.params import LARGE_PARAMS
from repro.data.imdb import IMDBDataset, generate_imdb
from repro.join import engine, reduction
from repro.join.job_light import make_job_light_workload
from repro.join.reduction import (
    FilterBundle, InstanceResult, YearBinning, aggregate_fpr, aggregate_rf,
)
from tracer import kernel_metrics

#: Passes over the 70 queries per round, after the round's builds: a pass
#: costs less than the builds, so its pieces get more samples.
PASSES = 2
NOMINAL_ROUND_S = 4.6
NOMINAL_FIXED_S = 0.5
DATA_SEED = 1
WORKLOAD_SEED = 3
KINDS = ("chained", "bloom")


@dataclass(frozen=True)
class JoblightSize:
    scale: float = 0.0005


SMOKE = JoblightSize(scale=0.0002)


@dataclass
class Instance:
    """The exact and exact-binned semijoin of one (query, base table)."""

    num_others: int
    m_predicate: int
    m_exact: int
    m_exact_binned: int
    binned_pass: np.ndarray  # over the instance's distinct base keys


@dataclass
class OneTable(IMDBDataset):
    """The dataset listing one table to build; every table stays readable
    through ``table()`` (the year binning reads ``title``)."""

    full: IMDBDataset | None = None

    def table(self, name: str):
        return self.full.table(name)


class JoblightInputs:
    """Dataset, queries, seeded parameters and the exact binned oracle."""

    def __init__(self, seed: int, size: JoblightSize) -> None:
        self.size = size
        self.dataset = dataset = generate_imdb(scale=size.scale, seed=DATA_SEED)
        self.queries = make_job_light_workload(dataset, seed=WORKLOAD_SEED)
        self.params = LARGE_PARAMS.with_seed(derived_seed(seed, 21))
        binning = YearBinning(dataset)
        self.binning = binning
        self.relations = {
            table: binning.augment(dataset.table(table)) if table == "title" else dataset.table(table)
            for table in dataset.tables
        }
        self.rows = sum(self.relations[t].num_rows for t in dataset.tables)
        base = {f.name: getattr(dataset, f.name) for f in fields(IMDBDataset)}
        self.views = {
            table: OneTable(**{**base, "tables": {table: dataset.table(table)}}, full=dataset)
            for table in dataset.tables
        }
        self.oracle: dict[tuple[int, str], Instance] = {}
        for query in self.queries:
            for base_ref in query.tables:
                self.oracle[(query.query_id, base_ref.table)] = self._exact(query, base_ref)

    def _exact(self, query, base_ref) -> Instance:
        dataset = self.dataset
        relation = self.relations[base_ref.table]
        mask = base_ref.predicate.mask(relation.columns)
        keys = relation.column(dataset.join_key(base_ref.table))[mask]
        unique, inverse = np.unique(keys, return_inverse=True)
        exact = np.ones(len(unique), dtype=bool)
        binned = np.ones(len(unique), dtype=bool)
        for other in query.others(base_ref.table):
            rel = self.relations[other.table]
            key = dataset.join_key(other.table)
            exact &= np.isin(unique, rel.column(key)[other.predicate.mask(rel.columns)])
            predicate = (
                self.binning.rewrite(other.predicate) if other.table == "title" else other.predicate
            )
            binned &= np.isin(unique, rel.column(key)[predicate.mask(rel.columns)])
        return Instance(
            len(query.others(base_ref.table)), int(mask.sum()),
            int(exact[inverse].sum()), int(binned[inverse].sum()), binned,
        )

    def fingerprint(self) -> list[int]:
        return [self.params.seed]


def semijoin_pass(inputs: JoblightInputs, query, bundles) -> tuple[dict, int]:
    """One query's instances: base scan, then compile + probe per other
    table and bundle, then the base rows each bundle keeps.

    Returns ``({base: {bundle: (passing keys mask, rows kept)}}, keys probed)``.
    """
    dataset = inputs.dataset
    out = {}
    probed = 0
    for base_ref in query.tables:
        relation = inputs.relations[base_ref.table]
        mask = engine.scan(relation, base_ref.predicate)
        keys = relation.column(dataset.join_key(base_ref.table))[mask]
        unique, inverse = np.unique(keys, return_inverse=True)
        passing = {bundle.name: np.ones(len(unique), dtype=bool) for bundle in bundles}
        if len(unique):
            for other in query.others(base_ref.table):
                for bundle in bundles:
                    ccf = bundle.ccfs[other.table]
                    compiled = ccf.compile(bundle.query_predicate(other.table, other.predicate))
                    passing[bundle.name] &= ccf.query_many(unique, compiled)
                    probed += len(unique)
        out[base_ref.table] = {
            name: (keep, int(keep[inverse].sum())) for name, keep in passing.items()
        }
    return out, probed


def run_round(inputs, clock: PieceClock, ledger: Ledger, counts: dict, tracer=None) -> dict:
    phase = tracer.in_phase if tracer is not None else nullcontext
    bundles = [
        FilterBundle(name=kind, kind=kind, params=inputs.params, binning=inputs.binning)
        for kind in KINDS
    ]
    for table, view in inputs.views.items():
        for bundle in bundles:
            with phase(f"join.build.{bundle.kind}"), clock.time("build", (bundle.kind, table)):
                built = reduction.build_filter_bundle(view, bundle.kind, inputs.params)
            bundle.ccfs[table] = built.ccfs[table]
    counts.setdefault("size_bits", []).append(tuple(b.total_size_bits() for b in bundles))
    counts["entries"] = [sum(c.num_entries for c in b.ccfs.values()) for b in bundles]
    results = []
    for _ in range(PASSES):
        results = semijoin_round_pass(inputs, bundles, clock, ledger, counts, phase)
    return {"results": results, "bundles": bundles}


def semijoin_round_pass(inputs, bundles, clock: PieceClock, ledger: Ledger, counts: dict,
                        phase) -> list[InstanceResult]:
    """One timed pass over every query, each checked against the oracle."""
    kept = {kind: 0 for kind in KINDS}
    results = []
    probed_total = 0
    for query in inputs.queries:
        with phase("join.pass"), clock.time("pass", query.query_id):
            answers, probed = semijoin_pass(inputs, query, bundles)
        probed_total += probed
        ledger.ops("join.probe", probed)
        for base, per_bundle in answers.items():
            oracle = inputs.oracle[(query.query_id, base)]
            for kind, (keep, rows) in per_bundle.items():
                missed = int(np.count_nonzero(oracle.binned_pass & ~keep))
                ledger.check(missed == 0, f"{kind} semijoin of query {query.query_id} base "
                                          f"{base}: {missed} key(s) of the exact binned set dropped")
                kept[kind] += rows
            results.append(InstanceResult(
                query.query_id, base, oracle.num_others, oracle.m_predicate, oracle.m_exact,
                oracle.m_exact_binned, {kind: rows for kind, (_, rows) in per_bundle.items()},
            ))
    counts.setdefault("kept", []).append(tuple(kept[k] for k in KINDS))
    counts.setdefault("probed", []).append(probed_total)
    return results


TIMED = ("build", "pass")
TRACED_PHASES = ("join.build.chained", "join.build.bloom", "join.pass")


def run(seed: int, seconds: int, trace: bool, work: Path, size: JoblightSize = JoblightSize()) -> dict:
    del work  # the workload keeps everything in memory
    inputs = JoblightInputs(seed, size)
    rounds = rounds_for(seconds, NOMINAL_ROUND_S, NOMINAL_FIXED_S)
    ledger = Ledger()
    counts: dict = {}
    last: list[dict] = []

    def body(r: int, clock: PieceClock, tracer) -> None:
        last[:] = [run_round(inputs, clock, ledger, counts, tracer=tracer)]

    measured = run_rounds(rounds, trace, body)
    clock, tracer = measured.clock, measured.tracer
    for name in ("kept", "probed", "size_bits"):
        ledger.check(len(set(counts[name])) == 1, f"{name} differs between rounds: {counts[name]}")

    results = last[0]["results"]
    probed = counts["probed"][0]
    chained_bits = counts["size_bits"][0][0]
    e2e = {
        "setup_s": clock.fastest("build"),
        "rate_per_s": probed / clock.fastest("pass"),
        "op_ms": statistics.fmean(clock.piece_fastest("pass")) * 1e3,
        "pass_ratio": aggregate_rf(results, "chained"),
        "bits_per_row": chained_bits / inputs.rows,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "rounds": rounds,
        "traced_rounds": rounds - rounds // 2 if trace else 0,
        "samples_per_piece": {g: clock.count(g) for g in TIMED},
        "inputs": {"scale": size.scale, "rows": inputs.rows, "queries": len(inputs.queries),
                   "instances": len(results), "params_seed": inputs.params.seed},
        "figures": {
            "semijoin_keys_per_s": e2e["rate_per_s"],
            "semijoin_rf": e2e["pass_ratio"],
            "query_p50_ms": statistics.median(clock.piece_fastest("pass")) * 1e3,
            "exact_binned_rf": aggregate_rf(results, "exact_binned"),
            "exact_rf": aggregate_rf(results, "exact"),
            "bloom_rf": aggregate_rf(results, "bloom"),
            "fpr": aggregate_fpr(results, "chained"),
            "bloom_fpr": aggregate_fpr(results, "bloom"),
            "build_s": {
                kind: sum(min(t) for (k, _), t in clock.samples["build"].items() if k == kind)
                for kind in KINDS
            },
        },
        "per_round": {
            "rate_per_s": spread([probed / t for t in clock.per_round("pass")]),
            "setup_s": spread(clock.per_round("build")),
        },
        "counts": {"probed": probed, "kept": counts["kept"][0], "size_bits": counts["size_bits"][0],
                   "entries": counts["entries"]},
    }
    layers = None
    if tracer is not None:
        layers = layer_metrics(inputs, tracer, clock, measured.traced_clock, counts, results)
        detail["layer_self_s"] = tracer.layer_self()
        detail["tracer_missing"] = tracer.missing
    return {"e2e": e2e, "layers": layers, "detail": detail, "ledger": ledger}


def layer_metrics(inputs, tracer, clock, traced_clock, counts, results) -> dict:
    rounds = len(traced_clock.per_round("pass"))
    get = tracer.get

    def per_unit(name: str, phase: str) -> float:
        _, incl, _, units = get(name, phase)
        return 1e6 * incl / units if units else 0.0

    compile_calls, compile_incl, _, _ = get("ccf.compile", "join.pass")
    scan_calls, scan_incl, _, _ = get("join.scan", "join.pass")
    phases = TRACED_PHASES
    handled = rounds * (inputs.rows * len(KINDS) + PASSES * counts["probed"][0])
    out = {
        "hashing.us_per_row": 1e6 * tracer.self_time("hashing.", *phases) / handled,
        "ccf.attr_vectors_us_per_row": 1e6 * tracer.self_time("ccf.attr_vectors", *phases) / handled,
        "ccf.chained.insert_us_per_row": per_unit("ccf.chained.insert_many", "join.build.chained"),
        "ccf.bloom.insert_us_per_row": per_unit("ccf.bloom.insert_many", "join.build.bloom"),
        "ccf.chained.query_us_per_key": per_unit("ccf.chained.query_many", "join.pass"),
        "ccf.bloom.query_us_per_key": per_unit("ccf.bloom.query_many", "join.pass"),
        "ccf.compile_us_per_call": 1e6 * compile_incl / compile_calls if compile_calls else 0.0,
        "join.scan_us_per_instance": 1e6 * scan_incl / scan_calls if scan_calls else 0.0,
        "ccf.chained.entries_per_row": counts["entries"][0] / inputs.rows,
        "ccf.bloom.entries_per_row": counts["entries"][1] / inputs.rows,
        "join.semijoin_fpr": aggregate_fpr(results, "chained"),
    }
    out.update(kernel_metrics(tracer, rounds, *phases))
    out["obs.coverage"] = tracer.covered(*phases) / traced_clock.total(*TIMED)
    out["obs.tracing_overhead"] = traced_clock.fastest(*TIMED) / clock.fastest(*TIMED)
    return out
