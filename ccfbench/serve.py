"""Workload ``serve``: the read path on a store the write path built.

The store is built untimed through ``FilterStore.insert_many`` (so it holds
as many levels as the program rolls) and checkpointed.  Its key and
attribute fingerprint columns exceed a 2 MiB per-core L2.  No writes happen
afterwards.  Each round:

1. sets up: ``FilterStore.open`` of the checkpoint, ``ServeRuntime.start``
   (one process worker, epoch publish, warm) and the first answered batch;
2. closed loop: ``runtime.query_many`` in fixed batches through the pool,
   alternating key-only and registered-predicate batches;
3. open loop: Poisson point queries through ``CoalescingFrontEnd`` at a
   fixed rate below the knee, each timed from when it was due.

Known keys are drawn Zipf-skewed (a hot head that fits in cache); a share of
probes are uniform never-inserted keys.
"""

from __future__ import annotations

import asyncio
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import (
    Delta, DeltaSum, Ledger, PieceClock, derived_seed, peak_rss_mb, rounds_for, run_rounds, spread,
)
from repro import obs
from repro.data.zipf import skewed_probe_indices
from repro.store import DurabilityConfig, FilterStore
from storework import (
    NUM_SHARDS,
    NUM_STATUS,
    SCHEMA,
    KeySpace,
    Probes,
    config_for,
    count_positives,
    params_for,
    rows_for_keys,
    set_up,
    setup_layer_metrics,
)
from tracer import KERNEL_UNITS

NOMINAL_ROUND_S = 1.8
NOMINAL_FIXED_S = 8.0


@dataclass(frozen=True)
class ServeSize:
    #: ~580k rows: 3.5 levels per shard, so no seed sits at a level roll.
    keys: int = 290_000
    level_buckets: int = 1 << 13
    batch_keys: int = 8_192
    closed_batches: int = 150
    open_requests: int = 1_500
    requests_per_s: float = 2_000.0
    zipf_alpha: float = 1.1
    negative_share: float = 0.2
    first_batch: int = 8_192
    setup_repeats: int = 1
    fpr_probes: int = 2_000_000


SMOKE = ServeSize(
    keys=5_000, level_buckets=1 << 9, batch_keys=512, closed_batches=8,
    open_requests=200, first_batch=512, fpr_probes=20_000,
)


class ServeInputs:
    """Rows, probe streams and arrivals, derived from the seed."""

    def __init__(self, seed: int, size: ServeSize) -> None:
        rng = np.random.default_rng([seed, 202])
        self.size = size
        space = KeySpace(seed)
        keys = space.keys(0, size.keys)
        self.rows = rows_for_keys(rng, keys)
        # Status bitmask per key: which predicates a key must pass.
        order = np.argsort(keys)
        key_index = order[np.searchsorted(keys[order], self.rows.keys)]
        self.status_mask = np.zeros(size.keys, dtype=np.int64)
        np.bitwise_or.at(self.status_mask, key_index, 1 << self.rows.status)
        # Hot keys are a random subset, not the lowest indices.
        hot_order = rng.permutation(size.keys)
        neg_cursor = 0

        def stream(count: int, salt: int) -> tuple[np.ndarray, np.ndarray]:
            nonlocal neg_cursor
            negative = rng.random(count) < size.negative_share
            ranks = skewed_probe_indices(
                count, size.keys, size.zipf_alpha, seed=derived_seed(seed, salt)
            )
            index = hot_order[ranks]
            index[negative] = -1
            out = keys[np.maximum(index, 0)]
            n_neg = int(np.count_nonzero(negative))
            out[negative] = space.negatives(neg_cursor, n_neg)
            neg_cursor += n_neg
            return out, index

        total = size.closed_batches * size.batch_keys
        self.closed_keys, self.closed_index = stream(total, 31)
        self.closed_preds = [
            None if b % 2 == 0 else f"status{(b // 2) % NUM_STATUS}"
            for b in range(size.closed_batches)
        ]
        # The open loop is key-only: every predicate token is its own
        # coalescing queue and its own pool round trip per tick, which would
        # move the knee below the offered rate.
        self.open_keys, self.open_index = stream(size.open_requests, 32)
        gaps = rng.exponential(1.0 / size.requests_per_s, size=size.open_requests)
        self.open_due = np.cumsum(gaps) - gaps[0]
        self.first_keys = keys[rng.choice(size.keys, size.first_batch, replace=False)]
        self.fpr_keys = Probes(space, neg_cursor, size.fpr_probes)
        self.fpr_pred_keys = Probes(space, neg_cursor + size.fpr_probes, size.fpr_probes)

    def expected(self, index: np.ndarray, predicate: str | None) -> np.ndarray:
        """Which probes must answer True (live keys passing the predicate)."""
        known = index >= 0
        if predicate is None:
            return known
        bit = 1 << int(predicate[len("status"):])
        return known & ((self.status_mask[np.maximum(index, 0)] & bit) != 0)

    def fingerprint(self) -> list[int]:
        return self.rows.keys[:4].tolist() + self.closed_keys[:4].tolist()


def build_store(inputs: ServeInputs, seed: int, root: Path) -> dict:
    """Build the store through the write path and checkpoint it (untimed)."""
    size = inputs.size
    store = FilterStore(SCHEMA, params_for(seed), config_for(seed, size.level_buckets))
    rows = inputs.rows
    failed = 0
    for start in range(0, len(rows), 10_000):
        part = rows.take(np.arange(start, min(start + 10_000, len(rows))))
        failed += int(np.count_nonzero(~store.insert_many(part.keys, part.columns)))
    store.attach_wal(root, DurabilityConfig(fsync="batch"))
    stats = store.stats()
    info = {
        "rows": len(rows),
        "levels": store.num_levels,
        "size_bits": store.size_in_bits(),
        "sketch_bytes": store.size_in_bytes(),
        "load_factor": stats["load_factor"],
        "insert_failed": failed,
    }
    store.close()
    return info


async def _open_loop(frontend, inputs: ServeInputs) -> tuple[list, np.ndarray, np.ndarray, float]:
    """Send every request at its due time; returns answers, latencies,
    lateness (seconds) and the send span."""
    keys = inputs.open_keys.tolist()
    due = inputs.open_due
    n = len(keys)
    done = np.zeros(n)
    lateness = np.zeros(n)
    start = perf_counter() + 0.005

    async def one(i: int) -> bool:
        answer = await frontend.query(keys[i])
        done[i] = perf_counter()
        return answer

    tasks = []
    for i in range(n):
        delay = start + due[i] - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness[i] = perf_counter() - (start + due[i])
        tasks.append(asyncio.ensure_future(one(i)))
    sent_span = perf_counter() - start
    answers = await asyncio.gather(*tasks, return_exceptions=True)
    return answers, done - (start + due), lateness, sent_span


def run_round(inputs, root: Path, work: Path, clock: PieceClock, ledger: Ledger, counts: dict,
              memory: dict, tracer=None, measure_fpr: bool = False) -> None:
    size = inputs.size
    epochs = work / "serve-epochs"
    phase = tracer.in_phase if tracer is not None else nullcontext

    store, runtime, first = set_up(root, epochs, inputs.first_keys, clock, phase, memory,
                                   repeats=size.setup_repeats)
    try:
        ledger.ops("setup.first", len(first))
        ledger.no_false_negatives(first, np.ones(len(first), dtype=bool), "pool (first batch)")

        worker_before = runtime.metrics() if tracer is not None else None
        for b in range(size.closed_batches):
            part = slice(b * size.batch_keys, (b + 1) * size.batch_keys)
            keys = inputs.closed_keys[part]
            pred = inputs.closed_preds[b]
            with phase("serve.closed"), clock.time("closed", b):
                if tracer is None:
                    answers = runtime.query_many(keys, pred)
                else:
                    # A trace context makes the worker record its probe span.
                    with obs.activate(obs.new_trace()):
                        answers = runtime.query_many(keys, pred)
            ledger.ops("serve.closed", len(keys))
            ledger.no_false_negatives(answers, inputs.expected(inputs.closed_index[part], pred),
                                      "pool (closed loop)")
        if tracer is not None:
            counts.setdefault("worker_delta", []).append(Delta(worker_before, runtime.metrics()))
            events = runtime.trace()["traceEvents"]
            counts.setdefault("worker_probe_us", []).extend(
                e["dur"] for e in events if e.get("name") == "worker.probe"
            )
            obs.RECORDER.clear()

        open_before = obs.snapshot()
        frontend = runtime.frontend()
        try:
            with phase("serve.open"):
                answers, latency, lateness, sent_span = asyncio.run(_open_loop(frontend, inputs))
        finally:
            frontend.close()
        open_after = obs.snapshot()
        counts.setdefault("open_delta", []).append(Delta(open_before, open_after))
        failed = [i for i, a in enumerate(answers) if isinstance(a, BaseException)]
        ledger.ops("serve.open", len(answers), len(failed))
        ok = np.array([bool(a) if not isinstance(a, BaseException) else False for a in answers])
        ledger.no_false_negatives(ok, inputs.expected(inputs.open_index, None),
                                  "front end (point queries)")
        counts.setdefault("p50_ms", []).append(float(np.percentile(latency, 50)) * 1e3)
        counts.setdefault("latencies_ms", []).extend((latency * 1e3).tolist())
        counts.setdefault("lateness_ms_max", []).append(float(lateness.max()) * 1e3)
        counts.setdefault("sent_per_s", []).append(len(answers) / sent_span)

        if measure_fpr:
            pos = count_positives(runtime.query_many, inputs.fpr_keys)
            pos_pred = count_positives(runtime.query_many, inputs.fpr_pred_keys, "status0")
            ledger.ops("fpr", inputs.fpr_keys.count + inputs.fpr_pred_keys.count)
            counts["fpr_positives"] = [pos, pos_pred]
        counts.setdefault("levels", []).append(store.num_levels)
        counts.setdefault("size_bits", []).append(store.size_in_bits())
    finally:
        runtime.close()
        store.close()


TIMED = ("setup", "closed")
#: Tracer phases of the TIMED pieces (the open loop mostly waits on its
#: arrival schedule, so it is left out of coverage).
TRACED_PHASES = ("setup.open", "setup.start", "setup.first", "serve.closed")


def run(seed: int, seconds: int, trace: bool, work: Path, size: ServeSize = ServeSize()) -> dict:
    inputs = ServeInputs(seed, size)
    root = work / "serve-store"
    build = build_store(inputs, seed, root)
    rounds = rounds_for(seconds, NOMINAL_ROUND_S, NOMINAL_FIXED_S)
    ledger = Ledger()
    ledger.ops("build.insert", build["rows"], build["insert_failed"])
    counts: dict = {}
    traced_counts: dict = {}
    memory: dict = {}

    def body(r: int, clock: PieceClock, tracer) -> None:
        run_round(
            inputs, root, work, clock, ledger, traced_counts if tracer is not None else counts,
            memory, tracer=tracer, measure_fpr=r == 0,
        )

    measured = run_rounds(rounds, trace, body)
    clock, tracer = measured.clock, measured.tracer
    for name in ("levels", "size_bits"):
        values = counts[name] + traced_counts.get(name, [])
        ledger.check(len(set(values)) == 1, f"{name} differs between rounds: {values}")

    pos, pos_pred = counts["fpr_positives"]
    keys_per_round = size.closed_batches * size.batch_keys
    latencies = np.array(counts["latencies_ms"])
    e2e = {
        "setup_s": clock.fastest("setup"),
        "rate_per_s": keys_per_round / clock.fastest("closed"),
        "op_ms": min(counts["p50_ms"]),
        "pass_ratio": (pos + pos_pred) / (inputs.fpr_keys.count + inputs.fpr_pred_keys.count),
        "bits_per_row": counts["size_bits"][0] / len(inputs.rows),
        "peak_rss_mb": peak_rss_mb(memory["inherited_kb"]),
    }
    detail = {
        "rounds": rounds,
        "traced_rounds": rounds - rounds // 2 if trace else 0,
        "inputs": build,
        "figures": {
            "read_keys_per_s": e2e["rate_per_s"],
            "point_p50_ms": e2e["op_ms"],
            "point_latency_ms": {
                "samples": int(latencies.size),
                "p50": float(np.percentile(latencies, 50)),
                "p99": float(np.percentile(latencies, 99)),
                "p99.9": float(np.percentile(latencies, 99.9)),
                "beyond_p99.9": int(latencies.size * 0.001),
            },
            "fpr": e2e["pass_ratio"],
            "fpr_positives": {"key_only": pos, "predicate": pos_pred},
            "loadgen_lateness_ms_max": max(counts["lateness_ms_max"]),
            "loadgen_sent_per_s": min(counts["sent_per_s"]),
        },
        "per_round": {
            "rate_per_s": spread([keys_per_round / t for t in clock.per_round("closed")]),
            "setup_s": spread(clock.per_round("setup")),
            "op_ms": spread(counts["p50_ms"]),
        },
        "counts": {"levels": counts["levels"][0], "size_bits": counts["size_bits"][0]},
    }
    layers = None
    if tracer is not None:
        layers = layer_metrics(inputs, tracer, clock, measured.traced_clock, traced_counts)
        detail["layer_self_s"] = tracer.layer_self()
        detail["tracer_missing"] = tracer.missing
    return {"e2e": e2e, "layers": layers, "detail": detail, "ledger": ledger}


def layer_metrics(inputs, tracer, clock, traced_clock, counts) -> dict:
    size = inputs.size
    rounds = len(counts["p50_ms"])
    get = tracer.get
    pool_calls, pool_incl, _, _ = get("serve.pool.query_many", "serve.closed")
    worker_us = counts.get("worker_probe_us", [])
    worker_mean = statistics.fmean(worker_us) if worker_us else 0.0
    pool_mean = 1e6 * pool_incl / max(1.0, pool_calls)
    worker = DeltaSum(counts["worker_delta"])
    levels = counts["levels"][0]
    # A hit at depth d probed d + 1 levels; a miss probed its shard's whole
    # stack, charged here at the mean stack depth.
    hits_weighted = sum(
        (depth + 1) * worker.counter("repro_probe_hits_total", level=str(depth))
        for depth in range(levels)
    )
    hits = worker.counter("repro_probe_hits_total")
    misses = worker.counter("repro_probe_misses_total")
    level_probes = hits_weighted + misses * levels / NUM_SHARDS
    opened = DeltaSum(counts["open_delta"])

    def mean(stage: str) -> float:
        c, s = opened.histogram("repro_request_us", stage=stage)
        return s / c if c else 0.0

    batch_c, batch_s = opened.histogram("repro_frontend_batch_size")
    out = {
        **setup_layer_metrics(tracer),
        "serve.pool_us_per_batch": pool_mean,
        "serve.worker_probe_us_per_batch": worker_mean,
        "serve.ipc_us_per_batch": pool_mean - worker_mean,
        "serve.request_coalesce_us": mean("coalesce"),
        "serve.request_dispatch_us": mean("dispatch"),
        "serve.request_scatter_us": mean("scatter"),
        "serve.queue_wait_us": mean("total") - mean("coalesce") - mean("dispatch") - mean("scatter"),
        "serve.batch_keys_mean": batch_s / batch_c if batch_c else 0.0,
        "store.levels_at_end": levels,
        "store.probe_levels_per_key": level_probes / max(1.0, hits + misses),
        "loadgen.lateness_ms_max": max(counts["lateness_ms_max"]),
        "loadgen.sent_per_s": min(counts["sent_per_s"]),
    }
    for kernel in KERNEL_UNITS:
        calls = worker.counter("repro_kernel_calls_total", kernel=kernel)
        seconds = worker.counter("repro_kernel_seconds_total", kernel=kernel)
        out[f"kernels.{kernel}.calls"] = calls / rounds
        units = level_probes if kernel == "pair_eq" else 0.0
        out[f"kernels.{kernel}.us_per_unit"] = 1e6 * seconds / units if units else 0.0
    out["obs.coverage"] = tracer.covered(*TRACED_PHASES) / traced_clock.total(*TIMED)
    out["obs.tracing_overhead"] = traced_clock.fastest(*TIMED) / clock.fastest(*TIMED)
    return out
