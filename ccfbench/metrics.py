"""The metric catalogue: every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names, units and
bounds (``tests/test_ccfbench.py`` checks that the two agree).
``PER_LAYER`` also records, for each per-layer metric, the end-to-end
metric and workload it should move; README.md explains each definition.
"""

from __future__ import annotations

from tracer import KERNEL_UNITS

WORKLOADS = ("ingest", "serve", "joblight")

#: name -> (unit, better, bound).  Every workload reports every one.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "rate_per_s": ("items/s", "higher", 0.25),
    "op_ms": ("ms", "lower", 0.25),
    "pass_ratio": ("ratio", "lower", 0.20),
    "bits_per_row": ("bits/row", "lower", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: name -> (unit, better, [(e2e metric, workload), ...]).
PER_LAYER: dict[str, tuple[str, str, list[tuple[str, str]]]] = {
    "hashing.us_per_row": ("us/row", "lower", [("rate_per_s", "ingest"), ("rate_per_s", "serve")]),
    "ccf.attr_vectors_us_per_row": ("us/row", "lower", [("rate_per_s", "ingest")]),
    "store.insert_self_us_per_row": ("us/row", "lower", [("rate_per_s", "ingest"), ("store.recover_s", "ingest")]),
    "store.delete_self_us_per_row": ("us/row", "lower", [("rate_per_s", "ingest")]),
    "store.wal_append_us_per_row": ("us/row", "lower", [("rate_per_s", "ingest")]),
    "store.wal_fsyncs": ("count/round", "lower", [("rate_per_s", "ingest")]),
    "store.wal_fsync_us": ("us/round", "lower", [("rate_per_s", "ingest")]),
    "store.wal_bytes_per_row": ("bytes/row", "lower", [("rate_per_s", "ingest"), ("store.recover_s", "ingest")]),
    "store.checkpoint_us": ("us/round", "lower", [("rate_per_s", "ingest")]),
    "store.maintenance_us": ("us/publish", "lower", [("rate_per_s", "ingest")]),
    "store.compactions": ("count/round", "lower", [("rate_per_s", "ingest")]),
    "store.compaction_entries_per_row": ("entries/row", "lower", [("rate_per_s", "ingest")]),
    "store.snapshot_us": ("us/publish", "lower", [("rate_per_s", "ingest")]),
    "serve.publish_self_us": ("us/publish", "lower", [("rate_per_s", "ingest")]),
    "serve.pool_refresh_us": ("us/publish", "lower", [("rate_per_s", "ingest")]),
    "kernels.wave_relocations_per_item": ("moves/item", "lower", [("rate_per_s", "ingest")]),
    "store.wal_scan_us_per_row": ("us/row", "lower", [("store.recover_s", "ingest")]),
    "store.replay_us_per_row": ("us/row", "lower", [("store.recover_s", "ingest")]),
    "store.recover_s": ("s", "lower", [("rate_per_s", "ingest")]),
    "store.level_rolls": ("count/round", "lower", [("pass_ratio", "ingest"), ("bits_per_row", "ingest"), ("rate_per_s", "serve")]),
    "store.levels_at_end": ("count", "lower", [("pass_ratio", "serve"), ("bits_per_row", "serve"), ("rate_per_s", "serve")]),
    "store.probe_levels_per_key": ("levels/key", "lower", [("rate_per_s", "serve"), ("pass_ratio", "serve")]),
    **{
        f"kernels.{k}.calls": ("count/round", "lower", [("rate_per_s", "ingest"), ("rate_per_s", "serve")])
        for k in KERNEL_UNITS
    },
    **{
        f"kernels.{k}.us_per_unit": ("us/item", "lower", [("rate_per_s", "ingest"), ("rate_per_s", "serve")])
        for k in KERNEL_UNITS
    },
    "store.open_us": ("us", "lower", [("setup_s", "serve"), ("setup_s", "ingest")]),
    "serve.start_self_us": ("us", "lower", [("setup_s", "serve"), ("setup_s", "ingest")]),
    "store.warm_us": ("us", "lower", [("setup_s", "serve"), ("setup_s", "ingest")]),
    "serve.pool_us_per_batch": ("us/batch", "lower", [("rate_per_s", "serve"), ("op_ms", "serve")]),
    "serve.worker_probe_us_per_batch": ("us/batch", "lower", [("rate_per_s", "serve"), ("op_ms", "serve")]),
    "serve.ipc_us_per_batch": ("us/batch", "lower", [("rate_per_s", "serve"), ("op_ms", "serve")]),
    "serve.request_coalesce_us": ("us/request", "lower", [("op_ms", "serve")]),
    "serve.request_dispatch_us": ("us/batch", "lower", [("op_ms", "serve")]),
    "serve.request_scatter_us": ("us/batch", "lower", [("op_ms", "serve")]),
    "serve.queue_wait_us": ("us/request", "lower", [("op_ms", "serve")]),
    "serve.batch_keys_mean": ("keys/batch", "higher", [("op_ms", "serve")]),
    "ccf.chained.insert_us_per_row": ("us/row", "lower", [("setup_s", "joblight")]),
    "ccf.bloom.insert_us_per_row": ("us/row", "lower", [("setup_s", "joblight")]),
    "ccf.chained.query_us_per_key": ("us/key", "lower", [("rate_per_s", "joblight"), ("op_ms", "joblight")]),
    "ccf.bloom.query_us_per_key": ("us/key", "lower", [("rate_per_s", "joblight"), ("op_ms", "joblight")]),
    "ccf.compile_us_per_call": ("us/call", "lower", [("rate_per_s", "joblight"), ("op_ms", "joblight")]),
    "join.scan_us_per_instance": ("us/instance", "lower", [("rate_per_s", "joblight"), ("op_ms", "joblight")]),
    "ccf.chained.entries_per_row": ("entries/row", "lower", [("bits_per_row", "joblight")]),
    "ccf.bloom.entries_per_row": ("entries/row", "lower", [("bits_per_row", "joblight")]),
    "join.semijoin_fpr": ("ratio", "lower", [("pass_ratio", "joblight")]),
    "obs.tracing_overhead": ("ratio", "lower", [("rate_per_s", w) for w in WORKLOADS]),
    "obs.coverage": ("ratio", "higher", [("rate_per_s", w) for w in WORKLOADS]),
    "loadgen.lateness_ms_max": ("ms", "lower", [("op_ms", "serve")]),
    "loadgen.sent_per_s": ("req/s", "higher", [("op_ms", "serve")]),
}


def end_to_end(values: dict[str, float]) -> dict:
    """The ``metrics`` object of an untraced run."""
    return {name: {"value": float(values[name]), "unit": END_TO_END[name][0]} for name in END_TO_END}


def per_layer(values: dict[str, float]) -> dict:
    """The ``metrics`` object of a traced run; a layer the workload never
    reaches reads 0."""
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"per-layer metrics missing from the catalogue: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": PER_LAYER[name][0]}
        for name in PER_LAYER
    }
