"""Workload ``ingest``: the durable write path beside periodic publishes.

A checkpointed base store (built untimed) is copied for every round.  Each
round then runs the *main line*:

1. sets up: ``FilterStore.open`` of the checkpoint, ``ServeRuntime.start``
   (one process worker, epoch publish, warm) and the first answered batch;
2. applies write batches through ``ServeRuntime.insert_many`` /
   ``delete_many`` (WAL ``fsync="batch"``): new rows, re-inserts of stored
   rows, and deletes of a share of the new rows;
3. publishes every few batches, each followed by the budgeted maintenance
   steps ``ServeRuntime.install_maintenance`` would run (compaction of deep
   shards, a checkpoint once enough rows changed), each step timed on its
   own, and by one pool read batch of fresh rows and never-inserted keys;
4. abandons the writer without a checkpoint (its WAL handles are dropped
   unsynced, as in a process crash) and recovers with ``FilterStore.open``,
   which replays the log written since the last checkpoint;

and then *replay sweeps*: every write batch and every compaction step
again, each applied onto a durable copy of the store state the main line
had just before it (captured in the first round with
``FilterStore.snapshot`` and made durable with ``attach_wal``).  A replay
must return exactly what the main line returned and leave exactly as many
entries and levels.  Batches and compactions are nearly all of
``ingest_rows_per_s``; a sweep samples each of them once at well under half
the cost of a main line, so the figure rests on three times as many samples
of them.

Every round does identical work, so every count must repeat round to round.
"""

from __future__ import annotations

import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from harness import Delta, DeltaSum, Ledger, PieceClock, peak_rss_mb, rounds_for, run_rounds, spread
from tracer import kernel_metrics
from repro import obs
from repro.store import DurabilityConfig, FilterStore, MaintenancePolicy, MaintenanceScheduler
from storework import (
    PREDICATES,
    SCHEMA,
    EntryModel,
    KeySpace,
    Probes,
    Rows,
    config_for,
    count_positives,
    params_for,
    rows_for_keys,
    set_up,
    setup_layer_metrics,
)

#: Maintenance steps after each publish (``ServeRuntime``'s default budget);
#: the step that finds no debt ends them early.
MAINTENANCE_STEPS = 4
#: Replay sweeps per round, after the main line.
SWEEPS = 2
NOMINAL_ROUND_S = 11.5
NOMINAL_FIXED_S = 3.5
#: Group commit: a shard's log syncs once 256 KiB are unsynced (about every
#: third batch); rolls only ever come from the maintenance checkpoint.
DURABILITY = DurabilityConfig(fsync="batch", flush_bytes=1 << 18, roll_bytes=1 << 40)


@dataclass(frozen=True)
class IngestSize:
    base_keys: int = 150_000
    batches: int = 12
    new_rows: int = 7_500
    reinserts: int = 2_500
    delete_share: float = 0.10
    publish_every: int = 3
    read_fresh: int = 4_096
    read_negatives: int = 4_096
    first_batch: int = 8_192
    #: Set-ups per round (all but the last torn down again): the set-up is
    #: ~0.1 s of process start and file opens, noisy on a shared machine.
    setup_repeats: int = 4
    level_buckets: int = 1 << 13
    compact_levels: int = 3
    #: Per-shard WAL rows past which a publish's maintenance checkpoints:
    #: once per round, at the publish after batch 9 of 12 (publishes follow
    #: batches 3, 6, 9 and 12; a batch logs ~2.7k rows per shard), so
    #: recovery replays the last 3 batches.
    seal_rows: int = 20_000
    parity_per_batch: int = 256
    parity_base: int = 4_096
    fpr_probes: int = 3_000_000


SMOKE = IngestSize(
    base_keys=3_000, batches=6, new_rows=600, reinserts=200, publish_every=2,
    read_fresh=256, read_negatives=256, first_batch=512, setup_repeats=2, level_buckets=1 << 7,
    seal_rows=800, parity_per_batch=64, parity_base=256, fpr_probes=20_000,
)


@dataclass
class Batch:
    insert_rows: np.ndarray  # row ids, in applied order
    delete_rows: np.ndarray


class IngestInputs:
    """Every row, batch and probe of the workload, derived from the seed."""

    def __init__(self, seed: int, size: IngestSize) -> None:
        rng = np.random.default_rng([seed, 101])
        self.size = size
        self.space = KeySpace(seed)
        base = rows_for_keys(rng, self.space.keys(0, size.base_keys))
        parts = [base]
        next_key = size.base_keys
        n = len(base)
        self.base_rows = np.arange(n)
        live = np.zeros(n + size.batches * size.new_rows, dtype=bool)
        live[:n] = True
        self.batches: list[Batch] = []
        for _ in range(size.batches):
            fresh = rows_for_keys(rng, self.space.keys(next_key, size.new_rows))
            next_key += size.new_rows
            fresh = fresh.take(np.arange(size.new_rows))
            new_ids = np.arange(n, n + size.new_rows)
            n += size.new_rows
            parts.append(fresh)
            stored = np.flatnonzero(live[: new_ids[0]])
            again = rng.choice(stored, size=size.reinserts, replace=False)
            order = rng.permutation(size.new_rows + size.reinserts)
            insert_rows = np.concatenate([new_ids, again])[order]
            delete_rows = rng.choice(
                new_ids, size=int(size.delete_share * size.new_rows), replace=False
            )
            live[new_ids] = True
            live[delete_rows] = False
            self.batches.append(Batch(insert_rows, delete_rows))
        self.rows = Rows.concat(parts)
        self.first_keys = self.rows.keys[rng.choice(self.base_rows, size.first_batch, replace=False)]
        self.fpr_keys = Probes(self.space, 0, size.fpr_probes)
        self.fpr_pred_keys = Probes(self.space, size.fpr_probes, size.fpr_probes)
        publishes = size.batches // size.publish_every
        self.read_negatives = [
            self.space.negatives(2 * size.fpr_probes + i * size.read_negatives, size.read_negatives)
            for i in range(publishes)
        ]
        parity_neg = self.space.negatives(
            2 * size.fpr_probes + publishes * size.read_negatives, size.parity_base
        )
        sample = [rng.choice(self.base_rows, size.parity_base, replace=False)]
        for batch in self.batches:
            sample.append(rng.choice(batch.insert_rows, size.parity_per_batch, replace=False))
        self.parity_rows = np.concatenate(sample)
        self.parity_keys = np.concatenate([self.rows.keys[self.parity_rows], parity_neg])
        self.rows_applied = sum(len(b.insert_rows) + len(b.delete_rows) for b in self.batches)

    def fingerprint(self) -> list[int]:
        """A few input values, for tests that a seed changes the inputs."""
        return self.rows.keys[:4].tolist() + self.rows.status[:4].tolist()


def build_base(inputs: IngestInputs, seed: int, root: Path) -> dict:
    """Insert the base rows and checkpoint them at ``root`` (untimed)."""
    size = inputs.size
    store = FilterStore(SCHEMA, params_for(seed), config_for(seed, size.level_buckets))
    base = inputs.rows.take(inputs.base_rows)
    for start in range(0, len(base), 10_000):
        part = base.take(np.arange(start, min(start + 10_000, len(base))))
        store.insert_many(part.keys, part.columns)
    store.attach_wal(root, DURABILITY)
    info = {"base_rows": len(base), "base_levels": store.num_levels}
    store.close()
    return info


@dataclass
class Replay:
    """A main-line piece the replay sweep repeats, and what it must give."""

    group: str  # "insert" (a write batch: its insert, then its delete) or "maintain"
    piece: Any  # the batch index, or (publish index, step index)
    state: Path  # durable copy of the store state just before the piece
    entries: int  # store.num_entries after the piece
    levels: int  # store.num_levels after the piece
    placed: np.ndarray | None = None
    removed: np.ndarray | None = None


def policy(size: IngestSize) -> MaintenancePolicy:
    return MaintenancePolicy(compact_levels=size.compact_levels, seal_rows=size.seal_rows)


def run_round(
    inputs: IngestInputs,
    model: EntryModel,
    base_root: Path,
    work: Path,
    clock: PieceClock,
    ledger: Ledger,
    counts: dict,
    replays: dict,
    memory: dict,
    tracer=None,
    deltas: dict | None = None,
    first: bool = False,
) -> None:
    """One full round: the main line, then the replay sweeps.

    The first round also captures the replayed pieces' start states into
    ``work/ingest-states`` with what each piece gave, and measures ``fpr``
    on the recovered store.
    """
    capture = work / "ingest-states" if first else None
    main_line(inputs, model, base_root, work, clock, ledger, counts, replays, memory,
              tracer=tracer, deltas=deltas, capture=capture)
    if first:
        for replay in replays.values():
            state = FilterStore.open(replay.state)
            state.attach_wal(replay.state, DURABILITY)
            state.close()
    for _ in range(SWEEPS):
        replay_sweep(inputs, work, clock, ledger, replays, tracer)


def replay_sweep(inputs, work: Path, clock: PieceClock, ledger: Ledger, replays: dict,
                 tracer=None) -> None:
    """Every write batch and compaction step once more, each onto a durable
    copy of the state the main line applied it to."""
    phase = tracer.in_phase if tracer is not None else nullcontext
    rows = inputs.rows
    root = work / "ingest-replay"
    for replay in replays.values():
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(replay.state, root)
        store = FilterStore.open(root)
        try:
            store.warm()
            same = True
            if replay.group == "insert":
                batch = inputs.batches[replay.piece]
                ins = rows.take(batch.insert_rows)
                dele = rows.take(batch.delete_rows)
                with phase("replay.insert"), clock.time("insert", replay.piece):
                    placed = store.insert_many(ins.keys, ins.columns)
                with phase("replay.delete"), clock.time("delete", replay.piece):
                    removed = store.delete_many(dele.keys, dele.columns)
                ledger.ops("replay.insert", len(placed), int(np.count_nonzero(~placed)))
                ledger.ops("replay.delete", len(removed))
                same = (np.array_equal(placed, replay.placed)
                        and np.array_equal(removed, replay.removed))
            else:
                scheduler = MaintenanceScheduler(store, policy(inputs.size))
                with phase("replay.maintain"), clock.time("maintain", replay.piece):
                    kind = scheduler.step()
                ledger.ops("replay.maintain", 1, int(kind != "compact"))
            same = same and (store.num_entries, store.num_levels) == (replay.entries, replay.levels)
            ledger.check(same, f"replay of {replay.group} piece {replay.piece}: results or "
                               f"entries differ from the main line")
        finally:
            store.close()
    shutil.rmtree(root, ignore_errors=True)


def main_line(
    inputs: IngestInputs,
    model: EntryModel,
    base_root: Path,
    work: Path,
    clock: PieceClock,
    ledger: Ledger,
    counts: dict,
    replays: dict,
    memory: dict,
    tracer=None,
    deltas: dict | None = None,
    capture: Path | None = None,
) -> None:
    """Set-up, write batches with publishes and maintenance, crash and
    recovery."""
    size = inputs.size
    root = work / "ingest-store"
    epochs = work / "ingest-epochs"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(base_root, root)
    rows = inputs.rows
    phase = tracer.in_phase if tracer is not None else nullcontext
    snap = obs.snapshot

    def captured(group: str, piece) -> Path | None:
        """Snapshot the state before a replayable piece (first round only)."""
        if capture is None:
            return None
        state = capture / f"{group}-{piece}".replace(" ", "")
        store.snapshot(state)
        return state

    def applied(group: str, piece, state: Path | None, **results) -> bool:
        """Record (first round) or compare (later rounds) what a piece gave."""
        outcome = Replay(group, piece, state, store.num_entries, store.num_levels, **results)
        if state is not None:
            replays[(group, piece)] = outcome
            return True
        want = replays.get((group, piece))
        return want is not None and all(
            np.array_equal(getattr(outcome, f), getattr(want, f))
            for f in ("entries", "levels", *results)
        )

    # 1. set-up
    store, runtime, first = set_up(root, epochs, inputs.first_keys, clock, phase, memory,
                                   repeats=size.setup_repeats)
    try:
        scheduler = MaintenanceScheduler(store, policy(size))
        model.reset()
        model.insert(inputs.base_rows)
        live = np.zeros(len(rows), dtype=bool)
        live[inputs.base_rows] = True
        ledger.ops("setup.first", len(first))
        ledger.no_false_negatives(first, np.ones(len(first), dtype=bool), "pool (first batch)")

        # 2-3. write batches, publishes and their maintenance steps
        before = snap()
        fresh: list[np.ndarray] = []
        publish_index = 0
        steps = []
        for b, batch in enumerate(inputs.batches):
            state = captured("insert", b)
            ins = rows.take(batch.insert_rows)
            with phase("ingest.insert"), clock.time("insert", b):
                placed = runtime.insert_many(ins.keys, ins.columns)
            ledger.ops("ingest.insert", len(placed), int(np.count_nonzero(~placed)))
            model.insert(batch.insert_rows)
            live[batch.insert_rows] = True
            dele = rows.take(batch.delete_rows)
            with phase("ingest.delete"), clock.time("delete", b):
                removed = np.asarray(runtime.delete_many(dele.keys, dele.columns), dtype=bool)
            expected = model.delete(batch.delete_rows)
            live[batch.delete_rows] = False
            ledger.ops("ingest.delete", len(removed))
            mismatched = int(np.count_nonzero(removed != expected))
            ledger.check(mismatched == 0, f"delete batch {b}: {mismatched} result(s) differ from the oracle")
            ledger.check(applied("insert", b, state, placed=placed, removed=removed),
                         f"batch {b}: results differ from the first round")
            fresh.append(batch.insert_rows)
            if (b + 1) % size.publish_every == 0:
                with phase("ingest.publish"), clock.time("publish", publish_index):
                    runtime.publish()
                # The steps ServeRuntime.install_maintenance would run after
                # the publish, each timed on its own.
                for i in range(MAINTENANCE_STEPS):
                    state = captured("maintain", (publish_index, i))
                    with phase("ingest.maintain"), clock.time("maintain", (publish_index, i)):
                        kind = scheduler.step()
                    steps.append(kind)
                    if kind == "compact":
                        ledger.check(applied("maintain", (publish_index, i), state),
                                     f"compaction {publish_index}.{i}: store differs from the first round")
                    elif state is not None:
                        shutil.rmtree(state)
                    if kind is None:
                        break
                _pool_read(runtime, inputs, np.concatenate(fresh), live, model,
                           publish_index, ledger, phase)
                fresh = []
                publish_index += 1
        counts.setdefault("maintenance_steps", []).append(tuple(steps))
        counts.setdefault("levels_before_crash", []).append(store.num_levels)
        after = snap()
        with phase("check"):
            writer_keyonly = store.query_many(inputs.parity_keys)
            writer_pred = store.query_many(
                inputs.parity_keys, store.compile(PREDICATES["status0"])
            )
        ledger.ops("writer.parity", 2 * len(writer_keyonly))
        n_rows = len(inputs.parity_rows)
        held = live[inputs.parity_rows] & model.stored(inputs.parity_rows)
        status0 = held & (rows.status[inputs.parity_rows] == 0)
        ledger.no_false_negatives(writer_keyonly[:n_rows], held, "writer store (key-only)")
        ledger.no_false_negatives(writer_pred[:n_rows], status0, "writer store (predicate)")
        if deltas is not None:
            deltas.setdefault("ingest", []).append(Delta(before, after))
    finally:
        runtime.close()

    # 4. crash and recovery
    for shard in store.shards:
        if shard.wal is not None:
            shard.wal.close()
            shard.wal = None
    before = snap()
    with phase("recover"), clock.time("recover"):
        recovered = FilterStore.open(root)
    after = snap()
    if deltas is not None:
        deltas.setdefault("recover", []).append(Delta(before, after))
    try:
        counts.setdefault("replayed_rows", []).append(
            Delta(before, after).counter("repro_wal_replay_rows_total")
        )
        with phase("check"):
            answers = recovered.query_many(inputs.parity_keys)
            pred_answers = recovered.query_many(
                inputs.parity_keys, recovered.compile(PREDICATES["status0"])
            )
        ledger.ops("recover.parity", 2 * len(answers))
        diff = int(np.count_nonzero(answers != writer_keyonly)) + int(
            np.count_nonzero(pred_answers != writer_pred)
        )
        ledger.check(diff == 0, f"recovered store: {diff} answer(s) differ from the pre-crash writer")
        ledger.no_false_negatives(answers[:n_rows], held, "recovered store (key-only)")
        ledger.no_false_negatives(pred_answers[:n_rows], status0, "recovered store (predicate)")
        live_rows = int(np.count_nonzero(live))
        counts.setdefault("levels_at_end", []).append(recovered.num_levels)
        counts.setdefault("level_bucket_sizes", []).append(
            tuple(tuple(shard.stats()["level_bucket_sizes"]) for shard in recovered.shards)
        )
        counts.setdefault("live_rows", []).append(live_rows)
        counts.setdefault("size_bits", []).append(recovered.size_in_bits())
        counts.setdefault("shared_entry_losses", []).append(
            int(np.count_nonzero(live & ~model.stored(np.arange(len(rows)))))
        )
        counts.setdefault("parity_digest", []).append(
            int(np.packbits(np.concatenate([answers, pred_answers])).sum())
        )
        if capture is not None:
            pos = count_positives(recovered.query_many, inputs.fpr_keys)
            compiled = recovered.compile(PREDICATES["status0"])
            pos_pred = count_positives(recovered.query_many, inputs.fpr_pred_keys, compiled)
            ledger.ops("fpr", inputs.fpr_keys.count + inputs.fpr_pred_keys.count)
            counts["fpr_positives"] = [pos, pos_pred]
    finally:
        recovered.close()


TIMED = ("setup", "insert", "delete", "publish", "maintain", "recover")
#: The pieces of ``ingest_rows_per_s``.
APPLY = ("insert", "delete", "publish", "maintain")
#: Tracer phases of the TIMED pieces.
TRACED_PHASES = ("setup.open", "setup.start", "setup.first", "ingest.insert", "ingest.delete",
                 "ingest.publish", "ingest.maintain", "recover", "replay.insert", "replay.delete",
                 "replay.maintain")


def run(seed: int, seconds: int, trace: bool, work: Path, size: IngestSize = IngestSize()) -> dict:
    """Run the workload; returns metrics, detail, ledger (see run.py)."""
    inputs = IngestInputs(seed, size)
    base_root = work / "ingest-base"
    base_info = build_base(inputs, seed, base_root)
    # The model needs only the store's hash geometry, which the seed fixes.
    model = EntryModel(
        FilterStore(SCHEMA, params_for(seed), config_for(seed, size.level_buckets)), inputs.rows
    )
    rounds = rounds_for(seconds, NOMINAL_ROUND_S, NOMINAL_FIXED_S)
    ledger = Ledger()
    counts: dict = {}
    deltas: dict = {}
    replays: dict = {}
    memory: dict = {}

    def body(r: int, clock: PieceClock, tracer) -> None:
        run_round(
            inputs, model, base_root, work, clock, ledger, counts, replays, memory,
            tracer=tracer, deltas=deltas if tracer is not None else None, first=r == 0,
        )

    measured = run_rounds(rounds, trace, body)
    clock, tracer = measured.clock, measured.tracer
    for name in ("levels_at_end", "live_rows", "size_bits", "parity_digest", "replayed_rows",
                 "maintenance_steps", "levels_before_crash", "shared_entry_losses",
                 "level_bucket_sizes"):
        ledger.check(len(set(counts[name])) == 1, f"{name} differs between rounds: {counts[name]}")

    applied = clock.fastest(*APPLY)
    acks = [
        min(i + d for i, d in zip(ins, dele))
        for ins, dele in zip(clock.samples["insert"].values(), clock.samples["delete"].values())
    ]
    pos, pos_pred = counts["fpr_positives"]
    live_rows = counts["live_rows"][0]
    e2e = {
        "setup_s": clock.fastest("setup"),
        "rate_per_s": inputs.rows_applied / applied,
        "op_ms": statistics.fmean(acks) * 1e3,
        "pass_ratio": (pos + pos_pred) / (inputs.fpr_keys.count + inputs.fpr_pred_keys.count),
        "bits_per_row": counts["size_bits"][0] / live_rows,
        "peak_rss_mb": peak_rss_mb(memory["inherited_kb"]),
    }
    detail = {
        "rounds": rounds,
        "traced_rounds": rounds - rounds // 2 if trace else 0,
        "samples_per_piece": {g: clock.count(g) for g in TIMED},
        "inputs": {**base_info, "rows_applied_per_round": inputs.rows_applied,
                   "batches": size.batches, "publishes": size.batches // size.publish_every},
        "figures": {
            "ingest_rows_per_s": e2e["rate_per_s"],
            "recover_s": clock.fastest("recover"),
            "write_ack_mean_ms": e2e["op_ms"],
            "write_ack_p50_ms": statistics.median(acks) * 1e3,
            "fpr": e2e["pass_ratio"],
            "fpr_positives": {"key_only": pos, "predicate": pos_pred},
        },
        "per_round": {
            "rate_per_s": spread([inputs.rows_applied / t for t in clock.per_round(*APPLY)]),
            "setup_s": spread(clock.per_round("setup")),
            "recover_s": spread(clock.per_round("recover")),
        },
        "counts": {k: v[0] for k, v in counts.items() if k != "fpr_positives"},
    }
    layers = None
    if tracer is not None:
        layers = layer_metrics(inputs, tracer, clock, measured.traced_clock, deltas, counts)
        detail["layer_self_s"] = tracer.layer_self()
        detail["tracer_missing"] = tracer.missing
    return {"e2e": e2e, "layers": layers, "detail": detail, "ledger": ledger}


def layer_metrics(inputs, tracer, clock, traced_clock, deltas, counts) -> dict:
    size = inputs.size
    rounds = len(deltas["ingest"])
    publishes = rounds * (size.batches // size.publish_every)
    ins_rows = rounds * sum(len(b.insert_rows) for b in inputs.batches)
    del_rows = rounds * sum(len(b.delete_rows) for b in inputs.batches)
    rows = ins_rows + del_rows
    write = ("ingest.insert", "ingest.delete")
    ingest = DeltaSum(deltas["ingest"])
    recover = DeltaSum(deltas["recover"])
    replayed = max(1.0, recover.counter("repro_wal_replay_rows_total"))
    get = tracer.get
    out = {
        "hashing.us_per_row": 1e6 * tracer.self_time("hashing.", *write) / rows,
        "ccf.attr_vectors_us_per_row": 1e6 * tracer.self_time("ccf.attr_vectors", *write) / rows,
        "store.insert_self_us_per_row": 1e6 * (
            get("store.insert_many", "ingest.insert")[2]
            + get("store.shard.insert_hashed_rows", "ingest.insert")[2]
        ) / ins_rows,
        "store.delete_self_us_per_row": 1e6 * (
            get("store.delete_many", "ingest.delete")[2]
            + get("store.shard.delete_hashed_rows", "ingest.delete")[2]
        ) / del_rows,
        "store.wal_append_us_per_row": 1e6 * get("store.wal.append", *write)[1] / rows,
        "store.wal_fsyncs": ingest.counter("repro_wal_fsyncs_total") / rounds,
        "store.wal_fsync_us": ingest.histogram("repro_wal_fsync_us")[1] / rounds,
        "store.wal_bytes_per_row": ingest.counter("repro_wal_bytes_total") / rows,
        "store.checkpoint_us": ingest.histogram("repro_store_checkpoint_us")[1] / rounds,
        "store.maintenance_us": 1e6 * get("store.maintenance.step", "ingest.maintain")[1] / publishes,
        "store.compactions": ingest.counter("repro_store_compactions_total") / rounds,
        "store.compaction_entries_per_row": ingest.counter("repro_store_compaction_entries_total") / rows,
        "store.snapshot_us": 1e6 * get("store.snapshot", "ingest.publish")[1] / publishes,
        "serve.publish_self_us": 1e6 * get("serve.runtime.publish", "ingest.publish")[2] / publishes,
        "serve.pool_refresh_us": 1e6 * get("serve.pool.refresh", "ingest.publish")[1] / publishes,
        "kernels.wave_relocations_per_item": ingest.counter("repro_wave_relocations_total")
        / max(1.0, ingest.counter("repro_wave_items_total")),
        "store.wal_scan_us_per_row": 1e6 * get("store.scan_wal", "recover")[1] / replayed,
        "store.replay_us_per_row": 1e6 * sum(
            get(name, "recover")[1]
            for name in ("store.shard.insert_hashed_rows", "store.shard.delete_hashed_rows",
                         "store.shard.compact")
        ) / replayed,
        "store.recover_s": clock.fastest("recover"),
        "store.level_rolls": ingest.counter("repro_store_level_rolls_total") / rounds,
        "store.levels_at_end": counts["levels_at_end"][0],
        "store.probe_levels_per_key": get("kernels.pair_eq", "check")[3]
        / max(1.0, get("store.query_many", "check")[3]),
        **setup_layer_metrics(tracer),
        "serve.pool_us_per_batch": 1e6 * get("serve.pool.query_many", "ingest.read")[1]
        / max(1.0, get("serve.pool.query_many", "ingest.read")[0]),
    }
    out.update(kernel_metrics(tracer, rounds, *write, "ingest.publish", "ingest.maintain"))
    out["obs.coverage"] = tracer.covered(*TRACED_PHASES) / traced_clock.total(*TIMED)
    out["obs.tracing_overhead"] = traced_clock.fastest(*TIMED) / clock.fastest(*TIMED)
    return out


def _pool_read(runtime, inputs, fresh_rows, live, model, index, ledger, phase) -> None:
    """One pool read after a publish: fresh rows plus never-inserted keys."""
    size = inputs.size
    rows = inputs.rows
    pick = fresh_rows[-size.read_fresh :]
    held = live[pick] & model.stored(pick)
    negatives = inputs.read_negatives[index]
    keys = np.concatenate([rows.keys[pick], negatives])
    with phase("ingest.read"):
        answers = runtime.query_many(keys)
    ledger.ops("ingest.read", len(keys))
    ledger.no_false_negatives(answers[: len(pick)], held, "pool read (key-only)")
    status = index % len(PREDICATES)
    name = f"status{status}"
    with phase("ingest.read"):
        pred = runtime.query_many(keys, name)
    ledger.ops("ingest.read", len(keys))
    ledger.no_false_negatives(pred[: len(pick)], held & (rows.status[pick] == status), "pool read (predicate)")
