"""Inputs and the oracle shared by the two store workloads (ingest, serve).

Rows are ``(key, status, region)``.  Each key carries one to three rows with
distinct ``(status, region)`` pairs, so bucket pairs hold duplicate keys.
Keys come from a seeded bijection on 40-bit integers: stored keys use
indices below 2**39 and never-inserted probe keys indices above it, so the
two sets are disjoint by construction.

The oracle (:class:`EntryModel`) follows the store's documented semantics
(DESIGN.md §8; ``FilterShard.insert_hashed_rows``): a row is stored as one
entry identified by (shard, bucket pair, key fingerprint, attribute
vector), and an insert of a row whose identity is already stored adds
nothing.  A delete removes that one entry, so a second live row that
happens to share the identity (two keys with colliding fingerprints and
equal attributes) stops being answered.  The model computes identities with
the store's own public hash functions and predicts every insert, delete and
query answer the store must give; it counts such shared-entry losses
separately instead of calling them false negatives.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import PieceClock, derived_seed, resident_kb
from repro.ccf import AttributeSchema, CCFParams
from repro.ccf.predicates import Eq
from repro.serve.runtime import ServeRuntime
from repro.store import FilterStore, StoreConfig

SCHEMA = AttributeSchema(["status", "region"])
NUM_STATUS = 5
NUM_REGION = 40
NUM_COMBOS = NUM_STATUS * NUM_REGION
NUM_SHARDS = 4

#: One registered predicate per status value (``Eq("status", s)``).
PREDICATES = {f"status{s}": Eq("status", s) for s in range(NUM_STATUS)}

KEY_BITS = 40
_KEY_MASK = (1 << KEY_BITS) - 1
#: Probe (never-inserted) keys use bijection indices from here upwards.
NEGATIVE_BASE = 1 << (KEY_BITS - 1)


def params_for(seed: int) -> CCFParams:
    return CCFParams(key_bits=16, attr_bits=8, bucket_size=6, seed=derived_seed(seed, 11))


def config_for(seed: int, level_buckets: int) -> StoreConfig:
    return StoreConfig(
        num_shards=NUM_SHARDS,
        level_buckets=level_buckets,
        target_load=0.85,
        seed=derived_seed(seed, 12),
    )


class KeySpace:
    """Seeded bijection from indices to distinct 40-bit keys."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 7])
        self.mul = int(rng.integers(1 << 20, 1 << 39)) | 1
        self.add = int(rng.integers(0, 1 << 39))

    def keys(self, start: int, count: int) -> np.ndarray:
        index = np.arange(start, start + count, dtype=np.uint64)
        return ((index * np.uint64(self.mul) + np.uint64(self.add)) & np.uint64(_KEY_MASK)).astype(
            np.int64
        )

    def negatives(self, start: int, count: int) -> np.ndarray:
        return self.keys(NEGATIVE_BASE + start, count)


@dataclass
class Rows:
    keys: np.ndarray
    status: np.ndarray
    region: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def take(self, index: np.ndarray) -> "Rows":
        return Rows(self.keys[index], self.status[index], self.region[index])

    @property
    def columns(self) -> list[np.ndarray]:
        return [self.status, self.region]

    @staticmethod
    def concat(parts: list["Rows"]) -> "Rows":
        return Rows(
            np.concatenate([p.keys for p in parts]),
            np.concatenate([p.status for p in parts]),
            np.concatenate([p.region for p in parts]),
        )


def rows_for_keys(rng: np.random.Generator, keys: np.ndarray) -> Rows:
    """One to three rows per key, with distinct (status, region) pairs."""
    n = len(keys)
    per_key = rng.integers(1, 4, size=n)
    first = rng.integers(0, NUM_COMBOS, size=n)
    step1 = rng.integers(1, NUM_COMBOS // 2, size=n)
    step2 = rng.integers(1, NUM_COMBOS // 2, size=n)
    combos = np.stack(
        [first, (first + step1) % NUM_COMBOS, (first + step1 + step2) % NUM_COMBOS], axis=1
    )
    take = np.arange(3)[None, :] < per_key[:, None]
    row_keys = np.repeat(keys, per_key)
    row_combos = combos[take]
    return Rows(row_keys, row_combos // NUM_REGION, row_combos % NUM_REGION)


class EntryModel:
    """Exact model of which entries a FilterStore holds (see module doc).

    Built once per run over every row the workload will ever write: rows
    map to dense entry ids, and the model is a presence bit per entry id.
    """

    def __init__(self, store: FilterStore, rows: Rows) -> None:
        num_buckets = store.config.level_buckets
        pair_shift = store.params.key_bits + store.params.attr_bits * store.schema.num_attributes
        shard_bits = max(1, (store.config.num_shards - 1).bit_length())
        if shard_bits + (num_buckets - 1).bit_length() + pair_shift > 62:
            raise ValueError("entry identity does not fit in 62 bits")
        shards = store.shard_ids_of_many(rows.keys)
        fps = store.geometry.fingerprints_of_many(rows.keys).astype(np.int64)
        homes = store.geometry.home_indices_of_many(rows.keys).astype(np.int64)
        alts = store.geometry.alt_indices_many(homes, fps).astype(np.int64)
        avecs = np.asarray(store.fingerprinter.vectors_many(rows.columns), dtype=np.int64)
        ident = (shards * num_buckets + np.minimum(homes, alts)) << pair_shift
        ident |= fps << (store.params.attr_bits * avecs.shape[1])
        for i in range(avecs.shape[1]):
            ident |= avecs[:, i] << (store.params.attr_bits * (avecs.shape[1] - 1 - i))
        unique, self.entry = np.unique(ident, return_inverse=True)
        self.present = np.zeros(len(unique), dtype=bool)

    def reset(self) -> None:
        self.present[:] = False

    def insert(self, rows: np.ndarray) -> None:
        self.present[self.entry[rows]] = True

    def delete(self, rows: np.ndarray) -> np.ndarray:
        """Apply deletes in order; returns what each delete must return
        (only the first delete of a stored entry removes it)."""
        entry = self.entry[rows]
        expected = self.present[entry].copy()
        _, first = np.unique(entry, return_index=True)
        repeat = np.ones(len(entry), dtype=bool)
        repeat[first] = False
        expected[repeat] = False
        self.present[entry] = False
        return expected

    def stored(self, rows: np.ndarray) -> np.ndarray:
        return self.present[self.entry[rows]]


@dataclass(frozen=True)
class Probes:
    """``count`` never-inserted keys from bijection index ``start`` on,
    made a chunk at a time so the run never holds them all."""

    space: KeySpace
    start: int
    count: int

    def chunks(self, chunk: int = 1 << 18):
        for offset in range(0, self.count, chunk):
            yield self.space.negatives(self.start + offset, min(chunk, self.count - offset))


def count_positives(query, probes: Probes, predicate=None) -> int:
    """Positives among ``probes`` through ``query(keys, predicate)``."""
    return sum(int(np.count_nonzero(query(keys, predicate))) for keys in probes.chunks())


def set_up(root: Path, epochs: Path, first_keys: np.ndarray, clock: PieceClock, phase,
           memory: dict, repeats: int = 1) -> tuple[FilterStore, ServeRuntime, np.ndarray]:
    """The set-up ``setup_s`` times: ``FilterStore.open`` of the checkpoint
    at ``root``, a one-process-worker ``ServeRuntime`` started on it, and
    its first answered pool batch.

    The first ``repeats - 1`` set-ups are torn down again, so each step is
    sampled ``repeats`` times per round; the last one is returned running.
    ``memory["inherited_kb"]`` receives this process's resident set just
    before the pool worker forks (see :func:`harness.peak_rss_mb`).
    """
    for k in range(repeats):
        shutil.rmtree(epochs, ignore_errors=True)
        with phase("setup.open"), clock.time("setup", "open"):
            store = FilterStore.open(root)
        runtime = None
        memory["inherited_kb"] = resident_kb()
        try:
            with phase("setup.start"), clock.time("setup", "start"):
                runtime = ServeRuntime(store, epochs, num_workers=1, predicates=PREDICATES)
                runtime.start()
            with phase("setup.first"), clock.time("setup", "first"):
                first = runtime.query_many(first_keys)
        except BaseException:
            if runtime is not None:
                runtime.close()
            raise
        if k == repeats - 1:
            return store, runtime, first
        runtime.close()
        store.close()
    raise ValueError("repeats must be at least 1")


def setup_layer_metrics(tracer) -> dict[str, float]:
    """Per-set-up layer times (the set-up pieces of :func:`set_up`)."""
    setups = max(1.0, tracer.get("serve.runtime.start", "setup.start")[0])
    return {
        "store.open_us": 1e6 * tracer.get("store.open", "setup.open")[1] / setups,
        "serve.start_self_us": 1e6 * tracer.self_time("serve.", "setup.start") / setups,
        "store.warm_us": 1e6 * tracer.get("store.warm", "setup.start")[1] / setups,
    }
