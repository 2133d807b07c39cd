"""Layer attribution for the traced run: wrappers around public functions.

:class:`LayerTracer` replaces chosen public methods and functions of the
``src/repro`` layers with timing wrappers for the duration of a traced run
and restores the originals afterwards, so untraced runs execute the program
untouched.  Each wrapper records, per (phase, function): calls, inclusive
time, *self* time (inclusive time minus the wrapped calls nested inside it,
on the same thread) and a unit count taken from its arguments.

Kernels are reached through the program's public backend registry: the
traced run registers a backend that wraps each numpy reference kernel and
selects it with ``set_backend``.

Wrappers live only in the benchmark process.  Work done in a pool worker
process is read from the program's own telemetry instead
(``runtime.metrics()``, ``runtime.trace()``).
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter
from typing import Any, Callable, Iterator

#: Layer of each traced name: the text before the first dot.
LAYERS = ("hashing", "ccf", "kernels", "store", "serve", "join", "obs")

#: Each tracer registers its own backend name: the dispatch layer caches a
#: backend instance per name, so a reused name would keep an older tracer's
#: wrappers.
_BACKEND_IDS = itertools.count(1)


def _n(position: int) -> Callable:
    """Unit counter: length of positional argument ``position``."""

    def count(args: tuple, kwargs: dict) -> int:
        try:
            return len(args[position])
        except (IndexError, TypeError):
            return 0

    return count


#: (module, owner attribute path or None for a module function, attribute,
#:  traced name, unit counter).  Owners are looked up at install time; a
#: target a later refactor renamed is skipped and listed as missing.
TARGETS: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    # hashing: the batch hash passes (key fingerprints, buckets, routing).
    ("repro.ccf.chain", "PairGeometry", "fingerprints_of_many", "hashing.fingerprints_of_many", _n(1)),
    ("repro.ccf.chain", "PairGeometry", "home_indices_of_many", "hashing.home_indices_of_many", _n(1)),
    ("repro.ccf.chain", "PairGeometry", "alt_indices_many", "hashing.alt_indices_many", _n(1)),
    ("repro.store.store", "FilterStore", "shard_ids_of_many", "hashing.shard_ids_of_many", _n(1)),
    # ccf: attribute fingerprints, predicate compilation, the JOB-light variants.
    ("repro.ccf.attributes", "AttributeFingerprinter", "vectors_many", "ccf.attr_vectors", None),
    ("repro.ccf.base", "ConditionalCuckooFilterBase", "compile", "ccf.compile", None),
    ("repro.store.store", "FilterStore", "compile", "ccf.compile", None),
    ("repro.ccf.chained", "ChainedCCF", "insert_many", "ccf.chained.insert_many", _n(1)),
    ("repro.ccf.chained", "ChainedCCF", "query_many", "ccf.chained.query_many", _n(1)),
    ("repro.ccf.bloom_ccf", "BloomCCF", "insert_many", "ccf.bloom.insert_many", _n(1)),
    ("repro.ccf.bloom_ccf", "BloomCCF", "query_many", "ccf.bloom.query_many", _n(1)),
    # store: the write path, WAL, recovery, snapshots, maintenance.
    ("repro.store.store", "FilterStore", "insert_many", "store.insert_many", _n(1)),
    ("repro.store.store", "FilterStore", "delete_many", "store.delete_many", _n(1)),
    ("repro.store.store", "FilterStore", "query_many", "store.query_many", _n(1)),
    ("repro.store.store", "FilterStore", "open", "store.open", None),
    ("repro.store.store", "FilterStore", "snapshot", "store.snapshot", None),
    ("repro.store.store", "FilterStore", "checkpoint", "store.checkpoint", None),
    ("repro.store.store", "FilterStore", "warm", "store.warm", None),
    ("repro.store.store", "FilterStore", "close", "store.close", None),
    ("repro.store.store", None, "scan_wal", "store.scan_wal", None),
    ("repro.store.shard", "FilterShard", "insert_hashed_rows", "store.shard.insert_hashed_rows", _n(1)),
    ("repro.store.shard", "FilterShard", "delete_hashed_rows", "store.shard.delete_hashed_rows", _n(1)),
    ("repro.store.shard", "FilterShard", "query_hashed_many", "store.shard.query_hashed_many", _n(1)),
    ("repro.store.shard", "FilterShard", "compact", "store.shard.compact", None),
    ("repro.store.wal", "ShardWal", "append", "store.wal.append", _n(2)),
    ("repro.store.wal", "ShardWal", "sync", "store.wal.sync", None),
    ("repro.store.maintenance", "MaintenanceScheduler", "step", "store.maintenance.step", None),
    # serve: runtime, pool.
    ("repro.serve.runtime", "ServeRuntime", "__init__", "serve.runtime.init", None),
    ("repro.serve.runtime", "ServeRuntime", "start", "serve.runtime.start", None),
    ("repro.serve.runtime", "ServeRuntime", "publish", "serve.runtime.publish", None),
    ("repro.serve.runtime", "ServeRuntime", "insert_many", "serve.runtime.insert_many", _n(1)),
    ("repro.serve.runtime", "ServeRuntime", "delete_many", "serve.runtime.delete_many", _n(1)),
    ("repro.serve.runtime", "ServeRuntime", "query_many", "serve.runtime.query_many", _n(1)),
    ("repro.serve.runtime", "ServeRuntime", "close", "serve.runtime.close", None),
    ("repro.serve.pool", "WorkerPool", "start", "serve.pool.start", None),
    ("repro.serve.pool", "WorkerPool", "query_many", "serve.pool.query_many", _n(1)),
    ("repro.serve.pool", "WorkerPool", "refresh", "serve.pool.refresh", None),
    ("repro.serve.pool", "WorkerPool", "close", "serve.pool.close", None),
    # join: the semijoin's base scan and predicate rewrite.
    ("repro.join.engine", None, "scan", "join.scan", None),
    ("repro.join.reduction", "FilterBundle", "query_predicate", "join.query_predicate", None),
    ("repro.join.reduction", None, "build_filter_bundle", "join.build_filter_bundle", None),
    # obs: the telemetry layer's batch entry points.
    ("repro.obs.registry", "MetricsRegistry", "snapshot", "obs.snapshot", None),
    ("repro.obs.spans", "SpanRecorder", "record_many", "obs.record_many", None),
)

#: Kernel field -> unit counter over its arguments (see kernels/reference.py).
KERNEL_UNITS: dict[str, Callable] = {
    "pair_eq": _n(1),
    "grouped_ranks": _n(0),
    "plan_bulk_placement": _n(3),
    "delete_plan": _n(1),
    "wave_kick": _n(3),
}


class LayerTracer:
    """Per-(phase, function) call, inclusive, self and unit totals."""

    def __init__(self) -> None:
        self.phase = "idle"
        self.stats: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        self._previous_backend: str | None = None

    # -- phases ---------------------------------------------------------

    @contextmanager
    def in_phase(self, phase: str) -> Iterator[None]:
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, units: Callable | None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                count = units(args, kwargs) if units is not None else 0
                with tracer._lock:
                    entry = tracer.stats[(tracer.phase, name)]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
                    entry[3] += count

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Install every wrapper and the traced kernel backend."""
        plans = []
        for module_name, owner_path, attr, name, units in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_path is None else getattr(module, owner_path, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(f"{module_name}:{owner_path or ''}.{attr}")
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
            plans.append((owner, attr, name, units, raw, getattr(owner, attr)))
        # Capture every original before replacing any, so a subclass wrapper
        # never captures its base class's wrapper.
        for owner, attr, name, units, raw, bound in plans:
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, units))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, units))
            elif isinstance(owner, type):
                new = self._wrap(raw if raw is not None else bound, name, units)
            else:
                new = self._wrap(bound, name, units)
            self._restore.append((owner, attr, raw if isinstance(owner, type) else bound))
            setattr(owner, attr, new)
        self._install_kernels()

    def _install_kernels(self) -> None:
        from repro.kernels import backend_spec, reference, register_backend, set_backend

        self._previous_backend = backend_spec()
        backend_name = f"numpy-traced-{next(_BACKEND_IDS)}"

        def factory():
            base = reference.make_backend()
            wrapped = {
                field: self._wrap(getattr(base, field), f"kernels.{field}", unit)
                for field, unit in KERNEL_UNITS.items()
            }
            return replace(base, name=backend_name, **wrapped)

        register_backend(backend_name, factory)
        set_backend(backend_name)

    def uninstall(self) -> None:
        from repro.kernels import set_backend

        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, type) and original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        set_backend(self._previous_backend, strict=False)

    # -- reading --------------------------------------------------------

    def get(self, name: str, *phases: str) -> tuple[float, float, float, float]:
        """(calls, inclusive s, self s, units) of ``name`` over ``phases``."""
        calls = incl = own = units = 0.0
        for (phase, fn), (c, i, s, u) in self.stats.items():
            if fn == name and (not phases or phase in phases):
                calls += c
                incl += i
                own += s
                units += u
        return calls, incl, own, units

    def self_time(self, prefix: str, *phases: str) -> float:
        """Summed self time of every traced name starting with ``prefix``."""
        return sum(
            s for (phase, fn), (_, _, s, _) in self.stats.items()
            if fn.startswith(prefix) and (not phases or phase in phases)
        )

    def covered(self, *phases: str) -> float:
        """Summed self time of all traced names over ``phases``."""
        return sum(
            s for (phase, _), (_, _, s, _) in self.stats.items() if phase in phases
        )

    def layer_self(self) -> dict[str, float]:
        """Self time per layer over every phase the run named."""
        out = {layer: 0.0 for layer in LAYERS}
        for (phase, fn), (_, _, s, _) in self.stats.items():
            if phase != "idle":
                out[fn.split(".", 1)[0]] += s
        return out


def kernel_metrics(tracer: LayerTracer, rounds: int, *phases: str) -> dict[str, float]:
    """``kernels.<k>.calls`` per round and ``kernels.<k>.us_per_unit`` over
    ``phases``."""
    out = {}
    for kernel in KERNEL_UNITS:
        calls, _, own, units = tracer.get(f"kernels.{kernel}", *phases)
        out[f"kernels.{kernel}.calls"] = calls / max(1, rounds)
        out[f"kernels.{kernel}.us_per_unit"] = 1e6 * own / units if units else 0.0
    return out
