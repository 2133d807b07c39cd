"""Shared machinery: fixed-work round timing, correctness ledger, telemetry
deltas, memory and environment records, and the result line.

Every timed figure comes from *pieces*: a unit of work (one write batch, one
query of the JOB-light pass, one table's filter build, one set-up step) that
runs at least once in every round.  A figure sums each piece's fastest
sample.  Rounds run back to back, so each piece is sampled in several
stretches of the run, and a slow spell of the machine inflates only the
samples it overlaps.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from tracer import LayerTracer


def rounds_for(seconds: int, nominal_round_s: float, nominal_fixed_s: float,
               minimum: int = 3) -> int:
    """The fixed number of rounds a run of ``seconds`` does.

    The count depends only on the arguments, never on the clock, so two runs
    with the same arguments do identical work whatever the machine's speed.
    ``nominal_round_s`` is one round's wall time and ``nominal_fixed_s`` the
    run's one-off untimed work (inputs, store builds, oracle, FPR probes),
    both on the reference machine (2 vCPU, see README.md), so a whole run
    takes about ``seconds`` there.
    """
    return max(minimum, int(round((seconds - nominal_fixed_s) / nominal_round_s)))


def derived_seed(seed: int, salt: int) -> int:
    """A 31-bit seed derived from the run seed (for CCFParams/StoreConfig)."""
    mixed = np.random.SeedSequence([seed, salt]).generate_state(1, dtype=np.uint32)[0]
    return int(mixed) & 0x7FFFFFFF


class PieceClock:
    """Per-piece wall times across rounds; figures keep each piece's fastest."""

    def __init__(self) -> None:
        #: group -> piece -> [seconds of each sample, in order]
        self.samples: dict[str, dict[Any, list[float]]] = defaultdict(dict)
        #: group -> piece -> [round of each sample]
        self.rounds: dict[str, dict[Any, list[int]]] = defaultdict(dict)
        #: The round samples are taken in (set by :func:`run_rounds`).
        self.round = 0

    @contextmanager
    def time(self, group: str, piece: Any = 0) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.samples[group].setdefault(piece, []).append(perf_counter() - start)
            self.rounds[group].setdefault(piece, []).append(self.round)

    def fastest(self, *groups: str) -> float:
        """Sum over the groups' pieces of each piece's fastest sample."""
        return sum(min(times) for g in groups for times in self.samples[g].values())

    def piece_fastest(self, group: str) -> list[float]:
        """Each piece's fastest sample, in piece order."""
        return [min(times) for times in self.samples[group].values()]

    def total(self, *groups: str) -> float:
        """Every sample of the groups' pieces, summed (the wall they took)."""
        return sum(sum(times) for g in groups for times in self.samples[g].values())

    def per_round(self, *groups: str) -> list[float]:
        """Each round's figure alone: the sum over the groups' pieces of the
        piece's fastest sample within that round."""
        fastest: dict[int, float] = defaultdict(float)
        for g in groups:
            for piece, times in self.samples[g].items():
                best: dict[int, float] = {}
                for r, t in zip(self.rounds[g][piece], times):
                    best[r] = min(t, best.get(r, t))
                for r, t in best.items():
                    fastest[r] += t
        return [fastest[r] for r in sorted(fastest)]

    def count(self, group: str) -> int:
        """Samples per piece of ``group`` (the fewest over its pieces)."""
        return min((len(t) for t in self.samples[group].values()), default=0)


@dataclass
class Rounds:
    """What :func:`run_rounds` measured."""

    clock: PieceClock  # untraced rounds
    traced_clock: PieceClock  # traced rounds (empty unless tracing)
    tracer: Any  # the LayerTracer of the traced rounds, or None


def run_rounds(rounds: int, trace: bool, body: Callable[[int, PieceClock, Any], None]) -> Rounds:
    """Call ``body(round, clock, tracer)`` once per round.

    With ``trace`` the second half of the rounds runs with a
    :class:`tracer.LayerTracer` installed and times into its own clock, so
    the first half gives the untraced cost of the same pieces.
    """
    out = Rounds(PieceClock(), PieceClock(), None)
    try:
        for r in range(rounds):
            traced = trace and r >= rounds // 2
            if traced and out.tracer is None:
                out.tracer = LayerTracer()
                out.tracer.install()
            clock = out.traced_clock if traced else out.clock
            clock.round = r
            body(r, clock, out.tracer if traced else None)
    finally:
        if out.tracer is not None:
            out.tracer.uninstall()
    return out


def spread(values: list[float]) -> dict:
    """Quartiles and sample count of per-round values (the detail record)."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0] if values else float("nan")
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


@dataclass
class Ledger:
    """Operations attempted and failed, and every correctness violation."""

    attempted: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    failed: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    violations: list[str] = field(default_factory=list)

    def ops(self, phase: str, attempted: int, failed: int = 0) -> None:
        self.attempted[phase] += int(attempted)
        self.failed[phase] += int(failed)

    def check(self, ok: bool, message: str) -> bool:
        """Record a violation unless ``ok``; returns ``ok``."""
        if not ok:
            self.violations.append(message)
        return ok

    def no_false_negatives(self, answers: np.ndarray, expected: np.ndarray, path: str) -> None:
        """Every position the oracle says is live must answer True."""
        missed = int(np.count_nonzero(expected & ~np.asarray(answers, dtype=bool)))
        self.check(missed == 0, f"{path}: {missed} false negative(s) for live rows")

    @property
    def correct(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "attempted": dict(self.attempted),
            "failed": dict(self.failed),
            "violations": self.violations[:20],
            "num_violations": len(self.violations),
        }


# -- telemetry deltas -------------------------------------------------------


def counter(snapshot: Mapping, name: str, **labels: str) -> float:
    """Sum of a counter family's samples whose labels include ``labels``."""
    family = snapshot.get(name)
    if family is None:
        return 0.0
    return sum(
        s["value"]
        for s in family["samples"]
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )


def histogram(snapshot: Mapping, name: str, **labels: str) -> tuple[float, float]:
    """(count, sum) of a histogram family's samples matching ``labels``."""
    family = snapshot.get(name)
    if family is None:
        return 0.0, 0.0
    count = total = 0.0
    for s in family["samples"]:
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            count += s["count"]
            total += s["sum"]
    return count, total


class Delta:
    """Difference of two registry snapshots, read through the helpers above."""

    def __init__(self, before: Mapping, after: Mapping) -> None:
        self.before = before
        self.after = after

    def counter(self, name: str, **labels: str) -> float:
        return counter(self.after, name, **labels) - counter(self.before, name, **labels)

    def histogram(self, name: str, **labels: str) -> tuple[float, float]:
        c1, s1 = histogram(self.after, name, **labels)
        c0, s0 = histogram(self.before, name, **labels)
        return c1 - c0, s1 - s0


class DeltaSum:
    """Several deltas read as one (e.g. the same phase over many rounds)."""

    def __init__(self, deltas: list[Delta]) -> None:
        self.deltas = deltas

    def counter(self, name: str, **labels: str) -> float:
        return sum(d.counter(name, **labels) for d in self.deltas)

    def histogram(self, name: str, **labels: str) -> tuple[float, float]:
        pairs = [d.histogram(name, **labels) for d in self.deltas]
        return sum(c for c, _ in pairs), sum(s for _, s in pairs)


# -- memory and environment -------------------------------------------------


def resident_kb() -> int:
    """This process's current resident set, in KB.

    A forked child's peak resident set starts at its parent's resident set
    at the fork, so the peak of a child that exits at once, read with
    ``os.wait4``, is the parent's resident set now.
    """
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    _, _, usage = os.wait4(pid, 0)
    return usage.ru_maxrss


def peak_rss_mb(inherited_kb: int | None = None) -> float:
    """Peak resident set of this process, plus the pool worker's growth over
    what it inherited at its fork, in MB.

    ``inherited_kb`` is this process's resident set just before the last
    pool worker forked (:func:`resident_kb`); the waited-for children's
    peak (``RUSAGE_CHILDREN``) minus it is what that worker added.  Without
    it only this process counts.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    grown = 0
    if inherited_kb is not None:
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        grown = max(0, child - inherited_kb)
    return (own + grown) / 1024.0


def environment(root: Path) -> dict:
    """What the run records about where it ran."""
    from repro.kernels import active_backend

    sha = None
    if (root / ".git").exists():  # never look above the checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": active_backend().name,
        "git_sha": sha,
        "platform": platform.platform(),
    }


def emit(result: dict, detail: dict) -> None:
    """Print the detail record, then the result as the last stdout line."""
    sys.stdout.write(json.dumps({"detail": detail}, default=_jsonable) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")
