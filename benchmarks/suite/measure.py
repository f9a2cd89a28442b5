"""Clocks, spans and summary statistics owned by the benchmark.

Nothing here imports the repo: the step clock is a plain object passed to
``MDLoop(observers=...)`` and the span recorder wraps calls made from the
benchmark's own files.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager

import numpy as np

median = statistics.median


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, level, n)``; with fewer than eleven samples no such
    percentile exists and the maximum is returned at level 1.0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 1.0, n
    k = n - 11
    return ordered[k], (k + 1) / n, n


def sha256_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size [MiB] (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Spans:
    """In-memory span recorder; written out once, when the run ends."""

    def __init__(self, workload: str, reps: int | None = None) -> None:
        self.workload = workload
        #: calls per replayed layer; None picks five, or three when slow
        self.reps = reps
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        self.rows.append({"name": name, "start": start, "end": end,
                          "parent": parent, "workload": self.workload})
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time a block; yields the id the block's children point at."""
        idx = self.add(name, time.perf_counter(), math.nan, parent)
        try:
            yield idx
        finally:
            self.rows[idx]["end"] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, row in enumerate(self.rows):
                fh.write(json.dumps({"id": idx, **row}) + "\n")


def timed_calls(fn, spans: Spans, name: str, parent: int | None = None,
                reps: int | None = None) -> list[float]:
    """Call ``fn`` repeatedly inside spans; returns each duration [s].

    ``reps`` calls if given, else ``spans.reps``, else five - or three
    when one call takes over half a second (so a 1.5 s kernel does not
    cost a traced run eight seconds per layer).
    """
    reps = reps if reps is not None else spans.reps
    with spans.span(name, parent) as group:
        durations = []
        want = reps if reps is not None else 5
        while len(durations) < want:
            with spans.span(name + ".call", group) as idx:
                fn()
            row = spans.rows[idx]
            durations.append(row["end"] - row["start"])
            if reps is None and durations[0] > 0.5:
                want = 3
    return durations


def median_ms(fn, spans: Spans, name: str, parent=None, reps=None) -> float:
    return 1e3 * median(timed_calls(fn, spans, name, parent, reps))


#: host GEMM rate the normalised metrics are scaled to [GFLOP/s]
REF_GFLOPS = 50.0


class HostSpeed:
    """Samples the host's speed while a window runs.

    This VM's speed drifts by 10-35 % over minutes (README, "What this
    host does"), and the workloads track it: scaling a run's rate by the
    GEMM rate sampled *inside the same window* halves the run-to-run
    spread.  One sample is a ~5 ms burst of 200^3 GEMMs, taken at most
    every ``period`` seconds (under 2 % of the window); the time spent
    sampling is handed back so the window can leave it out.
    """

    EDGE = 200
    BURST = 20

    def __init__(self, period: float = 0.3) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=(self.EDGE, self.EDGE))
        self.out = np.empty_like(self.a)
        self.period = period
        self.rates: list[float] = []
        self.last = -math.inf

    def reset(self) -> None:
        """Forget earlier samples; the next ``sample_if_due`` samples."""
        self.rates.clear()
        self.last = -math.inf

    def sample(self) -> float:
        """Take one sample now; returns the seconds it took."""
        t0 = time.perf_counter()
        for _ in range(self.BURST):
            np.matmul(self.a, self.a, out=self.out)
        self.last = time.perf_counter()
        spent = self.last - t0
        self.rates.append(2e-9 * self.BURST * self.EDGE ** 3 / spent)
        return spent

    def sample_if_due(self) -> float:
        if time.perf_counter() - self.last < self.period:
            return 0.0
        return self.sample()

    @property
    def gflops(self) -> float:
        return median(self.rates)

    def to_reference(self, rate: float) -> float:
        """``rate`` (work per second) as it would read on a host running
        the calibration GEMM at ``REF_GFLOPS``."""
        return rate * REF_GFLOPS / self.gflops


class WindowDone(Exception):
    """Raised by :class:`StepClock` to end a timed window from inside
    ``MDLoop.run`` at a step boundary (see ``workloads.MDRow.measure``)."""


class StepClock:
    """Benchmark-owned ``observe()`` hook: stamps every step.

    The interval between successive calls is one MD step as a user of the
    loop experiences it (integrate, evaluate, thermostat, observers,
    trajectory submit, checkpoint).  It also counts non-finite energies,
    takes a state digest at one fixed step, samples the host's speed
    between steps (:class:`HostSpeed`; that time is kept out of the
    intervals), and ends the window when the deadline has passed or the
    step budget is used up.
    """

    every = 1

    def __init__(self, host: HostSpeed, spans: Spans | None = None,
                 trace_block: int = 1,
                 digest_step: int | None = None) -> None:
        self.host = host
        self.spans = spans
        self.trace_block = trace_block
        self.digest_step = digest_step
        self.digest: str | None = None
        self.stamps: list[float] = []
        #: seconds spent sampling host speed right after each stamp
        self.pauses: list[float] = []
        #: per interval: was it inside a traced block
        self.traced: list[bool] = []
        self.nonfinite = 0
        self.deadline = math.inf
        self.last_step = math.inf
        self.window_span: int | None = None

    def arm(self, seconds: float | None, max_steps: int | None,
            start_step: int) -> None:
        self.stamps.clear()
        self.pauses.clear()
        self.traced.clear()
        if seconds is not None:
            self.deadline = time.perf_counter() + seconds
        if max_steps is not None:
            self.last_step = start_step + max_steps

    def observe(self, step, system, result) -> None:
        now = time.perf_counter()
        if result is not None and not math.isfinite(result.energy):
            self.nonfinite += 1
        if step == self.digest_step and self.digest is None:
            self.digest = sha256_arrays(system.positions, system.velocities)
        if self.stamps:
            block = (len(self.stamps) - 1) // self.trace_block
            traced = self.spans is not None and block % 2 == 1
            if traced:
                self.spans.add("md.step", self.stamps[-1] + self.pauses[-1],
                               now, self.window_span)
            self.traced.append(traced)
        self.stamps.append(now)
        if len(self.stamps) > 1 and (now >= self.deadline
                                     or step >= self.last_step):
            self.pauses.append(0.0)
            raise WindowDone
        self.pauses.append(self.host.sample_if_due())

    @property
    def intervals(self) -> np.ndarray:
        """Step times, host-speed sampling left out."""
        return np.diff(np.asarray(self.stamps)) \
            - np.asarray(self.pauses[:-1])
