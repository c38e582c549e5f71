"""Measure one workload in this process.

The untraced closed loop runs for a time budget and gives the end-to-end
metrics.  The traced pass runs a few inputs again with every layer wrapped
(:mod:`bench.layers`), giving per-layer self time, call counts and the exact
per-layer counts the program keeps.

:func:`measure` runs either or both and returns a :class:`Measurement`;
its ``values`` hold every metric this module knows, by name, with quartiles
and sample counts where the metric is a statistic over runs.

Host times are rescaled to a reference host speed.  A shared host slows a
whole run by up to 1.7x for seconds at a time, which no median over one
run removes.  So a fixed pure-Python probe loop is timed before, between
and after the timed regions of every run, and the regions are multiplied
by ``REFERENCE_PROBE_S`` over the median probe time.  On a quiet reference
host the factor is about 1.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from .layers import LAYERS, ROOT_LAYER, LayerClock, install
from .workloads import COUNT_METRICS, Outcome

#: Wrapped runs per workload in the traced pass.
TRACED_RUNS = 3
#: Untraced iterations (no warm-up) and wrapped runs under ``quick``.
QUICK_RUNS = 2
QUICK_TRACED_RUNS = 1

#: Host seconds :func:`probe_s` takes on the reference host (a 2-vCPU
#: x86-64 VM running CPython 3.11, in its uncontended state).
REFERENCE_PROBE_S = 0.0032


def probe_s() -> float:
    """Host time of a fixed pure-Python loop, the better of two tries."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best


@dataclass
class Sample:
    """One checked run; times are already rescaled by ``factor``."""

    setup_s: float
    run_s: float
    outcome: Outcome
    factor: float
    #: Per-layer host self time and calls of this run (wrapped runs only).
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)


@dataclass
class Measurement:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    values: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Digest of the traced pass's reference outputs: equal digests mean
    #: the same simulated results, run for run.
    outputs_sha: Optional[str] = None

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures


def _stat(value: float, unit: str, samples: List[float]) -> Dict[str, Any]:
    """A metric computed over runs, with the sample count and quartiles."""
    q1, _, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                 if len(samples) > 1 else samples * 3)
    return {"value": value, "unit": unit, "n": len(samples), "q1": q1,
            "q3": q3}


def available_gb() -> float:
    """Memory the kernel could hand this process without swapping, in GB."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024 / 1e9
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e9


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class _Loop:
    """Runs and checks single iterations of one workload."""

    def __init__(self, workload, clock: Optional[LayerClock] = None):
        self.wl = workload
        self.clock = clock
        self.m = Measurement()

    @contextmanager
    def _timed(self, self_s: Dict[str, float], calls: Dict[str, int]):
        """A measured region; adds its per-layer totals to the two dicts."""
        clock = self.clock
        if clock is None:
            yield
            return
        self_0, calls_0 = clock.snapshot()
        clock.enter(ROOT_LAYER)
        try:
            yield
        finally:
            clock.leave()
            self_1, calls_1 = clock.snapshot()
            for layer in LAYERS:
                self_s[layer] = (self_s.get(layer, 0.0) + self_1[layer]
                                 - self_0[layer])
                calls[layer] = calls.get(layer, 0) + calls_1[layer] \
                    - calls_0[layer]

    def attempt(self, inp: Any, observed: bool) -> Optional[Sample]:
        """One checked run; ``None`` (and a recorded failure) if it failed."""
        wl = self.wl
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        self.m.attempted += 1
        gc.collect()
        try:
            probes = [probe_s()]
            with self._timed(self_s, calls):
                t0 = perf_counter()
                state = wl.build(inp, observed)
                t1 = perf_counter()
            captured = wl.capture(state, inp)
            probes.append(probe_s())
            with self._timed(self_s, calls):
                t2 = perf_counter()
                result = wl.run(state, inp)
                t3 = perf_counter()
            probes.append(probe_s())
            factor = REFERENCE_PROBE_S / statistics.median(probes)
            outcome = wl.observe(state, inp, result, captured)
        except Exception as exc:  # a failed run is a result, not a crash
            self.m.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        reason = wl.check(outcome)
        if reason is not None:
            self.m.failures.append(reason)
            return None
        return Sample((t1 - t0) * factor, (t3 - t2) * factor, outcome, factor,
                      {k: v * factor for k, v in self_s.items()}, calls)

    def memory_guard(self) -> bool:
        need = self.wl.min_available_gb
        if need and available_gb() < need:
            self.m.attempted += 1
            self.m.failures.append(
                f"only {available_gb():.1f} GB available, {self.wl.name} "
                f"needs {need:.1f} GB; not started")
            return False
        return True


def _untraced_loop(loop: _Loop, seed: int, seconds: float,
                   quick: bool) -> List[Tuple[Any, Optional[Sample]]]:
    """The closed loop; returns every observed-side run, warm-up included.

    Runs for ``seconds`` after one discarded warm-up iteration, or, with
    ``quick``, exactly :data:`QUICK_RUNS` iterations and no warm-up.  A
    paired workload runs its observed and unobserved variant on each input,
    alternating which goes first; its timing metrics come from the
    observed side.
    """
    workload = loop.wl
    inputs = workload.inputs(seed)
    runs: List[Tuple[Any, Optional[Sample]]] = []
    pairs: List[Tuple[float, float]] = []

    def iteration(i: int) -> None:
        inp = next(inputs)
        if not workload.paired:
            runs.append((inp, loop.attempt(inp, workload.observed)))
            return
        order = (True, False) if i % 2 == 0 else (False, True)
        side = {observed: loop.attempt(inp, observed) for observed in order}
        runs.append((inp, side[True]))
        if side[True] is not None and side[False] is not None:
            pairs.append((side[True].run_s, side[False].run_s))

    if quick:
        for i in range(QUICK_RUNS):
            iteration(i)
        samples = [s for _, s in runs if s is not None]
    else:
        iteration(0)
        pairs.clear()
        start = perf_counter()
        i = 1
        while perf_counter() - start < seconds:
            iteration(i)
            i += 1
        samples = [s for _, s in runs[1:] if s is not None]
    gc.collect()
    if not samples:
        return runs

    setups = [s.setup_s for s in samples]
    run_s = [s.run_s for s in samples]
    rates = [s.outcome.events / s.run_s for s in samples]
    p90 = (statistics.quantiles(run_s, n=10, method="inclusive")[8]
           if len(run_s) > 1 else run_s[0])
    slowdown = [1 / s.factor for s in samples]
    values = loop.m.values
    values.update({
        "setup_s": _stat(statistics.median(setups), "s", setups),
        "run_s_p50": _stat(statistics.median(run_s), "s", run_s),
        "run_s_p90": _stat(p90, "s", run_s),
        "sim_events_per_s": _stat(
            sum(s.outcome.events for s in samples) / sum(run_s), "events/s",
            rates),
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "host_slowdown": _stat(statistics.median(slowdown), "ratio",
                               slowdown),
    })
    if samples[0].outcome.paper_rel_err is not None:
        values["paper_rel_err"] = {
            "value": samples[0].outcome.paper_rel_err, "unit": "ratio"}
    if pairs:
        traced = [t for t, _ in pairs]
        plain = [u for _, u in pairs]
        values["obs_overhead_ratio"] = _stat(
            statistics.median(traced) / statistics.median(plain), "ratio",
            [t / u for t, u in pairs])
    return runs


def _traced_pass(loop: _Loop, seed: int, n_runs: int,
                 reference: Optional[List[Tuple[Any, Optional[Sample]]]]
                 ) -> None:
    """Per-layer self time, calls and exact counts.

    ``n_runs`` inputs run wrapped.  Their untraced reference runs come from
    ``reference`` (the untraced loop's first runs) or are made here first;
    every wrapped run must reproduce its reference's simulated outputs.
    """
    workload = loop.wl
    observed = workload.observed
    if reference is None:
        reference = [(inp, loop.attempt(inp, observed))
                     for inp in islice(workload.inputs(seed), n_runs)]
    reference = reference[:n_runs]
    loop.clock = LayerClock()
    uninstall = install(loop.clock)
    try:
        wrapped = [loop.attempt(inp, observed) for inp, _ in reference]
    finally:
        uninstall()
        loop.clock = None
    gc.collect()

    m = loop.m
    refs = [s for _, s in reference]
    for ref, wr in zip(refs, wrapped):
        if ref is not None and wr is not None \
                and ref.outcome.outputs != wr.outcome.outputs:
            m.failures.append("a wrapped run changed the simulated outputs")
    ref_ok = [s for s in refs if s is not None]
    wr_ok = [s for s in wrapped if s is not None]
    if not ref_ok or not wr_ok:
        return

    wall = statistics.fmean(sum(s.self_s.values()) for s in wr_ok)
    for layer in LAYERS:
        self_s = statistics.fmean(s.self_s[layer] for s in wr_ok)
        m.values[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        m.values[f"{layer}.share"] = {"value": self_s / wall, "unit": "ratio"}
        m.values[f"{layer}.calls"] = {
            "value": statistics.fmean(s.calls[layer] for s in wr_ok),
            "unit": "count"}
    for name, unit in COUNT_METRICS.items():
        m.values[name] = {
            "value": statistics.fmean(s.outcome.counts.get(name, 0)
                                      for s in ref_ok),
            "unit": unit}
    m.values["bench.wrap_overhead"] = {
        "value": (statistics.median(s.setup_s + s.run_s for s in wr_ok)
                  / statistics.median(s.setup_s + s.run_s for s in ref_ok)),
        "unit": "ratio"}
    m.outputs_sha = hashlib.sha256(json.dumps(
        [s.outcome.outputs for s in ref_ok],
        sort_keys=True).encode()).hexdigest()[:16]


def measure(workload, seed: int, seconds: float, *, end_to_end: bool = True,
            layers: bool = False, quick: bool = False) -> Measurement:
    """Measure ``workload`` in this process.

    ``end_to_end`` runs the untraced closed loop; ``layers`` runs the
    traced pass after it, reusing the loop's first runs as references.
    """
    loop = _Loop(workload)
    if loop.memory_guard():
        reference = (_untraced_loop(loop, seed, seconds, quick)
                     if end_to_end else None)
        if layers:
            _traced_pass(loop, seed, QUICK_TRACED_RUNS if quick
                         else TRACED_RUNS, reference)
    m = loop.m
    m.values["failed_frac"] = {"value": len(m.failures) / max(m.attempted, 1),
                               "unit": "ratio"}
    return m
