"""Time-series telemetry: cadenced sampling of kernel and metric state.

The tracer records *events* and the metrics registry aggregates
*instruments*, but both are driven by the component that happens to be
executing — there is no signal at all while the simulator grinds through
a long quiet stretch, and no uniform timeline behind the Figure 4/6/7
point numbers.  A :class:`TelemetryProbe` closes that gap: attached to a
:class:`~repro.simulate.core.Simulator`, it samples on a fixed *sim-time*
cadence —

* kernel state: event-queue depth, cumulative events processed, events
  per simulated second over the last window, cancelled-event ratio, and
  the live-process count;
* every counter and gauge in the bound
  :class:`~repro.simulate.metrics.MetricsRegistry` (buffer-pool
  occupancy, live QPs, pinned bytes, byte counters, ...) at its
  current value

— into named :class:`TimeSeries`.  Each sample also lands in the trace
as a ``telemetry.sample`` record (one per series per tick), so the
JSONL archive, the Chrome-trace ``C`` counter tracks, and the run-report
sparklines are all views of the same data and survive a
``read_jsonl()`` round trip.  The probe is the only time-series source:
instruments hold a current value, not a history.

The probe must not perturb the schedule.  It therefore schedules
*nothing*: the kernel's run loop checks ``now >= probe.next_time`` after
each clock advance and calls :meth:`TelemetryProbe.on_advance` — a pure
observation, no events pushed, no callbacks attached, no sequence
numbers consumed.  The determinism suite pins the trace byte-identical with
the probe on, and with no probe attached the run loop pays one float
comparison per event.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["TimeSeries", "TelemetryProbe", "DEFAULT_INTERVAL",
           "KERNEL_SERIES_UNITS"]

#: Unit of each kernel series, in the order :meth:`TelemetryProbe.on_advance`
#: samples them.  ``telemetry.sample`` trace records carry no unit, so a
#: report rendered from an archived trace reads the kernel units here (and
#: the registry instruments' units from the run's ``metrics.json``).
KERNEL_SERIES_UNITS: Dict[str, str] = {
    "kernel.queue_depth": "events",
    "kernel.events_processed": "events",
    "kernel.events_per_sec": "events/s",
    "kernel.cancelled_ratio": "ratio",
    "kernel.live_processes": "processes",
}

#: Default sampling cadence in simulated seconds: fine enough to resolve
#: the sub-second phases of a paper-scale migration, coarse enough that a
#: full LU.C cycle stays in the hundreds of samples.
DEFAULT_INTERVAL = 0.25

_INF = float("inf")


class TimeSeries:
    """One named, unit-tagged sequence of ``(sim_time, value)`` samples."""

    __slots__ = ("name", "unit", "points")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.points: List[Tuple[float, float]] = []

    def append(self, t: float, v: float) -> None:
        self.points.append((t, v))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def stats(self) -> Dict[str, float]:
        """min/mean/max/last over the sampled values (empty-safe)."""
        vals = self.values
        if not vals:
            return {"n": 0, "min": 0.0, "mean": 0.0, "max": 0.0, "last": 0.0}
        return {"n": len(vals), "min": min(vals),
                "mean": sum(vals) / len(vals), "max": max(vals),
                "last": vals[-1]}

    def as_dict(self) -> Dict[str, Any]:
        return {"unit": self.unit,
                "points": [[t, v] for t, v in self.points], **self.stats()}

    def __repr__(self) -> str:
        return f"<TimeSeries {self.name} n={len(self.points)}>"


class TelemetryProbe:
    """Cadenced sampler of kernel counters and metric instruments.

    Attach with :meth:`Simulator.attach_probe` *before* running; the
    kernel calls :meth:`on_advance` whenever the clock crosses the next
    sample boundary.  Samples are stamped with the current sim time (the
    time of the event that crossed the boundary), so timestamps are
    strictly monotonic: after each sample the next boundary is the first
    multiple of ``interval`` strictly after ``now``.

    Parameters
    ----------
    interval:
        Sim-time seconds between samples (> 0).
    on_sample:
        Optional host-side hook called as ``on_sample(probe, now)`` after
        each sample — the ``--progress`` heartbeat hangs off this.  The
        hook must not touch simulation state.
    """

    enabled = True

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 on_sample: Optional[Callable[["TelemetryProbe", float],
                                              None]] = None):
        if interval <= 0:
            raise ValueError(f"telemetry interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.on_sample = on_sample
        self.series: Dict[str, TimeSeries] = {}
        self.samples_taken = 0
        self._sim: Any = None
        self._next = _INF
        self._last_t: Optional[float] = None
        self._last_processed = 0

    # -- binding ------------------------------------------------------------
    def bind(self, sim: Any) -> "TelemetryProbe":
        """Bind to a simulator; the first sample fires at the first
        ``interval`` boundary strictly after the current sim time."""
        self._sim = sim
        self._next = (sim.now // self.interval + 1) * self.interval
        self._last_t = sim.now
        self._last_processed = sim.events_processed
        return self

    @property
    def sim(self) -> Any:
        """The bound simulator, or ``None`` before :meth:`bind`."""
        return self._sim

    @property
    def next_time(self) -> float:
        """Sim time of the next sample boundary (``inf`` while unbound)."""
        return self._next

    # -- sampling -----------------------------------------------------------
    def _series(self, name: str, unit: str = "") -> TimeSeries:
        ts = self.series.get(name)
        if ts is None:
            ts = self.series[name] = TimeSeries(name, unit)
        return ts

    def on_advance(self, now: float) -> float:
        """Take one sample at ``now``; returns the next boundary time.

        Called by the kernel run loop after the clock advanced to ``now``
        with ``now >= next_time``.  Never schedules anything.
        """
        sim = self._sim
        processed = sim.events_processed
        cancelled = sim.events_cancelled
        dt = now - self._last_t if self._last_t is not None else 0.0
        rate = ((processed - self._last_processed) / dt) if dt > 0 else 0.0
        handled = processed + cancelled
        kernel = (float(sim.queue_depth()), float(processed), rate,
                  cancelled / handled if handled else 0.0,
                  float(len(sim.live_processes())))
        take: List[Tuple[str, str, float]] = [
            (name, unit, value)
            for (name, unit), value in zip(KERNEL_SERIES_UNITS.items(),
                                           kernel)]
        metrics = sim.metrics
        if metrics is not None and getattr(metrics, "enabled", False):
            for name, unit, value in metrics.sample_values():
                take.append((name, unit, value))
        trace = sim.trace
        for name, unit, value in take:
            self._series(name, unit).append(now, value)
            if trace is not None:
                trace.record(now, "telemetry.sample", metric=name,
                             value=value)
        self.samples_taken += 1
        self._last_t = now
        self._last_processed = processed
        self._next = (now // self.interval + 1) * self.interval
        if self.on_sample is not None:
            self.on_sample(self, now)
        return self._next

    # -- export -------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self.series)

    def get(self, name: str) -> Optional[TimeSeries]:
        return self.series.get(name)

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self):
        return iter(self.series.values())

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """``{series name: {unit, points, stats}}`` (JSON-friendly)."""
        return {name: self.series[name].as_dict()
                for name in sorted(self.series)}

