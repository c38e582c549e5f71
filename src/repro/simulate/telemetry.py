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

— as ``telemetry.sample`` records in the bound tracer (one per series
per tick).  The probe keeps no copy: the JSONL archive, the Chrome-trace
``C`` counter tracks and the run-report sparklines all read the samples
back from the trace (:func:`~repro.analysis.trace_export.telemetry_series`),
live or after a ``read_jsonl()`` round trip.  The probe is the only
time-series source: instruments hold a current value, not a history.
With no tracer attached the probe only counts ticks and calls its
``on_sample`` hook (the ``--progress`` heartbeat).

The probe must not perturb the schedule.  It therefore schedules
*nothing*: the kernel's run loop checks ``now >= probe.next_time`` after
each clock advance and calls :meth:`TelemetryProbe.on_advance` — a pure
observation, no events pushed, no callbacks attached, no sequence
numbers consumed.  The determinism suite pins the trace byte-identical with
the probe on, and with no probe attached the run loop pays one float
comparison per event.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

__all__ = ["TelemetryProbe", "DEFAULT_INTERVAL", "KERNEL_SERIES_UNITS"]

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

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 on_sample: Optional[Callable[["TelemetryProbe", float],
                                              None]] = None):
        if interval <= 0:
            raise ValueError(f"telemetry interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.on_sample = on_sample
        self.samples_taken = 0
        self._sim: Any = None
        self._next = _INF
        self._last_t = 0.0
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
    def on_advance(self, now: float) -> float:
        """Take one sample at ``now``; returns the next boundary time.

        Called by the kernel run loop after the clock advanced to ``now``
        with ``now >= next_time``.  Never schedules anything.  A sample is
        its ``telemetry.sample`` records; with no tracer attached the probe
        only counts the tick and calls ``on_sample``.
        """
        sim = self._sim
        trace = sim.trace
        if trace is not None:
            processed = sim.events_processed
            cancelled = sim.events_cancelled
            dt = now - self._last_t
            rate = ((processed - self._last_processed) / dt) if dt > 0 else 0.0
            handled = processed + cancelled
            kernel = (float(sim.queue_depth()), float(processed), rate,
                      cancelled / handled if handled else 0.0,
                      float(len(sim.live_processes())))
            for name, value in zip(KERNEL_SERIES_UNITS, kernel):
                trace.record(now, "telemetry.sample", metric=name,
                             value=value)
            for name, _unit, value in sim.metrics.sample_values():
                trace.record(now, "telemetry.sample", metric=name,
                             value=value)
            self._last_t = now
            self._last_processed = processed
        self.samples_taken += 1
        self._next = (now // self.interval + 1) * self.interval
        if self.on_sample is not None:
            self.on_sample(self, now)
        return self._next
