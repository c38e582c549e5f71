"""Wall-clock heartbeat for long runs: the ``--progress`` reporter.

A :class:`ProgressReporter` prints a single-line heartbeat to stderr at
a wall-clock cadence — sim time, events processed, events/sec and an
optional free-form stage label — so a user watching a multi-minute
fig4 sweep can tell the run is alive without enabling tracing.

It attaches to the telemetry probe's ``on_sample`` hook (piggybacking
on the probe's sim-time cadence but rate-limited by *wall* time), or is
ticked manually from host-side loops (the bench harness).  Output goes
to stderr so stdout stays clean for the actual artifact.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO

__all__ = ["ProgressReporter"]


class ProgressReporter:
    """Rate-limited heartbeat writer.

    ``interval`` is the minimum wall-clock gap between lines; ticks
    arriving faster are dropped, so attaching to a hot probe cadence
    cannot flood the terminal.
    """

    def __init__(self, interval: float = 1.0, label: str = "run",
                 stream: Optional[TextIO] = None):
        if interval <= 0:
            raise ValueError(f"progress interval must be > 0, got {interval}")
        self.interval = interval
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.started = time.monotonic()
        self.lines_written = 0
        #: Monotonic stamp of the last emitted line; None until the first,
        #: which always goes out (``time.monotonic()`` may start near 0).
        self._last: Optional[float] = None

    # -- probe hook ---------------------------------------------------------
    def on_sample(self, probe: Any, now: float) -> None:
        """`TelemetryProbe.on_sample`-compatible: called every probe tick."""
        sim = getattr(probe, "sim", None)
        processed = getattr(sim, "events_processed", 0) if sim else 0
        self.tick(sim_time=now, detail=f"{processed} events")

    # -- manual ticks -------------------------------------------------------
    def tick(self, sim_time: Optional[float] = None,
             detail: str = "") -> bool:
        """Maybe emit one heartbeat line; True if a line was written."""
        wall = time.monotonic()
        if self._last is not None and wall - self._last < self.interval:
            return False
        self._last = wall
        elapsed = wall - self.started
        parts = [f"[{self.label} {elapsed:7.1f}s]"]
        if sim_time is not None:
            parts.append(f"sim={sim_time:.2f}s")
        if detail:
            parts.append(detail)
        print(" ".join(parts), file=self.stream, flush=True)
        self.lines_written += 1
        return True

    def done(self, detail: str = "") -> None:
        """Final line (never rate-limited): total wall time + detail."""
        elapsed = time.monotonic() - self.started
        parts = [f"[{self.label} done in {elapsed:.1f}s]"]
        if detail:
            parts.append(detail)
        print(" ".join(parts), file=self.stream, flush=True)
        self.lines_written += 1
