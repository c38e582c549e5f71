"""IPMI-style health monitoring and failure prediction.

The paper's migrations are triggered either by direct user request or by "an
abnormal event of system health status such as reported by IPMI [5] or other
failure prediction models [6], [7]".  This module supplies that path:

* :class:`Sensor` — a sampled hardware quantity (temperature, fan speed,
  correctable-ECC rate) with Gaussian noise around a nominal value;
* :class:`FailureInjector` — scripts a node to start *deteriorating* at a
  chosen time: the sensor drifts toward its failure threshold and the node
  hard-fails when it crosses it;
* :class:`HealthMonitor` — periodically samples sensors, fits a linear
  trend over a sliding window, and predicts threshold crossings within a
  configurable horizon; a confirmed prediction invokes the trigger callback
  (wired to the migration framework by the core layer).

The predictor is deliberately imperfect: noise can produce false negatives
when the horizon is tight, which the proactive-coverage ablation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

import numpy as np

from ..simulate.core import Simulator
from ..simulate.rng import RandomStreams
from .node import Node, NodeState

__all__ = ["SensorSpec", "Sensor", "FailureInjector", "HealthMonitor",
           "HealthEvent"]


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one monitored quantity."""

    name: str = "cpu_temp"
    nominal: float = 52.0          # steady-state reading
    noise_sigma: float = 0.8       # sampling noise
    warn_threshold: float = 75.0   # prediction target
    fail_threshold: float = 90.0   # node dies on crossing


@dataclass(frozen=True)
class HealthEvent:
    """Emitted by the monitor when deterioration is predicted."""

    node: str
    sensor: str
    time: float
    predicted_fail_time: float
    reading: float


class Sensor:
    """One sampled quantity on one node; drift starts when injected."""

    def __init__(self, spec: SensorSpec, node: str, rng: np.random.Generator):
        self.spec = spec
        self.node = node
        self._rng = rng
        self._drift_rate = 0.0     # units per second once deteriorating
        self._drift_start: Optional[float] = None

    def begin_drift(self, now: float, rate: float) -> None:
        self._drift_start = now
        self._drift_rate = rate

    def read(self, now: float) -> float:
        value = self.spec.nominal
        if self._drift_start is not None and now >= self._drift_start:
            value += self._drift_rate * (now - self._drift_start)
        return value + self._rng.normal(0.0, self.spec.noise_sigma)

    def true_value(self, now: float) -> float:
        value = self.spec.nominal
        if self._drift_start is not None and now >= self._drift_start:
            value += self._drift_rate * (now - self._drift_start)
        return value


class FailureInjector:
    """Scripts deterioration onto cluster nodes.

    ``inject(node, at, ramp)`` makes the node's sensor start drifting at
    time ``at`` such that it crosses the fail threshold ``ramp`` seconds
    later; the injector marks the node FAILED at that point (unless the job
    migrated away and retired it first).
    """

    def __init__(self, sim: Simulator, rng: RandomStreams,
                 spec: Optional[SensorSpec] = None):
        self.sim = sim
        self.spec = spec or SensorSpec()
        self.rng = rng
        self.sensors: Dict[str, Sensor] = {}
        self.failed_at: Dict[str, float] = {}
        self.on_failure: List[Callable[[Node], None]] = []

    def sensor_for(self, node: Node) -> Sensor:
        s = self.sensors.get(node.name)
        if s is None:
            s = Sensor(self.spec, node.name,
                       self.rng.stream(f"sensor.{node.name}"))
            self.sensors[node.name] = s
        return s

    def inject(self, node: Node, at: float, ramp: float) -> None:
        """Schedule deterioration: drift begins at ``at``, hard failure at
        ``at + ramp``."""
        if ramp <= 0:
            raise ValueError("ramp must be positive")
        sensor = self.sensor_for(node)
        rate = (self.spec.fail_threshold - self.spec.nominal) / ramp
        self.sim.spawn(self._run(node, sensor, at, rate, ramp),
                       name=f"inject.{node.name}")

    def _run(self, node: Node, sensor: Sensor, at: float, rate: float,
             ramp: float) -> Generator:
        if at > self.sim.now:
            yield self.sim.timeout(at - self.sim.now)
        sensor.begin_drift(self.sim.now, rate)
        node.mark(NodeState.DETERIORATING)
        yield self.sim.timeout(ramp)
        if node.state is not NodeState.FAILED:
            node.mark(NodeState.FAILED)
            self.failed_at[node.name] = self.sim.now
            for cb in self.on_failure:
                cb(node)


class HealthMonitor:
    """Polls sensors, extrapolates trends, fires the migration trigger.

    Prediction rule: least-squares line over the last ``window`` samples; if
    the extrapolated reading crosses ``warn_threshold`` within ``horizon``
    seconds *and* the slope is significantly positive, emit one
    :class:`HealthEvent` for the node (debounced).
    """

    def __init__(self, sim: Simulator, injector: FailureInjector,
                 nodes: List[Node], interval: float = 5.0,
                 window: int = 6, horizon: float = 120.0,
                 on_alarm: Optional[Callable[[HealthEvent], None]] = None,
                 until: Optional[float] = None):
        if window < 3:
            raise ValueError("window must be >= 3 samples")
        if until is not None and until <= sim.now:
            raise ValueError(f"until={until} is not in the future")
        self.sim = sim
        self.injector = injector
        self.nodes = nodes
        self.interval = interval
        self.window = window
        self.horizon = horizon
        self.on_alarm = on_alarm
        #: Optional polling horizon.  An unbounded monitor keeps one
        #: timeout in the calendar forever, which deadlock-proofs nothing
        #: and prevents drain-based runs (``sim.run()`` to completion —
        #: how the cluster-scale scenarios finish) from ever
        #: terminating; give those a horizon and the monitor retires.
        self.until = until
        self.events: List[HealthEvent] = []
        self._history: Dict[str, List[tuple]] = {n.name: [] for n in nodes}
        self._alarmed: set = set()
        self.proc = sim.spawn(self._run(), name="health-monitor")

    def _run(self) -> Generator:
        while self.until is None or self.sim.now + self.interval <= self.until:
            yield self.sim.timeout(self.interval)
            now = self.sim.now
            for node in self.nodes:
                if node.name in self._alarmed or node.state is NodeState.FAILED:
                    continue
                sensor = self.injector.sensor_for(node)
                # The node list may grow while we run (a promoted spare
                # joins the compute set), so lazily open its history.
                hist = self._history.setdefault(node.name, [])
                hist.append((now, sensor.read(now)))
                if len(hist) > self.window:
                    del hist[0]
                event = self._evaluate(node.name, hist)
                if event is not None:
                    self._alarmed.add(node.name)
                    self.events.append(event)
                    if self.on_alarm is not None:
                        self.on_alarm(event)

    def _evaluate(self, node: str, hist: List[tuple]) -> Optional[HealthEvent]:
        if len(hist) < self.window:
            return None
        times = np.array([t for t, _ in hist])
        vals = np.array([v for _, v in hist])
        slope, intercept = np.polyfit(times, vals, 1)
        spec = self.injector.spec
        # Two-factor rule, as real BMC policies use: the trend must clearly
        # exceed what noise alone produces AND the reading must already be
        # elevated above nominal.  Either test alone false-alarms on noise.
        min_slope = 4 * spec.noise_sigma / (times[-1] - times[0] + 1e-12)
        if slope <= min_slope:
            return None
        if vals[-1] < spec.nominal + 3 * spec.noise_sigma:
            return None
        t_cross = (spec.warn_threshold - intercept) / slope
        now = times[-1]
        if now <= t_cross <= now + self.horizon:
            t_fail = (spec.fail_threshold - intercept) / slope
            return HealthEvent(node=node, sensor=spec.name, time=now,
                               predicted_fail_time=t_fail, reading=vals[-1])
        return None
