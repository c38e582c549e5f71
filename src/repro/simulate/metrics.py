"""Metrics registry: counters, gauges and histograms.

The observability counterpart to :mod:`repro.simulate.trace`: where the
tracer records *events*, the registry aggregates *instruments* that any
component can create by name::

    m = sim.metrics
    self._wqes = m.counter("qp.wqe.posted", unit="wqes")
    ...
    self._wqes.inc()

Instruments are get-or-create by name, so the QP on every node shares one
``qp.wqe.posted`` counter and the registry stays a flat, exportable
namespace.  Counters and gauges hold their current value only: a
:class:`~repro.simulate.telemetry.TelemetryProbe` samples them on a
sim-time grid, and that probe is the one time-series source (its samples
become the Chrome trace's ``C`` counter tracks and the run report's
sparklines).  Histograms aggregate value distributions.

The untraced fast path uses :data:`NULL_METRICS`: a shared registry whose
instruments are inert singletons, so instrumented hot paths (the fluid
engine's recompute loop, per-WQE accounting) cost one no-op method call
when metrics are off.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram",
           "NullMetricsRegistry", "NULL_METRICS"]

#: Default value-bucket boundaries: decade steps spanning microseconds to
#: gigabytes — wide enough for latencies and sizes alike.
_DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** e for e in range(-6, 10)
)


class _Instrument:
    """Shared shape: a named, typed instrument owned by one registry."""

    __slots__ = ("registry", "name", "unit", "help")

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 unit: str, help: str):
        self.registry = registry
        self.name = name
        self.unit = unit
        self.help = help

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Counter(_Instrument):
    """Monotonically increasing count (WQEs posted, bytes moved)."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 unit: str = "", help: str = ""):
        super().__init__(registry, name, unit, help)
        self.value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "unit": self.unit, "value": self.value}


class Gauge(_Instrument):
    """Point-in-time level (pool occupancy, queue depth, effective BW)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 unit: str = "", help: str = ""):
        super().__init__(registry, name, unit, help)
        self.value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "unit": self.unit, "value": self.value}


class Histogram(_Instrument):
    """Value distribution of the observations.

    ``buckets`` are the value-range upper bounds (classic histogram).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 unit: str = "", help: str = "",
                 buckets: Optional[Tuple[float, ...]] = None):
        super().__init__(registry, name, unit, help)
        self.bounds: Tuple[float, ...] = tuple(buckets) if buckets \
            else _DEFAULT_BUCKETS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram {name!r}: buckets must be sorted")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self.bucket_counts[bisect_right(self.bounds, v)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "kind": self.kind, "unit": self.unit, "count": self.count,
            "sum": self.total, "mean": self.mean,
        }
        if self.count:
            d["min"] = self.min
            d["max"] = self.max
        d["buckets"] = [
            {"le": bound, "count": n}
            for bound, n in zip(list(self.bounds) + ["inf"],
                                self.bucket_counts)
            if n
        ]
        return d


class MetricsRegistry:
    """A flat namespace of named instruments.

    Attach to a simulation with ``Simulator(metrics=registry)`` (or
    ``Scenario.build(metrics=registry)``); components then create their
    instruments through ``sim.metrics``.
    """

    enabled = True

    def __init__(self):
        self._instruments: Dict[str, _Instrument] = {}

    # -- instrument factories ------------------------------------------------
    def _get(self, cls, name: str, **kwargs) -> _Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(self, name, **kwargs)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"requested {cls.kind}")
        return inst

    def counter(self, name: str, unit: str = "", help: str = "") -> Counter:
        return self._get(Counter, name, unit=unit, help=help)

    def gauge(self, name: str, unit: str = "", help: str = "") -> Gauge:
        return self._get(Gauge, name, unit=unit, help=help)

    def histogram(self, name: str, unit: str = "", help: str = "",
                  buckets: Optional[Tuple[float, ...]] = None) -> Histogram:
        return self._get(Histogram, name, unit=unit, help=help,
                         buckets=buckets)

    # -- introspection / export ---------------------------------------------
    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(self._instruments.values())

    def sample_values(self) -> List[Tuple[str, str, float]]:
        """Current ``(name, unit, value)`` of every counter and gauge.

        The telemetry probe's view of the registry: a point-in-time
        snapshot in registration order (deterministic for a seeded run),
        cheap enough to take on every sample tick.  Histograms are
        excluded — their summary is a distribution, not a level.
        """
        out: List[Tuple[str, str, float]] = []
        for inst in self._instruments.values():
            if inst.kind in ("counter", "gauge"):
                out.append((inst.name, inst.unit, inst.value))
        return out

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """``{name: instrument summary}`` — the ``metrics.json`` payload."""
        return {name: self._instruments[name].as_dict()
                for name in sorted(self._instruments)}


class _NullInstrument:
    """Inert instrument: every mutator is a no-op.

    Mirrors the union of the :class:`Counter`/:class:`Gauge`/
    :class:`Histogram` surfaces (the parity test introspects the real
    classes), so code holding an instrument never needs to know whether
    metrics are on.
    """

    __slots__ = ()
    kind = "null"
    name = "null"
    unit = ""
    help = ""
    registry = None
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0
    bounds: Tuple = ()
    bucket_counts: Tuple = ()

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Registry whose instruments discard everything (the fast default)."""

    enabled = False

    def counter(self, name: str, unit: str = "", help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, unit: str = "", help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, unit: str = "", help: str = "",
                  buckets: Optional[Tuple[float, ...]] = None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def sample_values(self) -> List[Tuple[str, str, float]]:
        return []

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {}


#: Shared inert registry: ``sim.metrics`` resolves to this by default.
NULL_METRICS = NullMetricsRegistry()
