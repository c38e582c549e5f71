"""From-scratch discrete-event simulation kernel used by every substrate.

Public surface::

    from repro.simulate import Simulator, Interrupt, Resource, Store

See :mod:`repro.simulate.core` for the execution model.
"""

from .conditions import AllOf, AnyOf, Condition, ConditionValue
from .core import (
    Event,
    Interrupt,
    Process,
    Simulator,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from .resources import Container, PriorityStore, Resource, Store
from .rng import RandomStreams
from .telemetry import (
    NULL_PROBE,
    NullTelemetryProbe,
    TelemetryProbe,
    TimeSeries,
)
from .schema import (
    LAYERS,
    TRACE_SCHEMA,
    layers_covered,
    validate_record,
    validate_trace,
)
from .trace import NULL_TRACER, NullTracer, Span, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "Condition",
    "ConditionValue",
    "AnyOf",
    "AllOf",
    "Resource",
    "Store",
    "PriorityStore",
    "Container",
    "RandomStreams",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceRecord",
    "Span",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryProbe",
    "NullTelemetryProbe",
    "NULL_PROBE",
    "TimeSeries",
    "TRACE_SCHEMA",
    "LAYERS",
    "validate_record",
    "validate_trace",
    "layers_covered",
]
