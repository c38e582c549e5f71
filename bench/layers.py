"""Per-layer host time, measured from outside the program.

:func:`install` wraps every public callable (no leading underscore) of the
classes and functions each ``repro`` package exports, so no file under
``src/`` changes.  A wrapped call pushes its layer onto :class:`LayerClock`'s
stack; elapsed host time is always charged to the innermost layer, which
makes the per-layer totals *self* time and makes them sum to the wall time
of the measured region.  Generator functions get a wrapping generator, so
every resumption by the kernel is timed under the generator's own layer.

Time in code no wrapper sees is charged to the layer below it on the
stack.  The measured region's root is ``simulate``, so private callbacks
the kernel dispatches directly (fluid completion guards, the callbacks a
process waits through) count as kernel time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from enum import Enum
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers, one per ``repro`` package; ``trace`` is the observability
#: part of ``repro.simulate``.
LAYERS = ("simulate", "trace", "network", "mpi", "blcr", "storage", "core",
          "pipeline", "launch", "ftb", "cluster", "sched", "workloads")

#: Layer the measured region starts in; time outside every wrapper lands here.
ROOT_LAYER = "simulate"

_TRACE_MODULES = frozenset({"repro.simulate.trace", "repro.simulate.metrics",
                            "repro.simulate.telemetry"})
_PACKAGES = tuple(layer for layer in LAYERS if layer != "trace")


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer owning a ``repro`` module, or ``None`` outside the layers."""
    if module is None:
        return None
    if module in _TRACE_MODULES:
        return "trace"
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in _PACKAGES:
        return parts[1]
    return None


class LayerClock:
    """Self time and call counts per layer.

    Time is charged to ``None`` while no measured region is open; callers
    read per-region deltas through :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self.self_s: Dict[Optional[str], float] = dict.fromkeys(LAYERS, 0.0)
        self.self_s[None] = 0.0
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.top: Optional[str] = None
        self._stack: List[Optional[str]] = []
        self._mark = perf_counter()

    def enter(self, layer: str) -> None:
        now = perf_counter()
        self.self_s[self.top] += now - self._mark
        self._stack.append(self.top)
        self.top = layer
        self._mark = now

    def leave(self) -> None:
        now = perf_counter()
        self.self_s[self.top] += now - self._mark
        self.top = self._stack.pop()
        self._mark = now

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return ({k: v for k, v in self.self_s.items() if k is not None},
                dict(self.calls))


def _timed_function(fn: Callable, layer: str, clock: LayerClock) -> Callable:
    calls = clock.calls

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        calls[layer] += 1
        if clock.top == layer:
            return fn(*args, **kwargs)
        clock.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            clock.leave()

    return timed


def _timed_resumptions(gen, layer: str, clock: LayerClock):
    """Drive ``gen`` step by step, timing each resumption under ``layer``."""
    calls = clock.calls
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        calls[layer] += 1
        nested = clock.top != layer
        if nested:
            clock.enter(layer)
        try:
            yielded = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            if nested:
                clock.leave()
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, which decides
            value, error = None, exc


def _timed_generator_function(fn: Callable, layer: str,
                              clock: LayerClock) -> Callable:
    calls = clock.calls

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        calls[layer] += 1
        gen = fn(*args, **kwargs)
        wrapper = _timed_resumptions(gen, layer, clock)
        # Processes take their default name from the generator.
        wrapper.__name__ = gen.__name__
        wrapper.__qualname__ = gen.__qualname__
        return wrapper

    return timed


def _wrap(fn: Callable, clock: LayerClock) -> Optional[Callable]:
    layer = layer_of(getattr(fn, "__module__", None))
    if layer is None:
        return None
    if inspect.isgeneratorfunction(fn):
        return _timed_generator_function(fn, layer, clock)
    return _timed_function(fn, layer, clock)


def _skip_class(cls: type) -> bool:
    return (issubclass(cls, (BaseException, Enum))
            or layer_of(cls.__module__) is None)


def install(clock: LayerClock) -> Callable[[], None]:
    """Wrap the exported callables of every layer; returns the undo function."""
    undo: List[Tuple[Any, str, Any]] = []
    wrapped: Dict[int, Callable] = {}  # id of an exported function: wrapper
    seen_classes: set = set()

    def patch_class(cls: type) -> None:
        for klass in cls.__mro__:
            if klass in seen_classes or _skip_class(klass):
                continue
            seen_classes.add(klass)
            for name, attr in list(vars(klass).items()):
                if name.startswith("_"):
                    continue
                kind = type(attr)
                fn = attr.__func__ if kind in (classmethod, staticmethod) \
                    else attr
                if not isinstance(fn, types.FunctionType):
                    continue
                timed = _wrap(fn, clock)
                if timed is None:
                    continue
                undo.append((klass, name, attr))
                setattr(klass, name,
                        kind(timed) if kind is not types.FunctionType
                        else timed)

    for package in _PACKAGES:
        module = importlib.import_module(f"repro.{package}")
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type):
                patch_class(obj)
            elif isinstance(obj, types.FunctionType) and id(obj) not in wrapped:
                timed = _wrap(obj, clock)
                if timed is not None:
                    wrapped[id(obj)] = timed

    # Rebind exported functions wherever a repro module imported them.  The
    # wrappers keep the originals alive, so their ids stay unique.
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "repro":
            continue
        for name, value in list(vars(module).items()):
            timed = wrapped.get(id(value))
            if timed is not None:
                undo.append((module, name, value))
                setattr(module, name, timed)

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
