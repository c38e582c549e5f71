"""The interprocedural passes of ``repro lint``.

The dynamic sanitizer (:mod:`repro.sanitize.checker`) catches protocol
violations a run actually commits; these passes catch the bug *classes*
that threaten the byte-identical-trace guarantee before any run happens,
by static analysis over the simulation sources:

* a module-level **call graph** identifying simulation-process
  functions — generators handed to ``Simulator.spawn`` (directly or
  through ``yield from`` chains) — and trace/metrics emit sites
  (:mod:`.callgraph`); :func:`parse_modules` is also the one parser
  every ``repro lint`` rule reads;
* a **yield-point race detector** — shared state read before a ``yield``
  and written back after it from the stale value, and shared containers
  iterated across a yield while other code mutates them (:mod:`.races`);
* a **determinism dataflow pass** — set-iteration order, ``id()``-derived
  values, or unseeded-RNG draws flowing into ``schedule()``/``succeed``,
  trace emission, or flow-completion ordering (:mod:`.determinism`) —
  the ``Flow.seq`` fix from the kernel sweep, generalized into a
  checked invariant;
* a **span-balance pass** — every code path that starts a tracer span
  must scope it with ``with`` (or hand it off) so ``.end`` records
  always pair (:mod:`.spans`).

Rules carry stable ``SIM###`` ids in the shared framework
(:mod:`repro.sanitize.rules`); :func:`repro.sanitize.lint.lint_paths`
runs them with every other rule.  Docs: ``docs/static-analysis.md``.
"""

from .callgraph import CallGraph, FunctionInfo, ModuleInfo, parse_modules
from .determinism import check_determinism
from .races import check_races
from .spans import check_spans

__all__ = ["CallGraph", "FunctionInfo", "ModuleInfo", "parse_modules",
           "check_determinism", "check_races", "check_spans"]
