"""Drive the bench scenarios under the sanitizer.

One :func:`sanitize_scenario` call replays the runs of one experiment of
:mod:`repro.experiments` — ``fig4`` (phase breakdown migrations), ``fig6``
(ranks/node sweep), ``fig7`` (migration vs CR), ``pipeline`` (file vs
memory restart) — with a plain :class:`~repro.simulate.trace.Tracer`,
runs the application to completion, checks the finished trace with
:meth:`TraceChecker.check_trace` (the path :func:`check_jsonl` takes for
a recorded run) and folds in the end-of-run :func:`live_checks`.  Each
sub-run gets a fresh checker so per-entity state (QP numbers, sessions,
pipeline runs) cannot bleed between independent simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..experiments import FIG4, FIG6, FIG7, PIPELINE, Run
from ..simulate.trace import Tracer
from .checker import TraceChecker, live_checks
from .invariants import Violation

__all__ = ["RunResult", "SanitizeResult", "sanitize_scenario",
           "check_jsonl", "SCENARIOS"]


@dataclass
class RunResult:
    """One simulation run under the checker."""

    name: str
    n_records: int
    violations: List[Violation] = field(default_factory=list)


@dataclass
class SanitizeResult:
    """All runs of one scenario."""

    scenario: str
    runs: List[RunResult] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        return [v for run in self.runs for v in run.violations]

    @property
    def n_records(self) -> int:
        return sum(run.n_records for run in self.runs)

    @property
    def clean(self) -> bool:
        return not self.violations


def _checked_run(name: str, run: Run, seed: int) -> RunResult:
    tracer = Tracer()
    sc = run.scenario(seed, trace=tracer)
    run.drive(sc)
    sc.run_to_completion()
    violations = TraceChecker.check_trace(tracer)
    violations.extend(live_checks(sc.sim, sc.cluster))
    return RunResult(name, len(tracer), violations)


#: scenario name -> {run name: run}, from the experiment definitions.
SCENARIOS: Dict[str, Dict[str, Run]] = {
    "fig4": {f"fig4/{app}": run for app, run in FIG4.items()},
    "fig6": {f"fig6/ppn{ppn}": run for ppn, run in FIG6.items()},
    "fig7": {f"fig7/{app}/{kind}": run
             for app, runs in FIG7.items() for kind, run in runs.items()},
    "pipeline": {f"pipeline/{mode}": run for mode, run in PIPELINE.items()},
}


def sanitize_scenario(name: str, seed: int = 0) -> SanitizeResult:
    """Run one named bench scenario under the sanitizer."""
    try:
        runs = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    result = SanitizeResult(name)
    for run_name, run in runs.items():
        result.runs.append(_checked_run(run_name, run, seed))
    return result


def check_jsonl(path: str) -> SanitizeResult:
    """Offline replay of an exported ``trace.jsonl`` (no live checks)."""
    from ..analysis import read_jsonl

    tracer = read_jsonl(path)
    violations = TraceChecker.check_trace(tracer)
    result = SanitizeResult(f"jsonl:{path}")
    result.runs.append(RunResult(path, len(tracer), violations))
    return result
