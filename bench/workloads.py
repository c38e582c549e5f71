"""The five benchmark workloads, built and run through the public ``repro`` API.

Each workload is a closed loop with one client: the benchmark builds the next
scenario only after the previous run has completed.  A workload turns the
benchmark seed into a sequence of inputs, builds a scenario from one input
(timed as set-up), runs it (timed as the run), and checks the simulated
outputs against the paper reproduction's pinned values.

Import this module only after :func:`bench.use_repro_sources`.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from repro import Scenario
from repro.cluster import ClusterScale
from repro.simulate import MetricsRegistry, Tracer

#: Fig. 4 / Sec. IV-A: one LU.C.64 migration cycle on the paper's testbed.
PAPER_MIGRATION_CYCLE_S = 6.3
#: Fig. 7 / Sec. IV-C: the LU.C.64 checkpoint/restart cycle through PVFS.
PAPER_CR_PVFS_CYCLE_S = 28.3

#: The simulator's pinned results for those cycles (Table I for the bytes).
MIGRATION_TOTAL_S = 6.092014
MIGRATION_MOVED_MB = 170.4
CR_PVFS_CYCLE_S = 26.91683
CR_WRITTEN_MB = 1363.2

CLUSTER_NODES = 1000
CLUSTER_JOBS = 50

#: The per-layer counts each run reports, with units; zero where a workload
#: has none.  They repeat exactly for a given seed.
COUNT_METRICS = {
    "simulate.events": "count",
    "simulate.cancelled": "count",
    "simulate.cancel_ratio": "ratio",
    "network.fluid.recomputes": "count",
    "network.fluid.flows_visited": "count",
    "network.fluid.flows_per_recompute": "count",
    "network.fluid.peak_component": "count",
    "core.chunks": "count",
    "core.moved_mb": "MB",
    "storage.written_mb": "MB",
    "trace.records": "count",
    "cluster.windows": "count",
    "cluster.mail_delivered": "count",
}


@dataclass
class Outcome:
    """What one run produced.

    ``outputs`` are the simulated results: the check reads them, and a
    wrapped run must reproduce them exactly.  ``counts`` feed the
    per-layer count metrics.
    """

    outputs: Dict[str, Any]
    events: int
    counts: Dict[str, float] = field(default_factory=dict)
    paper_rel_err: Optional[float] = None


def _kernel_counts(kernel, nets) -> Dict[str, float]:
    """Counts every scenario has: kernel events and fluid-solver work."""
    events, cancelled = kernel.events_processed, kernel.events_cancelled
    recomputes = sum(net.stats.recomputes for net in nets)
    visited = sum(net.stats.flows_visited for net in nets)
    return {
        "simulate.events": events,
        "simulate.cancelled": cancelled,
        "simulate.cancel_ratio": cancelled / max(events + cancelled, 1),
        "network.fluid.recomputes": recomputes,
        "network.fluid.flows_visited": visited,
        "network.fluid.flows_per_recompute": visited / max(recomputes, 1),
        "network.fluid.peak_component": max(
            net.stats.peak_component_size for net in nets),
        "cluster.windows": kernel.windows,
        "cluster.mail_delivered": kernel.mail_delivered,
    }


def _scenario_counts(sc: Scenario) -> Dict[str, float]:
    counts = _kernel_counts(sc.kernel, [sc.cluster.net])
    written = sum(node.disk.bytes_written for node in sc.cluster.nodes.values())
    if sc.cluster.pvfs is not None:
        written += sc.cluster.pvfs.total_bytes_written
    counts["storage.written_mb"] = written / 1e6
    if isinstance(sc.cluster.trace, Tracer):
        counts["trace.records"] = len(sc.cluster.trace)
    return counts


def _segment_digest(procs) -> str:
    """blake2b over every segment's bytes, in rank and segment order."""
    h = hashlib.blake2b(digest_size=16)
    for proc in procs:
        for seg in proc.segments:
            h.update(seg.name.encode())
            h.update(memoryview(seg.data))
    return h.hexdigest()


@dataclass(frozen=True)
class MigrationInput:
    seed: int
    source: str


class Migrate:
    """Fig. 4: LU.C.64 on 8 compute + 1 spare, file restart, trigger at 5 s."""

    name = "migrate"
    record_data = False
    observed = False
    #: Run a traced and an untraced scenario per loop iteration.
    paired = False
    #: Free memory the workload needs before it starts, in GB.
    min_available_gb = 0.0

    def inputs(self, seed: int) -> Iterator[MigrationInput]:
        rng = random.Random(seed)
        for i in itertools.count():
            yield MigrationInput(seed + i, f"node{rng.randrange(8)}")

    def build(self, inp: MigrationInput, observed: bool) -> Scenario:
        obs = ({"trace": Tracer(), "metrics": MetricsRegistry()}
               if observed else {})
        return Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                              iterations=40, seed=inp.seed,
                              record_data=self.record_data, **obs)

    def capture(self, sc: Scenario, inp: MigrationInput) -> Any:
        """Untimed state taken between build and run (none here)."""
        return None

    def run(self, sc: Scenario, inp: MigrationInput) -> Any:
        return sc.run_migration(inp.source, at=5.0)

    def observe(self, sc: Scenario, inp: MigrationInput, report: Any,
                captured: Any) -> Outcome:
        counts = _scenario_counts(sc)
        counts["core.chunks"] = report.chunks_transferred
        counts["core.moved_mb"] = report.bytes_migrated / 1e6
        outputs = {
            "source": inp.source,
            "phases": {p.value: round(s, 6)
                       for p, s in report.phase_seconds.items()},
            "total_s": round(report.total_seconds, 6),
            "moved_mb": round(report.bytes_migrated / 1e6, 6),
            "chunks": report.chunks_transferred,
        }
        return Outcome(outputs, sc.sim.events_processed, counts,
                       abs(report.total_seconds / PAPER_MIGRATION_CYCLE_S - 1))

    def check(self, outcome: Outcome) -> Optional[str]:
        out = outcome.outputs
        if out["total_s"] != MIGRATION_TOTAL_S:
            return f"cycle {out['total_s']} s, expected {MIGRATION_TOTAL_S} s"
        if out["moved_mb"] != MIGRATION_MOVED_MB:
            return f"moved {out['moved_mb']} MB, expected {MIGRATION_MOVED_MB}"
        return None


class MigrateTraced(Migrate):
    """``migrate`` with a Tracer and a MetricsRegistry, as ``repro observe``."""

    name = "migrate_traced"
    observed = True
    paired = True


class MigrateBytes(Migrate):
    """``migrate`` carrying 1.36 GB of real segment bytes."""

    name = "migrate_bytes"
    record_data = True
    min_available_gb = 3.0

    def capture(self, sc: Scenario, inp: MigrationInput) -> str:
        return _segment_digest(
            rk.osproc for rk in sc.job.ranks if rk.node.name == inp.source)

    def observe(self, sc: Scenario, inp: MigrationInput, report: Any,
                captured: Any) -> Outcome:
        outcome = super().observe(sc, inp, report, captured)
        moved = set(report.ranks_migrated)
        outcome.outputs["segments_before"] = captured
        outcome.outputs["segments_after"] = _segment_digest(
            rk.osproc for rk in sc.job.ranks if rk.rank in moved)
        return outcome

    def check(self, outcome: Outcome) -> Optional[str]:
        out = outcome.outputs
        if out["segments_after"] != out["segments_before"]:
            return "restored segment bytes differ from the captured bytes"
        return super().check(outcome)


class CrPvfs(Migrate):
    """Fig. 7 baseline: LU.C.64 checkpoints every rank to PVFS, then restarts."""

    name = "cr_pvfs"

    def build(self, inp: MigrationInput, observed: bool) -> Scenario:
        return Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                              iterations=40, seed=inp.seed, with_pvfs=True)

    def run(self, sc: Scenario, inp: MigrationInput) -> Any:
        strategy = sc.cr_strategy("pvfs")

        def drive(sim):
            yield sim.timeout(5.0)
            ckpt = yield from strategy.checkpoint()
            restart = yield from strategy.restart()
            return ckpt, restart

        return sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))

    def observe(self, sc: Scenario, inp: MigrationInput, result: Any,
                captured: Any) -> Outcome:
        ckpt, restart = result
        cycle = ckpt.total_seconds + restart.restart_seconds
        outputs = {
            "checkpoint_s": round(ckpt.total_seconds, 6),
            "restart_s": round(restart.restart_seconds, 6),
            "cycle_s": round(cycle, 6),
            "written_mb": round(ckpt.bytes_written / 1e6, 6),
            "read_mb": round(restart.bytes_read / 1e6, 6),
        }
        return Outcome(outputs, sc.sim.events_processed, _scenario_counts(sc),
                       abs(cycle / PAPER_CR_PVFS_CYCLE_S - 1))

    def check(self, outcome: Outcome) -> Optional[str]:
        out = outcome.outputs
        if out["written_mb"] != CR_WRITTEN_MB:
            return f"wrote {out['written_mb']} MB, expected {CR_WRITTEN_MB}"
        if out["cycle_s"] != CR_PVFS_CYCLE_S:
            return f"cycle {out['cycle_s']} s, expected {CR_PVFS_CYCLE_S} s"
        return None


class ClusterWorkload:
    """``ClusterScale(1000 nodes, 50 jobs)`` with the library defaults."""

    name = "cluster"
    observed = False
    paired = False
    min_available_gb = 0.0

    def inputs(self, seed: int) -> Iterator[int]:
        return itertools.count(seed)

    def build(self, seed: int, observed: bool) -> ClusterScale:
        return ClusterScale(n_nodes=CLUSTER_NODES, n_jobs=CLUSTER_JOBS,
                            seed=seed)

    def capture(self, cs: ClusterScale, seed: int) -> Any:
        return None

    def run(self, cs: ClusterScale, seed: int) -> Dict[str, Any]:
        return cs.run()

    def observe(self, cs: ClusterScale, seed: int, results: Dict[str, Any],
                captured: Any) -> Outcome:
        return Outcome(dict(results, seed=seed), results["events_processed"],
                       _kernel_counts(cs.kernel, cs.nets))

    def check(self, outcome: Outcome) -> Optional[str]:
        out = outcome.outputs
        if out["jobs_completed"] != CLUSTER_JOBS:
            return (f"{out['jobs_completed']} of {CLUSTER_JOBS} jobs "
                    f"completed")
        if not out["makespan"] > 0:
            return "zero makespan"
        return None


WORKLOADS = {wl.name: wl for wl in (Migrate(), CrPvfs(), MigrateBytes(),
                                    ClusterWorkload(), MigrateTraced())}
