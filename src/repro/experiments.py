"""The paper's evaluation (Sec. IV): each experiment's runs, defined once.

Every run is on the paper's testbed: 8 compute nodes and 1 spare on
InfiniBand, a PVFS volume on its own servers, and one NPB class C job of
40 iterations.  At t = 5 s a failure is handled on ``node3``, either by
migrating that node's ranks to the spare or by a checkpoint/restart (CR)
cycle of the whole job.

``repro validate`` / ``compare`` / ``scale`` / ``interval`` / ``sanitize``,
the bench harness, the figure benches and the examples all take their runs
from here, so no two of them can measure a figure differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from .analysis.availability import daly_interval, effective_mtbf, simulate_policy
from .analysis.metrics import (
    cr_cycle_breakdown,
    migration_cycle_breakdown,
    speedup,
)
from .scenario import Scenario

__all__ = ["APPS", "PPNS", "STORES", "FAILURE_AT", "Run",
           "fig6_run", "fig7_runs", "fig7_row", "interval_study",
           "FIG4", "FIG6", "FIG7", "TABLE1", "PIPELINE"]

#: The NPB applications of Figs. 4 and 7 and Table I, 64 ranks each.
APPS = ("LU.C", "BT.C", "SP.C")
#: Fig. 6: LU.C ranks per compute node.
PPNS = (1, 2, 4, 8)
#: Fig. 7 checkpoint stores: node-local ext3 and shared PVFS.
STORES = ("ext3", "pvfs")
#: Simulated time at which the failure is handled.
FAILURE_AT = 5.0


@dataclass(frozen=True)
class Run:
    """One simulation on the paper's testbed.

    ``cr=None`` handles the failure by migration; ``cr="ext3"`` or
    ``"pvfs"`` by a checkpoint/restart cycle through that store.  Runs are
    hashable, so a run shared by several figures is simulated once by a
    consumer that caches results by run.
    """

    app: str = "LU.C"
    nprocs: int = 64
    cr: Optional[str] = None
    restart_mode: str = "file"
    n_compute: int = 8
    transport: str = "rdma"

    @property
    def compute_nodes(self) -> Tuple[str, ...]:
        """Names of the testbed's compute nodes, the ones a job runs on."""
        return tuple(f"node{i}" for i in range(self.n_compute))

    @property
    def source(self) -> str:
        """The failing node: ``node3`` on the paper's 8 compute nodes, the
        last node of a smaller testbed."""
        return f"node{min(3, self.n_compute - 1)}"

    def scenario(self, seed: int = 0, trace=None, metrics=None) -> Scenario:
        """Build this run's testbed, with the application started."""
        return Scenario.build(app=self.app, nprocs=self.nprocs,
                              n_compute=self.n_compute, n_spare=1,
                              with_pvfs=True, iterations=40, seed=seed,
                              transport=self.transport,
                              restart_mode=self.restart_mode, trace=trace,
                              metrics=metrics)

    def drive(self, sc: Scenario) -> Any:
        """Handle the failure on ``sc``: a ``MigrationReport``, or a
        ``(CheckpointReport, RestartReport)`` pair for a CR run."""
        if self.cr is None:
            return sc.run_migration(self.source, at=FAILURE_AT)
        return sc.run_cr_cycle(self.cr, at=FAILURE_AT)

    def execute(self, seed: int = 0, trace=None) -> Any:
        """Build and drive in one step; returns :meth:`drive`'s result."""
        return self.drive(self.scenario(seed, trace))


def fig6_run(ppn: int) -> Run:
    """Fig. 6: one LU.C migration with ``ppn`` ranks per compute node."""
    return Run("LU.C", nprocs=8 * ppn)


def fig7_runs(app: str, nprocs: int = 64, n_compute: int = 8,
              restart_mode: str = "file") -> Dict[str, Run]:
    """Fig. 7 for one application: a migration and a CR cycle per store,
    keyed ``migration``, ``cr_ext3`` and ``cr_pvfs``."""
    runs = {"migration": Run(app, nprocs, restart_mode=restart_mode,
                             n_compute=n_compute)}
    for store in STORES:
        runs[f"cr_{store}"] = Run(app, nprocs, cr=store, n_compute=n_compute)
    return runs


def fig7_row(results: Dict[str, Any]) -> Dict[str, Any]:
    """Fig. 7 for one application from the results of its
    :func:`fig7_runs`: each handling's stacked phases, and the migration's
    speedup over each full CR cycle."""
    migration = results["migration"]
    row: Dict[str, Any] = {"migration": migration_cycle_breakdown(migration)}
    for store in STORES:
        ckpt, restart = results[f"cr_{store}"]
        row[f"cr_{store}"] = cr_cycle_breakdown(ckpt, restart)
        row[f"speedup_{store}"] = speedup(
            ckpt.total_seconds + restart.restart_seconds,
            migration.total_seconds)
    return row


def interval_study(coverages: Iterable[float], mtbf_hours: float = 6.0,
                   work_days: float = 7.0
                   ) -> Tuple[Tuple[float, float, float],
                              Dict[str, Dict[str, float]]]:
    """Sec. VI: prolonging checkpoint intervals with proactive migration.

    Measures the costs on the Fig. 7 LU.C runs — a full checkpoint to
    PVFS, the restart from it, one migration — then, for each
    failure-prediction coverage, takes the Daly-optimal checkpoint
    interval and a seeded Monte-Carlo run of a ``work_days`` job on nodes
    that fail every ``mtbf_hours``; every predicted failure becomes a
    migration.  Returns ``((checkpoint, restart, migration) seconds,
    rows keyed "coverage N%")``.
    """
    runs = FIG7["LU.C"]
    migration = runs["migration"].execute()
    ckpt, restart = runs["cr_pvfs"].execute()
    costs = delta, restart_s, migration_s = (
        ckpt.total_seconds, restart.restart_seconds, migration.total_seconds)
    mtbf = mtbf_hours * 3600.0
    rows = {}
    for cov in coverages:
        tau = daly_interval(delta, effective_mtbf(mtbf, cov))
        out = simulate_policy(work_days * 86400.0, delta, restart_s, mtbf,
                              cov, migration_s,
                              policy="cr+migration" if cov else "cr-only",
                              rng=np.random.default_rng(42))
        rows[f"coverage {int(cov * 100)}%"] = {
            "Daly interval (min)": tau / 60.0,
            "checkpoints": float(out.n_checkpoints),
            "rollbacks": float(out.n_rollbacks),
            "migrations": float(out.n_migrations),
            "efficiency %": 100 * out.efficiency,
        }
    return costs, rows


#: Fig. 4: the migration phase breakdown of each application.
FIG4: Dict[str, Run] = {app: Run(app) for app in APPS}
#: Fig. 6: the LU.C ranks-per-node sweep.
FIG6: Dict[int, Run] = {ppn: fig6_run(ppn) for ppn in PPNS}
#: Fig. 7: migration against CR to each store, per application.
FIG7: Dict[str, Dict[str, Run]] = {app: fig7_runs(app) for app in APPS}
#: Table I reads bytes off runs above: migrated by the Fig. 4 migration,
#: dumped by the Fig. 7 checkpoint to ext3.
TABLE1: Dict[str, Dict[str, Run]] = {
    app: {"migration": FIG4[app], "cr": FIG7[app]["cr_ext3"]} for app in APPS}
#: The LU.C migration with a file-barrier restart, and with the pipelined
#: restart from memory (Sec. VI).
PIPELINE: Dict[str, Run] = {mode: Run(restart_mode=mode)
                            for mode in ("file", "memory")}
