"""The paper's evaluation (Sec. IV): each experiment's runs, defined once.

Every run is on the paper's testbed: 8 compute nodes and 1 spare on
InfiniBand, a PVFS volume on its own servers, and one NPB class C job of
40 iterations.  At t = 5 s a failure is handled on ``node3``, either by
migrating that node's ranks to the spare or by a checkpoint/restart (CR)
cycle of the whole job.

``repro validate`` / ``compare`` / ``scale`` / ``interval`` / ``sanitize``,
the bench harness, the figure benches and the examples all take their runs
from here, so no two of them can measure a figure differently.

The values the paper reports for each experiment (the ``PAPER_*``
tables) sit next to its runs, so ``validate``, the figure benches and
EXPERIMENTS.md quote the same numbers.  Values quoted in the text or
Table I are exact; values read off a plot are marked approximate.  The
figure benches compare shape (who wins, phase dominance, scaling
direction, rough factors) against them, not equality: the substrate is a
calibrated simulator, not the authors' testbed.
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
           "FIG4", "FIG6", "FIG7", "TABLE1", "PIPELINE",
           "PAPER_FIG4_TOTAL_S", "PAPER_FIG4_JOB_STALL_S",
           "PAPER_FIG4_PHASE2_RANGE_S", "PAPER_FIG5_OVERHEAD_PCT",
           "PAPER_FIG5_BASE_RUNTIME_S", "PAPER_FIG6_TOTAL_S", "PAPER_FIG7",
           "PAPER_SPEEDUP_PVFS", "PAPER_SPEEDUP_EXT3",
           "PAPER_CKPT_ONLY_SPEEDUP_PVFS", "PAPER_TABLE1_MB"]

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
#: The paper's Fig. 4 migration cycles (s).  LU.C is quoted in the text
#: (Sec. IV-A); BT.C and SP.C are read off the plot (approximate).
PAPER_FIG4_TOTAL_S: Dict[str, float] = {"LU.C": 6.3, "BT.C": 10.9,
                                        "SP.C": 10.0}
#: Fig. 4 Phase 1 (Job Stall) of LU.C (s), read off the plot
#: (approximate): the stall stays under 0.1 s.
PAPER_FIG4_JOB_STALL_S = 0.04
#: Fig. 4 Phase 2 (Job Migration) across the applications (s), quoted in
#: the text as "0.4-0.8 s".
PAPER_FIG4_PHASE2_RANGE_S: Tuple[float, float] = (0.4, 0.8)
#: Fig. 5: execution-time overhead of one migration (%), quoted in the
#: text, and each application's runtime without one (s, approximate).
PAPER_FIG5_OVERHEAD_PCT: Dict[str, float] = {"LU.C": 3.9, "BT.C": 6.7,
                                             "SP.C": 4.6}
PAPER_FIG5_BASE_RUNTIME_S: Dict[str, float] = {"LU.C": 162.0, "BT.C": 158.0,
                                               "SP.C": 212.0}
#: Fig. 6: the LU.C ranks-per-node sweep.
FIG6: Dict[int, Run] = {ppn: fig6_run(ppn) for ppn in PPNS}
#: The paper's Fig. 6 cycles (s), read off the plot (approximate); 8
#: ranks per node is the Fig. 4 LU.C run.
PAPER_FIG6_TOTAL_S: Dict[int, float] = {1: 3.6, 2: 4.2, 4: 5.1,
                                        8: PAPER_FIG4_TOTAL_S["LU.C"]}
#: Fig. 7: migration against CR to each store, per application.
FIG7: Dict[str, Dict[str, Run]] = {app: fig7_runs(app) for app in APPS}
#: The paper's Fig. 7 CR phases (s), quoted in the text (Sec. IV-C):
#: checkpoints, LU.C's full CR cycles and BT.C's restarts.  SP.C has none.
PAPER_FIG7: Dict[str, Dict[str, float]] = {
    "LU.C": {"ckpt_ext3": 6.4, "ckpt_pvfs": 16.3,
             "cycle_ext3": 12.9, "cycle_pvfs": 28.3},
    "BT.C": {"ckpt_ext3": 7.5, "ckpt_pvfs": 23.4,
             "restart_ext3": 9.1, "restart_pvfs": 20.1},
}
#: LU.C.64 migration speedup over a full CR cycle to each store, and over
#: the checkpoint to PVFS alone (text, Sec. IV-C).
PAPER_SPEEDUP_PVFS = 4.49
PAPER_SPEEDUP_EXT3 = 2.03
PAPER_CKPT_ONLY_SPEEDUP_PVFS = 2.58
#: Table I reads bytes off runs above: migrated by the Fig. 4 migration,
#: dumped by the Fig. 7 checkpoint to ext3.
TABLE1: Dict[str, Dict[str, Run]] = {
    app: {"migration": FIG4[app], "cr": FIG7[app]["cr_ext3"]} for app in APPS}
#: The paper's Table I: MB moved by migration and dumped by CR (exact).
PAPER_TABLE1_MB: Dict[str, Dict[str, float]] = {
    "LU.C": {"migration": 170.4, "cr": 1363.2},
    "BT.C": {"migration": 308.8, "cr": 2470.4},
    "SP.C": {"migration": 303.2, "cr": 2425.6},
}
#: The LU.C migration with a file-barrier restart, and with the pipelined
#: restart from memory (Sec. VI).
PIPELINE: Dict[str, Run] = {mode: Run(restart_mode=mode)
                            for mode in ("file", "memory")}
