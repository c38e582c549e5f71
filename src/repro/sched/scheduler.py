"""FCFS batch scheduler with node failures — the cluster-throughput model.

Two fault-tolerance policies, matching the paper's contrast:

* ``"reactive"`` — classic CR: a node failure kills the whole job; it rolls
  back to its last checkpoint, goes to the *tail* of the queue (the
  "lengthy queuing latency" of the paper's introduction), and waits for a
  free allocation again.  The failed node returns after ``repair_time``.
* ``"proactive"`` — this paper's framework: with probability ``coverage``
  the failure is predicted; the job pays one migration cost, a spare node
  replaces the failing one in place, and execution continues.  Unpredicted
  failures fall back to the reactive path.

Failures arrive per-node as a Poisson process (exponential inter-arrival,
``node_mtbf``); only failures on nodes currently running a job matter.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from ..simulate.core import Simulator
from ..simulate.resources import Container, Store
from .jobs import BatchJobSpec, JobRecord, JobState

__all__ = ["BatchScheduler", "failure_gap"]


def failure_gap(rng: np.random.Generator, node_mtbf: float, n_nodes: int,
                shape: Optional[float] = None) -> float:
    """Time until the next failure among ``n_nodes`` busy nodes.

    ``shape is None`` draws exponential inter-failure gaps (Poisson
    arrivals); a float draws Weibull with that shape at the same mean
    budget (shape < 1 models the bursty failures of production logs).
    Shared by :class:`BatchScheduler` and the cluster-scale
    scenario (:mod:`repro.cluster.scale`) so both studies age nodes from
    the same failure model.
    """
    mean_gap = node_mtbf / n_nodes
    if shape is None:
        return float(rng.exponential(mean_gap))
    from math import gamma

    scale = mean_gap / gamma(1.0 + 1.0 / shape)
    return float(scale * rng.weibull(shape))


class BatchScheduler:
    """FCFS scheduler over an abstract node pool."""

    def __init__(self, sim: Simulator, n_nodes: int, n_spares: int,
                 policy: str = "reactive", coverage: float = 0.7,
                 node_mtbf: float = 30 * 24 * 3600.0,
                 repair_time: float = 4 * 3600.0,
                 rng: Optional[np.random.Generator] = None,
                 failure_shape: Optional[float] = None):
        if policy not in ("reactive", "proactive"):
            raise ValueError(f"unknown policy {policy!r}")
        if not 0 <= coverage <= 1:
            raise ValueError("coverage must be in [0, 1]")
        self.sim = sim
        self.policy = policy
        self.coverage = coverage
        self.node_mtbf = node_mtbf
        self.repair_time = repair_time
        self.rng = rng or np.random.default_rng(0)
        #: None -> exponential inter-failure gaps; a float -> Weibull with
        #: that shape (shape < 1 models the bursty failures of production
        #: logs, same mean budget — see :mod:`repro.sched.traces`).
        if failure_shape is not None and failure_shape <= 0:
            raise ValueError("failure_shape must be positive")
        self.failure_shape = failure_shape
        #: Allocatable node budget (spares included for the proactive
        #: policy's replacements; reactive clusters just run on them too).
        self.free_nodes = Container(sim, capacity=n_nodes + n_spares,
                                    init=n_nodes + n_spares)
        self.total_nodes = n_nodes + n_spares
        self.queue: Store = Store(sim)
        self.records: List[JobRecord] = []
        self._busy_seconds = 0.0
        self.sim.spawn(self._dispatcher(), name="sched-dispatcher")

    # -- submission ----------------------------------------------------------
    def submit(self, spec: BatchJobSpec) -> JobRecord:
        record = JobRecord(spec=spec)
        self.records.append(record)
        self.sim.spawn(self._arrival(record), name=f"arrival.{spec.name}")
        return record

    def _arrival(self, record: JobRecord) -> Generator:
        if record.spec.submit_time > self.sim.now:
            yield self.sim.timeout(record.spec.submit_time - self.sim.now)
        record.queue_wait -= self.sim.now  # accumulate wait from here
        self.queue.put(record)

    # -- dispatch ---------------------------------------------------------------
    def _dispatcher(self) -> Generator:
        while True:
            record: JobRecord = yield self.queue.get()
            # FCFS head-of-line blocking: wait until this job fits.
            yield self.free_nodes.get(record.spec.n_nodes)
            record.queue_wait += self.sim.now
            record.state = JobState.RUNNING
            record.started_at = self.sim.now
            if record.first_start_at is None:
                record.first_start_at = self.sim.now
            self.sim.spawn(self._run_job(record),
                           name=f"job.{record.spec.name}")

    # -- job execution -------------------------------------------------------------
    def _next_failure_gap(self, n_nodes: int) -> float:
        """Time until the next failure among n busy nodes."""
        return failure_gap(self.rng, self.node_mtbf, n_nodes,
                           self.failure_shape)

    def _run_job(self, record: JobRecord) -> Generator:
        spec = record.spec
        if record.pending_restart:
            yield self.sim.timeout(spec.restart_cost)
            record.pending_restart = False
        failure_in = self._next_failure_gap(spec.n_nodes)
        while record.remaining > 0:
            span = min(spec.checkpoint_interval - record.since_checkpoint,
                       record.remaining)
            if failure_in <= span:
                # Work until the failure hits.
                yield self.sim.timeout(failure_in)
                self._account(spec.n_nodes, failure_in)
                record.useful_done += failure_in
                record.since_checkpoint += failure_in
                predicted = (self.policy == "proactive"
                             and self.rng.random() < self.coverage)
                if predicted:
                    record.n_migrations += 1
                    yield self.sim.timeout(spec.migration_cost)
                    # The failing node swaps out; pool size is modelled as
                    # constant (the spare replaces it, the dead one joins
                    # repair and comes back as the new spare).
                    failure_in = self._next_failure_gap(spec.n_nodes)
                    continue
                # Reactive path: rollback + requeue.
                record.n_rollbacks += 1
                record.n_requeues += 1
                record.useful_done -= record.since_checkpoint
                record.since_checkpoint = 0.0
                record.pending_restart = True
                record.state = JobState.QUEUED
                self.free_nodes.put(spec.n_nodes)
                self.sim.spawn(self._repair_one_node(),
                               name=f"repair.{spec.name}")
                record.queue_wait -= self.sim.now
                # Restart cost is paid when it runs again.
                self.queue.put(record)
                return
            # No failure inside this span: run to the checkpoint (or end).
            yield self.sim.timeout(span)
            self._account(spec.n_nodes, span)
            failure_in -= span
            record.useful_done += span
            record.since_checkpoint += span
            if record.remaining <= 0:
                break
            yield self.sim.timeout(spec.checkpoint_cost)
            if failure_in <= spec.checkpoint_cost:
                failure_in = self._next_failure_gap(spec.n_nodes)
            else:
                failure_in -= spec.checkpoint_cost
            record.since_checkpoint = 0.0
        record.state = JobState.COMPLETED
        record.completed_at = self.sim.now
        self.free_nodes.put(spec.n_nodes)

    def _repair_one_node(self) -> Generator:
        """A failed node leaves the pool for repair_time, then returns."""
        yield self.free_nodes.get(1)
        yield self.sim.timeout(self.repair_time)
        self.free_nodes.put(1)

    def _account(self, n_nodes: int, seconds: float) -> None:
        self._busy_seconds += n_nodes * seconds

    # -- metrics -----------------------------------------------------------------
    def utilization(self) -> float:
        """Busy node-seconds over total node-seconds elapsed.

        Counts *all* execution, including work later rolled back — so a
        reactive cluster can look "busier" while delivering less.  Compare
        with :meth:`goodput`.
        """
        if self.sim.now <= 0:
            return 0.0
        return self._busy_seconds / (self.total_nodes * self.sim.now)

    def goodput(self) -> float:
        """Node-seconds of *completed, kept* work over node-seconds elapsed."""
        if self.sim.now <= 0:
            return 0.0
        delivered = sum(r.spec.work_seconds * r.spec.n_nodes
                        for r in self.completed())
        return delivered / (self.total_nodes * self.sim.now)

    def completed(self) -> List[JobRecord]:
        return [r for r in self.records if r.state is JobState.COMPLETED]

    def mean_turnaround(self) -> float:
        done = self.completed()
        if not done:
            return float("nan")
        return sum(r.turnaround for r in done) / len(done)

    def throughput_jobs_per_day(self) -> float:
        if self.sim.now <= 0:
            return 0.0
        return len(self.completed()) / (self.sim.now / 86400.0)
