"""Checkpoint-interval policy analysis (the paper's future work, Sec. VI).

The paper closes with: *"We also want to investigate the potentials of our
process-migration approach to benefit the existing Checkpoint/Restart
strategy by prolonging the interval between full job-wide checkpoints."*

This module implements that study:

* the classic first-order optimal checkpoint interval (Young [1974] /
  Daly [2006]): ``tau* = sqrt(2 * delta * M) - delta`` for checkpoint cost
  ``delta`` and system MTBF ``M`` (Daly's higher-order form is used when
  ``delta`` is not << M);
* the *effective* MTBF under proactive migration: a predictor that catches
  fraction ``p`` of failures (with enough lead time to migrate) converts
  them from rollbacks into ~6 s migrations, so only ``(1-p)`` of failures
  force a rollback — the effective MTBF becomes ``M / (1 - p)`` and the
  optimal interval stretches by ``~1/sqrt(1-p)``;
* a Monte-Carlo policy simulator (exponential failures, optional
  migration rescue) used by ``benchmarks/test_bench_ablation_interval.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["daly_interval", "effective_mtbf", "PolicyOutcome",
           "simulate_policy"]


def daly_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Daly's higher-order optimal checkpoint interval.

    Falls back to Young's ``sqrt(2 delta M)`` regime inside, but stays
    accurate when ``checkpoint_cost`` is a noticeable fraction of ``mtbf``.
    """
    if checkpoint_cost <= 0 or mtbf <= 0:
        raise ValueError("checkpoint_cost and mtbf must be positive")
    d, m = checkpoint_cost, mtbf
    if d < 2 * m:
        root = math.sqrt(2 * d * m)
        # Daly's perturbation refinement.
        tau = root * (1 + math.sqrt(d / (8 * m)) / 3 + d / (16 * m)) - d
    else:
        tau = m
    return max(tau, 1e-9)


def effective_mtbf(mtbf: float, prediction_coverage: float) -> float:
    """MTB*rollback*-failure when a fraction of failures are predicted and
    proactively migrated away (they no longer cause rollbacks)."""
    if not 0 <= prediction_coverage < 1:
        if prediction_coverage == 1:
            return float("inf")
        raise ValueError("coverage must be in [0, 1]")
    return mtbf / (1.0 - prediction_coverage)


@dataclass
class PolicyOutcome:
    """Monte-Carlo result for one fault-tolerance policy."""

    policy: str
    interval: float
    useful_seconds: float
    wall_seconds: float
    n_checkpoints: int
    n_rollbacks: int
    n_migrations: int

    @property
    def efficiency(self) -> float:
        return self.useful_seconds / self.wall_seconds

    @property
    def waste_fraction(self) -> float:
        return 1.0 - self.efficiency


def simulate_policy(work_seconds: float, checkpoint_cost: float,
                    restart_cost: float, mtbf: float,
                    prediction_coverage: float, migration_cost: float,
                    interval: Optional[float] = None,
                    rng: Optional[np.random.Generator] = None,
                    policy: str = "cr+migration") -> PolicyOutcome:
    """Monte-Carlo a long job under exponential node failures.

    ``prediction_coverage`` of failures are caught early enough to migrate
    (costing ``migration_cost`` but no rollback); the rest roll the job
    back to the last checkpoint and pay ``restart_cost``.  The checkpoint
    ``interval`` defaults to the Daly optimum for the policy's *effective*
    MTBF — which is exactly the "prolonged interval" the paper anticipates.
    """
    rng = rng or np.random.default_rng(0)
    coverage = prediction_coverage if policy == "cr+migration" else 0.0
    m_eff = effective_mtbf(mtbf, coverage)
    if interval is None:
        interval = daly_interval(checkpoint_cost, m_eff)

    wall = 0.0
    useful = 0.0
    since_ckpt = 0.0
    n_ckpt = n_roll = n_mig = 0
    next_failure = rng.exponential(mtbf)

    def advance(duration: float, productive: bool) -> bool:
        """Advance wall-clock; returns False if a failure interrupts."""
        nonlocal wall, useful, since_ckpt, next_failure
        if wall + duration < next_failure:
            wall += duration
            if productive:
                useful += duration
                since_ckpt += duration
            return True
        # A failure lands inside this span.
        done = next_failure - wall
        wall = next_failure
        if productive:
            useful += done
            since_ckpt += done
        next_failure = wall + rng.exponential(mtbf)
        return False

    while useful < work_seconds:
        span = min(interval - since_ckpt, work_seconds - useful)
        ok = advance(span, productive=True)
        if not ok:
            if rng.random() < coverage:
                # Predicted: proactive migration, no rollback.
                n_mig += 1
                wall += migration_cost
            else:
                n_roll += 1
                useful -= since_ckpt  # roll back to last checkpoint
                since_ckpt = 0.0
                wall += restart_cost
            continue
        if since_ckpt >= interval - 1e-9 and useful < work_seconds:
            if advance(checkpoint_cost, productive=False):
                since_ckpt = 0.0
                n_ckpt += 1
            else:
                # Failure mid-checkpoint: treat as unpredicted rollback.
                n_roll += 1
                useful -= since_ckpt
                since_ckpt = 0.0
                wall += restart_cost
    return PolicyOutcome(policy=policy, interval=interval,
                         useful_seconds=useful, wall_seconds=wall,
                         n_checkpoints=n_ckpt, n_rollbacks=n_roll,
                         n_migrations=n_mig)
