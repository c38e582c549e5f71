"""Tests for the checkpoint-interval policy model (future work, Sec. VI)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    daly_interval,
    effective_mtbf,
    simulate_policy,
)


# ----------------------------------------------------------------- formulas
def test_daly_matches_young_in_small_delta_regime():
    delta, mtbf = 10.0, 24 * 3600.0
    young = math.sqrt(2 * delta * mtbf) - delta
    assert daly_interval(delta, mtbf) == pytest.approx(young, rel=0.05)


def test_daly_interval_monotone_in_mtbf():
    taus = [daly_interval(30.0, m) for m in (1e3, 1e4, 1e5, 1e6)]
    assert taus == sorted(taus)


def test_daly_validation():
    with pytest.raises(ValueError):
        daly_interval(0, 100)
    with pytest.raises(ValueError):
        daly_interval(10, -1)


def test_effective_mtbf():
    assert effective_mtbf(1000.0, 0.0) == 1000.0
    assert effective_mtbf(1000.0, 0.5) == 2000.0
    assert effective_mtbf(1000.0, 0.9) == pytest.approx(10000.0)
    assert effective_mtbf(1000.0, 1.0) == float("inf")
    with pytest.raises(ValueError):
        effective_mtbf(1000.0, 1.5)


@given(coverage=st.floats(min_value=0.0, max_value=0.95),
       delta=st.floats(min_value=1.0, max_value=100.0),
       mtbf=st.floats(min_value=1e3, max_value=1e6))
@settings(max_examples=80)
def test_prediction_always_stretches_optimal_interval(coverage, delta, mtbf):
    """The paper's expectation: any prediction coverage lets the job
    checkpoint less often."""
    base = daly_interval(delta, mtbf)
    stretched = daly_interval(delta, effective_mtbf(mtbf, coverage))
    assert stretched >= base * 0.999


# ------------------------------------------------------------- Monte Carlo
def run(coverage, policy="cr+migration", seed=1, mtbf=5_000.0):
    return simulate_policy(work_seconds=200_000.0, checkpoint_cost=26.5,
                           restart_cost=12.0, mtbf=mtbf,
                           prediction_coverage=coverage,
                           migration_cost=6.1, policy=policy,
                           rng=np.random.default_rng(seed))


def test_simulation_conserves_work():
    out = run(0.7)
    assert out.useful_seconds == pytest.approx(200_000.0, abs=1.0)
    assert out.wall_seconds > out.useful_seconds
    assert out.n_checkpoints > 0


def test_migration_policy_beats_cr_only():
    """The headline of the future-work study: with decent prediction
    coverage, proactive migration + stretched intervals wastes less time."""
    cr_only = run(0.0, policy="cr-only")
    hybrid = run(0.7, policy="cr+migration")
    assert hybrid.efficiency > cr_only.efficiency
    assert hybrid.interval > cr_only.interval  # the interval stretched
    assert hybrid.n_rollbacks < cr_only.n_rollbacks
    assert hybrid.n_migrations > 0


def test_zero_coverage_hybrid_equals_cr_only():
    a = run(0.0, policy="cr+migration", seed=3)
    b = run(0.0, policy="cr-only", seed=3)
    assert a.efficiency == pytest.approx(b.efficiency)
    assert a.interval == pytest.approx(b.interval)


def test_higher_coverage_monotonically_helps():
    effs = [run(c, seed=5).efficiency for c in (0.0, 0.5, 0.9)]
    assert effs[0] < effs[2]
    assert effs[1] <= effs[2] + 0.01  # allow MC noise in the middle


def test_outcome_properties():
    out = run(0.5)
    assert 0 < out.efficiency < 1
    assert out.waste_fraction == pytest.approx(1 - out.efficiency)
