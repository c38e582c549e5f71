"""Tests for the NPB skeletons."""

import pytest

from repro.cluster import Cluster
from repro.params import MB, NPB_TABLE
from repro.simulate import Simulator
from repro.workloads import NPBApplication, grid_shape


# ---------------------------------------------------------------- sizing
@pytest.mark.parametrize("n,expected", [(1, (1, 1)), (4, (2, 2)),
                                        (8, (2, 4)), (64, (8, 8)),
                                        (6, (2, 3)), (7, (1, 7))])
def test_grid_shape(n, expected):
    assert grid_shape(n) == expected


@pytest.mark.parametrize("app,mb_per_rank", [("LU.C", 21.3), ("BT.C", 38.6),
                                             ("SP.C", 37.9)])
def test_image_sizes_match_table1_at_64_ranks(app, mb_per_rank):
    a = NPBApplication.named(app, 64)
    assert a.image_bytes_per_rank == pytest.approx(mb_per_rank * MB, rel=1e-3)
    # Table I totals: 64 ranks worth.
    assert 64 * a.image_bytes_per_rank == pytest.approx(
        {"LU.C": 1363.2, "BT.C": 2470.4, "SP.C": 2425.6}[app] * MB, rel=1e-3)


def test_image_grows_as_ranks_shrink():
    sizes = [NPBApplication.named("LU.C", n).image_bytes_per_rank
             for n in (8, 16, 32, 64)]
    assert sizes == sorted(sizes, reverse=True)


def test_expected_runtimes_near_paper():
    for app, target in (("LU.C", 162.0), ("BT.C", 158.0), ("SP.C", 212.0)):
        a = NPBApplication.named(app, 64)
        assert a.expected_runtime() == pytest.approx(target, rel=0.15)


def test_unknown_app_rejected():
    with pytest.raises(KeyError, match="unknown NPB"):
        NPBApplication.named("FT.C", 64)
    with pytest.raises(ValueError):
        NPBApplication(NPB_TABLE["LU.C"], 0)


# ------------------------------------------------------------- neighbours
def test_wavefront_neighbours_are_grid():
    a = NPBApplication.named("LU.C", 16)  # 4x4 grid
    pairs = a.neighbours(5)  # x=1,y=1
    sends = [s for s, _ in pairs]
    assert 6 in sends  # east
    assert 9 in sends  # south


def test_multipartition_neighbours_are_rings():
    a = NPBApplication.named("BT.C", 16)
    pairs = a.neighbours(0)
    assert (1, 15) in pairs  # stride-1 ring


def test_single_rank_has_no_neighbours():
    a = NPBApplication.named("LU.C", 1)
    assert a.neighbours(0) == []


def test_neighbour_relation_is_consistent():
    """If A sends to B in direction d, B receives from A in direction d."""
    for app in ("LU.C", "BT.C"):
        a = NPBApplication.named(app, 16)
        for r in range(16):
            for d, (send_to, _) in enumerate(a.neighbours(r)):
                recv_from = a.neighbours(send_to)[d][1]
                assert recv_from == r, (app, r, d)


# ----------------------------------------------------------------- running
def test_npb_run_completes_and_tracks_iteration():
    sim = Simulator()
    cluster = Cluster(sim, n_compute=2, n_spare=0)
    a = NPBApplication.named("LU.C", 8, iterations=5)
    job = a.make_job(sim, cluster)
    job.start(a.rank_main)
    sim.run(until=job.completion())
    for rank in job.ranks:
        assert rank.osproc.app_state["iteration"] == 5
        assert rank.osproc.app_state["app"] == "LU.C"
    # Everyone communicated.
    assert all(rk.bytes_sent > 0 for rk in job.ranks)


def test_npb_runtime_scales_with_iterations():
    def run(iters):
        sim = Simulator()
        cluster = Cluster(sim, n_compute=2, n_spare=0)
        a = NPBApplication.named("BT.C", 8, iterations=iters)
        job = a.make_job(sim, cluster)
        job.start(a.rank_main)
        sim.run(until=job.completion())
        return sim.now

    t5, t10 = run(5), run(10)
    assert t10 == pytest.approx(2 * t5, rel=0.1)


def test_npb_strong_scaling():
    """More ranks, shorter iterations (fixed total work)."""
    a8 = NPBApplication.named("SP.C", 8)
    a64 = NPBApplication.named("SP.C", 64)
    assert a8.iteration_seconds == pytest.approx(8 * a64.iteration_seconds)

