"""Tests for incremental (dirty-segment) checkpointing."""

import numpy as np
import pytest

from repro import Scenario
from repro.blcr import CheckpointEngine, CheckpointImage, MemorySink
from repro.cluster import OSProcess
from repro.simulate import Simulator


# ------------------------------------------------------------ dirty tracking
def test_segments_born_dirty_and_mark_clean():
    proc = OSProcess.synthetic("p", "n0", image_bytes=100_000)
    assert proc.dirty_bytes == proc.image_bytes
    proc.mark_clean()
    assert proc.dirty_bytes == 0
    proc.touch(["heap"])
    heap = next(s for s in proc.segments if s.name == "heap")
    assert proc.dirty_bytes == heap.nbytes
    proc.touch()
    assert proc.dirty_bytes == proc.image_bytes


def test_delta_snapshot_captures_only_dirty():
    proc = OSProcess.synthetic("p", "n0", image_bytes=200_000,
                               record_data=True,
                               rng=np.random.default_rng(7))
    proc.mark_clean()
    proc.touch(["stack"])
    delta = CheckpointImage.snapshot(proc, dirty_only=True)
    assert [n for n, _ in delta.layout] == ["stack"]
    assert delta.nbytes == next(s.nbytes for s in proc.segments
                                if s.name == "stack")


def test_merge_folds_delta_over_base():
    proc = OSProcess.synthetic("p", "n0", image_bytes=50_000,
                               record_data=True,
                               rng=np.random.default_rng(6))
    base = CheckpointImage.snapshot(proc)
    # Mutate the heap, capture the delta, merge.
    heap = next(s for s in proc.segments if s.name == "heap")
    proc.mark_clean()
    heap.data[:] = 7
    heap.dirty = True
    proc.app_state["iter"] = 99
    delta = CheckpointImage.snapshot(proc, dirty_only=True)
    merged = CheckpointImage.merge(base, delta)
    assert merged.nbytes == base.nbytes
    assert merged.app_state["iter"] == 99
    restored = merged.materialize("spare0")
    np.testing.assert_array_equal(
        next(s for s in restored.segments if s.name == "heap").data,
        heap.data)
    # Untouched segments keep the base content.
    np.testing.assert_array_equal(
        next(s for s in restored.segments if s.name == "text").data,
        next(s for s in proc.segments if s.name == "text").data)


def test_merge_validation():
    a = CheckpointImage("a", "n", [("s", 4)], {}, None)
    b = CheckpointImage("b", "n", [("s", 4)], {}, None)
    with pytest.raises(ValueError, match="across processes"):
        CheckpointImage.merge(a, b)
    alien = CheckpointImage("a", "n", [("zzz", 4)], {}, None)
    with pytest.raises(ValueError, match="unknown"):
        CheckpointImage.merge(a, alien)


def test_engine_incremental_streams_fewer_bytes():
    sim = Simulator()
    engine = CheckpointEngine(sim, "n0")
    proc = OSProcess.synthetic("p", "n0", image_bytes=10_000_000)

    def run(sim):
        full_sink = MemorySink(sim)
        yield from engine.checkpoint(proc, full_sink)
        proc.touch(["stack"])
        delta_sink = MemorySink(sim)
        yield from engine.checkpoint(proc, delta_sink, incremental=True)
        return full_sink.bytes_received, delta_sink.bytes_received

    p = sim.spawn(run(sim))
    sim.run()
    full_bytes, delta_bytes = p.value
    assert full_bytes == 10_000_000
    assert delta_bytes < full_bytes / 5


# ------------------------------------------------------- strategy integration
def scenario(**kw):
    defaults = dict(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                    iterations=8, record_data=True)
    defaults.update(kw)
    return Scenario.build(**defaults)


def drive_epochs(sc, strat, n_epochs, with_restart=True):
    def drive(sim):
        reports = []
        for _ in range(n_epochs):
            reports.append((yield from strat.checkpoint()))
            yield sim.timeout(0.2)
        res = (yield from strat.restart()) if with_restart else None
        return reports, res

    return sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))


def test_incremental_epochs_write_less_after_first():
    sc = scenario(record_data=False)
    sc.sim.run(until=sc.job.completion())  # quiescent app: nothing re-dirties
    strat = sc.cr_strategy("ext3")
    strat.incremental = True
    reports, res = drive_epochs(sc, strat, 3)
    assert reports[0].bytes_written > 0
    assert reports[1].bytes_written == 0  # nothing dirtied between epochs
    assert reports[2].bytes_written == 0
    # Restart reads the whole chain: full + two (empty) deltas.
    assert res.bytes_read == pytest.approx(reports[0].bytes_written)


def test_incremental_restart_restores_exact_state():
    sc = scenario()
    sc.sim.run(until=sc.job.completion())
    strat = sc.cr_strategy("ext3")
    strat.incremental = True

    def drive(sim):
        yield from strat.checkpoint()          # full
        # Mutate heap state between epochs.
        for r in sc.job.ranks:
            heap = next(s for s in r.osproc.segments if s.name == "heap")
            if heap.data is not None:
                heap.data[:17] = 255
            heap.dirty = True
            r.osproc.app_state["generation"] = 2
        yield from strat.checkpoint()          # delta
        wanted = {r.rank: CheckpointImage.snapshot(r.osproc).checksum()
                  for r in sc.job.ranks}
        # Scribble over live memory, then restore from the chain.
        for r in sc.job.ranks:
            for seg in r.osproc.segments:
                if seg.data is not None:
                    seg.data[:] = 0
        yield from strat.restart()
        return wanted

    wanted = sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))
    for r in sc.job.ranks:
        assert CheckpointImage.snapshot(r.osproc).checksum() == wanted[r.rank]
        assert r.osproc.app_state["generation"] == 2


def test_npb_redirties_heap_each_iteration():
    sc = scenario(record_data=False, iterations=4)
    strat = sc.cr_strategy("ext3")
    strat.incremental = True

    def drive(sim):
        yield sim.timeout(0.5)
        first = yield from strat.checkpoint()
        # Wait long enough for at least one full iteration to complete
        # (iteration time scales with 1/nprocs at this small test size).
        yield sim.timeout(sc.app.iteration_seconds * 1.5)
        second = yield from strat.checkpoint()
        return first, second

    first, second = sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))
    assert second.bytes_written > 0         # heap+stack re-dirtied
    assert second.bytes_written < first.bytes_written  # text/data stay clean
