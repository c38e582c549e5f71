"""Tests for the RDMA buffer-pool migration session (the core mechanism)."""

import numpy as np
import pytest

from repro.blcr import CheckpointEngine, CheckpointImage
from repro.cluster import Cluster, OSProcess
from repro.core import RDMAMigrationSession
from repro.pipeline import SINKS
from repro.network import RemoteKeyError
from repro.params import MigrationParams, MB
from repro.simulate import Simulator


def make(record_data=True, params=None):
    sim = Simulator()
    cluster = Cluster(sim, n_compute=1, n_spare=1, record_data=record_data)
    target = cluster.node("spare0")
    session = RDMAMigrationSession(sim, cluster, cluster.node("node0"),
                                   target, SINKS["file"](sim, target),
                                   params=params)
    return sim, cluster, session


def migrate_procs(sim, cluster, session, procs):
    engine = CheckpointEngine(sim, "node0", net=cluster.net)

    def run(sim):
        yield from session.setup(expected_procs=len(procs))
        sink = session.sink()
        workers = [sim.spawn(engine.checkpoint(
            p, sink, chunk_bytes=session.params.chunk_size)) for p in procs]
        yield sim.all_of(workers)
        yield session.done
        return session

    p = sim.spawn(run(sim))
    sim.run(until=p)
    return session


def test_single_process_byte_exact_reassembly():
    sim, cluster, session = make(record_data=True)
    proc = OSProcess.synthetic("rank0", "node0", image_bytes=3 * MB + 12345,
                               record_data=True,
                               rng=np.random.default_rng(9))
    proc.app_state["iteration"] = 42
    src_sum = CheckpointImage.snapshot(proc).checksum()
    migrate_procs(sim, cluster, session, [proc])

    # Metadata (BLCR header) arrives with the final marker.
    path = "/tmp/migrate/rank0.ckpt"
    meta = session.target_sink.metadata[path]
    assert meta.nbytes == proc.image_bytes
    assert meta.app_state["iteration"] == 42
    # The temp file at the target holds the exact bytes.
    target_fs = cluster.node("spare0").fs
    assert target_fs.size(path) == proc.image_bytes
    payload = bytes(target_fs.files[path].data)
    rebuilt = CheckpointImage(meta.proc_name, meta.origin_node, meta.layout,
                              meta.app_state, payload)
    assert rebuilt.checksum() == src_sum


def test_multi_process_aggregation_interleaves_without_mixing():
    """Chunks from 4 processes interleave in the shared pool; every stream
    must reassemble byte-exactly — the paper's aggregation correctness."""
    sim, cluster, session = make(record_data=True)
    procs = [OSProcess.synthetic(f"rank{i}", "node0",
                                 image_bytes=MB + i * 7777, record_data=True,
                                 rng=np.random.default_rng(i))
             for i in range(4)]
    sums = {p.name: CheckpointImage.snapshot(p).checksum() for p in procs}
    migrate_procs(sim, cluster, session, procs)
    target_fs = cluster.node("spare0").fs
    for p in procs:
        path = f"/tmp/migrate/{p.name}.ckpt"
        meta = session.target_sink.metadata[path]
        payload = bytes(target_fs.files[path].data)
        rebuilt = CheckpointImage(meta.proc_name, meta.origin_node,
                                  meta.layout, meta.app_state, payload)
        assert rebuilt.checksum() == sums[p.name], f"corrupt stream {p.name}"


def test_accounting_matches_image_sizes():
    sim, cluster, session = make(record_data=False)
    procs = [OSProcess.synthetic(f"r{i}", "node0", image_bytes=2 * MB)
             for i in range(3)]
    migrate_procs(sim, cluster, session, procs)
    assert session.bytes_pulled == sum(p.image_bytes for p in procs)
    assert session.chunks_pulled == sum(
        -(-p.image_bytes // session.params.chunk_size) for p in procs)


def test_pool_backpressure_bounds_pinned_memory():
    """A 2-chunk pool must still complete (just slower), with at most
    pool_size bytes in flight."""
    params = MigrationParams(buffer_pool_size=2 * MB, chunk_size=1 * MB)
    sim, cluster, session = make(record_data=False, params=params)
    assert session.n_chunks == 2
    procs = [OSProcess.synthetic(f"r{i}", "node0", image_bytes=5 * MB)
             for i in range(2)]
    migrate_procs(sim, cluster, session, procs)
    assert session.bytes_pulled == 10 * MB


def test_chunk_size_must_fit_pool():
    sim = Simulator()
    cluster = Cluster(sim, n_compute=1, n_spare=1)
    target = cluster.node("spare0")
    with pytest.raises(ValueError):
        RDMAMigrationSession(sim, cluster, cluster.node("node0"), target,
                             SINKS["file"](sim, target),
                             params=MigrationParams(buffer_pool_size=MB,
                                                    chunk_size=2 * MB))


def test_oversized_checkpoint_chunk_rejected():
    sim, cluster, session = make(record_data=False)
    proc = OSProcess.synthetic("r0", "node0", image_bytes=4 * MB)
    engine = CheckpointEngine(sim, "node0", net=cluster.net)

    def run(sim):
        yield from session.setup(expected_procs=1)
        with pytest.raises(ValueError, match="chunk size"):
            # Drive the engine with chunks bigger than the pool's chunk.
            yield from engine.checkpoint(proc, session.sink(),
                                         chunk_bytes=2 * MB)

    p = sim.spawn(run(sim))
    sim.run(until=p)


def test_teardown_unparks_both_pumps():
    """Regression: destroy() used to flush only the source QP's receives,
    so the target pump stayed parked on the dst CQ forever — one leaked
    process per migration."""
    sim, cluster, session = make(record_data=False)
    proc = OSProcess.synthetic("r0", "node0", image_bytes=MB)
    migrate_procs(sim, cluster, session, [proc])
    assert [p.name for p in session._pumps if p.is_alive] == [
        "mig-target-pump", "mig-release-pump"]
    session.teardown()
    sim.run()  # drains the flush completions and the teardown check
    assert [p.name for p in session._pumps if p.is_alive] == []


def test_full_migration_leaks_no_processes():
    """Counts live simulator processes around a complete migrate() cycle.

    Long-lived populations (per-rank C/R threads, channel demux pumps) are
    allowed to persist — torn-down channels are replaced one-for-one at
    resume — but the count must not grow, and none of the migration
    session's own processes (``mig-*``) may survive the cycle."""
    from repro import Scenario

    sc = Scenario.build(app="LU.C", nprocs=4, n_compute=2, n_spare=1,
                        iterations=2)
    sc.sim.run(until=sc.job.completion())
    before = sc.sim.live_processes()

    def fire(sim):
        yield from sc.framework.migrate("node1")

    p = sc.sim.spawn(fire(sc.sim))
    sc.sim.run(until=p)
    sc.sim.run()  # let every transient of the cycle drain
    after = sc.sim.live_processes()
    parked_pumps = [q.name for q in after if q.name.startswith("mig-")]
    assert parked_pumps == [], f"session processes leaked: {parked_pumps}"
    assert len(after) <= len(before), (
        f"live process count grew across migrate(): "
        f"{len(before)} -> {len(after)}: {[q.name for q in after]}")


def test_finish_proc_parks_instead_of_polling():
    """The finalize path must park on an event signalled by the last chunk
    pull.  With the final marker 10 simulated seconds ahead of the data,
    the old 1e-4 s polling loop would push ~100k events through the
    calendar; the event-based path stays in the hundreds."""
    from repro.blcr import CheckpointImage

    params = MigrationParams()
    sim, cluster, session = make(record_data=False, params=params)
    chunk = params.chunk_size
    proc = OSProcess.synthetic("r0", "node0", image_bytes=chunk)
    image = CheckpointImage.snapshot(proc)

    def drive(sim):
        yield from session.setup(expected_procs=1)
        sink = session.sink()
        # Finalize overtakes the data by a long stretch.
        yield from sink.finalize(image)
        yield sim.timeout(10.0)
        yield from sink.write(image, 0, chunk, None)
        yield session.done

    p = sim.spawn(drive(sim))
    sim.run(until=p)
    events_processed = sim.events_processed
    assert sim.now > 10.0
    assert events_processed < 5000, (
        f"{events_processed} events for one chunk + a 10 s finalize wait "
        "looks like busy-polling")


def test_teardown_revokes_rkeys():
    sim, cluster, session = make(record_data=False)
    proc = OSProcess.synthetic("r0", "node0", image_bytes=MB)
    migrate_procs(sim, cluster, session, [proc])
    rkey = session.src_mr.rkey
    session.teardown()
    with pytest.raises(RemoteKeyError):
        cluster.node("node0").hca.lookup_rkey(rkey)


def test_setup_validation():
    sim, cluster, session = make()

    def run(sim):
        with pytest.raises(ValueError):
            yield from session.setup(expected_procs=0)

    p = sim.spawn(run(sim))
    sim.run(until=p)


def test_transfer_time_scales_with_image_size():
    def t_for(nbytes):
        sim, cluster, session = make(record_data=False)
        proc = OSProcess.synthetic("r0", "node0", image_bytes=nbytes)
        migrate_procs(sim, cluster, session, [proc])
        return sim.now

    assert t_for(64 * MB) > 3 * t_for(8 * MB)


def test_rdma_pull_is_one_sided():
    """During Phase 2 pulls, no completion ever lands on a CQ owned by a
    *source-side* application process — only the buffer managers talk."""
    sim, cluster, session = make(record_data=False)
    proc = OSProcess.synthetic("r0", "node0", image_bytes=2 * MB)
    migrate_procs(sim, cluster, session, [proc])
    # The source QP's CQ saw only its own send completions + releases,
    # never RDMA_READ completions (those are local to the target).
    # Structural check: rdma_read bytes were accounted at the fabric level.
    assert cluster.ib.bytes_moved.get("rdma_read", 0) == pytest.approx(2 * MB)
