"""Property-based tests for the RDMA migration mechanism (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blcr import CheckpointEngine, CheckpointImage
from repro.cluster import Cluster, OSProcess, MemorySegment
from repro.core import RDMAMigrationSession
from repro.pipeline import SINKS
from repro.params import MB, MigrationParams
from repro.simulate import Simulator


def migrate(procs, params=None, record_data=True):
    sim = Simulator()
    cluster = Cluster(sim, n_compute=1, n_spare=1, record_data=record_data)
    target = cluster.node("spare0")
    session = RDMAMigrationSession(sim, cluster, cluster.node("node0"),
                                   target, SINKS["file"](sim, target),
                                   params=params)
    engine = CheckpointEngine(sim, "node0", net=cluster.net)

    def run(sim):
        yield from session.setup(expected_procs=len(procs))
        sink = session.sink()
        workers = [sim.spawn(engine.checkpoint(
            p, sink, chunk_bytes=session.params.chunk_size)) for p in procs]
        yield sim.all_of(workers)
        yield session.done

    p = sim.spawn(run(sim))
    sim.run(until=p)
    return sim, cluster, session


@given(layouts=st.lists(
    st.lists(st.integers(min_value=1, max_value=300_000),
             min_size=1, max_size=5),
    min_size=1, max_size=4),
    chunk_kb=st.sampled_from([64, 256, 1024]))
@settings(max_examples=12, deadline=None)
def test_arbitrary_layouts_reassemble_byte_exact(layouts, chunk_kb):
    """Any segment layout, any chunk size: the bytes that leave the source
    are the bytes that land in the target's temp files."""
    rng = np.random.default_rng(0)
    procs = []
    for i, seg_sizes in enumerate(layouts):
        proc = OSProcess(f"p{i}", "node0")
        for j, n in enumerate(seg_sizes):
            proc.add_segment(f"s{j}", n,
                             rng.integers(0, 256, n, dtype=np.uint8))
        procs.append(proc)
    snaps = {p.name: CheckpointImage.snapshot(p).checksum() for p in procs}
    params = MigrationParams(buffer_pool_size=10 * MB,
                             chunk_size=chunk_kb * 1024)
    sim, cluster, session = migrate(procs, params=params)
    fs = cluster.node("spare0").fs
    for p in procs:
        path = f"/tmp/migrate/{p.name}.ckpt"
        meta = session.target_sink.metadata[path]
        payload = bytes(fs.files[path].data)
        rebuilt = CheckpointImage(meta.proc_name, meta.origin_node,
                                  meta.layout, meta.app_state, payload)
        assert rebuilt.checksum() == snaps[p.name]


@given(sizes=st.lists(st.integers(min_value=1, max_value=20_000_000),
                      min_size=1, max_size=6))
@settings(max_examples=15, deadline=None)
def test_accounting_equals_sum_of_images(sizes):
    procs = [OSProcess.synthetic(f"p{i}", "node0", image_bytes=n)
             for i, n in enumerate(sizes)]
    sim, cluster, session = migrate(procs, record_data=False)
    assert session.bytes_pulled == sum(sizes)
    # Chunk count: ceil-division per process stream.
    chunk = session.params.chunk_size
    assert session.chunks_pulled == sum(-(-n // chunk) for n in sizes)


@given(pool_chunks=st.integers(min_value=1, max_value=12))
@settings(max_examples=10, deadline=None)
def test_any_pool_depth_completes(pool_chunks):
    """Backpressure must never deadlock, even with a single-chunk pool."""
    params = MigrationParams(buffer_pool_size=pool_chunks * MB,
                             chunk_size=1 * MB)
    procs = [OSProcess.synthetic(f"p{i}", "node0", image_bytes=3 * MB)
             for i in range(3)]
    sim, cluster, session = migrate(procs, params=params, record_data=False)
    assert session.bytes_pulled == 9 * MB
