"""Unit tests for the pipeline's stage tables."""

import pytest

from repro.blcr import FileSink, MemorySink
from repro.cluster import Cluster
from repro.pipeline import SINKS, TRANSPORTS, check_stage_names
from repro.simulate import Simulator


def spare(sim):
    return Cluster(sim, n_compute=1, n_spare=1).node("spare0")


# -------------------------------------------------------- stage tables
def test_registry_names():
    assert list(SINKS) == ["file", "memory"]
    assert list(TRANSPORTS) == ["rdma", "tcp", "ipoib", "staging"]


def test_registry_rejects_unknown_sink():
    with pytest.raises(ValueError, match="unknown restart mode 'tape'"):
        check_stage_names("rdma", "tape")


def test_registry_rejects_unknown_transport():
    with pytest.raises(ValueError, match="unknown transport 'pigeon'"):
        check_stage_names("pigeon", "file")


def test_registry_builds_each_sink_kind():
    """Both restart modes land images through BLCR's own sinks; the file
    mode's temp files sit unsynced in the target's page cache."""
    sim = Simulator()
    target = spare(sim)
    file_sink = SINKS["file"](sim, target)
    assert type(file_sink) is FileSink
    assert (file_sink.fs, file_sink.path_prefix, file_sink.fsync,
            file_sink.through_cache) == (target.fs, "/tmp/migrate", False,
                                         True)
    assert type(SINKS["memory"](sim, target)) is MemorySink


def test_registry_builds_restart_engine():
    """The restart stage is the target NLA's own engine, built for its
    node when the Job Manager starts the NLA."""
    from repro.blcr.restart import RestartEngine
    from repro.ftb import FTBBackplane
    from repro.launch import JobManager

    sim = Simulator()
    cluster = Cluster(sim, n_compute=1, n_spare=1)
    backplane = FTBBackplane(sim, cluster.eth, list(cluster.nodes),
                             root_node="login")
    engine = JobManager(sim, cluster, backplane).nla("spare0").restart_engine
    assert type(engine) is RestartEngine
    assert engine.node_name == "spare0"
