"""Every sanitizer law catches a model bug seeded into production code.

Each case monkeypatches one bug into a small LU.C migration — the bug
the law exists for, and one no other test notices (the seed table in
``docs/sanitizer.md`` lists what else was tried).  The law must fire on
the live run, and again replaying the exported ``trace.jsonl``, so a
violation CI finds offline is one a live run finds too.  Dropping a rule
from ``default_rules()`` fails its case here.
"""

import pytest

from repro.analysis import write_jsonl
from repro.core.buffer_manager import RDMAMigrationSession
from repro.core.framework import JobMigrationFramework
from repro.ftb.client import FTBClient
from repro.ftb.events import FTB_MIGRATE_PIIC, FTB_RESTART
from repro.sanitize import TraceChecker, check_jsonl, live_checks
from repro.scenario import Scenario
from repro.simulate.trace import Tracer


def _teardown_without(attr):
    """Session teardown that forgets the QP or MR named ``attr``."""
    teardown = RDMAMigrationSession.teardown

    def seeded(self):
        setattr(self, attr, None)
        teardown(self)
    return seeded


def _announcements_swapped():
    """FTB clients publish RESTART where PIIC belongs, and vice versa."""
    publish = FTBClient.publish
    swap = {FTB_MIGRATE_PIIC: FTB_RESTART, FTB_RESTART: FTB_MIGRATE_PIIC}

    def seeded(self, event_name, payload=None, severity="INFO"):
        return publish(self, swap.get(event_name, event_name), payload,
                       severity)
    return seeded


def _restart_spawned_before_ready(self, session, sink, target_nla, n):
    """``JobMigrationFramework._watch_completions`` with the pipelined
    restart spawned a step before its process is declared ready."""
    workers = {}
    for _ in range(n):
        proc = yield session.completions.get()
        workers[proc] = self.sim.spawn(
            self._restart_one(session, sink, target_nla, proc),
            name=f"pipeline-restart.{proc}")
        yield self.sim.timeout(0)
        self.sim.trace.record(self.sim.now, "pipeline.proc.ready", proc=proc,
                              node=target_nla.node.name,
                              sink=self.restart_mode)
    return workers


#: law -> (patched class, attribute, seeded replacement, restart mode,
#: whether the law is a trace rule that replays offline).
SEEDS = {
    "QPLifecycleRule": (RDMAMigrationSession, "teardown",
                        _teardown_without("dst_qp"), "file", True),
    "PhaseOrderRule": (FTBClient, "publish", _announcements_swapped(),
                       "file", True),
    "PipelineStageOrderRule": (JobMigrationFramework, "_watch_completions",
                               _restart_spawned_before_ready, "memory", True),
    "SessionRule": (RDMAMigrationSession, "teardown", lambda self: None,
                    "file", True),
    # The pinned-MR law reads the HCAs, not the trace: live only.
    "LiveStateRule": (RDMAMigrationSession, "teardown",
                      _teardown_without("dst_mr"), "file", False),
}


@pytest.mark.parametrize("law", sorted(SEEDS))
def test_law_catches_its_seeded_bug(law, monkeypatch, tmp_path):
    cls, attr, seeded, restart_mode, replays = SEEDS[law]
    monkeypatch.setattr(cls, attr, seeded)
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=10, seed=0, trace=tracer,
                        restart_mode=restart_mode)
    sc.run_migration("node1", at=5.0)
    sc.run_to_completion()
    live = TraceChecker.check_trace(tracer) + live_checks(sc.sim, sc.cluster)
    assert law in {v.rule for v in live}, \
        "\n".join(v.render() for v in live)

    path = str(tmp_path / "trace.jsonl")
    write_jsonl(tracer, path)
    replayed = {v.rule for v in check_jsonl(path).violations}
    assert (law in replayed) == replays
