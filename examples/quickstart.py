#!/usr/bin/env python3
"""Quickstart: one RDMA-based job migration on the paper's testbed.

Builds the CLUSTER 2010 evaluation setup — NPB LU class C, 64 ranks on
8 compute nodes, one hot spare, DDR InfiniBand — fires a user-requested
migration of node3's eight processes to the spare, and prints the
four-phase breakdown the paper plots in Figure 4.

Run:  python examples/quickstart.py
"""

from repro import Scenario
from repro.analysis import render_table


def main() -> None:
    print("Building the testbed: 8 compute nodes + 1 spare, LU.C x 64 ranks")
    # A short iteration budget keeps the demo snappy; migration timings are
    # independent of how long the app would keep running afterwards.
    scenario = Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                              iterations=40)

    print("Running the application, then migrating node3 -> spare0 at t=5s\n")
    report = scenario.run_migration("node3", at=5.0, reason="user")

    print(render_table(
        "Migration cycle (cf. paper Figure 4, LU.C.64)",
        {"LU.C.64": report.as_row()}))
    print()
    print(f"Data migrated : {report.bytes_migrated / 1e6:8.1f} MB "
          f"(paper Table I: 170.4 MB)")
    print(f"Chunks pulled : {report.chunks_transferred:8d} "
          f"(1 MB chunks from a 10 MB pool)")
    print(f"Total cycle   : {report.total_seconds:8.2f} s "
          f"(paper: ~6.3 s)")

    # Let the application run on and confirm it completes on the new node.
    scenario.sim.run(until=scenario.job.completion())
    hosts = sorted({r.node.name for r in scenario.job.ranks})
    print(f"\nApplication finished at t={scenario.sim.now:.1f}s on {hosts}")
    migrated = scenario.job.ranks_on("spare0")
    print(f"Ranks now on spare0: {[r.rank for r in migrated]}")


if __name__ == "__main__":
    main()
