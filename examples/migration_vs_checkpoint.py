#!/usr/bin/env python3
"""Job Migration vs Checkpoint/Restart — the paper's Figure 7 head-to-head.

For one application (default BT.C x 64), measures the cost of handling a
node failure three ways:

* the proposed RDMA-based Job Migration (move 8 ranks to the spare);
* full-job Checkpoint/Restart to node-local ext3;
* full-job Checkpoint/Restart to shared PVFS (4 servers, 1 MB stripes).

Prints the per-phase stacks and the speedup headline (the paper reports
4.49x for LU.C.64 against CR-to-PVFS).

Run:  python examples/migration_vs_checkpoint.py [APP]   (APP in LU.C BT.C SP.C)
"""

import sys

from repro.analysis import render_stacked, render_table
from repro.experiments import FIG7, fig7_row


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "BT.C"
    print(f"Handling one node failure for {app}.64 on 8 nodes + 1 spare\n")

    results = {kind: run.execute() for kind, run in FIG7[app].items()}
    row = fig7_row(results)
    rows = {"Migration": row["migration"],
            "CR(ext3)": row["cr_ext3"], "CR(PVFS)": row["cr_pvfs"]}
    print(render_table(f"Failure handling cost, {app}.64 (cf. Figure 7)", rows))
    print()
    print(render_stacked(f"{app}.64 — stacked phases", {
        k: {kk: vv for kk, vv in v.items() if kk != "Total"}
        for k, v in rows.items()}))

    ckpt_pvfs, _ = results["cr_pvfs"]
    print(f"\nData moved (cf. Table I): migration "
          f"{results['migration'].bytes_migrated / 1e6:.1f} MB vs CR "
          f"{ckpt_pvfs.bytes_written / 1e6:.1f} MB")
    print(f"Speedup over CR(ext3): {row['speedup_ext3']:.2f}x")
    print(f"Speedup over CR(PVFS): {row['speedup_pvfs']:.2f}x "
          f"(paper: 4.49x for LU.C.64)")


if __name__ == "__main__":
    main()
