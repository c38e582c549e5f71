"""Reference values transcribed from the paper (CLUSTER 2010).

Exact numbers come from the text and Table I; figure-only values are read
off the plots and marked approximate.  Benches compare *shape* (who wins,
phase dominance, scaling direction, rough factors) rather than exact
wall-clock equality — our substrate is a calibrated simulator, not the
authors' testbed.
"""

# Table I — Amount of data movement (MB), exact.
TABLE1_MB = {
    "LU.C": {"migration": 170.4, "cr": 1363.2},
    "BT.C": {"migration": 308.8, "cr": 2470.4},
    "SP.C": {"migration": 303.2, "cr": 2425.6},
}

# Sec. IV-A / Figure 4 — migration cycle, 64 ranks on 8 nodes.
FIG4_TOTAL_S = {"LU.C": 6.3, "BT.C": 10.9, "SP.C": 10.0}   # LU exact (text)
FIG4_PHASE2_RANGE_S = (0.4, 0.8)                             # text: "0.4-0.8 s"

# Figure 5 — execution-time overhead of one migration (%), text-exact.
FIG5_OVERHEAD_PCT = {"LU.C": 3.9, "BT.C": 6.7, "SP.C": 4.6}
FIG5_BASE_RUNTIME_S = {"LU.C": 162.0, "BT.C": 158.0, "SP.C": 212.0}  # approx

# Figure 6 — LU.C on 8 nodes, ranks/node sweep (approx, read off plot).
FIG6_TOTAL_S = {1: 3.6, 2: 4.2, 4: 5.1, 8: 6.3}

# Sec. IV-C / Figure 7 — CR phases (text-exact where quoted).
FIG7 = {
    "LU.C": {
        "ckpt_ext3": 6.4, "ckpt_pvfs": 16.3,
        "cycle_ext3": 12.9, "cycle_pvfs": 28.3,   # full CR cycles (text)
        "migration_total": 6.3,
    },
    "BT.C": {
        "ckpt_ext3": 7.5, "ckpt_pvfs": 23.4,
        "restart_ext3": 9.1, "restart_pvfs": 20.1,
    },
}
HEADLINE_SPEEDUP_PVFS = 4.49   # LU.C.64 (text)
HEADLINE_SPEEDUP_EXT3 = 2.03   # LU.C.64 (text)
CKPT_ONLY_SPEEDUP_PVFS = 2.58  # LU.C.64, vs the checkpoint alone (text)
