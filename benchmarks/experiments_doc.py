"""Render EXPERIMENTS.md's measured tables from the pinned bench results.

Each generated table sits between a pair of marker comments,
``<!-- pinned:NAME -->`` and ``<!-- /pinned:NAME -->``.  The text between
them is rendered from ``benchmarks/baselines.json`` and the ``PAPER_*``
tables of :mod:`repro.experiments` alone, so the document quotes exactly
what ``repro bench`` pins.  After re-pinning, regenerate with::

    PYTHONPATH=src python -m benchmarks.experiments_doc
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Dict, List

from repro.analysis import atomic_write
from repro.experiments import (
    APPS,
    PAPER_CKPT_ONLY_SPEEDUP_PVFS,
    PAPER_FIG4_TOTAL_S,
    PAPER_FIG6_TOTAL_S,
    PAPER_SPEEDUP_EXT3,
    PAPER_SPEEDUP_PVFS,
    PAPER_TABLE1_MB,
    PPNS,
)

from .harness import default_baselines_path

__all__ = ["MARKER", "RENDERERS", "EXPERIMENTS_MD", "render", "main"]

EXPERIMENTS_MD = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "EXPERIMENTS.md")

MARKER = re.compile(r"(<!-- pinned:(?P<name>[\w-]+) -->\n)(.*?)"
                    r"(<!-- /pinned:(?P=name) -->)", re.S)

Pins = Dict[str, Dict[str, float]]

MIGRATION_PHASES = ("Job Stall", "Job Migration", "Restart", "Resume")
#: The Fig. 7 stack, shared by migration and CR (Checkpoint(Migration)
#: is the migration's Phase 2 or the CR dump).
CYCLE_PHASES = ("Job Stall", "Checkpoint(Migration)", "Resume", "Restart")


def _table(header: List[str], rows: List[List[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _phase_row(label: str, pins: Dict[str, float], prefix: str,
               phases: tuple) -> List[str]:
    return ([label] + [f"{pins[f'{prefix}.{p}']:.3f}" for p in phases]
            + [f"**{pins[f'{prefix}.Total']:.3f}**"])


def _migrations(pins: Dict[str, float], first: str,
                rows: List[tuple]) -> str:
    """Phase table of ``(label, pin prefix, paper total)`` migrations."""
    return _table([first, *MIGRATION_PHASES, "Total (s)", "paper total"],
                  [_phase_row(label, pins, prefix, MIGRATION_PHASES)
                   + [f"{paper:.1f}"] for label, prefix, paper in rows])


def _fig4(pins: Pins) -> str:
    return _migrations(pins["fig4"], "", [
        (f"{app}.64", app, PAPER_FIG4_TOTAL_S[app]) for app in APPS])


def _fig6(pins: Pins) -> str:
    return _migrations(pins["fig6"], "ranks/node", [
        (f"{ppn} ({8 * ppn} ranks)", f"ppn{ppn}", PAPER_FIG6_TOTAL_S[ppn])
        for ppn in PPNS])


def _fig7(pins: Pins) -> str:
    header = ["", *CYCLE_PHASES, "Total (s)"]
    blocks = []
    for app in APPS:
        rows = [_phase_row(label, pins["fig7"], f"{app}.{kind}",
                           CYCLE_PHASES)
                for label, kind in (("Migration", "migration"),
                                    ("CR(ext3)", "cr_ext3"),
                                    ("CR(PVFS)", "cr_pvfs"))]
        blocks.append(f"**{app}.64**\n\n" + _table(header, rows))
    return "\n".join(blocks)


def _headline(pins: Pins) -> str:
    fig7 = pins["fig7"]
    ckpt_only = fig7["LU.C.cr_pvfs.Total"] - fig7["LU.C.cr_pvfs.Restart"]
    rows = [
        ["Migration vs full CR(PVFS) cycle",
         f"**{fig7['LU.C.speedup_pvfs']:.2f}×**",
         f"{PAPER_SPEEDUP_PVFS}×"],
        ["Migration vs full CR(ext3) cycle",
         f"**{fig7['LU.C.speedup_ext3']:.2f}×**",
         f"{PAPER_SPEEDUP_EXT3}×"],
        ["Migration vs checkpoint-to-PVFS only",
         f"**{ckpt_only / fig7['LU.C.migration.Total']:.2f}×**",
         f"{PAPER_CKPT_ONLY_SPEEDUP_PVFS}×"],
    ]
    return _table(["", "measured", "paper"], rows)


def _table1(pins: Pins) -> str:
    table1 = pins["table1"]
    rows = [[f"{app}.64",
             f"{table1[f'{app}.migration_mb']:.1f}",
             f"{PAPER_TABLE1_MB[app]['migration']:.1f}",
             f"{table1[f'{app}.cr_mb']:.1f}",
             f"{PAPER_TABLE1_MB[app]['cr']:.1f}"] for app in APPS]
    return _table(["", "Job Migration (MB)", "paper", "CR (MB)", "paper"],
                  rows)


#: marker name -> renderer of the text between its markers.
RENDERERS: Dict[str, Callable[[Pins], str]] = {
    "fig4": _fig4,
    "fig6": _fig6,
    "fig7": _fig7,
    "headline": _headline,
    "table1": _table1,
}


def render(text: str, pins: Pins) -> str:
    """``text`` with every marked table re-rendered from ``pins``."""
    return MARKER.sub(lambda m: m.group(1) + RENDERERS[m.group("name")](pins)
                      + m.group(4), text)


def main() -> None:
    with open(default_baselines_path(), encoding="utf-8") as fh:
        pins = json.load(fh)["benches"]
    with open(EXPERIMENTS_MD, encoding="utf-8") as fh:
        text = fh.read()
    with atomic_write(EXPERIMENTS_MD) as fh:
        fh.write(render(text, pins))


if __name__ == "__main__":
    main()
