"""FTB event schema and namespace matching.

CIFTS/FTB events live in a dotted namespace (``FTB.MPI.MVAPICH2.MIGRATE``);
clients subscribe with masks that may end in ``*`` to match a subtree.  The
three events driving the migration protocol (paper Fig. 2) are defined as
constants so every component spells them identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "FTBEvent",
    "match_mask",
    "FTB_MIGRATE",
    "FTB_MIGRATE_PIIC",
    "FTB_RESTART",
    "FTB_HEALTH_ALARM",
    "FTB_CKPT_BEGIN",
    "FTB_CKPT_DONE",
]

# Event names used by the job-migration protocol (Sec. III-A).
FTB_MIGRATE = "FTB.MPI.MVAPICH2.MIGRATE"
FTB_MIGRATE_PIIC = "FTB.MPI.MVAPICH2.MIGRATE_PIIC"  # "process image in place"
FTB_RESTART = "FTB.MPI.MVAPICH2.RESTART"
FTB_HEALTH_ALARM = "FTB.HW.IPMI.ALARM"
FTB_CKPT_BEGIN = "FTB.MPI.MVAPICH2.CKPT_BEGIN"
FTB_CKPT_DONE = "FTB.MPI.MVAPICH2.CKPT_DONE"


@dataclass(frozen=True)
class FTBEvent:
    """One fault-tolerance message on the backplane."""

    name: str
    source: str
    event_id: int
    payload: Dict[str, Any] = field(default_factory=dict)
    severity: str = "INFO"
    #: Span open in the publisher's task at publish time; agents link it
    #: to their ``ftb.deliver`` span so traces show publish->deliver arrows.
    src_span: Optional[int] = field(default=None, compare=False)

    @property
    def nbytes(self) -> int:
        """Approximate wire size (header + shallow payload estimate)."""
        return 256 + 64 * len(self.payload)

    def __repr__(self) -> str:
        return f"<FTBEvent {self.name} #{self.event_id} from {self.source}>"


def match_mask(mask: str, name: str) -> bool:
    """Namespace matching: exact, or prefix with a trailing ``*``.

    >>> match_mask("FTB.MPI.*", "FTB.MPI.MVAPICH2.MIGRATE")
    True
    >>> match_mask("FTB.MPI.MVAPICH2.MIGRATE", "FTB.MPI.MVAPICH2.RESTART")
    False
    """
    if mask == "*":
        return True
    if mask.endswith(".*"):
        prefix = mask[:-2]
        return name == prefix or name.startswith(prefix + ".")
    if mask.endswith("*"):
        return name.startswith(mask[:-1])
    return name == mask
