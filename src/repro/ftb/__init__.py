"""Fault Tolerance Backplane (CIFTS/FTB) — the coordination fabric.

All migration-protocol messages (``FTB_MIGRATE``, ``FTB_MIGRATE_PIIC``,
``FTB_RESTART``) travel through this pub/sub tree, exactly as in the
paper's Figure 1/2.
"""

from .agent import FTBAgent, FTBBackplane, Subscription
from .client import FTBClient
from .events import (
    FTB_CKPT_BEGIN,
    FTB_CKPT_DONE,
    FTB_HEALTH_ALARM,
    FTB_MIGRATE,
    FTB_MIGRATE_PIIC,
    FTB_RESTART,
    FTBEvent,
    match_mask,
)

__all__ = [
    "FTBBackplane",
    "FTBAgent",
    "FTBClient",
    "Subscription",
    "FTBEvent",
    "match_mask",
    "FTB_MIGRATE",
    "FTB_MIGRATE_PIIC",
    "FTB_RESTART",
    "FTB_HEALTH_ALARM",
    "FTB_CKPT_BEGIN",
    "FTB_CKPT_DONE",
]
