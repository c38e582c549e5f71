"""The migration's Phase-2/3 stage tables: transports and target sinks."""

from ..launch.nla import RestartSetMismatch
from .pipeline import SINKS, TRANSPORTS, check_stage_names

__all__ = ["RestartSetMismatch", "TRANSPORTS", "SINKS", "check_stage_names"]
