"""Staged migration pipeline: pluggable Phase-2/3 data path."""

from ..launch.nla import RestartSetMismatch
from .stages import (FileReassemblySink, MemoryReassemblySink, ReassemblyError,
                     ReassemblySink)
from .pipeline import SINKS, TRANSPORTS, check_stage_names

__all__ = ["ReassemblySink", "FileReassemblySink", "MemoryReassemblySink",
           "ReassemblyError", "RestartSetMismatch", "TRANSPORTS", "SINKS",
           "check_stage_names"]
