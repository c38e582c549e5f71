"""Staged migration pipeline: pluggable Phase-2/3 data path."""

from .stages import (FileReassemblySink, MemoryReassemblySink, ReassemblyError,
                     ReassemblySink)
from .pipeline import (SINKS, TRANSPORTS, MigrationPipeline,
                       RestartSetMismatch, check_stage_names)

__all__ = ["MigrationPipeline", "ReassemblySink", "FileReassemblySink",
           "MemoryReassemblySink", "ReassemblyError", "RestartSetMismatch",
           "TRANSPORTS", "SINKS", "check_stage_names"]
