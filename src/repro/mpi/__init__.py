"""Simulated MPI library (MVAPICH2-style) over the InfiniBand model.

Blocking point-to-point with eager/rendezvous protocols, a binomial-tree
allreduce (the calls the NPB skeletons make), and — the part the migration
framework depends on — the Checkpoint/Restart channel machinery: suspend,
drain with FLUSH markers, endpoint teardown, and re-establishment.
"""

from .collectives import allreduce, bcast, reduce_
from .job import MPIJob
from .message import ANY_SOURCE, ANY_TAG, CR_FLUSH_TAG, Message
from .rank import CRController, MPIRank
from .transport import Channel, ChannelManager, EAGER_THRESHOLD

__all__ = [
    "MPIJob",
    "MPIRank",
    "CRController",
    "Channel",
    "ChannelManager",
    "EAGER_THRESHOLD",
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "CR_FLUSH_TAG",
    "bcast",
    "reduce_",
    "allreduce",
]
