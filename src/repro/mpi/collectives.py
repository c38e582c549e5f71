"""Collective operations built on the point-to-point layer.

Algorithms are the textbook ones MVAPICH2 uses for small/medium jobs:
binomial-tree broadcast and reduce (log2 n rounds, correct for any rank
count) and reduce+bcast allreduce, the one collective the NPB skeletons
call.  All rounds go through the suspendable pt2pt layer, so a collective
in flight when a migration triggers simply stalls at a round boundary and
finishes after resume — no special-casing needed.

Tag discipline: each collective instance tags its traffic with
``("coll", op, seq)`` where ``seq`` is the per-rank collective sequence
number; MPI's ordering rules make these agree across ranks.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .rank import MPIRank

__all__ = ["bcast", "reduce_", "allreduce"]

_TOKEN_BYTES = 8


def bcast(rank: "MPIRank", root: int, nbytes: int,
          payload: Any = None) -> Generator:
    """Binomial-tree broadcast; returns the payload on every rank."""
    n = rank.job.nprocs
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} ranks")
    tag = rank.next_coll_tag("bcast")
    v = (rank.rank - root) % n
    if v != 0:
        r = v.bit_length() - 1
        src = ((v - (1 << r)) + root) % n
        msg = yield from rank.recv(src=src, tag=tag)
        payload = msg.payload
        k = r + 1
    else:
        k = 0
    while (1 << k) < n:
        child = v + (1 << k)
        if child < n:
            yield from rank.send((child + root) % n, nbytes, tag, payload)
        k += 1
    return payload


def reduce_(rank: "MPIRank", root: int, value: Any,
            op: Callable[[Any, Any], Any], nbytes: int) -> Generator:
    """Binomial-tree reduction; returns the result on ``root``, None elsewhere."""
    n = rank.job.nprocs
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} ranks")
    tag = rank.next_coll_tag("reduce")
    v = (rank.rank - root) % n
    acc = value
    k = 0
    while (1 << k) < n:
        if v & (1 << k):
            parent = ((v - (1 << k)) + root) % n
            yield from rank.send(parent, nbytes, tag, acc)
            return None
        partner = v + (1 << k)
        if partner < n:
            msg = yield from rank.recv(src=(partner + root) % n, tag=tag)
            acc = op(acc, msg.payload)
        k += 1
    return acc


def allreduce(rank: "MPIRank", value: Any, op: Callable[[Any, Any], Any],
              nbytes: int) -> Generator:
    """Reduce-to-0 then broadcast; returns the result on every rank."""
    partial = yield from reduce_(rank, 0, value, op, nbytes)
    result = yield from bcast(rank, 0, nbytes, partial)
    return result

