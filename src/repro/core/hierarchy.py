"""Hierarchical synchronization — §VIII "Generality of semantic extensions".

    "Currently, partial synchronization is restricted to a map and the
    granularity is determined by the input to the map.  Taking the
    configuration of the system into account, one may support a
    hierarchy of synchronizations."

This module keeps the rack-level cost constants
(:data:`RACK_STARTUP_SECONDS`, :data:`RACK_SHUFFLE_SPEEDUP`) and the
rack grouping helper (:func:`make_racks`) for the unified iteration core's
:class:`~repro.core.loop.HierarchicalBackend`, which
composes the block backend: the first inner round of local solves is
the global job's map phase, each additional inner round is a cheap
rack-local synchronization followed by the rack's solves as an ordinary
map phase on the rack's share of the job's slots (the racks are the
branches of one :meth:`~repro.cluster.SimCluster.concurrently` fork),
and the final global synchronization charges through exactly the same
audited :class:`~repro.cluster.accountant.RoundAccountant` path as the
plain block driver (so ``inner_rounds=1`` matches it charge for charge).

The scheme requires each partition's updates to own a disjoint slice of
the state (``BlockSpec.partition_scoped_state``), which holds for the
node-partitioned graph applications; the backend rejects other specs.
Because each rack's inner combines touch only its own partitions' state
slices against frozen remote values, the fixed point is unchanged —
this is two nested block-Jacobi levels.
"""

from __future__ import annotations

__all__ = ["RACK_STARTUP_SECONDS", "RACK_SHUFFLE_SPEEDUP", "make_racks"]


#: Fixed cost of one rack-level synchronization (intra-rack barrier +
#: scheduling); far below a global job startup.
RACK_STARTUP_SECONDS = 1.0
#: Intra-rack network speedup over the global shuffle bandwidth
#: (top-of-rack switch vs cross-rack links).
RACK_SHUFFLE_SPEEDUP = 8.0


def make_racks(num_partitions: int, num_racks: int) -> "list[list[int]]":
    """Group partition ids into at most ``num_racks`` contiguous racks.

    The multilevel partitioner assigns part ids hierarchically (recursive
    bisection: a contiguous id range is a subtree of the bisection tree),
    so contiguous racks maximise intra-rack topological locality — the
    "taking the configuration of the system into account" step of §VIII.

    When ``num_racks > num_partitions`` the rack count is *clamped* to
    ``num_partitions`` (one partition per rack; a rack cannot be empty),
    so the returned list may be shorter than requested — callers sizing
    per-rack resources should use ``len(result)``, not ``num_racks``.
    """
    if num_racks < 1:
        raise ValueError("num_racks must be >= 1")
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    r = min(num_racks, num_partitions)
    bounds = [num_partitions * i // r for i in range(r + 1)]
    return [list(range(bounds[i], bounds[i + 1])) for i in range(r)]
