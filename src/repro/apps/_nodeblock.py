"""The simulator's spec for a node-partitioned app, written once."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array

from repro.core import BlockSpec, LocalSolveReport, run_local_block
from repro.graph import EdgeBlock
from repro.util.radix import stable_key_order

#: Bytes of one shuffled (key, value) record in our cost accounting.
RECORD_BYTES = 16


def sum_fold_matrices(blocks: "list[EdgeBlock]", *,
                      into_target: bool) -> list:
    """One ``csr_array`` per part whose mat-vec is a sum app's
    ``local_fold``: ``M @ x`` equals, to the bit, ``np.add.at(acc,
    rows, int_w * x[gathered])`` from ``acc = 0`` over the part's
    internal edges, with ``rows, gathered = int_dst, int_src`` when
    ``into_target`` (PageRank pushes along an edge) and ``int_src,
    int_dst`` otherwise (Jacobi's row owns the entry).

    It is bitwise because SciPy's CSR mat-vec adds a row's terms one at
    a time from 0.0 in stored order, as ``np.add.at`` does, and a
    *stable* sort by fold row keeps every row's terms in their stored
    order.  The arrays go in as ``(data, indices, indptr)`` — never as
    COO triples, which would merge parallel entries into one term — with
    int32 indices.  One stable sort over every part's internal edges,
    keyed by the row's position in the parts laid end to end, orders
    all the parts at once.
    """
    sizes = np.array([len(b.nodes) for b in blocks], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    rows = [b.int_dst if into_target else b.int_src for b in blocks]
    cols = [b.int_src if into_target else b.int_dst for b in blocks]
    key = np.concatenate(rows) + np.repeat(first, [len(r) for r in rows])
    order = stable_key_order(key)
    indices = np.concatenate(cols)[order].astype(np.int32)
    data = np.concatenate([b.int_w for b in blocks])[order]
    indptr = np.zeros(int(sizes.sum()) + 1, dtype=np.int32)
    np.cumsum(np.bincount(key, minlength=len(indptr) - 1), out=indptr[1:])
    mats = []
    for r, n in zip(first.tolist(), sizes.tolist()):
        ptr = indptr[r: r + n + 1]
        a, b = int(ptr[0]), int(ptr[-1])
        mats.append(csr_array((data[a:b], indices[a:b], ptr - a), shape=(n, n)))
    return mats


class NodeBlockSpec(BlockSpec):
    """PageRank, SSSP, components and Jacobi: part ``p`` owns the node
    slice ``_blocks[p].nodes`` of a flat state vector, and its local step
    is ``run_local_block`` over the spec's three hooks, ``local_fold``,
    ``lreduce_block`` and ``local_converged_block``
    (``docs/local_loop.md``).  This class is everything around them: the
    columns cut from the state, the simulator's price and the global
    combine.  ``local_agg`` decides what differs: a ``"sum"`` app
    rewrites its whole slice each round, a ``"min"`` app lowers entries.

    A subclass sets ``partition``, ``_blocks`` (one ``EdgeBlock`` per
    part) and ``local_agg``, and writes ``init_state``,
    :meth:`frozen_columns`, the hooks and ``global_converged``.
    """

    #: Each partition owns a disjoint node slice of the state vector.
    partition_scoped_state = True

    def num_partitions(self) -> int:
        return self.partition.k

    def frozen_columns(self, b: EdgeBlock, state: np.ndarray) -> tuple:
        """The columns the local loop holds constant beside the part's
        own slice ``state[b.nodes]``: what the rest of the state offers
        the part this round (row ``i`` for node ``b.nodes[i]``)."""
        raise NotImplementedError

    def shuffle_records(self, b: EdgeBlock, max_local_iters: int) -> int:
        """Records the part's gmap ships: one per node and per outgoing
        cut edge, plus, in general mode, one per internal edge — the full
        intermediate volume the paper's general baseline pays."""
        records = len(b.cut_src) + len(b.nodes)
        if max_local_iters == 1:
            records += len(b.int_src)
        return records

    def local_solve(self, part_id: int, state: np.ndarray, *,
                    max_local_iters: int) -> LocalSolveReport:
        b = self._blocks[part_id]
        nodes = b.nodes
        if len(nodes) == 0:
            return LocalSolveReport(partition=part_id, updates=(nodes, nodes),
                                    local_iters=0, per_iter_ops=[],
                                    shuffle_bytes=0, update_nbytes=0)
        x0 = state[nodes]
        run = run_local_block(self, part_id,
                              (x0, *self.frozen_columns(b, state)),
                              max_local_iters=max_local_iters)
        x = run.table[0]
        # The simulator prices a sweep at one op per internal edge and
        # per node, not at the per-record loop's ``3n + records``.
        per_iter_ops = [float(len(b.int_src) + len(nodes))] * run.local_iters
        if self.local_agg == "sum":
            # Dense update: the whole slice is rewritten through the
            # state store, so the per-partition distribution is the
            # partition-size profile and sums to ``state_nbytes``.
            update_nbytes = int(x.nbytes)
        else:
            # Frontier-driven: only entries lowered this round are
            # rewritten, so the parts a wave is sweeping dominate the
            # store's key range — the naturally skewed distribution.
            update_nbytes = int(np.count_nonzero(x < x0)) * 8
        return LocalSolveReport(
            partition=part_id, updates=(nodes, x),
            local_iters=run.local_iters, per_iter_ops=per_iter_ops,
            shuffle_bytes=self.shuffle_records(b, max_local_iters) * RECORD_BYTES,
            update_nbytes=update_nbytes)

    def global_combine(self, state, reports):
        new_state = state.copy()
        records = 0
        for r in reports:
            nodes, x = r.updates
            if self.local_agg == "sum":
                new_state[nodes] = x
            else:
                # Fancy indexing yields a copy, so assign the elementwise
                # min back rather than using an out= view.
                new_state[nodes] = np.minimum(new_state[nodes], x)
            records += r.shuffle_bytes // RECORD_BYTES
        # greduce touches every shuffled record once.
        return new_state, float(records), 0
