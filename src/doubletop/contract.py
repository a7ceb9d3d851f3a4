"""Scalar contraction of a network of small tensors by variable elimination.

Both invariant routes are sums, over shared labels, of products of small
tensors: tetrahedron weights and edge dimensions for the state sum, vertex
weights and clasp S-matrices for the surgery formula.  Summing out one index
at a time costs time exponential only in the width of the elimination order,
not in the number of indices.
"""

import numpy as np

_MAX_OPERANDS = 32  # np.einsum accepts at most 63 operands per call


def _einsum(factors, out):
    """One np.einsum over `factors`, keeping the ids `out`, labels local."""
    ids = sorted({i for _, f_ids in factors for i in f_ids})
    local = {i: k for k, i in enumerate(ids)}
    args = [x for a, f_ids in factors for x in (a, [local[i] for i in f_ids])]
    return np.einsum(*args, [local[i] for i in out])


def contract(factors):
    """Sum over every index of the product of `factors`.

    factors: iterable of (array, ids), one integer id per axis; an id
    repeated within one factor takes the diagonal, as in ``np.einsum``.
    Indices are eliminated in min-degree order, ties broken by the smaller
    id, so the summation order, and hence the result, is fixed.  Each step
    is one ``np.einsum`` over the factors touching that index (batched when
    there are too many for one call).
    """
    factors = [(np.asarray(a), tuple(int(i) for i in ids)) for a, ids in factors]
    todo = {i for _, ids in factors for i in ids}
    while todo:
        nbrs = {i: set() for i in todo}
        for _, ids in factors:
            for i in ids:
                nbrs[i].update(ids)
        v = min(todo, key=lambda i: (len(nbrs[i]), i))
        todo.discard(v)
        hit = [f for f in factors if v in f[1]]
        factors = [f for f in factors if v not in f[1]]
        while len(hit) > _MAX_OPERANDS:
            batch, hit = hit[:_MAX_OPERANDS], hit[_MAX_OPERANDS:]
            keep = tuple(sorted({i for _, ids in batch for i in ids}))
            hit.append((_einsum(batch, keep), keep))
        out = tuple(sorted(nbrs[v] - {v}))
        factors.append((_einsum(hit, out), out))
    result = 1.0
    for a, _ in factors:
        result = result * a
    return complex(result)
