"""Scalar contraction of a network of small tensors by variable elimination.

Every invariant here is a sum, over shared labels, of products of small
tensors: tetrahedron weights and edge dimensions for the state sum, vertex
weights and clasp S-matrices for the surgery formula, and 0/1 face
relations for the Dijkgraaf-Witten count.  Summing out one index
at a time costs time exponential only in the width of the elimination order,
not in the number of indices.  The budget bounds that cost where it is
spent: the index space of the largest elimination step.
"""

import numpy as np

DEFAULT_BUDGET = 5_000_000
_MAX_OPERANDS = 32  # np.einsum accepts at most 63 operands per call


class BudgetError(RuntimeError):
    """An elimination step would sum over more labels than the budget allows."""


def _einsum(factors, out):
    """One np.einsum over `factors`, keeping the ids `out`, labels local."""
    ids = sorted({i for _, f_ids in factors for i in f_ids})
    local = {i: k for k, i in enumerate(ids)}
    args = [x for a, f_ids in factors for x in (a, [local[i] for i in f_ids])]
    return np.einsum(*args, [local[i] for i in out])


def contract(factors, budget=None):
    """Sum over every index of the product of `factors`.

    factors: iterable of (array, ids), one integer id per axis; an id
    repeated within one factor takes the diagonal, as in ``np.einsum``.
    Indices are eliminated in min-degree order, ties broken by the smaller
    id, so the summation order, and hence the result, is fixed.  Each step
    is one ``np.einsum`` over the factors touching that index (batched when
    there are too many for one call); its index space is the product of the
    label counts of the index and its neighbours.  A step whose index space
    exceeds `budget` (default DEFAULT_BUDGET) raises BudgetError before it
    runs.

    Returns (value, largest_step): the sum, unrounded, in the factors'
    arithmetic (a Python int for object arrays of Python ints, so counts
    stay exact), and the index space of the largest step (1 when no index
    is summed).
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    factors = [(np.asarray(a), tuple(map(int, ids))) for a, ids in factors]
    size = {i: n for a, ids in factors for i, n in zip(ids, a.shape)}
    todo = set(size)
    largest = 1
    while todo:
        nbrs = {i: set() for i in todo}
        for _, ids in factors:
            for i in ids:
                nbrs[i].update(ids)
        v = min(todo, key=lambda i: (len(nbrs[i]), i))
        step = 1
        for i in nbrs[v]:
            step *= size[i]
        if step > budget:
            raise BudgetError("budget exceeded: eliminating an index sums over "
                              "%d labels, budget is %d" % (step, budget))
        largest = max(largest, step)
        todo.discard(v)
        hit = [f for f in factors if v in f[1]]
        factors = [f for f in factors if v not in f[1]]
        while len(hit) > _MAX_OPERANDS:
            batch, hit = hit[:_MAX_OPERANDS], hit[_MAX_OPERANDS:]
            keep = tuple(sorted({i for _, ids in batch for i in ids}))
            hit.append((_einsum(batch, keep), keep))
        out = tuple(sorted(nbrs[v] - {v}))
        factors.append((_einsum(hit, out), out))
    result = 1
    for a, _ in factors:
        result = result * a
    return result, largest
