"""Scalar contraction of a network of small tensors by variable elimination.

Every invariant here is a sum, over shared labels, of products of small
tensors: tetrahedron weights and edge dimensions for the state sum, vertex
weights and clasp S-matrices for the surgery formula, and 0/1 face
relations for the Dijkgraaf-Witten count.  Summing out one index
at a time costs time exponential only in the width of the elimination order,
not in the number of indices.  The budget bounds that cost where it is
spent: the index space of the largest elimination step.

The elimination order depends only on the factors' ids, never on their
label counts.  So `plan` works out the order, and each step's einsum, once
per network structure (the ids of each factor) per process, and keeps it in
a bounded cache; on every call it sizes each step from that call's shapes
and checks it against the budget.  `run` makes the einsum calls on arrays
of the planned shapes.  A network summed with several sets of weights (the
two surgery routes) is planned once, and networks of one structure (lens
chains of one length, in any category) share a plan.  A BudgetError
therefore comes before any einsum runs.
"""

from functools import lru_cache
from math import prod

import numpy as np

DEFAULT_BUDGET = 5_000_000
_MAX_OPERANDS = 32  # np.einsum accepts at most 63 operands per call
# network structures kept: a surgery plan holds a few KB and a state-sum
# plan up to ~100 KB (L(80, 31)); one pass of many small surgery calls
# meets a few hundred structures
_PLAN_CACHE_SIZE = 1024


class BudgetError(RuntimeError):
    """An elimination step would sum over more labels than the budget allows."""


def plan(shapes, budget=None):
    """Plan the contraction of factors with the given (shape, ids) pairs.

    ids holds one integer id per axis; an id repeated within one factor
    takes the diagonal, as in ``np.einsum``.  Indices are eliminated in
    min-degree order, ties broken by the smaller id, so the summation
    order, and hence the result, is fixed.  Each step is one einsum over
    the factors touching that index (batched when there are too many for
    one call); its index space is the product of the label counts of the
    index and its neighbours.  A step whose index space exceeds `budget`
    (default DEFAULT_BUDGET) raises BudgetError.  A factor whose ids do
    not match its shape raises ValueError.

    Returns (steps, rest, largest_step).  steps: one (slots, subscripts,
    out) per np.einsum call, in call order; slots 0..n-1 are the factors,
    and the result of each call takes the next free slot.  rest: the slots
    of the 0-d factors left at the end, multiplied in that order.
    largest_step: the index space of the largest elimination step (1 when
    no index is summed).  steps and rest are nested tuples, shared by every
    call on a network of the same ids.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    size = {}
    structure = []
    for k, (shape, ids) in enumerate(shapes):
        ids = tuple(map(int, ids))
        if len(ids) != len(shape):
            raise ValueError("factor %d has %d ids %r for %d axes"
                             % (k, len(ids), ids, len(shape)))
        for i, n in zip(ids, shape):
            if size.setdefault(i, n) != n:
                raise ValueError("factor %d gives id %d size %d, an earlier "
                                 "axis gave it size %d" % (k, i, n, size[i]))
        structure.append(ids)
    steps, rest, spans = _plan_structure(tuple(structure))
    largest = 1
    for span in spans:
        step = prod(map(size.__getitem__, span))
        if step > budget:
            raise BudgetError("budget exceeded: eliminating an index sums over "
                              "%d labels, budget is %d" % (step, budget))
        if step > largest:
            largest = step
    return steps, rest, largest


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan_structure(factor_ids):
    """(steps, rest, spans) of the network whose factors carry `factor_ids`.

    steps and rest are those of `plan`; spans holds, per elimination in
    order, the sorted ids the step sums over, so that `plan` can size it.
    """
    nbrs = {}  # neighbours of each index, itself included, kept up to date
    for ids in factor_ids:
        for i in ids:
            if i in nbrs:
                nbrs[i].update(ids)
            else:
                nbrs[i] = set(ids)
    factors = list(enumerate(factor_ids))
    free = len(factors)  # the slot of the next einsum result
    steps, spans = [], []
    while nbrs:
        v = min(nbrs, key=lambda i: (len(nbrs[i]), i))
        out = nbrs.pop(v)
        ids = sorted(out)
        spans.append(tuple(ids))
        hit, rest = [], []
        for f in factors:
            (hit if v in f[1] else rest).append(f)
        factors = rest
        while len(hit) > _MAX_OPERANDS:
            batch, hit = hit[:_MAX_OPERANDS], hit[_MAX_OPERANDS:]
            keep = sorted({i for _, f_ids in batch for i in f_ids})
            steps.append(_step(batch, keep, keep))
            hit.append((free, tuple(keep)))
            free += 1
        out.discard(v)
        for i in out:
            nbrs[i] |= out
            nbrs[i].discard(v)
        p = ids.index(v)
        kept = ids[:p] + ids[p + 1:]
        steps.append(_step(hit, ids, kept))
        factors.append((free, tuple(kept)))
        free += 1
    return tuple(steps), tuple(s for s, _ in factors), tuple(spans)


def _step(hit, ids, out):
    """One einsum over the factors `hit` (slot, ids), whose ids are the
    sorted `ids`, keeping `out`; labels are the positions in `ids`."""
    label = ids.index
    slots, f_ids = zip(*hit)
    return (slots, tuple(tuple(map(label, f)) for f in f_ids),
            tuple(map(label, out)))


def run(planned, arrays):
    """The value of the planned network on `arrays`, one per planned factor.

    Makes the planned np.einsum calls in order, dropping each operand as
    its step consumes it.  Returns the sum, unrounded, in the arrays'
    arithmetic (a Python int for object arrays of Python ints, so counts
    stay exact).
    """
    steps, rest, _ = planned
    slots = list(arrays)
    for operands, subscripts, out in steps:
        args = []
        for s, sub in zip(operands, subscripts):
            args += (slots[s], sub)
            slots[s] = None
        slots.append(np.einsum(*args, out))
    result = 1
    for s in rest:
        result = result * slots[s]
    return result


def contract(factors, budget=None):
    """Sum over every index of the product of `factors`.

    factors: iterable of (array, ids); the order of elimination, the budget
    and the arithmetic are those of `plan` and `run`.

    Returns (value, largest_step): the sum, unrounded, in the factors'
    arithmetic, and the index space of the largest step.
    """
    factors = [(np.asarray(a), ids) for a, ids in factors]
    planned = plan([(a.shape, ids) for a, ids in factors], budget)
    return run(planned, [a for a, _ in factors]), planned[2]
