"""Fusion-tree recoupling on up to four strands.

A tree fuses the leaves (a, b, c, d) to the root t.  Its seven wires are
numbered 0-3 for the leaves, 4 for the root and 5, 6 for the two inner
labels.  `SHAPES` lists each shape's three fusion vertices as
(out, in1, in2) wires:

      LL ((ab)c)d    5=x 6=y   p:(x|ab) q:(y|xc) r:(t|yd)
      M  (a(bc))d    5=u 6=y   m:(u|bc) n:(y|au) r:(t|yd)
      R  a((bc)d)    5=u 6=w   m:(u|bc) s:(w|ud) v:(t|aw)
      RR a(b(cd))    5=k 6=w   g:(k|cd) h:(w|bk) v:(t|aw)
      C  (ab)(cd)    5=k 6=x   p:(x|ab) g:(k|cd) j:(t|xk)

A state is the tuple (basis of vertex 0, 1, 2, label of wire 5, wire 6);
each shape's states are in lexicographic order.

Each elementary move in `MOVES` is one F-block F^{abc}_d whose four labels
sit on the given wires of the source shape.  It acts on the state slots
of (e, alpha, beta) in the source and of (f, mu, nu) in the target; the
two spectator slots are copied from source to target.  Matrices map basis
vectors of the source shape to linear combinations in the target shape,
row = source index.
"""

from __future__ import annotations

import numpy as np

SHAPES = {
    "LL": ((5, 0, 1), (6, 5, 2), (4, 6, 3)),
    "M": ((5, 1, 2), (6, 0, 5), (4, 6, 3)),
    "R": ((5, 1, 2), (6, 5, 3), (4, 0, 6)),
    "RR": ((5, 2, 3), (6, 1, 5), (4, 0, 6)),
    "C": ((6, 0, 1), (5, 2, 3), (4, 6, 5)),
}

# move: (source, target, F-block wires, (e, alpha, beta) slots,
#        (f, mu, nu) slots, spectator slots as (source, target) pairs)
MOVES = {
    "LL>M": ("LL", "M", (0, 1, 2, 6), (3, 0, 1), (3, 0, 1), ((2, 2), (4, 4))),
    "M>R": ("M", "R", (0, 5, 3, 4), (4, 1, 2), (4, 1, 2), ((0, 0), (3, 3))),
    "R>RR": ("R", "RR", (1, 2, 3, 6), (3, 0, 1), (3, 0, 1), ((2, 2), (4, 4))),
    "LL>C": ("LL", "C", (5, 2, 3, 4), (4, 1, 2), (3, 1, 2), ((0, 0), (3, 4))),
    # the spectator g sits at C's vertex 1 but at RR's vertex 0
    "C>RR": ("C", "RR", (0, 1, 5, 4), (4, 0, 2), (4, 1, 2), ((1, 0), (3, 3))),
}


def _states(N, wires, vertices):
    """Admissible states of one shape; N is the fusion tensor as nested lists."""
    partial = [((), wires)]
    for out, i, j in vertices:
        nxt = []
        for bases, w in partial:
            mults = N[w[i]][w[j]]
            outs = [o for o, m in enumerate(mults) if m] if w[out] is None else [w[out]]
            for o in outs:
                w2 = w[:out] + (o,) + w[out + 1:]
                nxt.extend((bases + (k,), w2) for k in range(mults[o]))
        partial = nxt
    return sorted(bases + w[5:] for bases, w in partial)


def shape_moves(cat, leaves, root):
    """States of all five shapes and the five elementary F-moves between them."""
    N = cat.N.tolist()
    wires = tuple(leaves) + (root, None, None)
    states = {kind: _states(N, wires, v) for kind, v in SHAPES.items()}
    mv = {}
    for move, (src, dst, fwires, rows, cols, spect) in MOVES.items():
        index = {st: j for j, st in enumerate(states[dst])}
        mat = np.zeros((len(states[src]), len(states[dst])), dtype=complex)
        for i, st in enumerate(states[src]):
            w = wires[:5] + st[3:]
            blk = cat.fblock(*(w[k] for k in fwires))
            ri = blk.row_index[tuple(st[k] for k in rows)]
            new = [0] * 5
            for s, d in spect:
                new[d] = st[s]
            for col, val in zip(blk.cols, blk.mat[ri].tolist()):
                if val:
                    new[cols[0]], new[cols[1]], new[cols[2]] = col
                    mat[i, index[tuple(new)]] += val
        mv[move] = mat
    return states, mv


def pentagon_residual(cat):
    """Max deviation between the two F-move paths ((ab)c)d -> a(b(cd))."""
    worst = 0.0
    N = cat.N
    # dim of the ((ab)c)d -> t space; the five shapes are skipped when it is 0
    ll_dim = np.einsum("abx,xcy,ydt->abcdt", N, N, N)
    for a, b, c, d, t in np.argwhere(ll_dim).tolist():
        _, mv = shape_moves(cat, (a, b, c, d), t)
        left = mv["LL>M"] @ mv["M>R"] @ mv["R>RR"]
        right = mv["LL>C"] @ mv["C>RR"]
        diff = np.max(np.abs(left - right)) if left.size else 0.0
        worst = max(worst, float(diff))
    return worst


def hexagon_residual(cat):
    """Max deviation of both hexagon identities (multiplicity-free R-symbols).

    With diag(R^{xy}) the braiding phases, the identity checked per outer
    (a, b, c; dd) reads, as a matrix equation over (f, f'):

        delta_{f f'} R^{a f}_dd =
            sum_{e,g} conj(F^{abc}[e,f]) R^{ab}_e F^{bac}[e,g] R^{ac}_g conj(F^{bca}[f',g])

    and the mirror identity with R^{xy}_z replaced by conj(R^{yx}_z).
    """
    if (cat.N > 1).any():
        raise NotImplementedError("hexagon check requires multiplicity-free fusion")
    if not np.array_equal(cat.N, np.swapaxes(cat.N, 0, 1)):
        raise ValueError("fusion ring not commutative; no braiding possible")
    n = cat.n
    worst = 0.0

    def rme(x, y, z, mirror):
        return np.conj(cat.rsym(y, x, z)) if mirror else cat.rsym(x, y, z)

    for mirror in (False, True):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for dd in range(n):
                        blk_abc = cat.fblock(a, b, c, dd)
                        if blk_abc is None:
                            continue
                        blk_bac = cat.fblock(b, a, c, dd)
                        blk_bca = cat.fblock(b, c, a, dd)
                        fs = [f for (f, _, _) in blk_abc.cols]
                        es = [e for (e, _, _) in blk_abc.rows]
                        gs = [g for (g, _, _) in blk_bac.cols]
                        f2s = [f for (f, _, _) in blk_bca.rows]
                        lhs = np.zeros((len(fs), len(f2s)), dtype=complex)
                        for i, f in enumerate(fs):
                            for j, f2 in enumerate(f2s):
                                if f == f2:
                                    lhs[i, j] = rme(a, f, dd, mirror)
                        mid = (np.conj(blk_abc.mat).T
                               @ np.diag([rme(a, b, e, mirror) for e in es])
                               @ blk_bac.mat
                               @ np.diag([rme(a, c, g, mirror) for g in gs])
                               @ np.conj(blk_bca.mat).T)
                        worst = max(worst, float(np.max(np.abs(lhs - mid))))
    return worst
