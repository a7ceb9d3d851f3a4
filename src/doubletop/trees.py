"""Fusion-tree recoupling on up to four strands.

Shapes for leaves (a, b, c, d) fused to root t, with their basis tuples:

      LL ((ab)c)d    state (x, y, p, q, r)   p:(x|ab) q:(y|xc) r:(t|yd)
      M  (a(bc))d    state (u, y, m, n, r)   m:(u|bc) n:(y|au) r:(t|yd)
      R  a((bc)d)    state (u, w, m, s, v)   m:(u|bc) s:(w|ud) v:(t|aw)
      RR a(b(cd))    state (k, w, g, h, v)   g:(k|cd) h:(w|bk) v:(t|aw)
      C  (ab)(cd)    state (x, k, p, g, j)   p:(x|ab) g:(k|cd) j:(t|xk)

Each elementary move is one F-block acting on three of the five slots with the
rest as spectators.  Matrices map basis vectors of the source shape to linear
combinations in the target shape, row = source index.
"""

from __future__ import annotations

import numpy as np


def _enum(cat, triples):
    """Enumerate admissible label/basis tuples for a chain of fusions.

    triples: list of (out, in1, in2) where each element is either a fixed
    label id or a slot name (string).  Returns (states, index) with states a
    lex-sorted list of dicts slot->value, extended by basis-index slots named
    '#0', '#1', ... one per triple.
    """
    states = [dict()]
    for ti, (out, in1, in2) in enumerate(triples):
        nxt = []
        for st in states:
            outs = [st[out]] if isinstance(out, str) and out in st else None
            a = st[in1] if isinstance(in1, str) else in1
            b = st[in2] if isinstance(in2, str) else in2
            rng = range(cat.n) if isinstance(out, str) and out not in st else None
            cand = outs if outs is not None else (rng if rng is not None else [out])
            for o in cand:
                m = cat.N[a, b, o]
                for idx in range(m):
                    s2 = dict(st)
                    if isinstance(out, str):
                        s2[out] = o
                    s2["#%d" % ti] = idx
                    nxt.append(s2)
        states = nxt
    keys = sorted(states[0].keys()) if states else []
    states.sort(key=lambda s: tuple(s[k] for k in keys))
    return states, {tuple(s[k] for k in keys): i for i, s in enumerate(states)}


class Shape:
    """Admissible states of one 4-leaf tree shape."""

    def __init__(self, cat, leaves, root, kind):
        a, b, c, d = leaves
        t = root
        self.kind = kind
        if kind == "LL":
            triples = [("x", a, b), ("y", "x", c), (t, "y", d)]
        elif kind == "M":
            triples = [("u", b, c), ("y", a, "u"), (t, "y", d)]
        elif kind == "R":
            triples = [("u", b, c), ("w", "u", d), (t, a, "w")]
        elif kind == "RR":
            triples = [("k", c, d), ("w", b, "k"), (t, a, "w")]
        elif kind == "C":
            triples = [("x", a, b), ("k", c, d), (t, "x", "k")]
        else:
            raise ValueError(kind)
        self.states, self.index = _enum(cat, triples)
        self.keys = sorted(self.states[0].keys()) if self.states else []

    def key(self, st):
        return tuple(st[k] for k in self.keys)

    def __len__(self):
        return len(self.states)


def _move(cat, src, dst, fargs, src_slots, dst_slots, rename=None):
    """Matrix of one F-move between shapes.

    fargs: (a,b,c,dd) possibly with slot names resolved per state.
    src_slots: (e_slot, alpha_slot, beta_slot) names in the source state.
    dst_slots: (f_slot, mu_slot, nu_slot) names in the target state.
    Spectator slots (all others) must match by name up to `rename`.
    """
    rename = rename or {}
    mat = np.zeros((len(src), len(dst)), dtype=complex)
    for i, st in enumerate(src.states):
        args = tuple(st[x] if isinstance(x, str) else x for x in fargs)
        blk = cat.fblock(*args)
        if blk is None:
            continue
        e = st[src_slots[0]]
        al = st[src_slots[1]]
        be = st[src_slots[2]]
        ri = blk.row_index.get((e, al, be))
        if ri is None:
            continue
        spect = {rename.get(k, k): v for k, v in st.items()
                 if k not in (src_slots[0], src_slots[1], src_slots[2])}
        for (f, mu, nu), cj in blk.col_index.items():
            val = blk.mat[ri, cj]
            if val == 0:
                continue
            st2 = dict(spect)
            st2[dst_slots[0]] = f
            st2[dst_slots[1]] = mu
            st2[dst_slots[2]] = nu
            j = dst.index.get(tuple(st2[k] for k in dst.keys))
            if j is None:
                continue
            mat[i, j] += val
    return mat


def shape_moves(cat, leaves, root):
    """All five shapes and the five elementary F-moves between them."""
    a, b, c, d = leaves
    sh = {k: Shape(cat, leaves, root, k) for k in ("LL", "M", "R", "RR", "C")}
    mv = {}
    # LL -> M : F^{abc}_y on (x, #0:p, #1:q) -> (u, #0:m, #1:n); spectators y(implicit via dd), #2
    mv["LL>M"] = _move(cat, sh["LL"], sh["M"], (a, b, c, "y"),
                       ("x", "#0", "#1"), ("u", "#0", "#1"))
    # M -> R : F^{a,u,d}_t on (y, #1:n, #2:r) -> (w, #1:s, #2:v)
    mv["M>R"] = _move(cat, sh["M"], sh["R"], (a, "u", d, root),
                      ("y", "#1", "#2"), ("w", "#1", "#2"))
    # R -> RR : F^{bcd}_w on (u, #0:m, #1:s) -> (k, #0:g, #1:h)
    mv["R>RR"] = _move(cat, sh["R"], sh["RR"], (b, c, d, "w"),
                       ("u", "#0", "#1"), ("k", "#0", "#1"))
    # LL -> C : F^{x,c,d}_t on (y, #1:q, #2:r) -> (k, #1:g, #2:j)
    mv["LL>C"] = _move(cat, sh["LL"], sh["C"], ("x", c, d, root),
                       ("y", "#1", "#2"), ("k", "#1", "#2"))
    # C -> RR : F^{a,b,k}_t on (x, #0:p, #2:j) -> (w, #1:h, #2:v);
    # spectator g sits in C slot #1 but RR slot #0
    mv["C>RR"] = _move(cat, sh["C"], sh["RR"], (a, b, "k", root),
                       ("x", "#0", "#2"), ("w", "#1", "#2"),
                       rename={"#1": "#0"})
    return sh, mv


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


def hexagon_residual(cat, rsymbols=None):
    """Max deviation of both hexagon identities (multiplicity-free R-symbols).

    With diag(R^{xy}) the braiding phases, the identity checked per outer
    (a, b, c; dd) reads, as a matrix equation over (f, f'):

        delta_{f f'} R^{a f}_dd =
            sum_{e,g} conj(F^{abc}[e,f]) R^{ab}_e F^{bac}[e,g] R^{ac}_g conj(F^{bca}[f',g])

    and the mirror identity with R^{xy}_z replaced by conj(R^{yx}_z).
    `rsymbols` overrides the R-symbols stored on the category.
    """
    if (cat.N > 1).any():
        raise NotImplementedError("hexagon check requires multiplicity-free fusion")
    if not np.array_equal(cat.N, np.swapaxes(cat.N, 0, 1)):
        raise ValueError("fusion ring not commutative; no braiding possible")
    n = cat.n
    worst = 0.0

    def rlook(x, y, z):
        if rsymbols is None:
            return cat.rsym(x, y, z)
        if cat.N[x, y, z] == 0:
            return 0.0
        if x == 0 or y == 0:
            return 1.0
        return rsymbols[(x, y, z)]

    def rme(x, y, z, mirror):
        return np.conj(rlook(y, x, z)) if mirror else rlook(x, y, z)

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
