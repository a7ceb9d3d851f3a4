"""Pentagon and hexagon residuals of F- and R-symbols.

Four leaves (a, b, c, d) fuse to the root t along five tree shapes; each
fusion vertex carries a basis index of its Hom space:

      LL ((ab)c)d    p:(x|ab) q:(y|xc) r:(t|yd)
      M  (a(bc))d    m:(u|bc) n:(y|au) r:(t|yd)
      R  a((bc)d)    m:(u|bc) s:(w|ud) v:(t|aw)
      RR a(b(cd))    g:(k|cd) h:(w|bk) v:(t|aw)
      C  (ab)(cd)    p:(x|ab) g:(k|cd) j:(t|xk)

With F[a,b,c,d,e,f,alpha,beta,mu,nu] the dense F-symbols of `catdata`, the
pentagon equation from LL to RR reads, for every admissible label tuple
(a,b,c,d, x,y,t, k,w),

    sum_{u,m,n,s} F[a,b,c,y,x,u,p,q,m,n] F[a,u,d,t,y,w,n,r,s,v] F[b,c,d,w,u,k,m,s,g,h]
      = sum_j F[x,c,d,t,y,k,q,r,g,j] F[a,b,k,t,x,w,p,j,h,v]

the left side the path LL -> M -> R -> RR, the right side LL -> C -> RR.
"""

from __future__ import annotations

import numpy as np


def pentagon_residual(cat):
    """Max deviation between the two F-move paths ((ab)c)d -> a(b(cd)).

    The tuples (a,b,c,d, x,y,t, k,w) are built by one join per label, on
    N[a,b,x], N[x,c,y], N[y,d,t], N[c,d,k] and N[b,k,w] nonzero, and a last
    filter on N[a,w,t].  Each side is one einsum over F gathered at those
    tuples; the inner label u runs over all labels, since F is zero outside
    admissible slots.
    """
    N, F = cat.N, cat.F
    rows = np.indices((cat.n,) * 4).reshape(4, -1).T
    for i, j in ((0, 1), (4, 2), (5, 3), (2, 3), (1, 7)):
        r, o = np.nonzero(N[rows[:, i], rows[:, j]])
        rows = np.column_stack([rows[r], o])
    a, b, c, d, x, y, t, k, w = rows[N[rows[:, 0], rows[:, 8], rows[:, 6]] > 0].T
    if not len(a):
        return 0.0
    left = np.einsum("Tupqmn,Tunrsv,Tumsgh->Tpqrghv",
                     F[a, b, c, y, x], F[a, :, d, t, y, w], F[b, c, d, w, :, k])
    right = np.einsum("Tqrgj,Tpjhv->Tpqrghv",
                      F[x, c, d, t, y, k], F[a, b, k, t, x, w])
    return float(np.max(np.abs(left - right)))


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
