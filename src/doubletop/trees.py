"""Pentagon and hexagon residuals of F- and R-symbols.

Four leaves (a, b, c, d) fuse to the root t along five tree shapes, each
named by its two inner labels:

      LL ((ab)c)d    x:(ab) y:(xc)
      M  (a(bc))d    u:(bc) y:(au)
      R  a((bc)d)    u:(bc) w:(ud)
      RR a(b(cd))    k:(cd) w:(bk)
      C  (ab)(cd)    x:(ab) k:(cd)

With F[a,b,c,d,e,f] the dense F-symbols of `catdata`, the pentagon equation
from LL to RR reads, for every admissible label tuple (a,b,c,d, x,y,t, k,w),

    sum_u F[a,b,c,y,x,u] F[a,u,d,t,y,w] F[b,c,d,w,u,k]
      = F[x,c,d,t,y,k] F[a,b,k,t,x,w]

the left side the path LL -> M -> R -> RR, the right side LL -> C -> RR.
"""

from __future__ import annotations

import numpy as np

from . import catdata


def pentagon_residual(cat):
    """Max deviation between the two F-move paths ((ab)c)d -> a(b(cd)).

    The tuples (a,b,c,d, x,y,t, k,w) are built by one join per label, on
    N[a,b,x], N[x,c,y], N[y,d,t], N[c,d,k] and N[b,k,w] nonzero, and a last
    filter on N[a,w,t].  Each side is one einsum over F gathered at those
    tuples (einsum multiplies complex numbers as the oracle's loops do, where
    numpy's multiply ufunc may fuse and round differently); the inner label
    u runs over all labels, since F is zero outside admissible ones.
    """
    N, F = cat.N, cat.F
    rows = np.indices((cat.n,) * 4).reshape(4, -1).T
    for i, j in ((0, 1), (4, 2), (5, 3), (2, 3), (1, 7)):
        rows = catdata.join(N, rows, i, j)
    a, b, c, d, x, y, t, k, w = rows[N[rows[:, 0], rows[:, 8], rows[:, 6]] > 0].T
    if not len(a):
        return 0.0
    left = np.einsum("Tu,Tu,Tu->T", F[a, b, c, y, x], F[a, :, d, t, y, w], F[b, c, d, w, :, k])
    right = np.einsum("T,T->T", F[x, c, d, t, y, k], F[a, b, k, t, x, w])
    return float(np.max(np.abs(left - right)))


def hexagon_residual(cat):
    """Max deviation of both hexagon identities.

    With R[x,y,z] = cat.R the braiding phase of z in x (x) y (1 where x or y
    is the unit, 0 on empty triples), the identity checked reads, for every
    (a,b,c,d) and f, f' labelling the columns (f, N[b,c,f] N[a,f,d]) of
    F^{abc}_d and the rows (f', N[b,c,f'] N[f',a,d]) of F^{bca}_d (on a
    commutative ring, the same labels),

        delta_{f f'} R[a,f,d] =
            sum_{e,g} conj(F[a,b,c,d,e,f]) R[a,b,e] F[b,a,c,d,e,g] R[a,c,g]
                      conj(F[b,c,a,d,f',g])

    as one einsum "abcdef,abe,bacdeg,acg,bcadhg->abcdfh" with h = f'; the
    mirror identity replaces R[x,y,z] by conj(R[y,x,z]).
    """
    N, F, R = cat.N, cat.F, cat.R
    if R is None:
        raise catdata.CategoryError("category carries no R-symbols")
    if not np.array_equal(N, np.swapaxes(N, 0, 1)):
        raise ValueError("fusion ring not commutative; no braiding possible")
    cols = np.einsum("bcf,afd->abcdf", N, N) > 0
    mask = cols[..., :, None] & cols[..., None, :]
    resid = []
    for Rm in (R, R.transpose(1, 0, 2).conj()):
        lhs = np.einsum("fh,afd->adfh", np.eye(cat.n), Rm)[:, None, None]
        # optimize=True's pairwise order for every n > 1, given so that no call searches for it
        mid = np.einsum("abcdef,abe,bacdeg,acg,bcadhg->abcdfh", F.conj(), Rm, F, Rm,
                        F.conj(), optimize=["einsum_path", (0, 1), (0, 3), (0, 1), (0, 1)])
        resid.append(np.abs(lhs - mid)[mask].max(initial=0.0))
    return float(np.max(resid))  # np.max keeps a nan residual; Python's max would drop it
