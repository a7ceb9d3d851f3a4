"""Modular data of the tube-algebra center: S and T matrices and fusion rules.

S and T are read off the Verlinde basis, the minimal central projections
pi_i of the tube algebra: block i acts by an irreducible *-representation
rho_i of dimension n_i.  The tube basis is orthonormal for the Markov form
<x, y> = tau(y* x); tau is tracial, q_i Tr rho_i on block i, so the pi_i
are their own dual basis: Tr rho_i(x) = n_i <x, pi_i> / <pi_i, pi_i>.  The
characters, T (the twist tube's center coordinates) and dec.coefficients
are such inner products, so no stage after the center decomposition reads
C.  S, the trace of the double braiding of two blocks, is solved for from
the characters.
All Verlinde-type axioms are asserted before a ModularData is returned.

The half-braidings give the fusion rules a second time, as the traces
Tr rho_ij(pi_k) / n_k of the central projections on the product of two
blocks (pants_dims).  The route passes one stacked layout, w = max n_i:
block_irreps returns V[i] (dim x w), whose first n_i columns are block
i's orthonormal basis graded by the simples xi of the input category, and
lab[i], the simple of each column in ascending order, -1 past n_i.  The
grading reads no C: on the orthonormal tubes the corner idempotent
X(xi,xi,0,xi) is the mask of the tubes of first label xi.  The
half-braidings are one array E[i, sigma, delta, p, q]: block i, strand
sigma, total charge delta, row component p with delta in sigma.xi_p, column
component q with delta in eta_q.sigma.  E is zero past n_i and outside
admissible labels, so for each (i, sigma, delta) the admissible rows and
columns form a square unitary.  One square tube system, block diagonal by
sector (_tube_system), gives all of E in one solve
(extract_half_braidings); its torus rows, with E traced over each grade,
are what S and pants_dims solve.  The two-strand composition law, which
the solve never saw, checks E (half_braiding_multiplicativity); it reads
its three F-moves as F, conj F, F, and pants_dims, which fuses objects
instead of strands, runs each move the other way: conj F, F, conj F.
"""

import time
from contextlib import contextmanager

import numpy as np

from .catdata import join
from .tube import CenterDecomposition, build_tube_algebra, center_decompose

_EXTRACT_TOL = 1e-6
_AXIOM_TOL = 1e-8
_VERLINDE_TOL = 1e-6  # distance of the Verlinde numbers from integers
_U_TOL = 1e-9  # self-adjointness of the Verlinde vectors

# ModularData.timings_ms keys in run order; "axioms" is ModularData and 1/S_00.
STAGES = ("tube", "center", "characters", "u_condition", "T", "S",
          "canonical_order", "axioms")


@contextmanager
def _stage(timings, name):
    t0 = time.perf_counter()
    yield
    timings[name] = round((time.perf_counter() - t0) * 1e3, 3)


class ModularDataError(RuntimeError):
    """Modular-data pipeline failed an exactness or axiom check."""


# ---------------------------------------------------------------------------
# block irreps
# ---------------------------------------------------------------------------


def block_irreps(alg, dec):
    """One irreducible representation per central block, stacked as (V, lab).

    The first n_i columns of `dec.block_spaces[i]` span a minimal left
    ideal A q of block i, on which A acts by its irrep (x acts as V+ L_x V).
    The corner idempotent X(xi,xi,0,xi) is the mask of the tubes of
    first label xi, so P_xi = V+ mask_xi V grades that space by simple
    without reading C; one batched eigh per block.
    """
    cat = alg.cat
    r1, width = dec.r_plus_1, max(dec.n)
    V = np.zeros((r1, alg.dim, width), dtype=complex)
    lab = np.full((r1, width), -1)
    mask = alg.basis[:, 0] == np.arange(cat.n)[:, None, None]
    for i, n in enumerate(dec.n):
        B = dec.block_spaces[i][:, :n]
        P = (mask * B.conj().T) @ B
        mult = np.round(np.trace(P, axis1=1, axis2=2).real).astype(np.int64)
        occ = np.flatnonzero(mult)
        w, Wv = np.linalg.eigh(P[occ])
        keep = w > 0.5
        if (keep.sum(axis=1) != mult[occ]).any():
            raise ModularDataError("grading projector of block %d is not "
                                   "a clean projection" % i)
        if mult.sum() != n:
            raise ModularDataError("grading of block %d sums to %d, not %d"
                                   % (i, mult.sum(), n))
        # the kept eigenvectors of each occurring simple, in simple order
        V[i, :, :n] = B @ Wv.transpose(0, 2, 1)[keep].T
        lab[i, :n] = np.repeat(np.arange(cat.n), mult)
        if abs(mult @ cat.d - dec.qdims[i]) > 1e-8:
            raise ModularDataError("block %d grading disagrees with its "
                                   "quantum dimension" % i)
    return V, lab


# ---------------------------------------------------------------------------
# half-braidings
# ---------------------------------------------------------------------------


def _tube_system(alg):
    """The tube action on a half-braiding: (A, col), one matrix for every block.

    The unknowns E[sigma, k, p, q] (N[sigma, xi, k] = N[eta, sigma, k] = 1;
    p of grade xi, q of grade eta) depend on p, q only through (xi, eta):
    col[sigma, xi, eta, k] numbers them in C order from N alone, -1 off the
    admissible labels.  Row t of A is the equation of tube
    X_t = X(xi, eta, zeta, ...), sigma = zeta*, with right side grade_t
    rho(X_t)[p, q].  A is block diagonal by sector and square: Frobenius
    reciprocity makes dim Hom(xi zeta, zeta eta) equal dim Hom(sigma xi, eta sigma).
    """
    cat = alg.cat
    N, F = cat.N, cat.F
    free = (N[:, :, None, :] > 0) & (N.transpose(1, 0, 2)[:, None] > 0)
    col = np.full(free.shape, -1)
    col[free] = np.arange(np.count_nonzero(free))
    dual = np.asarray(cat.dual)
    xi, eta, zeta, _ = alg.basis.T
    t, k = np.nonzero(free[dual[zeta], xi, eta])
    xi, eta, zeta, dl = alg.basis[t].T
    sig = dual[zeta]
    # einsum rounds each product as a per-entry loop does (see tube._structure)
    A = np.zeros((alg.dim, col.max() + 1), dtype=complex)
    A[t, col[sig, xi, eta, k]] = np.einsum("T,T,T->T", F[xi, zeta, sig, xi, dl, 0],
                                           F[zeta, eta, sig, xi, dl, k].conj(),
                                           F[zeta, sig, xi, xi, 0, k])
    if A.shape[0] != A.shape[1]:
        raise ModularDataError("the tube system of the half-braidings is not square")
    return A, col


def extract_half_braidings(alg, irreps):
    """Solve the tube action for the half-braiding of every block.

    Column (block, p, q) of the right side holds grade_t rho_i(X_t)[p, q] on
    the tubes of the grades of p and q; one solve with `_tube_system` answers
    every column, and E gathers the solution at col.  Returns (the stack
    E[block, sigma, delta, p, q], zero past n_i, residual dict).  Raises
    on a block whose (sigma, delta) rows and columns form no square, or a
    square 1e-6 off unitary: the first failure in block order, a block's
    square first.
    """
    cat = alg.cat
    N, n = cat.N, cat.n
    A, col = _tube_system(alg)
    V, lab = irreps
    r1, width = lab.shape
    on = lab >= 0
    blk, p, q = np.nonzero(on[:, :, None] & on[:, None, :])
    xp, xq = lab[blk, p], lab[blk, q]
    xi, eta = alg.basis[:, 0], alg.basis[:, 1]
    # the graded rep basis is orthonormal; the half-braiding component
    # convention weighs grade xi by sqrt(d_xi)
    weight = alg.scale * np.sqrt(cat.d[eta] / cat.d[xi])
    # a tube of (xi, eta) maps the tubes of first label eta to those of first
    # label xi, and C is zero elsewhere; in the lex-ordered basis these are
    # runs, so rho reads one slab of C per (xi, eta)
    run = np.searchsorted(xi * n + eta, np.arange(n * n + 1))
    first = run[::n]
    Vp, Vq = V[blk, :, p].T.conj(), V[blk, :, q].T
    Y = np.zeros((alg.dim, len(blk)), dtype=complex)
    for s in np.unique(xp * n + xq).tolist():
        c = np.flatnonzero(xp * n + xq == s)
        t, (x, y) = slice(run[s], run[s + 1]), divmod(s, n)
        rx, ry = slice(first[x], first[x + 1]), slice(first[y], first[y + 1])
        # rho(X_t)[p, q] = sum over j, k of conj(V[j, p]) C[t, k, j] V[k, q]
        Y[t, c] = weight[t, None] * np.einsum("tkc,kc->tc", alg.C[t, ry, rx] @ Vp[rx, c],
                                              Vq[ry, c])
    # a last zero row answers col's -1 off the admissible labels
    U = np.vstack([np.linalg.solve(A, Y), np.zeros(len(blk))])
    # E[block, sigma, delta, p, q], zero on the padding of narrower blocks
    E = np.zeros((r1, n, n, width, width), dtype=complex)
    E[blk, :, :, p, q] = U[np.moveaxis(col[:, xp, xq], 1, 0), np.arange(len(blk))[:, None, None]]
    # E[sigma, delta] has a row for each component p with N[sigma, xi_p, delta]
    # and a column for each q with N[eta_q, sigma, delta]; each E^H E is the
    # identity on the admissible columns
    rows = on[:, None, None] * N[:, lab].transpose(1, 0, 3, 2)
    cols = (on[:, None, None] * N[lab].transpose(0, 2, 3, 1)).reshape(r1, n * n, width)
    square = (rows.sum(axis=3).reshape(r1, -1) == cols.sum(axis=2))
    Es = E.reshape(r1 * n * n, width, width)
    uni = np.max(np.abs((Es.conj().transpose(0, 2, 1) @ Es).reshape(r1, n * n, width, width)
                        - cols[..., None] * np.eye(width)), axis=(2, 3))
    for bi in range(r1):
        bad = np.flatnonzero(~square[bi])
        if bad.size:
            raise ModularDataError("half-braiding block (%d,%d) is not square"
                                   % divmod(int(bad[0]), n))
        bad = np.flatnonzero(uni[bi] > _EXTRACT_TOL)
        if bad.size:
            raise ModularDataError("half-braiding (%d, strand %d, charge %d) is not unitary "
                                   "(%.3e)" % (bi, *divmod(int(bad[0]), n), uni[bi, bad[0]]))
    return E, {"unitary": float(uni.max())}


def half_braiding_multiplicativity(cat, irreps, E):
    """Residual of the two-strand composition law, over all blocks.

    The extracted E never saw this equation: composing the strand-a and
    strand-b half-braidings through three F-moves must reproduce E on
    each fusion channel nu of a x b.  With xi_p, eta_q the labels of the
    row and column components p, q of block i, the law reads

        sum_{e,r,f} F[eta_q,a,b,delta,e,nu] E_i[a,e,r,q]
                    conj(F[a,xi_r,b,delta,e,f]) E_i[b,f,p,r]
                    F[a,b,xi_p,delta,z,f]
          = [z == nu] E_i[nu,delta,p,q].

    The outer tuples (i, p, q, a, b, z, nu, delta) are built by numpy
    joins on N[a,b,z], N[a,b,nu] and N[z,xi_p,delta] and a filter on
    N[eta_q,nu,delta]; the summed labels join on top of them: e on
    N[eta_q,a,e] and N[e,b,delta], r on N[a,xi_r,e], f on N[xi_r,b,f],
    N[a,f,delta] and N[b,xi_p,f].  cat.F and the stacked E (zero-padded to
    the widest block) are gathered at the inner tuples, and a segment sum
    takes their products back to the outer tuples.

    The check stays exact: an entry of the left side is nonzero only
    where its first and last F are, which needs all four outer N
    factors; an entry of the right side only where z = nu, N[a,b,nu] and
    E's admissible labels (N[nu,xi_p,delta], N[eta_q,nu,delta]) hold,
    which is again an outer tuple.  So the outer tuples cover every entry
    where either side can be nonzero, for E zero outside its admissible
    labels as extract_half_braidings returns it, and nothing is sampled.
    """
    N, F, n = cat.N, cat.F, cat.n
    lab = irreps[1]
    # columns: 0 i, 1 p, 2 q, 3 xi_p, 4 eta_q, 5 a, 6 b, 7 z, 8 nu, 9 delta
    pq = (lab >= 0)[:, :, None] & (lab >= 0)[:, None, :]
    blk, p, q, a, b = np.nonzero(np.broadcast_to(
        pq[:, :, :, None, None], pq.shape + (n, n)))
    rows = np.column_stack([blk, p, q, lab[blk, p], lab[blk, q], a, b])
    for x, y in ((5, 6), (5, 6), (7, 3)):
        rows = join(N, rows, x, y)
    outer = rows[N[rows[:, 4], rows[:, 8], rows[:, 9]] > 0]
    # inner columns: 10 outer row, 11 e, 12 r, 13 xi_r, 14 f
    rows = join(N, np.column_stack([outer, np.arange(len(outer))]), 4, 5)
    rows = rows[N[rows[:, 11], rows[:, 6], rows[:, 9]] > 0]
    t, r = np.nonzero(lab[rows[:, 0]] >= 0)
    rows = np.column_stack([rows[t], r, lab[rows[t, 0], r]])
    rows = join(N, rows[N[rows[:, 5], rows[:, 13], rows[:, 11]] > 0], 13, 6)
    rows = rows[(N[rows[:, 5], rows[:, 14], rows[:, 9]] > 0)
                & (N[rows[:, 6], rows[:, 3], rows[:, 14]] > 0)]
    i, p, q, xi, eta, a, b, z, nu, d, o, e, r, xr, f = rows.T
    # one product per inner tuple, rounded as the loop oracle rounds it
    terms = np.einsum("J,J,J,J,J->J", F[eta, a, b, d, e, nu], E[i, a, e, r, q],
                      F[a, xr, b, d, e, f].conj(), E[i, b, f, p, r], F[a, b, xi, d, z, f])
    # o is never empty: the vacuum tuples a = b = 0, p = q, e = eta_q,
    # r = q pass every join; an outer tuple with no inner tuple keeps got 0
    got = np.zeros(len(outer), dtype=complex)
    start = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
    got[o[start]] = np.add.reduceat(terms, start)
    # the identity channel z = nu
    i, p, q, xi, eta, a, b, z, nu, d = outer.T
    want = np.where(z == nu, E[i, nu, d, p, q], 0)
    return float(np.max(np.abs(got - want)))


def checked_half_braidings(alg, dec):
    """Irreps and half-braidings of dec's blocks; the law is held to 1e-6 too."""
    irreps = block_irreps(alg, dec)
    E = extract_half_braidings(alg, irreps)[0]
    law = half_braiding_multiplicativity(alg.cat, irreps, E)
    if law > _EXTRACT_TOL:
        raise ModularDataError("half-braiding composition law fails at %.3e" % law)
    return irreps, E


# ---------------------------------------------------------------------------
# T and S matrices
# ---------------------------------------------------------------------------


def twist_element(alg):
    """Coordinates of the central twist tube sum_{xi,delta} d_xi X(xi,xi,xi,delta)."""
    xi, eta, zeta, _ = alg.basis.T
    on = (xi == eta) & (eta == zeta)
    return np.where(on, alg.cat.d[xi] * alg.scale, 0.0).astype(complex)


def characters(alg, dec):
    """chi[i, t] = Tr rho_i(X_t) on the raw tubes X_t = scale_t e_t, in basis
    order: Tr rho_i(e_t) = n_i <e_t, pi_i> / <pi_i, pi_i> is n_i conj(pi_i[t])
    over the Markov weight of pi_i, so no product is taken and C is not read."""
    return np.conj(dec.projections) * alg.scale * (np.array(dec.n) / dec.weights)[:, None]


def compute_T(alg, dec):
    """T = conj(t), the central twist tube being L = sum_i t_i pi_i: t_i is the
    Markov inner product <L, pi_i> / <pi_i, pi_i>.  The gate on L - t @ P says
    that L is central; a failure names the block space that holds most of it."""
    L = twist_element(alg)
    t = dec.coefficients(L)
    rest = L - t @ dec.projections
    off = float(np.max(np.abs(rest)))
    if off > _AXIOM_TOL:
        i = np.argmax([np.linalg.norm(B.conj().T @ rest) for B in dec.block_spaces])
        raise ModularDataError("twist tube is not scalar on block %d "
                               "(residual %.3e)" % (i, off))
    return np.conj(t)


def _torus_system(alg):
    """The torus tubes X(xi, xi, ...), the mask `free` of the admissible
    entries Q[sigma, xi, k] of a traced half-braiding, and the square
    matrix A that maps Q[free], in C order, to the character on the torus
    tubes: the tube system at the torus rows and the xi = eta columns."""
    A, col = _tube_system(alg)
    torus = np.flatnonzero(alg.basis[:, 0] == alg.basis[:, 1])
    on = np.einsum("sxxk->sxk", col)
    free = on >= 0
    A = A.take(torus, 0).take(on[free], 1)
    if A.shape[0] != A.shape[1]:
        raise ModularDataError("the torus-tube system of S is not square")
    return torus, A, free


def compute_S(alg, chi):
    """S matrix from the double-braiding (Hopf link) trace.

    The trace reads only Q_i[sigma, xi, delta] = sum over p of grade xi of
    E_i[sigma, delta, p, p].  The torus-tube system has Q_i as
    unknowns and the characters chi_i on the torus tubes as right side:
    one square solve, block diagonal in (sigma, xi).

    The raw trace is the right-handed Hopf link; the twist convention
    (dyon (g, chi) has twist chi(g)) pairs with the left-handed one, so
    the result is conjugated to make (ST)^3 = S^2 hold.
    """
    torus, A, free = _torus_system(alg)
    Q = np.zeros((len(chi),) + free.shape, dtype=complex)
    Q[:, free] = np.linalg.solve(A, chi[:, torus].T).T
    stilde = np.einsum("d,jxyd,iyxd->ij", alg.cat.d, Q, Q, optimize=True)
    return np.conj(stilde) / alg.lam


# ---------------------------------------------------------------------------
# Verlinde data and orderings
# ---------------------------------------------------------------------------


def verlinde_fusion(S):
    """Integer fusion rules from the Verlinde formula.

    Returns (N, rounding residual); raises when any entry is farther
    than 1e-6 from an integer.
    """
    s0 = S[:, 0]
    raw = np.einsum("il,jl,kl->ijk", S, S, np.conj(S) / s0[None, :],
                    optimize=True)
    N = np.real(raw)
    rounded = np.round(N)
    resid = float(np.max(np.abs(N - rounded)) + np.max(np.abs(np.imag(raw))))
    if resid > _VERLINDE_TOL:
        raise ModularDataError("Verlinde formula is %.3e from integers" % resid)
    return rounded.astype(np.int64), resid


def check_U_condition(alg, dec):
    """Max deviation of the Verlinde vectors from self-adjointness."""
    worst = float(np.max(np.abs(np.conj(dec.p) @ alg.St.T - dec.p)))  # star of each row
    if worst > _U_TOL:
        raise ModularDataError("Verlinde vectors are not self-adjoint (%.3e)" % worst)
    return worst


def _round9(x):
    """round(v, 9) of every entry of a real array, once per distinct value."""
    vals, inv = np.unique(x, return_inverse=True)
    return np.array([round(v, 9) for v in vals.tolist()])[inv.reshape(x.shape)]


def _row_ranks(M):
    """Dense rank of each row of M in lexicographic row order."""
    o = np.lexsort(M.T[::-1])
    M = M[o]
    out = np.empty(len(o), dtype=np.int64)
    out[o[0]] = 0
    out[o[1:]] = np.cumsum(np.any(M[1:] != M[:-1], axis=1))
    return out


def canonical_permutation(qdims, T, S, vacuum_index=0):
    """Seed-independent block order: vacuum first, then by invariants.

    Individualization-refinement on (qdim, twist angle, S row profile)
    signatures.  Residual ties are branched exhaustively and the order
    whose (T, S) value stream is lexicographically smallest wins, so two
    runs producing the same data up to permutation serialize identically.

    Everything runs on integer ids.  Each S and T entry is rounded to 9
    digits once and replaced by the dense rank of its (re, im) pair.  A
    class signature is a dense rank; a refinement round ranks, per block,
    its class followed by its sorted row of sig[j] * width + E[i, j], which
    orders like the (sig[j], E[i, j]) pairs.  Leaf streams compare as id
    arrays.  Since every id keeps the order of the value it stands for,
    the ranks, branches and chosen order are those of the same algorithm
    run on the rounded tuples (tests/oracles.py::canonical_permutation).
    """
    r1 = len(qdims)
    T = np.asarray(T, dtype=complex)
    z = np.concatenate((np.asarray(S, dtype=complex).ravel(), T))
    # complex values sort and compare as (re, im) pairs
    ids = np.unique(_round9(z.view(float)).view(complex),
                    return_inverse=True)[1]
    E, Tid = ids[:-r1].reshape(r1, r1), ids[-r1:]
    width = len(z)  # more than any id
    M = np.empty((r1, r1 + 1), dtype=np.int64)

    def refine(sig):
        top = sig.max()
        while top < r1 - 1:  # a discrete partition cannot split further
            M[:, 0] = sig
            M[:, 1:] = sig * width + E
            M[:, 1:].sort(axis=1)
            new = _row_ranks(M)
            if new.max() == top:
                break
            sig, top = new, new.max()
        return sig

    best = [None, None]

    def descend(sig):
        tied = np.flatnonzero(np.bincount(sig) > 1)
        if not tied.size:
            order = np.argsort(sig)
            st = np.concatenate((Tid[order], E[order][:, order].ravel()))
            if best[0] is not None:
                diff = np.flatnonzero(st != best[0])
                if not diff.size or st[diff[0]] > best[0][diff[0]]:
                    return
            best[0], best[1] = st, order
            return
        # individualize each member of the first tied class c in turn:
        # it keeps rank c, the rest of c and every class above move up one
        c = tied[0]
        split = sig + (sig >= c)
        for pick in np.flatnonzero(sig == c):
            split[pick] = c
            descend(refine(split))
            split[pick] = c + 1

    ang = np.angle(T) % (2 * np.pi)
    ang[ang > 2 * np.pi - 1e-9] = 0.0
    start = np.column_stack((np.arange(r1) != vacuum_index,
                             _round9(np.array([qdims, ang], dtype=float)).T))
    descend(refine(_row_ranks(start)))
    return best[1].tolist()


class ModularData:
    """S, T, fusion rules and Gauss sums of a center, axiom-checked; from
    compute_modular_data also alg, dec (in S's order) and timings_ms."""

    def __init__(self, S, T, qdims, block_dims, lam, residuals=None):
        self.S = np.asarray(S, dtype=complex)
        self.T = np.asarray(T, dtype=complex)
        self.qdims = list(qdims)
        self.block_dims = list(block_dims)
        self.lam = float(lam)
        self.residuals = dict(residuals or {})
        self.alg = self.dec = None
        self.timings_ms = {}
        self._validate()
        self.N, fresid = verlinde_fusion(self.S)
        self.residuals["verlinde_rounding"] = fresid

    @property
    def r_plus_1(self):
        return self.S.shape[0]

    def _validate(self):
        S, T = self.S, self.T
        r1 = S.shape[0]
        eye = np.eye(r1)
        checks = {
            "S_unitary": np.max(np.abs(S @ S.conj().T - eye)),
            "S_symmetric": np.max(np.abs(S - S.T)),
            "T_unimodular": np.max(np.abs(np.abs(T) - 1.0)),
            "T_vacuum": abs(T[0] - 1.0),
            "S_row0_positive": max(
                0.0, float(np.max(-np.real(S[0]))),
                float(np.max(np.abs(np.imag(S[0]))))),
        }
        C = S @ S
        perm = np.round(np.real(C))
        checks["C_permutation"] = float(
            np.max(np.abs(C - perm)) + abs(perm[0, 0] - 1.0)
            + np.max(np.abs(perm @ perm - eye)))
        st = S @ np.diag(T)
        checks["ST_cubed"] = float(np.max(np.abs(
            np.linalg.matrix_power(st, 3) - C)))
        for name, val in checks.items():
            if val > _AXIOM_TOL:
                raise ModularDataError("axiom %s fails at %.3e" % (name, val))
        self.C = perm.astype(np.int64)
        self.residuals = {**self.residuals,
                          **{k: float(v) for k, v in checks.items()}}
        self.gauss_plus = complex(np.sum(np.array(self.qdims) ** 2 * T))
        self.gauss_minus = complex(np.sum(np.array(self.qdims) ** 2 / T))

    def permuted(self, order):
        idx = np.asarray(order)
        return ModularData(self.S[np.ix_(idx, idx)], self.T[idx],
                           [self.qdims[i] for i in order],
                           [self.block_dims[i] for i in order],
                           self.lam, self.residuals)


def compute_modular_data(cat, seed=None):
    """Full pipeline: tube algebra, center, characters, S and T, each of
    STAGES timed; the result keeps the parts (see ModularData)."""
    timings, resid = {}, {}
    with _stage(timings, "tube"):
        alg = build_tube_algebra(cat)
    with _stage(timings, "center"):
        dec = center_decompose(alg, seed=seed)
    with _stage(timings, "characters"):
        chi = characters(alg, dec)
    with _stage(timings, "u_condition"):
        resid["u_condition"] = check_U_condition(alg, dec)
    with _stage(timings, "T"):
        T = compute_T(alg, dec)
    with _stage(timings, "S"):
        S = compute_S(alg, chi)
    with _stage(timings, "canonical_order"):
        order = canonical_permutation(dec.qdims, T, S)
        dec = CenterDecomposition(alg, dec.projections[order], *([x[i] for i in order]
                                  for x in (dec.n, dec.qdims, dec.block_spaces)), dec.seed)
    with _stage(timings, "axioms"):
        md = ModularData(S[np.ix_(order, order)], T[np.asarray(order)],
                         dec.qdims, dec.n, alg.lam, resid)
        lam_err = abs(1.0 / md.S[0, 0] - alg.lam)
        if lam_err > _AXIOM_TOL:
            raise ModularDataError("1/S_00 disagrees with the global "
                                   "dimension (%.3e)" % lam_err)
    md.alg, md.dec, md.timings_ms = alg, dec, timings
    return md


# ---------------------------------------------------------------------------
# fusion rules as traces of the central projections
# ---------------------------------------------------------------------------


def pants_dims(alg, dec, irreps, E):
    """Fusion multiplicities N_ij^k = Tr rho_ij(pi_k) / n_k, rho_ij the tube
    action on Gamma_i x Gamma_j.  One einsum over every pair traces the
    product's half-braiding over the components of each fused grade; A of the
    torus-tube system maps that to the character on the torus tubes, which
    hold the center, and one product with the projections gives every k.
    Raises on a trace 1e-6 off.

    The product's half-braiding is never formed.  Strand sigma passes
    (x y) sigma -> x (y sigma) -> x (sigma y) -> (x sigma) y -> (sigma x) y
    -> sigma (x y): E_j and E_i between the F-moves of (x, y, sigma),
    (x, sigma, y) and (sigma, x, y).  The composition law passes X (a b) ->
    (X a) b -> (a X) b -> a (X b) -> a (b X) -> (a b) X and reads its moves
    as F, conj F, F (half_braiding_multiplicativity): a move from the right-
    to the left-nested tree is F, its inverse conj F, as F is unitary.  Here
    the object is the product, not the strand, so every move runs the other
    way: conj F, F, conj F.  Real F, as in the zoo, cannot tell the orders
    apart; twisted doubles and a complex vertex gauge can.
    """
    F = alg.cat.F
    torus, A, free = _torus_system(alg)
    # Tr rho(pi_k) / n_k = sum_t pi_k[t] Tr rho(X_t) / scale_t / n_k
    pair = (dec.projections[:, torus] / alg.scale[torus]
            / np.array(dec.n)[:, None]).T
    # E enters only at equal row and column component p, and F reads p only
    # through its grade: Q[block, sigma, xi, delta] sums E over grade xi
    Q = np.einsum("isdpp,ipx->isxd", E, irreps[1][..., None] == np.arange(alg.cat.n))
    # numpy's default intermediate bound leaves large ranks one unsplit loop
    chi = np.einsum("xyzdef,jzyf,xzydgf,izxg,zxydge->ijzed",
                    F.conj(), Q, F, Q, F.conj(), optimize=("greedy", 2 ** 24))
    chi = chi.reshape(*chi.shape[:2], -1)[..., free.ravel()] @ A.T
    tr = chi @ pair
    out = np.round(tr.real)
    off = np.abs(tr - out)
    bad = ~(off <= _VERLINDE_TOL)  # nan included
    if bad.any():
        i, j, k = np.unravel_index(np.argmax(bad), off.shape)
        raise ModularDataError("pants trace for (%d,%d,%d) is %.3e from an integer"
                               % (i, j, k, off[i, j, k]))
    return out.astype(np.int64)


# ---------------------------------------------------------------------------
# oracles and matching
# ---------------------------------------------------------------------------


def group_double_oracle(nmod):
    """Closed-form S, T of the cyclic group double, vacuum first.

    Blocks are pairs (g, j) of a group element and a character index;
    S[(g,j),(h,k)] = w^-(jh+kg)/n and t[(g,j)] = w^(jg) with w = e^(2 pi i/n);
    the exponent sign on S is the one that makes (ST)^3 = S^2 with this t.
    """
    labels = [(g, j) for g in range(nmod) for j in range(nmod)]
    g, j = np.divmod(np.arange(nmod * nmod), nmod)
    m = np.vstack([-(np.outer(j, g) + np.outer(g, j)), j * g])
    # w^m is one exp at m reduced mod n into [-n/2, n/2), within 1e-15 of exact
    w = np.exp(2j * np.pi * ((m + nmod // 2) % nmod - nmod // 2) / nmod)
    return w[:-1] / nmod, w[-1], labels


def match_blocks(S_a, T_a, S_b, T_b, tol=1e-8):
    """Permutation p with S_a = S_b[p][:,p], T_a = T_b[p]; None if none."""
    r1 = len(T_a)
    used = [False] * r1
    perm = [-1] * r1

    def ok(i, cand):
        if abs(T_a[i] - T_b[cand]) > tol:
            return False
        for j in range(i + 1):
            pj = perm[j] if j < i else cand
            if abs(S_a[i, j] - S_b[cand, pj]) > tol:
                return False
            if abs(S_a[j, i] - S_b[pj, cand]) > tol:
                return False
        return True

    def rec(i):
        if i == r1:
            return True
        for cand in range(r1):
            if used[cand] or not ok(i, cand):
                continue
            used[cand] = True
            perm[i] = cand
            if rec(i + 1):
                return True
            used[cand] = False
            perm[i] = -1
        return False

    return perm if rec(0) else None


def braiding_st(cat):
    """Premodular S, T of a braided category from its R-symbols."""
    n = cat.n
    theta = np.array([
        sum(cat.d[c] * cat.rsym(a, a, c) for c in range(n)
            if cat.N[a, a, c]) / cat.d[a]
        for a in range(n)
    ])
    D = np.sqrt(float(np.sum(cat.d ** 2)))
    S = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            abar = cat.dual[a]
            S[a, b] = sum(cat.N[abar, b, c] * (theta[c] / (theta[a] * theta[b]))
                          * cat.d[c] for c in range(n)) / D
    return S, theta
