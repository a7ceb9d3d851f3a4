"""Modular data of the tube-algebra center: S and T matrices and fusion rules.

Each central block i of the tube algebra carries an irreducible
*-representation rho_i of dimension n_i.  The underlying object of the
block decomposes over the simples of the input category with
multiplicities m_{i,xi} (sum m = n_i); the representation space is
graded accordingly and the grading is read off from the corner
idempotents X(xi,xi,e,xi,0,0).

A half-braiding for block i is one array E_i[sigma, delta, p, a, q, b]:
sigma is the strand and delta the total charge; p is the row component
(a slot of rep.comps) and a its basis in Hom(delta, sigma.xi_p), q the
column component and b its basis in Hom(delta, eta_q.sigma).  The basis
axes have length max N, and E_i is zero outside admissible slots, so
for each (sigma, delta) the admissible rows and columns form a square
unitary.

The tube action determines E_i linearly: acting with X(xi,eta,zeta,...)
on the graded representation space equals an F-sandwich of
E_i(zeta*, .).  Its coefficients, gathered from cat.F once per algebra, fill
the rows of each (block, strand) system, solved by least squares; then we
verify unitarity and the two-strand composition law the solution never saw.
The law is checked on the admissible label tuples of all blocks at once,
built by numpy joins on N: cat.F and the stacked E arrays are gathered at
those tuples and contracted by one einsum over the multiplicity axes.

The twist is the eigenvalue of the central twist tube on each block,
and S is the normalized trace of the double braiding of two blocks.
All Verlinde-type axioms are asserted before a ModularData is returned.
"""

import time
from contextlib import contextmanager

import numpy as np

from .catdata import join
from .tube import _cluster, _newton_idempotent, build_tube_algebra, center_decompose

_EXTRACT_TOL = 1e-6
_AXIOM_TOL = 1e-8
_VERLINDE_TOL = 1e-6  # distance of the Verlinde numbers from integers
_U_TOL = 1e-9  # self-adjointness of the Verlinde vectors
_PANTS_GAP = 1e6  # singular-value ratio that separates a pants null space

# ModularData.timings_ms keys in run order; "axioms" is ModularData and 1/S_00.
STAGES = ("tube", "center", "irreps", "half_braidings", "composition_law",
          "u_condition", "T", "S", "canonical_order", "axioms")


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


class BlockRep:
    """Irreducible *-representation of one central block.

    `V` has orthonormal columns spanning a minimal left ideal of the
    block; x acts as `V+ L_x V`.  `comps` lists the grading basis as
    (simple, copy) pairs in ascending simple order, `labels` their
    simples as an array; `m[xi]` counts the copies of simple xi.
    """

    def __init__(self, V, comps, m):
        self.V = V
        self.n = V.shape[1]
        self.comps = comps
        self.labels = np.array([xi for xi, _ in comps], dtype=np.int64)
        self.m = m


def _minimal_projection(alg, dec, i, rng):
    """Rank-one projection inside block i, by Lagrange interpolation."""
    pi = dec.projections[i]
    n = dec.n[i]
    if n == 1:
        return pi
    B = dec.block_spaces[i]
    for _ in range(8):
        h = B @ (rng.standard_normal(B.shape[1])
                 + 1j * rng.standard_normal(B.shape[1]))
        h = 0.5 * (h + alg.star(h))
        M = B.conj().T @ alg.left_mult(h) @ B
        evals = np.linalg.eigvalsh(M)  # ascending
        # matrix spectrum of h repeats each eigenvalue n times under L_h
        spread = float(evals[-1] - evals[0]) or 1.0
        mus = [float(np.mean(evals[g])) for g in _cluster(evals, 1e-6 * spread)]
        if len(mus) != n:
            continue
        q = pi
        for b in range(1, n):
            q = alg.product(q, h - mus[b] * pi) / (mus[0] - mus[b])
        q = 0.5 * (q + alg.star(q))
        q = _newton_idempotent(alg, q)  # same refinement as the center pass
        if abs(alg.reg_trace(q).real - n) < 1e-6:
            return q
    raise ModularDataError("no minimal projection found in block %d" % i)


def block_irreps(alg, dec):
    """One irreducible representation per central block."""
    cat = alg.cat
    reps = []
    for i in range(dec.r_plus_1):
        rng = np.random.default_rng([dec.seed, i])
        n = dec.n[i]
        q = _minimal_projection(alg, dec, i, rng)
        U, sv, _ = np.linalg.svd(alg.right_mult(q))
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        if rank != n:
            raise ModularDataError(
                "left ideal of block %d has rank %d, expected %d" % (i, rank, n))
        V = U[:, :n]

        # grade by the corner idempotents; left multiplication by basis k is C[k].T
        blocks_W, comps, m = [], [], {}
        for xi in range(cat.n):
            k = alg.index[xi, xi, 0, xi, 0, 0]
            P = V.conj().T @ (alg.scale[k] * alg.C[k].T) @ V
            mult = int(round(np.trace(P).real))
            if mult == 0:
                continue
            w, Wv = np.linalg.eigh(P)
            keep = Wv[:, w > 0.5]
            if keep.shape[1] != mult:
                raise ModularDataError("grading projector of block %d is not "
                                       "a clean projection" % i)
            blocks_W.append(keep)
            comps.extend((xi, t) for t in range(mult))
            m[xi] = mult
        if len(comps) != n:
            raise ModularDataError("grading of block %d sums to %d, not %d"
                                   % (i, len(comps), n))
        V = V @ np.hstack(blocks_W)
        qd = sum(mult * cat.d[xi] for xi, mult in m.items())
        if abs(qd - dec.qdims[i]) > 1e-8:
            raise ModularDataError("block %d grading disagrees with its "
                                   "quantum dimension" % i)
        reps.append(BlockRep(V, comps, m))
    return reps


# ---------------------------------------------------------------------------
# half-braidings
# ---------------------------------------------------------------------------


def extract_half_braidings(alg, dec, reps):
    """Solve the tube action for the half-braiding of every block.

    Returns (one array E[sigma, delta, p, a, q, b] per block, residual
    dict) and raises when the least-squares fit or the unitarity of any
    solved (sigma, delta) square is worse than 1e-6.
    """
    cat = alg.cat
    N, F, n = cat.N, cat.F, cat.n
    slot = np.arange(F.shape[-1])
    residuals = {"solve": 0.0, "unitary": 0.0}
    layouts = {}

    # coef[tube, k, mp, mm]: the coefficient of the unknown E[sigma, k, p, mp,
    # q, mm] in the equation of tube X(xi,eta,zeta,delta,a,b), sigma = zeta*,
    # and components p of xi, q of eta; it depends on no block
    xi, eta, zeta, dl, a, b = alg.basis.T
    sig = np.asarray(cat.dual)[zeta]
    coef = np.einsum("Tu,Tkumw,Tkpw->Tkpm", F[xi, zeta, sig, xi, dl, 0, a, :, 0, 0],
                     F[zeta, eta, sig, xi, dl, :, b].conj(),
                     F[zeta, sig, xi, xi, 0, :, 0, 0])
    # the graded rep basis is orthonormal; the half-braiding component
    # convention weighs grade xi by sqrt(d_xi)
    grade = np.sqrt(cat.d[eta] / cat.d[xi])

    def layout(labels, sigma):
        # admissible rows (delta, p, a) and columns (delta, q, b) of E[sigma];
        # the unknowns, the admissible entries of E[sigma] in C order; and the
        # equations (tube, p, q) of the tubes X(xi,eta,sigma*,...) with components
        # p of xi and q of eta, in tube, then p, then q order, as the matrix A
        rows = slot < N[sigma][labels].T[:, :, None]
        cols = slot < N[labels, sigma].T[:, :, None]
        nrows, ncols = rows.sum(axis=(1, 2)), cols.sum(axis=(1, 2))
        if (nrows != ncols).any():
            raise ModularDataError("half-braiding block (%d,%d) is not "
                                   "square" % (sigma, np.argmax(nrows != ncols)))
        free = rows[:, :, :, None, None] & cols[:, None, None, :, :]
        varix = np.cumsum(free).reshape(free.shape) - 1
        comp = labels == np.arange(n)[:, None]
        eqs = np.column_stack([xi, eta, np.arange(alg.dim)])[sig == sigma]
        tube, p, q = join(comp, join(comp, eqs, 0), 1)[:, 2:].T
        e, k, mp, mm = np.nonzero(free[:, p, :, q, :])
        A = np.zeros((len(tube), int(free.sum())), dtype=complex)
        A[e, varix[:, p, :, q, :][e, k, mp, mm]] += coef[tube[e], k, mp, mm]
        tubes, at = np.unique(tube, return_inverse=True)
        return rows, cols, nrows, free, A, tubes, (at, p, q), grade[tube]

    out = []
    for bi, rep in enumerate(reps):
        E = np.zeros((n, n, rep.n, slot.size, rep.n, slot.size), dtype=complex)
        for sigma in range(n):
            # blocks with the same component labels share the layout
            key = (tuple(rep.labels.tolist()), sigma)
            if key not in layouts:
                layouts[key] = layout(rep.labels, sigma)
            rows, cols, nrows, free, A, tubes, ix, g = layouts[key]
            if not A.shape[1]:
                continue
            # rho of each tube; left multiplication by basis k is C[k].T
            rho = np.array([alg.scale[t] * (rep.V.conj().T @ alg.C[t].T @ rep.V)
                            for t in tubes.tolist()])
            y = g * rho[ix]
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
            fit = float(np.max(np.abs(A @ sol - y))) if len(y) else 0.0
            residuals["solve"] = max(residuals["solve"], fit)
            if fit > _EXTRACT_TOL:
                raise ModularDataError("half-braiding solve for block %d, "
                                       "strand %d has residual %.3e"
                                       % (bi, sigma, fit))
            E[sigma][free] = sol
            for delta in np.flatnonzero(nrows):
                sq = E[sigma, delta].reshape(rep.n * slot.size, -1)[
                    np.ix_(rows[delta].ravel(), cols[delta].ravel())]
                uni = float(np.max(np.abs(sq.conj().T @ sq - np.eye(len(sq)))))
                residuals["unitary"] = max(residuals["unitary"], uni)
                if uni > _EXTRACT_TOL:
                    raise ModularDataError("half-braiding (%d, strand %d, "
                                           "charge %d) is not unitary (%.3e)"
                                           % (bi, sigma, delta, uni))
        out.append(E)
    return out, residuals


def half_braiding_multiplicativity(cat, reps, braidings):
    """Residual of the two-strand composition law, over all blocks.

    The extracted E never saw this equation: composing the strand-a and
    strand-b half-braidings through three F-moves must reproduce E on
    each fusion channel nu of a x b.  With xi_p, eta_q the labels of the
    row and column components p, q of block i, the law reads

        sum_{e,r,f} F[eta_q,a,b,delta,e,nu] E_i[a,e,r,.,q,.]
                    conj(F[a,xi_r,b,delta,e,f]) E_i[b,f,p,.,r,.]
                    F[a,b,xi_p,delta,z,f]
          = [z == nu] [U == T] [T < N[a,b,nu]] E_i[nu,delta,p,y,q,m]

    over the multiplicity axes (U: z|ab, y: delta|z xi_p, T: nu|ab,
    m: delta|eta_q nu).  The outer tuples (i, p, q, a, b, z, nu, delta)
    are built by numpy joins on N[a,b,z], N[a,b,nu] and N[z,xi_p,delta]
    and a filter on N[eta_q,nu,delta]; the summed labels join on top of
    them: e on N[eta_q,a,e] and N[e,b,delta], r on N[a,xi_r,e], f on
    N[xi_r,b,f], N[a,f,delta] and N[b,xi_p,f].  cat.F and the stacked E
    (zero-padded to the widest block) are gathered at the inner tuples,
    one einsum runs over the multiplicity axes, and a segment sum takes
    the products back to the outer tuples.

    The check stays exact: an entry of the left side is nonzero only
    where its first and last F are, which needs all four outer N
    factors; an entry of the right side only where z = nu, N[a,b,nu] and
    E's admissible slots (N[nu,xi_p,delta], N[eta_q,nu,delta]) hold,
    which is again an outer tuple.  So the outer tuples cover every entry
    where either side can be nonzero, for E zero outside its admissible
    slots as extract_half_braidings returns it, and nothing is sampled.
    """
    N, F = cat.N, cat.F
    n, msize = cat.n, F.shape[-1]
    r1, width = len(reps), max(rep.n for rep in reps)
    E = np.zeros((r1, n, n, width, msize, width, msize), dtype=complex)
    lab = np.full((r1, width), -1, dtype=np.int64)
    for i, (rep, Ei) in enumerate(zip(reps, braidings)):
        E[i, :, :, :rep.n, :, :rep.n] = Ei
        lab[i, :rep.n] = rep.labels

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
    terms = np.einsum("JABTm,JsA,JsBut,Jcu,JUyct->JUyTm",
                      F[eta, a, b, d, e, nu], E[i, a, e, r, :, q],
                      F[a, xr, b, d, e, f].conj(), E[i, b, f, p, :, r],
                      F[a, b, xi, d, z, f], optimize=True)
    # o is never empty: the vacuum tuples a = b = 0, p = q, e = eta_q,
    # r = q pass every join; an outer tuple with no inner tuple keeps got 0
    got = np.zeros((len(outer),) + terms.shape[1:], dtype=complex)
    start = np.flatnonzero(np.r_[True, o[1:] != o[:-1]])
    got[o[start]] = np.add.reduceat(terms, start, axis=0)
    # the identity channel z = nu, U = T < N[a, b, nu]
    i, p, q, xi, eta, a, b, z, nu, d = outer.T
    k = np.flatnonzero(z == nu)
    T = np.arange(msize)
    want = np.zeros_like(got)
    want[k[:, None], T, :, T] = ((T < N[a[k], b[k], nu[k], None])[:, :, None, None]
                                 * E[i[k], nu[k], d[k], p[k], :, q[k]][:, None])
    return float(np.max(np.abs(got - want)))


# ---------------------------------------------------------------------------
# T and S matrices
# ---------------------------------------------------------------------------


def twist_element(alg):
    """Coordinates of the central twist tube sum_{xi,delta,a} d_xi X(xi,xi,xi,delta,a,a)."""
    xi, eta, zeta, _, a, b = alg.basis.T
    on = (xi == eta) & (eta == zeta) & (a == b)
    return np.where(on, alg.cat.d[xi] * alg.scale, 0.0).astype(complex)


def compute_T(alg, dec, reps, braidings):
    """Twist eigenvalues per block (the T diagonal), with E cross-check."""
    L = alg.left_mult(twist_element(alg))
    tvals = []
    for i, rep in enumerate(reps):
        M = rep.V.conj().T @ L @ rep.V
        off = float(np.max(np.abs(M - M[0, 0] * np.eye(rep.n))))
        if off > _AXIOM_TOL:
            raise ModularDataError("twist tube is not scalar on block %d "
                                   "(residual %.3e)" % (i, off))
        t = np.conj(M[0, 0])
        if abs(abs(t) - 1.0) > _AXIOM_TOL:
            raise ModularDataError("non-unimodular twist eigenvalue %r on "
                                   "block %d" % (t, i))
        tvals.append(t)
    T = np.array(tvals)
    resid = _twist_from_braiding_residual(alg.cat, reps, braidings, T)
    if resid > _AXIOM_TOL:
        raise ModularDataError("twist disagrees with half-braiding "
                               "trace (%.3e)" % resid)
    return T


def _twist_from_braiding_residual(cat, reps, braidings, T):
    """theta_i from the E-diagonal over the first graded component."""
    worst = 0.0
    for i, (rep, E) in enumerate(zip(reps, braidings)):
        c = rep.labels[0]
        theta = cat.d @ np.trace(E[c, :, 0, :, 0, :], axis1=1, axis2=2) / cat.d[c]
        worst = max(worst, abs(theta - T[i]))
    return worst


def compute_S(alg, dec, reps, braidings):
    """S matrix from the double-braiding (Hopf link) trace.

    The raw trace is the right-handed Hopf link; the twist convention
    (dyon (g, chi) has twist chi(g)) pairs with the left-handed one, so
    the result is conjugated to make (ST)^3 = S^2 hold.
    """
    cat = alg.cat
    n, msize = cat.n, cat.F.shape[-1]
    r1, width = len(reps), max(rep.n for rep in reps)
    # D[i, sigma, delta, p, u, w] = E_i[sigma, delta, p, u, p, w], zero-padded
    D = np.zeros((r1, n, n, width, msize, msize), dtype=complex)
    lab = np.zeros((r1, width), dtype=np.int64)
    for i, (rep, E) in enumerate(zip(reps, braidings)):
        D[i, :, :, :rep.n] = np.einsum("sdpupw->sdpuw", E)
        lab[i, :rep.n] = rep.labels
    blk = np.arange(r1)
    # term[i, j, delta]: sum over components p of i, q of j and slots u, w
    # of E_j(xi_p)[q,u; q,w] E_i(eta_q)[p,w; p,u], added in that order
    # (einsum's product rounds like scalar complex arithmetic)
    term = np.zeros((r1, r1, n), dtype=complex)
    for p, q, u, w in np.ndindex(width, width, msize, msize):
        term += np.einsum("ijd,ijd->ijd",
                          D[blk[None, :], lab[:, p, None], :, q, u, w],
                          D[blk[:, None], lab[None, :, q], :, p, w, u])
    stilde = np.zeros((r1, r1), dtype=complex)
    for delta in range(n):
        stilde += cat.d[delta] * term[:, :, delta]
    return np.conj(stilde) / alg.lam


# ---------------------------------------------------------------------------
# Verlinde data and orderings
# ---------------------------------------------------------------------------


def verlinde_fusion(S):
    """Integer fusion rules from the Verlinde formula.

    Returns (N, rounding residual); raises when any entry is farther
    than 1e-6 from an integer.
    """
    r1 = S.shape[0]
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
    worst = 0.0
    for p in dec.p:
        worst = max(worst, float(np.max(np.abs(alg.star(p) - p))))
    if worst > _U_TOL:
        raise ModularDataError("Verlinde vectors are not self-adjoint "
                               "(%.3e)" % worst)
    return worst


def _round9(x):
    """round(v, 9) of every entry of a real array."""
    return np.array([round(v, 9) for v in x.ravel().tolist()]).reshape(x.shape)


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
    compute_modular_data also its parts alg, dec, reps, braidings (reps and
    the half-braiding arrays E, in the canonical order of S, while dec keeps
    its own block order) and timings_ms, else None and {}."""

    def __init__(self, S, T, qdims, block_dims, lam, residuals=None):
        self.S = np.asarray(S, dtype=complex)
        self.T = np.asarray(T, dtype=complex)
        self.qdims = list(qdims)
        self.block_dims = list(block_dims)
        self.lam = float(lam)
        self.residuals = dict(residuals or {})
        self.alg = self.dec = self.reps = self.braidings = None
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
    """Full pipeline: tube algebra, center, half-braidings, S and T, each
    of STAGES timed; the result keeps the parts (see ModularData)."""
    timings = {}
    with _stage(timings, "tube"):
        alg = build_tube_algebra(cat)
    with _stage(timings, "center"):
        dec = center_decompose(alg, seed=seed)
    with _stage(timings, "irreps"):
        reps = block_irreps(alg, dec)
    with _stage(timings, "half_braidings"):
        braidings, resid = extract_half_braidings(alg, dec, reps)
    with _stage(timings, "composition_law"):
        worst = resid["multiplicative"] = half_braiding_multiplicativity(
            cat, reps, braidings)
        if worst > _EXTRACT_TOL:
            raise ModularDataError("half-braiding composition law fails at "
                                   "%.3e" % worst)
    with _stage(timings, "u_condition"):
        resid["u_condition"] = check_U_condition(alg, dec)
    with _stage(timings, "T"):
        T = compute_T(alg, dec, reps, braidings)
    with _stage(timings, "S"):
        S = compute_S(alg, dec, reps, braidings)
    with _stage(timings, "canonical_order"):
        order = canonical_permutation(dec.qdims, T, S)
    with _stage(timings, "axioms"):
        md = ModularData(S[np.ix_(order, order)], T[np.asarray(order)],
                         [dec.qdims[i] for i in order], [dec.n[i] for i in order],
                         alg.lam, resid)
        lam_err = abs(1.0 / md.S[0, 0] - alg.lam)
        if lam_err > _AXIOM_TOL:
            raise ModularDataError("1/S_00 disagrees with the global "
                                   "dimension (%.3e)" % lam_err)
    md.alg, md.dec = alg, dec
    md.reps = [reps[i] for i in order]
    md.braidings = [braidings[i] for i in order]
    md.timings_ms = timings
    return md


# ---------------------------------------------------------------------------
# pair-of-pants fusion dimensions
# ---------------------------------------------------------------------------


def pants_dims(alg, dec, reps, braidings):
    """Fusion multiplicities as dimensions of half-braiding intertwiners.

    N_ij^k counts maps phi: Gamma_i x Gamma_j -> Gamma_k with
    E_k (phi x 1) = (1 x phi) E_ij, where E_ij is the half-braiding of the
    product, built from E_i and E_j by three F-moves; computed as SVD
    nullities of the stacked constraint systems, with an explicit
    spectral gap check.
    """
    cat = alg.cat
    F, N, msize = cat.F, cat.N, cat.F.shape[-1]
    r1 = len(reps)
    out = np.zeros((r1, r1, r1), dtype=np.int64)
    spec = "pqzdefcmun,zfQaqu,pQzdgfshan,zgPtps,zPQdgxthyw->zdPQxywpqecm"
    path = None
    for i, j in np.ndindex(r1, r1):
        li, lj = reps[i].labels[:, None], reps[j].labels[None, :]
        # E_ij[zeta, delta, P, Q, f2, c2, m2, p, q, eps, c, m]: the product
        # component (p, q) fused to eps by c, strand zeta, charge delta;
        # one contraction order, found once, serves every pair
        ops = (F[li, lj], braidings[j], F[li, :, lj].conj(), braidings[i],
               F[:, li, lj])
        path = path or np.einsum_path(spec, *ops, optimize="greedy")[0]
        Eij = np.einsum(spec, *ops, optimize=path)
        Nij = N[li, lj]
        fused = set(np.flatnonzero(Nij.any(axis=(0, 1))).tolist())
        for k in range(r1):
            if fused.isdisjoint(reps[k].m):
                continue
            lk = reps[k].labels
            # phi[p, q, c, r]: component (p, q) fused by c into slot r of k
            phi = np.arange(msize)[:, None] < Nij[:, :, None, lk]
            onto = np.einsum("pP,qQ,cC,Re,zdSaRm->zdpqecmSaPQCR",
                             np.eye(len(li)), np.eye(lj.size), np.eye(msize),
                             np.equal.outer(lk, np.arange(cat.n)), braidings[k])
            back = np.einsum("RS,zdPQSCapqecm->zdpqecmSaPQCR",
                             np.eye(len(lk)), Eij[:, :, :, :, lk])
            A = (onto - back).reshape(-1, phi.size)[:, phi.ravel()]
            sv = np.linalg.svd(A, compute_uv=False)
            top = sv[0] if sv.size else 1.0
            null = int(np.sum(sv < 1e-7 * max(top, 1.0)))
            if null and sv.size > null:
                if sv[-null - 1] / max(sv[-null], 1e-300) < _PANTS_GAP \
                        and sv[-null - 1] < 1e-3:
                    raise ModularDataError(
                        "pants nullity for (%d,%d,%d) has no spectral gap"
                        % (i, j, k))
            out[i, j, k] = null
    return out


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
    w = np.exp(2j * np.pi / nmod)
    S = np.array([[w ** -(j * h + k * g) / nmod
                   for (h, k) in labels] for (g, j) in labels])
    T = np.array([w ** (j * g) for (g, j) in labels])
    return S, T, labels


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
