"""Modular data of the tube-algebra center: S and T matrices and fusion rules.

S and T are read off the Verlinde basis, the minimal central projections
pi_i of the tube algebra: block i acts by an irreducible *-representation
rho_i of dimension n_i.  The tube basis is orthonormal for the Markov form
<x, y> = tau(y* x); tau is tracial, q_i Tr rho_i on block i, so the pi_i
are their own dual basis: Tr rho_i(x) = n_i <x, pi_i> / <pi_i, pi_i>.  The
characters, T (the twist tube's center coordinates) and the conditional
expectation are such inner products, so no stage after the center
decomposition reads C.  S, the trace of the double braiding of two blocks,
is solved for from the characters.
All Verlinde-type axioms are asserted before a ModularData is returned.

The half-braidings give the fusion rules a second time, as the traces
Tr rho_ij(pi_k) / n_k of the central projections on the product of two
blocks (pants_dims).  block_irreps grades each block's
representation space by the simples xi of the input category, m_{i,xi}
copies each, with the corner idempotents X(xi,xi,e,xi,0,0).  The
half-braiding of block i is one array E_i[sigma, delta, p, a, q, b]:
strand sigma, total charge delta, row component p (a slot of rep.comps)
with a in Hom(delta, sigma.xi_p), column component q with b in
Hom(delta, eta_q.sigma).  The basis axes have length max N and E_i is
zero outside admissible slots, so for each (sigma, delta) the admissible
rows and columns form a square unitary.  The tube action determines E_i
linearly (extract_half_braidings), and the two-strand composition law,
which the solve never saw, checks it (half_braiding_multiplicativity).
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


def block_irreps(alg, dec):
    """One irreducible representation per central block.

    The first n_i columns of `dec.block_spaces[i]` span a minimal left
    ideal A q of block i, on which A acts by its irrep; the corner
    idempotents X(xi,xi,e,xi,0,0) then grade that space by simple, with
    one stacked product over all corners and one batched eigh per block.
    """
    cat = alg.cat
    # left multiplication by basis k is C[k].T
    x = np.arange(cat.n)
    ks = alg.index[x, x, 0, x, 0, 0]
    corners = alg.scale[ks, None, None] * alg.C[ks].transpose(0, 2, 1)
    reps = []
    for i in range(dec.r_plus_1):
        n = dec.n[i]
        V = dec.block_spaces[i][:, :n]
        P = V.conj().T @ corners @ V
        mult = np.round(np.trace(P, axis1=1, axis2=2).real).astype(np.int64)
        occ = np.flatnonzero(mult)
        w, Wv = np.linalg.eigh(P[occ])
        keep = w > 0.5
        if (keep.sum(axis=1) != mult[occ]).any():
            raise ModularDataError("grading projector of block %d is not "
                                   "a clean projection" % i)
        m = {xi: int(mult[xi]) for xi in occ.tolist()}
        comps = [(xi, t) for xi, k in m.items() for t in range(k)]
        if len(comps) != n:
            raise ModularDataError("grading of block %d sums to %d, not %d"
                                   % (i, len(comps), n))
        # the kept eigenvectors of each occurring simple, in simple order
        V = V @ Wv.transpose(0, 2, 1)[keep].T
        qd = sum(k * cat.d[xi] for xi, k in m.items())
        if abs(qd - dec.qdims[i]) > 1e-8:
            raise ModularDataError("block %d grading disagrees with its "
                                   "quantum dimension" % i)
        reps.append(BlockRep(V, comps, m))
    return reps


# ---------------------------------------------------------------------------
# half-braidings
# ---------------------------------------------------------------------------


def _tube_coefficients(cat, tubes):
    """coef[t, k, mp, mm]: the coefficient of E[zeta*, k, p, mp, q, mm] in the equation
    of tube t = X(xi,eta,zeta,...) and components p of xi, q of eta; no block's."""
    F = cat.F
    xi, eta, zeta, dl, a, b = tubes.T
    sig = np.asarray(cat.dual)[zeta]
    return np.einsum("Tu,Tkumw,Tkpw->Tkpm", F[xi, zeta, sig, xi, dl, 0, a, :, 0, 0],
                     F[zeta, eta, sig, xi, dl, :, b].conj(),
                     F[zeta, sig, xi, xi, 0, :, 0, 0])


def extract_half_braidings(alg, dec, reps):
    """Solve the tube action for the half-braiding of every block.

    Blocks with the same component labels share the equations, so there
    is one least-squares solve per (label set, strand), on the stacked
    right sides of all blocks of the set.  Returns (one array E[sigma,
    delta, p, a, q, b] per block, residual dict) and raises when the fit
    or the unitarity of any solved (sigma, delta) square is worse than
    1e-6; of several failures, the first one in block, then strand order,
    a block's fits before its unitarity.
    """
    cat = alg.cat
    N, F, n = cat.N, cat.F, cat.n
    slot = np.arange(F.shape[-1])
    residuals = {"solve": 0.0, "unitary": 0.0}

    xi, eta, zeta = alg.basis[:, :3].T
    sig = np.asarray(cat.dual)[zeta]
    coef = _tube_coefficients(cat, alg.basis)
    # the graded rep basis is orthonormal; the half-braiding component
    # convention weighs grade xi by sqrt(d_xi)
    grade = np.sqrt(cat.d[eta] / cat.d[xi])

    # the tubes X(xi,eta,sigma*,...) strand by strand, in tube order within one
    eqs = np.column_stack([xi, eta, np.arange(alg.dim)])
    eqs = eqs[np.argsort(sig, kind="stable")]
    groups = {}
    for bi, rep in enumerate(reps):
        groups.setdefault(tuple(rep.labels.tolist()), []).append(bi)
    out, fails = [None] * len(reps), []
    for blocks in groups.values():
        labels, rn, nb = reps[blocks[0]].labels, reps[blocks[0]].n, len(blocks)
        # admissible rows (delta, p, a) and columns (delta, q, b) of each
        # E[sigma]; its unknowns are its admissible entries in C order
        rows = slot < N[:, labels].transpose(0, 2, 1)[..., None]
        cols = slot < N[labels].transpose(1, 2, 0)[..., None]
        square = rows.sum(axis=(2, 3)) == cols.sum(axis=(2, 3))
        free = rows[..., None, None] & cols[:, :, None, None]
        varix = np.cumsum(free.reshape(n, -1), axis=1).reshape(free.shape) - 1
        nvar = free.reshape(n, -1).sum(axis=1)
        # the equations (tube, p, q) with components p of xi and q of eta, in
        # strand, tube, p, q order, as the rows of A; strand sigma's are
        # rows cut[sigma]:cut[sigma + 1], its unknowns the first nvar[sigma]
        # columns
        comp = labels == np.arange(n)[:, None]
        tube, p, q = join(comp, join(comp, eqs, 0), 1)[:, 2:].T
        s = sig[tube]
        cut = np.searchsorted(s, np.arange(n + 1))
        e, k, mp, mm = np.nonzero(free[s, :, p, :, q, :])
        A = np.zeros((len(tube), nvar.max()), dtype=complex)
        A[e, varix[s[e], k, p[e], mp, q[e], mm]] += coef[tube[e], k, mp, mm]
        # rho[block, tube]; left multiplication by basis k is C[k].T
        tubes, at = np.unique(tube, return_inverse=True)
        Vs = np.array([reps[bi].V for bi in blocks])
        rho = alg.scale[tubes, None, None] * (Vs.conj().transpose(0, 2, 1)[:, None]
                                              @ alg.C[tubes].transpose(0, 2, 1)
                                              @ Vs[:, None])
        Y = (grade[tube] * rho[:, at, p, q]).T
        E = np.zeros((nb, n, n, rn, slot.size, rn, slot.size), dtype=complex)
        for sigma in range(n):
            if not square[sigma].all():
                fails.append(((blocks[0], 0, sigma), "half-braiding block (%d,%d) is "
                              "not square" % (sigma, np.argmax(~square[sigma]))))
                break
            if not nvar[sigma]:
                continue
            eq = slice(cut[sigma], cut[sigma + 1])
            At, Yt = A[eq, :nvar[sigma]], Y[eq]
            sol, *_ = np.linalg.lstsq(At, Yt, rcond=None)
            # one matrix-vector product per block rounds as the unstacked fit
            fit = np.max(np.abs((At @ sol.T[:, :, None])[:, :, 0] - Yt.T),
                         axis=1, initial=0.0).tolist()
            residuals["solve"] = max(residuals["solve"], *fit)
            fails += [((bi, 0, sigma), "half-braiding solve for block %d, strand %d "
                       "has residual %.3e" % (bi, sigma, f))
                      for bi, f in zip(blocks, fit) if f > _EXTRACT_TOL]
            E[:, sigma, free[sigma]] = sol.T
        # one E^H E per (block, sigma, delta): E is zero off the admissible
        # slots, so each product is the identity on the admissible columns
        Es = E.reshape(nb * n * n, rn * slot.size, -1)
        eye = cols.reshape(n * n, -1)
        w = eye.shape[1]
        uni = np.max(np.abs((Es.conj().transpose(0, 2, 1) @ Es).reshape(nb, n * n, w, w)
                            - eye[:, :, None] * np.eye(w)), axis=(2, 3))
        residuals["unitary"] = max(residuals["unitary"], float(uni.max()))
        for bi, row, Ei in zip(blocks, uni, E):
            bad = np.flatnonzero(row > _EXTRACT_TOL)
            if bad.size:
                sigma, delta = divmod(int(bad[0]), n)
                fails.append(((bi, 1, 0), "half-braiding (%d, strand %d, charge %d) is "
                              "not unitary (%.3e)" % (bi, sigma, delta, row[bad[0]])))
            out[bi] = Ei
    if fails:
        raise ModularDataError(min(fails)[1])
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


def checked_half_braidings(alg, dec):
    """Irreps and half-braidings of dec's blocks; the law is held to 1e-6 too."""
    reps = block_irreps(alg, dec)
    E = extract_half_braidings(alg, dec, reps)[0]
    law = half_braiding_multiplicativity(alg.cat, reps, E)
    if law > _EXTRACT_TOL:
        raise ModularDataError("half-braiding composition law fails at %.3e" % law)
    return reps, E


# ---------------------------------------------------------------------------
# T and S matrices
# ---------------------------------------------------------------------------


def twist_element(alg):
    """Coordinates of the central twist tube sum_{xi,delta,a} d_xi X(xi,xi,xi,delta,a,a)."""
    xi, eta, zeta, _, a, b = alg.basis.T
    on = (xi == eta) & (eta == zeta) & (a == b)
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
    entries Q[sigma, xi, k, u, w] of a traced half-braiding (u < N[sigma,
    xi, k], w < N[xi, sigma, k]), and the square matrix A that maps Q[free],
    in C order, to the character on the torus tubes: the equations of
    extract_half_braidings traced over the components of grade xi."""
    cat = alg.cat
    N, slot = cat.N, np.arange(cat.F.shape[-1])
    torus = np.flatnonzero(alg.basis[:, 0] == alg.basis[:, 1])
    xi, sig = alg.basis[torus, 0], np.asarray(cat.dual)[alg.basis[torus, 2]]
    free = ((slot < N[..., None])[..., None]
            & (slot < N.transpose(1, 0, 2)[..., None])[..., None, :])
    A = np.zeros((len(torus),) + free.shape, dtype=complex)
    e, k, u, w = np.nonzero(free[sig, xi])
    A[e, sig[e], xi[e], k, u, w] = _tube_coefficients(cat, alg.basis[torus])[e, k, u, w]
    A = A.reshape(len(torus), -1)[:, free.ravel()]
    if A.shape[0] != A.shape[1]:
        raise ModularDataError("the torus-tube system of S is not square")
    return torus, A, free


def compute_S(alg, chi):
    """S matrix from the double-braiding (Hopf link) trace.

    The trace reads only Q_i[sigma, xi, delta, u, w] = sum over p of grade
    xi of E_i[sigma, delta, p, u, p, w].  The torus-tube system has Q_i as
    unknowns and the characters chi_i on the torus tubes as right side:
    one square solve, block diagonal in (sigma, xi).

    The raw trace is the right-handed Hopf link; the twist convention
    (dyon (g, chi) has twist chi(g)) pairs with the left-handed one, so
    the result is conjugated to make (ST)^3 = S^2 hold.
    """
    torus, A, free = _torus_system(alg)
    Q = np.zeros((len(chi),) + free.shape, dtype=complex)
    Q[:, free] = np.linalg.solve(A, chi[:, torus].T).T
    stilde = np.einsum("d,jxyduw,iyxdwu->ij", alg.cat.d, Q, Q, optimize=True)
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


def pants_dims(alg, dec, reps, braidings):
    """Fusion multiplicities N_ij^k = Tr rho_ij(pi_k) / n_k, rho_ij the tube
    action on Gamma_i x Gamma_j.  One einsum over every pair traces the
    product's half-braiding (E_i and E_j through three F-moves, never formed)
    over the components of each fused grade; A of the torus-tube system maps
    that to the character on the torus tubes, which hold the center, and one
    product with the projections gives every k.  Raises on a trace 1e-6 off."""
    F = alg.cat.F
    torus, A, free = _torus_system(alg)
    # Tr rho(pi_k) / n_k = sum_t pi_k[t] Tr rho(X_t) / scale_t / n_k
    pair = (dec.projections[:, torus] / alg.scale[torus]
            / np.array(dec.n)[:, None]).T
    # E enters only at equal row and column component p, and F reads p only
    # through its grade: Q[block, sigma, xi, delta, u, w] sums E over grade xi
    Q = np.array([np.einsum("sdpupw,px->sxduw", E, rep.labels[:, None] == np.arange(alg.cat.n))
                  for rep, E in zip(reps, braidings)])
    # numpy's default intermediate bound leaves large ranks one unsplit loop
    chi = np.einsum("xyzdefcmun,jzyfau,xzydgfshan,izxgts,zxydgethcw->ijzedwm",
                    F, Q, F.conj(), Q, F, optimize=("greedy", 2 ** 24))
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
