"""Modular data of the tube-algebra center: S and T matrices and fusion rules.

Each central block i of the tube algebra carries an irreducible
*-representation rho_i of dimension n_i.  The underlying object of the
block decomposes over the simples of the input category with
multiplicities m_{i,xi} (sum m = n_i); the representation space is
graded accordingly and the grading is read off from the corner
idempotents X(xi,xi,e,xi,0,0).

A half-braiding for block i and strand zeta is a family of unitaries
E_i(zeta, delta), one per total charge delta, with

    rows  (xi, t, a in B(delta, zeta.xi))   [target  zeta x Gamma_i]
    cols  (eta, s, b in B(delta, eta.zeta)) [source  Gamma_i x zeta]

The tube action determines E_i linearly: acting with X(xi,eta,zeta,...)
on the graded representation space equals an F-sandwich of
E_i(zeta*, .).  We solve that linear system per (block, strand) by least
squares, then verify unitarity and the two-strand composition law the
solution never saw.

The twist is the eigenvalue of the central twist tube on each block,
and S is the normalized trace of the double braiding of two blocks.
All Verlinde-type axioms are asserted before a ModularData is returned.
"""

import time
from contextlib import contextmanager

import numpy as np

from .tube import _newton_idempotent, build_tube_algebra, center_decompose

_EXTRACT_TOL = 1e-6
_AXIOM_TOL = 1e-8

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
    block; `rho(x) = V+ L_x V`.  `comps` lists the grading basis as
    (simple, copy) pairs in ascending simple order; `m[xi]` counts the
    copies of simple xi.
    """

    def __init__(self, alg, V, comps, m):
        self.alg = alg
        self.V = V
        self.n = V.shape[1]
        self.comps = comps
        self.m = m
        self.slot = {ct: i for i, ct in enumerate(comps)}

    def rho(self, x):
        return self.V.conj().T @ self.alg.left_mult(x) @ self.V


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
        evals = np.sort(np.linalg.eigvalsh(M))
        # matrix spectrum of h repeats each eigenvalue n times under L_h
        spread = float(evals[-1] - evals[0]) or 1.0
        mus, run = [], [evals[0]]
        for v in evals[1:]:
            if v - run[-1] <= 1e-6 * spread:
                run.append(v)
            else:
                mus.append(float(np.mean(run)))
                run = [v]
        mus.append(float(np.mean(run)))
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

        # grade by the corner idempotents
        rep = BlockRep(alg, V, [], {})
        blocks_W = []
        comps = []
        m = {}
        total = 0
        for xi in range(cat.n):
            corner = np.zeros(alg.dim, dtype=complex)
            k = alg.index[(xi, xi, 0, xi, 0, 0)]
            corner[k] = alg.scale[k]
            P = rep.rho(corner)
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
            total += mult
        if total != n:
            raise ModularDataError("grading of block %d sums to %d, not %d"
                                   % (i, total, n))
        V = V @ np.hstack(blocks_W)
        qd = sum(mult * cat.d[xi] for xi, mult in m.items())
        if abs(qd - dec.qdims[i]) > 1e-8:
            raise ModularDataError("block %d grading disagrees with its "
                                   "quantum dimension" % i)
        reps.append(BlockRep(alg, V, comps, m))
    return reps


# ---------------------------------------------------------------------------
# half-braidings
# ---------------------------------------------------------------------------


class HalfBraiding:
    """Half-braiding unitaries of one block, indexed by (strand, charge)."""

    def __init__(self, mats, rows, cols):
        self.mats = mats  # (zeta, delta) -> matrix
        self.rows = rows  # (zeta, delta) -> [(xi, t, a)]
        self.cols = cols  # (zeta, delta) -> [(eta, s, b)]

    def entry(self, zeta, delta, row, col):
        key = (zeta, delta)
        if key not in self.mats:
            return 0.0
        E = self.mats[key]
        ir = self.rows[key].get(row)
        ic = self.cols[key].get(col)
        if ir is None or ic is None:
            return 0.0
        return E[ir, ic]


def _braiding_slots(cat, rep, zeta):
    """Row/col labels of E(zeta, delta) for every admissible delta."""
    N = cat.N
    out = {}
    for delta in range(cat.n):
        rows = [(xi, t, a) for (xi, t) in rep.comps
                for a in range(N[zeta, xi, delta])]
        cols = [(eta, s, b) for (eta, s) in rep.comps
                for b in range(N[eta, zeta, delta])]
        if rows or cols:
            if len(rows) != len(cols):
                raise ModularDataError("half-braiding block (%d,%d) is not "
                                       "square" % (zeta, delta))
            if rows:
                out[delta] = (rows, cols)
    return out


def extract_half_braidings(alg, dec, reps):
    """Solve the tube action for the half-braiding of every block.

    Returns (list of HalfBraiding, residual dict) and raises when the
    least-squares fit or the unitarity of any solved block is worse than
    1e-6.
    """
    cat = alg.cat
    N, dual = cat.N, cat.dual
    residuals = {"solve": 0.0, "unitary": 0.0}
    out = []
    for bi, rep in enumerate(reps):
        mats, rowix, colix = {}, {}, {}
        for sigma in range(cat.n):
            zeta = dual[sigma]
            slots = _braiding_slots(cat, rep, sigma)
            varix = {}
            for delta, (rows, cols) in slots.items():
                for r in rows:
                    for c in cols:
                        varix[(delta, r, c)] = len(varix)
            if not varix:
                continue
            eqs, rhs = [], []
            for tube_i, (xi, eta, zt, delta, a, b) in enumerate(alg.basis):
                if zt != zeta or xi not in rep.m or eta not in rep.m:
                    continue
                rho = alg.scale[tube_i] * rep.rho(alg.basis_element(tube_i))
                # the graded rep basis is orthonormal; the half-braiding
                # component convention weighs grade xi by sqrt(d_xi)
                grade = np.sqrt(cat.d[eta] / cat.d[xi])
                for t in range(rep.m[xi]):
                    for s in range(rep.m[eta]):
                        row = np.zeros(len(varix), dtype=complex)
                        for k in range(cat.n):
                            if N[eta, sigma, k] == 0 or N[zeta, k, xi] == 0:
                                continue
                            for mm in range(N[eta, sigma, k]):
                                for mp in range(N[sigma, xi, k]):
                                    var = varix.get((k, (xi, t, mp), (eta, s, mm)))
                                    if var is None:
                                        continue
                                    coef = 0.0 + 0.0j
                                    for w in range(N[zeta, k, xi]):
                                        for u2 in range(N[delta, sigma, xi]):
                                            coef += (
                                                cat.f_entry(xi, zeta, sigma, xi,
                                                            delta, a, u2, 0, 0, 0)
                                                * np.conj(cat.f_entry(zeta, eta, sigma, xi,
                                                                      delta, b, u2, k, mm, w))
                                                * cat.f_entry(zeta, sigma, xi, xi,
                                                              0, 0, 0, k, mp, w)
                                            )
                                    row[var] += coef
                        eqs.append(row)
                        rhs.append(grade
                                   * rho[rep.slot[(xi, t)], rep.slot[(eta, s)]])
            A = np.array(eqs)
            y = np.array(rhs)
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
            fit = float(np.max(np.abs(A @ sol - y))) if len(y) else 0.0
            residuals["solve"] = max(residuals["solve"], fit)
            if fit > _EXTRACT_TOL:
                raise ModularDataError("half-braiding solve for block %d, "
                                       "strand %d has residual %.3e"
                                       % (bi, sigma, fit))
            for delta, (rows, cols) in slots.items():
                E = np.empty((len(rows), len(cols)), dtype=complex)
                for ir, r in enumerate(rows):
                    for ic, c in enumerate(cols):
                        E[ir, ic] = sol[varix[(delta, r, c)]]
                uni = float(np.max(np.abs(E.conj().T @ E - np.eye(len(rows)))))
                residuals["unitary"] = max(residuals["unitary"], uni)
                if uni > _EXTRACT_TOL:
                    raise ModularDataError("half-braiding (%d, strand %d, "
                                           "charge %d) is not unitary (%.3e)"
                                           % (bi, sigma, delta, uni))
                mats[(sigma, delta)] = E
                rowix[(sigma, delta)] = {r: k for k, r in enumerate(rows)}
                colix[(sigma, delta)] = {c: k for k, c in enumerate(cols)}
        out.append(HalfBraiding(mats, rowix, colix))
    return out, residuals


def half_braiding_multiplicativity(cat, reps, braidings):
    """Residual of the two-strand composition law, per block.

    The extracted E never saw this equation: composing the strand-a and
    strand-b half-braidings through four F-moves must reproduce E on
    each fusion channel of a x b.
    """
    N = cat.N
    worst = 0.0
    for rep, hb in zip(reps, braidings):
        for a in range(cat.n):
            for b in range(cat.n):
                for delta in range(cat.n):
                    worst = max(worst, _composition_residual(
                        cat, rep, hb, a, b, delta))
    return worst


def _composition_residual(cat, rep, hb, a, b, delta):
    N = cat.N
    src = [(nu, T, (eta, s), m)
           for nu in range(cat.n) for T in range(N[a, b, nu])
           for (eta, s) in rep.comps
           for m in range(N[eta, nu, delta])]
    tgt = [(nu, T, (xi, t), mp)
           for nu in range(cat.n) for T in range(N[a, b, nu])
           for (xi, t) in rep.comps
           for mp in range(N[nu, xi, delta])]
    if not src:
        return 0.0
    got = np.zeros((len(tgt), len(src)), dtype=complex)
    want = np.zeros_like(got)
    for ic, (nu, T, (eta, s), m) in enumerate(src):
        for ir, (nu2, T2, (xi, t), mp) in enumerate(tgt):
            if nu2 == nu and T2 == T:
                want[ir, ic] = hb.entry(nu, delta, (xi, t, mp), (eta, s, m))
            acc = 0.0 + 0.0j
            for eps in range(cat.n):
                for al in range(N[eta, a, eps]):
                    for be in range(N[eps, b, delta]):
                        f1 = np.conj(cat.f_entry(eta, a, b, delta,
                                                 eps, al, be, nu, T, m))
                        if f1 == 0.0:
                            continue
                        for (xip, tp) in rep.comps:
                            for ap in range(N[a, xip, eps]):
                                e1 = hb.entry(a, eps, (xip, tp, ap), (eta, s, al))
                                if e1 == 0.0:
                                    continue
                                for f in range(cat.n):
                                    for mu in range(N[xip, b, f]):
                                        for nt in range(N[a, f, delta]):
                                            f2 = cat.f_entry(a, xip, b, delta,
                                                             eps, ap, be, f, mu, nt)
                                            if f2 == 0.0:
                                                continue
                                            for c in range(N[b, xi, f]):
                                                e2 = hb.entry(b, f, (xi, t, c),
                                                              (xip, tp, mu))
                                                if e2 == 0.0:
                                                    continue
                                                f3 = np.conj(cat.f_entry(
                                                    a, b, xi, delta,
                                                    nu2, T2, mp, f, c, nt))
                                                acc += f1 * e1 * f2 * e2 * f3
            got[ir, ic] = acc
    return float(np.max(np.abs(got - want)))


# ---------------------------------------------------------------------------
# T and S matrices
# ---------------------------------------------------------------------------


def twist_element(alg):
    """Coordinates of the central twist tube sum_{xi,delta,a} d_xi X(xi,xi,xi,delta,a,a)."""
    t = np.zeros(alg.dim, dtype=complex)
    for i, (xi, eta, zeta, delta, a, b) in enumerate(alg.basis):
        if xi == eta == zeta and a == b:
            t[i] += alg.cat.d[xi] * alg.scale[i]
    return t


def compute_T(alg, dec, reps, braidings):
    """Twist eigenvalues per block (the T diagonal), with E cross-check."""
    tw = twist_element(alg)
    tvals = []
    for i, rep in enumerate(reps):
        M = rep.rho(tw)
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
    for i, (rep, hb) in enumerate(zip(reps, braidings)):
        rho_c, r = rep.comps[0]
        acc = 0.0 + 0.0j
        for delta in range(cat.n):
            for u in range(cat.N[rho_c, rho_c, delta]):
                acc += (cat.d[delta] / cat.d[rho_c]) * hb.entry(
                    rho_c, delta, (rho_c, r, u), (rho_c, r, u))
        worst = max(worst, abs(acc - T[i]))
    return worst


def compute_S(alg, dec, reps, braidings):
    """S matrix from the double-braiding (Hopf link) trace.

    The raw trace is the right-handed Hopf link; the twist convention
    (dyon (g, chi) has twist chi(g)) pairs with the left-handed one, so
    the result is conjugated to make (ST)^3 = S^2 hold.
    """
    cat = alg.cat
    N, d = cat.N, cat.d
    r1 = len(reps)
    stilde = np.zeros((r1, r1), dtype=complex)
    for i in range(r1):
        for j in range(r1):
            acc = 0.0 + 0.0j
            for delta in range(cat.n):
                term = 0.0 + 0.0j
                for (xi, s) in reps[i].comps:
                    for (eta, t) in reps[j].comps:
                        for u in range(N[xi, eta, delta]):
                            for w in range(N[eta, xi, delta]):
                                term += (
                                    braidings[j].entry(xi, delta,
                                                       (eta, t, u), (eta, t, w))
                                    * braidings[i].entry(eta, delta,
                                                         (xi, s, w), (xi, s, u))
                                )
                acc += d[delta] * term
            stilde[i, j] = acc
    return np.conj(stilde) / alg.lam


# ---------------------------------------------------------------------------
# Verlinde data and orderings
# ---------------------------------------------------------------------------


def verlinde_fusion(S, tol=1e-6):
    """Integer fusion rules from the Verlinde formula.

    Returns (N, rounding residual); raises when any entry is farther
    than `tol` from an integer.
    """
    r1 = S.shape[0]
    s0 = S[:, 0]
    raw = np.einsum("il,jl,kl->ijk", S, S, np.conj(S) / s0[None, :])
    N = np.real(raw)
    rounded = np.round(N)
    resid = float(np.max(np.abs(N - rounded)) + np.max(np.abs(np.imag(raw))))
    if resid > tol:
        raise ModularDataError("Verlinde formula is %.3e from integers" % resid)
    return rounded.astype(np.int64), resid


def check_U_condition(alg, dec, tol=1e-9):
    """Max deviation of the Verlinde vectors from self-adjointness."""
    worst = 0.0
    for p in dec.p:
        worst = max(worst, float(np.max(np.abs(alg.star(p) - p))))
    if worst > tol:
        raise ModularDataError("Verlinde vectors are not self-adjoint "
                               "(%.3e)" % worst)
    return worst


def _ent(z, ndig=9):
    return (round(float(np.real(z)), ndig), round(float(np.imag(z)), ndig))


def canonical_permutation(qdims, T, S, vacuum_index=0):
    """Seed-independent block order: vacuum first, then by invariants.

    Individualization-refinement on (qdim, twist angle, S row profile)
    signatures.  Residual ties are branched exhaustively and the order
    whose (T, S) value stream is lexicographically smallest wins, so two
    runs producing the same data up to permutation serialize identically.
    """
    r1 = len(qdims)
    E = [[_ent(S[i, j]) for j in range(r1)] for i in range(r1)]  # rounded once

    def rank(sig):
        keys = sorted(set(sig.values()))
        return {i: keys.index(sig[i]) for i in range(r1)}

    def refine(sig):
        sig = rank(sig)
        while True:
            prof = {i: (sig[i], tuple(sorted((sig[j], E[i][j])
                                             for j in range(r1))))
                    for i in range(r1)}
            new = rank(prof)
            if len(set(new.values())) == len(set(sig.values())):
                return new
            sig = new

    start = {}
    for i in range(r1):
        ang = float(np.angle(T[i])) % (2 * np.pi)
        if ang > 2 * np.pi - 1e-9:
            ang = 0.0
        start[i] = (int(i != vacuum_index), round(float(qdims[i]), 9),
                    round(ang, 9))

    def stream(order):
        head = tuple(_ent(T[i]) for i in order)
        body = tuple(E[i][j] for i in order for j in order)
        return head + body

    best = [None]

    def descend(sig):
        groups = {}
        for i, c in sig.items():
            groups.setdefault(c, []).append(i)
        classes = [groups[c] for c in sorted(groups)]
        tied = next((cl for cl in classes if len(cl) > 1), None)
        if tied is None:
            order = [cl[0] for cl in classes]
            st = stream(order)
            if best[0] is None or st < best[0][0]:
                best[0] = (st, order)
            return
        for pick in tied:
            descend(refine({i: (sig[i], int(i != pick)) for i in range(r1)}))

    descend(refine(start))
    return best[0][1]


class ModularData:
    """S, T, fusion rules and Gauss sums of a center, axiom-checked; from
    compute_modular_data also its parts alg, dec, reps, braidings (the last
    two in dec's block order) and timings_ms, else None and {}."""

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
    md.alg, md.dec, md.reps, md.braidings = alg, dec, reps, braidings
    md.timings_ms = timings
    return md


# ---------------------------------------------------------------------------
# pair-of-pants fusion dimensions
# ---------------------------------------------------------------------------


def _composite_action(cat, rep_i, hb_i, rep_j, hb_j, zeta, delta):
    """Half-braiding of the product object Gamma_i x Gamma_j at (zeta, delta)."""
    N = cat.N
    src = [(al, s, be, t, eps, c, m)
           for (al, s) in rep_i.comps for (be, t) in rep_j.comps
           for eps in range(cat.n) for c in range(N[al, be, eps])
           for m in range(N[eps, zeta, delta])]
    tgt = [(al, s, be, t, f2, c2, m2)
           for (al, s) in rep_i.comps for (be, t) in rep_j.comps
           for f2 in range(cat.n) for c2 in range(N[al, be, f2])
           for m2 in range(N[zeta, f2, delta])]
    E = np.zeros((len(tgt), len(src)), dtype=complex)
    for ic, (al, s, be, t, eps, c, m) in enumerate(src):
        for f in range(cat.n):
            for mu in range(N[be, zeta, f]):
                for nu in range(N[al, f, delta]):
                    f1 = cat.f_entry(al, be, zeta, delta, eps, c, m, f, mu, nu)
                    if f1 == 0.0:
                        continue
                    for (bep, tp) in rep_j.comps:
                        for a in range(N[zeta, bep, f]):
                            e1 = hb_j.entry(zeta, f, (bep, tp, a), (be, t, mu))
                            if e1 == 0.0:
                                continue
                            for epsp in range(cat.n):
                                for g in range(N[al, zeta, epsp]):
                                    for h in range(N[epsp, bep, delta]):
                                        f2v = np.conj(cat.f_entry(
                                            al, zeta, bep, delta,
                                            epsp, g, h, f, a, nu))
                                        if f2v == 0.0:
                                            continue
                                        for (alp, sp) in rep_i.comps:
                                            for gp in range(N[zeta, alp, epsp]):
                                                e2 = hb_i.entry(
                                                    zeta, epsp,
                                                    (alp, sp, gp), (al, s, g))
                                                if e2 == 0.0:
                                                    continue
                                                for ir, key in enumerate(tgt):
                                                    (al2, s2, be2, t2,
                                                     f2, c2, m2) = key
                                                    if (al2, s2) != (alp, sp) \
                                                            or (be2, t2) != (bep, tp):
                                                        continue
                                                    f3 = cat.f_entry(
                                                        zeta, alp, bep, delta,
                                                        epsp, gp, h, f2, c2, m2)
                                                    if f3 == 0.0:
                                                        continue
                                                    E[ir, ic] += (f1 * e1 * f2v
                                                                  * e2 * f3)
    return E, src, tgt


def pants_dims(alg, dec, reps, braidings, gap=1e6):
    """Fusion multiplicities as dimensions of half-braiding intertwiners.

    N_ij^k counts maps Gamma_i x Gamma_j -> Gamma_k commuting with the
    half-braidings; computed as SVD nullities of the stacked constraint
    systems, with an explicit spectral gap check.
    """
    cat = alg.cat
    N = cat.N
    r1 = len(reps)
    out = np.zeros((r1, r1, r1), dtype=np.int64)
    for i in range(r1):
        for j in range(r1):
            composites = {}
            for zeta in range(cat.n):
                for delta in range(cat.n):
                    composites[(zeta, delta)] = _composite_action(
                        cat, reps[i], braidings[i], reps[j], braidings[j],
                        zeta, delta)
            for k in range(r1):
                phi = [(al, s, be, t, eps, c, r)
                       for (al, s) in reps[i].comps
                       for (be, t) in reps[j].comps
                       for eps in range(cat.n)
                       for c in range(N[al, be, eps])
                       for r in range(reps[k].m.get(eps, 0))]
                if not phi:
                    continue
                phix = {key: w for w, key in enumerate(phi)}
                rows = []
                for (zeta, delta), (E, src, tgt) in composites.items():
                    hk = braidings[k]
                    for ic, (al, s, be, t, eps, c, m) in enumerate(src):
                        for (eps2, r2) in reps[k].comps:
                            for a2 in range(N[zeta, eps2, delta]):
                                row = np.zeros(len(phi), dtype=complex)
                                for r in range(reps[k].m.get(eps, 0)):
                                    row[phix[(al, s, be, t, eps, c, r)]] += \
                                        hk.entry(zeta, delta,
                                                 (eps2, r2, a2), (eps, r, m))
                                for ir, (alp, sp, bep, tp, f2, c2, m2) \
                                        in enumerate(tgt):
                                    if (f2, m2) != (eps2, a2):
                                        continue
                                    for r2b in range(reps[k].m.get(f2, 0)):
                                        if r2b != r2:
                                            continue
                                        row[phix[(alp, sp, bep, tp,
                                                  f2, c2, r2b)]] -= E[ir, ic]
                                rows.append(row)
                A = np.array(rows)
                sv = np.linalg.svd(A, compute_uv=False)
                top = sv[0] if sv.size else 1.0
                null = int(np.sum(sv < 1e-7 * max(top, 1.0)))
                if null and sv.size > null:
                    if sv[-null - 1] / max(sv[-null], 1e-300) < gap \
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
