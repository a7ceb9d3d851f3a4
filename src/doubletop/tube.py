"""Annular (tube) algebra of a fusion category and its center decomposition.

Basis elements are pairs of fusion trees sharing a middle strand: a tube
X(xi, eta, zeta, delta, a, b) carries boundary sectors xi (top) and eta
(bottom), connecting strand zeta, total charge delta, and basis choices
a in Hom(delta, xi.zeta), b in Hom(delta, zeta.eta).  The basis is listed
in lexicographic order of (xi, eta, zeta, delta, a, b).

Multiplication stacks tubes: X(xi,eta,...) . Y(eta',...) vanishes unless
eta == xi(Y); the middle strands fuse and three F-moves reduce the stack
back to basis form.  The exposed basis is rescaled so that each element
has unit norm for the trace form <X,Y> = Tr(L_{Y*X}) (trace of left
multiplication on the algebra); in these coordinates star is the matrix
adjoint of left multiplication, so the algebra acts on itself as a
*-representation.

The center of the algebra is semisimple: 1 = sum_i pi_i with pi_i central
projections, block dims n_i, and sum n_i^2 = dim.  `center_decompose`
finds the pi_i by splitting a random Hermitian central element and
refines them to machine precision.
"""

import os

import numpy as np

from .catdata import global_dim

CENTER_SEED = 0x5EED
SEED_ENV = "DOUBLETOP_SEED"

_BUILD_TOL = 1e-9
_NEWTON_TOL = 1e-12
_MAX_RESEEDS = 8


class TubeError(RuntimeError):
    """Structural failure while assembling the tube algebra."""


class CenterError(RuntimeError):
    """Center decomposition failed (degeneracy or non-integer block data)."""


def _tube_basis(cat):
    N, n = cat.N, cat.n
    basis = []
    for xi in range(n):
        for eta in range(n):
            for zeta in range(n):
                for delta in range(n):
                    for a in range(N[xi, zeta, delta]):
                        for b in range(N[zeta, eta, delta]):
                            basis.append((xi, eta, zeta, delta, a, b))
    return basis


def _raw_structure(cat, basis, index):
    """C[i,j,k] = coefficient of basis[k] in basis[i].basis[j]."""
    N, d, n, F = cat.N, cat.d, cat.n, cat.F
    dim = len(basis)
    C = np.zeros((dim, dim, dim), dtype=complex)
    for i, (xi, eta, zeta, delta, a, b) in enumerate(basis):
        for j, (xi2, eta2, zeta2, delta2, a2, b2) in enumerate(basis):
            if xi2 != eta:
                continue
            pref0 = 1.0 / (d[zeta] * d[zeta2])
            for nu in range(n):
                if N[zeta, zeta2, nu] == 0:
                    continue
                pref = d[nu] * pref0
                for tau in range(n):
                    mc = N[xi, nu, tau]
                    md = N[nu, eta2, tau]
                    if mc == 0 or md == 0:
                        continue
                    mv = N[delta, zeta2, tau]
                    mw = N[zeta, delta2, tau]
                    if mv == 0 or mw == 0:
                        continue
                    for T in range(N[zeta, zeta2, nu]):
                        for c in range(mc):
                            for dd in range(md):
                                k = index[(xi, eta2, nu, tau, c, dd)]
                                s = 0.0 + 0.0j
                                for v in range(mv):
                                    for w in range(mw):
                                        s += (
                                            F[xi, zeta, zeta2, tau, delta, nu, a, v, T, c]
                                            * np.conj(F[zeta, eta, zeta2, tau,
                                                        delta, delta2, b, v, a2, w])
                                            * F[zeta, zeta2, eta2, tau,
                                                nu, delta2, T, dd, b2, w]
                                        )
                                C[i, j, k] += pref * s
    return C


def _raw_star(cat, basis, index):
    """St with star(x) = St @ conj(x); maps sector (xi,eta,zeta) to (eta,xi,zeta*)."""
    N, d, n, F = cat.N, cat.d, cat.n, cat.F
    dim = len(basis)
    St = np.zeros((dim, dim), dtype=complex)
    for i, (xi, eta, zeta, delta, a, b) in enumerate(basis):
        zb = cat.dual[zeta]
        for tau in range(n):
            mc = N[eta, zb, tau]
            md = N[zb, xi, tau]
            if mc == 0 or md == 0:
                continue
            for c in range(mc):
                for dd in range(md):
                    k = index[(eta, xi, zb, tau, c, dd)]
                    s = 0.0 + 0.0j
                    for u in range(N[zb, delta, eta]):
                        for w2 in range(N[tau, zeta, eta]):
                            s += (
                                np.conj(F[zb, zeta, eta, eta, 0, delta, 0, 0, b, u])
                                * F[zb, xi, zeta, eta, tau, delta, dd, w2, a, u]
                                * np.conj(F[tau, zeta, zb, tau, eta, 0, w2, c, 0, 0])
                            )
                    St[k, i] += d[zeta] * s
    return St


class TubeAlgebra:
    """Finite-dimensional *-algebra presented by structure constants.

    Elements are coordinate vectors over `basis` (already normalized to
    unit trace-form norm).  `C[i,j,k]` is the coefficient of basis k in
    the product of basis i and j.
    """

    def __init__(self, cat):
        self.cat = cat
        self.lam = global_dim(cat)
        self.basis = _tube_basis(cat)
        self.dim = len(self.basis)
        self.index = {t: i for i, t in enumerate(self.basis)}
        C = _raw_structure(cat, self.basis, self.index)
        St = _raw_star(cat, self.basis, self.index)

        raw_ident = np.zeros(self.dim, dtype=complex)
        for xi in range(cat.n):
            key = (xi, xi, 0, xi, 0, 0)
            raw_ident[self.index[key]] = 1.0

        # trace of left multiplication, as a functional on raw coordinates
        tvec = np.einsum("ibb->i", C)
        # Markov trace functional on raw coordinates
        mraw = np.zeros(self.dim, dtype=complex)
        for i, (xi, eta, zeta, delta, a, b) in enumerate(self.basis):
            if xi == eta and zeta == 0:
                mraw[i] = self.lam * cat.d[xi]
        gram = np.einsum("cB,cbk,k->bB", St, C, mraw)
        herm = np.max(np.abs(gram - gram.conj().T))
        if herm > _BUILD_TOL:
            raise TubeError("Markov form is not Hermitian (residual %.3e)" % herm)
        diag = np.real(np.diag(gram)).copy()
        off = np.max(np.abs(gram - np.diag(diag))) if self.dim > 1 else 0.0
        if off > _BUILD_TOL:
            raise TubeError("Markov form is not diagonal on the pair basis "
                            "(off-diagonal %.3e)" % off)
        if np.min(diag) <= 0:
            raise TubeError("Markov form is not positive definite")
        scale = np.sqrt(diag)

        # pass to the orthonormal basis: X~_k = X_k / scale_k
        self.scale = scale
        self.C = C * scale[None, None, :] / (scale[:, None, None] * scale[None, :, None])
        self.St = St * scale[:, None] / scale[None, :]
        self.identity = raw_ident * scale
        self._treg = tvec / scale
        self._tmark = mraw / scale
        evec = np.zeros(self.dim, dtype=complex)
        for i, (xi, eta, zeta, delta, a, b) in enumerate(self.basis):
            if xi == 0 and eta == 0:
                evec[i] = 1.0
        self._tvac = evec / scale

        self.residuals = {
            "identity": self._identity_residual(),
            "star_involution": self._star_involution_residual(),
            "star_antihom": self._star_antihom_residual(),
        }
        worst = max(self.residuals.values())
        if worst > 1e-7:
            raise TubeError("tube algebra self-check failed: %r" % self.residuals)

    # -- arithmetic on coordinate vectors --------------------------------------

    def product(self, x, y):
        return np.einsum("i,j,ijk->k", x, y, self.C)

    def star(self, x):
        return self.St @ np.conj(x)

    def left_mult(self, x):
        """Matrix of y -> x.y in the orthonormal basis."""
        return np.einsum("i,ijk->kj", x, self.C)

    def right_mult(self, x):
        return np.einsum("i,jik->kj", x, self.C)

    def reg_trace(self, x):
        """Trace of left multiplication by x."""
        return complex(self._treg @ x)

    def markov_trace(self, x):
        """Waist-killing trace: lambda * d_xi on X(xi,xi,e,xi,0,0), else 0."""
        return complex(self._tmark @ x)

    def vacuum_functional(self, x):
        """Coefficient sum over tubes with trivial boundary sectors."""
        return complex(self._tvac @ x)

    def inner(self, x, y):
        """<x,y> = Tr(L Y* X), linear in x."""
        return self.reg_trace(self.product(self.star(y), x))

    def basis_element(self, i):
        e = np.zeros(self.dim, dtype=complex)
        e[i] = 1.0
        return e

    def associativity_residual(self):
        """max |(e_i e_j) e_k - e_i (e_j e_k)|, one slice of i at a time."""
        C = self.C
        return max(float(np.max(np.abs(np.einsum("ja,akb->jkb", Ci, C)
                                       - np.einsum("jka,ab->jkb", C, Ci))))
                   for Ci in C)

    # -- construction-time checks ----------------------------------------------

    def _identity_residual(self):
        li = self.left_mult(self.identity)
        ri = self.right_mult(self.identity)
        eye = np.eye(self.dim)
        return float(max(np.max(np.abs(li - eye)), np.max(np.abs(ri - eye))))

    def _star_involution_residual(self):
        # star(star(x)) = St @ conj(St @ conj(x)) = (St conj(St)) x
        return float(np.max(np.abs(self.St @ np.conj(self.St) - np.eye(self.dim))))

    def _star_antihom_residual(self):
        # star(e_i e_j) = star(e_j) star(e_i) for every (i, j), coordinate k
        St, C = self.St, self.C
        lhs = np.conj(C) @ St.T
        rhs = np.einsum("aj,bi,abk->ijk", St, St, C, optimize=True)
        return float(np.max(np.abs(lhs - rhs)))


def build_tube_algebra(cat):
    """Assemble the tube algebra of a validated category."""
    return TubeAlgebra(cat)


# ---------------------------------------------------------------------------
# center decomposition
# ---------------------------------------------------------------------------


class CenterDecomposition:
    """Resolution of the identity into central projections.

    Blocks are ordered with the vacuum first, then by ascending quantum
    dimension (Markov trace of pi_i over n_i), then block dimension.
    `p[i] = projections[i] / n[i]` are the unit vectors the modular data
    is written in; `block_spaces[i]` spans block i inside the algebra.
    """

    def __init__(self, alg, projections, ns, qdims, block_spaces, seed):
        self.alg = alg
        self.projections = projections
        self.n = ns
        self.qdims = qdims
        self.block_spaces = block_spaces
        self.seed = seed
        self.r_plus_1 = len(projections)
        self.vacuum_index = 0
        self.p = [pi / ni for pi, ni in zip(projections, ns)]


def _center_basis(alg):
    """Orthonormal basis of the center, via the commutant null space."""
    dim, C = alg.dim, alg.C
    # row (b, k), column j: C[b,j,k] - C[j,b,k], the commutator with e_b
    rows = (C.transpose(0, 2, 1) - C.transpose(1, 2, 0)).reshape(dim * dim, dim)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    tol = max(dim, 8) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    null = int(np.sum(s <= max(tol, 1e-10)))
    if null == 0:
        raise CenterError("center is empty; identity not found")
    if s.size > null and s[-null - 1] < 1e-6:
        raise CenterError("center dimension is numerically ambiguous")
    return np.conj(vh[-null:]).T  # columns orthonormal


def _cluster(vals, tol):
    order = np.argsort(vals)
    groups = [[order[0]]]
    for idx in order[1:]:
        if vals[idx] - vals[groups[-1][-1]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def _newton_idempotent(alg, pi):
    for _ in range(60):
        err = np.max(np.abs(alg.product(pi, pi) - pi))
        if err < _NEWTON_TOL:
            return pi
        sq = alg.product(pi, pi)
        pi = 3.0 * sq - 2.0 * alg.product(sq, pi)
        pi = 0.5 * (pi + alg.star(pi))
    raise CenterError("projection refinement stalled (residual %.3e)" % err)


def center_decompose(alg, seed=None):
    """Split the identity into the central projections of the tube algebra.

    A random Hermitian central element (seeded; DOUBLETOP_SEED overrides)
    is diagonalized and its spectral projectors applied to the identity.
    Degenerate draws are reseeded up to 8 times.
    """
    if seed is None:
        env = os.environ.get(SEED_ENV)
        try:
            seed = int(env, 0) if env else CENTER_SEED
        except ValueError:
            raise CenterError("%s=%r is not an integer" % (SEED_ENV, env)) from None
    Z = _center_basis(alg)
    r1 = Z.shape[1]
    rng = np.random.default_rng(seed)

    pis = None
    for _ in range(_MAX_RESEEDS):
        coef = rng.standard_normal(r1) + 1j * rng.standard_normal(r1)
        h = Z @ coef
        h = 0.5 * (h + alg.star(h))
        lh = alg.left_mult(h)
        if np.max(np.abs(lh - lh.conj().T)) > 1e-8:
            raise CenterError("central element is not Hermitian as an operator")
        evals, evecs = np.linalg.eigh(lh)
        spread = float(evals[-1] - evals[0]) or 1.0
        groups = _cluster(evals, 1e-6 * spread)
        if len(groups) != r1:
            continue  # degenerate draw, reseed
        cand = []
        ok = True
        for g in groups:
            V = evecs[:, g]
            pi = V @ (V.conj().T @ alg.identity)
            pi = 0.5 * (pi + alg.star(pi))
            try:
                pi = _newton_idempotent(alg, pi)
            except CenterError:
                ok = False
                break
            cand.append((pi, V))
        if not ok:
            continue
        pis = cand
        break
    if pis is None:
        raise CenterError("degeneracy unresolved after %d reseeds" % _MAX_RESEEDS)

    resolved = sum(pi for pi, _ in pis)
    if np.max(np.abs(resolved - alg.identity)) > 1e-9:
        raise CenterError("central projections do not resolve the identity")

    blocks = []
    for pi, V in pis:
        nsq = alg.reg_trace(pi).real
        ni = int(round(np.sqrt(nsq)))
        if abs(ni * ni - nsq) > 1e-6 or ni < 1:
            raise CenterError("non-integer squared block dimension %.6f" % nsq)
        qdim = alg.markov_trace(pi).real / ni
        vac = alg.vacuum_functional(pi).real
        blocks.append((pi, ni, qdim, vac, V))

    if sum(b[1] ** 2 for b in blocks) != alg.dim:
        raise CenterError("block dimensions do not sum to the algebra dimension")
    vac_ids = [i for i, b in enumerate(blocks) if abs(b[3] - 1.0) < 1e-6]
    stray = [i for i, b in enumerate(blocks)
             if i not in vac_ids and abs(b[3]) > 1e-6]
    if len(vac_ids) != 1 or stray:
        raise CenterError("vacuum pairing did not single out one block")
    if blocks[vac_ids[0]][1] != 1:
        raise CenterError("vacuum block dimension is %d, expected 1"
                          % blocks[vac_ids[0]][1])

    def sort_key(b):
        return (abs(b[3] - 1.0) < 1e-6 and -1 or 0, round(b[2], 9), b[1])

    blocks.sort(key=sort_key)
    projections = [b[0] for b in blocks]
    ns = [b[1] for b in blocks]
    qdims = [b[2] for b in blocks]
    spaces = [b[4] for b in blocks]
    return CenterDecomposition(alg, projections, ns, qdims, spaces, seed)


def conditional_expectation(alg, dec, x):
    """Project onto the center: E(x) = sum_i (normalized block trace) pi_i."""
    out = np.zeros(alg.dim, dtype=complex)
    for pi, ni in zip(dec.projections, dec.n):
        out += (alg.reg_trace(alg.product(pi, x)) / (ni * ni)) * pi
    return out
