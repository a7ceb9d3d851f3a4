"""Annular (tube) algebra of a fusion category and its center decomposition.

Basis elements are pairs of fusion trees sharing a middle strand: a tube
X(xi, eta, zeta, delta) carries boundary sectors xi (top) and eta (bottom),
connecting strand zeta and total charge delta, with delta in both xi.zeta
and zeta.eta (the ring is multiplicity-free, so each Hom space is a line).
The basis is a (dim, 4) int array in lexicographic order of (xi, eta, zeta,
delta), built by joins on N.

Multiplication stacks tubes: X(xi,eta,...) . Y(eta',...) vanishes unless
eta == xi(Y); the middle strands fuse and three F-moves reduce the stack
back to basis form.  C and the star are gathered from cat.F at joined label
tuples, one product of three F each; the star's pivotal phase keeps the Markov form
positive on twisted doubles.  The basis is rescaled to be orthonormal for
the Markov form <X,Y> = markov_trace(Y* X), the waist-killing trace.  The
build checks that Gram matrix, the unit, and L(x*) = L(x)^+ (one product over
C), which with the unit gives the involution, x** = L(x**) 1 = L(x) 1 = x,
and with associativity (the pentagon's) the anti-homomorphism (xy)* = y* x*.

The algebra is semisimple: a sum of full matrix blocks M_{n_i}, with
central projections pi_i, 1 = sum_i pi_i and sum n_i^2 = dim.
`center_decompose` reads every minimal left ideal off the eigenspaces of
right multiplication by one random Hermitian element of the corner algebra
sum_eta Tube(eta, eta), one eigh per nonempty sector (xi, eta), which
that multiplication maps to itself; it groups the ideals into blocks by
the trace of left multiplication on them, and projects the identity onto
each block.  One step pi -> 3 pi^2 - 2 pi^3 purifies each projection,
with no star symmetrization: the result is idempotent and self-adjoint to
rounding.
"""

import numpy as np

from .catdata import global_dim, join

CENTER_SEED = 0x5EED

_BUILD_TOL = 1e-9
_IDEMPOTENT_TOL = 1e-12  # max |pi.pi - pi| of an accepted spectral projector
_MAX_RESEEDS = 8


class TubeError(RuntimeError):
    """Structural failure while assembling the tube algebra."""


class CenterError(RuntimeError):
    """Center decomposition failed (degeneracy or non-integer block data)."""


def _basis(cat):
    """The basis as a (dim, 4) int array in lex order, (xi, eta, zeta) joined
    with delta on N[xi,zeta,delta] and kept where N[zeta,eta,delta]; and
    index[xi,eta,zeta,delta], -1 off it."""
    N = cat.N
    rows = join(N, np.indices((cat.n,) * 3).reshape(3, -1).T, 0, 2)
    basis = rows[N[rows[:, 2], rows[:, 1], rows[:, 3]] > 0]
    index = np.full((cat.n,) * 4, -1)
    index[tuple(basis.T)] = np.arange(len(basis))
    return basis, index


def _structure(cat, basis, index):
    """C[i,j,k] = coefficient of basis[k] in basis[i].basis[j].

    X(xi,eta,zeta,delta) . X(eta,eta2,zeta2,delta2) lands on X(xi,eta2,nu,tau):
    j joins on its first label eta, nu on N[zeta,zeta2,nu], tau on N[xi,nu,tau],
    and the tuples off the basis (N[nu,eta2,tau] = 0) go.  Each (i, j, k) is written once, with the
    product of three F-moves gathered there.
    """
    N, d, F = cat.N, cat.d, cat.F
    dim = len(basis)
    rows = np.column_stack([basis, np.arange(dim)])
    rows = join(basis[:, 0] == np.arange(cat.n)[:, None], rows, 1)
    rows = join(N, join(N, np.column_stack([rows, basis[rows[:, 5]]]), 2, 8), 0, 10)
    rows = rows[N[rows[:, 10], rows[:, 7], rows[:, 11]] > 0]  # on the basis
    xi, eta, zeta, delta, i, j, _, eta2, zeta2, delta2, nu, tau = rows.T
    # einsum rounds each product as a per-entry loop does; numpy's complex
    # multiply ufunc may fuse multiply-adds and round differently
    s = np.einsum("R,R,R->R", F[xi, zeta, zeta2, tau, delta, nu],
                  F[zeta, eta, zeta2, tau, delta, delta2].conj(), F[zeta, zeta2, eta2, tau, nu, delta2])
    pref = d[nu] * (1.0 / (d[zeta] * d[zeta2]))
    C = np.zeros((dim, dim, dim), dtype=complex)
    C[i, j, index[xi, eta2, nu, tau]] = pref * s
    return C


def _star(cat, basis, index):
    """St with star(x) = St @ conj(x); maps sector (xi,eta,zeta) to (eta,xi,zeta*).

    The star of X(xi,eta,zeta,delta) lands on X(eta,xi,zeta*,tau), tau joined
    on N[eta,zeta*,tau] and kept where N[zeta*,xi,tau], with the product of three
    F-moves gathered there.  Column i is divided by phi/|phi| at its strand z,
    phi_z = d_z F[z,z*,z,z,0,0] (the Frobenius-Schur indicator when z = z*),
    and left alone where phi_z = 0.
    """
    N, F, d = cat.N, cat.F, cat.d
    dim = len(basis)
    rows = np.column_stack([basis, np.arange(dim), np.asarray(cat.dual)[basis[:, 2]]])
    rows = join(N, rows, 1, 5)
    xi, eta, zeta, delta, i, zb, tau = rows[N[rows[:, 5], rows[:, 0], rows[:, 6]] > 0].T
    s = np.einsum("R,R,R->R", F[zb, zeta, eta, eta, 0, delta].conj(),
                  F[zb, xi, zeta, eta, tau, delta], F[tau, zeta, zb, tau, eta, 0].conj())
    St = np.zeros((dim, dim), dtype=complex)
    St[index[eta, xi, zb, tau], i] = d[zeta] * s
    z = np.arange(cat.n)
    phi = d * F[z, cat.dual, z, z, 0, 0]
    return St / np.divide(phi, abs(phi), out=np.ones_like(phi), where=phi != 0)[basis[:, 2]]


class TubeAlgebra:
    """Finite-dimensional *-algebra presented by structure constants.

    Elements are coordinate vectors over `basis` (already normalized to
    unit Markov-form norm), the (dim, 4) array of tubes; `index` maps a tube
    (xi, eta, zeta, delta) to its row, -1 off the basis, and `runs` holds
    the n^2 + 1 offsets of the sectors (xi, eta) in it.  `C[i,j,k]`
    is the coefficient of basis k in the product of basis i and j.
    """

    def __init__(self, cat):
        self.cat = cat
        self.lam = global_dim(cat)
        self.basis, self.index = _basis(cat)
        self.dim = len(self.basis)
        self.runs = np.searchsorted(self.basis[:, 0] * cat.n + self.basis[:, 1],
                                    np.arange(cat.n ** 2 + 1))
        C = _structure(cat, self.basis, self.index)
        St = _star(cat, self.basis, self.index)
        xi, eta, zeta = self.basis[:, :3].T
        # the corner identities X(xi,xi,e,xi), summing to the identity
        corner = ((xi == eta) & (zeta == 0)).astype(complex)

        # trace of left multiplication, as a functional on raw coordinates
        tvec = np.einsum("ibb->i", C)
        # Markov trace functional on raw coordinates
        mraw = corner * (self.lam * cat.d[xi])
        gram = (C @ mraw).T @ St
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
        C *= scale[None, None, :]
        C /= scale[:, None, None] * scale[None, :, None]
        self.C = C
        self.St = St * scale[:, None] / scale[None, :]
        self.identity = corner * scale
        self._treg = tvec / scale
        self._tmark = mraw / scale
        self._tvac = ((xi == 0) & (eta == 0)).astype(complex) / scale

        self.residuals = {"identity": self._identity_residual(),
                          "star_adjoint": self._star_adjoint_residual()}
        worst = max(self.residuals.values())
        if worst > 1e-7:
            raise TubeError("tube algebra self-check failed: %r" % self.residuals)

    # -- arithmetic on coordinate vectors --------------------------------------

    def product(self, x, y):
        return y @ (x @ self.C.reshape(self.dim, -1)).reshape(self.dim, self.dim)

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
        """Waist-killing trace: lambda * d_xi on X(xi,xi,e,xi), else 0."""
        return complex(self._tmark @ x)

    def vacuum_functional(self, x):
        """Coefficient sum over tubes with trivial boundary sectors."""
        return complex(self._tvac @ x)

    def inner(self, x, y):
        """<x,y> = Tr(L Y* X), linear in x."""
        return self.reg_trace(self.product(self.star(y), x))

    def associativity_residual(self):
        """max |(e_i e_j) e_k - e_i (e_j e_k)|, one slice of i at a time."""
        C, dim = self.C, self.dim
        return max(float(np.max(np.abs((Ci @ C.reshape(dim, -1)).reshape(dim, dim, dim)
                                       - C @ Ci)))
                   for Ci in C)

    # -- construction-time checks ----------------------------------------------

    def _identity_residual(self):
        eye = np.eye(self.dim)
        return float(max(np.max(np.abs(mult(self.identity) - eye))
                         for mult in (self.left_mult, self.right_mult)))

    def _star_adjoint_residual(self):
        # L(e_k*) = L(e_k)^+: sum_a St[a,k] C[a,j,m] = conj(C[k,m,j]) for all
        # (k, j, m), read as |conj(St.T C) - C^T| with the product's one buffer
        dim = self.dim
        r = (self.St.T @ self.C.reshape(dim, -1)).reshape(dim, dim, dim)
        np.conjugate(r, out=r)
        r -= self.C.transpose(0, 2, 1)
        return float(np.max(np.abs(r)))


def build_tube_algebra(cat):
    """Assemble the tube algebra of a validated category."""
    return TubeAlgebra(cat)


# ---------------------------------------------------------------------------
# center decomposition
# ---------------------------------------------------------------------------


class CenterDecomposition:
    """Resolution of the identity into central projections.

    Row i of the array `projections` is pi_i, idempotent and self-adjoint
    to rounding.  Blocks are ordered with the vacuum first, then by
    ascending quantum dimension (Markov trace of pi_i over n_i), then block
    dimension.  `p = projections / n` are the unit vectors the modular data
    is written in, and `weights[i] = <pi_i, pi_i>` their Markov weights.
    `block_spaces[i]` has orthonormal columns spanning block i, n_i minimal
    left ideals of n_i columns each; its first n_i columns are one minimal
    left ideal, the space of the block's irrep.  `seed` seeds the draws.
    """

    def __init__(self, alg, projections, ns, qdims, block_spaces, seed):
        self.alg = alg
        self.projections = P = np.asarray(projections)
        self.n = ns
        self.qdims = qdims
        self.block_spaces = block_spaces
        self.seed = seed
        self.r_plus_1 = len(P)
        self.vacuum_index = 0
        self.p = P / np.array(ns)[:, None]
        self.weights = np.einsum("ij,ij->i", P.conj(), P).real

    def coefficients(self, x):
        """Center coordinates c_i(x) = <x, pi_i> / <pi_i, pi_i> = Tr rho_i(x) / n_i."""
        return np.einsum("ij,j->i", self.projections.conj(), x) / self.weights


def _cluster(vals, tol):
    """Indices of vals in ascending runs whose consecutive gaps are <= tol."""
    order = np.argsort(vals)
    return np.split(order, np.flatnonzero(np.diff(vals[order]) > tol) + 1)


def _spectral_blocks(alg, h):
    """Block spaces of one Hermitian draw h, or None when it is degenerate.

    The eigenspaces of right multiplication by h are minimal left ideals
    A q, n_i vectors each for block i, and L_h has the same trace tr rho_i(h)
    on each of them; clustering the traces groups the ideals by block.  h
    lies in the corner algebra, so one eigh per nonempty sector, which R_h
    and L_h map to itself, gives eigenvectors that each lie in one sector.
    The draw is degenerate unless every group holds s ideals of s vectors each.
    Each block space lists its ideals in ascending eigenvalue order, so which
    ideal comes first does not hang on rounding in the traces.
    """
    rh, lh = alg.right_mult(h), alg.left_mult(h)
    if np.max(np.abs(rh - rh.conj().T)) > 1e-8:
        raise CenterError("right multiplication by the draw is not Hermitian")
    evals, diag = np.empty(alg.dim), np.empty(alg.dim)
    W = np.zeros((alg.dim, alg.dim), dtype=complex)
    for a, b in zip(alg.runs[:-1].tolist(), alg.runs[1:].tolist()):
        if a < b:  # a nonempty sector, mapped to itself by R_h and L_h
            evals[a:b], w = np.linalg.eigh(rh[a:b, a:b])
            W[a:b, a:b] = w
            diag[a:b] = np.real(np.sum(w.conj() * (lh[a:b, a:b] @ w), axis=0))
    spread = float(np.ptp(evals)) or 1.0
    ideals = _cluster(evals, 1e-6 * spread)
    traces = np.array([np.sum(diag[g]) for g in ideals])
    spread = float(np.ptp(traces)) or 1.0
    groups = [np.sort(g) for g in _cluster(traces, 1e-6 * spread)]
    if any(len(ideals[j]) != len(g) for g in groups for j in g):
        return None
    return [W[:, np.concatenate([ideals[j] for j in g])] for g in groups]


def center_decompose(alg, seed=None):
    """Split the identity into the central projections of the tube algebra.

    One seeded Hermitian draw h, zero off the torus sectors (xi, xi) and
    star-symmetrized, which keeps that set, lies in the corner algebra and
    splits the algebra into its minimal left ideals (`_spectral_blocks`);
    the ideals of block i span the block, and pi_i is the orthogonal
    projection of the identity onto it.  A draw is reseeded, up to 8 times,
    when its spectrum is degenerate or a projector misses idempotency by
    1e-12.  The accepted pi_i are purified once, to 3 pi_i^2 - 2 pi_i^3,
    which needs no star symmetrization.
    """
    seed = CENTER_SEED if seed is None else seed
    dim = alg.dim
    rng = np.random.default_rng(seed)

    for _ in range(_MAX_RESEEDS):
        h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        h[~np.repeat(np.eye(alg.cat.n, dtype=bool).ravel(), np.diff(alg.runs))] = 0
        spaces = _spectral_blocks(alg, 0.5 * (h + alg.star(h)))
        if spaces is None:
            continue  # degenerate draw, reseed
        P = np.array([B @ (B.conj().T @ alg.identity) for B in spaces])
        # left multiplications by every pi_r, x @ M[r] = pi_r.x: one pass over C
        M = (P @ alg.C.reshape(dim, -1)).reshape(-1, dim, dim)
        sq = (P[:, None] @ M)[:, 0]
        if np.max(np.abs(sq - P)) < _IDEMPOTENT_TOL:
            P = 3 * sq - 2 * (sq[:, None] @ M)[:, 0]  # 3 pi^2 - 2 pi^3
            break
    else:
        raise CenterError("no draw split the center into idempotents "
                          "after %d reseeds" % _MAX_RESEEDS)

    if np.max(np.abs(P.sum(axis=0) - alg.identity)) > 1e-9:
        raise CenterError("central projections do not resolve the identity")

    blocks = []
    for pi, B in zip(P, spaces):
        nsq = alg.reg_trace(pi).real
        ni = int(round(np.sqrt(nsq)))
        if abs(ni * ni - nsq) > 1e-6 or ni < 1:
            raise CenterError("non-integer squared block dimension %.6f" % nsq)
        qdim = alg.markov_trace(pi).real / ni
        vac = alg.vacuum_functional(pi).real
        blocks.append((pi, ni, qdim, vac, B))

    # vacuum pairings near 1 sort first: one of them, and the rest near 0
    blocks.sort(key=lambda b: (abs(b[3] - 1.0) >= 1e-6, round(b[2], 9), b[1]))
    projections, ns, qdims, vacs, spaces = map(list, zip(*blocks))
    if sum(n * n for n in ns) != alg.dim:
        raise CenterError("block dimensions do not sum to the algebra dimension")
    if abs(vacs[0] - 1.0) >= 1e-6 or any(abs(v) > 1e-6 for v in vacs[1:]):
        raise CenterError("vacuum pairing did not single out one block")
    if ns[0] != 1:
        raise CenterError("vacuum block dimension is %d, expected 1" % ns[0])
    return CenterDecomposition(alg, projections, ns, qdims, spaces, seed)

