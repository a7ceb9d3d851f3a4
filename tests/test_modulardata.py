"""S/T matrices, half-braidings, Verlinde fusion, and their oracles."""

import copy
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import doubletop as dt
from doubletop import modulardata
from doubletop.catdata import CategoryError, _category_from_dict
from doubletop.modulardata import (
    STAGES,
    ModularData,
    ModularDataError,
    braiding_st,
    canonical_permutation,
    characters,
    check_U_condition,
    compute_S,
    compute_T,
    compute_modular_data,
    group_double_oracle,
    half_braiding_multiplicativity,
    match_blocks,
    pants_dims,
    twist_element,
    verlinde_fusion,
)
from doubletop.statesum import builtin_triangulation, lens_triangulation, state_sum
from doubletop.surgery import lens_chain, surgery_invariant
from doubletop.tube import (
    CenterDecomposition, _basis, _structure, build_tube_algebra, center_decompose,
)
from oracles import (
    block_irreps as block_irreps_oracle,
    block_irreps_per_simple, block_twists, braiding_twists,
    canonical_permutation as canonical_permutation_oracle,
    composition_law_residual, count_calls, extract_half_braidings,
    gauge_transform, graded, hopf_link_S, random_f_ring, stacked,
    twisted_double_twists, twisted_vec_zn, vec_s3_document,
)

ZOO = ["vec_z2", "vec_z3", "fibonacci", "ising"]
PHI = (1 + np.sqrt(5)) / 2
# Vec_ZN^omega as (N, k), omega the k-th power of the generating cocycle
TWISTED = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1)]


def _category(name):
    """A zoo name, twisted_zN_k for Vec_ZN^omega, or gauged_NAME_SEED for
    category NAME in the random vertex gauge of that seed."""
    if name.startswith("gauged_"):
        base, seed = name[len("gauged_"):].rsplit("_", 1)
        return gauge_transform(_category(base), np.random.default_rng(int(seed)))
    if name.startswith("twisted_z"):
        return twisted_vec_zn(*map(int, name[len("twisted_z"):].split("_")))
    return dt.zoo(name)


@pytest.fixture(scope="module")
def mds():
    return {name: compute_modular_data(dt.zoo(name)) for name in ZOO + ["vec_z4"]}


@pytest.fixture(scope="module")
def vec_s3_md():
    return compute_modular_data(_category_from_dict(vec_s3_document()))


def half_braidings(md):
    """Block irreps, half-braidings and the solve's residuals of md's blocks,
    in the order of md.S: the pipeline no longer builds them."""
    irreps = modulardata.block_irreps(md.alg, md.dec)
    return (irreps, *modulardata.extract_half_braidings(md.alg, irreps))


@pytest.fixture(scope="module")
def pipes(mds):
    return {name: (md.alg, md.dec, *half_braidings(md)) for name, md in mds.items()}


def blocks(irreps, E):
    """(labels, E_i) of each block, the padding past n_i dropped."""
    return [(li, Ei[:, :, :len(li), :len(li)]) for (_, li), Ei in zip(graded(irreps), E)]


def squares(cat, labels, E):
    """Admissible square of E[sigma, delta] for every (sigma, delta) with
    rows or columns, and the mask of all admissible entries of one block's E."""
    mask = np.zeros(E.shape, dtype=bool)
    out = []
    for sigma, delta in np.ndindex(cat.n, cat.n):
        rows = [p for p, xi in enumerate(labels) if cat.N[sigma, xi, delta]]
        cols = [q for q, eta in enumerate(labels) if cat.N[eta, sigma, delta]]
        if rows or cols:
            assert len(rows) == len(cols)
            out.append(np.array([[E[sigma, delta, p, q] for q in cols] for p in rows]))
            for p, q in itertools.product(rows, cols):
                mask[sigma, delta, p, q] = True
    return out, mask


# -- block irreps --------------------------------------------------------------


def irrep_characters(alg, irreps):
    """Tr rho_i(e_k) for every block i and basis tube k; L_{e_k} is C[k].T."""
    return np.array([np.einsum("ja,kij,ia->k", V.conj(), alg.C, V)
                     for V, _ in graded(irreps)])


def _md(mds, vec_s3_md, name):
    if name == "vec_s3":
        return vec_s3_md
    return mds[name] if name in mds else compute_modular_data(_category(name))


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"])
def test_irreps_match_minimal_projection_oracle(mds, vec_s3_md, name):
    md = _md(mds, vec_s3_md, name)
    got = modulardata.block_irreps(md.alg, md.dec)
    want = block_irreps_oracle(md.alg, md.dec)
    assert np.array_equal(got[1], want[1])
    assert not got[0].transpose(0, 2, 1)[got[1] < 0].any()  # V is 0 past n_i
    assert np.max(np.abs(irrep_characters(md.alg, got)
                         - irrep_characters(md.alg, want))) < 1e-12


@pytest.mark.parametrize("name", ZOO + ["vec_z4", "vec_z6", "vec_z9", "vec_s3"])
def test_characters_are_traces_of_the_irreps(mds, vec_s3_md, name):
    # chi_i(X_t) = scale_t Tr rho_i(e_t), read from the central projections
    # without an irrep.  Unpurified projections miss the irreps' traces by
    # up to 3e-13 on vec_z6 and vec_z9; purified, by 2.2e-15 at most
    md = _md(mds, vec_s3_md, name)
    alg = md.alg
    want = irrep_characters(alg, modulardata.block_irreps(alg, md.dec))
    got = characters(alg, md.dec)
    assert np.max(np.abs(got - want * alg.scale)) < 5e-15


def test_characters_are_one_product(mds):
    # characters is one elementwise product with the projections: it reads
    # no C, and does not purify, which center_decompose has done already.
    # From 2 pi_i it gives chi_i / 2, since <2 pi_i, 2 pi_i> = 4 <pi_i, pi_i>
    md = mds["ising"]
    alg, dec = copy.copy(md.alg), md.dec
    del alg.C
    got = characters(alg, dec)
    assert np.array_equal(got, characters(md.alg, md.dec))
    doubled = CenterDecomposition(alg, 2 * dec.projections, dec.n, dec.qdims,
                                  dec.block_spaces, dec.seed)
    assert np.array_equal(characters(alg, doubled), got / 2)


@pytest.mark.parametrize("name", ["ising", "fibonacci", "vec_z4"])
def test_no_stage_after_the_center_reads_C(mds, monkeypatch, name):
    # characters, the U condition, T, S, the canonical order and the axioms
    # run on the projections alone: with C gone, S and T keep their bits
    real = modulardata.center_decompose

    def forgetful(alg, seed=None):
        dec = real(alg, seed=seed)
        del alg.C
        return dec

    monkeypatch.setattr(modulardata, "center_decompose", forgetful)
    md = compute_modular_data(dt.zoo(name))
    assert not hasattr(md.alg, "C")
    assert np.array_equal(md.S, mds[name].S) and np.array_equal(md.T, mds[name].T)


# -- half-braidings ------------------------------------------------------------


def _close(E, E0, tol=1e-12):
    return E.shape == E0.shape and np.max(np.abs(E - E0)) < tol


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"]
    + ["twisted_z%d_%d" % nk for nk in TWISTED])
def test_half_braidings_equal_loop(mds, vec_s3_md, name):
    # one solve of the whole tube system meets the per-(block, strand)
    # least-squares fits of the entry-by-entry loop within rounding
    md = _md(mds, vec_s3_md, name)
    irreps, E, resid = half_braidings(md)
    loop, resid0 = extract_half_braidings(md.alg, irreps)
    assert _close(E, loop)
    assert abs(resid["unitary"] - resid0["unitary"]) < 1e-12


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_z8", "vec_s3"])
def test_grouped_routes_equal_per_block_oracles(mds, vec_s3_md, name):
    # grading by the tubes' first labels gives the grades of the corner
    # idempotents read from C: the same bits where every grade has one copy
    # (all but Vec(S3)), else the same grade projectors in another basis;
    # the half-braidings meet the loop
    md = _md(mds, vec_s3_md, name)
    got = modulardata.block_irreps(md.alg, md.dec)
    want = block_irreps_per_simple(md.alg, md.dec)
    assert np.array_equal(got[1], want[1])
    for (V, lab), (V0, _) in zip(graded(got), graded(want), strict=True):
        assert np.array_equal(V, V0) or len(set(lab.tolist())) < len(lab)
        for xi in set(lab.tolist()):
            c = lab == xi
            assert np.max(np.abs(V[:, c] @ V[:, c].conj().T - V0[:, c] @ V0[:, c].conj().T)) < 1e-12
    E, resid = modulardata.extract_half_braidings(md.alg, got)
    E0, resid0 = extract_half_braidings(md.alg, got)
    assert _close(E, E0)
    assert abs(resid["unitary"] - resid0["unitary"]) < 1e-12
    assert np.max(np.abs(block_twists(md.alg, got) - block_twists(md.alg, want))) < 1e-12


@pytest.mark.parametrize("name", ["ising", "fibonacci", "vec_z4", "vec_s3"])
def test_block_irreps_read_no_C(mds, vec_s3_md, name):
    # the grading reads alg.basis, not the structure constants
    md = _md(mds, vec_s3_md, name)
    alg = copy.copy(md.alg)
    del alg.C
    got, want = modulardata.block_irreps(alg, md.dec), modulardata.block_irreps(md.alg, md.dec)
    assert all(map(np.array_equal, got, want))


def test_block_irreps_call_no_eigensolver(mds, vec_s3_md, monkeypatch):
    # the center's ideal vectors each lie in one sector: grading is a gather
    calls = [count_calls(monkeypatch, np.linalg, f)
             for f in ("eig", "eigh", "eigvals", "eigvalsh", "svd")]
    for md in (mds["ising"], mds["fibonacci"], vec_s3_md):
        modulardata.block_irreps(md.alg, md.dec)
    assert not any(calls)


def _grade_multiplicities(md):
    """m[i, x], the multiplicity of the simple x in block i, counted off the
    graded irreps; checked against n_i c_i(e_x), e_x the part of the identity
    on X(x, x, 0, x)."""
    alg, dec, n = md.alg, md.dec, md.alg.cat.n
    lab = modulardata.block_irreps(alg, dec)[1]
    m = np.count_nonzero(lab[:, :, None] == np.arange(n), axis=1)
    e = np.where(alg.basis[:, 0] == np.arange(n)[:, None], alg.identity, 0)
    read = np.array([dec.coefficients(ex) for ex in e]).T * np.array(dec.n)[:, None]
    assert np.max(np.abs(read - m)) < 1e-12
    return m


def _forgetful_sides(N, m, Ncat):
    """Both sides of sum_k N_ij^k m_k(x) = sum_{y,z} m_i(y) m_j(z) N_yz^x."""
    return np.einsum("ijk,kx->ijx", N, m), np.einsum("iy,jz,yzx->ijx", m, m, Ncat)


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"]
    + ["twisted_z%d_%d" % nk for nk in TWISTED] + ["gauged_ising_1", "gauged_fibonacci_1"])
def test_fusion_rules_survive_forgetting_the_half_braiding(mds, vec_s3_md, name):
    # forgetting the half-braiding is a tensor functor Z(C) -> C: the grades
    # of i x j are those of i times those of j, an exact check of N that
    # needs no half-braiding
    md = _md(mds, vec_s3_md, name)
    lhs, rhs = _forgetful_sides(md.N, _grade_multiplicities(md), md.alg.cat.N)
    assert np.array_equal(lhs, rhs)


def test_forgetful_fusion_check_catches_swapped_blocks(mds):
    # N from an S with two blocks of different grades swapped is a fusion
    # ring, but not the one the grades give
    md = mds["ising"]
    m = _grade_multiplicities(md)
    a, b = next((a, b) for a in range(len(m)) for b in range(a)
                if not np.array_equal(m[a], m[b]))
    p = np.arange(len(m))
    p[[a, b]] = p[[b, a]]
    N = verlinde_fusion(md.S[np.ix_(p, p)])[0]
    lhs, rhs = _forgetful_sides(N, m, md.alg.cat.N)
    assert not np.array_equal(lhs, rhs)


def _label_groups(lab):
    groups = {}
    for i, row in enumerate(lab.tolist()):
        groups.setdefault(tuple(row), []).append(i)
    return list(groups.values())


def _raises(solve, alg, irreps):
    with pytest.raises(ModularDataError) as err:
        solve(alg, irreps)
    return str(err.value)


@pytest.mark.parametrize("name, tamper, kind", [
    # blocks are addressed as (label group, member).  vec_z4: a random V
    # fails unitarity; its group of four holds the other blocks
    ("vec_z4", {(0, 1): "random"}, "unitary"),
    ("vec_z4", {(1, 1): "random", (0, 2): "random"}, "unitary"),
    # Vec(S3): label groups [0, 1], [2, 4, 5], [3], [6, 7].  A V stretched
    # by 1.5 or by 1e6 fails unitarity, the latter by 1e24
    ("vec_s3", {(1, 1): "huge"}, "unitary"),
    ("vec_s3", {(1, 0): "stretch", (1, 1): "huge"}, "unitary"),
    ("vec_s3", {(3, 1): "huge", (1, 1): "huge"}, "unitary"),
    ("vec_s3", {(3, 1): "huge", (1, 0): "stretch"}, "unitary"),
    # ising, label groups [0, 1], [2, 3], [4, 5, 6, 7], [8]
    ("ising", {(2, 0): "huge"}, "unitary"),
])
def test_grouped_solve_raises_first_failure(mds, vec_s3_md, name, tamper, kind):
    # the first failure in block order, whichever label group it falls in;
    # the message names the block and the check, and the loop names both too
    md = _md(mds, vec_s3_md, name)
    V, lab = irreps = half_braidings(md)[0]
    groups = _label_groups(lab)  # in order of their first block
    rng = np.random.default_rng(11)
    for (g, j), how in tamper.items():
        i = groups[g][j]
        assert len(groups[g]) >= 2
        if how == "random":
            shape = (md.alg.dim, md.dec.n[i])
            Vi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            V[i, :, :shape[1]] = Vi / np.linalg.norm(Vi, axis=0)
        else:
            V[i] *= {"stretch": 1.5, "huge": 1e6}[how]
    blame = min(groups[g][j] for g, j in tamper)
    for solve in (modulardata.extract_half_braidings, extract_half_braidings):
        msg = _raises(solve, md.alg, irreps)
        assert msg.startswith("half-braiding (%d, strand" % blame)
        assert ("is not %s" % kind) in msg


def test_grouped_solve_raises_first_layout_failure(vec_s3_md):
    # a block graded by the one simple 1 alone: strand 2 is not square
    md = vec_s3_md
    V0, lab0 = half_braidings(md)[0]

    def fake(*blocks):
        # the blocks given get block 0's vector, graded by the simple 1
        V, lab = V0.copy(), lab0.copy()
        V[blocks, :], lab[blocks, :] = 0, -1
        V[blocks, :, 0], lab[blocks, 0] = V0[0, :, 0], 1
        return V, lab

    V, lab = irreps = fake(-1)
    got = _raises(modulardata.extract_half_braidings, md.alg, irreps)
    assert got.startswith("half-braiding block (2,") and "is not square" in got
    # a failure in an earlier block comes first
    V[-2] *= 1.5
    got = _raises(modulardata.extract_half_braidings, md.alg, irreps)
    assert got.startswith("half-braiding (%d, strand" % (len(lab) - 2))
    # and the layout failure of block 1 before the failing unitarity of block 4
    V, lab = irreps = fake(1, 5)
    V[4] *= 1e6
    got = _raises(modulardata.extract_half_braidings, md.alg, irreps)
    assert "is not square" in got


def test_one_solve_per_label_set_and_strand(monkeypatch):
    # vec_z7: 49 blocks of one component each on 7 label sets, 7 strands;
    # all of them share one solve of the square tube system
    md = compute_modular_data(dt.zoo("vec_z7"))
    irreps = modulardata.block_irreps(md.alg, md.dec)
    solves = count_calls(monkeypatch, np.linalg, "solve")
    fits = count_calls(monkeypatch, np.linalg, "lstsq")
    modulardata.extract_half_braidings(md.alg, irreps)
    assert len(solves) == 1 and not fits


def test_half_braiding_equations_match_loop_on_random_f(monkeypatch):
    # with the unitarity gate open, random representations on fibonacci's
    # ring with random complex F reach every label of the equations, and the
    # one solve must meet the loop's systems
    cat = random_f_ring()
    basis, index = _basis(cat)
    alg = SimpleNamespace(cat=cat, basis=basis, dim=len(basis), scale=np.ones(len(basis)),
                          C=_structure(cat, basis, index),
                          runs=np.searchsorted(basis[:, 0] * cat.n + basis[:, 1],
                                               np.arange(cat.n ** 2 + 1)))
    rng = np.random.default_rng(5)
    irreps = stacked([(rng.normal(size=(alg.dim, 2)) + 1j * rng.normal(size=(alg.dim, 2)), labels)
                      for labels in ([0, 1], [1, 1])])
    monkeypatch.setattr(modulardata, "_EXTRACT_TOL", np.inf)
    got = modulardata.extract_half_braidings(alg, irreps)[0]
    want = extract_half_braidings(alg, irreps)[0]
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(got - want)) < 1e-12


def _ring_alg():
    cat = random_f_ring()
    basis, _ = _basis(cat)
    return SimpleNamespace(cat=cat, basis=basis, dim=len(basis))


@pytest.mark.parametrize("name", ZOO + ["vec_s3", "twisted_z3", "random_f_ring"])
def test_tube_system_is_square_and_block_diagonal_by_sector(vec_s3_md, name):
    # row t = X(xi, eta, zeta, ...) reaches only the unknowns (sigma, xi, eta)
    # with sigma = zeta*, and each sector has as many unknowns as tubes
    if name == "random_f_ring":
        alg = _ring_alg()
    elif name == "vec_s3":
        alg = vec_s3_md.alg
    else:
        alg = build_tube_algebra(twisted_vec_zn(3, 1) if name == "twisted_z3"
                                 else dt.zoo(name))
    A, col = modulardata._tube_system(alg)
    assert A.shape == (alg.dim, alg.dim)
    assert np.linalg.matrix_rank(A) == alg.dim
    n = alg.cat.n
    # col numbers the admissible labels in C order
    sig, xi, eta = np.unravel_index(np.flatnonzero(col >= 0), col.shape)[:3]
    col_sector = (sig * n + xi) * n + eta
    x, y, z = alg.basis[:, :3].T
    row_sector = (np.asarray(alg.cat.dual)[z] * n + x) * n + y
    t, c = np.nonzero(A)
    assert np.array_equal(row_sector[t], col_sector[c])
    assert np.array_equal(np.bincount(row_sector, minlength=n ** 3),
                          np.bincount(col_sector, minlength=n ** 3))


def test_tube_system_gate():
    # a tube dropped from the basis leaves the system one equation short
    alg = _ring_alg()
    alg.basis, alg.dim = alg.basis[:-1], alg.dim - 1
    with pytest.raises(ModularDataError,
                       match="the tube system of the half-braidings is not square"):
        modulardata._tube_system(alg)


@pytest.mark.parametrize("name", ZOO + ["vec_z4", "vec_s3", "twisted_z3"])
def test_traced_half_braidings_solve_the_torus_system(mds, vec_s3_md, name):
    # E_i summed over the components of each grade is what compute_S solves
    # for from the characters on the torus tubes
    if name == "twisted_z3":
        md = compute_modular_data(twisted_vec_zn(3, 1))
    else:
        md = _md(mds, vec_s3_md, name)
    alg = md.alg
    irreps, E, _ = half_braidings(md)
    torus, A, free = modulardata._torus_system(alg)
    Q = np.linalg.solve(A, characters(alg, md.dec)[:, torus].T).T
    for (labels, Ei), Qi in zip(blocks(irreps, E), Q, strict=True):
        traced = np.einsum("sdpp,px->sxd", Ei, labels[:, None] == np.arange(alg.cat.n))
        assert np.max(np.abs(traced[free] - Qi)) < 1e-12


@pytest.mark.parametrize("name", ZOO)
def test_half_braidings_unitary(pipes, name):
    alg, _, irreps, E, resid = pipes[name]
    assert resid["unitary"] < 1e-9
    mask = np.zeros(E.shape, dtype=bool)
    for i, (labels, Ei) in enumerate(blocks(irreps, E)):
        n = len(labels)
        sq, mask[i, :, :, :n, :n] = squares(alg.cat, labels, Ei)
        for M in sq:
            assert M.shape[0] == M.shape[1]
            assert np.max(np.abs(M @ M.conj().T - np.eye(M.shape[0]))) < 1e-9
    assert not E[~mask].any()  # padding included


def test_vec_z2_half_braidings_are_signs(pipes):
    # the four blocks of the Z/2 double braid by +-1 scalars
    alg, _, irreps, E, _ = pipes["vec_z2"]
    seen = set()
    for labels, Ei in blocks(irreps, E):
        for M in squares(alg.cat, labels, Ei)[0]:
            assert M.shape == (1, 1)
            val = complex(M[0, 0])
            assert min(abs(val - 1), abs(val + 1)) < 1e-12
            seen.add(int(np.sign(val.real)))
    assert seen == {1, -1}


def test_fibonacci_two_dim_braiding_block(mds, pipes):
    alg, _, irreps, E, _ = pipes["fibonacci"]
    two = [(labels, Ei) for (labels, Ei), n in zip(blocks(irreps, E), mds["fibonacci"].block_dims)
           if n == 2]
    assert len(two) == 1
    assert any(M.shape == (2, 2) for M in squares(alg.cat, *two[0])[0])


@pytest.mark.parametrize("name", ZOO)
def test_composition_law(pipes, name):
    alg, _, irreps, E, _ = pipes[name]
    assert half_braiding_multiplicativity(alg.cat, irreps, E) < 1e-8


@pytest.mark.parametrize("name", ["vec_z3", "fibonacci", "ising"])
def test_composition_law_detects_a_sign_flip(pipes, name):
    # flip one (strand, charge) slice of the last block's E; not on vec_z2,
    # where flipping strand 1 of a block gives the other character of Z/2
    alg, _, irreps, E, _ = pipes[name]
    E = E.copy()
    sigma = alg.cat.n - 1
    delta = next(d for d in range(alg.cat.n) if E[-1, sigma, d].any())
    E[-1, sigma, delta] *= -1
    assert half_braiding_multiplicativity(alg.cat, irreps, E) > 1e-3


def _law_pipes(mds, vec_s3_md, name):
    md = vec_s3_md if name == "vec_s3" else mds[name]
    return (md.alg.cat, *half_braidings(md)[:2])


@pytest.mark.parametrize("name", ZOO + ["vec_z4", "vec_s3"])
def test_composition_law_matches_dense_oracle(mds, vec_s3_md, name):
    cat, irreps, E = _law_pipes(mds, vec_s3_md, name)
    got = half_braiding_multiplicativity(cat, irreps, E)
    assert abs(got - composition_law_residual(cat, irreps, E)) < 1e-14


def test_composition_law_matches_dense_oracle_on_random_f():
    # both sides of the law are defined for any E, so random E on
    # fibonacci's ring with random complex F reach every label of the
    # contraction
    cat = random_f_ring()
    rng = np.random.default_rng(5)
    irreps = stacked([(np.zeros((1, len(labels))), labels)
                      for labels in ([0, 1], [1, 1], [1])])
    lab = irreps[1]
    # admissible entries, none past n_i: N[sigma, xi_p, delta], N[eta_q, sigma, delta]
    on = (lab >= 0)[:, None, None, :]
    rows = on & (cat.N[:, lab].transpose(1, 0, 3, 2) > 0)
    cols = on & (cat.N[lab].transpose(0, 2, 3, 1) > 0)
    mask = rows[..., None] & cols[:, :, :, None]
    E = np.where(mask, rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape), 0)
    want = composition_law_residual(cat, irreps, E)
    assert want > 1.0
    assert abs(half_braiding_multiplicativity(cat, irreps, E) - want) < 1e-12 * want


@pytest.mark.parametrize("name", ["ising", "vec_s3"])
def test_composition_law_matches_dense_oracle_on_broken_blocks(
        mds, vec_s3_md, name):
    # on the last strand of every block (psi for ising, a transposition for
    # S3; no character of the fusion ring is -1 on that strand alone, so no
    # sign flip there gives another half-braiding): (a) negate one admissible
    # entry, (b) zero one (strand, charge) slice, so that each side of the
    # law vanishes at entries where the other does not
    cat, irreps, E = _law_pipes(mds, vec_s3_md, name)
    sigma = cat.n - 1
    for bi, (labels, Ei) in enumerate(blocks(irreps, E)):
        mask = squares(cat, labels, Ei)[1]
        entry = tuple(np.argwhere(mask[sigma] & (np.abs(Ei[sigma]) > 0.1))[0])
        negated, zeroed = E.copy(), E.copy()
        negated[(bi, sigma) + entry] *= -1
        zeroed[bi, sigma, entry[0]] = 0
        for broken in (negated, zeroed):
            got = half_braiding_multiplicativity(cat, irreps, broken)
            assert got > 1e-3
            assert abs(got - composition_law_residual(cat, irreps, broken)) < 1e-12


# -- twists --------------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_dehn_twist_action_preserves_products(pipes, name):
    # T(X) T*(Y) = X Y for the central unitary twist tube
    alg = pipes[name][0]
    t = twist_element(alg)
    ts = alg.star(t)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)
        y = rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim)
        lhs = alg.product(alg.product(t, x), alg.product(ts, y))
        rhs = alg.product(x, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_twist_values_vec_z2(mds):
    assert sorted(np.round(mds["vec_z2"].T.real, 9)) == [-1.0, 1.0, 1.0, 1.0]
    assert np.max(np.abs(mds["vec_z2"].T.imag)) < 1e-12


def test_twist_values_fibonacci(mds):
    got = sorted(np.round(mds["fibonacci"].T, 9), key=lambda z: (z.real, z.imag))
    w = np.exp(4j * np.pi / 5)
    want = sorted(np.round([1, 1, w, np.conj(w)], 9),
                  key=lambda z: (z.real, z.imag))
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-9


def test_twist_values_ising_double(mds):
    # multiset {theta_a conj(theta_b)} for theta = (1, e^{i pi/8}, -1)
    theta = np.array([1.0, np.exp(1j * np.pi / 8), -1.0])
    want = np.array([a * np.conj(b) for a in theta for b in theta])
    got = mds["ising"].T
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    assert sorted(map(key, got)) == sorted(map(key, want))


@pytest.mark.parametrize("name", ZOO)
def test_twist_vacuum_is_one(mds, name):
    assert abs(mds[name].T[0] - 1.0) < 1e-12


# -- S matrices ----------------------------------------------------------------


def test_S_vec_z2_exact(mds):
    want = np.array([[1, 1, 1, 1],
                     [1, 1, -1, -1],
                     [1, -1, 1, -1],
                     [1, -1, -1, 1]]) / 2.0
    assert np.max(np.abs(mds["vec_z2"].S - want)) < 1e-9


@pytest.mark.parametrize("name", ZOO)
def test_S_row0_is_qdims_over_lambda(mds, name):
    md = mds[name]
    assert np.max(np.abs(md.S[0] - np.array(md.qdims) / md.lam)) < 1e-9
    assert np.max(np.abs(md.S[0] / md.S[0, 0] - np.array(md.qdims))) < 1e-9


def test_fibonacci_S_is_square_of_fib(mds):
    sf = np.array([[1, PHI], [PHI, -1]]) / np.sqrt(2 + PHI)
    theta = np.array([1.0, np.exp(4j * np.pi / 5)])
    S2 = np.kron(sf, sf.conj())
    T2 = np.array([a * np.conj(b) for a in theta for b in theta])
    perm = match_blocks(mds["fibonacci"].S, mds["fibonacci"].T, S2, T2)
    assert perm is not None


@pytest.mark.parametrize("name", ZOO)
def test_axiom_residuals(mds, name):
    md = mds[name]
    for key, val in md.residuals.items():
        assert val < 1e-8, (key, val)


@pytest.mark.parametrize("name", ZOO)
def test_charge_conjugation(mds, name):
    md = mds[name]
    C = md.C
    assert np.array_equal(C @ C, np.eye(len(md.T), dtype=np.int64))
    assert C[0, 0] == 1
    assert np.max(np.abs(md.S @ md.S - C)) < 1e-9


@pytest.mark.parametrize("name", ZOO)
def test_gauss_sums_equal_global_dim(mds, name):
    md = mds[name]
    assert abs(md.gauss_plus - md.lam) < 1e-8
    assert abs(md.gauss_minus - md.lam) < 1e-8
    assert abs(1.0 / md.S[0, 0] - md.lam) < 1e-8


def test_pipeline_keeps_parts_and_stage_times(mds):
    md = mds["ising"]
    assert tuple(md.timings_ms) == STAGES
    assert all(t >= 0 for t in md.timings_ms.values())
    assert sum(n * n for n in md.dec.n) == md.alg.dim
    assert not hasattr(md, "reps") and not hasattr(md, "braidings")
    assert set(md.residuals).isdisjoint({"solve", "unitary", "multiplicative"})
    bare = ModularData(md.S, md.T, md.qdims, md.block_dims, md.lam)
    assert bare.alg is None and bare.dec is None and bare.timings_ms == {}
    assert md.permuted(list(range(md.r_plus_1))).alg is None


def test_sizes_and_block_dims(mds):
    assert [mds[n].r_plus_1 for n in ZOO] == [4, 9, 4, 9]
    assert mds["fibonacci"].block_dims == [1, 1, 1, 2]
    assert mds["ising"].block_dims == [1] * 8 + [2]
    for name in ZOO:
        qd = mds[name].qdims
        assert abs(qd[0] - 1.0) < 1e-9
        assert all(qd[i] <= qd[i + 1] + 1e-9 for i in range(len(qd) - 1))


# -- fusion rules --------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_fusion_unit_row(mds, name):
    N = mds[name].N
    r1 = N.shape[0]
    assert np.array_equal(N[0], np.eye(r1, dtype=np.int64))
    assert np.all(N >= 0)


@pytest.mark.parametrize("name", ZOO + ["vec_z4"] + ["twisted_z%d_%d" % nk for nk in TWISTED]
                         + ["gauged_%s_%d" % (name, seed) for seed in (1, 2) for name in
                            ("ising", "fibonacci", "vec_z4", "twisted_z3_1", "twisted_z4_3")])
def test_pants_dims_equal_verlinde(mds, name):
    # real F, as in the zoo, fuses alike whichever F-moves are conjugated;
    # twisted doubles and complex vertex gauges hold the order to the tube action
    md = mds[name] if name in mds else compute_modular_data(_category(name))
    alg, dec = md.alg, md.dec
    irreps, E, _ = half_braidings(md)
    Nv, _ = verlinde_fusion(hopf_link_S(alg.cat, irreps, E, alg.lam))
    got = pants_dims(alg, dec, irreps, E)
    assert np.array_equal(got, Nv) and np.array_equal(got, md.N)


def test_pants_dims_names_a_trace_off_the_integers(pipes):
    # one block's half-braiding stretched by 1.5 stretches the traces of its
    # products: N_02^2 = 1 reads 1.5
    alg, dec, irreps, E, _ = pipes["ising"]
    stretched, nan = E.copy(), E.copy()
    stretched[2] *= 1.5
    nan[2] *= np.nan
    with pytest.raises(ModularDataError,
                       match=r"pants trace for \(0,2,2\) is 5\.000e-01 from an integer"):
        pants_dims(alg, dec, irreps, stretched)
    # a nan trace fails the gate too
    with pytest.raises(ModularDataError, match=r"pants trace for \(0,2,0\) is nan"):
        pants_dims(alg, dec, irreps, nan)


def _references(md, cat):
    """S and T by the half-braiding route, built from md.alg and md.dec,
    which follow md.S: the termwise Hopf trace, the twist on each irrep and
    the twist read off the E-diagonal."""
    irreps, E, _ = half_braidings(md)
    return (hopf_link_S(cat, irreps, E, md.alg.lam), block_twists(md.alg, irreps),
            braiding_twists(cat, irreps, E))


ROUTE_CASES = ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"]


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_S_equals_the_termwise_hopf_trace(mds, vec_s3_md, name):
    # S comes from the characters now, so it meets the half-braidings' Hopf
    # trace within rounding, not bit for bit
    md = _md(mds, vec_s3_md, name)
    S, _, _ = _references(md, md.alg.cat)
    assert np.max(np.abs(md.S - S)) < 1e-12


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_T_equals_the_twist_of_each_irrep(mds, vec_s3_md, name):
    md = _md(mds, vec_s3_md, name)
    _, T, T_braiding = _references(md, md.alg.cat)
    assert np.max(np.abs(md.T - T)) < 1e-12
    assert np.max(np.abs(md.T - T_braiding)) < 1e-12


@pytest.mark.parametrize("name", ZOO)
def test_parts_are_in_the_order_of_S(mds, name):
    # dec follows S, so S and N need no permutation.  T is read block by
    # block, so from the permuted parts it is T permuted bit for bit; S from
    # the permuted projections rounds like S permuted, not bit for bit
    md = mds[name]
    assert md.dec.n == md.block_dims and md.dec.qdims == md.qdims
    assert np.array_equal(compute_T(md.alg, md.dec), md.T)
    assert np.max(np.abs(compute_S(md.alg, characters(md.alg, md.dec)) - md.S)) < 1e-14


def test_pipeline_solves_no_half_braiding(monkeypatch):
    # irreps, half-braidings and their composition law left the pipeline
    calls = [count_calls(monkeypatch, modulardata, name)
             for name in ("block_irreps", "extract_half_braidings",
                          "half_braiding_multiplicativity")]
    compute_modular_data(dt.zoo("ising"))
    assert calls == [[], [], []]


def test_twist_gate_names_the_block(monkeypatch):
    # a twist tube off the center by a non-central element of block j
    cat = dt.zoo("fibonacci")
    dec = center_decompose(build_tube_algebra(cat))
    j = dec.n.index(2)
    twist = modulardata.twist_element
    monkeypatch.setattr(modulardata, "twist_element",
                        lambda alg: twist(alg) + 1e-6 * dec.block_spaces[j][:, 0])
    with pytest.raises(ModularDataError,
                       match="twist tube is not scalar on block %d " % j):
        compute_modular_data(cat)


def test_u_condition_gate(monkeypatch):
    # a Verlinde vector times i is anti-self-adjoint
    real = modulardata.center_decompose

    def tilted(alg, seed=None):
        dec = real(alg, seed=seed)
        dec.p[1] = 1j * dec.p[1]
        return dec

    monkeypatch.setattr(modulardata, "center_decompose", tilted)
    with pytest.raises(ModularDataError, match="Verlinde vectors are not self-adjoint"):
        compute_modular_data(dt.zoo("ising"))


def test_global_dimension_gate(monkeypatch):
    # S is built with the true lambda; one changed afterwards disagrees with 1/S_00
    real = modulardata.compute_S

    def compute_S(alg, chi):
        S = real(alg, chi)
        alg.lam *= 1 + 1e-6
        return S

    monkeypatch.setattr(modulardata, "compute_S", compute_S)
    with pytest.raises(ModularDataError,
                       match="1/S_00 disagrees with the global dimension"):
        compute_modular_data(dt.zoo("ising"))


def test_square_system_gate(monkeypatch):
    # the torus tube X(0, 0, 1, 1) moved off the torus leaves the
    # system of S one equation short
    real = modulardata.build_tube_algebra

    def build(cat):
        alg = real(cat)
        alg.basis = alg.basis.copy()
        alg.basis[alg.index[0, 0, 1, 1], 1] = 1
        return alg

    monkeypatch.setattr(modulardata, "build_tube_algebra", build)
    with pytest.raises(ModularDataError, match="the torus-tube system of S is not square"):
        compute_modular_data(dt.zoo("ising"))


def test_fibonacci_product_fusion(mds):
    # blocks sort as (vacuum, (tau,1), (1,tau), (tau,tau)) up to mirror
    N = mds["fibonacci"].N
    assert N[1, 2].tolist() == [0, 0, 0, 1]
    assert N[1, 1].tolist() == [1, 1, 0, 0] or N[1, 1].tolist() == [1, 0, 1, 0]
    assert N[3, 3].tolist() == [1, 1, 1, 1]


def test_vec_z3_group_fusion(mds):
    md = mds["vec_z3"]
    So, To, labels = group_double_oracle(3)
    perm = match_blocks(md.S, md.T, So, To)
    assert perm is not None
    lab = [labels[p] for p in perm]
    for i in range(9):
        for j in range(9):
            g = ((lab[i][0] + lab[j][0]) % 3, (lab[i][1] + lab[j][1]) % 3)
            want = [1 if lab[k] == g else 0 for k in range(9)]
            assert md.N[i, j].tolist() == want


def test_noncommutative_double_of_s3(vec_s3_md):
    # no zoo ring is noncommutative; here N_ab != N_ba, so a swapped index in
    # the half-braiding, S or pants arrays would show
    md = vec_s3_md
    assert md.block_dims == [1, 1, 2, 2, 2, 2, 3, 3]
    assert np.max(np.abs(np.array(md.qdims) - md.block_dims)) < 1e-9
    # twists: trivial class 1, 1, 1; 3-cycles 1, w, w^2; transpositions 1, -1
    w = np.exp(2j * np.pi / 3)
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    assert sorted(map(key, md.T)) == sorted(map(key, [1, 1, 1, 1, w, w * w, 1, -1]))
    irreps, E, _ = half_braidings(md)
    assert half_braiding_multiplicativity(md.alg.cat, irreps, E) < 1e-12
    assert np.array_equal(pants_dims(md.alg, md.dec, irreps, E), md.N)


# -- group-double oracle -------------------------------------------------------


@pytest.mark.parametrize("nmod", [1, 2, 3, 4])
def test_group_double_oracle_is_modular(nmod):
    S, T, labels = group_double_oracle(nmod)
    r1 = nmod * nmod
    assert len(labels) == r1
    assert np.max(np.abs(S @ S.conj().T - np.eye(r1))) < 1e-12
    assert np.max(np.abs(S - S.T)) < 1e-12
    st = S @ np.diag(T)
    assert np.max(np.abs(np.linalg.matrix_power(st, 3) - S @ S)) < 1e-12
    assert T[0] == 1
    assert np.min(S[0].real) > 0


def test_group_double_oracle_trivial():
    S, T, _ = group_double_oracle(1)
    assert S.shape == (1, 1) and abs(S[0, 0] - 1) < 1e-15
    assert abs(T[0] - 1) < 1e-15


@pytest.mark.parametrize("nmod", [12, 30])
def test_group_double_oracle_is_exact(nmod):
    # T = w^(jg) and N S = w^-(jh+kg) against the roots of unity in long double
    S, T, labels = group_double_oracle(nmod)
    g, j = np.array(labels).T
    pi = np.arccos(np.longdouble(-1))

    def root(m):
        a = 2 * pi * (m % nmod) / nmod
        return np.cos(a) + 1j * np.sin(a)

    assert np.max(np.abs(T - root(j * g))) < 1e-15
    assert np.max(np.abs(nmod * S - root(-(np.outer(j, g) + np.outer(g, j))))) < 1e-15


@pytest.mark.parametrize("name,nmod", [("vec_z2", 2), ("vec_z3", 3)])
def test_matches_group_double(mds, name, nmod):
    So, To, _ = group_double_oracle(nmod)
    assert match_blocks(mds[name].S, mds[name].T, So, To) is not None


def test_match_blocks_rejects_wrong_data():
    Sa, Ta, _ = group_double_oracle(2)
    Sb, Tb, _ = group_double_oracle(3)
    assert match_blocks(Sa, Ta, Sb[:4, :4], Tb[:4]) is None


@pytest.mark.parametrize("nmod,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1)])
def test_twisted_double_runs_end_to_end(nmod, k):
    # the pivotal phase of the star keeps the Markov form positive on Vec_ZN^omega;
    # T is the conjugate of the Coste-Gannon-Ruelle twists, and the two routes meet
    cat = twisted_vec_zn(nmod, k)
    md = compute_modular_data(cat)
    # distinct N^2-th roots of unity are 0.17 apart or more: match each to the nearest
    left = list(np.conj(twisted_double_twists(nmod, k)))
    for t in md.T:
        assert abs(left.pop(int(np.argmin(np.abs(np.subtract(left, t))))) - t) < 1e-14
    for p, q in [(3, 1), (5, 2)]:
        z = state_sum(cat, lens_triangulation(p, q))
        assert abs(z - surgery_invariant(md, lens_chain(p, q))) < 1e-12


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_seed_independence(name):
    md1 = compute_modular_data(dt.zoo(name), seed=1)
    md2 = compute_modular_data(dt.zoo(name), seed=20240817)
    assert np.max(np.abs(md1.S - md2.S)) < 1e-9
    assert np.max(np.abs(md1.T - md2.T)) < 1e-9


def test_round9_rounds_as_python_round():
    # one round per distinct value, repeats and ties at the 9th digit included
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.standard_normal(60), np.round(rng.standard_normal(30), 9) + 5e-10,
                        [0.0, -0.0, 5e-10, -5e-10, 0.5, 2.0000000005]])
    x = np.concatenate([x, x[::3]]).reshape(4, -1)
    assert modulardata._round9(x).tolist() == [[round(v, 9) for v in r] for r in x.tolist()]


def test_canonical_permutation_is_relabeling_invariant(mds):
    md = mds["ising"]
    r1 = md.r_plus_1
    base = canonical_permutation(md.qdims, md.T, md.S)
    ref_S = md.S[np.ix_(base, base)]
    ref_T = md.T[np.asarray(base)]
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.permutation(r1)
        Sp = md.S[np.ix_(p, p)]
        Tp = md.T[p]
        qp = [md.qdims[i] for i in p]
        vac = int(np.where(p == 0)[0][0])
        order = canonical_permutation(qp, Tp, Sp, vacuum_index=vac)
        assert np.max(np.abs(Sp[np.ix_(order, order)] - ref_S)) < 1e-12
        assert np.max(np.abs(Tp[np.asarray(order)] - ref_T)) < 1e-12


def _order_cases():
    """(name, make) with make() -> (S, T, qdims), vacuum at index 0."""
    def from_md(md):
        return md.S, md.T, md.qdims

    for name in ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7"]:
        yield name, lambda name=name: from_md(compute_modular_data(dt.zoo(name)))
    yield "vec_s3", lambda: from_md(compute_modular_data(
        _category_from_dict(vec_s3_document())))
    for nmod in range(2, 9):
        yield "D(Z_%d)" % nmod, lambda nmod=nmod: (
            *group_double_oracle(nmod)[:2], [1.0] * nmod ** 2)
    for seed, lengths in enumerate([(6, 3), (5, 4), (8, 4)]):
        yield ("cycles-" + "-".join(map(str, lengths)),
               lambda seed=seed, lengths=lengths: _cycles(lengths, seed))


def _cycles(lengths, seed):
    """S, T and qdims that colour refinement cannot split: a vacuum linked
    to nothing, then disjoint cycles (S = 1 + i/2 on their edges, plus
    noise below the rounding digit), T and qdims constant.  Cycles of
    different lengths give branches with different streams."""
    r1 = 1 + sum(lengths)
    S = np.zeros((r1, r1), dtype=complex)
    S[0, 0] = 1
    lo = 1
    for n in lengths:
        for k in range(n):
            i, j = lo + k, lo + (k + 1) % n
            S[i, j] = S[j, i] = 1 + 0.5j
        lo += n
    S += 1e-12 * np.random.default_rng(seed).standard_normal((r1, r1))
    return S, np.ones(r1, dtype=complex), [1.0] * r1


@pytest.mark.parametrize("name,make", list(_order_cases()),
                         ids=[name for name, _ in _order_cases()])
def test_canonical_permutation_matches_oracle(name, make):
    S, T, qdims = make()
    r1 = len(T)
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(5):
        p = rng.permutation(r1)
        while p[0] == 0:  # move the vacuum off index 0
            p = rng.permutation(r1)
        Sp, Tp = S[np.ix_(p, p)], T[p]
        qp = [qdims[i] for i in p]
        vac = int(np.flatnonzero(p == 0)[0])
        assert (canonical_permutation(qp, Tp, Sp, vacuum_index=vac)
                == canonical_permutation_oracle(qp, Tp, Sp, vacuum_index=vac))


# -- container and validation --------------------------------------------------


def test_modular_data_rejects_broken_twist(mds):
    md = mds["vec_z2"]
    bad = md.T.copy()
    bad[1] *= np.exp(0.1j)
    with pytest.raises(ModularDataError):
        ModularData(md.S, bad, md.qdims, md.block_dims, md.lam)


def test_modular_data_rejects_nonsymmetric(mds):
    md = mds["vec_z2"]
    bad = md.S.copy()
    bad[0, 1] = -bad[0, 1]
    with pytest.raises(ModularDataError):
        ModularData(bad, md.T, md.qdims, md.block_dims, md.lam)


def test_permuted_roundtrip(mds):
    md = mds["vec_z2"]
    other = md.permuted([0, 2, 1, 3])
    assert np.max(np.abs(other.S - md.S[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])])) == 0
    back = other.permuted([0, 2, 1, 3])
    assert np.max(np.abs(back.S - md.S)) == 0
    assert np.max(np.abs(back.T - md.T)) == 0


@pytest.mark.parametrize("name", ZOO)
def test_verlinde_vectors_self_adjoint(pipes, name):
    alg, dec = pipes[name][0], pipes[name][1]
    assert check_U_condition(alg, dec) < 1e-9


# -- premodular S, T from bundled R-symbols ------------------------------------


def test_braiding_st_ising():
    S, theta = braiding_st(dt.zoo("ising"))
    r2 = np.sqrt(2)
    want = np.array([[1, r2, 1], [r2, 0, -r2], [1, -r2, 1]]) / 2.0
    assert np.max(np.abs(S - want)) < 1e-12
    want_t = np.array([1.0, np.exp(1j * np.pi / 8), -1.0])
    assert np.max(np.abs(theta - want_t)) < 1e-12


def test_braiding_st_fibonacci():
    S, theta = braiding_st(dt.zoo("fibonacci"))
    assert abs(theta[1] - np.exp(4j * np.pi / 5)) < 1e-12
    sf = np.array([[1, PHI], [PHI, -1]]) / np.sqrt(2 + PHI)
    assert np.max(np.abs(S - sf)) < 1e-12


def test_braiding_st_requires_r_symbols():
    with pytest.raises(CategoryError):
        braiding_st(dt.zoo("vec_z2"))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["ising", "vec_z4", "vec_z3", "fibonacci", "twisted_z3_1"])
def test_gauge_transform_keeps_invariants(name, seed):
    # complex F in a random vertex gauge: the composition law must hold, S
    # and T must agree with the half-braiding route, pants fusion with N,
    # and the modular data and state sums must not move
    cat = _category(name)
    gauged = gauge_transform(cat, np.random.default_rng(seed))
    assert not np.allclose(gauged.F, cat.F)
    want, got = compute_modular_data(cat), compute_modular_data(gauged)
    irreps, E, _ = half_braidings(got)
    law = composition_law_residual(gauged, irreps, E)
    assert abs(half_braiding_multiplicativity(gauged, irreps, E) - law) < 1e-14
    assert np.max(np.abs(extract_half_braidings(got.alg, irreps)[0] - E)) < 1e-14
    assert np.array_equal(pants_dims(got.alg, got.dec, irreps, E), got.N)
    S, T, T_braiding = _references(got, gauged)
    assert np.max(np.abs(got.S - S)) < 1e-12
    assert np.max(np.abs(got.T - T)) < 1e-12
    assert np.max(np.abs(got.T - T_braiding)) < 1e-12
    assert np.allclose(got.S, want.S, rtol=0, atol=1e-12)
    assert np.allclose(got.T, want.T, rtol=0, atol=1e-12)
    assert np.array_equal(got.N, want.N)
    # each side is within 1.1e-15 of the exact value; they differ by up to
    # 2.0e-15 (fibonacci, seed 1), where raw projections gave up to 3.4e-14
    assert np.max(np.abs(np.subtract(got.qdims, want.qdims))) < 3e-15
    for tri in ("s3", "lens_3_1", "rp3"):
        tri = builtin_triangulation(tri)
        assert abs(state_sum(gauged, tri) - state_sum(cat, tri)) < 1e-12


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["ising", "fibonacci", "vec_z3", "twisted_z3_1"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_vertex_gauge_keeps_the_modular_data(name, seed):
    # u(a, dual a; 0) is free too: S, T, qdims and N stay, and so does pants fusion
    cat = _category(name)
    want = compute_modular_data(cat)
    got = compute_modular_data(gauge_transform(cat, np.random.default_rng(seed)))
    assert np.max(np.abs(got.S - want.S)) < 1e-12 and np.max(np.abs(got.T - want.T)) < 1e-12
    assert np.max(np.abs(np.subtract(got.qdims, want.qdims))) < 1e-12
    assert np.array_equal(got.N, want.N)
    assert np.array_equal(pants_dims(got.alg, got.dec, *half_braidings(got)[:2]), want.N)
