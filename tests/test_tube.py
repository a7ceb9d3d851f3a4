"""Tube algebra: structure constants, star, traces, center decomposition."""

import copy
import functools

import numpy as np
import pytest

import doubletop as dt
from doubletop import tube
from doubletop.catdata import _category_from_dict
from doubletop.tube import (
    CenterError,
    TubeAlgebra,
    _basis,
    _star,
    _structure,
    build_tube_algebra,
    center_decompose,
)
from oracles import conditional_expectation as expectation_oracle
from oracles import (
    associativity_residual, center_by_commutant, count_calls, degenerate_draws,
    gauge_transform, random_f_ring, raw_star, raw_structure,
    star_adjoint_residual, star_antihom_residual, tube_basis, twisted_vec_zn,
    vec_s3_document,
)

# the zoo and one twisted double, Vec_Z3 with the cocycle of class 1, whose
# star carries a pivotal phase
ZOO = ["vec_z2", "vec_z3", "fibonacci", "ising", "twisted_z3"]
DIMS = {"vec_z2": 4, "vec_z3": 9, "fibonacci": 7, "ising": 12, "twisted_z3": 9}
BLOCKS = {
    "vec_z2": [1, 1, 1, 1],
    "vec_z3": [1] * 9,
    "fibonacci": [1, 1, 1, 2],
    "ising": [1] * 8 + [2],
    "twisted_z3": [1] * 9,
}


@pytest.fixture(scope="module")
def algs():
    return {name: build_tube_algebra(_loop_category(name)) for name in ZOO}


@pytest.fixture(scope="module")
def decs(algs):
    return {name: center_decompose(algs[name]) for name in ZOO}


# -- algebra structure ---------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_dimension(algs, name):
    assert algs[name].dim == DIMS[name]


@pytest.mark.parametrize("name", ZOO)
def test_basis_is_lexicographic(algs, name):
    alg = algs[name]
    assert np.array_equal(np.lexsort(alg.basis.T[::-1]), np.arange(alg.dim))
    assert all(alg.index[tuple(row)] == i for i, row in enumerate(alg.basis))
    assert np.count_nonzero(alg.index >= 0) == alg.dim


def _loop_category(name):
    if name == "vec_s3":
        return _category_from_dict(vec_s3_document())
    if name == "random_f_ring":
        return random_f_ring()
    if name == "twisted_z3":
        return twisted_vec_zn(3, 1)
    if name.startswith("gauged_"):
        return gauge_transform(dt.zoo(name[len("gauged_"):]), np.random.default_rng(1))
    return dt.zoo(name)


@functools.cache
def _algebra(name):
    return TubeAlgebra(_loop_category(name))


def _loop_builds(cat):
    basis = tube_basis(cat)
    index = {t: i for i, t in enumerate(basis)}
    return basis, raw_structure(cat, basis, index), raw_star(cat, basis, index)


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"])
def test_structure_and_star_equal_loops(name):
    alg = TubeAlgebra(_loop_category(name))
    basis, C, St = _loop_builds(alg.cat)
    assert alg.basis.tolist() == list(map(list, basis))
    s = alg.scale
    assert np.array_equal(alg.C, C * s[None, None, :] / (s[:, None, None] * s[None, :, None]))
    assert np.array_equal(alg.St, St * s[:, None] / s[None, :])


@pytest.mark.parametrize(
    "name", ["random_f_ring", "gauged_ising", "gauged_vec_z4"])
def test_raw_builders_match_loops(name):
    # fibonacci's ring with random complex F (unvalidated, so only the raw
    # builders run) and the gauged copies: every F read, label and
    # conjugation counts
    cat = _loop_category(name)
    basis, index = _basis(cat)
    want_basis, C, St = _loop_builds(cat)
    assert basis.tolist() == list(map(list, want_basis))
    assert np.max(np.abs(_structure(cat, basis, index) - C)) < 1e-14
    assert np.max(np.abs(_star(cat, basis, index) - St)) < 1e-14


@pytest.mark.parametrize("name", ZOO)
def test_basis_counts_fusion_pairs(algs, name):
    alg = algs[name]
    N = alg.cat.N
    want = sum(
        int(N[xi, z, d] * N[z, eta, d])
        for xi in range(alg.cat.n)
        for eta in range(alg.cat.n)
        for z in range(alg.cat.n)
        for d in range(alg.cat.n)
    )
    assert alg.dim == want


@pytest.mark.parametrize("name", ZOO)
def test_associativity_exhaustive(algs, name):
    # every zoo algebra is small enough for the full check
    assert algs[name].associativity_residual() < 1e-12


@pytest.mark.parametrize("name", ZOO)
def test_associativity_residual_matches_oracle(algs, name):
    alg = algs[name]
    assert alg.associativity_residual() == associativity_residual(alg.C)
    broken = copy.copy(alg)
    broken.C = alg.C + 0.5 * np.random.default_rng(3).normal(size=alg.C.shape)
    assert broken.associativity_residual() > 0.1
    assert associativity_residual(broken.C) > 0.1


@pytest.mark.parametrize("name", ZOO)
def test_identity_element(algs, name):
    alg = algs[name]
    assert alg.residuals["identity"] < 1e-12
    for i in range(alg.dim):
        e = np.eye(alg.dim, dtype=complex)[i]
        assert np.allclose(alg.product(alg.identity, e), e, atol=1e-12)
        assert np.allclose(alg.product(e, alg.identity), e, atol=1e-12)


@pytest.mark.parametrize("name", ZOO)
def test_star_involution_and_antihom(algs, name):
    # the build checks only the unit and L(x*) = L(x)^+; with the unit and
    # associativity those imply the involution and the anti-homomorphism
    alg = algs[name]
    assert set(alg.residuals) == {"identity", "star_adjoint"}
    assert alg.residuals["star_adjoint"] < 1e-12
    assert np.max(np.abs(alg.St @ np.conj(alg.St) - np.eye(alg.dim))) < 1e-12
    assert star_antihom_residual(alg.St, alg.C) < 1e-12
    rng = np.random.default_rng(7)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.allclose(alg.star(alg.star(x)), x, atol=1e-10)
    assert np.allclose(
        alg.star(alg.product(x, y)),
        alg.product(alg.star(y), alg.star(x)),
        atol=1e-10,
    )


@pytest.mark.parametrize("name", ZOO)
def test_star_adjoint_matches_per_k_loop(algs, name):
    alg = algs[name]
    assert alg.residuals["star_adjoint"] == pytest.approx(
        star_adjoint_residual(alg.St, alg.C), abs=1e-15)


def test_star_antihom_detects_perturbed_star(algs):
    # a star that breaks the anti-homomorphism breaks the adjoint identity too
    bad = copy.copy(algs["fibonacci"])
    rng = np.random.default_rng(3)
    bad.St = bad.St + 0.5 * rng.standard_normal(bad.St.shape)
    assert star_antihom_residual(bad.St, bad.C) > 0.1
    got = bad._star_adjoint_residual()
    assert got > 0.1
    assert got == pytest.approx(star_adjoint_residual(bad.St, bad.C), rel=1e-12)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z3"])
def test_doubled_star_column_fails_the_build(name, monkeypatch):
    # the doubled column keeps the Markov form diagonal and positive, so the
    # Gram gate passes it and the adjoint check names it
    real = tube._star

    def doubled(cat, basis, index):
        St = real(cat, basis, index)
        St[:, -1] *= 2
        return St

    monkeypatch.setattr(tube, "_star", doubled)
    with pytest.raises(tube.TubeError, match="star_adjoint"):
        TubeAlgebra(_loop_category(name))


@pytest.mark.parametrize("name", ZOO)
def test_star_swaps_sectors(algs, name):
    alg = algs[name]
    dual = alg.cat.dual
    for i, (xi, eta, zeta, delta) in enumerate(alg.basis):
        out = alg.star(np.eye(alg.dim, dtype=complex)[i])
        for k, (x2, e2, z2, d2) in enumerate(alg.basis):
            if abs(out[k]) > 1e-12:
                assert (x2, e2, z2) == (eta, xi, dual[zeta])


def test_vec_z2_is_group_algebra_of_z2_squared(algs):
    # raw structure constants: X(g,h).X(g',h') = delta_{gg'} X(g, h+h')
    alg = algs["vec_z2"]
    raw = alg.C * alg.scale[:, None, None] * alg.scale[None, :, None] / alg.scale[None, None, :]
    for i, (g, g_, h, dlt) in enumerate(alg.basis):
        for j, (g2, g2_, h2, dlt2) in enumerate(alg.basis):
            got = raw[i, j]
            want = np.zeros(alg.dim)
            if g == g2:
                want[alg.index[(g, g, h ^ h2, g ^ h ^ h2)]] = 1.0
            assert np.allclose(got, want, atol=1e-12)


def test_vec_z3_star_negates_waist(algs):
    alg = algs["vec_z3"]
    for i, (g, _, h, _) in enumerate(alg.basis):
        out = alg.star(np.eye(alg.dim, dtype=complex)[i])
        k = alg.index[(g, g, (-h) % 3, (g - h) % 3)]
        assert abs(out[k] - 1.0) < 1e-12


# -- traces and inner products -------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_markov_trace_is_tracial_and_positive(algs, name):
    alg = algs[name]
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        ab = alg.markov_trace(alg.product(x, y))
        ba = alg.markov_trace(alg.product(y, x))
        assert abs(ab - ba) < 1e-9
        norm = alg.markov_trace(alg.product(alg.star(x), x)).real
        assert norm > 0
        # the exposed basis is orthonormal for the Markov form
        assert abs(alg.markov_trace(alg.product(alg.star(y), x)) - np.vdot(y, x)) < 1e-9


@pytest.mark.parametrize("name", ZOO)
def test_reg_trace_is_tracial(algs, name):
    alg = algs[name]
    rng = np.random.default_rng(13)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    ab = alg.reg_trace(alg.product(x, y))
    ba = alg.reg_trace(alg.product(y, x))
    assert abs(ab - ba) < 1e-9
    assert abs(alg.reg_trace(alg.identity) - alg.dim) < 1e-9


@pytest.mark.parametrize("name", ZOO)
def test_left_mult_adjoint_is_star(algs, name):
    alg = algs[name]
    rng = np.random.default_rng(17)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    lx = alg.left_mult(x)
    lxs = alg.left_mult(alg.star(x))
    assert np.allclose(lx.conj().T, lxs, atol=1e-10)


def test_colored_gram_of_vec_z2_is_identity(algs):
    alg = algs["vec_z2"]
    eye = np.eye(alg.dim, dtype=complex)
    G = np.array([[alg.inner(e, f) for f in eye] for e in eye])
    assert np.allclose(G, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("name", ZOO)
def test_colored_gram_positive_definite(algs, name):
    alg = algs[name]
    eye = np.eye(alg.dim, dtype=complex)
    G = np.array([[alg.inner(e, f) for f in eye] for e in eye])
    assert np.allclose(G, G.conj().T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(G)) > 1e-9


@pytest.mark.parametrize("name", ZOO)
def test_colored_product_gns_compatible(algs, name):
    alg = algs[name]
    rng = np.random.default_rng(19)
    x, y, z = (
        rng.standard_normal((3, alg.dim)) + 1j * rng.standard_normal((3, alg.dim))
    )
    lhs = alg.inner(alg.product(x, y), z)
    rhs = alg.inner(y, alg.product(alg.star(x), z))
    assert abs(lhs - rhs) < 1e-8


# -- center decomposition ------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_block_dimensions(decs, name):
    dec = decs[name]
    assert sorted(dec.n) == sorted(BLOCKS[name])
    assert sum(n * n for n in dec.n) == DIMS[name]
    assert dec.r_plus_1 == len(BLOCKS[name])


@pytest.mark.parametrize("name", ZOO)
def test_projections_resolve_identity(decs, name):
    dec = decs[name]
    alg = dec.alg
    total = sum(dec.projections)
    assert np.allclose(total, alg.identity, atol=1e-10)
    for i, pi in enumerate(dec.projections):
        assert np.allclose(alg.product(pi, pi), pi, atol=1e-10)
        assert np.allclose(alg.star(pi), pi, atol=1e-10)
        for j in range(i):
            prod = alg.product(pi, dec.projections[j])
            assert np.max(np.abs(prod)) < 1e-10


@pytest.mark.parametrize("name", ZOO)
def test_projections_are_central(decs, name):
    dec = decs[name]
    alg = dec.alg
    for pi in dec.projections:
        for b in range(alg.dim):
            e = np.eye(alg.dim, dtype=complex)[b]
            comm = alg.product(pi, e) - alg.product(e, pi)
            assert np.max(np.abs(comm)) < 1e-10


@pytest.mark.parametrize("name", ZOO)
def test_projection_pairing(decs, name):
    # <pi_i, pi_j> = delta_ij n_i^2 in the colored product
    dec = decs[name]
    alg = dec.alg
    for i, pi in enumerate(dec.projections):
        for j, pj in enumerate(dec.projections):
            got = alg.inner(pi, pj)
            want = dec.n[i] ** 2 if i == j else 0.0
            assert abs(got - want) < 1e-8


@pytest.mark.parametrize("name", ZOO)
def test_verlinde_vectors_orthonormal(decs, name):
    dec = decs[name]
    alg = dec.alg
    for i, pi in enumerate(dec.p):
        for j, pj in enumerate(dec.p):
            got = alg.inner(pi, pj)
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-8


@pytest.mark.parametrize("name", ZOO)
def test_vacuum_block(decs, name):
    dec = decs[name]
    alg = dec.alg
    vals = [alg.vacuum_functional(pi).real for pi in dec.projections]
    assert abs(vals[dec.vacuum_index] - 1.0) < 1e-8
    assert dec.vacuum_index == 0
    assert dec.n[0] == 1
    assert abs(dec.qdims[0] - 1.0) < 1e-8
    for i, v in enumerate(vals):
        if i != dec.vacuum_index:
            assert abs(v) < 1e-8


QDIMS = {
    "vec_z2": [1.0] * 4,
    "vec_z3": [1.0] * 9,
    "fibonacci": [1.0, 1.618033988749895, 1.618033988749895, 2.618033988749895],
    "ising": [1.0] * 4 + [np.sqrt(2)] * 4 + [2.0],
    "twisted_z3": [1.0] * 9,
}


@pytest.mark.parametrize("name", ZOO)
def test_block_quantum_dimensions(decs, name):
    got = sorted(decs[name].qdims)
    assert np.allclose(got, sorted(QDIMS[name]), atol=1e-8)


@pytest.mark.parametrize("name", ZOO)
def test_markov_trace_of_projections(decs, name):
    # Markov trace weighs each block by qdim * n
    dec = decs[name]
    alg = dec.alg
    total = 0.0
    for pi, n, q in zip(dec.projections, dec.n, dec.qdims):
        val = alg.markov_trace(pi).real
        assert abs(val - q * n) < 1e-8
        total += val
    want = alg.lam * float(np.sum(alg.cat.d))
    assert abs(total - want) < 1e-8


def test_seed_override_gives_same_blocks(algs):
    alg = algs["fibonacci"]
    a = center_decompose(alg, seed=1)
    b = center_decompose(alg, seed=999)
    assert a.n == b.n
    for pa in a.projections:
        dist = min(np.max(np.abs(pa - pb)) for pb in b.projections)
        assert dist < 1e-9


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"])
def test_center_equals_newton_refinement(name):
    # center_decompose returns one 3 pi^2 - 2 pi^3 step of the raw spectral
    # projector B B^+ 1 of the first draw, rebuilt here with alg.product.  The
    # two sum in different orders, so they agree to 1e-15 (4.4e-16 measured)
    # rather than bit for bit; the raw projector is up to 1.2e-13 from the
    # step (vec_z6)
    alg = _algebra(name)
    dec = center_decompose(alg)
    rng = np.random.default_rng(tube.CENTER_SEED)
    h = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    spaces = tube._spectral_blocks(alg, 0.5 * (h + alg.star(h)))
    for pi, B in zip(dec.projections, dec.block_spaces):
        assert sum(np.array_equal(B, S) for S in spaces) == 1  # the same draw
        raw = B @ (B.conj().T @ alg.identity)
        sq = alg.product(raw, raw)
        assert np.max(np.abs(pi - (3 * sq - 2 * alg.product(sq, raw)))) < 1e-15


def test_degenerate_draw_is_reseeded(algs, decs, monkeypatch):
    alg = algs["ising"]
    degenerate_draws(monkeypatch, tube, lambda k: k == 0)  # first eigenvalue clustering
    draws = count_calls(monkeypatch, alg, "right_mult")
    got = center_decompose(alg)
    assert len(draws) == 2
    want = decs["ising"]
    assert sorted(got.n) == sorted(want.n)
    for pa in got.projections:
        assert min(np.max(np.abs(pa - pb)) for pb in want.projections) < 1e-9


def test_coincident_block_traces_are_reseeded(algs, decs, monkeypatch):
    # the ideals come out right but their traces fall into one group
    alg = algs["ising"]
    calls = degenerate_draws(monkeypatch, tube, lambda k: k == 1)
    draws = count_calls(monkeypatch, alg, "right_mult")
    got = center_decompose(alg)
    assert len(draws) == 2
    assert calls[:2] == [alg.dim, sum(decs["ising"].n)]
    assert got.n == decs["ising"].n


def test_degenerate_draws_exhaust_reseeds(algs, monkeypatch):
    alg = algs["ising"]
    degenerate_draws(monkeypatch, tube, lambda k: True)
    draws = count_calls(monkeypatch, alg, "right_mult")
    with pytest.raises(CenterError, match="after 8 reseeds"):
        center_decompose(alg)
    assert len(draws) == 8


def test_idempotency_gate_rejects_draws(algs, monkeypatch):
    monkeypatch.setattr(tube, "_IDEMPOTENT_TOL", 0.0)
    with pytest.raises(CenterError, match="into idempotents after 8 reseeds"):
        center_decompose(algs["fibonacci"])


def test_block_spaces_orthonormal(decs):
    dec = decs["ising"]
    for V, n in zip(dec.block_spaces, dec.n):
        assert V.shape == (12, n * n)
        assert np.allclose(V.conj().T @ V, np.eye(n * n), atol=1e-10)


def test_idempotency_gate_checks_every_block(algs, decs, monkeypatch):
    # tilt the last block space of the first draw only: its projector
    # misses idempotency while the others stay exact, so the draw is reseeded
    real, draws = tube._spectral_blocks, []

    def tilted(alg, h):
        spaces = real(alg, h)
        draws.append(h)
        if len(draws) == 1:
            spaces[-1] = np.linalg.qr(spaces[-1] + 1e-6 * spaces[0][:, :1])[0]
        return spaces

    monkeypatch.setattr(tube, "_spectral_blocks", tilted)
    got = center_decompose(algs["ising"])
    assert len(draws) == 2
    assert got.n == decs["ising"].n


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"])
def test_center_matches_commutant_oracle(name):
    alg = _algebra(name)
    dec, want = center_decompose(alg), center_by_commutant(alg)
    assert dec.n == want.n
    assert np.max(np.abs(np.subtract(dec.qdims, want.qdims))) < 1e-12
    # blocks that tie on (qdim, n) may come in another order
    dist = np.array([[np.max(np.abs(pa - pb)) for pb in want.projections]
                     for pa in dec.projections])
    match = np.argmin(dist, axis=1)
    assert sorted(match) == list(range(dec.r_plus_1))
    assert np.max(dist[np.arange(dec.r_plus_1), match]) < 1e-12
    assert [want.n[j] for j in match] == dec.n


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_s3"])
def test_block_space_heads_are_left_ideals(name):
    alg = _algebra(name)
    dec = center_decompose(alg)
    rng = np.random.default_rng(23)
    for _ in range(3):
        lx = alg.left_mult(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
        for B, n in zip(dec.block_spaces, dec.n):
            V = B[:, :n]
            assert np.linalg.norm(lx @ V - V @ (V.conj().T @ lx @ V)) < 1e-10


SECTOR_NAMES = ZOO + ["vec_z4", "vec_s3", "gauged_ising", "gauged_fibonacci"]


def _sectors(alg):
    """The sector xi n + eta of each tube, read off the runs."""
    sec = np.repeat(np.arange(alg.cat.n ** 2), np.diff(alg.runs))
    assert np.array_equal(sec, alg.basis[:, 0] * alg.cat.n + alg.basis[:, 1])
    return sec


@pytest.mark.parametrize("name", SECTOR_NAMES)
def test_block_space_columns_lie_in_one_sector(name):
    # the draw lies in the corner algebra, so R_h maps each sector to itself
    # and every eigenvector is exactly zero outside its own sector
    alg = _algebra(name)
    sec = _sectors(alg)
    for B in center_decompose(alg).block_spaces:
        own = sec[np.argmax(np.abs(B), axis=0)]
        assert not B[sec[:, None] != own].any()


@pytest.mark.parametrize("name", SECTOR_NAMES)
def test_projections_vanish_off_the_torus_tubes(name):
    alg = _algebra(name)
    P = np.asarray(center_decompose(alg).projections)
    assert not P[:, alg.basis[:, 0] != alg.basis[:, 1]].any()


@pytest.mark.parametrize("name", ["ising", "vec_z4", "vec_s3"])
def test_one_eigh_per_nonempty_sector(monkeypatch, name):
    # never one eigh of the whole R_h: each runs on one nonempty sector
    alg = _algebra(name)
    sizes = np.diff(alg.runs)
    calls = count_calls(monkeypatch, np.linalg, "eigh")
    center_decompose(alg)
    assert [len(args[0]) for args in calls] == sizes[sizes > 0].tolist()


# -- conditional expectation ---------------------------------------------------


def expectation(dec, x):
    """E(x) = sum_i c_i(x) pi_i, the center coordinates read as Markov inner products."""
    return dec.coefficients(x) @ dec.projections


@pytest.mark.parametrize("name", ZOO)
def test_expectation_unital_idempotent(decs, name):
    dec = decs[name]
    alg = dec.alg
    assert np.allclose(expectation(dec, alg.identity),
                       alg.identity, atol=1e-9)
    for pi in dec.projections:
        assert np.allclose(expectation(dec, pi), pi, atol=1e-9)
    rng = np.random.default_rng(23)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    ex = expectation(dec, x)
    exx = expectation(dec, ex)
    assert np.allclose(ex, exx, atol=1e-9)


@pytest.mark.parametrize("name", ZOO)
def test_expectation_lands_in_center(decs, name):
    dec = decs[name]
    alg = dec.alg
    rng = np.random.default_rng(29)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    ex = expectation(dec, x)
    for b in range(alg.dim):
        e = np.eye(alg.dim, dtype=complex)[b]
        comm = alg.product(ex, e) - alg.product(e, ex)
        assert np.max(np.abs(comm)) < 1e-9


@pytest.mark.parametrize("name", ZOO)
def test_expectation_positive(decs, name):
    # E(y* y) expands over the projections with non-negative weights
    dec = decs[name]
    alg = dec.alg
    rng = np.random.default_rng(31)
    for _ in range(5):
        y = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        pos = alg.product(alg.star(y), y)
        ex = expectation(dec, pos)
        for pi, n in zip(dec.projections, dec.n):
            w = alg.inner(ex, pi).real / (n * n)
            assert w > -1e-9
        spec = np.linalg.eigvalsh(alg.left_mult(ex))
        assert spec.min() > -1e-9


def test_expectation_matches_brute_force_on_vec_z2(decs):
    # commutative algebra: E is the identity map
    dec = decs["vec_z2"]
    alg = dec.alg
    rng = np.random.default_rng(37)
    x = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.allclose(expectation(dec, x), x, atol=1e-9)
    b = np.eye(alg.dim, dtype=complex)[rng.integers(alg.dim)]
    hand = sum(
        (alg.reg_trace(alg.product(pi, b)) / (n * n)) * pi
        for pi, n in zip(dec.projections, dec.n)
    )
    assert np.allclose(expectation(dec, b), hand, atol=1e-12)


@pytest.mark.parametrize("name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7"])
def test_expectation_matches_per_block_oracle(decs, name):
    # c_i(x) = <x, pi_i> / <pi_i, pi_i> meets Tr_reg(pi_i x) / n_i^2 per block
    dec = decs[name] if name in decs else center_decompose(build_tube_algebra(dt.zoo(name)))
    alg = dec.alg
    rng = np.random.default_rng(41)
    xs = [rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim),
          alg.identity, dec.projections[-1], np.eye(alg.dim, dtype=complex)[alg.dim - 1]]
    for x in xs:
        got = expectation(dec, x)
        assert np.max(np.abs(got - expectation_oracle(alg, dec, x))) < 1e-13


def test_commutative_center_is_everything(decs):
    for name in ("vec_z2", "vec_z3"):
        dec = decs[name]
        assert dec.r_plus_1 == DIMS[name]


def test_build_rejects_unvalidated_garbage():
    cat = dt.zoo("vec_z2")
    alg = TubeAlgebra(cat)
    assert alg.dim == 4  # sanity: constructor and wrapper agree
    assert build_tube_algebra(cat).dim == 4


def test_center_error_type():
    assert issubclass(CenterError, RuntimeError)


@pytest.mark.parametrize("name", ZOO)
def test_block_count_matches_three_torus(decs, name):
    # the three-torus state sum counts the blocks of the tube algebra
    from doubletop.statesum import builtin_triangulation, state_sum

    z = state_sum(_loop_category(name), builtin_triangulation("t3"))
    assert abs(z - decs[name].r_plus_1) < 1e-8
