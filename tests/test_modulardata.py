"""Half-braidings, S/T matrices, Verlinde fusion, and their oracles."""

import numpy as np
import pytest

import doubletop as dt
from doubletop.catdata import CategoryError
from doubletop.modulardata import (
    STAGES,
    ModularData,
    ModularDataError,
    braiding_st,
    canonical_permutation,
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

ZOO = ["vec_z2", "vec_z3", "fibonacci", "ising"]
PHI = (1 + np.sqrt(5)) / 2


@pytest.fixture(scope="module")
def mds():
    return {name: compute_modular_data(dt.zoo(name)) for name in ZOO}


@pytest.fixture(scope="module")
def pipes(mds):
    return {name: (md.alg, md.dec, md.reps, md.braidings, md.residuals)
            for name, md in mds.items()}


# -- half-braidings ------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_half_braidings_unitary(pipes, name):
    _, _, _, hbs, resid = pipes[name]
    assert resid["solve"] < 1e-9
    assert resid["unitary"] < 1e-9
    for hb in hbs:
        for E in hb.mats.values():
            assert E.shape[0] == E.shape[1]
            assert np.max(np.abs(E @ E.conj().T - np.eye(E.shape[0]))) < 1e-9


def test_vec_z2_half_braidings_are_signs(pipes):
    # the four blocks of the Z/2 double braid by +-1 scalars
    _, _, _, hbs, _ = pipes["vec_z2"]
    seen = set()
    for hb in hbs:
        for E in hb.mats.values():
            assert E.shape == (1, 1)
            val = complex(E[0, 0])
            assert min(abs(val - 1), abs(val + 1)) < 1e-12
            seen.add(int(np.sign(val.real)))
    assert seen == {1, -1}


def test_fibonacci_two_dim_braiding_block(mds):
    md = mds["fibonacci"]
    two = [hb for hb, n in zip(md.braidings, md.block_dims) if n == 2]
    assert len(two) == 1
    assert any(E.shape == (2, 2) for E in two[0].mats.values())


@pytest.mark.parametrize("name", ZOO)
def test_composition_law(pipes, name):
    alg, _, reps, hbs, _ = pipes[name]
    assert half_braiding_multiplicativity(alg.cat, reps, hbs) < 1e-8


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
    assert len(md.reps) == len(md.braidings) == md.r_plus_1
    assert sorted(md.block_dims) == sorted(md.dec.n)
    bare = ModularData(md.S, md.T, md.qdims, md.block_dims, md.lam)
    assert bare.alg is None and bare.reps is None and bare.timings_ms == {}
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


@pytest.mark.parametrize("name", ZOO)
def test_pants_dims_equal_verlinde(pipes, name):
    alg, dec, reps, hbs, _ = pipes[name]
    S = compute_S(alg, dec, reps, hbs)
    Nv, _ = verlinde_fusion(S)
    assert np.array_equal(pants_dims(alg, dec, reps, hbs), Nv)


@pytest.mark.parametrize("name", ZOO)
def test_parts_are_in_the_order_of_S(mds, name):
    # reps and braidings follow S, so S and N need no permutation
    md = mds[name]
    assert [rep.n for rep in md.reps] == md.block_dims
    assert np.array_equal(compute_S(md.alg, md.dec, md.reps, md.braidings), md.S)


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


@pytest.mark.parametrize("name,nmod", [("vec_z2", 2), ("vec_z3", 3)])
def test_matches_group_double(mds, name, nmod):
    So, To, _ = group_double_oracle(nmod)
    assert match_blocks(mds[name].S, mds[name].T, So, To) is not None


def test_match_blocks_rejects_wrong_data():
    Sa, Ta, _ = group_double_oracle(2)
    Sb, Tb, _ = group_double_oracle(3)
    assert match_blocks(Sa, Ta, Sb[:4, :4], Tb[:4]) is None


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_seed_independence(name):
    md1 = compute_modular_data(dt.zoo(name), seed=1)
    md2 = compute_modular_data(dt.zoo(name), seed=20240817)
    assert np.max(np.abs(md1.S - md2.S)) < 1e-9
    assert np.max(np.abs(md1.T - md2.T)) < 1e-9


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("DOUBLETOP_SEED", "31337")
    md1 = compute_modular_data(dt.zoo("vec_z3"))
    monkeypatch.setenv("DOUBLETOP_SEED", "0x1234")
    md2 = compute_modular_data(dt.zoo("vec_z3"))
    assert np.max(np.abs(md1.S - md2.S)) < 1e-9
    assert np.max(np.abs(md1.T - md2.T)) < 1e-9


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
