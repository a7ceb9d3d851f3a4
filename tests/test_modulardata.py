"""S/T matrices, half-braidings, Verlinde fusion, and their oracles."""

import copy
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import doubletop as dt
from doubletop import modulardata
from doubletop.catdata import CategoryError, _category_from_dict
from doubletop.modulardata import (
    STAGES,
    BlockRep,
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
    extract_half_braidings_per_block,
    gauge_transform, hopf_link_S, multiplicity_ring, twisted_double_twists,
    twisted_vec_zn, vec_s3_document,
)

ZOO = ["vec_z2", "vec_z3", "fibonacci", "ising"]
PHI = (1 + np.sqrt(5)) / 2


@pytest.fixture(scope="module")
def mds():
    return {name: compute_modular_data(dt.zoo(name)) for name in ZOO + ["vec_z4"]}


@pytest.fixture(scope="module")
def vec_s3_md():
    return compute_modular_data(_category_from_dict(vec_s3_document()))


def half_braidings(md):
    """Block irreps, half-braidings and the solve's residuals of md's blocks,
    in the order of md.S: the pipeline no longer builds them."""
    reps = modulardata.block_irreps(md.alg, md.dec)
    return (reps, *modulardata.extract_half_braidings(md.alg, md.dec, reps))


@pytest.fixture(scope="module")
def pipes(mds):
    return {name: (md.alg, md.dec, *half_braidings(md)) for name, md in mds.items()}


def squares(cat, rep, E):
    """Admissible square of E[sigma, delta] for every (sigma, delta) with
    rows or columns, and the mask of all admissible entries of E."""
    mask = np.zeros(E.shape, dtype=bool)
    out = []
    for sigma, delta in np.ndindex(cat.n, cat.n):
        rows = [(p, a) for p, xi in enumerate(rep.labels)
                for a in range(cat.N[sigma, xi, delta])]
        cols = [(q, b) for q, eta in enumerate(rep.labels)
                for b in range(cat.N[eta, sigma, delta])]
        if rows or cols:
            assert len(rows) == len(cols)
            out.append(np.array([[E[sigma, delta, p, a, q, b] for q, b in cols]
                                 for p, a in rows]))
            for (p, a), (q, b) in itertools.product(rows, cols):
                mask[sigma, delta, p, a, q, b] = True
    return out, mask


# -- block irreps --------------------------------------------------------------


def irrep_characters(alg, reps):
    """Tr rho_i(e_k) for every block i and basis tube k; L_{e_k} is C[k].T."""
    return np.array([np.einsum("ja,kij,ia->k", rep.V.conj(), alg.C, rep.V)
                     for rep in reps])


def _md(mds, vec_s3_md, name):
    if name == "vec_s3":
        return vec_s3_md
    return mds[name] if name in mds else compute_modular_data(dt.zoo(name))


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"])
def test_irreps_match_minimal_projection_oracle(mds, vec_s3_md, name):
    md = _md(mds, vec_s3_md, name)
    got = modulardata.block_irreps(md.alg, md.dec)
    want = block_irreps_oracle(md.alg, md.dec)
    assert [rep.comps for rep in got] == [rep.comps for rep in want]
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


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_s3"])
def test_half_braidings_equal_loop(mds, vec_s3_md, name):
    # the equations gathered once per algebra give the same A and y, so
    # lstsq returns the same bits as the per-entry loop
    md = _md(mds, vec_s3_md, name)
    reps, E, resid0 = half_braidings(md)
    loop, resid = extract_half_braidings(md.alg, md.dec, reps)
    assert len(loop) == len(E)
    assert all(np.array_equal(a, b) for a, b in zip(loop, E))
    assert resid == resid0


@pytest.mark.parametrize(
    "name", ZOO + ["vec_z4", "vec_z5", "vec_z6", "vec_z7", "vec_z8", "vec_s3"])
def test_grouped_routes_equal_per_block_oracles(mds, vec_s3_md, name):
    # one stacked grading per block and one solve per (label set, strand)
    # hand LAPACK the same products and systems as the block-by-block routes
    md = _md(mds, vec_s3_md, name)
    got = modulardata.block_irreps(md.alg, md.dec)
    want = block_irreps_per_simple(md.alg, md.dec)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.V, b.V)
        assert a.comps == b.comps and a.m == b.m
    E, resid = modulardata.extract_half_braidings(md.alg, md.dec, got)
    E0, resid0 = extract_half_braidings_per_block(md.alg, md.dec, want)
    assert len(E) == len(E0)
    assert all(np.array_equal(a, b) for a, b in zip(E, E0))
    assert resid == resid0
    assert np.array_equal(block_twists(md.alg, got), block_twists(md.alg, want))


def _label_groups(reps):
    groups = {}
    for i, rep in enumerate(reps):
        groups.setdefault(tuple(rep.labels.tolist()), []).append(i)
    return list(groups.values())


def _raises(alg, reps):
    """The messages of the grouped solve and of the per-block oracle."""
    msgs = []
    for solve in (modulardata.extract_half_braidings, extract_half_braidings_per_block):
        with pytest.raises(ModularDataError) as err:
            solve(alg, None, reps)
        msgs.append(str(err.value))
    return msgs


@pytest.mark.parametrize("name, tamper, kind", [
    # vec_z4: every fit is one equation in one unknown, so a random V fits
    # and fails unitarity; its group of four holds the other blocks
    ("vec_z4", {(0, 1): "random"}, "unitary"),
    ("vec_z4", {(1, 1): "random", (0, 2): "random"}, "unitary"),
    # Vec(S3): label groups [0, 1], [2, 4, 5], [3], [6, 7].  A V stretched
    # by 1.5 fits and fails unitarity; one stretched by 1e6 lifts the
    # fit's rounding error past the gate, here on blocks 4 and 7
    ("vec_s3", {(1, 1): "huge"}, "solve"),
    ("vec_s3", {(1, 0): "stretch", (1, 1): "huge"}, "unitary"),
    ("vec_s3", {(3, 1): "huge", (1, 1): "huge"}, "solve"),
    ("vec_s3", {(3, 1): "huge", (1, 0): "stretch"}, "unitary"),
    # ising, label groups [0, 1], [2, 3], [4, 5, 6, 7], [8]: block 4 stretched
    # by 1e6 still fits within 1e-6 when each fit is one matrix-vector
    # product, as in the per-block route, but not as one matrix product
    ("ising", {(2, 0): "huge"}, "unitary"),
])
def test_grouped_solve_raises_first_failure(mds, vec_s3_md, name, tamper, kind):
    # the first failure in block order, a block's fits before its
    # unitarity, whichever group it falls in; the message names the block
    md = _md(mds, vec_s3_md, name)
    reps = half_braidings(md)[0]
    groups = _label_groups(reps)  # in order of their first block
    rng = np.random.default_rng(11)
    for (g, j), how in tamper.items():
        rep = reps[groups[g][j]]
        assert len(groups[g]) >= 2
        if how == "random":
            V = rng.normal(size=rep.V.shape) + 1j * rng.normal(size=rep.V.shape)
            rep.V = V / np.linalg.norm(V, axis=0)
        else:
            rep.V = {"stretch": 1.5, "huge": 1e6}[how] * rep.V
    got, want = _raises(md.alg, reps)
    assert got == want
    blame = min(groups[g][j] for g, j in tamper)
    word = "solve for block %d," if kind == "solve" else "half-braiding (%d, strand"
    assert (word % blame) in got


@pytest.mark.parametrize("block", range(9))
def test_grouped_solve_residuals_equal_per_block_oracle(mds, block):
    # a V nudged by 1e-9 moves the fit's rounding; the residual dict must
    # still equal the per-block route's, bit for bit
    md = mds["ising"]
    reps = half_braidings(md)[0]
    reps[block].V = (1 + 1e-9) * reps[block].V
    E, resid = modulardata.extract_half_braidings(md.alg, None, reps)
    E0, resid0 = extract_half_braidings_per_block(md.alg, None, reps)
    assert all(np.array_equal(a, b) for a, b in zip(E, E0, strict=True))
    assert resid == resid0


def test_grouped_solve_raises_first_layout_failure(vec_s3_md):
    # a block graded by the one simple 1 alone: strands 0 and 1 solve (its
    # V, the vacuum's, sees no tube on simple 1), strand 2 is not square
    md = vec_s3_md
    ok = half_braidings(md)[0]
    fake = BlockRep(ok[0].V, [(1, 0)], {1: 1})
    reps = [BlockRep(rep.V, rep.comps, rep.m) for rep in ok]
    reps[-1] = fake
    got, want = _raises(md.alg, reps)
    assert got == want
    assert got.startswith("half-braiding block (2,") and "is not square" in got
    # a failure in an earlier block comes first
    reps[-2].V = 1.5 * reps[-2].V
    got, want = _raises(md.alg, reps)
    assert got == want
    assert got.startswith("half-braiding (%d, strand" % (len(reps) - 2))
    # and the layout failure of block 1, the first of its group of two,
    # before the failing fit of block 4
    reps = [BlockRep(rep.V, rep.comps, rep.m) for rep in ok]
    reps[1], reps[5], reps[4].V = fake, fake, 1e6 * reps[4].V
    got, want = _raises(md.alg, reps)
    assert got == want
    assert "is not square" in got


def test_one_solve_per_label_set_and_strand(monkeypatch):
    # vec_z7: 49 blocks of one component each, on 7 label sets, 7 strands
    md = compute_modular_data(dt.zoo("vec_z7"))
    reps = modulardata.block_irreps(md.alg, md.dec)
    calls = count_calls(monkeypatch, np.linalg, "lstsq")
    modulardata.extract_half_braidings(md.alg, md.dec, reps)
    assert len(calls) == 7 * 7
    extract_half_braidings_per_block(md.alg, md.dec, reps)
    assert len(calls) == 7 * 7 + 49 * 7


def test_half_braiding_equations_match_loop_with_multiplicity(monkeypatch):
    # no category with N > 1 runs through the pipeline; with the fit and
    # unitarity gates open, random representations on x (x) x = 1 + 2x fill
    # every multiplicity axis of the equations, and both assemblies must
    # hand lstsq the same systems
    cat = multiplicity_ring()
    basis, index = _basis(cat)
    alg = SimpleNamespace(cat=cat, basis=basis, dim=len(basis), scale=np.ones(len(basis)),
                          C=_structure(cat, basis, index))
    rng = np.random.default_rng(5)
    reps = []
    for comps, m in (([(0, 0), (1, 0)], {0: 1, 1: 1}), ([(1, 0), (1, 1)], {1: 2})):
        V = rng.normal(size=(alg.dim, len(comps))) + 1j * rng.normal(size=(alg.dim, len(comps)))
        reps.append(BlockRep(V, comps, m))
    monkeypatch.setattr(modulardata, "_EXTRACT_TOL", np.inf)
    got = modulardata.extract_half_braidings(alg, None, reps)[0]
    want = extract_half_braidings(alg, None, reps)[0]
    assert max(np.max(np.abs(E)) for E in want) > 0.1
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("name", ZOO)
def test_half_braidings_unitary(pipes, name):
    alg, _, reps, hbs, resid = pipes[name]
    assert resid["solve"] < 1e-9
    assert resid["unitary"] < 1e-9
    for rep, E in zip(reps, hbs):
        sq, mask = squares(alg.cat, rep, E)
        assert not E[~mask].any()
        for M in sq:
            assert M.shape[0] == M.shape[1]
            assert np.max(np.abs(M @ M.conj().T - np.eye(M.shape[0]))) < 1e-9


def test_vec_z2_half_braidings_are_signs(pipes):
    # the four blocks of the Z/2 double braid by +-1 scalars
    alg, _, reps, hbs, _ = pipes["vec_z2"]
    seen = set()
    for rep, E in zip(reps, hbs):
        for M in squares(alg.cat, rep, E)[0]:
            assert M.shape == (1, 1)
            val = complex(M[0, 0])
            assert min(abs(val - 1), abs(val + 1)) < 1e-12
            seen.add(int(np.sign(val.real)))
    assert seen == {1, -1}


def test_fibonacci_two_dim_braiding_block(mds, pipes):
    alg, _, reps, hbs, _ = pipes["fibonacci"]
    two = [(rep, E) for rep, E, n in zip(reps, hbs, mds["fibonacci"].block_dims)
           if n == 2]
    assert len(two) == 1
    assert any(M.shape == (2, 2) for M in squares(alg.cat, *two[0])[0])


@pytest.mark.parametrize("name", ZOO)
def test_composition_law(pipes, name):
    alg, _, reps, hbs, _ = pipes[name]
    assert half_braiding_multiplicativity(alg.cat, reps, hbs) < 1e-8


@pytest.mark.parametrize("name", ["vec_z3", "fibonacci", "ising"])
def test_composition_law_detects_a_sign_flip(pipes, name):
    # flip one (strand, charge) slice of the last block's E; not on vec_z2,
    # where flipping strand 1 of a block gives the other character of Z/2
    alg, _, reps, hbs, _ = pipes[name]
    E = hbs[-1].copy()
    sigma = alg.cat.n - 1
    delta = next(d for d in range(alg.cat.n) if E[sigma, d].any())
    E[sigma, delta] *= -1
    assert half_braiding_multiplicativity(alg.cat, reps, hbs[:-1] + [E]) > 1e-3


def _law_pipes(mds, vec_s3_md, name):
    md = vec_s3_md if name == "vec_s3" else mds[name]
    return (md.alg.cat, *half_braidings(md)[:2])


@pytest.mark.parametrize("name", ZOO + ["vec_z4", "vec_s3"])
def test_composition_law_matches_dense_oracle(mds, vec_s3_md, name):
    cat, reps, hbs = _law_pipes(mds, vec_s3_md, name)
    got = half_braiding_multiplicativity(cat, reps, hbs)
    assert abs(got - composition_law_residual(cat, reps, hbs)) < 1e-14


def test_composition_law_matches_dense_oracle_with_multiplicity():
    # no category with N > 1 runs through the pipeline; both sides of the
    # law are defined for any E, so random E on x (x) x = 1 + 2x fill every
    # multiplicity axis of the contraction
    cat = multiplicity_ring()
    rng = np.random.default_rng(5)
    N, msize = cat.N, cat.F.shape[-1]
    reps, hbs = [], []
    for comps in ([(0, 0), (1, 0)], [(1, 0), (1, 1)], [(1, 0)]):
        rep = BlockRep(np.zeros((1, len(comps))), comps, {})
        lab = rep.labels
        # admissible slots: a < N[sigma, xi_p, delta], b < N[eta_q, sigma, delta]
        rows = np.arange(msize) < N[:, lab].transpose(0, 2, 1)[..., None]
        cols = np.arange(msize) < N[lab].transpose(1, 2, 0)[..., None]
        mask = rows[:, :, :, :, None, None] & cols[:, :, None, None]
        E = rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape)
        reps.append(rep)
        hbs.append(np.where(mask, E, 0))
    want = composition_law_residual(cat, reps, hbs)
    assert want > 1.0
    assert abs(half_braiding_multiplicativity(cat, reps, hbs) - want) < 1e-12 * want


@pytest.mark.parametrize("name", ["ising", "vec_s3"])
def test_composition_law_matches_dense_oracle_on_broken_blocks(
        mds, vec_s3_md, name):
    # on the last strand of every block (psi for ising, a transposition for
    # S3; no character of the fusion ring is -1 on that strand alone, so no
    # sign flip there gives another half-braiding): (a) negate one admissible
    # entry, (b) zero one (strand, charge) slice, so that each side of the
    # law vanishes at entries where the other does not
    cat, reps, hbs = _law_pipes(mds, vec_s3_md, name)
    sigma = cat.n - 1
    for bi, rep in enumerate(reps):
        mask = squares(cat, rep, hbs[bi])[1]
        entry = tuple(np.argwhere(mask[sigma] & (np.abs(hbs[bi][sigma]) > 0.1))[0])
        negated, zeroed = hbs[bi].copy(), hbs[bi].copy()
        negated[(sigma,) + entry] *= -1
        zeroed[sigma, entry[0]] = 0
        for E in (negated, zeroed):
            broken = hbs[:bi] + [E] + hbs[bi + 1:]
            got = half_braiding_multiplicativity(cat, reps, broken)
            assert got > 1e-3
            assert abs(got - composition_law_residual(cat, reps, broken)) < 1e-12


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


@pytest.mark.parametrize("name", ZOO + ["vec_z4"])
def test_pants_dims_equal_verlinde(pipes, name):
    alg, dec, reps, hbs, _ = pipes[name]
    Nv, _ = verlinde_fusion(hopf_link_S(alg.cat, reps, hbs, alg.lam))
    assert np.array_equal(pants_dims(alg, dec, reps, hbs), Nv)


def test_pants_dims_names_a_trace_off_the_integers(pipes):
    # one block's half-braiding stretched by 1.5 stretches the traces of its
    # products: N_02^2 = 1 reads 1.5
    alg, dec, reps, hbs, _ = pipes["ising"]
    with pytest.raises(ModularDataError,
                       match=r"pants trace for \(0,2,2\) is 5\.000e-01 from an integer"):
        pants_dims(alg, dec, reps, hbs[:2] + [1.5 * hbs[2]] + hbs[3:])
    # a nan trace fails the gate too
    with pytest.raises(ModularDataError, match=r"pants trace for \(0,2,0\) is nan"):
        pants_dims(alg, dec, reps, hbs[:2] + [np.nan * hbs[2]] + hbs[3:])


def _references(md, cat):
    """S and T by the half-braiding route, built from md.alg and md.dec,
    which follow md.S: the termwise Hopf trace, the twist on each irrep and
    the twist read off the E-diagonal."""
    reps, E, _ = half_braidings(md)
    return (hopf_link_S(cat, reps, E, md.alg.lam), block_twists(md.alg, reps),
            braiding_twists(cat, reps, E))


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
    # the torus tube X(0, 0, 1, 1, 0, 0) moved off the torus leaves the
    # system of S one equation short
    real = modulardata.build_tube_algebra

    def build(cat):
        alg = real(cat)
        alg.basis = alg.basis.copy()
        alg.basis[alg.index[0, 0, 1, 1, 0, 0], 1] = 1
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
    reps, E, _ = half_braidings(md)
    assert half_braiding_multiplicativity(md.alg.cat, reps, E) < 1e-12
    assert np.array_equal(pants_dims(md.alg, md.dec, reps, E), md.N)


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
@pytest.mark.parametrize("name", ["ising", "vec_z4", "vec_z3", "fibonacci"])
def test_gauge_transform_keeps_invariants(name, seed):
    # complex F in a random vertex gauge: the composition law must hold, S
    # and T must agree with the half-braiding route, and the modular data
    # and state sums must not move
    cat = dt.zoo(name)
    gauged = gauge_transform(cat, np.random.default_rng(seed))
    assert not np.allclose(gauged.F, cat.F)
    want, got = compute_modular_data(cat), compute_modular_data(gauged)
    reps, E, _ = half_braidings(got)
    law = composition_law_residual(gauged, reps, E)
    assert abs(half_braiding_multiplicativity(gauged, reps, E) - law) < 1e-14
    loop = extract_half_braidings(got.alg, got.dec, reps)[0]
    for a, b in zip(loop, E):
        assert np.max(np.abs(a - b)) < 1e-14
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
