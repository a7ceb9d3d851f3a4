"""Plumbing graphs, the colored surgery formula, and Kirby moves."""

import json

import numpy as np
import pytest

from doubletop import zoo
from doubletop.catdata import CategoryError
from doubletop.contract import BudgetError
from doubletop.modulardata import braiding_st, compute_modular_data
from doubletop.statesum import builtin_triangulation, state_sum
from doubletop.surgery import (
    BUILTIN_PLUMBINGS,
    PlumbingGraph,
    SurgeryError,
    blow_down,
    blow_up,
    builtin_plumbing,
    chain,
    colored_invariant,
    evaluate,
    lens_chain,
    load_plumbing,
    modular_tau,
    random_plumbing,
    rt_invariant,
    signature,
    surgery_invariant,
)
from oracles import dw_plumbed, dw_plumbing, torus_bundle_count

ZOO = ["vec_z2", "vec_z3", "fibonacci", "ising"]
GOLDEN = (1 + np.sqrt(5)) / 2


@pytest.fixture(scope="module")
def mds():
    return {name: compute_modular_data(zoo(name)) for name in ZOO}


def conj_perm(md):
    return [int(np.argmax(row)) for row in md.C]


def random_forest(rng, max_vertices=5, framing_range=(-3, 3)):
    m = int(rng.integers(1, max_vertices + 1))
    lo, hi = framing_range
    verts = [(v, int(rng.integers(lo, hi + 1))) for v in range(m)]
    edges = [(int(rng.integers(0, v)), v)
             for v in range(1, m) if rng.random() < 0.7]
    return PlumbingGraph(verts, edges)


# ---------------------------------------------------------------------------
# graph plumbing
# ---------------------------------------------------------------------------


def test_chain_shape():
    g = chain([2, 3, 4])
    assert g.m == 3
    assert g.edges == [(0, 1), (1, 2)]
    assert [g.degree(v) for v in g.ids] == [1, 2, 1]
    assert g.components() == 1
    assert g.framing == {0: 2, 1: 3, 2: 4}


def test_components_counted_once_per_graph(mds, monkeypatch):
    calls = []
    count = PlumbingGraph._count_components
    monkeypatch.setattr(PlumbingGraph, "_count_components",
                        lambda g: calls.append(g) or count(g))
    g = PlumbingGraph([(0, 1), (1, 2), (2, 1), (3, 0)], [(0, 1), (1, 2)])
    assert g.components() == 2 and calls == [g]
    evaluate(mds["ising"], g)
    assert calls == [g]


def test_linking_matrix():
    assert (chain([2, -1]).linking_matrix() == [[2, 1], [1, -1]]).all()
    g = PlumbingGraph([(0, 5), (1, 0)], [(0, 1), (0, 1)])
    assert (g.linking_matrix() == [[5, 2], [2, 0]]).all()


def test_components_and_empty():
    g = PlumbingGraph([(0, 1), (1, 2), (2, 3)], [(0, 1)])
    assert g.components() == 2
    empty = PlumbingGraph([], [])
    assert empty.m == 0 and empty.components() == 0


def test_validation_errors():
    with pytest.raises(SurgeryError, match="duplicate"):
        PlumbingGraph([(0, 1), (0, 2)], [])
    with pytest.raises(SurgeryError, match="self-loop"):
        PlumbingGraph([(0, 1)], [(0, 0)])
    with pytest.raises(SurgeryError, match="unknown vertex"):
        PlumbingGraph([(0, 1)], [(0, 1)])
    with pytest.raises(SurgeryError, match="integer"):
        PlumbingGraph([(0, 1.5)], [])


def test_dict_roundtrip(tmp_path):
    g = PlumbingGraph([("a", 2), ("b", -1)], [("a", "b")])
    doc = g.to_dict()
    g2 = PlumbingGraph.from_dict(doc)
    assert (g2.linking_matrix() == g.linking_matrix()).all()
    path = tmp_path / "plumb.json"
    path.write_text(json.dumps(doc))
    g3 = load_plumbing(path)
    assert g3.framing == g.framing and g3.edges == g.edges
    with pytest.raises(SurgeryError, match="malformed"):
        PlumbingGraph.from_dict({"vertices": [{"id": 0}], "edges": []})


def test_builtin_plumbings():
    assert builtin_plumbing("s3").framing == {0: 1}
    assert builtin_plumbing("rp3").framing == {0: 2}
    assert set(BUILTIN_PLUMBINGS) == {
        "s3", "s2xs1", "lens_2_1", "rp3", "lens_3_1", "lens_4_1"}
    with pytest.raises(SurgeryError, match="unknown builtin"):
        builtin_plumbing("poincare")


def test_lens_chain():
    assert [lens_chain(p, 1).framing[0] for p in (2, 3, 4)] == [2, 3, 4]
    assert list(lens_chain(5, 2).framing.values()) == [3, 2]
    assert list(lens_chain(7, 3).framing.values()) == [3, 2, 2]
    with pytest.raises(SurgeryError, match="gcd"):
        lens_chain(4, 2)
    with pytest.raises(SurgeryError, match="gcd"):
        lens_chain(1, 1)
    with pytest.raises(SurgeryError, match="integers"):
        lens_chain(3.0, 1)


def test_lens_chain_determinant():
    # the chain must present H1 of order p
    for p, q in [(5, 2), (7, 3), (7, 2), (11, 4), (9, 2)]:
        B = lens_chain(p, q).linking_matrix()
        assert round(abs(np.linalg.det(B.astype(float)))) == p


def test_signature():
    assert signature(chain([1])) == 1
    assert signature(chain([-1])) == -1
    assert signature(chain([0])) == 0
    assert signature(chain([2, 2])) == 2
    assert signature(chain([2, -2])) == 0
    assert signature(PlumbingGraph([], [])) == 0


def test_random_plumbing_reproducible():
    a = random_plumbing(np.random.default_rng(5))
    b = random_plumbing(np.random.default_rng(5))
    assert a.framing == b.framing and a.edges == b.edges
    for _ in range(20):
        g = random_plumbing(np.random.default_rng(_))
        assert 1 <= g.m <= 5
        assert all(-3 <= f <= 3 for f in g.framing.values())


# ---------------------------------------------------------------------------
# colored invariant
# ---------------------------------------------------------------------------


def test_colored_single_vertex(mds):
    md = mds["fibonacci"]
    g = chain([0])
    for i in range(md.r_plus_1):
        assert colored_invariant(md, g, [i]) == pytest.approx(md.S[i, 0])


def test_colored_hopf_edge(mds):
    # two 0-framed clasped unknots colored (i, j) evaluate to S_ij
    for name in ("vec_z3", "ising"):
        md = mds[name]
        g = PlumbingGraph([(0, 0), (1, 0)], [(0, 1)])
        for i in range(md.r_plus_1):
            for j in range(md.r_plus_1):
                got = colored_invariant(md, g, [i, j])
                assert got == pytest.approx(md.S[i, j], abs=1e-12)


def test_colored_path(mds):
    md = mds["fibonacci"]
    g = chain([0, 0, 0])
    for i, l, j in [(1, 2, 3), (0, 3, 3), (2, 1, 0)]:
        want = md.S[i, l] * md.S[j, l] / md.S[0, l]
        assert colored_invariant(md, g, [i, l, j]) == pytest.approx(want)


def test_colored_two_isolated(mds):
    md = mds["vec_z3"]
    g = PlumbingGraph([(0, 0), (1, 0)], [])
    for i, j in [(0, 0), (1, 2), (4, 7)]:
        want = md.S[i, 0] * md.S[j, 0] / md.S[0, 0]
        assert colored_invariant(md, g, [i, j]) == pytest.approx(want)


def test_framing_shift_covariance(mds):
    # adding a positive twist to vertex v divides the term by t_{i_v}
    rng = np.random.default_rng(11)
    for name in ZOO:
        md = mds[name]
        for _ in range(5):
            g = random_plumbing(rng, max_vertices=4)
            colors = [int(c) for c in rng.integers(0, md.r_plus_1, g.m)]
            v = g.ids[int(rng.integers(0, g.m))]
            bumped = PlumbingGraph(
                [(x, f + (1 if x == v else 0)) for x, f in g.framing.items()],
                g.edges)
            a = colored_invariant(md, g, colors)
            b = colored_invariant(md, bumped, colors)
            i = colors[g.ids.index(v)]
            assert b == pytest.approx(a / md.T[i], abs=1e-12)


def test_color_conjugation(mds):
    # S_{conj(i), j} = conj(S_ij) and t_{conj(i)} = t_i entrywise; in the
    # product the edge bars cancel pairwise, so J is invariant under
    # conjugating every color, and the summed invariant is real
    rng = np.random.default_rng(12)
    for name in ZOO:
        md = mds[name]
        cp = conj_perm(md)
        r1 = md.r_plus_1
        assert np.allclose(np.conj(md.S), md.S[cp, :], atol=1e-12)
        assert np.allclose(md.T[cp], md.T, atol=1e-12)
        for _ in range(5):
            g = random_plumbing(rng, max_vertices=4)
            colors = [int(c) for c in rng.integers(0, r1, g.m)]
            a = colored_invariant(md, g, colors)
            b = colored_invariant(md, g, [cp[c] for c in colors])
            assert a == pytest.approx(b, abs=1e-10)
            assert abs(surgery_invariant(md, g).imag) < 1e-10


def test_coloring_forms(mds):
    md = mds["vec_z2"]
    g = chain([2, 2])
    by_list = colored_invariant(md, g, [1, 2])
    by_dict = colored_invariant(md, g, {0: 1, 1: 2})
    assert by_list == by_dict
    with pytest.raises(SurgeryError, match="misses vertex"):
        colored_invariant(md, g, {0: 1})
    with pytest.raises(SurgeryError, match="entries for"):
        colored_invariant(md, g, [1])


# ---------------------------------------------------------------------------
# invariants: hand values and cross-checks
# ---------------------------------------------------------------------------


def test_hand_values_vec_z2(mds):
    md = mds["vec_z2"]
    for framings, want in [([1], 0.5), ([0], 1.0), ([2], 1.0), ([3], 0.5),
                           ([4], 1.0), ([2, 2], 0.5)]:
        z = surgery_invariant(md, chain(framings))
        assert z == pytest.approx(want, abs=1e-12), framings


def test_hand_values_vec_z3(mds):
    md = mds["vec_z3"]
    for framings, want in [([1], 1 / 3), ([0], 1.0), ([2], 1 / 3),
                           ([3], 1.0), ([2, 2], 1.0)]:
        z = surgery_invariant(md, chain(framings))
        assert z == pytest.approx(want, abs=1e-12), framings


def test_hand_values_fibonacci_ising(mds):
    assert surgery_invariant(mds["fibonacci"], chain([1])) == pytest.approx(
        1 / (2 + GOLDEN), abs=1e-12)
    assert surgery_invariant(mds["fibonacci"], chain([0])) == pytest.approx(1.0)
    assert surgery_invariant(mds["ising"], chain([1])) == pytest.approx(0.25)
    assert surgery_invariant(mds["ising"], chain([0])) == pytest.approx(1.0)


def test_empty_graph(mds):
    md = mds["vec_z2"]
    empty = PlumbingGraph([], [])
    assert surgery_invariant(md, empty) == pytest.approx(md.S[0, 0])
    with pytest.raises(SurgeryError, match="empty plumbing"):
        rt_invariant(md, empty)


def test_rt_equals_surgery_random(mds):
    rng = np.random.default_rng(2024)
    for name in ZOO:
        md = mds[name]
        for _ in range(25):
            g = random_plumbing(rng)
            tau = rt_invariant(md, g)
            z = surgery_invariant(md, g)
            assert abs(tau - z) < 1e-8


def test_gauss_sums_collapse(mds):
    for name in ZOO:
        md = mds[name]
        lam = 1 / md.S[0, 0]
        assert md.gauss_plus == pytest.approx(lam, abs=1e-8)
        assert md.gauss_minus == pytest.approx(lam, abs=1e-8)


def test_dw_cross_check_bundled(mds):
    for name, nmod in [("vec_z2", 2), ("vec_z3", 3)]:
        md = mds[name]
        for builtin in BUILTIN_PLUMBINGS:
            g = builtin_plumbing(builtin)
            want = float(dw_plumbing(g, nmod))
            assert surgery_invariant(md, g) == pytest.approx(
                want, abs=1e-10), (name, builtin)
        for p, q in [(5, 2), (7, 3), (9, 2), (12, 5)]:
            g = lens_chain(p, q)
            want = float(dw_plumbing(g, nmod))
            assert surgery_invariant(md, g) == pytest.approx(
                want, abs=1e-10), (name, p, q)


def test_dw_cross_check_random_forests(mds):
    rng = np.random.default_rng(77)
    for name, nmod in [("vec_z2", 2), ("vec_z3", 3)]:
        md = mds[name]
        for _ in range(20):
            g = random_forest(rng)
            want = float(dw_plumbing(g, nmod))
            assert surgery_invariant(md, g) == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("name,nmod", [("vec_z2", 2), ("vec_z3", 3),
                                       ("vec_z5", 5)])
def test_dw_cross_check_random_plumbings(mds, name, nmod):
    # cycles and parallel clasps included: the value is that of the
    # plumbed manifold M(g), whose H1 is coker B plus Z^b1
    md = mds[name] if name in mds else compute_modular_data(zoo(name))
    rng = np.random.default_rng(78)
    cyclic = 0
    for _ in range(40):
        g = random_plumbing(rng)
        cyclic += len(g.edges) > g.m - 1
        want = float(dw_plumbed(g, nmod))
        assert surgery_invariant(md, g) == pytest.approx(want, abs=1e-9)
    assert cyclic >= 10


def test_three_cycle_is_t3(mds):
    # the torus bundle of prod [[-1, 1], [-1, 0]]^3 = 1 is T^3
    g = PlumbingGraph([(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 2), (0, 2)])
    for name in ZOO:
        want = state_sum(zoo(name), builtin_triangulation("t3"))
        assert abs(want - mds[name].r_plus_1) < 1e-9
        assert surgery_invariant(mds[name], g) == pytest.approx(want,
                                                                abs=1e-9)


@pytest.mark.parametrize("nmod", [2, 3, 4, 5])
def test_cycles_are_torus_bundles(mds, nmod):
    # a k-cycle plumbs the torus bundle with monodromy prod [[-e, 1], [-1, 0]]
    name = "vec_z%d" % nmod
    md = mds[name] if name in mds else compute_modular_data(zoo(name))
    rng = np.random.default_rng(79)
    for k in range(2, 6):
        for _ in range(6):
            framings = [int(f) for f in rng.integers(-3, 4, size=k)]
            g = PlumbingGraph(list(enumerate(framings)),
                              [(i, (i + 1) % k) for i in range(k)])
            want = torus_bundle_count(framings, nmod)
            assert surgery_invariant(md, g) == pytest.approx(want, abs=1e-9), \
                framings


def test_budget_exceeded(mds):
    md = mds["vec_z3"]
    # each step of a chain sums over two neighbouring vertices: 9^2 = 81
    with pytest.raises(BudgetError, match="budget exceeded"):
        surgery_invariant(md, chain([2, 2]), budget=3)
    with pytest.raises(BudgetError, match="budget exceeded"):
        rt_invariant(md, chain([2, 2, 2]), budget=10)


def test_budget_bounds_the_step_not_the_colorings(mds):
    # 9^8 = 43 046 721 colorings, but no step sums over more than 81 labels
    g = chain([2] * 8)
    assert surgery_invariant(mds["vec_z3"], g) == pytest.approx(
        float(dw_plumbing(g, 3)), abs=1e-10)


def test_surgery_reaches_many_vertices():
    # 60 clasped unknots: more indices than one einsum has subscript letters
    md = compute_modular_data(zoo("vec_z1"))
    assert surgery_invariant(md, chain([2] * 60)) == 1


def test_evaluate_fields(mds):
    md = mds["fibonacci"]
    g = chain([2, -3, 0])
    res = evaluate(md, g)
    assert abs(res.Z - res.tau) < 1e-8
    assert res.sigma == signature(g)
    assert res.m == 3
    assert res.largest_step == md.r_plus_1 ** 2
    assert res.Z == pytest.approx(surgery_invariant(md, g))


# ---------------------------------------------------------------------------
# tau from an external modular pair
# ---------------------------------------------------------------------------


def test_modular_tau_ising_norm_squared(mds):
    # |tau(single braided layer)|^2 reproduces the doubled theory
    cat = zoo("ising")
    S, theta = braiding_st(cat)
    md = mds["ising"]
    assert abs(modular_tau(S, theta, chain([1]))) ** 2 == pytest.approx(0.25)
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_plumbing(rng)
        tau = modular_tau(S, theta, g)
        z = surgery_invariant(md, g)
        assert abs(tau) ** 2 == pytest.approx(z, abs=1e-8)


def test_modular_tau_fibonacci_norm_squared(mds):
    cat = zoo("fibonacci")
    S, theta = braiding_st(cat)
    md = mds["fibonacci"]
    rng = np.random.default_rng(32)
    for _ in range(5):
        g = random_plumbing(rng)
        assert abs(modular_tau(S, theta, g)) ** 2 == pytest.approx(
            surgery_invariant(md, g), abs=1e-8)


def test_modular_tau_errors(mds):
    g = chain([2])
    with pytest.raises(SurgeryError, match="not unitary"):
        modular_tau(np.ones((3, 3)), np.ones(3), g)
    with pytest.raises(SurgeryError, match="shapes do not match"):
        modular_tau(np.eye(3), np.ones(2), g)
    with pytest.raises(SurgeryError, match="not unimodular"):
        modular_tau(np.eye(2), [1.0, 0.5], g)
    with pytest.raises(CategoryError, match="no R-symbols"):
        braiding_st(zoo("vec_z2"))


# ---------------------------------------------------------------------------
# Kirby moves
# ---------------------------------------------------------------------------


def test_blow_up_examples():
    g = blow_up(chain([2]), ("vertex", 0, 1))
    assert g.framing == {0: 3, 1: 1} and g.edges == [(0, 1)]
    g = blow_up(chain([2]), ("vertex", 0, -1))
    assert g.framing == {0: 1, 1: -1} and g.edges == [(0, 1)]
    g = blow_up(chain([2]), ("isolated", -1))
    assert g.framing == {0: 2, 1: -1} and g.edges == []
    g = blow_up(chain([2, 2]), ("edge", 0, 1, -1))
    assert g.framing == {0: 1, 1: 1, 2: -1}
    assert sorted(g.edges) == [(0, 2), (1, 2)]


def test_blow_down_examples():
    assert blow_down(chain([3, 1]), 1).framing == {0: 2}
    assert blow_down(chain([3, -1]), 1).framing == {0: 4}
    g = blow_down(chain([2, -1, 2]), 1)
    assert g.framing == {0: 3, 2: 3} and g.edges == [(0, 2)]
    g = PlumbingGraph([(0, 2), (1, 1)], [])
    assert blow_down(g, 1).framing == {0: 2}


def test_blow_roundtrip_restores_matrix():
    g = chain([2, -3, 0])
    for site in [("isolated", 1), ("isolated", -1), ("vertex", 1, 1),
                 ("vertex", 2, -1), ("edge", 0, 1, -1)]:
        g2 = blow_up(g, site)
        g3 = blow_down(g2, 3)
        assert (g3.linking_matrix() == g.linking_matrix()).all(), site


def test_blow_up_string_ids():
    g = PlumbingGraph([("a", 2), ("b", 0)], [("a", "b")])
    g2 = blow_up(g, ("vertex", "a", 1))
    assert 0 in g2.framing and g2.framing[0] == 1
    g3 = blow_down(g2, 0)
    assert (g3.linking_matrix() == g.linking_matrix()).all()


def test_blow_invariance_random(mds):
    # 20 random blow-up/blow-down pairs per category leave Z fixed
    rng = np.random.default_rng(99)
    for name in ZOO:
        md = mds[name]
        for _ in range(20):
            g = random_plumbing(rng, max_vertices=4)
            sites = [("isolated", 1), ("isolated", -1)]
            sites += [("vertex", v, e) for v in g.ids for e in (1, -1)]
            sites += [("edge", u, v, -1) for (u, v) in set(g.edges)]
            site = sites[int(rng.integers(0, len(sites)))]
            z0 = surgery_invariant(md, g)
            g2 = blow_up(g, site)
            assert abs(surgery_invariant(md, g2) - z0) < 1e-9, (name, site)
            g3 = blow_down(g2, max(v for v in g2.ids if isinstance(v, int)))
            assert abs(surgery_invariant(md, g3) - z0) < 1e-9, (name, site)


def test_blow_ineligible_sites():
    with pytest.raises(SurgeryError, match="must carry framing -1"):
        blow_up(chain([2, 2]), ("edge", 0, 1, 1))
    with pytest.raises(SurgeryError, match="no edge between"):
        blow_up(PlumbingGraph([(0, 1), (1, 1)], []), ("edge", 0, 1, -1))
    with pytest.raises(SurgeryError, match="not \\+-1"):
        blow_up(chain([2]), ("isolated", 2))
    with pytest.raises(SurgeryError, match="ineligible site"):
        blow_up(chain([2]), ("corner", 0, 1))
    with pytest.raises(SurgeryError, match="not \\+-1"):
        blow_down(chain([3, 0]), 1)
    with pytest.raises(SurgeryError, match="no vertex"):
        blow_down(chain([3]), 7)
    three_valent = PlumbingGraph(
        [(0, 1), (1, -1), (2, 1), (3, 1)], [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(SurgeryError, match="clasp pattern"):
        blow_down(three_valent, 1)
    doubled = PlumbingGraph([(0, 1), (1, -1)], [(0, 1), (0, 1)])
    with pytest.raises(SurgeryError, match="clasp pattern"):
        blow_down(doubled, 1)
    plus_rider = chain([1, 1, 1])
    with pytest.raises(SurgeryError, match="two-valent blow-down"):
        blow_down(plus_rider, 1)
