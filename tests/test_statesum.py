import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from doubletop.catdata import global_dim, zoo
from doubletop.modulardata import compute_modular_data
from doubletop.statesum import (
    BUILTIN_TRIANGULATIONS, BudgetError, Triangulation, TriangulationError,
    boundary_4_simplex, builtin_triangulation, cyclic_group_table,
    doubled_tetrahedron, dw_oracle, lens_triangulation, load_triangulation,
    s2xs1_twotet, s3_twotet, state_sum, t3_sixtet, _triangulation_from_dict,
)
from doubletop.surgery import lens_chain, surgery_invariant
from oracles import (all_pairings, brute_state_sum, closed_pairings, dw_brute,
                     expected_flat_fraction, first_homology, random_f_ring,
                     tet_components, tet_weight, triangulation_classes,
                     vertex_link_euler)

BUILTINS = ["s3_boundary4simplex", "s3_twotet", "rp3_lens", "rp3_antipodal",
            "lens_3_1", "lens_4_1", "s2xs1", "t3_sixtet"]


# -- complex combinatorics ----------------------------------------------------

def test_counts():
    tri = boundary_4_simplex()
    assert (tri.n_vertices, tri.n_edges, tri.n_faces, tri.n_tets) == (5, 10, 10, 5)
    tri = s3_twotet()
    assert (tri.n_vertices, tri.n_edges) == (1, 3)
    tri = s2xs1_twotet()
    assert (tri.n_vertices, tri.n_edges) == (1, 3)
    tri = t3_sixtet()
    assert (tri.n_vertices, tri.n_edges, tri.n_faces, tri.n_tets) == (1, 7, 12, 6)
    tri = lens_triangulation(2, 1)
    assert (tri.n_vertices, tri.n_edges) == (2, 4)


# (free rank, invariant factors > 1) of H1 = pi1 abelianized, per builtin
PI1_TAGS = {"s3_boundary4simplex": (0, []), "s3_twotet": (0, []), "rp3_lens": (0, [2]),
            "rp3_antipodal": (0, [2]), "lens_3_1": (0, [3]), "lens_4_1": (0, [4]),
            "s2xs1": (1, []), "t3_sixtet": (3, [])}


@pytest.mark.parametrize("name", BUILTINS)
def test_homology_matches_pi1_tag(name):
    assert first_homology(builtin_triangulation(name)) == PI1_TAGS[name]


def test_pi1_key_is_ignored():
    # a document's pi1 is no input: a wrong or malformed one loads and is dropped
    doc = doubled_tetrahedron().to_dict()
    for pi1 in ({"free_rank": 0, "torsion": [7]}, "junk"):
        tri = _triangulation_from_dict({**doc, "pi1": pi1})
        assert tri.to_dict() == doc and not hasattr(tri, "pi1")
        assert dw_oracle(cyclic_group_table(7), tri) == Fraction(1, 7)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("nmod", [2, 3])
def test_dw_oracle_matches_homology(name, nmod):
    tri = builtin_triangulation(name)
    got = dw_oracle(cyclic_group_table(nmod), tri)
    assert got == expected_flat_fraction(tri, nmod)


def test_dw_oracle_z4_lens():
    tri = builtin_triangulation("lens_4_1")
    assert dw_oracle(cyclic_group_table(4), tri) == 1


@pytest.mark.parametrize("p, q, nmod", [(13, 5, 3), (21, 8, 3), (40, 13, 3),
                                        (13, 5, 5)])
def test_dw_oracle_contracts_past_enumeration(p, q, nmod):
    # nmod^E is 3^15 to 3^42 colorings, each beyond the default budget
    tri = lens_triangulation(p, q)
    assert nmod ** tri.n_edges > 5_000_000
    got = dw_oracle(cyclic_group_table(nmod), tri)
    assert got == Fraction(math.gcd(p, nmod), nmod)
    assert type(got.numerator) is int


def _s3_table():
    perms = sorted(itertools.permutations(range(3)))  # the identity first
    index = {g: k for k, g in enumerate(perms)}
    return [[index[tuple(g[i] for i in h)] for h in perms] for g in perms]


def test_dw_oracle_nonabelian_matches_brute():
    table = _s3_table()
    assert table != [list(col) for col in zip(*table)]  # S3 is not abelian
    compared = {}
    for name in sorted(BUILTIN_TRIANGULATIONS):
        tri = builtin_triangulation(name)
        if 6 ** tri.n_edges <= 5_000_000:
            compared[name] = dw_oracle(table, tri)
            assert compared[name] == dw_brute(table, tri), name
    # commuting triples of S3: |Hom(Z^3, S3)| / 6 = 8
    assert compared["t3"] == 8 and len(compared) == 10


_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
          [4, 3, 1, 2, 0]]  # a Latin square with identity 0, not associative


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1, 5]], "entry outside 0..1"),
    ([[0, 1], [1, -1]], "entry outside 0..1"),
    ([[0, 1], [1, 1]], "row or column is not a permutation"),
    ([[0, 1], [0, 1]], "row or column is not a permutation"),
    ([[1, 0], [0, 1]], "0 is not the identity"),
    (_LOOP5, "not associative"),
    ([[0, 1]], "must be square"),
    ([[0, 1.5], [1.5, 0]], "entries must be integers"),
    ([[0, "1"], ["1", 0]], "entries must be integers"),
])
def test_dw_oracle_rejects_non_group(table, message):
    with pytest.raises(ValueError, match=message):
        dw_oracle(table, builtin_triangulation("t3"))


def test_dw_routes_multiply_over_components():
    # two self-glued tets, S^3 each: 1/2 per component for Z2
    gl = [((0, 0), (0, 1)), ((0, 2), (0, 3)), ((1, 0), (1, 1)), ((1, 2), (1, 3))]
    tri = Triangulation([(None, 1), (None, 1)], gluings=gl)
    assert tet_components(tri) == 2
    table = cyclic_group_table(2)
    assert dw_oracle(table, tri) == dw_brute(table, tri) == Fraction(1, 4)
    assert expected_flat_fraction(tri, 2) == Fraction(1, 2)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=closed_pairings(max_tets=8))
def test_dw_oracle_matches_brute_and_homology(case):
    tets, gluings = case
    try:
        tri = Triangulation(tets, gluings=gluings)
    except TriangulationError:
        return
    # expected_flat_fraction divides by nmod once for the whole complex; the
    # DW count is a product over components, each divided by nmod
    extra = tet_components(tri) - 1
    for nmod in (2, 3, 4):
        table = cyclic_group_table(nmod)
        got = dw_oracle(table, tri)
        if nmod ** tri.n_edges <= 5_000_000:
            assert got == dw_brute(table, tri)
        assert got == expected_flat_fraction(tri, nmod) / nmod ** extra


# -- state sums ---------------------------------------------------------------

@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("zname", ["vec_z2", "vec_z3"])
def test_state_sum_equals_flat_count(name, zname):
    cat = zoo(zname)
    tri = builtin_triangulation(name)
    z = state_sum(cat, tri)
    want = float(dw_oracle(cyclic_group_table(cat.n), tri))
    assert z == pytest.approx(want, abs=1e-10)


def test_state_sum_s3_presentations_agree():
    for cat in (zoo("fibonacci"), zoo("ising")):
        lam = global_dim(cat)
        for tri in (boundary_4_simplex(), s3_twotet(), doubled_tetrahedron(),
                    lens_triangulation(1, 1)):
            z = state_sum(cat, tri)
            assert z == pytest.approx(1 / lam, abs=1e-10)


def test_state_sum_s2xs1_is_one():
    for cname in ("vec_z2", "vec_z3", "fibonacci", "ising"):
        z = state_sum(zoo(cname), builtin_triangulation("s2xs1"))
        assert z == pytest.approx(1.0, abs=1e-10)


def test_state_sum_t3_counts_center_blocks():
    want = {"vec_z2": 4.0, "vec_z3": 9.0, "fibonacci": 4.0, "ising": 9.0}
    for cname, w in want.items():
        z = state_sum(zoo(cname), builtin_triangulation("t3_sixtet"))
        assert z == pytest.approx(w, abs=1e-9)


def test_rp3_presentations_agree():
    a = builtin_triangulation("rp3_lens")
    b = builtin_triangulation("rp3_antipodal")
    for cname in ("vec_z2", "vec_z3", "fibonacci", "ising"):
        cat = zoo(cname)
        za, zb = state_sum(cat, a), state_sum(cat, b)
        assert za == pytest.approx(zb, abs=1e-9), cname


def test_state_sum_orientation_conjugates():
    # reversing all tet signs conjugates the invariant
    cat = zoo("ising")
    tri = builtin_triangulation("lens_4_1")
    doc = tri.to_dict()
    for t in doc["tets"]:
        t["sign"] = -t["sign"]
    rev = _triangulation_from_dict(doc)
    assert state_sum(cat, rev) == pytest.approx(
        np.conj(state_sum(cat, tri)), abs=1e-10)


def test_state_sum_matches_brute_force():
    cats = [zoo(name) for name in ("vec_z2", "vec_z3", "fibonacci", "ising")]
    cats.append(random_f_ring())
    for cat in cats:
        for tname in ("s3_twotet", "s2xs1", "rp3_lens", "lens_3_1"):
            tri = builtin_triangulation(tname)
            want = brute_state_sum(cat, tri)
            assert abs(want) > 1e-3  # a zero reference would check nothing
            assert abs(state_sum(cat, tri) - want) < 1e-12, (cat.names, tname)


def test_contraction_reaches_many_edges():
    # E = 62: one whole-network einsum runs out of subscript letters
    tri = lens_triangulation(60, 1)
    assert tri.n_edges == 62
    assert state_sum(zoo("vec_z1"), tri) == 1


def test_ising_lens_21_8_matches_surgery():
    cat = zoo("ising")
    z = state_sum(cat, lens_triangulation(21, 8), budget=3 ** 23)
    md = compute_modular_data(cat)
    assert abs(z - surgery_invariant(md, lens_chain(21, 8))) < 1e-8


def test_ising_lens_14_3_within_default_budget():
    # 3^16 edge colorings; the largest elimination step is 3^11
    cat = zoo("ising")
    z = state_sum(cat, lens_triangulation(14, 3))
    md = compute_modular_data(cat)
    assert abs(z - surgery_invariant(md, lens_chain(14, 3))) < 1e-8


def test_tet_weight_trivial_coloring():
    tri = s3_twotet()
    assert tet_weight(zoo("fibonacci"), tri, 0, [0] * tri.n_edges) == pytest.approx(1.0)
    # g (x) g = e in vec_z2: a face colored (g, g, g) is inadmissible -> 0
    assert tet_weight(zoo("vec_z2"), tri, 0, [1] * tri.n_edges) == 0


def test_budget_guard():
    cat = zoo("vec_z3")
    tri = builtin_triangulation("t3_sixtet")
    with pytest.raises(BudgetError):
        state_sum(cat, tri, budget=100)
    with pytest.raises(BudgetError):
        dw_oracle(cyclic_group_table(3), tri, budget=100)


# -- validation ---------------------------------------------------------------

def test_open_boundary_detected():
    with pytest.raises(TriangulationError, match="open boundary"):
        Triangulation([((0, 1, 2, 3), 1)])


def test_nonmanifold_slot_reuse():
    gl = [((0, 0), (0, 1)), ((0, 0), (0, 2)), ((0, 3), (1, 0)),
          ((1, 1), (1, 2))]
    with pytest.raises(TriangulationError, match="non-manifold"):
        Triangulation([(None, 1), (None, -1)], gluings=gl)


def test_orientation_incoherence():
    gl = [((0, 0), (0, 2)), ((0, 1), (0, 3))]
    with pytest.raises(TriangulationError, match="orientation incoherence"):
        Triangulation([(None, 1)], gluings=gl)


def test_bad_sign_rejected():
    with pytest.raises(TriangulationError, match="sign"):
        Triangulation([((0, 1, 2, 3), 2), ((0, 1, 2, 3), -1)])


def test_branching_requires_increasing_ids():
    with pytest.raises(TriangulationError, match="branching"):
        Triangulation([((0, 2, 1, 3), 1), ((0, 1, 2, 3), -1)])


def test_face_glued_to_itself():
    gl = [((0, 0), (0, 0)), ((0, 1), (0, 2))]
    with pytest.raises(TriangulationError, match="itself|non-manifold"):
        Triangulation([(None, 1)], gluings=gl)


def test_euler_or_link_rejects_wedge():
    # two doubled tetrahedra sharing one vertex id: a wedge point
    tets = [((0, 1, 2, 3), 1), ((0, 1, 2, 3), -1),
            ((0, 4, 5, 6), 1), ((0, 4, 5, 6), -1)]
    with pytest.raises(TriangulationError):
        Triangulation(tets)


def test_vertex_count_crosscheck():
    doc = s3_twotet().to_dict()
    doc["vertices"] = 3
    with pytest.raises(TriangulationError, match="vertices"):
        _triangulation_from_dict(doc)


def test_vertex_ids_must_match_gluings():
    doc = lens_triangulation(2, 1).to_dict()
    doc["tets"][0]["v"] = [9, 9, 9, 9]
    with pytest.raises(TriangulationError):
        _triangulation_from_dict(doc)


def test_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[oops")
    with pytest.raises(TriangulationError, match="parse error"):
        load_triangulation(p)


def test_unknown_builtin():
    with pytest.raises(TriangulationError, match="unknown builtin"):
        builtin_triangulation("klein_bottle")


def test_lens_args_validated():
    for p, q in ((0, 1), (3, 4), (3, 0), (2.5, 1), ("3", 1), (3, None)):
        with pytest.raises(TriangulationError, match="need integers p >= 1"):
            lens_triangulation(p, q)
    assert issubclass(TriangulationError, ValueError)


def test_roundtrip_via_dict():
    for name in BUILTINS:
        tri = builtin_triangulation(name)
        again = _triangulation_from_dict(tri.to_dict())
        assert again.to_dict() == tri.to_dict()


def test_vertex_id_mode_roundtrip():
    # the 4-simplex boundary file has no gluings; derive mode must rebuild it
    tri = builtin_triangulation("s3_boundary4simplex")
    assert tri.n_vertices == 5
    assert sorted(map(tuple, tri.verts)) == sorted(
        tuple(x for x in range(5) if x != i) for i in range(5))


# -- class tables against the tuple-keyed union-find ---------------------------

def _assert_classes_match(tri):
    want = triangulation_classes(tri)
    assert tri.tet_vertices.tolist() == want["vertices"]
    assert tri.tet_edges.tolist() == want["edges"]
    assert tri.tet_faces.tolist() == want["faces"]
    assert (tri.n_vertices, tri.n_edges, tri.n_faces) == want["counts"]
    assert tri.face_reps == want["face_reps"]
    # vertex ids, given or derived, label the corners as the classes do
    pairs = {(c, v) for cs, vs in zip(want["vertices"], tri.verts)
             for c, v in zip(cs, vs)}
    assert len(pairs) == len({c for c, _ in pairs}) == len({v for _, v in pairs})


@pytest.mark.parametrize("name", sorted(BUILTIN_TRIANGULATIONS))
def test_builtin_classes_match_oracle(name):
    tri = builtin_triangulation(name)
    _assert_classes_match(tri)
    vertex_link_euler(tri)


def test_lens_classes_match_oracle():
    for p in range(1, 41):
        for q in range(1, p + 1):
            tri = lens_triangulation(p, q)
            _assert_classes_match(tri)
            assert tri.verts == tri.tet_vertices.tolist()


def test_small_pairings_have_sphere_links():
    # every 1- and 2-tet face pairing with every sign: the Euler check alone
    # must refuse each complex whose vertex links are not spheres
    accepted = 0
    for n in (1, 2):
        slots = [(t, f) for t in range(n) for f in range(4)]
        for pair in all_pairings(slots):
            for signs in itertools.product((1, -1), repeat=n):
                try:
                    tri = Triangulation([(None, s) for s in signs], gluings=pair)
                except TriangulationError:
                    continue
                accepted += 1
                vertex_link_euler(tri)
                _assert_classes_match(tri)
    assert accepted > 0


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=closed_pairings(max_tets=8))
def test_closed_pairings_pass_both_oracles(case):
    tets, gluings = case
    try:
        tri = Triangulation(tets, gluings=gluings)
    except TriangulationError as exc:
        # pairing and orientation hold by construction
        assert str(exc).startswith("Euler characteristic")
        return
    vertex_link_euler(tri)
    _assert_classes_match(tri)


def test_first_homology_reads_integer_tables():
    class Recorder:
        def __init__(self, tri):
            self.tri, self.read = tri, set()

        def __getattr__(self, name):
            self.read.add(name)
            return getattr(self.tri, name)

    tri = Recorder(lens_triangulation(5, 2))
    assert first_homology(tri) == (0, [5])
    assert {"tet_vertices", "n_vertices"} <= tri.read
    for gone in ("_vmap", "_emap", "_fmap", "n_vertex_classes"):
        assert not hasattr(tri.tri, gone)


# -- searches (frozen results of the constructions) ----------------------------

def test_s2xs1_is_unique_two_tet_b1_one():
    slots = [(t, f) for t in range(2) for f in range(4)]
    hits = []
    for pair in all_pairings(slots):
        for s1 in (1, -1):
            try:
                tri = Triangulation([(None, 1), (None, s1)], gluings=pair)
            except TriangulationError:
                continue
            if not any(a[0] != b[0] for a, b in pair):
                continue
            rank, torsion = first_homology(tri)
            if rank == 1 and not torsion:
                hits.append(tri)
    assert len(hits) == 1
    assert hits[0].to_dict()["gluings"] == s2xs1_twotet().to_dict()["gluings"]
