import json

import numpy as np
import pytest

from doubletop.catdata import global_dim, zoo
from doubletop.modulardata import compute_modular_data
from doubletop.statesum import (
    BudgetError, Triangulation, TriangulationError, boundary_4_simplex,
    builtin_triangulation, cyclic_group_table, doubled_tetrahedron, dw_oracle,
    lens_triangulation, load_triangulation, s2xs1_twotet, s3_twotet,
    state_sum, t3_sixtet, _triangulation_from_dict,
)
from doubletop.surgery import lens_chain, surgery_invariant
from oracles import (all_pairings, brute_state_sum, expected_flat_fraction,
                     first_homology, multiplicity_ring, tet_weight)

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


@pytest.mark.parametrize("name", BUILTINS)
def test_homology_matches_pi1_tag(name):
    tri = builtin_triangulation(name)
    rank, torsion = first_homology(tri)
    assert tri.pi1 is not None
    assert rank == tri.pi1["free_rank"]
    # compare torsion via Hom-counts (invariant factors vs arbitrary list)
    for nmod in (2, 3, 4, 5, 8, 9):
        want = tri.expected_dw(nmod)
        assert expected_flat_fraction(tri, nmod) == want


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("nmod", [2, 3])
def test_dw_oracle_matches_homology(name, nmod):
    tri = builtin_triangulation(name)
    got = dw_oracle(cyclic_group_table(nmod), tri)
    assert got == expected_flat_fraction(tri, nmod)


def test_dw_oracle_z4_lens():
    tri = builtin_triangulation("lens_4_1")
    assert dw_oracle(cyclic_group_table(4), tri) == 1


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
    cats.append(multiplicity_ring())
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
    cat = zoo("fibonacci")
    tri = s3_twotet()
    col = [0] * tri.n_edges
    lab = [0] * tri.n_faces
    assert tet_weight(cat, tri, 0, col, lab) == pytest.approx(1.0)
    # inadmissible labeling index -> 0
    col = [1] * tri.n_edges
    lab2 = [5] * tri.n_faces
    assert tet_weight(cat, tri, 0, col, lab2) == 0


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
    with pytest.raises(ValueError):
        lens_triangulation(0, 1)
    with pytest.raises(ValueError):
        lens_triangulation(3, 4)


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
