import numpy as np
import pytest

from doubletop.catdata import dump_category, zoo, _category_from_dict
from doubletop.trees import hexagon_residual, pentagon_residual, shape_moves
from oracles import multiplicity_ring


def _with_rsymbols(doc, rsymbols):
    """Unvalidated category from `doc` carrying the given R-symbols."""
    doc = dict(doc, rsymbols=[
        {"a": a, "b": b, "c": c, "re": complex(v).real, "im": complex(v).imag}
        for (a, b, c), v in rsymbols.items()])
    return _category_from_dict(doc, validate=False)


@pytest.mark.parametrize("name", ["vec_z3", "fibonacci", "ising"])
def test_moves_are_unitary(name):
    cat = zoo(name)
    n = cat.n
    checked = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    for t in range(n):
                        shapes, moves = shape_moves(cat, (a, b, c, d), t)
                        for key, m in moves.items():
                            if m.size == 0:
                                continue
                            assert np.allclose(m @ m.conj().T,
                                               np.eye(m.shape[0]), atol=1e-12), \
                                (name, (a, b, c, d, t), key)
                            checked += 1
    assert checked > 0


def test_move_dimensions_consistent():
    cat = zoo("ising")
    shapes, moves = shape_moves(cat, (1, 1, 1, 1), 1)  # four sigmas to sigma
    dims = {k: len(s) for k, s in shapes.items()}
    assert len(set(dims.values())) == 1  # all shapes enumerate the same space


def test_pentagon_residual_zoo():
    assert pentagon_residual(zoo("vec_z4")) == 0.0
    assert pentagon_residual(zoo("fibonacci")) < 1e-12
    assert pentagon_residual(zoo("ising")) < 1e-12


def test_pentagon_residual_with_multiplicity():
    # x (x) x = 1 + 2x with random F: the residual is large, and pinned
    assert abs(pentagon_residual(multiplicity_ring()) - 16.420478210515512) < 1e-12


def test_moves_with_multiplicity_cover_both_copies():
    # x^4 = 5 + 12x: every shape of (x, x, x, x; x) has 12 states, and
    # they use both copies of x in x (x) x
    shapes, moves = shape_moves(multiplicity_ring(), (1, 1, 1, 1), 1)
    assert {len(s) for s in shapes.values()} == {12}
    assert {st[k] for s in shapes.values() for st in s for k in range(3)} == {0, 1}
    assert all(m.shape == (12, 12) for m in moves.values())


def test_hexagon_residual_zoo():
    assert hexagon_residual(zoo("fibonacci")) < 1e-12
    assert hexagon_residual(zoo("ising")) < 1e-12
    doc = dump_category(zoo("vec_z2"))
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0})) < 1e-12
    # the semion braiding on the vec_z2 fusion ring needs the twisted F
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0j})) > 0.1


def test_hexagon_detects_wrong_r():
    cat = zoo("ising")
    bad = dict(cat.rsymbols)
    bad[(2, 2, 0)] = 1.0  # psi self-braiding must be -1
    assert hexagon_residual(_with_rsymbols(dump_category(cat), bad)) > 0.1


def test_semion_hexagon():
    # vec_z2 fusion with F^{ggg}_g = -1 admits the semion braiding R = +/- i
    doc = dump_category(zoo("vec_z2"))
    for ent in doc["sixj"]:
        if ent["labels"][:3] == [1, 1, 1]:
            ent["re"] = -1.0
    assert pentagon_residual(_category_from_dict(doc, validate=False)) < 1e-12
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0j})) < 1e-12
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): -1.0j})) < 1e-12
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0})) > 0.1
