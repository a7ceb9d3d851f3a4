import numpy as np
import pytest

from doubletop.catdata import CategoryError, dump_category, zoo, _category_from_dict
from doubletop.trees import hexagon_residual, pentagon_residual
import oracles
from oracles import (
    random_f_ring, rsymbol_table, semion_document, shape_moves, vec_s3_document,
)


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


def test_pentagon_residual_of_random_f():
    # fibonacci's ring with random complex F: the residual is large, and pinned
    assert abs(pentagon_residual(random_f_ring()) - 6.6659801765327575) < 1e-12


def _semion_f_document():
    # vec_z2 fusion with F^{ggg}_g = -1
    doc = semion_document()
    del doc["rsymbols"]
    return doc


def _fibonacci_with_flipped_f_sign():
    doc = dump_category(zoo("fibonacci"))
    for ent in doc["sixj"]:
        if ent["labels"] == [1, 1, 1, 1, 1, 1]:
            ent["re"] = -ent["re"]
    return doc


_ORACLE_CATEGORIES = {
    **{name: lambda name=name: zoo(name)
       for name in ("vec_z1", "vec_z2", "vec_z3", "vec_z4", "fibonacci", "ising")},
    "random-f-ring": random_f_ring,
    "vec-s3": lambda: _category_from_dict(vec_s3_document(), validate=False),
    "semion-f": lambda: _category_from_dict(_semion_f_document(), validate=False),
    "fibonacci-flipped-sign": lambda: _category_from_dict(
        _fibonacci_with_flipped_f_sign(), validate=False),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CATEGORIES))
def test_pentagon_matches_oracle(name):
    cat = _ORACLE_CATEGORIES[name]()
    assert pentagon_residual(cat) == oracles.pentagon_residual(cat)


def test_hexagon_residual_zoo():
    assert hexagon_residual(zoo("fibonacci")) < 1e-12
    assert hexagon_residual(zoo("ising")) < 1e-12
    doc = dump_category(zoo("vec_z2"))
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0})) < 1e-12
    # the semion braiding on the vec_z2 fusion ring needs the twisted F
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0j})) > 0.1


def test_hexagon_detects_wrong_r():
    cat = zoo("ising")
    bad = rsymbol_table(cat)
    bad[(2, 2, 0)] = 1.0  # psi self-braiding must be -1
    assert hexagon_residual(_with_rsymbols(dump_category(cat), bad)) > 0.1


def test_hexagon_residual_keeps_nan():
    # a nan R-symbol (refused by validation) used to read as residual 0.0
    doc = dump_category(zoo("ising"))
    doc["rsymbols"][0]["re"] = float("nan")
    assert np.isnan(hexagon_residual(_category_from_dict(doc, validate=False)))


def test_semion_hexagon():
    # vec_z2 fusion with F^{ggg}_g = -1 admits the semion braiding R = +/- i
    doc = _semion_f_document()
    assert pentagon_residual(_category_from_dict(doc, validate=False)) < 1e-12
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0j})) < 1e-12
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): -1.0j})) < 1e-12
    assert hexagon_residual(_with_rsymbols(doc, {(1, 1, 0): 1.0})) > 0.1


@pytest.mark.parametrize("name", sorted(_ORACLE_CATEGORIES))
def test_unitarity_matches_oracle(name):
    # the batched check reports the worst block residual, or names the first
    # non-unitary block in lex order, exactly as the per-block loop does
    cat = _ORACLE_CATEGORIES[name]()
    want = oracles.unitarity_residual(cat)
    bad = [key for key, u in want.items() if u > 1e-9]
    if bad:
        msg = "F-block (%d,%d,%d;%d) not unitary: residual %.3e" % (*bad[0], want[bad[0]])
        with pytest.raises(CategoryError) as exc:
            cat.validate()
        assert str(exc.value) == msg
    else:
        cat.validate()
        assert cat.residuals["unitarity"] == max(want.values())


def _ising_with_wrong_psi_braiding():
    cat = zoo("ising")
    return _with_rsymbols(dump_category(cat), {**rsymbol_table(cat), (2, 2, 0): 1.0})


_HEXAGON_CATEGORIES = {
    "fibonacci": lambda: zoo("fibonacci"),
    "ising": lambda: zoo("ising"),
    "semion-f": lambda: _with_rsymbols(_semion_f_document(), {(1, 1, 0): 1.0j}),
    "semion-f-wrong-r": lambda: _with_rsymbols(_semion_f_document(), {(1, 1, 0): 1.0}),
    "ising-wrong-r": _ising_with_wrong_psi_braiding,
}


@pytest.mark.parametrize("name", sorted(_HEXAGON_CATEGORIES))
def test_hexagon_matches_oracle(name):
    cat = _HEXAGON_CATEGORIES[name]()
    got = hexagon_residual(cat)
    assert abs(got - oracles.hexagon_residual(cat)) < 1e-14
    assert (got > 0.1) == name.endswith("wrong-r")
