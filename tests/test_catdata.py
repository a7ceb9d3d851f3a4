import cmath
import copy
import json
import math

import numpy as np
import pytest

from doubletop import trees
from doubletop.catdata import (
    CategoryData, CategoryError, dump_category, global_dim, load_category,
    zoo, _category_from_dict,
)
from oracles import fblock_bases, multiplicity_ring, vec_s3_document

ZOO = ["vec_z1", "vec_z2", "vec_z3", "vec_z4", "fibonacci", "ising"]


@pytest.mark.parametrize("name", ZOO)
def test_zoo_loads_and_validates(name):
    cat = zoo(name)
    cat.validate()


@pytest.mark.parametrize("name,want", [
    ("vec_z1", 1.0),
    ("vec_z2", 2.0),
    ("vec_z3", 3.0),
    ("vec_z4", 4.0),
    ("fibonacci", (5 + math.sqrt(5)) / 2),
    ("ising", 4.0),
])
def test_global_dim(name, want):
    assert global_dim(zoo(name)) == pytest.approx(want, abs=1e-12)


def test_pentagon_group_categories_exact():
    for name in ("vec_z1", "vec_z2", "vec_z3", "vec_z4"):
        assert trees.pentagon_residual(zoo(name)) == 0.0


def test_pentagon_fibonacci_ising():
    assert trees.pentagon_residual(zoo("fibonacci")) < 1e-12
    assert trees.pentagon_residual(zoo("ising")) < 1e-12


@pytest.mark.parametrize("name", ZOO)
def test_validation_records_residuals(name):
    cat = zoo(name)
    assert set(cat.residuals) == {"pentagon", "unitarity"}
    assert cat.residuals["pentagon"] == trees.pentagon_residual(cat)


def test_unvalidated_category_has_no_residuals():
    cat = _category_from_dict(dump_category(zoo("fibonacci")), validate=False)
    assert cat.residuals is None


def test_pentagon_detects_wrong_f_sign():
    # flip the sign of [F^{ttt}_t]_{tt}; the pentagon residual must blow up
    doc = dump_category(zoo("fibonacci"))
    flipped = False
    for ent in doc["sixj"]:
        if ent["labels"] == [1, 1, 1, 1, 1, 1]:
            ent["re"] = -ent["re"]
            flipped = True
    assert flipped
    cat = _category_from_dict(doc, validate=False)
    assert trees.pentagon_residual(cat) > 0.1


def test_f_unitarity_detects_scaling():
    doc = dump_category(zoo("fibonacci"))
    for ent in doc["sixj"]:
        ent["re"] *= 1.5
        ent["im"] *= 1.5
    with pytest.raises(CategoryError, match="unitar"):
        _category_from_dict(doc)


@pytest.mark.parametrize("name", ZOO + ["multiplicity_ring"])
def test_dense_f_holds_the_blocks(name):
    cat = multiplicity_ring() if name == "multiplicity_ring" else zoo(name)
    m = int(cat.N.max())
    assert cat.F.shape == (cat.n,) * 6 + (m,) * 4
    seen = np.zeros(cat.F.shape, dtype=bool)
    for (a, b, c, dd), blk in cat._fblocks.items():
        for i, (e, al, be) in enumerate(blk.rows):
            for j, (f, mu, nu) in enumerate(blk.cols):
                assert cat.F[a, b, c, dd, e, f, al, be, mu, nu] == blk.mat[i, j]
                seen[a, b, c, dd, e, f, al, be, mu, nu] = True
    assert not cat.F[~seen].any()


@pytest.mark.parametrize("name", ZOO + ["multiplicity_ring", "vec_s3"])
def test_block_bases_match_oracle(name):
    if name == "multiplicity_ring":
        cat = multiplicity_ring()
    elif name == "vec_s3":
        cat = _category_from_dict(vec_s3_document())
    else:
        cat = zoo(name)
    want = [key for key in np.ndindex((cat.n,) * 4) if fblock_bases(cat, *key)[0]]
    assert list(cat._fblocks) == want
    for key, blk in cat._fblocks.items():
        assert (blk.rows, blk.cols) == fblock_bases(cat, *key)


def test_non_square_f_block_rejected():
    # (x x) x = y x = 1 but x (x x) = x y = x: the block (x,x,x;1) is 1x0
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for k in range(3):
        N[0, k, k] = N[k, 0, k] = 1
    N[1, 1, 2] = N[2, 1, 0] = N[1, 2, 1] = 1
    with pytest.raises(CategoryError, match=r"F-block \(1,1,1;0\) is 1x0"):
        CategoryData(["1", "x", "y"], [0, 1, 2], N, [1.0] * 3, [],
                     validate=False)


def test_unit_blocks_are_identity():
    cat = zoo("ising")
    checked = 0
    for (a, b, c, dd), blk in cat._fblocks.items():
        if 0 in (a, b, c):
            assert np.allclose(blk.mat, np.eye(blk.mat.shape[0]))
            checked += 1
    assert checked > 0


def test_qdim_eigenvector_property():
    # d_a d_b = sum_c N_ab^c d_c, exercised through validate() already;
    # check the numbers directly for ising
    cat = zoo("ising")
    d = cat.d
    for a in range(3):
        for b in range(3):
            assert d[a] * d[b] == pytest.approx(
                sum(cat.N[a, b, c] * d[c] for c in range(3)), abs=1e-12)


def test_unknown_zoo_name():
    with pytest.raises(CategoryError, match="unknown"):
        zoo("socks")
    with pytest.raises(CategoryError):
        zoo("vec_z0")


def test_load_category_roundtrip(tmp_path):
    for name in ZOO:
        cat = zoo(name)
        p = tmp_path / (name + ".json")
        p.write_text(json.dumps(dump_category(cat)))
        loaded = load_category(p)
        assert loaded.fingerprint() == cat.fingerprint()
        assert loaded.names == cat.names


def test_load_category_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(CategoryError, match="parse error"):
        load_category(p)


def test_shape_mismatch_message():
    doc = dump_category(zoo("fibonacci"))
    doc["sixj"].append({"labels": [1, 1, 1, 1, 1, 1], "basis": [0, 0, 0, 5],
                        "re": 0.1, "im": 0.0})
    with pytest.raises(CategoryError,
                       match="multiplicity/F-tensor shape mismatch"):
        _category_from_dict(doc)


def test_sixj_on_inadmissible_block():
    doc = dump_category(zoo("vec_z2"))
    # g x g x g -> e admits no tree through the middle in vec_z2
    doc["sixj"].append({"labels": [1, 1, 1, 0, 0, 0], "basis": [0, 0, 0, 0],
                        "re": 1.0, "im": 0.0})
    with pytest.raises(CategoryError,
                       match="multiplicity/F-tensor shape mismatch"):
        _category_from_dict(doc)


def test_broken_duality_rejected():
    doc = dump_category(zoo("vec_z3"))
    doc["dual"] = [0, 1, 2]  # wrong: g1 dual must be g2
    with pytest.raises(CategoryError, match="dual"):
        _category_from_dict(doc)


def test_broken_associativity_rejected():
    doc = dump_category(zoo("vec_z2"))
    doc["fusion"] = [f for f in doc["fusion"]
                     if not (f["i"] == 1 and f["j"] == 1)]
    doc["fusion"].append({"i": 1, "j": 1, "k": 1, "mult": 1})
    with pytest.raises(CategoryError):
        _category_from_dict(doc)


def test_unit_must_have_dim_one():
    doc = dump_category(zoo("vec_z2"))
    doc["qdims"] = [2.0, 1.0]
    with pytest.raises(CategoryError):
        _category_from_dict(doc)


def test_rsymbols_present_and_consistent():
    fib = zoo("fibonacci")
    assert fib.rsym(1, 1, 0) == pytest.approx(cmath.exp(-4j * cmath.pi / 5))
    assert fib.rsym(1, 1, 1) == pytest.approx(cmath.exp(3j * cmath.pi / 5))
    # twist from R: theta_a = (1/d_a) sum_c d_c R^{aa}_c
    d = fib.d
    theta_tau = (d[0] * fib.rsym(1, 1, 0) + d[1] * fib.rsym(1, 1, 1)) / d[1]
    assert theta_tau == pytest.approx(cmath.exp(4j * cmath.pi / 5))

    ising = zoo("ising")
    theta_sigma = sum(ising.d[c] * ising.rsym(1, 1, c) for c in (0, 2)) / ising.d[1]
    assert theta_sigma == pytest.approx(cmath.exp(1j * cmath.pi / 8))
    assert ising.rsym(2, 2, 0) == pytest.approx(-1.0)


def test_rsym_requires_braiding_data():
    cat = zoo("vec_z3")
    assert cat.rsymbols is None
    with pytest.raises(CategoryError, match="R-symbols"):
        cat.rsym(1, 1, 2)


def test_fingerprint_stable_and_sensitive():
    a = zoo("fibonacci").fingerprint()
    b = zoo("fibonacci").fingerprint()
    assert a == b
    assert a != zoo("ising").fingerprint()
