import cmath
import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from doubletop import trees
from doubletop.catdata import (
    CategoryData, CategoryError, dump_category, global_dim, load_category,
    zoo, _block_keys, _category_from_dict,
)
from doubletop.modulardata import braiding_st
import oracles
from oracles import (
    fblock, fblock_bases, fsymbol_violation, multiplicity_ring_document, random_f_ring,
    ring_law_violation, rsymbol_array, rsymbol_table, rsymbol_violation, semion_document,
    vec_s3_document,
)

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


def _named(name):
    """A zoo category, `random_f_ring` or Vec(S3), with its document."""
    if name == "vec_s3":
        doc = vec_s3_document()
        return _category_from_dict(doc), doc
    cat = random_f_ring() if name == "random_f_ring" else zoo(name)
    return cat, dump_category(cat)


@pytest.mark.parametrize("name", ZOO + ["random_f_ring"])
def test_dense_f_holds_the_blocks(name):
    # F has one axis per label and nothing outside the admissible rows and
    # columns of the nonempty blocks
    cat, _ = _named(name)
    assert cat.F.shape == (cat.n,) * 6
    seen = np.zeros(cat.F.shape, dtype=bool)
    for key in np.ndindex((cat.n,) * 4):
        rows, cols = fblock_bases(cat, *key)
        for e in rows:
            for f in cols:
                seen[key + (e, f)] = True
    assert not cat.F[~seen].any()


@pytest.mark.parametrize("name", ZOO + ["random_f_ring", "vec_s3"])
def test_dense_f_matches_document(name):
    # every sixj entry at its labels, with basis [0, 0, 0, 0], the identity
    # on the unit blocks, and nothing else
    cat, doc = _named(name)
    want = np.zeros((cat.n,) * 6, dtype=complex)
    for ent in doc["sixj"]:
        assert ent["basis"] == [0, 0, 0, 0]
        want[tuple(ent["labels"])] = complex(ent["re"], ent.get("im", 0.0))
    for key in np.ndindex((cat.n,) * 4):
        if 0 in key[:3]:
            for e, f in zip(*fblock_bases(cat, *key)):
                want[key + (e, f)] = 1.0
    assert np.array_equal(cat.F, want)


@pytest.mark.parametrize("validate", [True, False])
def test_multiplicity_above_one_refused_at_construction(validate):
    # x (x) x = 1 + 2x: refused by name before F is allocated, with or
    # without validation
    doc = multiplicity_ring_document()
    want = ("fusion multiplicity N[1,1,1] = 2 is above 1: only multiplicity-free "
            "fusion rings are supported")
    with pytest.raises(CategoryError, match="^%s$" % re.escape(want)):
        _category_from_dict(doc, validate=validate)
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    N[1, 1, 1] = 2
    with pytest.raises(CategoryError, match="^%s$" % re.escape(want)):
        CategoryData(["1", "x"], [0, 1], N, [1.0, 1.0 + math.sqrt(2.0)], {},
                     validate=validate)


@pytest.mark.parametrize("name", ZOO + ["random_f_ring", "vec_s3"])
def test_block_bases_match_oracle(name):
    cat, _ = _named(name)
    want = [key for key in np.ndindex((cat.n,) * 4) if fblock_bases(cat, *key)[0]]
    assert list(map(tuple, _block_keys(cat).tolist())) == want


def test_non_square_f_block_rejected():
    # (x x) x = y x = 1 but x (x x) = x y = x: the block (x,x,x;1) is 1x0
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for k in range(3):
        N[0, k, k] = N[k, 0, k] = 1
    N[1, 1, 2] = N[2, 1, 0] = N[1, 2, 1] = 1
    with pytest.raises(CategoryError, match=r"F-block \(1,1,1;0\) is 1x0"):
        CategoryData(["1", "x", "y"], [0, 1, 2], N, [1.0] * 3, {},
                     validate=False)


def test_unit_blocks_are_identity():
    for name in ZOO + ["vec_s3"]:
        cat, _ = _named(name)
        checked = 0
        for key in np.ndindex((cat.n,) * 4):
            rows, _, mat = fblock(cat, *key)
            if 0 in key[:3] and rows:
                assert np.array_equal(mat, np.eye(len(rows))), (name, key)
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
    with pytest.raises(CategoryError, match="vec_zN needs N >= 1"):
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
    # the message names the labels e, f and all four basis indices
    for labels, basis, want in [
        ([1, 1, 1, 1, 1, 1], [0, 0, 0, 5], "e=1 f=1 basis (0,0|0,5)"),
        ([1, 1, 1, 1, 1, 1], [0, 0, 0, 10 ** 30], "e=1 f=1 basis (0,0|0,%d)" % 10 ** 30),
        ([1, 1, 1, 1, 0, 1], [0, 1, 0, 0], "e=0 f=1 basis (0,1|0,0)"),
        ([1, 1, 1, 1, 2, 0], [0, 0, 0, 0], "e=2 f=0 basis (0,0|0,0)"),
    ]:
        doc = dump_category(zoo("fibonacci"))
        doc["sixj"].append({"labels": labels, "basis": basis, "re": 0.1, "im": 0.0})
        with pytest.raises(CategoryError, match="^%s$" % re.escape(
                "multiplicity/F-tensor shape mismatch: entry (1,1,1;1) %s outside "
                "admissible ranges" % want)):
            _category_from_dict(doc)


def test_sixj_on_inadmissible_block():
    doc = dump_category(zoo("vec_z2"))
    # g x g x g -> e admits no tree through the middle in vec_z2
    doc["sixj"].append({"labels": [1, 1, 1, 0, 0, 0], "basis": [0, 0, 0, 0],
                        "re": 1.0, "im": 0.0})
    with pytest.raises(CategoryError,
                       match="multiplicity/F-tensor shape mismatch"):
        _category_from_dict(doc)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data(), name=st.sampled_from(ZOO + ["vec_s3"]))
def test_ring_laws_match_pair_loop(data, name):
    # flipped entries of N[0], N[:, 0] and N[:, :, 0] are named as the loop
    # over pairs (i, j) names them
    cat, _ = _named(name)
    N = cat.N.copy()
    cells = sorted({cell for i, j in np.ndindex(cat.n, cat.n)
                    for cell in ((0, i, j), (i, 0, j), (i, j, 0))})
    for cell in data.draw(st.sets(st.sampled_from(cells), min_size=1, max_size=3)):
        N[cell] = 1 - N[cell]
    with pytest.raises(CategoryError) as info:
        CategoryData(cat.names, cat.dual, N, cat.d, {})
    assert str(info.value) == ring_law_violation(N, cat.dual)


@st.composite
def _corrupted_table(draw, name):
    """(name, table): the category's sixj entries as a table, with one to
    three entries drawn anywhere in it, labels out of range or on a unit block."""
    cat, doc = _named(name)
    items = [(tuple(ent["labels"]), complex(ent["re"], ent.get("im", 0.0)))
             for ent in doc["sixj"]]
    labels = st.one_of(st.integers(-1, cat.n), st.sampled_from([10 ** 30, -10 ** 30]))
    # the unit blocks (0, b, c; d): their identity entry (e, f) = (b, d), or any
    units = [((0, b, c, dd, b, dd), (0, b, c, dd, e, f))
             for b, c, dd in np.argwhere(cat.N).tolist()
             for e in range(cat.n) for f in range(cat.n)]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.one_of(st.tuples(*[labels] * 6),
                             st.sampled_from(units).flatmap(st.sampled_from)))
        val = draw(st.sampled_from([1.0, -1.0, 0.5j, 1.0 + 1e-12, 1.0 + 1e-8]))
        items.insert(draw(st.integers(0, len(items))), (key, val))
    return name, dict(items)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=st.sampled_from(ZOO + ["vec_s3"]).flatmap(_corrupted_table))
@example(case=("fibonacci", {(10 ** 30, 1, 1, 1, 1, 1): 1.0}))
@example(case=("fibonacci", {(1, 1, 1, -1, 1, 1): 1.0}))
def test_fsymbol_checks_match_entry_loop(case):
    # the first bad entry of the table is named as the per-entry loop names
    # it; a table without one builds
    name, table = case
    cat, _ = _named(name)
    want = fsymbol_violation(cat.N, table)
    if want is None:
        CategoryData(cat.names, cat.dual, cat.N, cat.d, table, validate=False)
    else:
        with pytest.raises(CategoryError) as info:
            CategoryData(cat.names, cat.dual, cat.N, cat.d, table, validate=False)
        assert str(info.value) == want


def _braided(name):
    """ising, fibonacci or the semion, with its R-symbols as a table."""
    cat = _category_from_dict(semion_document()) if name == "semion" else zoo(name)
    return cat, rsymbol_table(cat)


@st.composite
def _corrupted_r_table(draw, name):
    """(name, table): the category's R-symbols with one to three entries
    inserted anywhere, labels out of range (no negative one may alias a real
    label), on a unit position or on N, and perhaps one entry dropped."""
    cat, table = _braided(name)
    items = list(table.items())
    if draw(st.booleans()):
        del items[draw(st.integers(0, len(items) - 1))]
    labels = st.one_of(st.integers(-2, cat.n), st.sampled_from([10 ** 30, -10 ** 30]))
    units = [(0, x, y) for x in range(cat.n) for y in range(cat.n)]
    units += [(x, 0, y) for x, _, y in units]
    on_n = list(map(tuple, np.argwhere(cat.N).tolist()))
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.one_of(st.tuples(*[labels] * 3), st.sampled_from(units),
                             st.sampled_from(on_n)))
        val = draw(st.sampled_from([1.0, -1.0, 1j, 1.0 + 1e-12, 1.0 + 1e-8, 1.0 - 1e-8,
                                    float("nan")]))
        items.insert(draw(st.integers(0, len(items))), (key, val))
    return name, dict(items)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.sampled_from(["ising", "fibonacci", "semion"]).flatmap(_corrupted_r_table),
       validate=st.booleans())
@example(case=("ising", {(-1, -1, 0): -1.0}), validate=True)
@example(case=("ising", {(5, 5, 5): 1.0}), validate=False)
@example(case=("fibonacci", {(0, 1, 1): -1.0}), validate=True)
def test_rsymbol_checks_match_entry_loop(case, validate):
    # the first failed check is named as the entry loop names it; a table
    # that passes them assembles into the loop's dense R
    name, table = case
    cat, _ = _braided(name)
    want = rsymbol_violation(cat.N, table, validate)
    if want is None:
        got = CategoryData(cat.names, cat.dual, cat.N, cat.d, {}, table, validate=False)
        assert np.array_equal(got.R, rsymbol_array(cat.N, table), equal_nan=True)
    else:
        with pytest.raises(CategoryError) as info:
            CategoryData(cat.names, cat.dual, cat.N, cat.d, {}, table, validate=validate)
        assert str(info.value) == want


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("key", [(-1, -1, 0), (5, 5, 5), (10 ** 30, 1, 1)])
def test_r_symbol_outside_the_labels_refused_by_name(key, validate):
    # a negative label used to alias a real one, and a label past n to
    # raise a bare IndexError
    cat, table = _braided("ising")
    with pytest.raises(CategoryError, match=r"^R-symbol on empty space \(%d,%d,%d\)$" % key):
        CategoryData(cat.names, cat.dual, cat.N, cat.d, {}, {**table, key: -1.0},
                     validate=validate)


@pytest.mark.parametrize("edit, want", [
    ({(2, 1, 1): None}, "missing R-symbol at (2,1,1)"),
    ({(1, 2, 1): float("nan")}, "non-finite R-symbol at (1,2,1)"),
    ({(2, 2, 0): 1.0}, "hexagon residual 2.000e+00 above tolerance"),
], ids=["missing", "nan", "wrong-psi"])
def test_validate_runs_the_r_checks(edit, want):
    # a category built unvalidated meets every R check in validate()
    ising, table = _braided("ising")
    table = {k: v for k, v in {**table, **edit}.items() if v is not None}
    fsymbols = {tuple(e["labels"]): complex(e["re"], e["im"])
                for e in dump_category(ising)["sixj"]}
    cat = CategoryData(ising.names, ising.dual, ising.N, ising.d, fsymbols, table,
                       validate=False)
    with pytest.raises(CategoryError) as info:
        cat.validate()
    assert str(info.value) == want


@pytest.mark.parametrize("name", ["ising", "fibonacci"])
def test_unit_r_symbol_entry_must_be_one(name):
    # a unit entry of 1 is the one R holds there: the zoo category, under
    # its fingerprint; any other value is named
    doc = dump_category(zoo(name))
    doc["rsymbols"].append({"a": 0, "b": 1, "c": 1, "re": 1.0})
    assert _category_from_dict(doc).fingerprint() == zoo(name).fingerprint()
    for bad in (-1.0, 5.0):
        doc["rsymbols"][-1]["re"] = bad
        with pytest.raises(CategoryError,
                           match=r"^unit-gauge violation at R-symbol \(0,1,1\)$"):
            _category_from_dict(doc)


@pytest.mark.parametrize("name", ["ising", "fibonacci", "semion"])
def test_dump_roundtrip_keeps_r(name):
    cat, _ = _braided(name)
    again = _category_from_dict(dump_category(cat))
    assert np.array_equal(again.R, cat.R)
    assert again.fingerprint() == cat.fingerprint()


@pytest.mark.parametrize("name", ["ising", "fibonacci", "semion"])
def test_braiding_st_matches_label_loop(name):
    cat, _ = _braided(name)
    S, theta = braiding_st(cat)
    S0, theta0 = oracles.braiding_st(cat)
    assert np.max(np.abs(S - S0)) <= 1e-15
    assert np.max(np.abs(theta - theta0)) <= 1e-15


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
    assert fib.R[1, 1, 0] == pytest.approx(cmath.exp(-4j * cmath.pi / 5))
    assert fib.R[1, 1, 1] == pytest.approx(cmath.exp(3j * cmath.pi / 5))
    # unit-involving R is 1 and R is zero off N
    assert np.array_equal(fib.R[0], fib.N[0]) and np.array_equal(fib.R[:, 0], fib.N[:, 0])
    assert np.array_equal(fib.R[fib.N == 0], np.zeros(np.sum(fib.N == 0)))
    # twist from R: theta_a = (1/d_a) sum_c d_c R^{aa}_c
    assert braiding_st(fib)[1][1] == pytest.approx(cmath.exp(4j * cmath.pi / 5))

    ising = zoo("ising")
    assert braiding_st(ising)[1][1] == pytest.approx(cmath.exp(1j * cmath.pi / 8))
    assert ising.R[2, 2, 0] == pytest.approx(-1.0)


def test_rsym_requires_braiding_data():
    cat = zoo("vec_z3")
    assert cat.R is None
    with pytest.raises(CategoryError, match="^category carries no R-symbols$"):
        braiding_st(cat)
    with pytest.raises(CategoryError, match="^category carries no R-symbols$"):
        trees.hexagon_residual(cat)


def test_missing_r_symbol_named():
    doc = dump_category(zoo("ising"))
    doc["rsymbols"] = [e for e in doc["rsymbols"] if (e["a"], e["b"]) != (2, 1)]
    with pytest.raises(CategoryError, match=r"^missing R-symbol at \(2,1,1\)$"):
        _category_from_dict(doc)


def test_sixj_indices_must_be_integers():
    for bad in ("x", 1.5, None, float("inf")):
        doc = dump_category(zoo("fibonacci"))
        doc["sixj"][0]["basis"][0] = bad
        with pytest.raises(CategoryError, match="must be integers"):
            _category_from_dict(doc)
    doc = dump_category(zoo("fibonacci"))
    doc["sixj"][0]["labels"] = [float(x) for x in doc["sixj"][0]["labels"]]
    assert _category_from_dict(doc).fingerprint() == zoo("fibonacci").fingerprint()


@pytest.mark.parametrize("path, bad, field", [
    (("dual", 2), None, "dual entries"),
    (("dual", 2), "a", "dual entries"),
    (("dual", 2), 1.5, "dual entries"),
    (("fusion", 1, "i"), 0.5, "fusion labels"),
    (("rsymbols", 0, "a"), 1.5, "R-symbol labels"),
    (("rsymbols", 0, "b"), None, "R-symbol labels"),
    (("rsymbols", 0, "c"), "a", "R-symbol labels"),
], ids=["null-dual", "string-dual", "fractional-dual", "fractional-fusion-label",
        "fractional-r-symbol-label", "null-r-symbol-label", "string-r-symbol-label"])
def test_labels_must_be_integers(path, bad, field):
    # the rule of the sixj labels: an integral number reads as an int
    doc = dump_category(zoo("ising"))
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = float(node[last])
    assert _category_from_dict(doc).fingerprint() == zoo("ising").fingerprint()
    node[last] = bad
    with pytest.raises(CategoryError, match="^%s must be integers$" % field):
        _category_from_dict(doc)


def test_fingerprint_stable_and_sensitive():
    a = zoo("fibonacci").fingerprint()
    b = zoo("fibonacci").fingerprint()
    assert a == b
    assert a != zoo("ising").fingerprint()


# sha256 of the canonical serialization: pins the document format
FINGERPRINTS = {
    "vec_z1": "754ad022a4e65132e0dfda2d2f5dd5ee2c2f3b5916789c9d3ba1a0f192879a1d",
    "vec_z2": "2aa0dc5a24ca513cc1b6dfbd77ef09b359c4c2344e6d4460aa1593412466b749",
    "vec_z3": "abcde6ec566c8b93ebf0edf2233feabd69f595e3e088da7cbb373ac8b58e2e82",
    "vec_z4": "9ae658ebd72fa5bd41ae676aa12880a49cd9d69a346076780f9ae98e4396c77e",
    "vec_z7": "ce0e1045e45a508ec36c32ce6e841dd1a1e4d0fafd4375854296c24eda6553d7",
    "fibonacci": "3e4277ae1010cad9f294f38f7b58bd5d427f3b582a6d363aa35444c5ce326109",
    "ising": "a17c56c2d643040c2a6df9feaa02618938c71efcd965bac62b2bb3f3011cc6d7",
}


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_fingerprint_pinned(name):
    assert zoo(name).fingerprint() == FINGERPRINTS[name]


@pytest.mark.parametrize("name", ["random_f_ring", "vec_s3"])
def test_dump_roundtrip_keeps_f(name):
    cat, _ = _named(name)
    again = _category_from_dict(dump_category(cat), validate=False)
    assert np.array_equal(again.F, cat.F)
