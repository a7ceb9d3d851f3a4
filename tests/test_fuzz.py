"""Hypothesis fuzz tests of the document loaders, run through the CLI, and
of the report writer against json.dumps."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from doubletop.catdata import dump_category, zoo
from doubletop.cli import _dumps, main
from doubletop.statesum import builtin_triangulation
from doubletop.surgery import chain, lens_chain
from oracles import plain

_CATEGORY_DOCS = {name: dump_category(zoo(name)) for name in ("ising", "vec_z3")}


def _numeric_fields(doc):
    """Paths of the numbers a case may replace: qdims, mults, F and R values."""
    paths = [("qdims", i) for i in range(len(doc["qdims"]))]
    paths += [("fusion", i, "mult") for i in range(len(doc["fusion"]))]
    for key in ("sixj", "rsymbols"):
        paths += [(key, i, part) for i in range(len(doc.get(key, [])))
                  for part in ("re", "im")]
    return paths


_CASES = st.sampled_from(sorted(_CATEGORY_DOCS)).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.sampled_from(_numeric_fields(_CATEGORY_DOCS[name]))))


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run_document(doc, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, "doc.json")
        with open(fname, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return _run(*argv, fname)


@settings(derandomize=True, deadline=None, database=None)
@given(case=_CASES, value=st.one_of(st.floats(), st.integers()))
def test_category_with_one_number_replaced(case, value):
    name, path = case
    doc = copy.deepcopy(_CATEGORY_DOCS[name])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, out, err = _run_document(doc, "validate", "--category")
    if code == 0:
        # a document that validates holds finite numbers only
        assert isinstance(value, int) or math.isfinite(value)
        report = json.loads(out)
        assert all(math.isfinite(v) for v in report["residuals"].values())
        assert math.isfinite(report["results"]["lambda"])
    else:
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err


# -- triangulation and plumbing documents ------------------------------------

_TRIANGULATION_DOCS = {name: builtin_triangulation(name).to_dict()
                       for name in ("s3_twotet", "lens_3_1", "s2xs1")}
_PLUMBING_DOCS = {
    "lens_5_2": lens_chain(5, 2).to_dict(),
    "chain": chain([1, -2, 0]).to_dict(),
    "cycle": {"vertices": [{"id": v, "framing": f}
                           for v, f in (("a", 0), ("b", 1), ("c", -1))],
              "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
}

_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-8, 8),
                          st.integers(), st.floats(), st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.dictionaries(st.text(max_size=4), kids,
                                           max_size=4)),
    max_leaves=12)


def _paths(node, prefix=()):
    """Every position in a JSON document: the root and each key or index."""
    yield prefix
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_DELETE = object()


def _mutations(docs):
    return st.sampled_from(sorted(docs)).flatmap(
        lambda name: st.tuples(st.just(name),
                               st.sampled_from(list(_paths(docs[name]))),
                               st.one_of(st.just(_DELETE), _JSON_VALUES)))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return None if value is _DELETE else value
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def _assert_ok_or_named(code, err):
    if code != 0:
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=_mutations(_TRIANGULATION_DOCS))
def test_triangulation_with_one_part_replaced(case):
    name, path, value = case
    doc = _mutated(_TRIANGULATION_DOCS[name], path, value)
    code, _, err = _run_document(doc, "invariant", "--category", "zoo:vec_z2",
                                 "--statesum")
    _assert_ok_or_named(code, err)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=_mutations(_PLUMBING_DOCS))
def test_plumbing_with_one_part_replaced(case):
    name, path, value = case
    doc = _mutated(_PLUMBING_DOCS[name], path, value)
    code, _, err = _run_document(doc, "invariant", "--category", "zoo:vec_z2",
                                 "--surgery")
    _assert_ok_or_named(code, err)


# -- the report writer ---------------------------------------------------------

_WRITER_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10, 300),
    st.just(10 ** 400), st.just(-(10 ** 400)), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.floats().map(np.float64), st.text())
_WRITER_DOCS = st.recursive(
    _WRITER_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.text(), kids, max_size=5),
        st.lists(st.integers(-10, 300), max_size=6),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
        st.lists(st.floats(), max_size=6),
        st.lists(st.floats().map(np.float64), max_size=4),
        st.just([[], {}, [[]], [{}], {"": []}])),
    max_leaves=25)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(doc=_WRITER_DOCS)
@example(doc=[list(range(256)), [-1, 0, 256]])  # the int table and past it
@example(doc={"N": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]],
              "S": [[{"re": 0.5, "im": -0.0}]], "ok": [True, 1, 1.0]})
def test_report_writer_equals_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


# -- array leaves: S, T and N are written straight from their arrays ----------

_INT64 = np.iinfo(np.int64)
_SIGNED = st.sampled_from([np.int8, np.int16, np.int32, np.int64])
_INT_ARRAYS = _SIGNED.flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
    elements=st.one_of(st.integers(-12, 12),
                       st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max))))
_SPECIALS = st.sampled_from([-0.0, 0.0, float("nan"), float("inf"),
                             float("-inf"), 5e-324, 1e22, -1.5])
_COMPLEX_ARRAYS = hnp.arrays(
    np.complex128, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
    elements=st.one_of(st.builds(complex, _SPECIALS, _SPECIALS),
                       st.complex_numbers(allow_nan=False, allow_infinity=False),
                       st.complex_numbers()))
# other dtypes go through tolist() and the list path
_OTHER_ARRAYS = hnp.arrays(
    st.sampled_from([np.uint8, np.uint64, np.float64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(leaf=st.one_of(_INT_ARRAYS, _COMPLEX_ARRAYS, _OTHER_ARRAYS),
       depth=st.integers(0, 2))
@example(leaf=np.array([[_INT64.min, -1], [0, _INT64.max]]), depth=1)
@example(leaf=np.array([-7, 10, 100, -1000, 5, 0]), depth=0)
@example(leaf=np.zeros((2, 0, 3), np.int64), depth=1)
@example(leaf=np.ones((1, 1, 1, 1), np.int32), depth=2)
@example(leaf=np.arange(-3, 9).reshape(3, 4).T, depth=0)  # not C-contiguous
@example(leaf=(np.arange(6) * (1 + 0.5j)).reshape(2, 3).T, depth=0)
@example(leaf=np.array([[-0.0 - 0.0j, 5e-324 + 1e22j], [1j, -1.5 + 0j]]), depth=1)
@example(leaf=np.array([complex("nan+infj"), -0.0j]), depth=0)
def test_report_writer_writes_array_leaves_as_json_dumps(leaf, depth):
    doc = leaf
    for _ in range(depth):
        doc = {"x": [doc, 1], "y": "z"}
    assert _dumps(doc) == json.dumps(doc, indent=2, sort_keys=True, default=plain)
