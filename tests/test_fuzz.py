"""Hypothesis fuzz tests of the document loaders, run through the CLI."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from doubletop.catdata import dump_category, zoo
from doubletop.cli import main

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


@settings(derandomize=True, deadline=None, database=None)
@given(case=_CASES, value=st.one_of(st.floats(), st.integers()))
def test_category_with_one_number_replaced(case, value):
    name, path = case
    doc = copy.deepcopy(_CATEGORY_DOCS[name])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, "doc.json")
        with open(fname, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = _run("validate", "--category", fname)
    if code == 0:
        # a document that validates holds finite numbers only
        assert isinstance(value, int) or math.isfinite(value)
        report = json.loads(out)
        assert all(math.isfinite(v) for v in report["residuals"].values())
        assert math.isfinite(report["results"]["lambda"])
    else:
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
