"""End-to-end runs of the command-line interface."""

import json
import os
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import doubletop
from doubletop.catdata import CategoryData, dump_category, load_category, zoo
from doubletop import cli, modulardata
from doubletop.cli import main
from doubletop.modulardata import STAGES
from doubletop.statesum import builtin_triangulation
from oracles import count_calls, multiplicity_ring_document, plain, vec_s3_document

GOLDEN = (1 + np.sqrt(5)) / 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_zoo_lists(capsys):
    code, doc, _ = run(capsys, "zoo")
    assert code == 0
    res = doc["results"]
    assert {"vec_z2", "vec_z3", "fibonacci", "ising"} <= set(res["categories"])
    assert {"s3", "rp3", "lens_3_1", "t3"} <= set(res["triangulations"])
    assert {"s3", "s2xs1", "lens_2_1", "rp3"} <= set(res["plumbings"])


def test_validate_envelope(capsys):
    code, doc, _ = run(capsys, "validate", "--category", "zoo:fibonacci")
    assert code == 0
    assert doc["command"] == "validate"
    assert doc["argv"] == ["validate", "--category", "zoo:fibonacci"]
    assert doc["category"]["uri"] == "zoo:fibonacci"
    assert doc["category"]["fingerprint"].startswith("sha256:")
    assert doc["residuals"]["pentagon"] < 1e-9
    assert doc["residuals"]["unitarity"] < 1e-9
    assert doc["results"]["pass"] is True
    assert doc["results"]["lambda"] == pytest.approx(2 + GOLDEN)
    assert set(doc["timings_ms"]) == {"load", "residuals"}


def test_validate_tolerance_gate(capsys):
    code, doc, _ = run(capsys, "validate", "--category", "zoo:fibonacci",
                       "--tolerance", "1e-20")
    assert code == 1
    assert doc["status"] == "validation_failure"
    assert doc["results"]["pass"] is False


def test_center_fibonacci(capsys):
    code, doc, _ = run(capsys, "center", "--category", "zoo:fibonacci")
    assert code == 0
    res = doc["results"]
    assert res["dim"] == 7
    assert [b["n"] for b in res["blocks"]] == [1, 1, 1, 2]
    assert res["vacuum_index"] == 0
    assert res["sum_n_squared"] == 7
    assert res["blocks"][0]["qdim"] == pytest.approx(1.0)


def test_modular_data_schema(capsys):
    code, doc, _ = run(capsys, "modular-data", "--category", "zoo:fibonacci")
    assert code == 0
    res = doc["results"]
    assert len(res["S"]) == 4 and len(res["S"][0]) == 4
    assert set(res["S"][0][0]) == {"re", "im"}
    assert len(res["T"]) == 4
    assert res["T"][0]["re"] == pytest.approx(1.0)
    assert res["T"][0]["im"] == pytest.approx(0.0, abs=1e-12)
    N = np.array(res["N"])
    assert N.shape == (4, 4, 4) and (N >= 0).all()
    assert sorted(res["C"]) == [0, 1, 2, 3]
    assert res["lambda"] == pytest.approx(2 + GOLDEN)
    assert res["gauss"]["D"] == pytest.approx(2 + GOLDEN)
    assert res["gauss"]["dp"]["re"] == pytest.approx(2 + GOLDEN)
    assert res["block_dims"] == [1, 1, 1, 2]
    assert doc["residuals"]["verlinde_rounding"] < 1e-6
    assert doc["residuals"]["ST_cubed"] < 1e-8


def test_invariant_surgery(capsys):
    code, doc, _ = run(capsys, "invariant", "--category", "zoo:vec_z3",
                       "--surgery", "builtin:lens_3_1")
    assert code == 0
    res = doc["results"]
    assert res["route"] == "surgery"
    assert res["value"]["re"] == pytest.approx(1.0)
    assert res["value"]["im"] == pytest.approx(0.0, abs=1e-12)
    assert res["sigma"] == 1 and res["m"] == 1
    assert res["largest_step"] == 9
    assert res["two_route_residual"] < 1e-8


def test_invariant_statesum(capsys):
    code, doc, _ = run(capsys, "invariant", "--category", "zoo:vec_z2",
                       "--statesum", "builtin:rp3")
    assert code == 0
    res = doc["results"]
    assert res["route"] == "statesum"
    assert res["value"]["re"] == pytest.approx(1.0)


def test_ising_t3_statesum(capsys):
    code, doc, _ = run(capsys, "invariant", "--category", "zoo:ising",
                       "--statesum", "builtin:t3")
    assert code == 0
    assert doc["results"]["value"]["re"] == pytest.approx(9.0)


def test_compare_example(capsys):
    code, doc, err = run(capsys, "compare", "--category", "zoo:vec_z2",
                         "--statesum", "builtin:rp3",
                         "--surgery", "builtin:lens_2_1")
    assert code == 0
    res = doc["results"]
    assert res["statesum"]["re"] == pytest.approx(1.0)
    assert res["surgery"]["re"] == pytest.approx(1.0)
    assert res["delta"] < 1e-8 and res["pass"] is True
    assert "delta" in err


def test_compare_mismatch_exits_2(capsys):
    code, doc, _ = run(capsys, "compare", "--category", "zoo:vec_z2",
                       "--statesum", "builtin:rp3",
                       "--surgery", "builtin:lens_3_1")
    assert code == 2
    assert doc["status"] == "tolerance_failure"
    assert doc["results"]["delta"] == pytest.approx(0.5)


def test_budget_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "invariant", "--category", "zoo:ising",
                       "--statesum", "builtin:t3", "--budget", "5")
    assert code == 3 and "budget" in err
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": [{"id": i, "framing": 0} for i in range(3)],
        "edges": [[0, 1], [1, 2]]}))
    code, _, err = run(capsys, "invariant", "--category", "zoo:ising",
                       "--surgery", str(path), "--budget", "10")
    assert code == 3 and "budget exceeded" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["invariant", "--category", "zoo:ising", "--statesum", "builtin:t3"],
    ["compare", "--category", "zoo:vec_z2", "--statesum", "builtin:rp3",
     "--surgery", "builtin:lens_2_1"],
    ["selftest"],
], ids=["invariant", "compare", "selftest"])
def test_budget_below_one_is_a_usage_error(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", budget])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument --budget: must be a positive "
                        "integer, got %s\n" % budget)


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf", "1e999"])
@pytest.mark.parametrize("argv", [
    ["validate", "--category", "zoo:fibonacci"],
    ["compare", "--category", "zoo:vec_z2", "--statesum", "builtin:s3",
     "--surgery", "builtin:s3"],
], ids=["validate", "compare"])
def test_tolerance_must_be_finite_and_positive(capsys, argv, tolerance):
    # a nan, negative or zero gate fails every delta and an infinite one
    # passes any: each is a usage error, before any work is done
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tolerance", tolerance])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: argument --tolerance: must be a finite number "
                        "above 0, got %s\n" % tolerance)


def test_tolerance_that_is_no_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--category", "zoo:fibonacci", "--tolerance", "tiny"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --tolerance: invalid float value: 'tiny'\n")


def test_small_tolerance_still_gates(capsys):
    # the smallest positive double is a valid gate; delta = 2.2e-16 fails it
    code, doc, _ = run(capsys, "compare", "--category", "zoo:vec_z2",
                       "--statesum", "builtin:s3", "--surgery", "builtin:s3",
                       "--tolerance", "5e-324")
    assert code == 2 and doc["results"]["tolerance"] == 5e-324


def test_nan_surgery_value_is_a_tolerance_failure(capsys, tmp_path):
    # T ** (-f) overflows at f = 2^62 and both routes come out NaN, which
    # compares false with everything: the gate must not let it through
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [{"id": 0, "framing": 2 ** 62}],
                                "edges": []}))
    code, _, err = run(capsys, "invariant", "--category", "zoo:ising",
                       "--surgery", str(path))
    assert code == 2 and err.startswith("tolerance error: ")
    assert "|diff| = nan" in err


def test_nan_surgery_sum_fails_compare_by_name(capsys, tmp_path):
    # a NaN surgery sum used to reach the report, which is then not JSON
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [{"id": 0, "framing": 2 ** 62}],
                                "edges": []}))
    captured = run(capsys, "compare", "--category", "zoo:ising",
                   "--statesum", "builtin:s3", "--surgery", str(path))
    assert captured == (2, None, "tolerance error: surgery sum (nan+nanj) is not finite\n")


def test_overflowing_framing_leaves_only_the_error_on_stderr(tmp_path):
    # run as a process, so that a numpy RuntimeWarning from T ** (-f) would
    # reach stderr as it does for a user, ahead of the tolerance error
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [{"id": 0, "framing": 2 ** 62}],
                                "edges": []}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(doubletop.__file__)))
    env.pop("PYTHONWARNINGS", None)
    res = subprocess.run([sys.executable, "-m", "doubletop.cli", "invariant",
                          "--category", "zoo:ising", "--surgery", str(path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == ("tolerance error: tau = (nan+nanj) disagrees with the "
                          "surgery sum (nan+nanj) (|diff| = nan)\n")


@pytest.mark.parametrize("argv,code,err", [
    (("modular-data", "--category", "zoo:vec_z4"), 0, ""),
    (("compare", "--category", "zoo:vec_z2", "--statesum", "builtin:rp3",
      "--surgery", "builtin:lens_3_1"), 2,
     "statesum = 1+0j  surgery = 0.5+0j  delta = 5.000e-01\n"),
], ids=["modular-data", "compare-failing"])
def test_closed_stdout_keeps_the_exit_code(argv, code, err):
    # a reader that closed the pipe before the report (| head -1) is no
    # validation failure: no message, and the command's own exit code
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(doubletop.__file__)))
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run([sys.executable, "-m", "doubletop.cli", *argv], stdout=w,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(w)
    assert (res.returncode, res.stderr) == (code, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_other_write_errors_exit_1():
    # a full disk is still an error of the run
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(doubletop.__file__)))
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "doubletop.cli", "zoo"], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert res.returncode == 1
    assert res.stderr == "error: [Errno 28] No space left on device\n"


def test_invariant_surgery_on_a_cycle(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "vertices": [{"id": i, "framing": 0} for i in range(3)],
        "edges": [[0, 1], [1, 2], [0, 2]]}))
    code, doc, _ = run(capsys, "invariant", "--category", "zoo:vec_z2",
                       "--surgery", str(path))
    assert code == 0
    # 2^b1 * #{x in Z_2^3 : B x = 0} / 2 with b1 = 1 and x = (t, t, t)
    assert doc["results"]["value"]["re"] == pytest.approx(2.0)


def test_bad_inputs_exit_1(capsys):
    code, _, err = run(capsys, "validate", "--category", "/no/such/file.json")
    assert code == 1 and "No such file" in err
    code, _, err = run(capsys, "validate", "--category", "zoo:octonions")
    assert code == 1 and "unknown zoo name" in err
    code, _, err = run(capsys, "invariant", "--category", "zoo:vec_z2",
                       "--statesum", "builtin:nope")
    assert code == 1 and "unknown builtin" in err


@pytest.mark.parametrize("name", ["vec_z+3", "vec_z 3", "vec_z3 ", "vec_z3_0",
                                  "vec_z\u0663", "vec_z03", "vec_z00", "vec_z-1",
                                  "vec_z", "vec_z" + "1" * 5000],
                         ids=["plus", "space", "trailing-space", "underscore",
                              "arabic-indic-digit", "leading-zero", "two-zeros",
                              "minus", "empty", "5000-digits"])
def test_noncanonical_zoo_names_exit_1(capsys, name):
    # int() reads most of these as a number; only str(N) itself names vec_zN
    code, out, err = run(capsys, "modular-data", "--category", "zoo:" + name)
    assert code == 1 and out is None
    assert err.startswith("error: unknown zoo name") and "Traceback" not in err


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 10.9 GiB for an array with shape "
                 "(30, 30, 30, 30, 30, 30, 1, 1, 1, 1) and data type complex128"),
     "memory error: Unable to allocate 10.9 GiB for an array with shape "
     "(30, 30, 30, 30, 30, 30, 1, 1, 1, 1) and data type complex128\n"),
    (MemoryError(), "memory error: out of memory\n"),
], ids=["numpy", "bare"])
def test_memory_exhaustion_exits_3_with_one_line(capsys, monkeypatch, exc, line):
    # zoo("vec_z30") needs a 10.9 GiB F; the loader raises as it would
    def exhausted(name):
        raise exc
    monkeypatch.setattr(cli, "zoo", exhausted)
    code, out, err = run(capsys, "modular-data", "--category", "zoo:vec_z30")
    assert code == 3 and out is None and err == line


@pytest.mark.parametrize("nmod", [10 ** 7, 500, 10 ** 21])
def test_oversized_vec_zn_fails_fast(nmod):
    # F has nmod**6 entries: numpy refuses it (past its index range, or 222
    # PiB at 500) before any list of nmod labels or nmod**3 F-entries is built
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(doubletop.__file__)))
    res = subprocess.run([sys.executable, "-m", "doubletop.cli", "modular-data",
                          "--category", "zoo:vec_z%d" % nmod],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr.startswith("memory error: ") and res.stderr.count("\n") == 1


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    parsers = []
    parse = cli._Parser.parse_args
    monkeypatch.setattr(cli._Parser, "parse_args",
                        lambda self, *a: (parsers.append(self), parse(self, *a))[1])
    for _ in range(2):
        assert run(capsys, "zoo")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # a usage error after a successful call still exits 1 with its message
    with pytest.raises(SystemExit) as exc:
        main(["modular-data"])
    assert exc.value.code == 1
    assert "the following arguments are required: --category" in capsys.readouterr().err
    assert run(capsys, "validate", "--category", "zoo:ising")[0] == 0


def _fibonacci_with_fusion_index_7():
    doc = dump_category(zoo("fibonacci"))
    doc["fusion"][0]["k"] = 7
    return doc


def _fibonacci_with_string_qdim():
    doc = dump_category(zoo("fibonacci"))
    doc["qdims"][1] = "golden"
    return doc


def _fibonacci_with_fractional_mult():
    doc = dump_category(zoo("fibonacci"))
    doc["fusion"][-1]["mult"] = 1.5
    return doc


def _vec_s3_with_one_r_symbol():
    # Vec(S3) is a category, but its fusion ring does not commute
    doc = vec_s3_document()
    doc["rsymbols"] = [{"a": 1, "b": 1, "c": doc["fusion"][7]["k"], "re": 1.0}]
    return doc


def _ising_with_nan(field):
    doc = dump_category(zoo("ising"))
    if field == "qdims":
        doc["qdims"][1] = float("nan")
    else:
        doc[field][0]["re"] = float("nan")
    return doc


def _ising_with_sigma_sigma_psi_mult(mult):
    doc = dump_category(zoo("ising"))
    ent = next(e for e in doc["fusion"] if (e["i"], e["j"], e["k"]) == (1, 1, 2))
    ent["mult"] = mult
    return doc


def _ising_without_r_symbol(key=(1, 1, 0)):
    doc = dump_category(zoo("ising"))
    doc["rsymbols"] = [e for e in doc["rsymbols"] if (e["a"], e["b"], e["c"]) != key]
    return doc


def _multiplicity_ring_with_r_symbol():
    doc = multiplicity_ring_document()
    doc["rsymbols"] = [{"a": 1, "b": 1, "c": 0, "re": 1.0}]
    return doc


_CATEGORY = ["validate", "--category"]
_STATESUM = ["invariant", "--category", "zoo:vec_z2", "--statesum"]
_SURGERY = ["invariant", "--category", "zoo:vec_z2", "--surgery"]
_S3_TWOTET = builtin_triangulation("s3_twotet").to_dict()


def _s3_twotet_with_face(face):
    doc = json.loads(json.dumps(_S3_TWOTET))
    doc["gluings"][0][1][1] = face
    return doc


def _edited(doc, *path, value):
    """A copy of doc with the entry at path set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_ISING = dump_category(zoo("ising"))
_FIBONACCI = dump_category(zoo("fibonacci"))


def _with_repeat(doc, field, changes):
    """A copy of doc whose `field` list starts with a copy of its first
    entry, edited by `changes`, so that the original entry comes last."""
    doc = json.loads(json.dumps(doc))
    doc[field].insert(0, dict(doc[field][0], **changes))
    return doc


def _sixj_with_label(slot, label):
    doc = json.loads(json.dumps(_FIBONACCI))
    doc["sixj"][0]["labels"][slot] = label
    return doc


def _s3_with_false_for_0():
    doc = builtin_triangulation("s3").to_dict()
    for tet in doc["tets"]:
        tet["v"] = [False if v == 0 else v for v in tet["v"]]
    return doc


def _s3_with_string_vertices():
    # "1234" would read as the vertex ids '1', '2', '3', '4'
    doc = builtin_triangulation("s3").to_dict()
    for tet in doc["tets"]:
        tet["v"] = "".join(map(str, tet["v"]))
    return doc


_CLASP = [{"id": "a", "framing": 1}, {"id": "b", "framing": 1}]
# list-valued fields given as strings or objects: each used to load, read
# as its characters or its keys
_NOT_LISTS = [
    (_STATESUM, _s3_with_string_vertices(), "triangulation document: tetrahedron v"),
    (_STATESUM, {"tets": {}}, "triangulation document: tets"),
    (_SURGERY, {"vertices": _CLASP, "edges": ["ab"]}, "plumbing document: edge"),
    (_SURGERY, {"vertices": _CLASP, "edges": {"ab": 7}}, "plumbing document: edges"),
    (_SURGERY, {"vertices": {}, "edges": []}, "plumbing document: vertices"),
    (_CATEGORY, _edited(_ISING, "sixj", 0, "labels", value=5), "category document: sixj labels"),
    (_CATEGORY, _edited(_ISING, "sixj", 0, "basis", value=5), "category document: sixj basis"),
    (_CATEGORY, _edited(_ISING, "sixj", 0, "basis", value="0000"),
     "category document: sixj basis"),
    (_CATEGORY, _edited(_FIBONACCI, "fusion", value={"i": 0}), "category document: fusion"),
    (_CATEGORY, _edited(_FIBONACCI, "fusion", value={}), "category document: fusion"),
    (_CATEGORY, _edited(_FIBONACCI, "labels", value={"a": 1}), "category document: labels"),
    (_CATEGORY, _edited(_FIBONACCI, "sixj", value="ab"), "category document: sixj"),
    (_CATEGORY, _edited(_FIBONACCI, "sixj", value=None), "category document: sixj"),
    (_CATEGORY, _edited(_FIBONACCI, "sixj", value={}), "category document: sixj"),
    (_CATEGORY, _edited(_FIBONACCI, "rsymbols", value={"a": 1}),
     "category document: rsymbols"),
    (_CATEGORY, _edited(_FIBONACCI, "rsymbols", value={}), "category document: rsymbols"),
]
_NOT_LIST_IDS = ["triangulation-string-v", "triangulation-object-tets",
                 "plumbing-string-edge", "plumbing-object-edges",
                 "plumbing-object-vertices", "category-int-sixj-labels",
                 "category-int-sixj-basis", "category-string-sixj-basis",
                 "category-object-fusion", "category-empty-object-fusion",
                 "category-object-labels", "category-string-sixj", "category-null-sixj",
                 "category-empty-object-sixj", "category-object-rsymbols",
                 "category-empty-object-rsymbols"]


@pytest.mark.parametrize("argv,doc", [
    (_CATEGORY, [1, 2]),
    (_CATEGORY, _fibonacci_with_string_qdim()),
    (_CATEGORY, _fibonacci_with_fusion_index_7()),
    (_STATESUM, {"tets": [{"v": [0, 1, 2]}, {"v": [0, 1, 2, 3], "sign": -1}]}),
    (_STATESUM, [1]),
    (_STATESUM, {"tets": [{"v": [0, 1, 2, 3], "sign": "a"}]}),
    (_STATESUM, {"tets": [{"sign": 1}], "gluings": [[0, 0]]}),
    (_SURGERY, {"vertices": [{"id": 0, "framing": 1}], "edges": [[0]]}),
    (_SURGERY, {"vertices": [{"id": 0, "framing": "x"}], "edges": []}),
    (_SURGERY, {"vertices": [{"id": [1], "framing": 1}], "edges": []}),
    (_SURGERY, {"vertices": [{"id": 0, "framing": 1}, {"id": 1, "framing": 1}],
                "edges": [[0, [1]]]}),
    (_STATESUM, {"tets": [{"v": [0, 1, 2, "x"]}]}),
    (_CATEGORY, _fibonacci_with_fractional_mult()),
    (_CATEGORY, _vec_s3_with_one_r_symbol()),
    (_CATEGORY, _multiplicity_ring_with_r_symbol()),
    (_STATESUM, {"tets": [{"v": [[0]] * 4, "sign": 1}, {"v": [[0]] * 4, "sign": -1}],
                 "gluings": [[[0, f], [1, f]] for f in range(4)]}),
    (_CATEGORY, _ising_with_nan("sixj")),
    (_CATEGORY, _ising_with_nan("qdims")),
    (_CATEGORY, _ising_with_nan("rsymbols")),
    # rejected by the ring checks before any F-block of that size is built
    (_CATEGORY, _ising_with_sigma_sigma_psi_mult(10 ** 8)),
    (_CATEGORY, _ising_with_sigma_sigma_psi_mult(10 ** 19)),
    (_CATEGORY, _ising_without_r_symbol()),
    (_STATESUM, _s3_twotet_with_face("1")),
    (_STATESUM, _s3_twotet_with_face(1.0)),
    (_STATESUM, dict(_S3_TWOTET, vertices=[2])),
    (_STATESUM, dict(_S3_TWOTET, vertices=float("nan"))),
    (_SURGERY, {"vertices": [{"id": 0, "framing": 10 ** 20}], "edges": []}),
    # JSON booleans where an integer is wanted: true would pass as 1, false as 0
    (_SURGERY, {"vertices": [{"id": 0, "framing": True}], "edges": []}),
    (_SURGERY, {"vertices": [{"id": True, "framing": 1}], "edges": []}),
    (_STATESUM, _edited(_S3_TWOTET, "tets", 0, "sign", value=True)),
    (_STATESUM, _s3_twotet_with_face(True)),
    (_STATESUM, dict(_S3_TWOTET, vertices=True)),
    (_CATEGORY, _edited(_ISING, "fusion", 1, "mult", value=True)),
    (_CATEGORY, _edited(_ISING, "fusion", 1, "j", value=True)),
    (_CATEGORY, _edited(_ISING, "labels", 1, "id", value=True)),
    (_CATEGORY, _edited(_ISING, "dual", 1, value=True)),
    (_CATEGORY, _edited(_ISING, "sixj", 0, "labels", 0, value=True)),
    (_CATEGORY, _edited(_ISING, "sixj", 0, "basis", 0, value=False)),
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "a", value=True)),
    # an integral number reads as an int; anything else is a named error
    (_CATEGORY, _edited(_ISING, "dual", 2, value=None)),
    (_CATEGORY, _edited(_ISING, "dual", 2, value="a")),
    (_CATEGORY, _edited(_ISING, "dual", 2, value=1.5)),
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "a", value=1.5)),
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "b", value=None)),
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "c", value="a")),
    # JSON booleans as vertex ids: false == 0 would label a vertex class
    (_STATESUM, _edited(_S3_TWOTET, "tets", 1, "v", 3, value=False)),
    (_STATESUM, _s3_with_false_for_0()),
    # strings and booleans where a real number is wanted
    (_CATEGORY, _edited(dump_category(zoo("vec_z2")), "qdims", value=["1", True])),
    (_CATEGORY, _edited(_FIBONACCI, "qdims", 1, value="1.618033988749895")),
    (_CATEGORY, _edited(_FIBONACCI, "sixj", 0, "re", value=True)),
    (_CATEGORY, _edited(_FIBONACCI, "sixj", 0, "re", value="0.5")),
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "im", value=True)),
    # the R-symbol basis is two integral numbers, each 0
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "basis", value=[False, False])),
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "basis", value="ab")),
    (_CATEGORY, _edited(_ISING, "rsymbols", 0, "basis", value=5)),
    # a label tuple listed twice with two values: the last one used to win
    (_CATEGORY, _with_repeat(_ISING, "sixj", {"re": -_ISING["sixj"][0]["re"]})),
    (_CATEGORY, _with_repeat(_ISING, "rsymbols", {"re": 1.0, "im": 0.0})),
    # labels outside 0..n-1 and past int64
    (_CATEGORY, _sixj_with_label(0, 10 ** 30)),
    (_CATEGORY, _sixj_with_label(3, -1)),
    *((argv, doc) for argv, doc, _ in _NOT_LISTS),
], ids=["category-list", "category-string-qdim", "category-fusion-index",
        "triangulation-three-vertices", "triangulation-list",
        "triangulation-string-sign", "triangulation-int-gluing",
        "plumbing-one-element-edge", "plumbing-string-framing",
        "plumbing-list-id", "plumbing-list-endpoint",
        "triangulation-mixed-ids", "category-fractional-mult",
        "category-noncommutative-braided", "category-multiplicity-braided",
        "triangulation-list-ids-with-gluings", "category-nan-sixj",
        "category-nan-qdim", "category-nan-r-symbol", "category-huge-mult",
        "category-mult-beyond-int64", "category-missing-r-symbol",
        "triangulation-string-face", "triangulation-float-face",
        "triangulation-list-vertex-count", "triangulation-nan-vertex-count",
        "plumbing-framing-beyond-int64", "plumbing-bool-framing", "plumbing-bool-id",
        "triangulation-bool-sign", "triangulation-bool-face",
        "triangulation-bool-vertex-count", "category-bool-mult",
        "category-bool-fusion-label", "category-bool-id", "category-bool-dual",
        "category-bool-sixj-label", "category-bool-sixj-basis",
        "category-bool-r-symbol-label", "category-null-dual",
        "category-string-dual", "category-fractional-dual",
        "category-fractional-r-symbol-label", "category-null-r-symbol-label",
        "category-string-r-symbol-label", "triangulation-bool-vertex-id",
        "triangulation-bool-vertex-id-s3", "category-string-and-bool-qdims",
        "category-numeric-string-qdim", "category-bool-sixj-re",
        "category-string-sixj-re", "category-bool-r-symbol-im",
        "category-bool-r-symbol-basis", "category-string-r-symbol-basis",
        "category-int-r-symbol-basis", "category-differing-sixj-repeat",
        "category-differing-r-symbol-repeat", "category-sixj-label-beyond-int64",
        "category-negative-sixj-label", *_NOT_LIST_IDS])
def test_malformed_documents_exit_1(capsys, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, None)
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("doc,field", [
    (_edited(dump_category(zoo("vec_z2")), "qdims", value=["1", True]), "qdims"),
    (_edited(_FIBONACCI, "sixj", 0, "re", value=True), "sixj re and im"),
    (_edited(_FIBONACCI, "sixj", 0, "im", value=None), "sixj re and im"),
    (_edited(_ISING, "rsymbols", 0, "im", value=True), "R-symbol re and im"),
], ids=["qdims", "sixj-re", "sixj-im", "r-symbol-im"])
def test_real_fields_name_themselves(capsys, tmp_path, doc, field):
    # a string or boolean real is refused by name, before any check that
    # reads its value: "1" and true used to load as 1.0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--category", str(path))
    assert (code, out) == (1, None)
    assert err == "error: %s must be real numbers\n" % field


@pytest.mark.parametrize("argv,doc,field", _NOT_LISTS, ids=_NOT_LIST_IDS)
def test_list_fields_name_themselves(capsys, tmp_path, argv, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, None)
    assert err == "error: malformed %s must be a JSON list\n" % field


@pytest.mark.parametrize("rsymbols", [None, [], "absent"])
def test_no_r_symbols_may_be_absent_null_or_empty(tmp_path, rsymbols):
    doc = json.loads(json.dumps(_FIBONACCI))
    if rsymbols == "absent":
        del doc["rsymbols"]
    else:
        doc["rsymbols"] = rsymbols
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert load_category(str(path)).R is None


def _without(doc, *path):
    """A copy of doc with the field at path removed."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


@pytest.mark.parametrize("argv,doc,want", [
    (_CATEGORY, _without(_ISING, "labels"), "category document: missing field 'labels'"),
    (_CATEGORY, _without(_ISING, "fusion"), "category document: missing field 'fusion'"),
    (_CATEGORY, _without(_ISING, "sixj", 0, "re"), "category document: missing field 're'"),
    (_CATEGORY, _without(_ISING, "labels", 1, "name"), "category document: missing field 'name'"),
    (_STATESUM, _without(_S3_TWOTET, "tets"), "triangulation document: missing field 'tets'"),
    (_SURGERY, _without({"vertices": _CLASP, "edges": []}, "vertices", 0, "framing"),
     "plumbing document: missing field 'framing'"),
    (_SURGERY, {"vertices": _CLASP}, "plumbing document: missing field 'edges'"),
], ids=["category-labels", "category-fusion", "category-sixj-re", "category-label-name",
        "triangulation-tets", "plumbing-framing", "plumbing-edges"])
def test_missing_fields_name_themselves(capsys, tmp_path, argv, doc, want):
    # a missing field used to print as its bare quoted key
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, None)
    assert err == "error: malformed %s\n" % want


def test_multiplicity_above_one_exits_1(capsys, tmp_path):
    # x (x) x = 1 + 2x: refused by name at construction, one stderr line
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(multiplicity_ring_document()))
    code, out, err = run(capsys, "validate", "--category", str(path))
    assert (code, out) == (1, None)
    assert err == ("error: fusion multiplicity N[1,1,1] = 2 is above 1: only "
                   "multiplicity-free fusion rings are supported\n")


def _huge(doc, part, entries):
    for i, (re, im) in enumerate(entries):
        doc[part][i]["re"], doc[part][i]["im"] = re, im
    return doc


@pytest.mark.parametrize("entries,part,want", [
    ([(1e200, 0.0)], "sixj", "F-block (1,1,1;1) not unitary: residual inf"),
    # every entry of F^{sigma sigma sigma}_sigma huge and complex: inf - inf
    # makes the unitarity residual nan, which must fail the gate as well
    ([(1e200, 1e200), (1e200, -1e200), (-1e200, 1e200), (1e200, 1e200)], "sixj",
     "F-block (1,1,1;1) not unitary: residual nan"),
    ([(1e200, 0.0)], "rsymbols", "hexagon residual inf above tolerance"),
], ids=["f-inf", "f-nan", "r-inf"])
def test_overflowing_symbols_leave_only_the_error_on_stderr(tmp_path, entries, part, want):
    # the validation products overflow on huge finite symbols; run as a
    # process, so that a numpy RuntimeWarning would reach stderr as it does
    # for a user, ahead of the named error
    path = tmp_path / "ising.json"
    path.write_text(json.dumps(_huge(dump_category(zoo("ising")), part, entries)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(doubletop.__file__)))
    env.pop("PYTHONWARNINGS", None)
    res = subprocess.run([sys.executable, "-m", "doubletop.cli", "validate",
                          "--category", str(path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "error: %s\n" % want


@pytest.mark.parametrize("doc,named", [
    (_vec_s3_with_one_r_symbol(), "noncommutative fusion ring"),
    (_multiplicity_ring_with_r_symbol(), "multiplicity-free fusion ring"),
    (_ising_without_r_symbol(), "missing R-symbol at (1,1,0)"),
])
def test_r_symbols_name_the_ring_they_need(capsys, tmp_path, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--category", str(path))
    assert code == 1 and named in err


@pytest.mark.parametrize("field,named", [
    ("sixj", "non-finite F-symbol in block (1,1,1;1)"),
    ("qdims", "non-finite quantum dimension at label 1"),
    ("rsymbols", "non-finite R-symbol at (1,1,0)"),
])
@pytest.mark.parametrize("argv", [
    ["validate", "--category"],
    ["modular-data", "--category"],
    ["invariant", "--statesum", "builtin:s3", "--category"],
])
def test_non_finite_numbers_are_named(capsys, tmp_path, field, named, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_ising_with_nan(field)))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out is None
    assert err == "error: %s\n" % named


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "--category", "zoo:vec_z2"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()
    # --workers did nothing and --strict-trees refused valid plumbings: gone
    for extra in (["--workers", "1"], ["--strict-trees"]):
        for argv in (["invariant", "--category", "zoo:ising",
                      "--statesum", "builtin:t3"],
                     ["compare", "--category", "zoo:vec_z2", "--statesum",
                      "builtin:rp3", "--surgery", "builtin:lens_2_1"],
                     ["selftest"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra)
            assert exc.value.code == 1
            assert extra[0] in capsys.readouterr().err


def test_selftest_computes_S_once_per_category(capsys, monkeypatch):
    # 12 modular-data pipelines; the pants criterion reads their S, not a new one
    calls = []
    compute_S = modulardata.compute_S
    for mod in (modulardata, cli):  # every module that may hold the name
        if hasattr(mod, "compute_S"):
            monkeypatch.setattr(mod, "compute_S",
                                lambda *args: calls.append(1) or compute_S(*args))
    code, _, _ = run(capsys, "selftest")
    assert code == 0
    assert len(calls) == 12


def _stretched_pants(alg, dec, irreps, E):
    # the composition law would catch a stretched E first
    E = E.copy()
    E[-1] *= 1.5
    return modulardata.pants_dims(alg, dec, irreps, E)


_block_irreps = modulardata.block_irreps


def _stretched_irreps(alg, dec):
    V, lab = _block_irreps(alg, dec)
    V[-1] *= 1.5
    return V, lab


@pytest.mark.parametrize("name, broken, detail", [
    ("half_braiding_multiplicativity", lambda *args: 1.0,
     "vec_z2: half-braiding composition law fails at 1.000e+00"),
    ("pants_dims", lambda *args: np.zeros((4, 4, 4), dtype=np.int64),
     "vec_z2: pants dims differ from Verlinde fusion"),
    ("pants_dims", _stretched_pants,
     "vec_z2: pants trace for (0,3,3) is 5.000e-01 from an integer"),
    ("block_irreps", _stretched_irreps,
     "vec_z2: half-braiding (3, strand 0, charge 1) is not unitary (4.062e+00)"),
], ids=["composition-law", "pants-dims", "pants-trace", "unitarity"])
def test_pants_criterion_fails_by_name(capsys, monkeypatch, name, broken, detail):
    # the half-braiding route runs in criterion 5 only; a broken step is a
    # named FAIL of that criterion, not a traceback
    monkeypatch.setattr(cli if name == "pants_dims" else modulardata, name, broken)
    monkeypatch.setattr(cli, "SELFTEST_CRITERIA", (
        (5, "pants equals verlinde", cli._crit_pants_equals_verlinde),))
    code, doc, err = run(capsys, "selftest")
    assert code == 2 and doc["status"] == "tolerance_failure"
    assert doc["results"]["criteria"] == [
        {"id": 5, "name": "pants equals verlinde", "pass": False, "detail": detail}]
    assert err == "[ 5/12] FAIL pants equals verlinde (%s)\n" % detail


def test_modular_data_reports_its_stages(capsys):
    code, doc, _ = run(capsys, "modular-data", "--category", "zoo:ising")
    assert code == 0
    assert set(doc["timings_ms"]) == {"load", *STAGES}


@pytest.mark.parametrize("name", ["vec_z%d" % k for k in range(3, 13)] + ["vec_s3"])
def test_qdims_and_projections_are_exact(capsys, monkeypatch, tmp_path, name):
    # the center's projections come out purified: idempotent and self-adjoint
    # to rounding, so the quantum dimensions (1, 2 or 3 here) are exact to
    # 2e-15 in the decomposition and in the report.  Raw spectral projectors
    # missed idempotency by 1.2e-13 and qdims by 3.0e-13 (vec_z6)
    category = "zoo:" + name
    if name == "vec_s3":
        category = tmp_path / "vec_s3.json"
        category.write_text(json.dumps(vec_s3_document()))
    mds = []

    def kept(cat):
        mds.append(modulardata.compute_modular_data(cat))
        return mds[-1]

    monkeypatch.setattr(cli, "compute_modular_data", kept)
    code, doc, _ = run(capsys, "modular-data", "--category", str(category))
    assert code == 0
    alg, dec = mds[0].alg, mds[0].dec
    for qdims in (dec.qdims, doc["results"]["qdims"]):
        assert np.max(np.abs(np.subtract(qdims, np.round(qdims)))) <= 2e-15
    for pi in dec.projections:
        assert np.max(np.abs(alg.product(pi, pi) - pi)) <= 1e-15
        assert np.max(np.abs(alg.star(pi) - pi)) <= 1e-15


def test_center_reports_its_stages(capsys):
    # the associativity check is its own stage, not time outside any stage
    code, doc, _ = run(capsys, "center", "--category", "zoo:ising")
    assert code == 0
    assert set(doc["timings_ms"]) == {"load", "tube", "center", "associativity"}


@pytest.mark.parametrize("argv, stages", [
    (("invariant", "--statesum", "builtin:rp3"), ["triangulation", "state_sum"]),
    (("invariant", "--surgery", "builtin:rp3"), [*STAGES, "plumbing", "surgery"]),
    (("compare", "--statesum", "builtin:rp3", "--surgery", "builtin:rp3"),
     ["triangulation", "state_sum", *STAGES, "plumbing", "surgery"]),
])
def test_two_route_commands_report_their_stages(capsys, argv, stages):
    # the triangulation load is its own stage, never part of state_sum
    code, doc, _ = run(capsys, argv[0], "--category", "zoo:vec_z2", *argv[1:])
    assert code == 0
    assert set(doc["timings_ms"]) == {"load", *stages}


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("center",),
    ("modular-data",),
    ("invariant", "--statesum", "builtin:rp3"),
    ("compare", "--statesum", "builtin:rp3", "--surgery", "builtin:rp3"),
], ids=lambda argv: argv[0])
def test_fingerprint_is_timed_in_load(capsys, monkeypatch, argv):
    # the category block's fingerprint is part of the load stage, not time
    # outside any stage
    fingerprint = CategoryData.fingerprint

    def slow(cat):
        time.sleep(0.03)
        return fingerprint(cat)

    monkeypatch.setattr(CategoryData, "fingerprint", slow)
    code, doc, _ = run(capsys, argv[0], "--category", "zoo:vec_z2", *argv[1:])
    assert code == 0
    assert doc["timings_ms"]["load"] >= 30


def test_report_determinism(capsys):
    docs = []
    for _ in range(2):
        code, doc, _ = run(capsys, "modular-data", "--category", "zoo:vec_z2")
        assert code == 0
        doc.pop("timings_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_selftest_passes(capsys):
    code, doc, err = run(capsys, "selftest")
    assert code == 0
    res = doc["results"]
    assert res["total"] == 12 and res["passed"] == 12 and res["failed"] == 0
    assert all(row["pass"] for row in res["criteria"])
    assert err.count("PASS") == 12
    assert len(doc["timings_ms"]) == 12


def _short_selftest(monkeypatch):
    """A selftest of one passing and one failing criterion, so that the
    report of a failing run is written without running the real twelve."""
    monkeypatch.setattr(cli, "SELFTEST_CRITERIA", (
        (1, "passes", lambda ctx: (True, "ok")),
        (2, "fails", lambda ctx: (False, "worst %.3e" % float("nan"))),
    ))
    return ("selftest",)


@pytest.mark.parametrize("argv,want", [
    (("zoo",), 0),
    (("validate", "--category", "zoo:ising"), 0),
    (("validate", "--category", "zoo:fibonacci", "--tolerance", "1e-20"), 1),
    (("center", "--category", "zoo:vec_z4"), 0),
    (("modular-data", "--category", "zoo:fibonacci"), 0),
    (("modular-data", "--category", "zoo:vec_z5"), 0),
    (("modular-data", "--category", "zoo:vec_z7"), 0),
    (("invariant", "--category", "zoo:ising", "--statesum", "builtin:lens_3_1"), 0),
    (("invariant", "--category", "zoo:vec_z3", "--surgery", "builtin:lens_3_1"), 0),
    (("compare", "--category", "zoo:vec_z2", "--statesum", "builtin:rp3",
      "--surgery", "builtin:lens_2_1"), 0),
    (("compare", "--category", "zoo:vec_z2", "--statesum", "builtin:rp3",
      "--surgery", "builtin:lens_3_1"), 2),
    (_short_selftest, 2),
], ids=["zoo", "validate", "validate-failing", "center", "modular-data-fibonacci",
        "modular-data-vec_z5", "modular-data-vec_z7", "invariant-statesum",
        "invariant-surgery", "compare", "compare-failing", "selftest-failing"])
def test_report_writer_matches_json_dumps(capsys, monkeypatch, argv, want):
    if callable(argv):
        argv = argv(monkeypatch)
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc: (docs.append(doc), emit(doc)))
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == want and len(docs) == 1
    # S, T and N stay arrays in the document; plain gives their lists
    assert out == json.dumps(docs[0], indent=2, sort_keys=True, default=plain) + "\n"


def _passing_selftest(monkeypatch):
    monkeypatch.setattr(cli, "SELFTEST_CRITERIA", ((1, "passes", lambda ctx: (True, "ok")),))
    return ("selftest",)


_CAT = {"category", "residuals"}


@pytest.mark.parametrize("argv,extra,status,want", [
    (("validate", "--category", "zoo:fibonacci"), _CAT, "ok", 0),
    (("validate", "--category", "zoo:fibonacci", "--tolerance", "1e-20"), _CAT,
     "validation_failure", 1),
    (("center", "--category", "zoo:vec_z2"), _CAT, "ok", 0),
    (("modular-data", "--category", "zoo:vec_z2"), _CAT, "ok", 0),
    (("invariant", "--category", "zoo:vec_z2", "--statesum", "builtin:rp3"),
     {"category"}, "ok", 0),
    (("invariant", "--category", "zoo:vec_z2", "--surgery", "builtin:rp3"),
     {"category"}, "ok", 0),
    (("compare", "--category", "zoo:vec_z2", "--statesum", "builtin:rp3",
      "--surgery", "builtin:lens_2_1"), {"category"}, "ok", 0),
    (("compare", "--category", "zoo:vec_z2", "--statesum", "builtin:rp3",
      "--surgery", "builtin:lens_3_1"), {"category"}, "tolerance_failure", 2),
    (("zoo",), set(), "ok", 0),
    (_passing_selftest, set(), "ok", 0),
    (_short_selftest, set(), "tolerance_failure", 2),
], ids=["validate", "validate-failing", "center", "modular-data", "invariant-statesum",
        "invariant-surgery", "compare", "compare-failing", "zoo", "selftest",
        "selftest-failing"])
def test_every_command_writes_one_envelope(capsys, monkeypatch, argv, extra, status, want):
    if callable(argv):
        argv = argv(monkeypatch)
    code, doc, _ = run(capsys, *argv)
    assert set(doc) == {"command", "argv", "status", "timings_ms", "results"} | extra
    assert (doc["command"], doc["argv"]) == (argv[0], list(argv))
    assert (doc["status"], code) == (status, want)
    if "category" in extra:
        assert doc["category"]["uri"] == argv[2]
        assert "load" in doc["timings_ms"]
    else:
        assert "load" not in doc["timings_ms"]


def test_modular_data_report_is_written_from_its_arrays(capsys, monkeypatch):
    # no json.dumps fallback, and no _dumps call per entry of S, T or N
    def fallback(*args, **kwargs):
        raise AssertionError("json.dumps fallback reached")
    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=fallback))
    calls = count_calls(monkeypatch, cli, "_dumps")
    counts = []
    for name in ("vec_z3", "vec_z7"):
        calls.clear()
        code, doc, _ = run(capsys, "modular-data", "--category", "zoo:" + name)
        assert code == 0 and len(doc["results"]["N"]) == int(name[5:]) ** 2
        counts.append(len(calls))
    assert counts[0] == counts[1]
