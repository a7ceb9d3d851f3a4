"""Command-line entry point.

Wires the pipeline validate -> center -> modular-data -> invariant/compare
behind one executable with machine-readable JSON reports on stdout and
diagnostics on stderr.  Exit codes: 0 success, 1 validation failure,
2 tolerance failure, 3 budget exceeded or out of memory.

Reports serialize deterministically (sorted keys, fixed block order, fixed
seeds); the wall-clock ``timings_ms`` field is the only value that varies
between identical runs.
"""

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .catdata import (
    CategoryError,
    global_dim,
    load_category,
    zoo,
)
from .modulardata import (
    ModularDataError,
    _stage,
    braiding_st,
    checked_half_braidings,
    compute_modular_data,
    group_double_oracle,
    match_blocks,
    pants_dims,
)
from .statesum import (
    BUILTIN_TRIANGULATIONS,
    BudgetError,
    TriangulationError,
    builtin_triangulation,
    cyclic_group_table,
    dw_oracle,
    load_triangulation,
    state_sum,
)
from .surgery import (
    BUILTIN_PLUMBINGS,
    SurgeryError,
    ToleranceError,
    blow_down,
    blow_up,
    builtin_plumbing,
    chain,
    evaluate,
    lens_chain,
    load_plumbing,
    modular_tau,
    random_plumbing,
    surgery_invariant,
)
from .tube import (
    CenterError,
    TubeError,
    build_tube_algebra,
    center_decompose,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2
EXIT_BUDGET = 3  # a resource ran out: the contraction budget or memory

ZOO_NAMES = ("vec_z2", "vec_z3", "fibonacci", "ising")


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures, not argparse's default code 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_VALIDATION)


def _positive(cast, rule):
    """argparse type of --budget and --tolerance: a number above 0, not inf or nan."""
    def parse(text):
        value = cast(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError("must be %s, got %s" % (rule, text))
        return value
    parse.__name__ = cast.__name__  # argparse's ValueError message names the type
    return parse


_positive_int = _positive(int, "a positive integer")
_tolerance = _positive(float, "a finite number above 0")


def _c(z):
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _load_category_arg(uri):
    """The category a --category URI names, and its report block."""
    cat = zoo(uri[len("zoo:"):]) if uri.startswith("zoo:") else load_category(uri)
    return cat, {"uri": uri, "fingerprint": "sha256:" + cat.fingerprint()}


def _load_triangulation_arg(uri):
    if uri.startswith("builtin:"):
        return builtin_triangulation(uri[len("builtin:"):])
    return load_triangulation(uri)


def _load_plumbing_arg(uri):
    if uri.startswith("builtin:"):
        return builtin_plumbing(uri[len("builtin:"):])
    return load_plumbing(uri)


def _nested(shape, pad, cells):
    """json.dumps(indent=2) of a nested list of this shape at indent pad,
    whose entries are the rows of cells (ASCII bytes; NUL bytes dropped)."""
    k, n = len(shape), len(cells)
    ind = [pad + "  " * j for j in range(k + 1)]
    # after each entry, the code byte 0x80 + the number of axes that end there
    codes = np.full((n, 1), 0x80, np.uint8)
    step = 1
    for m in reversed(shape):
        step *= m
        codes[step - 1::step] += 1
    data = "".join("[\n" + i for i in ind[1:]).encode()
    data += np.hstack((cells, codes)).tobytes().replace(b"\0", b"")
    for c in range(k, -1, -1):  # the rare codes first, while data is short
        sep = "".join("\n" + ind[k - j] + "]" for j in range(1, c + 1))
        if c < k:
            sep += ("," + "".join("\n" + ind[k - j] + "[" for j in range(c, 0, -1))
                    + "\n" + ind[k])
        data = data.replace(bytes([0x80 + c]), sep.encode())
    return data.decode("ascii")


def _int_array(a, pad):
    """A nonempty signed-int array: the digits of all entries at once."""
    shape, a = a.shape, a.reshape(-1).astype(np.int64, copy=False)
    mag = np.abs(a).view(np.uint64)  # abs(-2**63) wraps, and reads as 2**63
    width = len(str(int(mag.max())))
    sign = int((a < 0).any())
    cells = np.zeros((a.size, sign + width), np.uint8)
    if sign:
        cells[:, 0] = np.where(a < 0, ord("-"), 0)
    ten = np.uint64(10)
    for j in range(width):
        p = ten ** np.uint64(j)
        # uint64 division is slow; single digits (as in most N) need none
        digit = (mag // p % ten if width > 1 else mag) + ord("0")
        cells[:, -1 - j] = np.where(mag >= p, digit, 0) if j else digit
    return _nested(shape, pad, cells)


def _complex_array(z, pad):
    """A nonempty finite complex array: {"im", "re"} dicts, one template."""
    ind = pad + "  " * z.ndim
    entry = '{\n%s  "im": %%s,\n%s  "re": %%s\n%s}' % (ind, ind, ind)
    cells = np.broadcast_to(np.frombuffer(entry.encode(), np.uint8),
                            (z.size, len(entry)))
    # S repeats few values (315 of 4 802 at vec_z7): repr each bit pattern once
    bits, which = np.unique(np.stack((z.imag, z.real), -1).view(np.int64),
                            return_inverse=True)
    reprs = list(map(float.__repr__, bits.view(np.float64).tolist()))
    values = tuple(map(reprs.__getitem__, which.ravel().tolist()))
    return _nested(z.shape, pad, cells) % values


def _dumps(o, pad=""):
    """json.dumps(o, indent=2, sort_keys=True), where a numpy array stands
    for its nested lists, with complex entries as {"re", "im"} dicts.

    Str-keyed dicts, str, int, finite float and lists of them are written
    here; a list of only ints or only finite floats is joined at C level.
    Nonempty signed-int arrays and finite complex arrays (S, T and N) are
    written straight from their arrays, with no list or dict per entry;
    other arrays become lists first.  Everything else (bool, None, NaN,
    infinities, subclasses such as np.float64, empty containers) goes to
    json.dumps, re-indented to its depth."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is float and math.isfinite(o):
        return float.__repr__(o)
    if t is np.ndarray:
        kind = o.dtype.kind
        if o.ndim and o.size and kind == "i":
            return _int_array(o, pad)
        if o.ndim and o.size and kind == "c" and np.isfinite(o).all():
            return _complex_array(o, pad)
        if kind != "c" or not o.ndim:
            return _dumps(o.tolist(), pad)
        return _dumps([_c(z) for z in o] if o.ndim == 1 else list(o), pad)
    inner = pad + "  "
    if t is dict and o and set(map(type, o)) == {str}:
        return "{\n%s\n%s}" % (",\n".join([
            inner + encode_basestring_ascii(k) + ": " + _dumps(v, inner)
            for k, v in sorted(o.items())]), pad)
    if (t is list or t is tuple) and o:
        kinds = set(map(type, o))
        sep = ",\n" + inner
        if kinds == {int}:
            body = sep.join(map(int.__repr__, o))
        elif kinds == {float} and all(map(math.isfinite, o)):
            body = sep.join(map(float.__repr__, o))
        else:
            body = sep.join([_dumps(v, inner) for v in o])
        return "[\n%s%s\n%s]" % (inner, body, pad)
    # json.dumps escapes newlines inside strings, so each "\n" is a line break
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _emit(doc):
    """Print doc byte-identical to json.dumps(indent=2, sort_keys=True)."""
    try:
        print(_dumps(doc), flush=True)
    except BrokenPipeError:  # read by `| head -1`: keep the exit quiet and its code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _envelope(command, argv, timings, category=None, residuals=None,
              results=None, status="ok"):
    doc = {
        "command": command,
        "argv": list(argv),
        "status": status,
        "timings_ms": timings,
    }
    if category is not None:
        doc["category"] = category
    if residuals is not None:
        doc["residuals"] = {k: float(v) for k, v in residuals.items()}
    if results is not None:
        doc["results"] = results
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args, argv):
    timings = {}
    with _stage(timings, "load"):
        cat, block = _load_category_arg(args.category)
    with _stage(timings, "residuals"):
        residuals = dict(cat.residuals)
    ok = all(v < args.tolerance for v in residuals.values())
    results = {
        "labels": list(cat.names),
        "rank": cat.n,
        "lambda": global_dim(cat),
        "tolerance": args.tolerance,
        "pass": ok,
    }
    _emit(_envelope("validate", argv, timings,
                    category=block,
                    residuals=residuals, results=results,
                    status="ok" if ok else "validation_failure"))
    return EXIT_OK if ok else EXIT_VALIDATION


def _cmd_center(args, argv):
    timings = {}
    with _stage(timings, "load"):
        cat, block = _load_category_arg(args.category)
    with _stage(timings, "tube"):
        alg = build_tube_algebra(cat)
    with _stage(timings, "center"):
        dec = center_decompose(alg)
    with _stage(timings, "associativity"):
        residuals = dict(cat.residuals,
                         associativity=alg.associativity_residual())
    results = {
        "dim": alg.dim,
        "blocks": [{"n": int(n), "qdim": float(q)}
                   for n, q in zip(dec.n, dec.qdims)],
        "vacuum_index": dec.vacuum_index,
        "sum_n_squared": int(sum(n * n for n in dec.n)),
    }
    _emit(_envelope("center", argv, timings,
                    category=block,
                    residuals=residuals, results=results))
    return EXIT_OK


def _cmd_modular_data(args, argv):
    timings = {}
    with _stage(timings, "load"):
        cat, block = _load_category_arg(args.category)
    md = compute_modular_data(cat)
    timings.update(md.timings_ms)
    residuals = dict(cat.residuals, **md.residuals)
    cperm = [int(np.argmax(row)) for row in md.C]
    results = {
        "S": md.S,
        "T": md.T,
        "N": md.N,
        "C": cperm,
        "lambda": md.lam,
        "gauss": {
            "dp": _c(md.gauss_plus),
            "dm": _c(md.gauss_minus),
            "D": float(1.0 / md.S[0, 0].real),
        },
        "qdims": [float(q) for q in md.qdims],
        "block_dims": [int(n) for n in md.block_dims],
    }
    _emit(_envelope("modular-data", argv, timings,
                    category=block,
                    residuals=residuals, results=results))
    return EXIT_OK


def _cmd_invariant(args, argv):
    timings = {}
    with _stage(timings, "load"):
        cat, block = _load_category_arg(args.category)
    if args.statesum is not None:
        with _stage(timings, "triangulation"):
            tri = _load_triangulation_arg(args.statesum)
        with _stage(timings, "state_sum"):
            value = state_sum(cat, tri, budget=args.budget)
        results = {
            "route": "statesum",
            "source": args.statesum,
            "value": _c(value),
            "tets": tri.n_tets,
        }
    else:
        md = compute_modular_data(cat)
        timings.update(md.timings_ms)
        with _stage(timings, "plumbing"):
            g = _load_plumbing_arg(args.surgery)
        with _stage(timings, "surgery"):
            res = evaluate(md, g, budget=args.budget)
        results = {
            "route": "surgery",
            "source": args.surgery,
            "value": _c(res.Z),
            "tau": _c(res.tau),
            "sigma": res.sigma,
            "m": res.m,
            "largest_step": res.largest_step,
            "two_route_residual": abs(res.Z - res.tau),
            "tolerance": 1e-8,
        }
    _emit(_envelope("invariant", argv, timings,
                    category=block,
                    results=results))
    return EXIT_OK


def _cmd_compare(args, argv):
    """State sum against the surgery sum of the plumbed manifold M(g),
    every clasp positive; the two must agree within --tolerance."""
    timings = {}
    with _stage(timings, "load"):
        cat, block = _load_category_arg(args.category)
    with _stage(timings, "triangulation"):
        tri = _load_triangulation_arg(args.statesum)
    with _stage(timings, "state_sum"):
        z_ss = complex(state_sum(cat, tri, budget=args.budget))
    md = compute_modular_data(cat)
    timings.update(md.timings_ms)
    with _stage(timings, "plumbing"):
        g = _load_plumbing_arg(args.surgery)
    with _stage(timings, "surgery"):
        z_sg = surgery_invariant(md, g, budget=args.budget)
    delta = abs(z_ss - z_sg)
    ok = delta < args.tolerance
    results = {
        "statesum": _c(z_ss),
        "surgery": _c(z_sg),
        "delta": float(delta),
        "tolerance": args.tolerance,
        "pass": ok,
    }
    sys.stderr.write("statesum = %.12g%+.12gj  surgery = %.12g%+.12gj  "
                     "delta = %.3e\n" % (z_ss.real, z_ss.imag, z_sg.real,
                                         z_sg.imag, delta))
    _emit(_envelope("compare", argv, timings,
                    category=block,
                    results=results,
                    status="ok" if ok else "tolerance_failure"))
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_zoo(args, argv):
    timings = {}
    results = {
        "categories": sorted(ZOO_NAMES),
        "category_note": "vec_zN is available for any N >= 1",
        "triangulations": sorted(BUILTIN_TRIANGULATIONS),
        "plumbings": sorted(BUILTIN_PLUMBINGS),
    }
    _emit(_envelope("zoo", argv, timings, results=results))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest: the acceptance criteria
# ---------------------------------------------------------------------------


class SelftestContext:
    """Caches the modular data, with its parts, and the state sums of the criteria."""

    def __init__(self, budget=None):
        self.budget = budget
        self._md = {}
        self._zss = {}

    def md(self, name):
        if name not in self._md:
            self._md[name] = compute_modular_data(zoo(name))
        return self._md[name]

    def statesum(self, name, tri_name):
        key = (name, tri_name)
        if key not in self._zss:
            cat = self.md(name).alg.cat
            tri = builtin_triangulation(tri_name)
            self._zss[key] = complex(state_sum(cat, tri, budget=self.budget))
        return self._zss[key]


def _crit_category_gate(ctx):
    worst = 0.0
    for name in ZOO_NAMES:
        worst = max(worst, *ctx.md(name).alg.cat.residuals.values())
    return worst < 1e-9, "worst pentagon/unitarity residual %.3e" % worst


def _crit_tube_structure(ctx):
    want = {"vec_z2": (4, [1, 1, 1, 1]),
            "vec_z3": (9, [1] * 9),
            "fibonacci": (7, [1, 1, 1, 2])}
    for name, (dim, blocks) in want.items():
        md = ctx.md(name)
        if md.alg.dim != dim or md.dec.n != blocks:
            return False, "%s has dim %d, blocks %r" % (name, md.alg.dim, md.dec.n)
    for name in ZOO_NAMES:
        md = ctx.md(name)
        if sum(n * n for n in md.dec.n) != md.alg.dim:
            return False, "%s: sum n_i^2 != dim" % name
    return True, "dims (4, 9, 7); sum n_i^2 == dim exactly for all"


def _crit_projection_inner(ctx):
    worst = 0.0
    for name in ZOO_NAMES:
        alg, dec = ctx.md(name).alg, ctx.md(name).dec
        for i, pi in enumerate(dec.projections):
            for j, pj in enumerate(dec.projections):
                want = dec.n[i] ** 2 if i == j else 0.0
                got = alg.inner(pi, pj)
                worst = max(worst, abs(got - want))
    return worst < 1e-8, "worst |<pi_i, pi_j> - delta n_i^2| = %.3e" % worst


def _crit_verlinde_axioms(ctx):
    worst = worst_round = 0.0
    for name in ZOO_NAMES:
        md = ctx.md(name)
        for key, val in md.residuals.items():
            if key == "verlinde_rounding":
                worst_round = max(worst_round, val)
            elif key in ("S_unitary", "S_symmetric", "T_unimodular",
                         "T_vacuum", "S_row0_positive", "C_permutation",
                         "ST_cubed"):
                worst = max(worst, val)
        eye = np.eye(md.r_plus_1, dtype=np.int64)
        if not np.array_equal(md.N[0], eye) or (md.N < 0).any():
            return False, "%s: N_0j^k != delta or negative entries" % name
    ok = worst < 1e-8 and worst_round < 1e-6
    return ok, ("worst axiom residual %.3e, verlinde rounding %.3e"
                % (worst, worst_round))


def _crit_pants_equals_verlinde(ctx):
    # the half-braidings are solved, gated and fused here only, in md.S's order
    try:
        for name in ZOO_NAMES:
            md = ctx.md(name)
            pants = pants_dims(md.alg, md.dec, *checked_half_braidings(md.alg, md.dec))
            if not np.array_equal(pants, md.N):
                raise ModularDataError("pants dims differ from Verlinde fusion")
    except ModularDataError as exc:
        return False, "%s: %s" % (name, exc)
    return True, "pants dims == Verlinde fusion exactly for all categories"


def _crit_group_double_oracle(ctx):
    for name, nmod in (("vec_z2", 2), ("vec_z3", 3)):
        md = ctx.md(name)
        S_o, T_o, _ = group_double_oracle(nmod)
        if match_blocks(md.S, md.T, S_o, T_o, tol=1e-8) is None:
            return False, "%s does not match the closed form" % name
    return True, "vec_z2 and vec_z3 match the closed form up to permutation"


def _crit_state_sum_values(ctx):
    worst = 0.0
    for name in ZOO_NAMES:
        cat = ctx.md(name).alg.cat
        worst = max(worst, abs(ctx.statesum(name, "s3") - 1 / global_dim(cat)))
        worst = max(worst, abs(ctx.statesum(name, "s2xs1") - 1.0))
        worst = max(worst, abs(ctx.statesum(name, "t3") - ctx.md(name).r_plus_1))
    worst = max(worst, abs(ctx.statesum("vec_z2", "rp3") - 1.0))
    worst = max(worst, abs(ctx.statesum("vec_z2", "lens_3_1") - 0.5))
    worst = max(worst, abs(ctx.statesum("vec_z3", "lens_3_1") - 1.0))
    for name, nmod in (("vec_z2", 2), ("vec_z3", 3)):
        table = cyclic_group_table(nmod)
        for tri_name in ("s3", "s2xs1", "rp3", "lens_3_1", "t3"):
            want = float(dw_oracle(table, builtin_triangulation(tri_name)))
            worst = max(worst, abs(ctx.statesum(name, tri_name) - want))
    return worst < 1e-8, "worst |Z - expected| = %.3e (DW cross-checked)" % worst


_COMPARE_GRID = (
    ("s3", [1]),
    ("s2xs1", [0]),
    ("rp3", (2, 1)),
    ("lens_3_1", (3, 1)),
    ("lens_4_1", (4, 1)),
)


def _crit_surgery_equals_state_sum(ctx):
    worst = 0.0
    for name in ZOO_NAMES:
        md = ctx.md(name)
        for tri_name, pres in _COMPARE_GRID:
            g = chain(pres) if isinstance(pres, list) else lens_chain(*pres)
            delta = abs(ctx.statesum(name, tri_name)
                        - surgery_invariant(md, g, budget=ctx.budget))
            worst = max(worst, delta)
    return worst < 1e-8, "worst |statesum - surgery| = %.3e on 5x4 grid" % worst


def _crit_two_route_identity(ctx):
    rng = np.random.default_rng(991)
    worst = 0.0
    for name in ZOO_NAMES:
        md = ctx.md(name)
        for _ in range(25):
            g = random_plumbing(rng)
            try:
                res = evaluate(md, g, budget=ctx.budget)
            except ToleranceError as exc:
                return False, "%s: %s" % (name, exc)
            worst = max(worst, abs(res.tau - res.Z))
        lam = md.lam
        worst = max(worst, abs(md.gauss_plus - lam), abs(md.gauss_minus - lam),
                    abs(1.0 / md.S[0, 0] - lam))
    return worst < 1e-8, ("worst two-route / Gauss-sum deviation %.3e "
                          "over 25 graphs per category" % worst)


def _crit_kirby_invariance(ctx):
    rng = np.random.default_rng(992)
    worst = 0.0
    for name in ZOO_NAMES:
        md = ctx.md(name)
        for _ in range(20):
            g = random_plumbing(rng, max_vertices=4)
            sites = [("isolated", 1), ("isolated", -1)]
            sites += [("vertex", v, e) for v in g.ids for e in (1, -1)]
            sites += [("edge", u, v, -1) for (u, v) in set(g.edges)]
            site = sites[int(rng.integers(0, len(sites)))]
            z0 = surgery_invariant(md, g, budget=ctx.budget)
            g2 = blow_up(g, site)
            z2 = surgery_invariant(md, g2, budget=ctx.budget)
            g3 = blow_down(g2, max(v for v in g2.ids if isinstance(v, int)))
            z3 = surgery_invariant(md, g3, budget=ctx.budget)
            worst = max(worst, abs(z2 - z0), abs(z3 - z0))
    return worst < 1e-9, ("worst drift %.3e over 20 blow pairs per category"
                          % worst)


def _crit_modular_split(ctx):
    S, theta = braiding_st(zoo("ising"))
    md = ctx.md("ising")
    rng = np.random.default_rng(993)
    worst = 0.0
    for _ in range(10):
        g = random_plumbing(rng)
        tau = modular_tau(S, theta, g, budget=ctx.budget)
        worst = max(worst,
                    abs(abs(tau) ** 2
                        - surgery_invariant(md, g, budget=ctx.budget)))
    return worst < 1e-8, "worst ||tau|^2 - Z_double| = %.3e on 10 graphs" % worst


def _crit_seed_independence(ctx):
    worst = 0.0
    for name in ZOO_NAMES:
        md_one = compute_modular_data(zoo(name), seed=0x1234)
        md_alt = compute_modular_data(zoo(name), seed=31337)
        worst = max(worst,
                    float(np.max(np.abs(md_one.S - md_alt.S))),
                    float(np.max(np.abs(md_one.T - md_alt.T))))
    return worst < 1e-8, ("worst |S,T drift| across seeds after canonical "
                          "sorting = %.3e" % worst)


SELFTEST_CRITERIA = (
    (1, "category gate", _crit_category_gate),
    (2, "tube structure", _crit_tube_structure),
    (3, "projection inner products", _crit_projection_inner),
    (4, "verlinde axioms", _crit_verlinde_axioms),
    (5, "pants equals verlinde", _crit_pants_equals_verlinde),
    (6, "group double closed form", _crit_group_double_oracle),
    (7, "state sum values", _crit_state_sum_values),
    (8, "surgery equals state sum", _crit_surgery_equals_state_sum),
    (9, "two-route identity and gauss sums", _crit_two_route_identity),
    (10, "kirby invariance", _crit_kirby_invariance),
    (11, "modular split", _crit_modular_split),
    (12, "seed independence", _crit_seed_independence),
)


def _cmd_selftest(args, argv):
    timings = {}
    ctx = SelftestContext(budget=args.budget)
    rows = []
    failed = 0
    for num, label, fn in SELFTEST_CRITERIA:
        with _stage(timings, "criterion_%02d" % num):
            ok, detail = fn(ctx)
        rows.append({"id": num, "name": label, "pass": ok, "detail": detail})
        failed += 0 if ok else 1
        sys.stderr.write("[%2d/12] %s %s (%s)\n"
                         % (num, "PASS" if ok else "FAIL", label, detail))
    results = {
        "criteria": rows,
        "total": len(rows),
        "passed": len(rows) - failed,
        "failed": failed,
    }
    _emit(_envelope("selftest", argv, timings, results=results,
                    status="ok" if failed == 0 else "tolerance_failure"))
    return EXIT_OK if failed == 0 else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    # built once per process; parse_args returns a fresh Namespace per call
    parser = _Parser(prog="doubletop",
                     description="Tube-algebra modular data and 3-manifold "
                                 "invariants of finite fusion categories.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def category_opt(p):
        p.add_argument("--category", required=True,
                       help="category JSON path or zoo:NAME")

    p = sub.add_parser("validate", help="check pentagon/unitarity residuals")
    category_opt(p)
    p.add_argument("--tolerance", type=_tolerance, default=1e-9)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("center", help="tube-algebra center block structure")
    category_opt(p)
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("modular-data", help="S, T, fusion, conjugation, Gauss")
    category_opt(p)
    p.set_defaults(func=_cmd_modular_data)

    p = sub.add_parser("invariant", help="evaluate one invariant route")
    category_opt(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--statesum", help="triangulation path or builtin:NAME")
    grp.add_argument("--surgery", help="plumbing path or builtin:NAME")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("compare", help="state sum vs surgery on one manifold")
    category_opt(p)
    p.add_argument("--statesum", required=True)
    p.add_argument("--surgery", required=True)
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--tolerance", type=_tolerance, default=1e-8)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("zoo", help="list bundled categories and manifolds")
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, argv)
    except BudgetError as exc:
        sys.stderr.write("budget error: %s\n" % exc)
        return EXIT_BUDGET
    except ToleranceError as exc:
        sys.stderr.write("tolerance error: %s\n" % exc)
        return EXIT_TOLERANCE
    except (CategoryError, TriangulationError, TubeError, CenterError,
            ModularDataError, SurgeryError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # numpy names the allocation it could not make; a bare one names none
        sys.stderr.write("memory error: %s\n" % (str(exc) or "out of memory"))
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
