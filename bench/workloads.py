"""The three benchmark workloads.

Each workload has a fixed case list.  ``setup`` builds the inputs and the
reference values from the seed, ``run_pass`` is the timed pass (one
output per operation, an exception caught and kept as that operation's
error), and ``check`` turns the outputs into one record per operation:
whether it passed, why not, a digest of its output and the sizes that
explain its cost.  Checks never abort the run; a failed check only marks
its operation as failed.

The package is driven only through its public names (``dt`` is the
imported ``doubletop`` package, ``dt.cli.main`` the CLI), looked up at
call time so that the tracer's wrappers are seen.

Every workload touches every traced layer somewhere (in set-up, the pass
or the checks), so no per-layer figure is empty; the pass itself does the
work the workload is named for.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from types import SimpleNamespace as State

import numpy as np

# Case selection is fixed here, not read from the package, so that a change
# to the package's own budget cannot change what a pass does.
BUDGET = 5_000_000
DIGITS = 9          # digests round every number to this many decimals
TOL = 1e-8          # value agreement, as in the acceptance criteria
DRIFT_TOL = 1e-9    # blow-up / blow-down round trip


def digest(*values):
    """Short hash of numbers rounded to DIGITS decimals (complex as re, im)."""
    parts = []
    for v in values:
        a = np.asarray(v)
        if np.iscomplexobj(a):
            a = np.stack([a.real, a.imag])
        parts.append((np.round(a.astype(float), DIGITS) + 0.0).tolist())
    blob = json.dumps(parts, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def attempt(fn, *args):
    """(result, None) or (None, error text); used around every operation."""
    try:
        return fn(*args), None
    except Exception as exc:  # an operation's failure is data, not an abort
        return None, "%s: %s" % (type(exc).__name__, exc)


def record(case, error=None, dig=None, **sizes):
    """One operation's outcome: passed or why not, output digest, sizes."""
    return {"case": case, "ok": error is None, "error": error,
            "digest": dig, "sizes": sizes}


def run_cli(dt, argv):
    """``dt.cli.main(argv)`` in-process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = dt.cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            rc = exc.code
    return rc, buf.getvalue()


def modular_data_from_report(dt, text):
    """ModularData rebuilt from a ``modular-data`` report (axioms re-checked)."""
    res = json.loads(text)["results"]
    S = np.array([[complex(z["re"], z["im"]) for z in row]
                  for row in res["S"]])
    T = np.array([complex(z["re"], z["im"]) for z in res["T"]])
    md = dt.ModularData(S, T, res["qdims"], res["block_dims"], res["lambda"])
    return md, np.array(res["N"])


def cli_modular_data(dt, name):
    rc, text = run_cli(dt, ["modular-data", "--category", "zoo:" + name])
    if rc != 0:
        raise RuntimeError("modular-data exited with code %r" % (rc,))
    return modular_data_from_report(dt, text)


def md_digest(md, N=None):
    return digest(md.S, md.T, md.N if N is None else N)


def center_oracle(dt, name, cat):
    """Independent S, T of the center: closed-form D(Z_N), or C x C-bar
    from the category's own R-symbols for the modular zoo categories."""
    if name.startswith("vec_z"):
        S, T, _ = dt.group_double_oracle(int(name[len("vec_z"):]))
        return S, T
    S, theta = dt.braiding_st(cat)
    return np.kron(S, S.conj()), np.kron(theta, theta.conj())


def oracle_mismatch(dt, md, oracle):
    if dt.match_blocks(md.S, md.T, oracle[0], oracle[1], tol=TOL) is None:
        return "S, T do not match the independent oracle"
    return None


def lens_closed_form(name, p):
    """Z(L(p, q)) = gcd(p, N) / N for Vec(Z_N)."""
    n = int(name[len("vec_z"):])
    return math.gcd(p, n) / n


def coker_closed_form(name, g):
    """Z(M) = #{x in Z_N^m : B x = 0 mod N} / N for Vec(Z_N) on a forest
    plumbing with linking matrix B."""
    n = int(name[len("vec_z"):])
    B = g.linking_matrix()
    xs = np.array(np.meshgrid(*[np.arange(n)] * g.m, indexing="ij"))
    xs = xs.reshape(g.m, -1)
    return int(np.sum(np.all((B @ xs) % n == 0, axis=0))) / n


def _reference(dt, name, braid, g, p=None):
    """Independent Z(M): closed forms for Vec(Z_N); for the center of a
    modular category C with braiding data (S, theta), Z = |tau_C|^2."""
    if braid is None:
        return lens_closed_form(name, p) if p else coker_closed_form(name, g)
    return abs(dt.modular_tau(braid[0], braid[1], g)) ** 2


def blow_drift(dt, md, g, site, z0):
    """Largest change of the invariant over a blow-up and its blow-down."""
    g2 = dt.blow_up(g, site)
    z2 = dt.rt_invariant(md, g2)
    new = next(v for v in g2.ids if v not in g.framing)
    z3 = dt.surgery_invariant(md, dt.blow_down(g2, new))
    return max(abs(z2 - z0), abs(z3 - z0))


def coprime_pairs(p_lo, p_hi, q_max):
    return [(p, q) for p in range(p_lo, p_hi + 1)
            for q in range(1, q_max(p) + 1) if math.gcd(p, q) == 1]


# ---------------------------------------------------------------------------


class ModularLadder:
    """`modular-data` through the CLI, over a ladder of tube dimensions."""

    name = "modular_ladder"
    categories = ("ising", "fibonacci", "vec_z4", "vec_z5", "vec_z6",
                  "vec_z7")
    check_lens = ((3, 1), (5, 2))

    def setup(self, dt, seed):
        order = list(self.categories)
        random.Random(seed).shuffle(order)
        refs = {name: attempt(self._references, dt, name)
                for name in self.categories}
        return State(cases=order, refs=refs)

    def _references(self, dt, name):
        if name.startswith("vec_z"):
            cat = None
            lens = {pq: lens_closed_form(name, pq[0]) for pq in self.check_lens}
        else:
            cat = dt.zoo(name)
            lens = {pq: complex(dt.state_sum(cat, dt.lens_triangulation(*pq)))
                    for pq in self.check_lens}
        return {"oracle": center_oracle(dt, name, cat), "lens": lens}

    def run_pass(self, dt, state):
        return [attempt(run_cli, dt, ["modular-data", "--category",
                                      "zoo:" + name])
                for name in state.cases]

    def check(self, dt, state, outputs):
        return [self._check_one(dt, state.refs[name], name, out)
                for name, out in zip(state.cases, outputs)]

    def _check_one(self, dt, refs, name, out):
        result, error = out
        if error is None and result[0] != 0:
            error = "modular-data exited with code %r" % (result[0],)
        if error is None:
            parsed, error = attempt(modular_data_from_report, dt, result[1])
        if error is not None:
            return record(name, error)
        md, N = parsed
        sizes = {"tube_dim": int(sum(n * n for n in md.block_dims)),
                 "blocks": md.r_plus_1}
        dig = md_digest(md, N)
        ref, error = refs
        if error is not None:
            error = "no reference: " + error
        elif not np.array_equal(N, md.N):
            error = "fusion rules N are not Verlinde's"
        else:
            error = oracle_mismatch(dt, md, ref["oracle"])
        for (p, q), want in (ref or {}).get("lens", {}).items():
            if error is not None:
                break
            g = dt.lens_chain(p, q)
            res, error = attempt(dt.evaluate, md, g)
            if error is None and abs(res.Z - want) >= TOL:
                error = "L(%d,%d): surgery %r, reference %r" % (p, q, res.Z,
                                                                 want)
            if error is None:
                drift, error = attempt(blow_drift, dt, md, g,
                                       ("vertex", g.ids[0], 1), res.Z)
                if error is None and drift >= DRIFT_TOL:
                    error = "L(%d,%d): blow-move drift %.3e" % (p, q, drift)
        return record(name, error, dig, **sizes)


class StatesumLens:
    """`state_sum` on lens-space triangulations L(p, q), 5 <= p <= 12."""

    name = "statesum_lens"
    categories = ("ising", "vec_z3", "fibonacci")

    def setup(self, dt, seed):
        cats = {name: dt.zoo(name) for name in self.categories}
        tris = {pq: dt.lens_triangulation(*pq)
                for pq in coprime_pairs(5, 12, lambda p: p // 2)}
        cases = [(name, p, q) for name in self.categories
                 for (p, q), tri in tris.items()
                 if cats[name].n ** tri.n_edges <= BUDGET]
        random.Random(seed).shuffle(cases)
        refs = {name: attempt(self._references, dt, name, tris)
                for name in self.categories}
        return State(cases=cases, cats=cats, tris=tris, refs=refs)

    def _references(self, dt, name, tris):
        """Z(L(p, q)): closed form for Vec(Z_N), else by surgery on the
        modular data of the CLI report, checked by the tau route and a blow
        round trip before it is used."""
        if name.startswith("vec_z"):
            return {pq: lens_closed_form(name, pq[0]) for pq in tris}
        md, _ = cli_modular_data(dt, name)
        out = {}
        for (p, q) in tris:
            g = dt.lens_chain(p, q)
            z = dt.surgery_invariant(md, g)
            res = dt.evaluate(md, g)
            drift = blow_drift(dt, md, g, ("isolated", -1), z)
            if abs(res.Z - z) >= TOL or drift >= DRIFT_TOL:
                raise ValueError("surgery value on L(%d,%d) is not invariant"
                                 % (p, q))
            out[(p, q)] = z
        return out

    def run_pass(self, dt, state):
        return [attempt(dt.state_sum, state.cats[name], state.tris[(p, q)])
                for name, p, q in state.cases]

    def check(self, dt, state, outputs):
        recs = []
        for (name, p, q), (z, error) in zip(state.cases, outputs):
            tri = state.tris[(p, q)]
            sizes = {"edges": tri.n_edges, "tets": tri.n_tets,
                     "colorings": state.cats[name].n ** tri.n_edges}
            case = "%s L(%d,%d)" % (name, p, q)
            if error is not None:
                recs.append(record(case, error, **sizes))
                continue
            ref, error = state.refs[name]
            if error is not None:
                error = "no reference: " + error
            elif abs(z - ref[(p, q)]) >= TOL:
                error = "state sum %r, reference %r" % (z, ref[(p, q)])
            recs.append(record(case, error, digest(z), **sizes))
        return recs


class TwoRoute:
    """The small pipeline end to end: modular data, state sums against
    surgery, lens chains, and blow moves on random forest plumbings."""

    name = "two_route"
    # category and the rank of its center, which fixes the in-budget chains
    categories = {"vec_z2": 4, "vec_z3": 9, "fibonacci": 4, "ising": 9}
    # builtin triangulation and the surgery presentation of the same manifold
    manifolds = (("s3", [1]), ("s2xs1", [0]), ("rp3", (2, 1)),
                 ("lens_3_1", (3, 1)), ("lens_4_1", (4, 1)), ("t3", None))
    lens_p_max = 39
    plumbings = 150

    def setup(self, dt, seed):
        tris = {t: dt.builtin_triangulation(t) for t, _ in self.manifolds}
        cats, cases, refs = {}, {}, {}
        for name, r in self.categories.items():
            cats[name] = dt.zoo(name)
            rng = random.Random("%d:%s" % (seed, name))
            lens = [(pq, dt.lens_chain(*pq))
                    for pq in coprime_pairs(2, self.lens_p_max, lambda p: p - 1)]
            cases[name] = {
                "lens": [(pq, g) for pq, g in lens if r ** g.m <= BUDGET],
                "forests": [random_forest(dt, rng, k)
                            for k in range(self.plumbings)]}
            refs[name] = attempt(self._references, dt, name, cats[name],
                                 cases[name])
        return State(cats=cats, tris=tris, cases=cases, refs=refs)

    def _references(self, dt, name, cat, cases):
        """The CLI report's digest, the center oracle, and independent Z
        for every lens chain and forest."""
        md, N = cli_modular_data(dt, name)
        braid = None if name.startswith("vec_z") else dt.braiding_st(cat)
        return {"digest": md_digest(md, N),
                "oracle": center_oracle(dt, name, cat),
                "lens": [_reference(dt, name, braid, g, pq[0])
                         for pq, g in cases["lens"]],
                "forests": [_reference(dt, name, braid, g)
                            for g, _ in cases["forests"]]}

    def run_pass(self, dt, state):
        out = []
        for name in self.categories:
            cat, cases = state.cats[name], state.cases[name]
            md, error = attempt(dt.compute_modular_data, cat)
            out.append((md, error))
            if error is not None:
                n_dep = (len(self.manifolds) + len(cases["lens"])
                         + len(cases["forests"]))
                out.extend([(None, "modular data failed: " + error)] * n_dep)
                continue
            for tname, pres in self.manifolds:
                out.append(attempt(_two_routes, dt, md, cat,
                                   state.tris[tname], pres))
            for _, g in cases["lens"]:
                out.append(attempt(dt.evaluate, md, g))
            for g, site in cases["forests"]:
                out.append(attempt(_forest_round_trip, dt, md, g, site))
        return out

    def check(self, dt, state, outputs):
        recs = []
        it = iter(outputs)
        for name, r in self.categories.items():
            cat, cases = state.cats[name], state.cases[name]
            ref, ref_error = state.refs[name]
            if ref_error is not None:
                ref_error = "no reference: " + ref_error
            md, error = next(it)
            dig = None
            if error is None:
                dig = md_digest(md)
                if ref_error is not None:
                    error = ref_error
                elif dig != ref["digest"]:
                    error = "modular data differs from the CLI report"
                else:
                    error = oracle_mismatch(dt, md, ref["oracle"])
            recs.append(record(name + " modular data", error, dig, blocks=r))
            for tname, pres in self.manifolds:
                tri = state.tris[tname]
                vals, error = next(it)
                if error is None:
                    z_ss, z_sg = vals
                    want = r if z_sg is None else z_sg  # Z(T^3) = rank
                    if abs(z_ss - want) >= TOL:
                        error = "state sum %r, other route %r" % (z_ss, want)
                recs.append(record(
                    "%s %s" % (name, tname), error,
                    None if vals is None else digest(vals[0]),
                    edges=tri.n_edges, tets=tri.n_tets,
                    colorings=cat.n ** tri.n_edges))
            wants = ref["lens"] if ref else [None] * len(cases["lens"])
            for ((p, q), g), want, (res, error) in zip(cases["lens"], wants,
                                                        it):
                if error is None:
                    error = ref_error
                if error is None and abs(res.Z - want) >= TOL:
                    error = "surgery %r, reference %r" % (res.Z, want)
                recs.append(record(
                    "%s lens_chain(%d,%d)" % (name, p, q), error,
                    None if res is None else digest(res.Z, res.tau),
                    m=g.m, colorings=r ** g.m))
            wants = ref["forests"] if ref else [None] * len(cases["forests"])
            for k, ((g, _), want, (vals, error)) in enumerate(
                    zip(cases["forests"], wants, it)):
                if error is None:
                    z0, drift = vals
                    error = ref_error
                    if error is None and abs(z0 - want) >= TOL:
                        error = "surgery %r, reference %r" % (z0, want)
                    elif error is None and drift >= DRIFT_TOL:
                        error = "blow-move drift %.3e" % drift
                recs.append(record(
                    "%s forest %d" % (name, k), error,
                    None if vals is None else digest(vals[0]),
                    m=g.m, colorings=r ** (g.m + 1)))
        return recs


def _two_routes(dt, md, cat, tri, pres):
    z_ss = complex(dt.state_sum(cat, tri))
    if pres is None:
        return z_ss, None
    g = dt.chain(pres) if isinstance(pres, list) else dt.lens_chain(*pres)
    return z_ss, complex(dt.surgery_invariant(md, g))


def _forest_round_trip(dt, md, g, site):
    z0 = complex(dt.surgery_invariant(md, g))
    return z0, blow_drift(dt, md, g, site, z0)


def random_forest(dt, rng, k, max_vertices=5, framings=(-3, 3)):
    """The k-th forest plumbing and an eligible blow-up site on it.

    Vertex count, component count and site kind follow k, so every seed
    gives the same mix of sizes; the seed draws framings, attachments and
    the site's place."""
    m = 1 + k % max_vertices
    components = min(m, 1 + (k // max_vertices) % 2)
    verts = [(v, rng.randint(*framings)) for v in range(m)]
    edges = [(rng.randrange(v), v) for v in range(components, m)]
    g = dt.PlumbingGraph(verts, edges)
    kind = (k // (2 * max_vertices)) % 3
    if kind == 2 and g.edges:
        u, v = rng.choice(g.edges)
        site = ("edge", u, v, -1)
    elif kind >= 1:
        site = ("vertex", rng.randrange(m), rng.choice((1, -1)))
    else:
        site = ("isolated", rng.choice((1, -1)))
    return g, site


WORKLOADS = {w.name: w for w in (ModularLadder(), StatesumLens(), TwoRoute())}
