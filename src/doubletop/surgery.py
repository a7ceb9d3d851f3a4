"""Surgery invariants of plumbing presentations.

Framed links are restricted to plumbing graphs: every component is an
unknot with an integer framing (a vertex) and components are clasped
pairwise like the Hopf link (edges, parallel clasps allowed); a graph g
is Neumann's plumbed manifold M(g), every clasp positive.  Chains present
every lens space through negative continued fractions, and the closed
evaluation formula is forced by the axioms of the modular data.
"""

import json
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .contract import contract

_MATCH_TOL = 1e-8


class SurgeryError(RuntimeError):
    """Invalid plumbing data or ineligible Kirby site."""


class ToleranceError(SurgeryError):
    """The two invariant routes disagree beyond tolerance."""


class PlumbingGraph:
    """Framed link of clasped unknots, stored as a framed multigraph."""

    def __init__(self, framings, edges, name=None):
        self.ids = []
        self.framing = {}
        for v, f in framings:
            if v in self.framing:
                raise SurgeryError("duplicate vertex id %r" % (v,))
            if not isinstance(f, numbers.Real) or f % 1 != 0:
                raise SurgeryError("framing of vertex %r must be an integer" % (v,))
            self.ids.append(v)
            self.framing[v] = int(f)
        self.edges = []
        for u, v in edges:
            if u == v:
                raise SurgeryError("self-loop at vertex %r" % (u,))
            if u not in self.framing or v not in self.framing:
                raise SurgeryError("edge (%r, %r) uses an unknown vertex" % (u, v))
            self.edges.append((u, v) if repr(u) <= repr(v) else (v, u))
        self.name = name
        self._components = self._count_components()

    @property
    def m(self):
        return len(self.ids)

    def degree(self, v):
        return sum((u == v) + (w == v) for u, w in self.edges)

    def linking_matrix(self):
        pos = {v: i for i, v in enumerate(self.ids)}
        B = np.zeros((self.m, self.m), dtype=np.int64)
        for v in self.ids:
            B[pos[v], pos[v]] = self.framing[v]
        for u, w in self.edges:
            B[pos[u], pos[w]] += 1
            B[pos[w], pos[u]] += 1
        return B

    def components(self):
        """Number of connected components, counted once at construction."""
        return self._components

    def _count_components(self):
        parent = {v: v for v in self.ids}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, w in self.edges:
            parent[find(u)] = find(w)
        return len({find(v) for v in self.ids})

    @classmethod
    def from_dict(cls, doc, name=None):
        try:
            framings = [(v["id"], v["framing"]) for v in doc["vertices"]]
            edges = [(u, w) for u, w in doc["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SurgeryError("malformed plumbing document: %s" % exc) from exc
        for v in [v for v, _ in framings] + [v for edge in edges for v in edge]:
            if not isinstance(v, (int, str)):
                raise SurgeryError("vertex id %r must be an integer or a string" % (v,))
        return cls(framings, edges, name=name)

    def to_dict(self):
        return {
            "vertices": [{"id": v, "framing": self.framing[v]} for v in self.ids],
            "edges": [list(e) for e in self.edges],
        }


def load_plumbing(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SurgeryError("parse error: %s" % exc) from exc
    return PlumbingGraph.from_dict(doc, name=str(path))


def chain(framings, name=None):
    """Linear chain of vertices 0-1-...-(k-1) with the given framings."""
    verts = [(i, f) for i, f in enumerate(framings)]
    edges = [(i, i + 1) for i in range(len(framings) - 1)]
    return PlumbingGraph(verts, edges, name=name)


BUILTIN_PLUMBINGS = {
    "s3": [1],
    "s2xs1": [0],
    "lens_2_1": [2],
    "rp3": [2],
    "lens_3_1": [3],
    "lens_4_1": [4],
}


def builtin_plumbing(name):
    if name not in BUILTIN_PLUMBINGS:
        raise SurgeryError("unknown builtin plumbing %r (have: %s)"
                           % (name, ", ".join(sorted(BUILTIN_PLUMBINGS))))
    return chain(BUILTIN_PLUMBINGS[name], name=name)


def lens_chain(p, q):
    """Chain presentation of L(p, q) via p/q = a1 - 1/(a2 - 1/(...))."""
    import math

    if not (isinstance(p, int) and isinstance(q, int)):
        raise SurgeryError("lens parameters must be integers")
    if not (p > q >= 1) or math.gcd(p, q) != 1:
        raise SurgeryError("need p > q >= 1 with gcd(p, q) = 1, got (%r, %r)"
                           % (p, q))
    coeffs = []
    while q:
        a = -(-p // q)  # ceil
        coeffs.append(a)
        p, q = q, a * q - p
    return chain(coeffs, name="lens")


def random_plumbing(rng, max_vertices=5, framing_range=(-3, 3)):
    """Pseudo-random multigraph; disconnected graphs are deliberate."""
    m = int(rng.integers(1, max_vertices + 1))
    lo, hi = framing_range
    verts = [(v, int(rng.integers(lo, hi + 1))) for v in range(m)]
    edges = []
    for u in range(m):
        for v in range(u + 1, m):
            edges.extend([(u, v)] * int(rng.choice([0, 0, 0, 1, 1, 2])))
    return PlumbingGraph(verts, edges)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def signature(g):
    """Signature of the linking matrix; eigenvalues near zero are ignored."""
    B = g.linking_matrix()
    if B.shape[0] == 0:
        return 0
    eig = np.linalg.eigvalsh(B.astype(float))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(eig))))
    return int(np.sum(eig > tol)) - int(np.sum(eig < -tol))


def _coloring_list(g, coloring):
    if isinstance(coloring, dict):
        try:
            return [coloring[v] for v in g.ids]
        except KeyError as exc:
            raise SurgeryError("coloring misses vertex %r" % exc.args) from exc
    colors = list(coloring)
    if len(colors) != g.m:
        raise SurgeryError("coloring has %d entries for %d vertices"
                           % (len(colors), g.m))
    return colors


def colored_invariant(md, g, coloring):
    """J of the colored plumbing.

    J = S_00^(1-c) prod_v t_i^(-f_v) S_{0,i_v}^(1-deg v) prod_edges S_{i_u, i_v}
    with c the number of connected components; a positive curl costs t^-1,
    hence the t^(-f) vertex factor.
    """
    S, T = md.S, md.T
    colors = _coloring_list(g, coloring)
    idx = dict(zip(g.ids, colors))
    val = S[0, 0] ** (1 - g.components()) if g.m else S[0, 0]
    for v in g.ids:
        i = idx[v]
        val *= T[i] ** (-g.framing[v]) * S[0, i] ** (1 - g.degree(v))
    for u, w in g.edges:
        val *= S[idx[u], idx[w]]
    return complex(val)


def _colored_sum(S, T, g, extra_vertex_weight, budget):
    """Sum of prod_v weight_v(i_v) * J(g, colors) over all colorings.

    Returns (sum, largest_step), the latter from `doubletop.contract`.
    """
    pos = {v: k for k, v in enumerate(g.ids)}
    deg = Counter(v for edge in g.edges for v in edge)
    factors = [(extra_vertex_weight * T ** (-g.framing[v])
                * S[0] ** (1 - deg[v]), [pos[v]]) for v in g.ids]
    factors += [(S, [pos[u], pos[w]]) for u, w in g.edges]
    core, step = contract(factors, budget)
    return S[0, 0] ** (1 - g.components()) * core, step


def surgery_invariant(md, g, budget=None):
    """Z(M(g)) = sum over colorings of prod_v S_{i_v, 0} times J (Dehn
    surgery), M(g) the plumbed manifold of any graph, every clasp positive."""
    S, T = md.S, md.T
    if g.m == 0:
        return complex(S[0, 0])
    val, _ = _colored_sum(S, T, g, S[:, 0], budget)
    return complex(val)


def _tau(S, T, g, budget):
    if g.m == 0:
        raise SurgeryError("empty plumbing graph has no surgery formula")
    dims = S[0] / S[0, 0]
    D = 1.0 / S[0, 0]
    delta = np.sum(dims ** 2 * T)
    sig = signature(g)
    core, step = _colored_sum(S, T, g, dims, budget)
    tau = delta ** sig * D ** (-sig - g.m - 1) * core / S[0, 0]
    return complex(tau), sig, step


def rt_invariant(md, g, budget=None):
    """Normalized invariant tau(M); asserted equal to surgery_invariant.

    tau = Delta^sigma D^(-sigma-m-1) sum_colorings (prod dim V) F with
    F = J/S_00 and dim V_i = S_{0i}/S_00; for a center both Gauss sums
    and D collapse to the global dimension.
    """
    return evaluate(md, g, budget).tau


def modular_tau(S, T, g, budget=None):
    """tau evaluated with an externally supplied modular pair (S, T)."""
    S = np.asarray(S, dtype=complex)
    T = np.asarray(T, dtype=complex).reshape(-1)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] != T.shape[0]:
        raise SurgeryError("S is %r and T has length %d; shapes do not match"
                           % (S.shape, T.shape[0]))
    uni = float(np.max(np.abs(S @ S.conj().T - np.eye(S.shape[0]))))
    if uni > _MATCH_TOL:
        raise SurgeryError("supplied S is not unitary (residual %.3e)" % uni)
    if float(np.max(np.abs(np.abs(T) - 1.0))) > _MATCH_TOL:
        raise SurgeryError("supplied T is not unimodular")
    tau, _, _ = _tau(S, T, g, budget)
    return tau


@dataclass
class SurgeryResult:
    Z: complex
    tau: complex
    sigma: int
    m: int
    largest_step: int


def evaluate(md, g, budget=None):
    """Both invariant routes for M(g), every clasp positive, equality asserted.

    largest_step is the index space of the largest elimination step of the
    tau contraction, the quantity the budget bounds.
    """
    tau, sig, step = _tau(md.S, md.T, g, budget)
    z = surgery_invariant(md, g, budget=budget)
    if abs(tau - z) >= _MATCH_TOL:
        raise ToleranceError("tau = %r disagrees with the surgery sum %r "
                             "(|diff| = %.3e)" % (tau, z, abs(tau - z)))
    return SurgeryResult(Z=z, tau=tau, sigma=sig, m=g.m,
                         largest_step=step)


# ---------------------------------------------------------------------------
# Kirby moves
# ---------------------------------------------------------------------------


def _next_id(g):
    return max((v for v in g.ids if isinstance(v, int)), default=-1) + 1


def blow_up(g, site):
    """Add a +-1-framed unknot at a site; the invariant is unchanged.

    Sites: ("isolated", eps), ("vertex", v, eps) for a new leaf at v, or
    ("edge", u, v, -1) inserting a -1 vertex on an existing clasp.  The
    touched framings shift by +eps so that blow_down is the exact
    congruence inverse.  Neutrality of each site is the local identity
    S T^(-eps) S = T^(eps) S T^(eps); a +1 vertex riding an edge has no
    such reduction (blowing it down leaves a negative clasp, which a
    plumbing graph here does not carry), so that site is refused.
    """
    if not site or site[0] not in ("isolated", "vertex", "edge"):
        raise SurgeryError("ineligible site %r" % (site,))
    kind, rest = site[0], site[1:]
    eps = rest[-1]
    if eps not in (1, -1):
        raise SurgeryError("ineligible site: framing %r is not +-1" % (eps,))
    w = _next_id(g)
    verts = [(v, g.framing[v]) for v in g.ids]
    edges = list(g.edges)
    if kind == "isolated":
        if len(rest) != 1:
            raise SurgeryError("ineligible site %r" % (site,))
        verts.append((w, eps))
    elif kind == "vertex":
        if len(rest) != 2 or rest[0] not in g.framing:
            raise SurgeryError("ineligible site %r" % (site,))
        v = rest[0]
        verts = [(x, f + (eps if x == v else 0)) for x, f in verts]
        verts.append((w, eps))
        edges.append((v, w))
    else:
        if len(rest) != 3 or rest[0] not in g.framing or rest[1] not in g.framing:
            raise SurgeryError("ineligible site %r" % (site,))
        u, v = rest[0], rest[1]
        if u == v:
            raise SurgeryError("ineligible site: edge endpoints coincide")
        if eps != -1:
            raise SurgeryError("ineligible site: an edge blow-up must carry "
                               "framing -1")
        pair = (u, v) if repr(u) <= repr(v) else (v, u)
        if pair not in edges:
            raise SurgeryError("ineligible site: no edge between %r and %r"
                               % (u, v))
        edges.remove(pair)
        verts = [(x, f + (eps if x in (u, v) else 0)) for x, f in verts]
        verts.append((w, eps))
        edges.extend([(u, w), (w, v)])
    return PlumbingGraph(verts, edges, name=g.name)


def blow_down(g, w):
    """Remove a +-1-framed unknot, retwisting its neighbourhood.

    Eligible shapes are the blow_up images: an isolated vertex, a leaf,
    or a -1 vertex with exactly two distinct simple neighbours u, v
    (which fuses them with one new clasp).  Framings drop by eps per
    clasp squared, per the congruence of linking matrices.
    """
    if w not in g.framing:
        raise SurgeryError("ineligible site: no vertex %r" % (w,))
    eps = g.framing[w]
    if eps not in (1, -1):
        raise SurgeryError("ineligible site: framing %d is not +-1" % eps)
    nbrs = []
    edges = []
    for u, x in g.edges:
        if u == w:
            nbrs.append(x)
        elif x == w:
            nbrs.append(u)
        else:
            edges.append((u, x))
    verts = [(v, g.framing[v]) for v in g.ids if v != w]
    if len(nbrs) == 0:
        pass
    elif len(nbrs) == 1:
        v = nbrs[0]
        verts = [(x, f - (eps if x == v else 0)) for x, f in verts]
    elif len(nbrs) == 2 and nbrs[0] != nbrs[1]:
        if eps != -1:
            raise SurgeryError("ineligible site: a two-valent blow-down must "
                               "carry framing -1")
        u, v = nbrs
        verts = [(x, f - (eps if x in (u, v) else 0)) for x, f in verts]
        edges.append((u, v) if repr(u) <= repr(v) else (v, u))
    else:
        raise SurgeryError("ineligible site: vertex %r has clasp pattern %r"
                           % (w, sorted(nbrs, key=repr)))
    return PlumbingGraph(verts, edges, name=g.name)
