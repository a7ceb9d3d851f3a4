"""Closed oriented triangulated 3-manifolds and the state-sum invariant.

Local conventions for one tetrahedron, corners in branching order 0,1,2,3:

         3
        /|\\         edge slots, in weight-table order:
       / | \\            01 12 23 02 13 03
      0--+--2        face id f omits corner f:
       \\ | /            f=0:(123) f=1:(023) f=2:(013) f=3:(012)
        \\|/
         1

A face gluing ((tA,fA),(tB,fB)) identifies the two triangles corner-by-corner
in ascending local order (order-preserving, as required by the branching).
Files may omit "gluings" when global vertex ids determine the face pairing
(every vertex-triple shared by exactly two tetrahedra); one-vertex complexes
must list gluings explicitly.

The invariant of a coloring assigns every edge class a label, every face class
a fusion-basis index, and every tetrahedron the weight

    W = d(c02)^{-1/2} d(c13)^{-1/2} * [F^{c01,c12,c23}_{c03}]_{(c02,f012,f023),(c13,f123,f013)}

conjugated when the tetrahedron sign is -1; then

    Z = lambda^{-a} * sum_colorings (prod_E d) * sum_labelings prod_tets W

with a the vertex count and lambda the global dimension.

`state_sum` never lists colorings: the sum is a tensor network with one
weight table per tetrahedron (indexed by its six edge labels, plus its four
face-basis indices when some multiplicity exceeds 1) and one ``d`` vector per
edge, contracted by variable elimination (`doubletop.contract`).  Only the
Dijkgraaf-Witten oracle enumerates, so that it stays independent.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from fractions import Fraction

import numpy as np

from .catdata import global_dim
from .contract import DEFAULT_BUDGET, BudgetError, contract

_CHUNK = 4096  # colorings per vectorised block of the DW oracle

FACE_CORNERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
EDGE_SLOTS = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))
_BOND_FACES = (3, 1, 0, 2)  # faces 012, 023, 123, 013: weight-table bond order


class TriangulationError(ValueError):
    """A triangulation invariant failed (non-manifold, orientation, ...)."""


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            p = self.parent[p]
        while self.parent[x] != p:
            self.parent[x], x = p, self.parent[x]
        return p

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)

    def classes(self, order):
        """Map slot -> dense class id, ids in first-appearance order of `order`."""
        out, nxt = {}, 0
        for x in order:
            r = self.find(x)
            if r not in out:
                out[r] = nxt
                nxt += 1
        return {x: out[self.find(x)] for x in self.parent}, nxt


def _derive_gluings(verts):
    """Face pairing from global vertex ids (requires strictly increasing tets)."""
    slots = {}
    for t, v in enumerate(verts):
        if len(v) != 4:
            raise TriangulationError("tet %d: need 4 vertex ids" % t)
        try:
            ordered = sorted(set(v))
        except TypeError:
            raise TriangulationError("tet %d: vertex ids %r cannot be ordered"
                                     % (t, list(v))) from None
        if list(v) != ordered:
            raise TriangulationError(
                "branching violation: tet %d vertex ids must be strictly increasing "
                "when gluings are omitted" % t
            )
        for f in range(4):
            key = tuple(v[c] for c in FACE_CORNERS[f])
            slots.setdefault(key, []).append((t, f))
    gluings = []
    for key, hits in slots.items():
        if len(hits) == 1:
            raise TriangulationError(
                "open boundary: face %d of tet %d unglued" % (hits[0][1], hits[0][0])
            )
        if len(hits) > 2:
            raise TriangulationError(
                "non-manifold gluing: vertex triple %s on %d faces" % (key, len(hits))
            )
        gluings.append((hits[0], hits[1]))
    return gluings


class Triangulation:
    """Validated oriented Delta-complex of a closed 3-manifold."""

    def __init__(self, tets_signs, gluings=None, n_vertices=None,
                 pi1=None, name=None):
        # tets_signs: list of (vertex_ids_or_None, sign)
        vlists = [v for (v, _) in tets_signs]
        self.n_tets = len(tets_signs)
        self.name = name
        self.pi1 = pi1
        if self.n_tets == 0:
            raise TriangulationError("empty triangulation")
        if any(s not in (-1, 1) for (_, s) in tets_signs):
            raise TriangulationError("tetrahedron sign must be +1 or -1")
        self.signs = [int(s) for (_, s) in tets_signs]
        if gluings is None:
            if any(v is None for v in vlists):
                raise TriangulationError("need vertex ids or explicit gluings")
            gluings = _derive_gluings(vlists)
        try:
            self.gluings = [((ta, fa), (tb, fb)) for (ta, fa), (tb, fb) in gluings]
        except (TypeError, ValueError) as exc:
            raise TriangulationError("malformed gluing list: %s" % exc) from exc
        if not all(isinstance(x, numbers.Integral)
                   for pair in self.gluings for slot in pair for x in slot):
            raise TriangulationError("gluing slots must be integer (tet, face) pairs")
        if n_vertices is not None and (not isinstance(n_vertices, numbers.Real)
                                       or n_vertices % 1 != 0):
            raise TriangulationError("vertex count must be an integer")
        self._validate_pairing()
        self._orientation_check()
        self._build_classes()
        self._assign_vertices(vlists, n_vertices)
        self._euler_check()
        self._vertex_link_check()

    # -- construction internals --------------------------------------------

    def _validate_pairing(self):
        used = set()
        for (ta, fa), (tb, fb) in self.gluings:
            for (t, f) in ((ta, fa), (tb, fb)):
                if not (0 <= t < self.n_tets and 0 <= f < 4):
                    raise TriangulationError("gluing slot (%d,%d) out of range" % (t, f))
                if (t, f) in used:
                    raise TriangulationError(
                        "non-manifold gluing: face slot (%d,%d) used twice" % (t, f)
                    )
                used.add((t, f))
            if (ta, fa) == (tb, fb):
                raise TriangulationError("face glued to itself")
        if len(used) != 4 * self.n_tets:
            missing = [(t, f) for t in range(self.n_tets) for f in range(4)
                       if (t, f) not in used]
            raise TriangulationError(
                "open boundary: face %d of tet %d unglued" % (missing[0][1], missing[0][0])
            )

    def _orientation_check(self):
        for (ta, fa), (tb, fb) in self.gluings:
            if self.signs[ta] * (-1) ** fa != -self.signs[tb] * (-1) ** fb:
                raise TriangulationError(
                    "orientation incoherence at gluing (%d,%d)~(%d,%d)"
                    % (ta, fa, tb, fb)
                )

    def _build_classes(self):
        uf_v, uf_e, uf_f = _UnionFind(), _UnionFind(), _UnionFind()
        for t in range(self.n_tets):
            for c in range(4):
                uf_v.find((t, c))
            for p in EDGE_SLOTS:
                uf_e.find((t, p))
            for f in range(4):
                uf_f.find((t, f))
        for (ta, fa), (tb, fb) in self.gluings:
            ca, cb = FACE_CORNERS[fa], FACE_CORNERS[fb]
            uf_f.union((ta, fa), (tb, fb))
            for r in range(3):
                uf_v.union((ta, ca[r]), (tb, cb[r]))
            for r in range(3):
                for s in range(r + 1, 3):
                    uf_e.union((ta, (ca[r], ca[s])), (tb, (cb[r], cb[s])))
        v_order = [(t, c) for t in range(self.n_tets) for c in range(4)]
        e_order = [(t, p) for t in range(self.n_tets) for p in EDGE_SLOTS]
        f_order = [(t, f) for t in range(self.n_tets) for f in range(4)]
        self._vmap, self.n_vertex_classes = uf_v.classes(v_order)
        self._emap, self.n_edges = uf_e.classes(e_order)
        self._fmap, self.n_faces = uf_f.classes(f_order)
        self.tet_edges = np.array(
            [[self._emap[(t, p)] for p in EDGE_SLOTS] for t in range(self.n_tets)],
            dtype=np.int64,
        )
        self.tet_faces = np.array(
            [[self._fmap[(t, f)] for f in range(4)] for t in range(self.n_tets)],
            dtype=np.int64,
        )
        self.face_reps = [None] * self.n_faces
        for t in range(self.n_tets):
            for f in range(4):
                cid = self._fmap[(t, f)]
                if self.face_reps[cid] is None:
                    self.face_reps[cid] = (t, f)

    def _assign_vertices(self, vlists, n_vertices):
        derived = [[self._vmap[(t, c)] for c in range(4)] for t in range(self.n_tets)]
        if all(v is None for v in vlists):
            self.verts = derived
        else:
            ids = {}
            for t, v in enumerate(vlists):
                if v is None or len(v) != 4:
                    raise TriangulationError("tet %d: need 4 vertex ids" % t)
                for c in range(4):
                    cls = self._vmap[(t, c)]
                    if ids.setdefault(cls, v[c]) != v[c]:
                        raise TriangulationError(
                            "vertex ids inconsistent with gluings at tet %d corner %d"
                            % (t, c)
                        )
            try:
                shared = len(set(ids.values())) != len(ids)
            except TypeError as exc:
                raise TriangulationError("vertex ids must be hashable (%s)" % exc) from None
            if shared:
                raise TriangulationError("distinct vertex classes share a vertex id")
            self.verts = [list(v) for v in vlists]
        self.n_vertices = self.n_vertex_classes
        if n_vertices is not None and n_vertices != self.n_vertices:
            raise TriangulationError(
                "file claims %d vertices, complex has %d"
                % (n_vertices, self.n_vertices)
            )

    def _euler_check(self):
        chi = self.n_vertices - self.n_edges + self.n_faces - self.n_tets
        if chi != 0:
            raise TriangulationError("Euler characteristic %d != 0" % chi)

    def _vertex_link_check(self):
        # link pieces: one triangle per tet corner; its sides are (t, corner, f)
        # for the three faces f != corner; gluings pair sides.
        uf_s = _UnionFind()
        uf_conn = _UnionFind()
        for t in range(self.n_tets):
            for c in range(4):
                for f in range(4):
                    if f != c:
                        uf_s.find((t, c, f))
        for (ta, fa), (tb, fb) in self.gluings:
            ca, cb = FACE_CORNERS[fa], FACE_CORNERS[fb]
            for r in range(3):
                uf_s.union((ta, ca[r], fa), (tb, cb[r], fb))
                uf_conn.union((ta, ca[r]), (tb, cb[r]))
        # link vertices: one per (tet corner, other corner) ordered pair
        uf_lv = _UnionFind()
        for t in range(self.n_tets):
            for c in range(4):
                for m in range(4):
                    if m != c:
                        uf_lv.find((t, c, m))
        for (ta, fa), (tb, fb) in self.gluings:
            ca, cb = FACE_CORNERS[fa], FACE_CORNERS[fb]
            for r in range(3):
                for s in range(3):
                    if s != r:
                        uf_lv.union((ta, ca[r], ca[s]), (tb, cb[r], cb[s]))
        pieces = {}  # vertex class -> [corner count, side classes, lv classes]
        for t in range(self.n_tets):
            for c in range(4):
                pieces.setdefault(self._vmap[(t, c)], [0, set(), set()])[0] += 1
        for (t, c, f) in list(uf_s.parent):
            cls = self._vmap[(t, c)]
            pieces[cls][1].add(uf_s.find((t, c, f)))
        for (t, c, m) in list(uf_lv.parent):
            cls = self._vmap[(t, c)]
            pieces[cls][2].add(uf_lv.find((t, c, m)))
        for cls, (ntri, sides, lverts) in pieces.items():
            chi = len(lverts) - len(sides) + ntri
            if chi != 2:
                raise TriangulationError(
                    "vertex %d link has Euler characteristic %d (not a sphere)"
                    % (cls, chi)
                )
        # connectivity of each link: corners of one class must be joined by sides
        corner_roots = {}
        for t in range(self.n_tets):
            for c in range(4):
                cls = self._vmap[(t, c)]
                corner_roots.setdefault(cls, set()).add(uf_conn.find((t, c)))
        for cls, roots in corner_roots.items():
            if len(roots) != 1:
                raise TriangulationError("vertex %d link is disconnected" % cls)

    # -- small accessors ------------------------------------------------------

    def edge_class(self, t, i, j):
        if i > j:
            i, j = j, i
        return self._emap[(t, (i, j))]

    def face_class(self, t, f):
        return self._fmap[(t, f)]

    def expected_dw(self, nmod):
        """|Hom(pi1, Z/nmod)| / nmod from the bundled pi1 tag, if present."""
        if not self.pi1:
            return None
        count = nmod ** self.pi1.get("free_rank", 0)
        for tor in self.pi1.get("torsion", []):
            count *= math.gcd(tor, nmod)
        return Fraction(count, nmod)

    def to_dict(self):
        doc = {
            "vertices": self.n_vertices,
            "tets": [{"v": list(self.verts[t]), "sign": self.signs[t]}
                     for t in range(self.n_tets)],
            "gluings": [[list(a), list(b)] for (a, b) in self.gluings],
        }
        if self.pi1:
            doc["pi1"] = self.pi1
        return doc


def load_triangulation(path):
    """Load and fully validate a triangulation JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TriangulationError("parse error: %s" % exc) from exc
    return _triangulation_from_dict(doc)


def _triangulation_from_dict(doc):
    try:
        tets = [(tuple(t["v"]) if "v" in t else None, t.get("sign", 1))
                for t in doc["tets"]]
        gluings = doc.get("gluings")
        n_vertices, pi1 = doc.get("vertices"), doc.get("pi1")
    except (AttributeError, KeyError, TypeError) as exc:
        raise TriangulationError("malformed triangulation document: %s" % exc) from exc
    return Triangulation(tets, gluings=gluings, n_vertices=n_vertices, pi1=pi1)


# ---------------------------------------------------------------------------
# weights and the state sum
# ---------------------------------------------------------------------------


def _weight_tables(cat):
    """Dense per-orientation weight tables over (c01,c12,c23,c02,c13,c03).

    When some fusion multiplicity exceeds 1 the tables carry four more axes,
    the face-basis bonds (f012,f023,f123,f013); entries outside a face's
    multiplicity are 0.  The table is cat.F with its axes (a,b,c,d,e,f)
    reordered to (a,b,c,e,f,d), divided by sqrt(d_e d_f).
    """
    n = cat.n
    root = np.sqrt(np.outer(cat.d, cat.d)).reshape((1, 1, 1, n, n) + (1,) * 5)
    W = np.ascontiguousarray(cat.F.transpose(0, 1, 2, 4, 5, 3, 6, 7, 8, 9) / root)
    if W.shape[6] == 1:
        W = W.reshape(W.shape[:6])
    return W, np.conj(W)


def _chunks(total):
    lo = 0
    while lo < total:
        hi = min(lo + _CHUNK, total)
        yield (lo, hi)
        lo = hi


def _decode(idx, n, n_edges):
    """Mixed-radix digits, edge 0 most significant (lexicographic order)."""
    out = np.empty((n_edges, idx.shape[0]), dtype=np.int64)
    work = idx.copy()
    for e in range(n_edges - 1, -1, -1):
        out[e] = work % n
        work //= n
    return out


def state_sum(cat, tri, budget=None):
    """6j-symbol state sum Z(V) for a validated category and complex.

    Contracts the tensor network of one weight table per tetrahedron (face
    bonds added for categories with multiplicities) and one ``d`` vector
    per edge.  BudgetError is raised when one elimination step of that
    contraction would sum over more than `budget` labels (see
    `doubletop.contract`).
    """
    Wp, Wn = _weight_tables(cat)
    factors = [(cat.d, [e]) for e in range(tri.n_edges)]
    for t in range(tri.n_tets):
        ids = list(tri.tet_edges[t])
        if Wp.ndim > 6:
            ids += [tri.n_edges + tri.tet_faces[t, f] for f in _BOND_FACES]
        factors.append((Wp if tri.signs[t] == 1 else Wn, ids))
    value, _ = contract(factors, budget)
    return value * global_dim(cat) ** (-tri.n_vertices)


# ---------------------------------------------------------------------------
# Dijkgraaf-Witten oracle for group categories
# ---------------------------------------------------------------------------


def cyclic_group_table(nmod):
    """Multiplication table of Z/nmod with identity 0."""
    return [[(i + j) % nmod for j in range(nmod)] for i in range(nmod)]


def dw_oracle(table, tri, budget=None):
    """Count flat G-colorings: (1/|G|^a) #{g: E->G with g_ij g_jk = g_ik}.

    Returns an exact Fraction equal to |Hom(pi1(V), G)| / |G|.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    tab = np.asarray(table, dtype=np.int64)
    ng = tab.shape[0]
    if tab.shape != (ng, ng):
        raise ValueError("group table must be square")
    total = ng ** tri.n_edges
    if total > budget:
        raise BudgetError(
            "oracle needs %d colorings, budget is %d" % (total, budget)
        )
    rels = []
    for cid in range(tri.n_faces):
        t, f = tri.face_reps[cid]
        i, j, k = FACE_CORNERS[f]
        rels.append((tri.edge_class(t, i, j), tri.edge_class(t, j, k),
                     tri.edge_class(t, i, k)))
    count = 0
    for lo, hi in _chunks(total):
        idx = np.arange(lo, hi, dtype=np.int64)
        dig = _decode(idx, ng, tri.n_edges)
        ok = np.ones(hi - lo, dtype=bool)
        for (ea, eb, ec) in rels:
            ok &= tab[dig[ea], dig[eb]] == dig[ec]
        count += int(np.sum(ok))
    return Fraction(count, ng ** tri.n_vertices)


# ---------------------------------------------------------------------------
# bundled triangulation constructors
# ---------------------------------------------------------------------------


def boundary_4_simplex():
    """S^3 as the boundary of the 4-simplex: 5 vertices, 5 tetrahedra."""
    tets = []
    for i in range(5):
        v = tuple(x for x in range(5) if x != i)
        tets.append((v, (-1) ** i))
    return Triangulation(tets, pi1={"free_rank": 0, "torsion": []},
                         name="s3_boundary4simplex")


def lens_triangulation(p, q, pi1=None):
    """Bipyramid over a p-gon with caps glued after a shift of q.

    For gcd(p,q)=1 this is the lens space L(p,q) (p=1: S^3; p=2,q=1: RP^3);
    (p,q)=(4,2) realizes the antipodal-quotient presentation of RP^3.
    Tet i has corners (N, S, P_i, P_{i+1}); all signs +1.
    """
    if p < 1 or not (1 <= q <= p):
        raise ValueError("need p >= 1 and 1 <= q <= p")
    tets = [(None, 1) for _ in range(p)]
    gluings = []
    for i in range(p):
        gluings.append(((i, 2), ((i + 1) % p, 3)))   # wedge-to-wedge
        gluings.append(((i, 1), ((i + q) % p, 0)))   # cap-to-cap, shifted
    return Triangulation(tets, gluings=gluings, pi1=pi1)


def s2xs1_twotet():
    """S^2 x S^1 from two tetrahedra, one vertex, three edges.

    Unique two-tet oriented complex with first homology Z (exhaustive search
    over the 105 face pairings and both relative signs); its state sum is 1
    for every category, the dimension of the disk space of the 2-sphere.
    """
    tets = [(None, 1), (None, -1)]
    gluings = [
        ((0, 0), (0, 3)),
        ((0, 1), (1, 1)),
        ((0, 2), (1, 2)),
        ((1, 0), (1, 3)),
    ]
    return Triangulation(tets, gluings=gluings,
                         pi1={"free_rank": 1, "torsion": []}, name="s2xs1")


def s3_twotet():
    """S^3 from two tetrahedra with a single vertex and three edges.

    First hit of the exhaustive search over two-tet gluing schemes for a
    valid oriented one-vertex complex with trivial first homology (seven
    exist); two-tet homology spheres are standard spheres.
    """
    tets = [(None, 1), (None, -1)]
    gluings = [
        ((0, 0), (0, 1)),
        ((0, 2), (1, 0)),
        ((0, 3), (1, 1)),
        ((1, 2), (1, 3)),
    ]
    return Triangulation(tets, gluings=gluings,
                         pi1={"free_rank": 0, "torsion": []}, name="s3_twotet")


def t3_sixtet():
    """One-vertex 6-tet 3-torus from the ordered unit-cube triangulation.

    Tet for permutation (i,j,k) of the axes has corners 0, e_i, e_i+e_j, (1,1,1);
    opposite cube faces are identified by translation.
    """
    perms = sorted(itertools.permutations(range(3)))
    corners = []
    signs = []
    for pi in perms:
        c = [np.zeros(3, dtype=np.int64)]
        for ax in pi:
            nxt = c[-1].copy()
            nxt[ax] += 1
            c.append(nxt)
        corners.append([tuple(x) for x in c])
        perm_sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if pi[a] > pi[b]:
                    perm_sign = -perm_sign
        signs.append(perm_sign)

    def face_key(triple):
        arr = np.array(triple, dtype=np.int64)
        base = arr.min(axis=0)
        return tuple(map(tuple, (arr - base).tolist()))

    slots = {}
    gluings = []
    for t in range(6):
        for f in range(4):
            triple = [corners[t][c] for c in FACE_CORNERS[f]]
            key = face_key(triple)
            if key in slots:
                other = slots.pop(key)
                # order-preserving check: aligned corners sort identically
                gluings.append((other, (t, f)))
            else:
                slots[key] = (t, f)
    if slots:
        raise RuntimeError("cube face matching failed")
    tets = [(None, signs[t]) for t in range(6)]
    return Triangulation(tets, gluings=gluings,
                         pi1={"free_rank": 3, "torsion": []}, name="t3_sixtet")


def doubled_tetrahedron():
    """S^3 as two tetrahedra glued along their whole boundary."""
    tets = [(None, 1), (None, -1)]
    gluings = [((0, f), (1, f)) for f in range(4)]
    return Triangulation(tets, gluings=gluings,
                         pi1={"free_rank": 0, "torsion": []})


def _lens(p, q, torsion):
    """Constructor of L(p, q) tagged with pi1 = Z/torsion."""
    return lambda: lens_triangulation(
        p, q, pi1={"free_rank": 0, "torsion": [torsion]})


# name or alias -> constructor
BUILTIN_TRIANGULATIONS = {
    "s3": boundary_4_simplex,
    "s3_boundary4simplex": boundary_4_simplex,
    "s3_small": s3_twotet,
    "s3_twotet": s3_twotet,
    "rp3": _lens(2, 1, 2),
    "rp3_lens": _lens(2, 1, 2),
    "rp3_antipodal": _lens(4, 2, 2),
    "lens_3_1": _lens(3, 1, 3),
    "lens_4_1": _lens(4, 1, 4),
    "s2xs1": s2xs1_twotet,
    "t3": t3_sixtet,
    "t3_sixtet": t3_sixtet,
}


def builtin_triangulation(name):
    """Build one of the bundled triangulations by short name."""
    make = BUILTIN_TRIANGULATIONS.get(name)
    if make is None:
        raise TriangulationError(
            "unknown builtin triangulation %r (have: %s)"
            % (name, ", ".join(sorted(BUILTIN_TRIANGULATIONS)))
        )
    tri = make()
    tri.name = name
    return tri
