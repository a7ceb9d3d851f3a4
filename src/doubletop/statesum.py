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

The invariant of a coloring assigns every edge class a label and every
tetrahedron the weight

    W = d(c02)^{-1/2} d(c13)^{-1/2} * [F^{c01,c12,c23}_{c03}]_{c02,c13}

conjugated when the tetrahedron sign is -1; then

    Z = lambda^{-a} * sum_colorings (prod_E d) * prod_tets W

with a the vertex count and lambda the global dimension.  The ring is
multiplicity-free, so a face carries no basis index.

`state_sum` never lists colorings: the sum is a tensor network with one
weight table per tetrahedron (indexed by its six edge labels) and one ``d``
vector per edge, contracted by variable elimination (`doubletop.contract`).
The Dijkgraaf-Witten count `dw_oracle` is the same contraction over a group
table, with one 0/1 relation tensor per face class.  Its independent
references live in the tests: the Smith-form first homology and a brute
enumeration of all |G|^E colorings.
"""

from __future__ import annotations

import itertools
import json
import numbers
from fractions import Fraction

import numpy as np

from .catdata import _fault, _listed, global_dim
from .contract import BudgetError, contract

FACE_CORNERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
EDGE_SLOTS = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))
_EDGE_INDEX = {pair: k for k, pair in enumerate(EDGE_SLOTS)}
_FACE_EDGES = tuple(tuple(_EDGE_INDEX[e] for e in itertools.combinations(c, 2))
                    for c in FACE_CORNERS)  # edge slots of face f


class TriangulationError(ValueError):
    """A triangulation invariant failed (non-manifold, orientation, ...)."""


def _classes(n, pairs):
    """Class id of each slot 0..n-1 under the unions `pairs`, and the class
    count; classes are numbered in order of their first slot."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    number = {}
    ids = [number.setdefault(find(x), len(number)) for x in range(n)]
    return ids, len(number)


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

    def __init__(self, tets_signs, gluings=None, n_vertices=None):
        # tets_signs: list of (vertex_ids_or_None, sign)
        vlists = [v for (v, _) in tets_signs]
        self.n_tets = len(tets_signs)
        if self.n_tets == 0:
            raise TriangulationError("empty triangulation")
        if any(s not in (-1, 1) or isinstance(s, bool) for (_, s) in tets_signs):
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
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool)
                   for pair in self.gluings for slot in pair for x in slot):
            raise TriangulationError("gluing slots must be integer (tet, face) pairs")
        if n_vertices is not None and (not isinstance(n_vertices, numbers.Real)
                                       or isinstance(n_vertices, bool)
                                       or n_vertices % 1 != 0):
            raise TriangulationError("vertex count must be an integer")
        self._validate_pairing()
        self._orientation_check()
        self._build_classes()
        self._assign_vertices(vlists, n_vertices)
        self._euler_check()

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
            t, f = min(set(itertools.product(range(self.n_tets), range(4))) - used)
            raise TriangulationError("open boundary: face %d of tet %d unglued" % (f, t))

    def _orientation_check(self):
        for (ta, fa), (tb, fb) in self.gluings:
            if self.signs[ta] * (-1) ** fa != -self.signs[tb] * (-1) ** fb:
                raise TriangulationError(
                    "orientation incoherence at gluing (%d,%d)~(%d,%d)"
                    % (ta, fa, tb, fb)
                )

    def _build_classes(self):
        # integer slots: corner 4t+c, edge 6t+k (k indexes EDGE_SLOTS), face 4t+f
        v_pairs, e_pairs, f_pairs = [], [], []
        for (ta, fa), (tb, fb) in self.gluings:
            f_pairs.append((4 * ta + fa, 4 * tb + fb))
            v_pairs += [(4 * ta + ca, 4 * tb + cb)
                        for ca, cb in zip(FACE_CORNERS[fa], FACE_CORNERS[fb])]
            e_pairs += [(6 * ta + ka, 6 * tb + kb)
                        for ka, kb in zip(_FACE_EDGES[fa], _FACE_EDGES[fb])]
        vids, self.n_vertices = _classes(4 * self.n_tets, v_pairs)
        eids, self.n_edges = _classes(6 * self.n_tets, e_pairs)
        fids, self.n_faces = _classes(4 * self.n_tets, f_pairs)
        self.tet_vertices = np.array(vids, dtype=np.int64).reshape(self.n_tets, 4)
        self.tet_edges = np.array(eids, dtype=np.int64).reshape(self.n_tets, 6)
        self.tet_faces = np.array(fids, dtype=np.int64).reshape(self.n_tets, 4)
        # the first slot of each face class, in class order
        firsts = np.unique(fids, return_index=True)[1]
        self.face_reps = [divmod(int(x), 4) for x in firsts]

    def _assign_vertices(self, vlists, n_vertices):
        if all(v is None for v in vlists):
            self.verts = self.tet_vertices.tolist()
        else:
            ids = {}
            for t, v in enumerate(vlists):
                if v is None or len(v) != 4:
                    raise TriangulationError("tet %d: need 4 vertex ids" % t)
                for c, cls in enumerate(self.tet_vertices[t].tolist()):
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
        if n_vertices is not None and n_vertices != self.n_vertices:
            raise TriangulationError(
                "file claims %d vertices, complex has %d"
                % (n_vertices, self.n_vertices)
            )

    def _euler_check(self):
        """chi = V - E + F - T must vanish; this alone makes every link a sphere.

        The pairing check leaves a closed pseudomanifold.  Each vertex link
        is a closed surface: order-preserving gluings never reverse an
        edge, so the link of each edge end is a circle.  It is connected,
        because the gluings that join link triangles along their sides are
        exactly the unions that define the vertex classes.  The links have
        4T triangles, 6T sides and 2E vertices (edge ends) in all, so with
        F = 2T

            sum_v (2 - chi(L_v)) = 2V - 2E + 3F - 4T = 2 chi(M).

        Every term is >= 0, since a connected closed surface has chi <= 2;
        so chi(M) = 0 forces chi(L_v) = 2, a sphere, at every vertex
        (Seifert-Threlfall).  `tests/oracles.py::vertex_link_euler` checks
        the links directly.
        """
        chi = self.n_vertices - self.n_edges + self.n_faces - self.n_tets
        if chi != 0:
            raise TriangulationError("Euler characteristic %d != 0" % chi)

    # -- small accessors ------------------------------------------------------

    def edge_class(self, t, i, j):
        return int(self.tet_edges[t, _EDGE_INDEX[(min(i, j), max(i, j))]])

    def to_dict(self):
        return {
            "vertices": self.n_vertices,
            "tets": [{"v": list(self.verts[t]), "sign": self.signs[t]}
                     for t in range(self.n_tets)],
            "gluings": [[list(a), list(b)] for (a, b) in self.gluings],
        }


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
        tets = [(tuple(_listed(t["v"], "tetrahedron v")) if "v" in t else None, t.get("sign", 1))
                for t in _listed(doc["tets"], "tets")]
        gluings = doc.get("gluings")
        n_vertices = doc.get("vertices")
    except (AttributeError, KeyError, TypeError) as exc:
        raise TriangulationError("malformed triangulation document: %s" % _fault(exc)) from exc
    if any(type(v) not in (int, str) for vs, _ in tets for v in vs or ()):
        raise TriangulationError("vertex ids must be JSON integers or strings")
    return Triangulation(tets, gluings=gluings, n_vertices=n_vertices)


# ---------------------------------------------------------------------------
# weights and the state sum
# ---------------------------------------------------------------------------


def _weight_tables(cat):
    """Dense per-orientation weight tables over (c01,c12,c23,c02,c13,c03):
    cat.F with its axes (a,b,c,d,e,f) reordered to (a,b,c,e,f,d), divided
    by sqrt(d_e d_f)."""
    n = cat.n
    root = np.sqrt(np.outer(cat.d, cat.d)).reshape(1, 1, 1, n, n, 1)
    W = np.ascontiguousarray(cat.F.transpose(0, 1, 2, 4, 5, 3) / root)
    return W, np.conj(W)


def state_sum(cat, tri, budget=None):
    """6j-symbol state sum Z(V) for a validated category and complex.

    Contracts the tensor network of one weight table per tetrahedron and
    one ``d`` vector per edge.  BudgetError is raised when one elimination
    step of that contraction would sum over more than `budget` labels (see
    `doubletop.contract`).
    """
    Wp, Wn = _weight_tables(cat)
    factors = [(cat.d, [e]) for e in range(tri.n_edges)]
    for t in range(tri.n_tets):
        factors.append((Wp if tri.signs[t] == 1 else Wn, list(tri.tet_edges[t])))
    value, _ = contract(factors, budget)
    return complex(value) * global_dim(cat) ** (-tri.n_vertices)


# ---------------------------------------------------------------------------
# Dijkgraaf-Witten oracle for group categories
# ---------------------------------------------------------------------------


def cyclic_group_table(nmod):
    """Multiplication table of Z/nmod with identity 0."""
    return [[(i + j) % nmod for j in range(nmod)] for i in range(nmod)]


def _check_group(tab):
    """ValueError, naming the failure, unless the array `tab` is the
    multiplication table of a group with identity 0."""
    if tab.ndim != 2 or tab.shape[0] != tab.shape[1] or tab.size == 0:
        raise ValueError("group table must be square")
    if tab.dtype.kind not in "iu":
        raise ValueError("group table entries must be integers")
    ids = np.arange(len(tab))
    if tab.min() < 0 or tab.max() >= len(tab):
        raise ValueError("group table entry outside 0..%d" % (len(tab) - 1))
    if not ((np.sort(tab, axis=1) == ids).all()
            and (np.sort(tab, axis=0).T == ids).all()):
        raise ValueError("group table row or column is not a permutation")
    if not ((tab[0] == ids).all() and (tab[:, 0] == ids).all()):
        raise ValueError("group table: 0 is not the identity")
    if not np.array_equal(tab[tab], tab[:, tab]):  # (ab)c against a(bc)
        raise ValueError("group table is not associative")


def dw_oracle(table, tri, budget=None):
    """Count flat G-colorings: (1/|G|^a) #{g: E->G with g_ij g_jk = g_ik}.

    The count is one contraction (`doubletop.contract`) of a 0/1 relation
    tensor [g_ij g_jk = g_ik] per face class, in Python ints, so it is
    exact; `budget` bounds its largest elimination step.  Returns an exact
    Fraction equal to |Hom(pi1(V), G)| / |G|.  ValueError names the
    failure when `table` is not a group with identity 0.
    """
    tab = np.asarray(table)
    _check_group(tab)
    ng = tab.shape[0]
    rel = (tab[:, :, None] == np.arange(ng)).astype(np.int64).astype(object)
    factors = []
    for t, f in tri.face_reps:
        i, j, k = FACE_CORNERS[f]
        factors.append((rel, (tri.edge_class(t, i, j), tri.edge_class(t, j, k),
                              tri.edge_class(t, i, k))))
    count, _ = contract(factors, budget)
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
    return Triangulation(tets)


def lens_triangulation(p, q):
    """Bipyramid over a p-gon with caps glued after a shift of q.

    For gcd(p,q)=1 this is the lens space L(p,q) (p=1: S^3; p=2,q=1: RP^3);
    (p,q)=(4,2) realizes the antipodal-quotient presentation of RP^3.
    Tet i has corners (N, S, P_i, P_{i+1}); all signs +1.
    """
    if not (all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (p, q))
            and 1 <= q <= p):
        raise TriangulationError("need integers p >= 1 and 1 <= q <= p")
    p, q = int(p), int(q)  # numpy integers would reach the gluing list
    tets = [(None, 1) for _ in range(p)]
    gluings = []
    for i in range(p):
        gluings.append(((i, 2), ((i + 1) % p, 3)))   # wedge-to-wedge
        gluings.append(((i, 1), ((i + q) % p, 0)))   # cap-to-cap, shifted
    return Triangulation(tets, gluings=gluings)


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
    return Triangulation(tets, gluings=gluings)


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
    return Triangulation(tets, gluings=gluings)


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
    return Triangulation(tets, gluings=gluings)


def doubled_tetrahedron():
    """S^3 as two tetrahedra glued along their whole boundary."""
    tets = [(None, 1), (None, -1)]
    gluings = [((0, f), (1, f)) for f in range(4)]
    return Triangulation(tets, gluings=gluings)


# name or alias -> constructor
BUILTIN_TRIANGULATIONS = {
    "s3": boundary_4_simplex,
    "s3_boundary4simplex": boundary_4_simplex,
    "s3_small": s3_twotet,
    "s3_twotet": s3_twotet,
    "rp3": lambda: lens_triangulation(2, 1),
    "rp3_lens": lambda: lens_triangulation(2, 1),
    "rp3_antipodal": lambda: lens_triangulation(4, 2),
    "lens_3_1": lambda: lens_triangulation(3, 1),
    "lens_4_1": lambda: lens_triangulation(4, 1),
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
    return make()
