"""Independent cross-check helpers for the test suite.

Everything here is deliberately written from scratch against textbook
definitions (integer Smith normal form, simplicial homology, flat-coloring
counts, the state sum as a sum over colorings) so it shares no code with the
package internals it checks.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st


def smith_diagonal(mat):
    """Diagonal entries of the Smith normal form of an integer matrix.

    Returns (diag, rank). Plain row/column reduction over Z; fine for the
    tiny matrices in these tests.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    r = 0
    while r < min(m, n):
        piv = None
        best = None
        for i in range(r, m):
            for j in range(r, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[r], a[i0] = a[i0], a[r]
        for row in a:
            row[r], row[j0] = row[j0], row[r]
        stable = False
        while not stable:
            stable = True
            for i in range(r + 1, m):
                if a[i][r] % a[r][r]:
                    q = a[i][r] // a[r][r]
                    for j in range(n):
                        a[i][j] -= q * a[r][j]
                    a[r], a[i] = a[i], a[r]
                    stable = False
            for i in range(r + 1, m):
                q = a[i][r] // a[r][r]
                for j in range(n):
                    a[i][j] -= q * a[r][j]
            for j in range(r + 1, n):
                if a[r][j] % a[r][r]:
                    q = a[r][j] // a[r][r]
                    for i in range(m):
                        a[i][j] -= q * a[i][r]
                    for i in range(m):
                        a[i][r], a[i][j] = a[i][j], a[i][r]
                    stable = False
            for j in range(r + 1, n):
                q = a[r][j] // a[r][r]
                for i in range(m):
                    a[i][j] -= q * a[i][r]
        diag.append(abs(a[r][r]))
        r += 1
    return diag, r


def first_homology(tri):
    """(free rank, invariant factors > 1) of H1 from the chain complex."""
    from doubletop.statesum import EDGE_SLOTS, FACE_CORNERS

    E, F = tri.n_edges, tri.n_faces
    edge_rep = {}
    for t in range(tri.n_tets):
        for (i, j) in EDGE_SLOTS:
            edge_rep.setdefault(tri.edge_class(t, i, j), (t, i, j))
    d1 = [[0] * E for _ in range(tri.n_vertices)]
    for e, (t, i, j) in edge_rep.items():
        d1[tri.tet_vertices[t, j]][e] += 1
        d1[tri.tet_vertices[t, i]][e] -= 1
    d2 = [[0] * F for _ in range(E)]
    for fc in range(F):
        t, f = tri.face_reps[fc]
        i, j, k = FACE_CORNERS[f]
        d2[tri.edge_class(t, i, j)][fc] += 1
        d2[tri.edge_class(t, j, k)][fc] += 1
        d2[tri.edge_class(t, i, k)][fc] -= 1
    diag2, r2 = smith_diagonal(d2)
    _, r1 = smith_diagonal(d1)
    torsion = sorted(x for x in diag2 if x > 1)
    return E - r1 - r2, torsion


def hom_count_to_cyclic(rank, torsion, nmod):
    """|Hom(A, Z/nmod)| for A = Z^rank + sum Z/t."""
    count = nmod ** rank
    for t in torsion:
        count *= math.gcd(t, nmod)
    return count


def expected_flat_fraction(tri, nmod):
    """|Hom(pi1, Z/nmod)| / nmod via independently computed H1."""
    rank, torsion = first_homology(tri)
    return Fraction(hom_count_to_cyclic(rank, torsion, nmod), nmod)


_CHUNK = 4096  # colorings per vectorised block of dw_brute


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


def dw_brute(table, tri, budget=None):
    """Count flat G-colorings: (1/|G|^a) #{g: E->G with g_ij g_jk = g_ik}.

    Lists all |G|^E edge colorings in blocks and tests every face relation
    on each; the reference for `statesum.dw_oracle`, also for non-abelian
    tables.  Returns an exact Fraction equal to |Hom(pi1(V), G)| / |G|.
    """
    from doubletop.contract import DEFAULT_BUDGET, BudgetError
    from doubletop.statesum import FACE_CORNERS

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


def tet_weight(cat, tri, t, coloring):
    """Weight of tetrahedron `t` under an edge coloring (a label id per edge
    class); 0 when one of its faces is not an admissible triple.
    """
    c01, c12, c23, c02, c13, c03 = (
        coloring[tri.edge_class(t, i, j)]
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)))
    if not (cat.N[c01, c12, c02] and cat.N[c12, c23, c13]
            and cat.N[c01, c13, c03] and cat.N[c02, c23, c03]):
        return 0.0
    rows, cols, mat = fblock(cat, c01, c12, c23, c03)  # the block form
    val = mat[rows.index(c02), cols.index(c13)]
    val = val / math.sqrt(cat.d[c02] * cat.d[c13])
    return complex(val.conjugate() if tri.signs[t] == -1 else val)


def brute_state_sum(cat, tri):
    """Z = lambda^-a sum_colorings prod_E d prod_tets W.

    Lists every edge coloring, so it is only for complexes with a handful
    of edges.
    """
    lam = sum(float(x) ** 2 for x in cat.d)
    total = 0j
    for col in itertools.product(range(cat.n), repeat=tri.n_edges):
        dims = math.prod(float(cat.d[c]) for c in col)
        total += dims * math.prod(tet_weight(cat, tri, t, col) for t in range(tri.n_tets))
    return total / lam ** tri.n_vertices


def dw_plumbing(graph, nmod):
    """|Hom(H1(M), Z/nmod)| / nmod for the plumbed manifold, by brute force.

    H1 of a plumbing on m vertices is presented by the linking matrix B,
    so homomorphisms to Z/n are vectors x in (Z/n)^m with B x = 0 mod n.
    Counts them directly; independent of Smith form and of the package.
    """
    import itertools

    B = graph.linking_matrix()
    m = len(B)
    count = 0
    for x in itertools.product(range(nmod), repeat=m):
        if all(sum(B[i][j] * x[j] for j in range(m)) % nmod == 0
               for i in range(m)):
            count += 1
    return Fraction(count, nmod)


def dw_plumbed(graph, nmod):
    """|Hom(H1(M), Z/nmod)| / nmod for the plumbed manifold of any graph.

    A graph with cycle rank b1 = E - m + (components) plumbs a manifold
    with H1 = coker B + Z^b1, so the count gains a factor nmod^b1 over
    dw_plumbing.  Components are found here by search, not by the package.
    """
    adj = {v: set() for v in graph.ids}
    for u, w in graph.edges:
        adj[u].add(w)
        adj[w].add(u)
    seen, components = set(), 0
    for v in graph.ids:
        if v in seen:
            continue
        components += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(adj[x])
    b1 = len(graph.edges) - len(graph.ids) + components
    return nmod ** b1 * dw_plumbing(graph, nmod)


def torus_bundle_count(framings, nmod):
    """|ker(A - 1)| on (Z/nmod)^2 with A = prod [[-e_i, 1], [-1, 0]].

    A cycle of vertices with framings e_i plumbs the torus bundle with
    monodromy A, whose H1 is Z + coker(A - 1); so |Hom(H1, Z/nmod)| / nmod
    is this count.  Multiplies 2x2 integer matrices and lists all vectors.
    """
    A = [[1, 0], [0, 1]]
    for e in framings:
        A = [[-e * A[0][0] - A[0][1], A[0][0]],
             [-e * A[1][0] - A[1][1], A[1][0]]]
    K = [[A[0][0] - 1, A[0][1]], [A[1][0], A[1][1] - 1]]
    return sum(1 for x in range(nmod) for y in range(nmod)
               if (K[0][0] * x + K[0][1] * y) % nmod == 0
               and (K[1][0] * x + K[1][1] * y) % nmod == 0)


def multiplicity_ring_document(seed=2024):
    """Category document of the ring x (x) x = 1 + 2x with seeded random F
    entries on both copies of x, basis indices 0 and 1 in every slot.

    The package supports only multiplicity-free rings, so this document is
    refused at construction, with N[1,1,1] = 2 named.
    """
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    N[1, 1, 1] = 2
    rng = np.random.default_rng(seed)
    sixj = []
    for dd in range(2):
        rows = [(e, al, be) for e in range(2) for al in range(N[1, 1, e])
                for be in range(N[e, 1, dd])]
        cols = [(f, mu, nu) for f in range(2) for mu in range(N[1, 1, f])
                for nu in range(N[1, f, dd])]
        for (e, al, be) in rows:
            for (f, mu, nu) in cols:
                re, im = rng.normal(size=2)
                sixj.append({"labels": [1, 1, 1, dd, e, f], "basis": [al, be, mu, nu],
                             "re": float(re), "im": float(im)})
    return {
        "labels": [{"id": 0, "name": "1"}, {"id": 1, "name": "x"}],
        "dual": [0, 1],
        "fusion": [{"i": i, "j": j, "k": k, "mult": int(N[i, j, k])}
                   for i, j, k in np.argwhere(N).tolist()],
        "qdims": [1.0, 1.0 + math.sqrt(2.0)],
        "sixj": sixj,
    }


def random_f_ring(seed=2024):
    """Unvalidated fibonacci ring tau (x) tau = 1 + tau with seeded random
    complex F on every admissible entry of the non-unit blocks.

    The F entries are neither unitary nor pentagonal, and they are complex,
    so a swapped label, a missed conjugation or a transposed F-move shows in
    every contraction that reads them.
    """
    from doubletop.catdata import CategoryData

    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = N[1, 1, 1] = 1
    rng = np.random.default_rng(seed)
    fentries = [((1, 1, 1, dd, e, f), (0, 0, 0, 0), complex(*rng.normal(size=2)))
                for dd in range(2) for e in range(2) for f in range(2)
                if N[e, 1, dd] and N[1, f, dd]]
    return CategoryData(["1", "tau"], [0, 1], N, [1.0, (1.0 + math.sqrt(5.0)) / 2],
                        fentries, validate=False)


def vec_s3_document():
    """Category document of Vec(S3) with trivial F, labels = permutations of 3.

    The only noncommutative fusion ring here; its double has 8 blocks with
    quantum dimensions 1, 1, 2, 2, 2, 2, 3, 3 (Dijkgraaf-Pasquier-Roche).
    """
    perms = list(itertools.permutations(range(3)))
    mul = [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]
    return {
        "labels": [{"id": i, "name": "".join(map(str, p))}
                   for i, p in enumerate(perms)],
        "dual": [mul[i].index(0) for i in range(6)],
        "fusion": [{"i": i, "j": j, "k": mul[i][j], "mult": 1}
                   for i in range(6) for j in range(6)],
        "qdims": [1.0] * 6,
        "sixj": [{"labels": [a, b, c, mul[mul[a][b]][c], mul[a][b], mul[b][c]],
                  "basis": [0, 0, 0, 0], "re": 1.0}
                 for a, b, c in itertools.product(range(1, 6), repeat=3)],
    }


def twisted_vec_zn(nmod, k):
    """Vec_ZN^omega, the cyclic group with the 3-cocycle of class k:
    F^{abc}_{a+b+c}[a+b, b+c] = omega(a,b,c) = exp(2 pi i k a (b + c - [b+c]) / N^2),
    [b+c] the sum reduced mod N; omega is 1 when a, b or c is the unit."""
    from doubletop.catdata import CategoryData

    N = np.zeros((nmod,) * 3, dtype=np.int64)
    for a, b in itertools.product(range(nmod), repeat=2):
        N[a, b, (a + b) % nmod] = 1
    fentries = [((a, b, c, (a + b + c) % nmod, (a + b) % nmod, (b + c) % nmod),
                 (0, 0, 0, 0),
                 np.exp(2j * np.pi * k * a * (b + c - (b + c) % nmod) / nmod ** 2))
                for a, b, c in itertools.product(range(1, nmod), repeat=3)]
    return CategoryData(["g%d" % a for a in range(nmod)],
                        [(-a) % nmod for a in range(nmod)], N, [1.0] * nmod, fentries)


def twisted_double_twists(nmod, k):
    """The twists theta_(a,j) = exp(2 pi i (a j / N + k a^2 / N^2)) of D^omega(Z_N),
    a a flux and j a charge (Coste, Gannon and Ruelle, Nucl. Phys. B 581, 2000);
    the exponent is reduced mod N^2 before the one exp."""
    a, j = np.divmod(np.arange(nmod * nmod), nmod)
    return np.exp(2j * np.pi * ((a * j * nmod + k * a * a) % nmod ** 2) / nmod ** 2)


def all_pairings(items):
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1:]
        for sub in all_pairings(rest):
            yield [(first, items[k])] + sub


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


def tet_components(tri):
    """Number of connected components of the complex, by union over gluings."""
    uf = _UnionFind()
    for (ta, _), (tb, _) in tri.gluings:
        uf.union(ta, tb)
    return len({uf.find(t) for t in range(tri.n_tets)})


def triangulation_classes(tri):
    """Vertex, edge and face classes of `tri` from its gluings alone.

    The tuple-keyed union-find over (t, corner), (t, (i, j)) and (t, f)
    slots, numbering classes by first appearance in tet-major order.
    Returns a dict of the per-tet class tables ("vertices", "edges",
    "faces"), their counts, `face_reps`, and the slot -> class maps.
    """
    from doubletop.statesum import EDGE_SLOTS, FACE_CORNERS

    uf_v, uf_e, uf_f = _UnionFind(), _UnionFind(), _UnionFind()
    for t in range(tri.n_tets):
        for c in range(4):
            uf_v.find((t, c))
        for p in EDGE_SLOTS:
            uf_e.find((t, p))
        for f in range(4):
            uf_f.find((t, f))
    for (ta, fa), (tb, fb) in tri.gluings:
        ca, cb = FACE_CORNERS[fa], FACE_CORNERS[fb]
        uf_f.union((ta, fa), (tb, fb))
        for r in range(3):
            uf_v.union((ta, ca[r]), (tb, cb[r]))
        for r in range(3):
            for s in range(r + 1, 3):
                uf_e.union((ta, (ca[r], ca[s])), (tb, (cb[r], cb[s])))
    v_order = [(t, c) for t in range(tri.n_tets) for c in range(4)]
    e_order = [(t, p) for t in range(tri.n_tets) for p in EDGE_SLOTS]
    f_order = [(t, f) for t in range(tri.n_tets) for f in range(4)]
    vmap, n_vertices = uf_v.classes(v_order)
    emap, n_edges = uf_e.classes(e_order)
    fmap, n_faces = uf_f.classes(f_order)
    face_reps = [None] * n_faces
    for t in range(tri.n_tets):
        for f in range(4):
            cid = fmap[(t, f)]
            if face_reps[cid] is None:
                face_reps[cid] = (t, f)
    return {
        "vertices": [[vmap[(t, c)] for c in range(4)] for t in range(tri.n_tets)],
        "edges": [[emap[(t, p)] for p in EDGE_SLOTS] for t in range(tri.n_tets)],
        "faces": [[fmap[(t, f)] for f in range(4)] for t in range(tri.n_tets)],
        "counts": (n_vertices, n_edges, n_faces),
        "face_reps": face_reps,
        "vmap": vmap,
    }


def vertex_link_euler(tri):
    """Raise TriangulationError unless every vertex link is a connected
    surface of Euler characteristic 2.

    Builds each link from one triangle per tet corner, glued along the
    sides that the face gluings pair, and counts its vertices, sides and
    triangles directly.
    """
    from doubletop.statesum import FACE_CORNERS, TriangulationError

    vmap = triangulation_classes(tri)["vmap"]
    # link pieces: one triangle per tet corner; its sides are (t, corner, f)
    # for the three faces f != corner; gluings pair sides.
    uf_s = _UnionFind()
    uf_conn = _UnionFind()
    for t in range(tri.n_tets):
        for c in range(4):
            for f in range(4):
                if f != c:
                    uf_s.find((t, c, f))
    for (ta, fa), (tb, fb) in tri.gluings:
        ca, cb = FACE_CORNERS[fa], FACE_CORNERS[fb]
        for r in range(3):
            uf_s.union((ta, ca[r], fa), (tb, cb[r], fb))
            uf_conn.union((ta, ca[r]), (tb, cb[r]))
    # link vertices: one per (tet corner, other corner) ordered pair
    uf_lv = _UnionFind()
    for t in range(tri.n_tets):
        for c in range(4):
            for m in range(4):
                if m != c:
                    uf_lv.find((t, c, m))
    for (ta, fa), (tb, fb) in tri.gluings:
        ca, cb = FACE_CORNERS[fa], FACE_CORNERS[fb]
        for r in range(3):
            for s in range(3):
                if s != r:
                    uf_lv.union((ta, ca[r], ca[s]), (tb, cb[r], cb[s]))
    pieces = {}  # vertex class -> [corner count, side classes, lv classes]
    for t in range(tri.n_tets):
        for c in range(4):
            pieces.setdefault(vmap[(t, c)], [0, set(), set()])[0] += 1
    for (t, c, f) in list(uf_s.parent):
        cls = vmap[(t, c)]
        pieces[cls][1].add(uf_s.find((t, c, f)))
    for (t, c, m) in list(uf_lv.parent):
        cls = vmap[(t, c)]
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
    for t in range(tri.n_tets):
        for c in range(4):
            cls = vmap[(t, c)]
            corner_roots.setdefault(cls, set()).add(uf_conn.find((t, c)))
    for cls, roots in corner_roots.items():
        if len(roots) != 1:
            raise TriangulationError("vertex %d link is disconnected" % cls)


@st.composite
def closed_pairings(draw, max_tets=8):
    """(tets_signs, gluings) of a closed, orientation-coherent face pairing.

    Draws the tet count and signs first.  Slot (t, f) has parity
    sign_t (-1)^f, every tet has two slots of each parity, and each
    gluing joins slots of opposite parity, which is the orientation
    condition.  The pairing may still fail the Euler check.  Use with
    ``settings(derandomize=True, database=None)`` for a reproducible run.
    """
    n = draw(st.integers(1, max_tets))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    slots = [(t, f) for t in range(n) for f in range(4)]
    plus = [(t, f) for t, f in slots if signs[t] * (-1) ** f == 1]
    minus = draw(st.permutations([(t, f) for t, f in slots
                                  if signs[t] * (-1) ** f == -1]))
    return [(None, s) for s in signs], list(zip(plus, minus))


def star_antihom_residual(St, C):
    """max |star(e_i e_j) - star(e_j) star(e_i)| over all basis pairs (i, j).

    One pair at a time, with star(x) = St conj(x) and the product read off
    the structure constants C; the reference for the tensor form in `tube`.
    """
    worst = 0.0
    for i in range(C.shape[0]):
        for j in range(C.shape[0]):
            lhs = St @ np.conj(C[i, j])
            rhs = np.einsum("a,b,abk->k", St[:, j], St[:, i], C)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def star_adjoint_residual(St, C):
    """max |L(e_k*) - L(e_k)^+| over all basis elements k.

    One k at a time: L(x) is the matrix of y -> x.y read off the structure
    constants, and star(e_k) = St[:, k]; the reference for `tube`'s one product.
    """
    worst = 0.0
    for k in range(C.shape[0]):
        left = C[k].T  # L(e_k)[m, j] = C[k, j, m]
        lstar = np.einsum("a,ajm->mj", St[:, k], C)
        worst = max(worst, float(np.max(np.abs(lstar - left.conj().T))))
    return worst


def canonical_permutation(qdims, T, S, vacuum_index=0):
    """Block order of `modulardata.canonical_permutation`, on Python tuples.

    The same individualization-refinement and smallest-(T, S)-stream
    choice, with each S and T entry a (round(re, 9), round(im, 9)) tuple
    and each signature a tuple sorted in Python.
    """
    def ent(z):
        return (round(float(np.real(z)), 9), round(float(np.imag(z)), 9))

    r1 = len(qdims)
    E = [[ent(S[i, j]) for j in range(r1)] for i in range(r1)]

    def rank(sig):
        keys = sorted(set(sig.values()))
        return {i: keys.index(sig[i]) for i in range(r1)}

    def refine(sig):
        sig = rank(sig)
        while True:
            prof = {i: (sig[i], tuple(sorted((sig[j], E[i][j])
                                             for j in range(r1))))
                    for i in range(r1)}
            new = rank(prof)
            if len(set(new.values())) == len(set(sig.values())):
                return new
            sig = new

    start = {}
    for i in range(r1):
        ang = float(np.angle(T[i])) % (2 * np.pi)
        if ang > 2 * np.pi - 1e-9:
            ang = 0.0
        start[i] = (int(i != vacuum_index), round(float(qdims[i]), 9),
                    round(ang, 9))

    def stream(order):
        head = tuple(ent(T[i]) for i in order)
        body = tuple(E[i][j] for i in order for j in order)
        return head + body

    best = [None]

    def descend(sig):
        groups = {}
        for i, c in sig.items():
            groups.setdefault(c, []).append(i)
        classes = [groups[c] for c in sorted(groups)]
        tied = next((cl for cl in classes if len(cl) > 1), None)
        if tied is None:
            order = [cl[0] for cl in classes]
            st = stream(order)
            if best[0] is None or st < best[0][0]:
                best[0] = (st, order)
            return
        for pick in tied:
            descend(refine({i: (sig[i], int(i != pick)) for i in range(r1)}))

    descend(refine(start))
    return best[0][1]


def associativity_residual(C):
    """max |(e_i e_j) e_k - e_i (e_j e_k)| over all (i, j, k), coordinate b.

    Both triple products as full dim^4 tensors; the reference for the
    slice-at-a-time form in `tube`.
    """
    lhs = np.einsum("ija,akb->ijkb", C, C)
    rhs = np.einsum("jka,iab->ijkb", C, C)
    return float(np.max(np.abs(lhs - rhs)))


def conditional_expectation(alg, dec, x):
    """E(x) = sum_i Tr_reg(pi_i x) / n_i^2 pi_i, one product over C and one
    regular trace per block; the reference for `dec.coefficients(x) @ dec.projections`."""
    out = np.zeros(alg.dim, dtype=complex)
    for pi, ni in zip(dec.projections, dec.n):
        out += (alg.reg_trace(alg.product(pi, x)) / (ni * ni)) * pi
    return out


def graded(irreps):
    """Each block's (V_i, labels_i) of a stacked (V, lab), padding dropped."""
    V, lab = irreps
    return [(Vi[:, li >= 0], li[li >= 0]) for Vi, li in zip(V, lab)]


def stacked(blocks):
    """(V, lab) of per-block (V_i, labels_i): V zero past n_i, lab -1."""
    width = max(len(li) for _, li in blocks)
    V = np.zeros((len(blocks), len(blocks[0][0]), width), dtype=complex)
    lab = np.full((len(blocks), width), -1)
    for i, (Vi, li) in enumerate(blocks):
        V[i, :, :len(li)], lab[i, :len(li)] = Vi, li
    return V, lab


def hopf_link_S(cat, irreps, E, lam):
    """S from the double-braiding trace, one term at a time.

    For blocks i, j: conj(sum_delta d_delta sum_{p, q}
    E[j, xi_p, delta, q, q] E[i, eta_q, delta, p, p]) / lambda,
    with p over the components xi_p of block i and q over the components
    eta_q of block j, summed in that order; the half-braiding reference for
    `modulardata.compute_S`.
    """
    N, d = cat.N, cat.d
    labels = [li for _, li in graded(irreps)]
    r1 = len(labels)
    S = np.zeros((r1, r1), dtype=complex)
    for i in range(r1):
        for j in range(r1):
            acc = 0.0 + 0.0j
            for delta in range(cat.n):
                term = 0.0 + 0.0j
                for p, xi in enumerate(labels[i]):
                    for q, eta in enumerate(labels[j]):
                        if N[xi, eta, delta] and N[eta, xi, delta]:
                            term += E[j, xi, delta, q, q] * E[i, eta, delta, p, p]
                acc += d[delta] * term
            S[i, j] = np.conj(acc) / lam
    return S


def block_twists(alg, irreps):
    """T from the twist tube's action V^+ L V on each block irrep, checked to
    be a scalar there; the per-block reference for `modulardata.compute_T`."""
    from doubletop.modulardata import twist_element

    L = alg.left_mult(twist_element(alg))
    T = []
    for V, _ in graded(irreps):
        M = V.conj().T @ L @ V
        assert np.max(np.abs(M - M[0, 0] * np.eye(len(M)))) < 1e-8
        T.append(np.conj(M[0, 0]))
    return np.array(T)


def braiding_twists(cat, irreps, E):
    """theta_i from the E-diagonal over the first graded component c of each
    block: sum_delta d_delta E[i, xi_c, delta, c, c] / d_{xi_c}."""
    return np.array([cat.d @ Ei[xi, :, 0, 0] / cat.d[xi]
                     for Ei, xi in zip(E, irreps[1][:, 0])])


# Fusion-tree recoupling on up to four strands, one elementary F-move at a
# time: the reference for the gathered contraction in `trees`.
#
# A tree fuses the leaves (a, b, c, d) to the root t.  Its seven wires are
# numbered 0-3 for the leaves, 4 for the root and 5, 6 for the two inner
# labels.  `SHAPES` lists each shape's three fusion vertices as
# (out, in1, in2) wires:
#
#       LL ((ab)c)d    5=x 6=y   (x|ab) (y|xc) (t|yd)
#       M  (a(bc))d    5=u 6=y   (u|bc) (y|au) (t|yd)
#       R  a((bc)d)    5=u 6=w   (u|bc) (w|ud) (t|aw)
#       RR a(b(cd))    5=k 6=w   (k|cd) (w|bk) (t|aw)
#       C  (ab)(cd)    5=k 6=x   (x|ab) (k|cd) (t|xk)
#
# A state is the pair (label of wire 5, wire 6); the ring is
# multiplicity-free, so a vertex carries no basis index.  Each shape's states
# are in lexicographic order.
#
# Each elementary move in `MOVES` is one F-block F^{abc}_d whose four labels
# sit on the given wires of the source shape.  It acts on the state slot of
# e in the source and of f in the target; the spectator slot is copied from
# source to target.  Matrices map basis vectors of the source shape to
# linear combinations in the target shape, row = source index.

SHAPES = {
    "LL": ((5, 0, 1), (6, 5, 2), (4, 6, 3)),
    "M": ((5, 1, 2), (6, 0, 5), (4, 6, 3)),
    "R": ((5, 1, 2), (6, 5, 3), (4, 0, 6)),
    "RR": ((5, 2, 3), (6, 1, 5), (4, 0, 6)),
    "C": ((6, 0, 1), (5, 2, 3), (4, 6, 5)),
}

# move: (source, target, F-block wires, e slot, f slot,
#        spectator slot as a (source, target) pair)
MOVES = {
    "LL>M": ("LL", "M", (0, 1, 2, 6), 0, 0, (1, 1)),
    "M>R": ("M", "R", (0, 5, 3, 4), 1, 1, (0, 0)),
    "R>RR": ("R", "RR", (1, 2, 3, 6), 0, 0, (1, 1)),
    # the spectator x sits on C's wire 6 but on LL's wire 5
    "LL>C": ("LL", "C", (5, 2, 3, 4), 1, 0, (0, 1)),
    "C>RR": ("C", "RR", (0, 1, 5, 4), 1, 1, (0, 0)),
}


def _states(N, wires, vertices):
    """Admissible states of one shape; N is the fusion tensor as nested lists."""
    partial = [wires]
    for out, i, j in vertices:
        nxt = []
        for w in partial:
            nxt.extend(w[:out] + (o,) + w[out + 1:] for o, m in enumerate(N[w[i]][w[j]])
                       if m and w[out] in (None, o))
        partial = nxt
    return sorted(w[5:] for w in partial)


def shape_moves(cat, leaves, root):
    """States of all five shapes and the five elementary F-moves between them."""
    N = cat.N.tolist()
    wires = tuple(leaves) + (root, None, None)
    states = {kind: _states(N, wires, v) for kind, v in SHAPES.items()}
    mv = {}
    for move, (src, dst, fwires, row, col, (s, d)) in MOVES.items():
        index = {st: j for j, st in enumerate(states[dst])}
        mat = np.zeros((len(states[src]), len(states[dst])), dtype=complex)
        for i, st in enumerate(states[src]):
            w = wires[:5] + st
            brows, bcols, bmat = fblock(cat, *(w[k] for k in fwires))
            ri = brows.index(st[row])
            new = [0, 0]
            new[d] = st[s]
            for f, val in zip(bcols, bmat[ri].tolist()):
                if val:
                    new[col] = f
                    mat[i, index[tuple(new)]] += val
        mv[move] = mat
    return states, mv


def pentagon_residual(cat):
    """Max deviation between the two F-move paths ((ab)c)d -> a(b(cd))."""
    worst = 0.0
    N = cat.N
    # dim of the ((ab)c)d -> t space; the five shapes are skipped when it is 0
    ll_dim = np.einsum("abx,xcy,ydt->abcdt", N, N, N)
    for a, b, c, d, t in np.argwhere(ll_dim).tolist():
        _, mv = shape_moves(cat, (a, b, c, d), t)
        left = mv["LL>M"] @ mv["M>R"] @ mv["R>RR"]
        right = mv["LL>C"] @ mv["C>RR"]
        diff = np.max(np.abs(left - right)) if left.size else 0.0
        worst = max(worst, float(diff))
    return worst


def composition_law_residual(cat, irreps, E):
    """Residual of the two-strand half-braiding composition law, one block at
    a time, as dense arrays over every label; the reference for the gathered
    contraction in `modulardata.half_braiding_multiplicativity`.

    Composing the strand-a and strand-b half-braidings through three F-moves
    must give E on each fusion channel nu of a x b, for every (a, b, delta).
    """
    F, n = cat.F, cat.n
    worst = 0.0
    for (_, lab), Ei in zip(graded(irreps), E):
        Ei = Ei[:, :, :len(lab), :len(lab)]
        got = np.einsum("qabden,aerq,arbdef,bfpr,abpdzf->abdzpnq", F[lab], Ei,
                        F[:, lab].conj(), Ei, F[:, :, lab], optimize=True)
        want = np.einsum("zn,abn,ndpq->abdzpnq", np.eye(n), cat.N, Ei)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def fblock_bases(cat, a, b, c, dd):
    """Row labels e and column labels f of the F-block (a,b,c;d), ascending,
    one label at a time."""
    N = cat.N
    rows = [e for e in range(cat.n) if N[a, b, e] and N[e, c, dd]]
    cols = [f for f in range(cat.n) if N[b, c, f] and N[a, f, dd]]
    return rows, cols


def fblock(cat, a, b, c, dd):
    """The F-block (a,b,c;d) as (rows, cols, mat): the bases of fblock_bases
    and one scalar read of cat.F per entry."""
    rows, cols = fblock_bases(cat, a, b, c, dd)
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, e in enumerate(rows):
        for j, f in enumerate(cols):
            mat[i, j] = cat.F[a, b, c, dd, e, f]
    return rows, cols, mat


def unitarity_residual(cat):
    """max |M M^H - 1| of every nonempty F-block M, one block at a time, as
    {(a, b, c, d): residual} in lex order; the reference for the batched
    check in `CategoryData._check_f`."""
    out = {}
    for key in itertools.product(range(cat.n), repeat=4):
        rows, _, mat = fblock(cat, *key)
        if rows:
            out[key] = float(np.max(np.abs(mat @ mat.conj().T - np.eye(len(rows)))))
    return out


def hexagon_residual(cat):
    """Max deviation of both hexagon identities, one block (a,b,c;d) at a
    time as a matrix equation over (f, f'):

        delta_{f f'} R^{a f}_d =
            sum_{e,g} conj(F^{abc}[e,f]) R^{ab}_e F^{bac}[e,g] R^{ac}_g conj(F^{bca}[f',g])

    and the mirror identity with R^{xy}_z replaced by conj(R^{yx}_z); the
    reference for the einsum in `trees.hexagon_residual`.
    """
    if not np.array_equal(cat.N, np.swapaxes(cat.N, 0, 1)):
        raise ValueError("fusion ring not commutative; no braiding possible")
    n = cat.n
    worst = 0.0

    def rme(x, y, z, mirror):
        return np.conj(cat.rsym(y, x, z)) if mirror else cat.rsym(x, y, z)

    for mirror in (False, True):
        for a, b, c, dd in itertools.product(range(n), repeat=4):
            rows_abc, cols_abc, abc = fblock(cat, a, b, c, dd)
            if not rows_abc:
                continue
            _, cols_bac, bac = fblock(cat, b, a, c, dd)
            rows_bca, _, bca = fblock(cat, b, c, a, dd)
            lhs = np.zeros((len(cols_abc), len(rows_bca)), dtype=complex)
            for i, f in enumerate(cols_abc):
                for j, f2 in enumerate(rows_bca):
                    if f == f2:
                        lhs[i, j] = rme(a, f, dd, mirror)
            mid = (np.conj(abc).T
                   @ np.diag([rme(a, b, e, mirror) for e in rows_abc])
                   @ bac
                   @ np.diag([rme(a, c, g, mirror) for g in cols_bac])
                   @ np.conj(bca).T)
            worst = max(worst, float(np.max(np.abs(lhs - mid))))
    return worst


def gauge_transform(cat, rng):
    """A category with its F-symbols in a random vertex gauge, validated,
    R-symbols dropped.

    Each admissible vertex (a, b; c) gets a phase u(a,b;c), with u = 1 on
    unit vertices (so unit blocks stay the identity); u(a,dual a;0) is free.
    Rescaling the trees' vertex bases by u turns F^{abc}_d[e, f] into

        F[e, f] u(a,b;e) u(e,c;d) / (u(b,c;f) u(a,f;d)),

    an equivalent category: every invariant must come out the same.
    """
    from doubletop.catdata import _category_from_dict, dump_category

    n = cat.n
    u = np.exp(2j * np.pi * rng.random((n, n, n)))
    u[0, :, :] = u[:, 0, :] = 1.0
    doc = dump_category(cat)
    doc.pop("rsymbols", None)
    for ent in doc["sixj"]:
        a, b, c, dd, e, f = ent["labels"]
        v = (complex(ent["re"], ent["im"]) * u[a, b, e] * u[e, c, dd]
             / (u[b, c, f] * u[a, f, dd]))
        ent["re"], ent["im"] = v.real, v.imag
    return _category_from_dict(doc)


# ---------------------------------------------------------------------------
# tube algebra and half-braiding equations, one entry at a time
# ---------------------------------------------------------------------------
# Entry-by-entry references for tube._basis, tube._structure, tube._star
# and the equations of modulardata._tube_system, which gather
# cat.F at joined label tuples instead.  `basis` is a sequence of 4-tuples
# and `index` anything that maps such a tuple to its position (a dict, or
# the dense position array of TubeAlgebra).


def tube_basis(cat):
    """The tube basis as a list of (xi, eta, zeta, delta), by a 4-deep loop."""
    N, n = cat.N, cat.n
    basis = []
    for xi in range(n):
        for eta in range(n):
            for zeta in range(n):
                for delta in range(n):
                    if N[xi, zeta, delta] and N[zeta, eta, delta]:
                        basis.append((xi, eta, zeta, delta))
    return basis


def raw_structure(cat, basis, index):
    """C[i,j,k] = coefficient of basis[k] in basis[i].basis[j]."""
    N, d, n, F = cat.N, cat.d, cat.n, cat.F
    dim = len(basis)
    C = np.zeros((dim, dim, dim), dtype=complex)
    for i, (xi, eta, zeta, delta) in enumerate(basis):
        for j, (xi2, eta2, zeta2, delta2) in enumerate(basis):
            if xi2 != eta:
                continue
            pref0 = 1.0 / (d[zeta] * d[zeta2])
            for nu in range(n):
                if N[zeta, zeta2, nu] == 0:
                    continue
                pref = d[nu] * pref0
                for tau in range(n):
                    if not (N[xi, nu, tau] and N[nu, eta2, tau]
                            and N[delta, zeta2, tau] and N[zeta, delta2, tau]):
                        continue
                    k = index[(xi, eta2, nu, tau)]
                    C[i, j, k] += pref * (F[xi, zeta, zeta2, tau, delta, nu]
                                          * np.conj(F[zeta, eta, zeta2, tau, delta, delta2])
                                          * F[zeta, zeta2, eta2, tau, nu, delta2])
    return C


def raw_star(cat, basis, index):
    """St with star(x) = St @ conj(x); maps sector (xi,eta,zeta) to (eta,xi,zeta*)."""
    N, d, n, F = cat.N, cat.d, cat.n, cat.F
    dim = len(basis)
    St = np.zeros((dim, dim), dtype=complex)
    for i, (xi, eta, zeta, delta) in enumerate(basis):
        zb = cat.dual[zeta]
        for tau in range(n):
            if not (N[eta, zb, tau] and N[zb, xi, tau]
                    and N[zb, delta, eta] and N[tau, zeta, eta]):
                continue
            k = index[(eta, xi, zb, tau)]
            St[k, i] += d[zeta] * (np.conj(F[zb, zeta, eta, eta, 0, delta])
                                   * F[zb, xi, zeta, eta, tau, delta]
                                   * np.conj(F[tau, zeta, zb, tau, eta, 0]))
    # column i over the pivotal phase phi/|phi| of its strand, phi_z = d_z F^{z z* z}_z[0, 0]
    phi = np.array([d[z] * F[z, cat.dual[z], z, z, 0, 0] for z in range(n)])
    norm = np.abs(phi)
    for i, (xi, eta, zeta, delta) in enumerate(basis):
        if phi[zeta] != 0:
            St[:, i] /= phi[zeta] / norm[zeta]
    return St


def extract_half_braidings(alg, irreps):
    """Solve the tube action for the half-braiding of every block, with the
    equations assembled entry by entry: for each (block, strand) a loop over
    the tube basis, the grading copies and the F-symbols of every unknown.

    Returns (the stack E[block, sigma, delta, p, q], zero past n_i, residual
    dict) and raises when the least-squares fit or the unitarity of any
    solved (sigma, delta) square is worse than 1e-6.
    """
    from doubletop.modulardata import _EXTRACT_TOL, ModularDataError

    cat = alg.cat
    N, F, n = cat.N, cat.F, cat.n
    residuals = {"solve": 0.0, "unitary": 0.0}
    layouts = {}

    def layout(labels, sigma):
        # admissible rows (delta, p) and columns (delta, q) of E[sigma], and
        # the unknowns: the admissible entries of E[sigma], in C order
        rows = N[sigma][labels].T > 0
        cols = N[labels, sigma].T > 0
        nrows, ncols = rows.sum(axis=1), cols.sum(axis=1)
        if (nrows != ncols).any():
            raise ModularDataError("half-braiding block (%d,%d) is not "
                                   "square" % (sigma, np.argmax(nrows != ncols)))
        free = rows[:, :, None] & cols[:, None, :]
        varix = np.cumsum(free).reshape(free.shape) - 1
        return rows, cols, nrows, free, int(free.sum()), varix

    r1, width = irreps[1].shape
    out = np.zeros((r1, n, n, width, width), dtype=complex)
    for bi, (Vi, labels) in enumerate(graded(irreps)):
        # labels ascend, so comps lists the components in column order
        m = Counter(labels.tolist())
        comps = [(xi, t) for xi, k in m.items() for t in range(k)]
        E = out[bi, :, :, :len(comps), :len(comps)]
        slots = {ct: i for i, ct in enumerate(comps)}
        for sigma in range(n):
            zeta = cat.dual[sigma]
            # blocks with the same component labels share the layout
            key = (tuple(labels.tolist()), sigma)
            if key not in layouts:
                layouts[key] = layout(labels, sigma)
            rows, cols, nrows, free, nvar, varix = layouts[key]
            if not nvar:
                continue
            eqs, rhs = [], []
            for tube_i, (xi, eta, zt, delta) in enumerate(alg.basis.tolist()):
                if zt != zeta or xi not in m or eta not in m:
                    continue
                # rho of the basis tube; left multiplication by it is C[tube_i].T
                rho = alg.scale[tube_i] * (Vi.conj().T @ alg.C[tube_i].T @ Vi)
                # the graded rep basis is orthonormal; the half-braiding
                # component convention weighs grade xi by sqrt(d_xi)
                grade = np.sqrt(cat.d[eta] / cat.d[xi])
                for t in range(m[xi]):
                    for s in range(m[eta]):
                        p, q = slots[(xi, t)], slots[(eta, s)]
                        row = np.zeros(nvar, dtype=complex)
                        for k in range(n):
                            if not (N[eta, sigma, k] and N[zeta, k, xi]
                                    and N[sigma, xi, k] and N[delta, sigma, xi]):
                                continue
                            row[varix[k, p, q]] += (F[xi, zeta, sigma, xi, delta, 0]
                                                    * np.conj(F[zeta, eta, sigma, xi, delta, k])
                                                    * F[zeta, sigma, xi, xi, 0, k])
                        eqs.append(row)
                        rhs.append(grade * rho[p, q])
            A = np.array(eqs)
            y = np.array(rhs)
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
            fit = float(np.max(np.abs(A @ sol - y))) if len(y) else 0.0
            residuals["solve"] = max(residuals["solve"], fit)
            if fit > _EXTRACT_TOL:
                raise ModularDataError("half-braiding solve for block %d, "
                                       "strand %d has residual %.3e"
                                       % (bi, sigma, fit))
            E[sigma][free] = sol
            for delta in np.flatnonzero(nrows):
                sq = E[sigma, delta][np.ix_(rows[delta], cols[delta])]
                uni = float(np.max(np.abs(sq.conj().T @ sq - np.eye(len(sq)))))
                residuals["unitary"] = max(residuals["unitary"], uni)
                if uni > _EXTRACT_TOL:
                    raise ModularDataError("half-braiding (%d, strand %d, "
                                           "charge %d) is not unitary (%.3e)"
                                           % (bi, sigma, delta, uni))
    return out, residuals


# ---------------------------------------------------------------------------
# center and irreps by older routes: the commutant null space and a random
# central element, Newton iteration on idempotents, a Lagrange-interpolated
# minimal projection and an SVD of its left ideal.  The package now reads
# the center and every minimal left ideal off the eigenspaces of one right
# multiplication; these are the references it is compared against.
# ---------------------------------------------------------------------------


def center_basis(alg):
    """Orthonormal basis of the center, via the commutant null space."""
    from doubletop.tube import CenterError

    dim, C = alg.dim, alg.C
    # row (b, k), column j: C[b,j,k] - C[j,b,k], the commutator with e_b
    rows = (C.transpose(0, 2, 1) - C.transpose(1, 2, 0)).reshape(dim * dim, dim)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    tol = max(dim, 8) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    null = int(np.sum(s <= max(tol, 1e-10)))
    if null == 0:
        raise CenterError("center is empty; identity not found")
    if s.size > null and s[-null - 1] < 1e-6:
        raise CenterError("center dimension is numerically ambiguous")
    return np.conj(vh[-null:]).T  # columns orthonormal


def center_by_commutant(alg, seed=None):
    """Split the identity into the central projections of the tube algebra.

    A random Hermitian central element (seeded) is diagonalized and its
    spectral projectors applied to the identity.  A draw is reseeded, up to
    8 times, when its spectrum is degenerate or a projector misses
    idempotency by 1e-12.
    """
    from doubletop.tube import (
        _IDEMPOTENT_TOL, _MAX_RESEEDS, CENTER_SEED, CenterDecomposition,
        CenterError, _cluster,
    )

    if seed is None:
        seed = CENTER_SEED
    Z = center_basis(alg)
    r1 = Z.shape[1]
    rng = np.random.default_rng(seed)

    for _ in range(_MAX_RESEEDS):
        coef = rng.standard_normal(r1) + 1j * rng.standard_normal(r1)
        h = Z @ coef
        h = 0.5 * (h + alg.star(h))
        lh = alg.left_mult(h)
        if np.max(np.abs(lh - lh.conj().T)) > 1e-8:
            raise CenterError("central element is not Hermitian as an operator")
        evals, evecs = np.linalg.eigh(lh)
        spread = float(evals[-1] - evals[0]) or 1.0
        groups = _cluster(evals, 1e-6 * spread)
        if len(groups) != r1:
            continue  # degenerate draw, reseed
        pis = []
        for g in groups:
            V = evecs[:, g]
            pi = V @ (V.conj().T @ alg.identity)
            pis.append((0.5 * (pi + alg.star(pi)), V))
        if all(np.max(np.abs(alg.product(pi, pi) - pi)) < _IDEMPOTENT_TOL
               for pi, _ in pis):
            break
    else:
        raise CenterError("no draw split the center into idempotents "
                          "after %d reseeds" % _MAX_RESEEDS)

    resolved = sum(pi for pi, _ in pis)
    if np.max(np.abs(resolved - alg.identity)) > 1e-9:
        raise CenterError("central projections do not resolve the identity")

    blocks = []
    for pi, V in pis:
        nsq = alg.reg_trace(pi).real
        ni = int(round(np.sqrt(nsq)))
        if abs(ni * ni - nsq) > 1e-6 or ni < 1:
            raise CenterError("non-integer squared block dimension %.6f" % nsq)
        qdim = alg.markov_trace(pi).real / ni
        vac = alg.vacuum_functional(pi).real
        blocks.append((pi, ni, qdim, vac, V))

    if sum(b[1] ** 2 for b in blocks) != alg.dim:
        raise CenterError("block dimensions do not sum to the algebra dimension")
    vac_ids = [i for i, b in enumerate(blocks) if abs(b[3] - 1.0) < 1e-6]
    stray = [i for i, b in enumerate(blocks)
             if i not in vac_ids and abs(b[3]) > 1e-6]
    if len(vac_ids) != 1 or stray:
        raise CenterError("vacuum pairing did not single out one block")
    if blocks[vac_ids[0]][1] != 1:
        raise CenterError("vacuum block dimension is %d, expected 1"
                          % blocks[vac_ids[0]][1])

    def sort_key(b):
        return (abs(b[3] - 1.0) < 1e-6 and -1 or 0, round(b[2], 9), b[1])

    blocks.sort(key=sort_key)
    projections = [b[0] for b in blocks]
    ns = [b[1] for b in blocks]
    qdims = [b[2] for b in blocks]
    spaces = [b[4] for b in blocks]
    return CenterDecomposition(alg, projections, ns, qdims, spaces, seed)


_NEWTON_TOL = 1e-12


def newton_idempotent(alg, pi):
    from doubletop.tube import CenterError

    for _ in range(60):
        err = np.max(np.abs(alg.product(pi, pi) - pi))
        if err < _NEWTON_TOL:
            return pi
        sq = alg.product(pi, pi)
        pi = 3.0 * sq - 2.0 * alg.product(sq, pi)
        pi = 0.5 * (pi + alg.star(pi))
    raise CenterError("projection refinement stalled (residual %.3e)" % err)


def minimal_projection(alg, dec, i, rng):
    """Rank-one projection inside block i, by Lagrange interpolation."""
    from doubletop.modulardata import ModularDataError
    from doubletop.tube import _cluster

    pi = dec.projections[i]
    n = dec.n[i]
    if n == 1:
        return pi
    B = dec.block_spaces[i]
    for _ in range(8):
        h = B @ (rng.standard_normal(B.shape[1])
                 + 1j * rng.standard_normal(B.shape[1]))
        h = 0.5 * (h + alg.star(h))
        M = B.conj().T @ alg.left_mult(h) @ B
        evals = np.linalg.eigvalsh(M)  # ascending
        # matrix spectrum of h repeats each eigenvalue n times under L_h
        spread = float(evals[-1] - evals[0]) or 1.0
        mus = [float(np.mean(evals[g])) for g in _cluster(evals, 1e-6 * spread)]
        if len(mus) != n:
            continue
        q = pi
        for b in range(1, n):
            q = alg.product(q, h - mus[b] * pi) / (mus[0] - mus[b])
        q = 0.5 * (q + alg.star(q))
        q = newton_idempotent(alg, q)  # same refinement as the center pass
        if abs(alg.reg_trace(q).real - n) < 1e-6:
            return q
    raise ModularDataError("no minimal projection found in block %d" % i)


def block_irreps(alg, dec):
    """One irreducible representation per central block, stacked as (V, lab)."""
    from doubletop.modulardata import ModularDataError

    cat = alg.cat
    reps = []
    for i in range(dec.r_plus_1):
        rng = np.random.default_rng([dec.seed, i])
        n = dec.n[i]
        q = minimal_projection(alg, dec, i, rng)
        U, sv, _ = np.linalg.svd(alg.right_mult(q))
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        if rank != n:
            raise ModularDataError(
                "left ideal of block %d has rank %d, expected %d" % (i, rank, n))
        V = U[:, :n]

        # grade by the corner idempotents; left multiplication by basis k is C[k].T
        blocks_W, comps, m = [], [], {}
        for xi in range(cat.n):
            k = alg.index[xi, xi, 0, xi]
            P = V.conj().T @ (alg.scale[k] * alg.C[k].T) @ V
            mult = int(round(np.trace(P).real))
            if mult == 0:
                continue
            w, Wv = np.linalg.eigh(P)
            keep = Wv[:, w > 0.5]
            if keep.shape[1] != mult:
                raise ModularDataError("grading projector of block %d is not "
                                       "a clean projection" % i)
            blocks_W.append(keep)
            comps.extend((xi, t) for t in range(mult))
            m[xi] = mult
        if len(comps) != n:
            raise ModularDataError("grading of block %d sums to %d, not %d"
                                   % (i, len(comps), n))
        V = V @ np.hstack(blocks_W)
        qd = sum(mult * cat.d[xi] for xi, mult in m.items())
        if abs(qd - dec.qdims[i]) > 1e-8:
            raise ModularDataError("block %d grading disagrees with its "
                                   "quantum dimension" % i)
        reps.append((V, [xi for xi, _ in comps]))
    return stacked(reps)


# ---------------------------------------------------------------------------
# block irreps one simple at a time: the package's route before it was
# stacked and graded by first labels.  block_irreps_per_simple grades each
# block with one product by a corner idempotent, read from C, and one eigh
# per simple.  Where every grade has multiplicity one, the package must
# return the same bits; elsewhere the same grade projectors.
# ---------------------------------------------------------------------------


def block_irreps_per_simple(alg, dec):
    """One irreducible representation per central block, stacked as (V, lab).

    The first n_i columns of `dec.block_spaces[i]` span a minimal left
    ideal A q of block i, on which A acts by its irrep; the corner
    idempotents X(xi,xi,e,xi,0,0) then grade that space by simple.
    """
    from doubletop.modulardata import ModularDataError

    cat = alg.cat
    reps = []
    for i in range(dec.r_plus_1):
        n = dec.n[i]
        V = dec.block_spaces[i][:, :n]

        # grade by the corner idempotents; left multiplication by basis k is C[k].T
        blocks_W, comps, m = [], [], {}
        for xi in range(cat.n):
            k = alg.index[xi, xi, 0, xi]
            P = V.conj().T @ (alg.scale[k] * alg.C[k].T) @ V
            mult = int(round(np.trace(P).real))
            if mult == 0:
                continue
            w, Wv = np.linalg.eigh(P)
            keep = Wv[:, w > 0.5]
            if keep.shape[1] != mult:
                raise ModularDataError("grading projector of block %d is not "
                                       "a clean projection" % i)
            blocks_W.append(keep)
            comps.extend((xi, t) for t in range(mult))
            m[xi] = mult
        if len(comps) != n:
            raise ModularDataError("grading of block %d sums to %d, not %d"
                                   % (i, len(comps), n))
        V = V @ np.hstack(blocks_W)
        qd = sum(mult * cat.d[xi] for xi, mult in m.items())
        if abs(qd - dec.qdims[i]) > 1e-8:
            raise ModularDataError("block %d grading disagrees with its "
                                   "quantum dimension" % i)
        reps.append((V, [xi for xi, _ in comps]))
    return stacked(reps)


def degenerate_draws(monkeypatch, module, lumped):
    """Make each call k (0-based) of `module._cluster` with lumped(k) true
    put every value into one cluster, as a degenerate draw would; returns
    the list of calls made so far (one entry per call)."""
    real, calls = module._cluster, []

    def cluster(vals, tol):
        calls.append(len(vals))
        groups = real(vals, tol)
        return [np.concatenate(groups)] if lumped(len(calls) - 1) else groups

    monkeypatch.setattr(module, "_cluster", cluster)
    return calls


def plain(o):
    """json.dumps default that turns a report's array leaves into the plain
    lists they stand for: a complex array into nested lists of {"re", "im"}
    dicts, any other array through tolist().  The reference for cli._dumps,
    which writes the arrays without building these lists."""
    if isinstance(o, (complex, np.complexfloating)):
        return {"re": float(o.real), "im": float(o.imag)}
    if isinstance(o, np.ndarray):
        return list(o) if o.dtype.kind == "c" else o.tolist()
    raise TypeError("%s is not a report leaf" % type(o).__name__)


def count_calls(monkeypatch, obj, name):
    """Wrap `obj.name` to record each call; returns the list of calls."""
    real, calls = getattr(obj, name), []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, wrapped)
    return calls


def _reference_einsum(factors, out):
    """One np.einsum over `factors`, keeping the ids `out`, labels local."""
    ids = sorted({i for _, f_ids in factors for i in f_ids})
    local = {i: k for k, i in enumerate(ids)}
    args = [x for a, f_ids in factors for x in (a, [local[i] for i in f_ids])]
    return np.einsum(*args, [local[i] for i in out])


def contract_reference(factors, budget=None):
    """`doubletop.contract.contract` as it was before the plan/run split:
    the neighbour sets rebuilt from every factor at each step, and each
    step's einsum run as soon as it is chosen.  Returns (value,
    largest_step)."""
    from doubletop.contract import _MAX_OPERANDS, DEFAULT_BUDGET, BudgetError

    budget = DEFAULT_BUDGET if budget is None else budget
    factors = [(np.asarray(a), tuple(map(int, ids))) for a, ids in factors]
    size = {i: n for a, ids in factors for i, n in zip(ids, a.shape)}
    todo = set(size)
    largest = 1
    while todo:
        nbrs = {i: set() for i in todo}
        for _, ids in factors:
            for i in ids:
                nbrs[i].update(ids)
        v = min(todo, key=lambda i: (len(nbrs[i]), i))
        step = 1
        for i in nbrs[v]:
            step *= size[i]
        if step > budget:
            raise BudgetError("budget exceeded: eliminating an index sums over "
                              "%d labels, budget is %d" % (step, budget))
        largest = max(largest, step)
        todo.discard(v)
        hit = [f for f in factors if v in f[1]]
        factors = [f for f in factors if v not in f[1]]
        while len(hit) > _MAX_OPERANDS:
            batch, hit = hit[:_MAX_OPERANDS], hit[_MAX_OPERANDS:]
            keep = tuple(sorted({i for _, ids in batch for i in ids}))
            hit.append((_reference_einsum(batch, keep), keep))
        out = tuple(sorted(nbrs[v] - {v}))
        factors.append((_reference_einsum(hit, out), out))
    result = 1
    for a, _ in factors:
        result = result * a
    return result, largest


def char_poly(B):
    """Coefficients c_0..c_n of det(x I - B), exact, by Faddeev-LeVerrier.

    M_1 = I, c_n = 1, and for k = 1..n: c_{n-k} = -tr(B M_k) / k and
    M_{k+1} = B M_k + c_{n-k} I.  Each division is taken as a Fraction; for
    an integer B it is an integer (checked), so M stays an object array of
    Python ints.  B M_k runs over the nonzero entries of B only, so a
    banded B costs n^3 instead of n^4.
    """
    B = np.asarray(B)
    n = B.shape[0]
    nonzero = [(i, j, int(B[i, j])) for i, j in zip(*np.nonzero(B))]
    c = [Fraction(0)] * n + [Fraction(1)]
    M = np.eye(n, dtype=np.int64).astype(object)
    for k in range(1, n + 1):
        BM = np.zeros((n, n), dtype=np.int64).astype(object)
        for i, j, b in nonzero:
            BM[i] += b * M[j]
        c[n - k] = Fraction(-sum(BM.diagonal()), k)
        if c[n - k].denominator != 1:
            raise ValueError("B is not an integer matrix")
        M = BM
        M[range(n), range(n)] += int(c[n - k])
    return c


def _sign_changes(coeffs):
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def signature_exact(B):
    """Signature of the symmetric integer matrix B, exactly.

    Every root of the characteristic polynomial p of a symmetric matrix is
    real, so Descartes' rule of signs is exact: the sign changes of p(x)
    count the positive eigenvalues and those of p(-x) the negative ones.
    """
    c = char_poly(B)
    flipped = [x if k % 2 == 0 else -x for k, x in enumerate(c)]
    return _sign_changes(c) - _sign_changes(flipped)
