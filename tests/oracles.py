"""Independent cross-check helpers for the test suite.

Everything here is deliberately written from scratch against textbook
definitions (integer Smith normal form, simplicial homology, flat-coloring
counts, the state sum as a sum over colorings) so it shares no code with the
package internals it checks.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


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
    d1 = [[0] * E for _ in range(tri.n_vertex_classes)]
    for e, (t, i, j) in edge_rep.items():
        d1[tri._vmap[(t, j)]][e] += 1
        d1[tri._vmap[(t, i)]][e] -= 1
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


def tet_weight(cat, tri, t, coloring, labeling):
    """Weight of tetrahedron `t` under an edge coloring and face labeling.

    coloring: label id per edge class; labeling: basis index per face class.
    Returns 0 for inadmissible labelings.
    """
    c01, c12, c23, c02, c13, c03 = (
        coloring[tri.edge_class(t, i, j)]
        for i, j in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)))
    # face f of a tetrahedron omits corner f
    f123, f023, f013, f012 = (labeling[tri.face_class(t, f)] for f in range(4))
    if (f012 >= cat.N[c01, c12, c02] or f123 >= cat.N[c12, c23, c13]
            or f013 >= cat.N[c01, c13, c03] or f023 >= cat.N[c02, c23, c03]):
        return 0.0
    val = cat.f_entry(c01, c12, c23, c03, c02, f012, f023, c13, f123, f013)
    val = val / math.sqrt(cat.d[c02] * cat.d[c13])
    return complex(val.conjugate() if tri.signs[t] == -1 else val)


def brute_state_sum(cat, tri):
    """Z = lambda^-a sum_colorings prod_E d sum_labelings prod_tets W.

    Lists every edge coloring and every face labeling (basis indices up to
    the largest multiplicity; tet_weight zeroes the inadmissible ones), so
    it is only for complexes with a handful of edges and faces.
    """
    lam = sum(float(x) ** 2 for x in cat.d)
    labels = range(int(cat.N.max()))
    total = 0j
    for col in itertools.product(range(cat.n), repeat=tri.n_edges):
        dims = math.prod(float(cat.d[c]) for c in col)
        for lab in itertools.product(labels, repeat=tri.n_faces):
            total += dims * math.prod(tet_weight(cat, tri, t, col, lab)
                                      for t in range(tri.n_tets))
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


def multiplicity_ring(seed=2024):
    """Unvalidated ring x (x) x = 1 + 2x with seeded random F entries.

    No bundled category has a multiplicity above 1; this one exercises the
    face bonds of the contraction and the basis slots of the pentagon
    moves (the F entries need not be unitary).
    """
    from doubletop.catdata import CategoryData

    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    N[1, 1, 1] = 2
    rng = np.random.default_rng(seed)
    fentries = []
    for dd in range(2):
        rows = [(e, al, be) for e in range(2) for al in range(N[1, 1, e])
                for be in range(N[e, 1, dd])]
        cols = [(f, mu, nu) for f in range(2) for mu in range(N[1, 1, f])
                for nu in range(N[1, f, dd])]
        for (e, al, be) in rows:
            for (f, mu, nu) in cols:
                fentries.append(((1, 1, 1, dd, e, f), (al, be, mu, nu),
                                 complex(*rng.normal(size=2))))
    return CategoryData(["1", "x"], [0, 1], N, [1.0, 1.0 + math.sqrt(2.0)],
                        fentries, validate=False)


def all_pairings(items):
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1:]
        for sub in all_pairings(rest):
            yield [(first, items[k])] + sub


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
