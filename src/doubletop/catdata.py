"""Finite fusion-category data: labels, fusion ring, quantum dimensions, F-symbols.

A category is described combinatorially by

* ``n`` labels ``0..n-1`` with label ``0`` the unit,
* an involution ``dual`` with ``dual[0] == 0``,
* fusion multiplicities ``N[i, j, k] = dim Hom(k, i (x) j)``,
* positive quantum dimensions ``d`` solving ``d[i] d[j] = sum_k N[i,j,k] d[k]``,
* F-symbols, stored per block ``(a, b, c; d)`` as a unitary matrix between the
  two parenthesizations of ``Hom(d, a (x) b (x) c)``.

F-matrix convention.  For fixed outer labels the left tree ``((ab)c)`` has basis
``(e, alpha, beta)`` with ``alpha`` in an orthonormal basis of ``Hom(e, ab)`` and
``beta`` of ``Hom(d, ec)``; the right tree ``(a(bc))`` has basis ``(f, mu, nu)``
with ``mu`` in ``Hom(f, bc)`` and ``nu`` in ``Hom(d, af)``.  The matrix entry
``[F^{abc}_d][(e,alpha,beta), (f,mu,nu)]`` is the coefficient in

    (alpha (x) id_c) . beta  =  sum_{f,mu,nu} F[(e,alpha,beta),(f,mu,nu)] (id_a (x) mu) . nu

Rows and columns are ordered lexicographically by ``(e, alpha, beta)`` and
``(f, mu, nu)``.  Blocks with ``a``, ``b`` or ``c`` equal to the unit are fixed
to the identity matrix (unit gauge) and need not be serialized.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import trees

STRUCT_TOL = 1e-9


class CategoryError(ValueError):
    """A category invariant failed; the message names the violated invariant."""


def _is_perm_involution(dual, n):
    return sorted(dual) == list(range(n)) and all(dual[dual[i]] == i for i in range(n))


@dataclass
class FBlock:
    """One F-move block (a,b,c;d): unitary matrix plus its two basis enumerations."""

    rows: list          # [(e, alpha, beta), ...] lex sorted
    cols: list          # [(f, mu, nu), ...] lex sorted
    mat: np.ndarray     # complex, shape (len(rows), len(cols))
    row_index: dict = field(default_factory=dict)
    col_index: dict = field(default_factory=dict)

    def __post_init__(self):
        self.row_index = {t: i for i, t in enumerate(self.rows)}
        self.col_index = {t: i for i, t in enumerate(self.cols)}


class CategoryData:
    """Validated fusion-category data; immutable after construction."""

    def __init__(self, names, dual, N, qdims, fentries, rsymbols=None, validate=True):
        self.names = list(names)
        self.n = len(self.names)
        self.dual = list(dual)
        self.N = np.asarray(N, dtype=np.int64)
        self.d = np.asarray(qdims, dtype=float)
        self._fblocks = {}
        self._build_blocks(fentries)
        self.rsymbols = dict(rsymbols) if rsymbols else None
        self.residuals = None  # {"pentagon", "unitarity"}, set by validate()
        if validate:
            self.validate()

    # -- block assembly -----------------------------------------------------

    def row_basis(self, a, b, c, dd):
        out = []
        for e in range(self.n):
            m1, m2 = self.N[a, b, e], self.N[e, c, dd]
            for al in range(m1):
                for be in range(m2):
                    out.append((e, al, be))
        return out

    def col_basis(self, a, b, c, dd):
        out = []
        for f in range(self.n):
            m1, m2 = self.N[b, c, f], self.N[a, f, dd]
            for mu in range(m1):
                for nu in range(m2):
                    out.append((f, mu, nu))
        return out

    def _build_blocks(self, fentries):
        n = self.n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for dd in range(n):
                        rows = self.row_basis(a, b, c, dd)
                        if not rows:
                            continue
                        cols = self.col_basis(a, b, c, dd)
                        if len(rows) != len(cols):
                            raise CategoryError(
                                "associativity violation: F-block (%d,%d,%d;%d) "
                                "is %dx%d" % (a, b, c, dd, len(rows), len(cols))
                            )
                        mat = np.zeros((len(rows), len(cols)), dtype=complex)
                        if 0 in (a, b, c):
                            np.fill_diagonal(mat, 1.0)
                        self._fblocks[(a, b, c, dd)] = FBlock(rows, cols, mat)
        for (labels, basis, val) in fentries:
            a, b, c, dd, e, f = labels
            al, be, mu, nu = basis
            blk = self._fblocks.get((a, b, c, dd))
            if blk is None:
                raise CategoryError(
                    "multiplicity/F-tensor shape mismatch: entry for empty "
                    "block (%d,%d,%d;%d)" % (a, b, c, dd)
                )
            if (e, al, be) not in blk.row_index or (f, mu, nu) not in blk.col_index:
                raise CategoryError(
                    "multiplicity/F-tensor shape mismatch: entry (%d,%d,%d;%d) "
                    "basis (%d,%d|%d,%d) outside admissible ranges"
                    % (a, b, c, dd, e, f, al, mu)
                )
            if 0 in (a, b, c):
                # unit gauge: ignore provided values after checking consistency
                want = 1.0 if blk.row_index[(e, al, be)] == blk.col_index[(f, mu, nu)] else 0.0
                if abs(val - want) > STRUCT_TOL:
                    raise CategoryError(
                        "unit-gauge violation at (%d,%d,%d;%d)" % (a, b, c, dd)
                    )
                continue
            blk.mat[blk.row_index[(e, al, be)], blk.col_index[(f, mu, nu)]] = val

    # -- accessors ------------------------------------------------------------

    def fblock(self, a, b, c, dd):
        """F-move block matrix, or None when Hom(d,(ab)c) = 0."""
        return self._fblocks.get((a, b, c, dd))

    def f_entry(self, a, b, c, dd, e, al, be, f, mu, nu):
        blk = self._fblocks.get((a, b, c, dd))
        if blk is None:
            return 0.0
        i = blk.row_index.get((e, al, be))
        j = blk.col_index.get((f, mu, nu))
        if i is None or j is None:
            return 0.0
        return blk.mat[i, j]

    def rsym(self, a, b, c):
        """Mult-free R-symbol for c in a(x)b; unit-involving R is 1."""
        if self.N[a, b, c] == 0:
            return 0.0
        if a == 0 or b == 0:
            return 1.0
        if self.rsymbols is None:
            raise CategoryError("category carries no R-symbols")
        return self.rsymbols[(a, b, c)]

    # -- validation -----------------------------------------------------------

    def validate(self):
        n, N, dual, d = self.n, self.N, self.dual, self.d
        if n < 1:
            raise CategoryError("need at least the unit label")
        if N.shape != (n, n, n):
            raise CategoryError("fusion tensor shape %s" % (N.shape,))
        if (N < 0).any():
            raise CategoryError("negative fusion multiplicity")
        if not _is_perm_involution(dual, n) or dual[0] != 0:
            raise CategoryError("dual is not an involution fixing the unit")
        for i in range(n):
            for j in range(n):
                if N[0, i, j] != (1 if i == j else 0) or N[i, 0, j] != (1 if i == j else 0):
                    raise CategoryError(
                        "unit-law violation at labels (%d,%d)" % (i, j)
                    )
                if N[i, j, 0] != (1 if j == dual[i] else 0):
                    raise CategoryError(
                        "duality violation: N_{%d,%d}^e = %d" % (i, j, N[i, j, 0])
                    )
        lhs = np.einsum("ijd,dkt->ijkt", N, N)
        rhs = np.einsum("jkd,idt->ijkt", N, N)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            raise CategoryError(
                "associativity violation of N at (xi,eta,zeta,tau)=%s" % (tuple(bad),)
            )
        if abs(d[0] - 1.0) > STRUCT_TOL:
            raise CategoryError("d(e) != 1")
        if (d <= 0).any():
            raise CategoryError("non-positive quantum dimension")
        for i in range(n):
            if abs(d[i] - d[dual[i]]) > STRUCT_TOL:
                raise CategoryError("d not dual-invariant at label %d" % i)
        resid = np.max(np.abs(np.outer(d, d) - np.einsum("ijk,k->ij", N, d)))
        if resid > STRUCT_TOL:
            raise CategoryError(
                "dimension eigenvector mismatch: residual %.3e" % resid
            )
        unitarity = 0.0
        for key, blk in self._fblocks.items():
            m = blk.mat
            u = float(np.max(np.abs(m @ m.conj().T - np.eye(len(blk.rows)))))
            if u > STRUCT_TOL:
                raise CategoryError(
                    "F-block (%d,%d,%d;%d) not unitary: residual %.3e" % (key + (u,))
                )
            unitarity = max(unitarity, u)
        pentagon = trees.pentagon_residual(self)
        if pentagon > STRUCT_TOL:
            raise CategoryError("pentagon residual %.3e above tolerance" % pentagon)
        if self.rsymbols is not None:
            for (a, b, c), v in self.rsymbols.items():
                if self.N[a, b, c] == 0:
                    raise CategoryError("R-symbol on empty space (%d,%d,%d)" % (a, b, c))
                if self.N[a, b, c] > 1:
                    raise CategoryError("R-symbols with multiplicity > 1 unsupported")
            resid = trees.hexagon_residual(self)
            if resid > STRUCT_TOL:
                raise CategoryError("hexagon residual %.3e above tolerance" % resid)
        self.residuals = {"pentagon": pentagon, "unitarity": unitarity}

    def fingerprint(self):
        """Content hash of the canonical serialization."""
        import hashlib

        blob = json.dumps(dump_category(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def global_dim(cat):
    """lambda = sum_xi d(xi)^2."""
    return float(np.sum(cat.d ** 2))


def _category_from_dict(doc, validate=True):
    try:
        parts = _category_parts(doc)
    except CategoryError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise CategoryError("malformed category document: %s" % exc) from exc
    return CategoryData(*parts, validate=validate)


def _category_parts(doc):
    """Constructor arguments (names, dual, N, qdims, fentries, rsymbols)."""
    labels = doc["labels"]
    ids = [l["id"] for l in labels]
    if ids != list(range(len(ids))):
        raise CategoryError("label ids must be dense 0..n-1")
    names = [l["name"] for l in labels]
    n = len(names)
    dual = doc["dual"]
    if len(dual) != n:
        raise CategoryError("dual length != n")

    def triple(a, b, c):
        if not all(0 <= x < n for x in (a, b, c)):
            raise CategoryError("label triple %s outside 0..%d" % ((a, b, c), n - 1))
        return a, b, c

    N = np.zeros((n, n, n), dtype=np.int64)
    for ent in doc["fusion"]:
        mult = ent["mult"]
        if not isinstance(mult, numbers.Real) or mult % 1 != 0:
            raise CategoryError("fusion multiplicity %r must be an integer" % (mult,))
        N[triple(ent["i"], ent["j"], ent["k"])] = mult
    qdims = [float(x) for x in doc["qdims"]]
    if len(qdims) != n:
        raise CategoryError("qdims length != n")
    fentries = []
    for ent in doc.get("sixj", []):
        if len(ent["labels"]) != 6 or len(ent["basis"]) != 4:
            raise CategoryError("sixj entry needs 6 labels and 4 basis indices")
        fentries.append(
            (tuple(ent["labels"]), tuple(ent["basis"]),
             complex(ent["re"], ent.get("im", 0.0)))
        )
    rsymbols = None
    if doc.get("rsymbols"):
        rsymbols = {}
        for ent in doc["rsymbols"]:
            if tuple(ent.get("basis", [0, 0])) != (0, 0):
                raise CategoryError("R-symbols with multiplicity > 1 unsupported")
            rsymbols[triple(ent["a"], ent["b"], ent["c"])] = complex(ent["re"], ent.get("im", 0.0))
    return names, dual, N, qdims, fentries, rsymbols


def load_category(path):
    """Load and fully validate a category JSON file.

    Raises CategoryError naming the violated invariant on any failure.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CategoryError("parse error: %s" % exc) from exc
    return _category_from_dict(doc)


def dump_category(cat):
    """Serialize back to the JSON schema (unit-gauge blocks omitted)."""
    doc = {
        "labels": [{"id": i, "name": cat.names[i]} for i in range(cat.n)],
        "dual": list(cat.dual),
        "fusion": [
            {"i": i, "j": j, "k": k, "mult": int(cat.N[i, j, k])}
            for i in range(cat.n) for j in range(cat.n) for k in range(cat.n)
            if cat.N[i, j, k]
        ],
        "qdims": [float(x) for x in cat.d],
        "sixj": [],
    }
    for (a, b, c, dd), blk in sorted(cat._fblocks.items()):
        if 0 in (a, b, c):
            continue
        for (e, al, be) in blk.rows:
            for (f, mu, nu) in blk.cols:
                v = blk.mat[blk.row_index[(e, al, be)], blk.col_index[(f, mu, nu)]]
                if v != 0:
                    doc["sixj"].append({
                        "labels": [a, b, c, dd, e, f],
                        "basis": [al, be, mu, nu],
                        "re": float(v.real), "im": float(v.imag),
                    })
    if cat.rsymbols is not None:
        doc["rsymbols"] = [
            {"a": a, "b": b, "c": c, "basis": [0, 0],
             "re": float(v.real), "im": float(v.imag)}
            for (a, b, c), v in sorted(cat.rsymbols.items())
        ]
    return doc


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------


def _zoo_vec_zn(nmod):
    names = ["e"] + ["g%d" % k for k in range(1, nmod)]
    dual = [(-k) % nmod for k in range(nmod)]
    N = np.zeros((nmod, nmod, nmod), dtype=np.int64)
    for i in range(nmod):
        for j in range(nmod):
            N[i, j, (i + j) % nmod] = 1
    fentries = []
    for a in range(1, nmod):
        for b in range(1, nmod):
            for c in range(1, nmod):
                e = (a + b) % nmod
                f = (b + c) % nmod
                dd = (a + b + c) % nmod
                fentries.append(((a, b, c, dd, e, f), (0, 0, 0, 0), 1.0 + 0j))
    return CategoryData(names, dual, N, [1.0] * nmod, fentries)


def _fill_unit_fusion(N):
    for k in range(N.shape[0]):
        N[0, k, k] = 1
        N[k, 0, k] = 1


def _zoo_fibonacci():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    names = ["1", "tau"]
    N = np.zeros((2, 2, 2), dtype=np.int64)
    _fill_unit_fusion(N)
    N[1, 1, 0] = 1
    N[1, 1, 1] = 1
    fentries = [
        # F^{tau tau tau}_tau = [[1/phi, 1/sqrt(phi)], [1/sqrt(phi), -1/phi]]
        ((1, 1, 1, 1, 0, 0), (0, 0, 0, 0), 1.0 / phi + 0j),
        ((1, 1, 1, 1, 0, 1), (0, 0, 0, 0), 1.0 / math.sqrt(phi) + 0j),
        ((1, 1, 1, 1, 1, 0), (0, 0, 0, 0), 1.0 / math.sqrt(phi) + 0j),
        ((1, 1, 1, 1, 1, 1), (0, 0, 0, 0), -1.0 / phi + 0j),
        # F^{tau tau tau}_1 = [1]
        ((1, 1, 1, 0, 1, 1), (0, 0, 0, 0), 1.0 + 0j),
    ]
    rsymbols = {
        (1, 1, 0): np.exp(-4j * np.pi / 5.0),
        (1, 1, 1): np.exp(3j * np.pi / 5.0),
    }
    return CategoryData(names, [0, 1], N, [1.0, phi], fentries, rsymbols)


def _zoo_ising():
    s2 = math.sqrt(2.0)
    names = ["1", "sigma", "psi"]
    SIG, PSI = 1, 2
    N = np.zeros((3, 3, 3), dtype=np.int64)
    _fill_unit_fusion(N)
    N[SIG, SIG, 0] = 1
    N[SIG, SIG, PSI] = 1
    N[SIG, PSI, SIG] = 1
    N[PSI, SIG, SIG] = 1
    N[PSI, PSI, 0] = 1
    fentries = []
    # enumerate admissible non-unit blocks; all entries +1 except the listed signs
    def fval(a, b, c, dd, e, f):
        if (a, b, c, dd) == (PSI, SIG, PSI, SIG):
            return -1.0
        if (a, b, c, dd) == (SIG, PSI, SIG, PSI):
            return -1.0
        if (a, b, c, dd) == (SIG, SIG, SIG, SIG):
            m = 1.0 / s2
            return -m if (e == PSI and f == PSI) else m
        return 1.0

    for a in (SIG, PSI):
        for b in (SIG, PSI):
            for c in (SIG, PSI):
                for dd in range(3):
                    for e in range(3):
                        if not (N[a, b, e] and N[e, c, dd]):
                            continue
                        for f in range(3):
                            if not (N[b, c, f] and N[a, f, dd]):
                                continue
                            fentries.append(
                                ((a, b, c, dd, e, f), (0, 0, 0, 0),
                                 complex(fval(a, b, c, dd, e, f)))
                            )
    rsymbols = {
        (SIG, SIG, 0): np.exp(-1j * np.pi / 8.0),
        (SIG, SIG, PSI): np.exp(3j * np.pi / 8.0),
        (SIG, PSI, SIG): -1j,
        (PSI, SIG, SIG): -1j,
        (PSI, PSI, 0): -1.0 + 0j,
    }
    return CategoryData(names, [0, 1, 2], N, [1.0, s2, 1.0], fentries, rsymbols)


def zoo(name):
    """Built-in categories: vec_zN (any N >= 1), fibonacci, ising."""
    if name.startswith("vec_z"):
        try:
            nmod = int(name[len("vec_z"):])
        except ValueError:
            raise CategoryError("unknown zoo name %r" % name) from None
        if nmod < 1:
            raise CategoryError("vec_zN needs N >= 1")
        return _zoo_vec_zn(nmod)
    if name == "fibonacci":
        return _zoo_fibonacci()
    if name == "ising":
        return _zoo_ising()
    raise CategoryError("unknown zoo name %r" % name)
