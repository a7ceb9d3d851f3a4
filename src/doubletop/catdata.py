"""Finite fusion-category data: labels, fusion ring, quantum dimensions, F and R.

A category is described combinatorially by

* ``n`` labels ``0..n-1`` with label ``0`` the unit,
* an involution ``dual`` with ``dual[0] == 0``,
* fusion multiplicities ``N[i, j, k] = dim Hom(k, i (x) j)``, each 0 or 1:
  only multiplicity-free rings are supported, and a ring with some
  ``N > 1`` is refused by name at construction,
* positive quantum dimensions ``d`` solving ``d[i] d[j] = sum_k N[i,j,k] d[k]``,
* F-symbols, stored once, as the dense array ``F[a, b, c, d, e, f]``, zero
  outside admissible labels.  Each block ``F[a, b, c, d]`` holds a unitary
  matrix between the two parenthesizations of ``Hom(d, a (x) b (x) c)``.

F-matrix convention.  For fixed outer labels the left tree ``((ab)c)`` has
basis ``e``, a fixed unit vector of ``Hom(e, ab)`` followed by one of
``Hom(d, ec)``; the right tree ``(a(bc))`` has basis ``f``, a unit vector of
``Hom(f, bc)`` followed by one of ``Hom(d, af)``.  The matrix entry
``[F^{abc}_d][e, f]`` is the coefficient in

    ((ab)c -> d through e)  =  sum_f F[e, f] (a(bc) -> d through f)

Rows and columns are ordered by ``e`` and ``f``.  Blocks with ``a``, ``b`` or
``c`` equal to the unit are fixed to the identity matrix (unit gauge) and need
not be serialized; a table entry there must agree with the identity.

The constructor takes the F-symbols as one table ``{(a, b, c, d, e, f): value}``
and the optional R-symbols as ``{(a, b, c): value}``, stored as ``R[a, b, c]``:
1 where ``a`` or ``b`` is the unit (a table entry there must be 1), zero off ``N``,
``None`` without a table.  A document's ``sixj`` entry still carries the four
basis indices of a general category, and an R-symbol its two; each must be 0.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from . import trees

STRUCT_TOL = 1e-9


class CategoryError(ValueError):
    """A category invariant failed; the message names the violated invariant."""


def _refuse_multiplicity(N):
    over = np.argwhere(N > 1)
    if len(over):
        at = tuple(over[0])
        raise CategoryError(
            "fusion multiplicity N[%s] = %d is above 1: only multiplicity-free "
            "fusion rings are supported" % (",".join(map(str, at)), N[at]))


def _outside_message(ix):
    # ix: the six labels of a sixj entry, then its four basis indices
    return ("multiplicity/F-tensor shape mismatch: entry (%d,%d,%d;%d) e=%d f=%d "
            "basis (%d,%d|%d,%d) outside admissible ranges" % tuple(ix))


def _label_keys(table, width, n):
    """The table's label tuples as `width` int columns, labels outside 0..n-1 read as n."""
    try:
        keys = np.array(list(table), dtype=np.int64).reshape(-1, width)
    except OverflowError:  # a label past int64 is outside 0..n-1, as -1 and n are
        keys = np.array(list(table), dtype=object).clip(-1, n).astype(np.int64)
    return np.where((keys >= 0) & (keys < n), keys, n)


def join(N, rows, *cols):
    """Every row of the int array `rows` once per o with N[row[cols], o] > 0,
    o appended as a last column; row order is kept and o ascends within each.

    N is the fusion tensor (cols x, y: the labels o of x (x) y), or any table
    whose last axis is o."""
    t, o = np.nonzero(N[tuple(rows[:, c] for c in cols)])
    return np.column_stack([rows[t], o])


class CategoryData:
    """Validated fusion-category data; immutable after construction."""

    def __init__(self, names, dual, N, qdims, fsymbols, rsymbols=None, validate=True):
        self.names = list(names)
        self.n = len(self.names)
        self.dual = list(dual)
        self.N = np.asarray(N, dtype=np.int64)
        self.d = np.asarray(qdims, dtype=float)
        self.residuals = None  # {"pentagon", "unitarity"}, set by validate()
        _refuse_multiplicity(self.N)
        if validate:
            # the block sizes come from N: check the ring before building them
            self._check_ring(rsymbols)
        # a negative multiplicity (only unvalidated data has one) counts as
        # zero; label n stands for every label outside 0..n-1 and fuses to nothing
        N = np.zeros((self.n + 1,) * 3, dtype=np.int64)
        N[:-1, :-1, :-1] = np.maximum(self.N, 0)
        self.R = self._build_r(N, rsymbols, validate)
        self._build_blocks(N, fsymbols)
        if validate:
            self._check_f()

    # -- table assembly -----------------------------------------------------

    def _build_r(self, N, rsymbols, validate):
        if not rsymbols:
            return None
        a, b, c = keys = _label_keys(rsymbols, 3, self.n).T
        vals = np.array(list(rsymbols.values()), dtype=complex)
        unit = (a == 0) | (b == 0)
        empty = N[a, b, c] == 0
        bad = np.flatnonzero(empty | unit & (np.abs(vals - 1.0) > STRUCT_TOL))
        if bad.size:
            what = "R-symbol on empty space" if empty[bad[0]] else "unit-gauge violation at R-symbol"
            raise CategoryError("%s (%d,%d,%d)" % (what, *list(rsymbols)[bad[0]]))
        R = np.zeros(N.shape, dtype=complex)
        R[0], R[:, 0] = N[0], N[:, 0]
        R[tuple(keys[:, ~unit])] = vals[~unit]
        miss = [k for k in map(tuple, (np.argwhere(N[1:, 1:]) + (1, 1, 0)).tolist())
                if validate and k not in rsymbols]
        if miss:
            raise CategoryError("missing R-symbol at (%d,%d,%d)" % miss[0])
        return R[:self.n, :self.n, :self.n]

    def _build_blocks(self, N, fsymbols):
        n = self.n
        nrows = np.einsum("abe,ecd->abcd", N, N)
        ncols = np.einsum("bcf,afd->abcd", N, N)
        bad = np.argwhere((nrows > 0) & (nrows != ncols))
        if len(bad):
            a, b, c, dd = bad[0]
            raise CategoryError(
                "associativity violation: F-block (%d,%d,%d;%d) "
                "is %dx%d" % (a, b, c, dd, nrows[a, b, c, dd], ncols[a, b, c, dd])
            )
        self.F = F = np.zeros((n,) * 6, dtype=complex)
        # unit gauge: each block with a unit among a, b, c is the identity,
        # row e on column f, over the admissible (x, y; z)
        x, y, z = np.nonzero(N)
        F[0, x, y, z, x, z] = 1.0
        F[x, 0, y, z, x, y] = 1.0
        F[x, y, 0, z, z, y] = 1.0
        keys = _label_keys(fsymbols, 6, n)
        vals = np.array(list(fsymbols.values()), dtype=complex)
        a, b, c, dd, e, f = keys.T
        unit = (keys[:, :3] == 0).any(axis=1)
        # each entry's three checks, in the order they are reported; the
        # identity reads 1 at every admissible entry of a unit block
        empty = nrows[a, b, c, dd] == 0
        outside = N[a, b, e] * N[e, c, dd] * N[b, c, f] * N[a, f, dd] == 0
        gauge = unit & (np.abs(vals - 1.0) > STRUCT_TOL)
        bad = np.flatnonzero(empty | outside | gauge)
        if bad.size:
            i, at = bad[0], list(fsymbols)[bad[0]]
            if empty[i]:
                raise CategoryError("multiplicity/F-tensor shape mismatch: entry for "
                                    "empty block (%d,%d,%d;%d)" % at[:4])
            if outside[i]:
                raise CategoryError(_outside_message(at + (0,) * 4))
            raise CategoryError("unit-gauge violation at (%d,%d,%d;%d)" % at[:4])
        # entries on the unit blocks agree with the identity above
        F[tuple(keys[~unit].T)] = vals[~unit]

    # -- validation -----------------------------------------------------------

    def validate(self):
        # R as a table again, where a zero R-symbol reads as missing
        table = {} if self.R is None else {
            key: self.R[key] for key in map(tuple, np.argwhere(self.R).tolist())}
        self._check_ring(table)
        self._build_r(self.N, table, True)
        self._check_f()

    def _check_ring(self, rsymbols):
        """Labels, N and quantum dimensions; R's table is finite, on a commutative ring."""
        n, N, dual, d = self.n, self.N, self.dual, self.d
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            raise CategoryError("non-finite quantum dimension at label %d" % bad[0])
        for key, v in (rsymbols or {}).items():
            if not np.isfinite(v):
                raise CategoryError("non-finite R-symbol at (%d,%d,%d)" % key)
        if n < 1:
            raise CategoryError("need at least the unit label")
        if N.shape != (n, n, n):
            raise CategoryError("fusion tensor shape %s" % (N.shape,))
        if (N < 0).any():
            raise CategoryError("negative fusion multiplicity")
        dual, labels = np.asarray(dual), np.arange(n)
        if not (np.array_equal(np.sort(dual), labels)
                and np.array_equal(dual[dual], labels)) or dual[0] != 0:
            raise CategoryError("dual is not an involution fixing the unit")
        # the first offending pair (i, j) in row-major order; the unit law first
        eye = np.eye(n, dtype=np.int64)
        unit = (N[0] != eye) | (N[:, 0] != eye)
        bad = np.argwhere(unit | (N[:, :, 0] != eye[dual]))
        if len(bad):
            i, j = bad[0]
            if unit[i, j]:
                raise CategoryError("unit-law violation at labels (%d,%d)" % (i, j))
            raise CategoryError("duality violation: N_{%d,%d}^e = %d"
                                % (i, j, N[i, j, 0]))
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
        bad = np.flatnonzero(np.abs(d - d[dual]) > STRUCT_TOL)
        if bad.size:
            raise CategoryError("d not dual-invariant at label %d" % bad[0])
        resid = np.max(np.abs(np.outer(d, d) - np.einsum("ijk,k->ij", N, d)))
        if resid > STRUCT_TOL:
            raise CategoryError(
                "dimension eigenvector mismatch: residual %.3e" % resid
            )
        if rsymbols and not np.array_equal(N, N.transpose(1, 0, 2)):
            raise CategoryError("R-symbols on a noncommutative fusion ring")

    @np.errstate(over="ignore", invalid="ignore")
    def _check_f(self):
        """Unitarity and pentagon of the F-blocks, then the hexagon.

        A huge finite F- or R-symbol overflows in these products, so a
        residual may read inf or nan; every gate below rejects both, by name.
        """
        finite = np.isfinite(self.F)
        if not finite.all():
            raise CategoryError("non-finite F-symbol in block (%d,%d,%d;%d)"
                                % tuple(np.argwhere(~finite)[0][:4]))
        keys = _block_keys(self)
        a, b, c, dd = keys.T
        M = self.F[a, b, c, dd]  # the blocks, axes (block, e, f)
        # the identity on each block's admissible rows e
        live = self.N[a, b] * self.N[:, c, dd].T
        resid = np.abs(M @ M.conj().transpose(0, 2, 1)
                       - live[:, :, None] * np.eye(live.shape[1])).max(axis=(1, 2))
        bad = np.flatnonzero(~(resid <= STRUCT_TOL))
        if bad.size:
            raise CategoryError("F-block (%d,%d,%d;%d) not unitary: residual %.3e"
                                % (*keys[bad[0]], resid[bad[0]]))
        unitarity = float(resid.max())
        pentagon = trees.pentagon_residual(self)
        if not pentagon <= STRUCT_TOL:
            raise CategoryError("pentagon residual %.3e above tolerance" % pentagon)
        if self.R is not None:
            resid = trees.hexagon_residual(self)
            if not resid <= STRUCT_TOL:
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
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise CategoryError("malformed category document: %s" % _fault(exc)) from exc
    return CategoryData(*parts, validate=validate)


def _ints(xs, what):
    """Integral JSON numbers as ints (1.0 reads as 1); else an error naming `what`."""
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) and x % 1 == 0
               for x in xs):
        raise CategoryError("%s must be integers" % what)
    return [int(x) for x in xs]


def _listed(x, what):
    """x if it is a JSON list, else a TypeError naming `what` (a malformed document)."""
    if not isinstance(x, list):
        raise TypeError("%s must be a JSON list" % what)
    return x


def _fault(exc):
    """What a malformed document's error line says of `exc`: a KeyError is a missing field."""
    return "missing field %s" % exc if isinstance(exc, KeyError) else exc


def _reals(xs, what):
    """JSON numbers as floats (nan and inf pass, for the finiteness gates);
    else an error naming `what`: strings and booleans are not numbers."""
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in xs):
        raise CategoryError("%s must be real numbers" % what)
    return [float(x) for x in xs]


def _category_parts(doc):
    """Constructor arguments (names, dual, N, qdims, fsymbols, rsymbols)."""
    labels = doc["labels"]
    ids = [l["id"] for l in labels]
    if ids != list(range(len(ids))) or any(isinstance(i, bool) for i in ids):
        raise CategoryError("label ids must be dense 0..n-1")
    names = [l["name"] for l in labels]
    n = len(names)
    dual = _ints(doc["dual"], "dual entries")
    if len(dual) != n:
        raise CategoryError("dual length != n")

    def triple(what, *abc):
        abc = tuple(_ints(abc, what + " labels"))
        if not all(0 <= x < n for x in abc):
            raise CategoryError("label triple %s outside 0..%d" % (abc, n - 1))
        return abc

    def enter(table, what, key, val):
        # a label tuple listed twice must carry one value
        old = table.setdefault(key, val)
        if old is not val and old != val:
            raise CategoryError("%s %s listed twice with different values" % (what, key))

    N = np.zeros((n, n, n), dtype=np.int64)
    for ent in doc["fusion"]:
        mult = _ints([ent["mult"]], "fusion multiplicities")[0]
        N[triple("fusion", ent["i"], ent["j"], ent["k"])] = mult
    qdims = _reals(doc["qdims"], "qdims")
    if len(qdims) != n:
        raise CategoryError("qdims length != n")
    # refused before the basis indices, which such a ring may use
    _refuse_multiplicity(N)
    fsymbols = {}
    for ent in doc.get("sixj", []):
        labels, basis = (_listed(ent[k], "sixj " + k) for k in ("labels", "basis"))
        if len(labels) != 6 or len(basis) != 4:
            raise CategoryError("sixj entry needs 6 labels and 4 basis indices")
        ix = _ints(labels + basis, "sixj labels and basis indices")
        if any(ix[6:]):
            raise CategoryError(_outside_message(ix))
        enter(fsymbols, "sixj entry", tuple(ix[:6]),
              complex(*_reals([ent["re"], ent.get("im", 0.0)], "sixj re and im")))
    rsymbols = None
    if doc.get("rsymbols"):
        rsymbols = {}
        for ent in doc["rsymbols"]:
            basis = ent.get("basis", [0, 0])
            if not isinstance(basis, list) or _ints(basis, "R-symbol basis") != [0, 0]:
                raise CategoryError("R-symbol basis must be [0, 0]")
            enter(rsymbols, "R-symbol", triple("R-symbol", ent["a"], ent["b"], ent["c"]),
                  complex(*_reals([ent["re"], ent.get("im", 0.0)], "R-symbol re and im")))
    return names, dual, N, qdims, fsymbols, rsymbols


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


def _block_keys(cat):
    """Keys (a,b,c,d) of the nonempty F-blocks, in lex order."""
    N = np.maximum(cat.N, 0)
    return np.argwhere(np.einsum("abe,ecd->abcd", N, N))


def dump_category(cat):
    """Serialize back to the JSON schema (unit-gauge blocks omitted)."""
    doc = {
        "labels": [{"id": i, "name": cat.names[i]} for i in range(cat.n)],
        "dual": list(cat.dual),
        "fusion": [{"i": i, "j": j, "k": k, "mult": m} for (i, j, k), m in zip(
            np.argwhere(cat.N).tolist(), cat.N[cat.N != 0].tolist())],
        "qdims": [float(x) for x in cat.d],
        "sixj": [],
    }
    keys = _block_keys(cat)
    keys = keys[keys[:, :3].all(axis=1)]
    M = cat.F[tuple(keys.T)]
    # one flat scan of the blocks M for the (block, e, f) of every nonzero entry
    at = np.unravel_index(np.flatnonzero(M), M.shape)
    slots = np.column_stack((keys[at[0]],) + at[1:]).tolist()
    doc["sixj"] = [{"labels": labels, "basis": [0, 0, 0, 0], "re": v.real,
                    "im": v.imag} for labels, v in zip(slots, M[at].tolist())]
    if cat.R is not None:
        keys = np.argwhere(cat.R[1:, 1:]) + (1, 1, 0)
        doc["rsymbols"] = [{"a": a, "b": b, "c": c, "basis": [0, 0], "re": v.real, "im": v.imag}
                           for (a, b, c), v in zip(keys.tolist(), cat.R[tuple(keys.T)].tolist())]
    return doc


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------


def _zoo_vec_zn(nmod):
    # ask for F's nmod**6 entries before any per-label work, so that an nmod
    # whose F cannot exist fails at once; numpy's own MemoryError names the
    # size, and a size past its index range raises ValueError
    try:
        np.empty((nmod,) * 6, dtype=complex)
    except ValueError as exc:
        raise MemoryError("F of vec_z%d has %d**6 entries: %s" % (nmod, nmod, exc)) from exc
    names = ["e"] + ["g%d" % k for k in range(1, nmod)]
    dual = [(-k) % nmod for k in range(nmod)]
    N = np.zeros((nmod, nmod, nmod), dtype=np.int64)
    i, j = np.indices((nmod, nmod))
    N[i, j, (i + j) % nmod] = 1
    fsymbols = {(a, b, c, (a + b + c) % nmod, (a + b) % nmod, (b + c) % nmod): 1.0
                for a in range(1, nmod) for b in range(1, nmod) for c in range(1, nmod)}
    return CategoryData(names, dual, N, [1.0] * nmod, fsymbols)


def _zoo_fibonacci():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    names = ["1", "tau"]
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(2)
    N[1, 1] = 1  # tau (x) tau = 1 + tau
    fsymbols = {
        # F^{tau tau tau}_tau = [[1/phi, 1/sqrt(phi)], [1/sqrt(phi), -1/phi]]
        (1, 1, 1, 1, 0, 0): 1.0 / phi,
        (1, 1, 1, 1, 0, 1): 1.0 / math.sqrt(phi),
        (1, 1, 1, 1, 1, 0): 1.0 / math.sqrt(phi),
        (1, 1, 1, 1, 1, 1): -1.0 / phi,
        # F^{tau tau tau}_1 = [1]
        (1, 1, 1, 0, 1, 1): 1.0,
    }
    rsymbols = {
        (1, 1, 0): np.exp(-4j * np.pi / 5.0),
        (1, 1, 1): np.exp(3j * np.pi / 5.0),
    }
    return CategoryData(names, [0, 1], N, [1.0, phi], fsymbols, rsymbols)


def _zoo_ising():
    s2 = math.sqrt(2.0)
    names = ["1", "sigma", "psi"]
    SIG, PSI = 1, 2
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(3)
    for i, j, k in [(SIG, SIG, 0), (SIG, SIG, PSI), (SIG, PSI, SIG), (PSI, SIG, SIG),
                    (PSI, PSI, 0)]:
        N[i, j, k] = 1
    # every admissible non-unit entry is +1 but for three signed blocks
    admissible = np.einsum("abe,ecd,bcf,afd->abcdef", N, N, N, N)[1:, 1:, 1:]
    fsymbols = dict.fromkeys(
        map(tuple, (np.argwhere(admissible) + (1, 1, 1, 0, 0, 0)).tolist()), 1.0)
    fsymbols[PSI, SIG, PSI, SIG, SIG, SIG] = -1.0
    fsymbols[SIG, PSI, SIG, PSI, SIG, SIG] = -1.0
    fsymbols.update({(SIG, SIG, SIG, SIG, e, f): (-1.0 if e == f == PSI else 1.0) / s2
                     for e in (0, PSI) for f in (0, PSI)})
    rsymbols = {
        (SIG, SIG, 0): np.exp(-1j * np.pi / 8.0),
        (SIG, SIG, PSI): np.exp(3j * np.pi / 8.0),
        (SIG, PSI, SIG): -1j,
        (PSI, SIG, SIG): -1j,
        (PSI, PSI, 0): -1.0 + 0j,
    }
    return CategoryData(names, [0, 1, 2], N, [1.0, s2, 1.0], fsymbols, rsymbols)


def zoo(name):
    """Built-in categories: vec_zN (any N >= 1), fibonacci, ising."""
    if name.startswith("vec_z"):
        digits = name[len("vec_z"):]
        try:
            nmod = int(digits)
        except ValueError:
            nmod = None
        # N in ASCII digits as str(N) writes it, so that a report echoes the
        # canonical name: no sign, space, underscore or leading zero
        if (nmod is None or not (digits.isascii() and digits.isdigit())
                or str(nmod) != digits):
            raise CategoryError("unknown zoo name %r" % name)
        if nmod < 1:
            raise CategoryError("vec_zN needs N >= 1")
        return _zoo_vec_zn(nmod)
    if name == "fibonacci":
        return _zoo_fibonacci()
    if name == "ising":
        return _zoo_ising()
    raise CategoryError("unknown zoo name %r" % name)
