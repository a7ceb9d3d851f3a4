"""Span tracer that wraps public doubletop functions from outside the package.

`Tracer.install()` replaces each traced function by a timing wrapper in
every loaded ``doubletop`` module that holds it, so names imported with
``from .x import f`` (the CLI imports most of the pipeline this way) are
wrapped too; `uninstall()` puts every original back.  Spans are kept in
memory as ``[name, start, end, parent]`` and written out by the caller.

Sizes that explain cost are read from the arguments and results after the
run (`sizes()`), so the wrappers only time and keep references.
"""

import functools
import importlib
import sys
import time

# Public functions traced, as (module, attribute).  The per-layer metric
# names are "<module>.<function>.<stat>".
TRACED = (
    ("catdata", "zoo"),
    ("trees", "pentagon_residual"),
    ("trees", "hexagon_residual"),
    ("cli", "main"),
    ("tube", "build_tube_algebra"),
    ("tube", "center_decompose"),
    ("modulardata", "compute_modular_data"),
    ("modulardata", "block_irreps"),
    ("modulardata", "extract_half_braidings"),
    ("modulardata", "half_braiding_multiplicativity"),
    ("modulardata", "check_U_condition"),
    ("modulardata", "compute_T"),
    ("modulardata", "compute_S"),
    ("modulardata", "canonical_permutation"),
    ("statesum", "state_sum"),
    ("surgery", "evaluate"),
    ("surgery", "surgery_invariant"),
    ("surgery", "rt_invariant"),
    ("surgery", "blow_up"),
    ("surgery", "blow_down"),
)

STATS = ("calls", "busy_s", "self_s")

# Spans whose arguments and results `sizes()` reads.
_SIZED = {"tube.build_tube_algebra", "modulardata.compute_modular_data",
          "statesum.state_sum", "surgery.evaluate",
          "surgery.surgery_invariant", "surgery.rt_invariant"}

PACKAGE = "doubletop"


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.traced = TRACED
        self.spans = []
        self._calls = []      # (span index, args, kwargs, result) for sizing
        self._stack = []
        self._patched = []    # (module, attribute, original)

    # -- patching -------------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for modname, attr in self.traced:
            mod = importlib.import_module("%s.%s" % (PACKAGE, modname))
            orig = getattr(mod, attr)
            wrappers[id(orig)] = (orig, self._wrap("%s.%s" % (modname, attr),
                                                   orig))
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self._calls
        sized = name in _SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if sized:
                calls.append((sid, args, kwargs, result))
            return result

        return traced

    # -- reports --------------------------------------------------------------

    def layer_stats(self, first=0, last=None):
        """calls, busy_s and self_s per traced function, over spans[first:last].

        Busy time counts only the outermost span of a name, so a function
        nested inside itself is not counted twice; self time is a span's
        duration minus that of its direct children.
        """
        spans = self.spans
        last = len(spans) if last is None else last
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans[first:last]:
            if parent is not None:
                child[parent] += t1 - t0
        stats = {"%s.%s" % key: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                 for key in self.traced}
        for sid in range(first, last):
            name, t0, t1, parent = spans[sid]
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child[sid]
            outer = True
            while parent is not None and parent >= first:
                if spans[parent][0] == name:
                    outer = False
                    break
                parent = spans[parent][3]
            if outer:
                st["busy_s"] += t1 - t0
        return stats

    def sizes(self):
        """Sizes read from the traced calls' arguments and results: sums
        over calls, except the largest C array for tube.bytes_C."""
        out = {"tube.dim": 0, "tube.nnz_C": 0, "tube.bytes_C": 0,
               "modulardata.blocks": 0, "statesum.colorings": 0,
               "surgery.colorings": 0}
        for sid, args, kwargs, result in self._calls:
            name = self.spans[sid][0]
            if name == "tube.build_tube_algebra":
                out["tube.dim"] += result.dim
                out["tube.nnz_C"] += int((result.C != 0).sum())
                out["tube.bytes_C"] = max(out["tube.bytes_C"], result.C.nbytes)
            elif name == "modulardata.compute_modular_data":
                out["modulardata.blocks"] += result.r_plus_1
            elif name == "statesum.state_sum":
                cat, tri = args[0], args[1]
                out["statesum.colorings"] += cat.n ** tri.n_edges
            elif name != "surgery.surgery_invariant" or args[1].m:
                # each call passes the coloring gate once: evaluate and
                # rt_invariant for tau, and the surgery_invariant they nest
                # is a span of its own; an empty graph skips the gate
                md, g = args[0], args[1]
                out["surgery.colorings"] += md.S.shape[0] ** g.m
        return out

    def tube_builds(self):
        """Per tube-algebra build: category labels, dim, nnz(C), density."""
        out = []
        for sid, args, kwargs, result in self._calls:
            if self.spans[sid][0] == "tube.build_tube_algebra":
                nnz = int((result.C != 0).sum())
                out.append({"labels": list(result.cat.names),
                            "dim": result.dim, "nnz_C": nnz,
                            "density": nnz / result.dim ** 3})
        return out

    def dump(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": n, "start_s": t0 - base, "end_s": t1 - base,
                 "parent": p} for i, (n, t0, t1, p) in enumerate(self.spans)]
