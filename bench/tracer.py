"""Spans around the layer boundaries of `isoquintic`, recorded from outside.

`Tracer.install()` replaces each timed function wherever a loaded
`isoquintic` module binds it (so a caller that did `from .qpoly import
solve_linear_exact` is traced too) and the `Poly` ring methods on the class.
Each call appends one span (name, item id, parent span, start, end) to
in-memory arrays; `write()` stores them when the run ends and `aggregate()`
turns them into per-function calls, inclusive busy time and self time (span
minus the part covered by its child spans), plus the layer counts kept by the
same wrappers.
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
import os
import sys
import time

# layer -> timed functions; each is a module attribute of the same name,
# except the Poly methods below and `rhs`, the callable `compile_rhs` returns
LAYERS = {
    "qpoly": ("mul", "add", "subs", "eval_rational", "divide_exact", "parse_expr",
              "solve_linear_exact"),
    "lyapunov": ("pl_constants", "first_nonzero"),
    "quintic": ("classify", "theorem_case", "build_system", "vanishes_under_case",
                "commuting_partner", "first_integral", "rotate_to_canonical"),
    "structure": ("lie_bracket", "integrating_factor_from_pair",
                  "verify_darboux_integral", "reversible_modulo_constraint",
                  "cofactor_of", "rational_integral_residual",
                  "angular_speed_residual"),
    "orbits": ("ray_return_time", "integrate", "compile_rhs", "rhs",
               "boundary_curve", "center_type"),
    "cli": ("main",),
}
POLY_METHODS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__"),
                "subs": ("subs",), "eval_rational": ("eval_rational",)}

OUTCOMES = ("returned", "escaped", "no_return", "stiff", "other")

COUNTS = (["qpoly.mul.term_products", "qpoly.max_terms", "qpoly.max_coeff_bits",
           "lyapunov.constants_computed", "lyapunov.constants_needed",
           "quintic.theorem_case.hits"]
          + [f"orbits.outcome.{o}" for o in OUTCOMES])

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _nterms(p):
    return len(p.terms) if hasattr(p, "terms") else 1


class Tracer:
    def __init__(self):
        self.names = ["bench.item"] + SPAN_NAMES
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array.array("H")
        self.item = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.outer = array.array("b")  # 1 if no enclosing span has the same name
        self._stack = []
        self._depth = [0] * len(self.names)
        self.item_id = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._restore = []

    # -- recording ----------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.item.append(self.item_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(0 if self._depth[nid] else 1)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def wrap(self, span, fn, after=None, on_error=None):
        nid = self._ids[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def item_span(self, item_id):
        """One benchmark item: the root span whose id its layer spans share."""
        self.item_id = item_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.item_id = -1

    # -- counters kept by the wrappers ---------------------------------

    def _after_mul(self, args, result):
        if result is NotImplemented:
            return
        c = self.counts
        c["qpoly.mul.term_products"] += _nterms(args[0]) * _nterms(args[1])
        terms = getattr(result, "terms", {})
        if len(terms) > c["qpoly.max_terms"]:
            c["qpoly.max_terms"] = len(terms)
        bits = c["qpoly.max_coeff_bits"]
        for q in terms.values():
            b = max(q.numerator.bit_length(), q.denominator.bit_length())
            if b > bits:
                bits = b
        c["qpoly.max_coeff_bits"] = bits

    def _after_add(self, args, result):
        n = len(getattr(result, "terms", ()))
        if n > self.counts["qpoly.max_terms"]:
            self.counts["qpoly.max_terms"] = n

    def _after_pl(self, args, report):
        computed = len(report.raw)
        self.counts["lyapunov.constants_computed"] += computed
        self.counts["lyapunov.constants_needed"] += (
            report.first_nonzero_index or computed)

    def _after_theorem_case(self, args, case):
        if case is not None:
            self.counts["quintic.theorem_case.hits"] += 1

    def _outcome(self, orbits):
        def returned(args, result):
            self.counts["orbits.outcome.returned"] += 1

        def failed(exc):
            for cls, key in ((orbits.EscapedError, "escaped"),
                             (orbits.NoReturnError, "no_return"),
                             (orbits.StiffnessError, "stiff")):
                if isinstance(exc, cls):
                    break
            else:
                key = "other"
            self.counts[f"orbits.outcome.{key}"] += 1

        return returned, failed

    # -- patching -----------------------------------------------------

    def install(self):
        """Wrap every timed function in the loaded `isoquintic` modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "isoquintic" or name.startswith("isoquintic.")}
        hooks = {"qpoly.mul": (self._after_mul, None),
                 "qpoly.add": (self._after_add, None),
                 "lyapunov.pl_constants": (self._after_pl, None),
                 "quintic.theorem_case": (self._after_theorem_case, None)}
        orbits = modules.get("isoquintic.orbits")
        if orbits is not None:
            hooks["orbits.ray_return_time"] = self._outcome(orbits)

        poly = modules["isoquintic.qpoly"].Poly
        for fn, attrs in POLY_METHODS.items():
            span = f"qpoly.{fn}"
            original = getattr(poly, attrs[0])
            traced = self.wrap(span, original, *hooks.get(span, (None, None)))
            for attr in attrs:
                self._patch(poly, attr, traced)

        for layer, fns in LAYERS.items():
            home = modules.get(f"isoquintic.{layer}")
            if home is None:
                continue
            for fn in fns:
                if fn in POLY_METHODS or fn == "rhs":
                    continue
                span = f"{layer}.{fn}"
                original = getattr(home, fn)
                if span == "orbits.compile_rhs":
                    traced = self._wrap_compile_rhs(original)
                else:
                    traced = self.wrap(span, original,
                                       *hooks.get(span, (None, None)))
                for mod in modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, traced)

    def _patch(self, owner, attr, traced):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, traced)

    def _wrap_compile_rhs(self, original):
        inner = self.wrap("orbits.compile_rhs", original)
        wrap = self.wrap

        @functools.wraps(original)
        def compile_rhs(sys_):
            return wrap("orbits.rhs", inner(sys_))

        return compile_rhs

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------

    def aggregate(self):
        """Per span name: [calls, busy seconds, self seconds]."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names, outer = self.names, self.outer
        for i in range(n):
            row = out[names[self.name[i]]]
            dur = end[i] - start[i]
            row[0] += 1
            if outer[i]:
                row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, stem):
        """Store the spans as `<stem>.json` (layout) and `<stem>.bin` (columns)."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        columns = [("name", self.name), ("item", self.item),
                   ("parent", self.parent), ("start", self.start),
                   ("end", self.end)]
        with open(stem + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "columns": [[c, col.typecode, col.itemsize]
                                   for c, col in columns],
                       "clock": "time.perf_counter seconds"}, fh)


def merge(totals, counts, agg, cnt):
    """Add one tracer's aggregate and counts into running totals."""
    for name, row in agg.items():
        tot = totals.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            tot[i] += row[i]
    for key, value in cnt.items():
        if key in ("qpoly.max_terms", "qpoly.max_coeff_bits"):
            counts[key] = max(counts.get(key, 0), value)
        else:
            counts[key] = counts.get(key, 0) + value
