"""The four workloads: seeded inputs, the call into `isoquintic`, the check.

A workload yields items forever from `items(seed)`; the same seed gives the
same items.  Kinds are laid out in fixed strata per cycle (shuffled within a
cycle), so the seed changes the values drawn but never the item mix.  `run`
is the only part timed; `check` compares its output with the oracle and
returns one of PASS, FAIL, INCONCLUSIVE or KNOWN_DEFECT.  This module
imports `isoquintic` only inside `load`.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import oracle

PASS, FAIL, INCONCLUSIVE, KNOWN_DEFECT = "pass", "fail", "inconclusive", "known_defect"

NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
TWO_PI = 2.0 * math.pi


def _frac(rng, height, den):
    return Fraction(rng.randint(-height, height), rng.randint(1, den))


def _cycles(rng, slots):
    """Endless stream of `slots`, each cycle in a fresh seeded order."""
    while True:
        order = list(slots)
        rng.shuffle(order)
        yield from order


def _first_of(items, labels):
    """The first item of each label, in the order of `labels`."""
    found = {}
    for item in items:
        found.setdefault(item[0], item)
        if all(label in found for label in labels):
            return [found[label] for label in labels]


def case_iii_fgh(a, b, d, e):
    """(f, g, h) that put (a, b, -a, d, e, f, g, h) in center case (iii)."""
    f = 3 * b * (a * e - b * d) / (2 * a ** 2)
    g = (2 * a ** 2 * b * d + (2 * a ** 2 - b ** 2) * (b * d - a * e)) / (2 * a ** 3)
    h = (-2 * a ** 2 * d + b * (b * d - a * e)) / (2 * a ** 2)
    return f, g, h


def center_point(rng, tag, height=9, den=3, bound=None):
    """A point of center case `tag` that matches no earlier case."""
    while True:
        v = {n: Fraction(0) for n in NAMES}
        if tag == "i":
            for n in "degh":
                v[n] = _frac(rng, height, den)
            v["f"] = -3 * (v["d"] + v["h"])
            if not (v["d"] or v["h"]):
                continue  # would also be case (ii)
        elif tag == "ii":
            for n in "beg":
                v[n] = _frac(rng, height, den)
            if not v["b"]:
                continue  # would also be case (i)
        else:
            for n in "abde":
                v[n] = _frac(rng, height, den)
            if not v["a"]:
                continue
            v["c"] = -v["a"]
            v["f"], v["g"], v["h"] = case_iii_fgh(v["a"], v["b"], v["d"], v["e"])
        if bound is not None and max(abs(x) for x in v.values()) > bound:
            continue
        if oracle.first_nonzero(v) is not None:
            raise AssertionError(f"case ({tag}) point {v} is not a center")
        return v


def stays_near(v, r0, steps=400, limit=3.0):
    """Does the orbit from radius r0 stay within limit * r0 for one turn?

    The family has constant angular speed, theta = -t, so the radius obeys
    r' = r (r^2 P2(-t) + r^4 P4(-t)).  This integrates that scalar equation
    with fixed-step RK4, independently of the package: a center orbit that
    leaves the period annulus blows up instead of returning at t = 2 pi.
    """
    a, b, c, d, e, f, g, h = (float(v[n]) for n in NAMES)
    dt = TWO_PI / steps

    def rate(t, r):
        co, si = math.cos(-t), math.sin(-t)
        p2 = a * co * co + b * co * si + c * si * si
        p4 = (d * co ** 4 + e * co ** 3 * si + f * co * co * si * si
              + g * co * si ** 3 + h * si ** 4)
        r2 = r * r
        return r * r2 * (p2 + r2 * p4)

    r, t = r0, 0.0
    for _ in range(steps):
        k1 = rate(t, r)
        k2 = rate(t + dt / 2, r + dt / 2 * k1)
        k3 = rate(t + dt / 2, r + dt / 2 * k2)
        k4 = rate(t + dt, r + dt * k3)
        r += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        if not r < limit * r0:
            return False
    return True


def focus_point(rng, k, height=9, den=3):
    """A point whose first nonzero reference constant is D_k."""
    while True:
        v = {n: _frac(rng, height, den) for n in NAMES}
        if k >= 2:
            v["c"] = -v["a"]
        if k >= 3:
            v["f"] = -3 * v["d"] - 3 * v["h"]
        if k >= 4:
            if not v["a"]:
                continue
            v["e"] = (v["b"] * v["d"] - v["a"] * v["g"] - v["b"] * v["h"]) / v["a"]
        hit = oracle.first_nonzero(v)
        if hit is not None and hit[0] == k:
            return v


class Workload:
    name = ""
    imports = ()
    loop = "closed, 1 client"
    cycle = 1  # items per stratum cycle: each kind appears once per cycle

    def load(self, root):
        mods = {m.rsplit(".", 1)[-1]: importlib.import_module(m)
                for m in self.imports}
        return SimpleNamespace(root=root, **mods)

    def warmup(self, seed):
        return []

    def items(self, seed):
        raise NotImplementedError

    def run(self, ctx, item):
        raise NotImplementedError

    def check(self, item, out, stats):
        raise NotImplementedError

    def inject_fault(self, ctx):
        raise SystemExit(f"{self.name} has no fault to inject")


# ----------------------------------------------------------------------

class ClassifySweep(Workload):
    """quintic.classify(params, m=4) on seeded rational points."""

    name = "classify-sweep"
    imports = ("isoquintic.quintic",)
    # 12 focus points (D1..D4 first nonzero; one of three at large height)
    # and 4 center points per cycle of 16
    SLOTS = ([("focus", k, False) for k in (1, 2, 3, 4)] * 2
             + [("focus", k, True) for k in (1, 2, 3, 4)]
             + [("center", t, False) for t in ("i", "ii", "iii")]
             + [("center", None, False)])
    cycle = len(SLOTS)

    def warmup(self, seed):
        return _first_of(self.items(f"warmup:{seed}"),
                         ("focus-k1", "focus-k4-large", "center-iii"))

    def items(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        for kind, arg, large in _cycles(rng, self.SLOTS):
            height, den = (10 ** 6, 10 ** 6) if large else (9, 3)
            if kind == "focus":
                v = focus_point(rng, arg, height, den)
                want = ("focus",) + oracle.first_nonzero(v)
                label = f"focus-k{arg}" + ("-large" if large else "")
            else:
                tag = arg or rng.choice(("i", "ii", "iii"))
                v = center_point(rng, tag)
                want = ("center", tag)
                label = f"center-{tag}"
            yield label, tuple(v[n] for n in NAMES), want

    def run(self, ctx, item):
        q = ctx.quintic
        return q.classify(q.QuinticParams(*item[1]), m=4)

    def check(self, item, out, stats):
        want = item[2]
        if out.kind == "center":
            got = ("center", out.case.tag.value)
        else:
            got = (out.kind, out.focus_index, out.focus_sign)
        return PASS if got == want else FAIL

    def inject_fault(self, ctx):
        q = ctx.quintic
        classify = q.classify
        flip = {"positive": "negative", "negative": "positive"}

        def flipped(params, m=4):
            out = classify(params, m=m)
            if out.kind == "focus":
                out = dataclasses.replace(out, focus_sign=flip[out.focus_sign])
            return out

        q.classify = flipped


# ----------------------------------------------------------------------

def _general_quadratic(Poly, PlanarSystem):
    x, y = Poly.var("x"), Poly.var("y")
    a, b, c, d, e, f = (Poly.var(n) for n in "abcdef")
    return PlanarSystem(y + a * x ** 2 + b * x * y + c * y ** 2,
                        -x + d * x ** 2 + e * x * y + f * y ** 2)


def _scaled_case_iii_system(Poly, PlanarSystem):
    x, y = Poly.var("x"), Poly.var("y")
    a, b, d, e = (Poly.var(n) for n in "abde")
    quad = a * x ** 2 + b * x * y - a * y ** 2
    big = (2 * a ** 3 + 2 * a ** 2 * d * x ** 2 - 2 * a * b * d * x * y
           + 2 * a ** 2 * e * x * y + 2 * a ** 2 * d * y ** 2
           - b ** 2 * d * y ** 2 + a * b * e * y ** 2)
    P = quad * big
    return PlanarSystem(2 * a ** 3 * y + x * P, -2 * a ** 3 * x + y * P)


def _center_configs(Poly, QuinticParams):
    """Symbolic parameter blocks of the three center cases (criterion 4)."""
    a, d, h = Poly.var("a"), Poly.var("d"), Poly.var("h")
    return {"i": QuinticParams(0, 0, 0, "d", "e", -3 * (d + h), "g", "h"),
            "ii": QuinticParams(0, "b", 0, 0, "e", 0, "g", 0),
            "iii": QuinticParams("a", "b", -a, 0, 0, 0, 0, 0)}


FIRST_INTEGRAL_I = (oracle.parse_terms("x^4 + 2*x^2*y^2 + y^4"),
                    oracle.parse_terms("1 + e*x^4 - 4*d*x^3*y + 4*h*x*y^3 - g*y^4"))


class SymbolicCertify(Workload):
    """A fixed certification task list over the symbolic family."""

    name = "symbolic-certify"
    imports = ("isoquintic.qpoly", "isoquintic.lyapunov", "isoquintic.quintic",
               "isoquintic.structure")

    def __init__(self):
        self.ref = oracle.load_reference()["symbolic"]
        # one item per task kind and its inputs; pl_constants is split by m
        self.tasks = [("pl", ((4,),)), ("pl", ((5,),)), ("pl", ((6,),)),
                      ("vanish", tuple((k, t) for k in range(1, 7)
                                       for t in ("i", "ii", "iii"))),
                      ("bracket", (("i",), ("ii",), ("iii",))),
                      ("intfactor", (("i",), ("ii",))),
                      ("darboux", (("eg",), ("equal",))),
                      ("first-integral", (("i",),)),
                      ("reversible", (("iii",),)),
                      ("roundtrip", tuple((k,) for k in range(1, 7))),
                      ("genquad", ((3,),))]
        self.cycle = len(self.tasks)

    def load(self, root):
        ctx = super().load(root)
        ctx.constants = [ctx.qpoly.parse_expr(t) for t in self.ref["constants"]]
        return ctx

    def warmup(self, seed):
        return [task for task in self.tasks
                if task[0] in ("roundtrip", "bracket") or task == ("pl", ((4,),))]

    def items(self, seed):
        return _cycles(random.Random(f"{self.name}:{seed}"), self.tasks)

    def run(self, ctx, item):
        return [self._run_one(ctx, item[0], *args) for args in item[1]]

    def check(self, item, out, stats):
        ok = all(self._check_one(item[0], args, one)
                 for args, one in zip(item[1], out))
        return PASS if ok else FAIL

    def _run_one(self, ctx, kind, arg, tag=None):
        qp, ly, qu, st = ctx.qpoly, ctx.lyapunov, ctx.quintic, ctx.structure
        Poly, Params = qp.Poly, qu.QuinticParams
        if kind == "pl":
            return ly.pl_constants(qu.build_system(Params.symbolic()), arg)
        if kind == "vanish":
            return qu.vanishes_under_case(ctx.constants[arg - 1], qu.CaseTag(tag))
        if kind == "roundtrip":
            return qp.parse_expr(self.ref["constants"][arg - 1])
        if kind == "genquad":
            return ly.pl_constants(_general_quadratic(Poly, ly.PlanarSystem), arg)
        if kind == "reversible":
            sysm = _scaled_case_iii_system(Poly, ly.PlanarSystem)
            s = Poly.var("s")
            constraint = Poly.var("a") * s ** 2 - Poly.var("b") * s - Poly.var("a")
            return st.reversible_modulo_constraint(sysm, constraint)
        if kind == "darboux":
            if arg == "eg":
                sysm = qu.build_system(Params(0, 1, 0, 0, "e", 0, "g", 0))
                cand = st.darboux_candidate(Poly.var("e"), Poly.var("g"))
            else:
                sysm = qu.build_system(Params.numeric(0, 1, 0, 0, 2, 0, 2, 0))
                cand = st.darboux_candidate_equal(Fraction(2))
            return st.verify_darboux_integral(sysm, cand)
        params = _center_configs(Poly, Params)[arg]
        case = qu.CenterCase(qu.CaseTag(arg))
        if kind == "first-integral":
            return qu.first_integral(params, case)
        sysm = qu.build_system(params)
        partner = qu.commuting_partner(params, case)
        if kind == "bracket":
            return st.lie_bracket(sysm, partner)
        return st.integrating_factor_from_pair(sysm, partner)

    def _check_one(self, kind, args, out):
        arg, ref = args[0], self.ref
        if kind == "pl":
            texts = [str(d) for d in out.constants]
            ok = len(texts) == arg and all(
                oracle.is_positive_multiple(oracle.parse_terms(t), want)
                for t, want in zip(texts, oracle.REFERENCE_TERMS))
            ok = ok and all(oracle.sha256(t) == ref["constant_sha256"][k]
                            for k, t in enumerate(texts[4:], start=4))
        elif kind == "vanish":
            ok = out is True
        elif kind == "roundtrip":
            ok = str(out) == ref["constants"][arg - 1]
        elif kind == "genquad":
            texts = [str(d) for d in out.constants]
            ok = ([len(oracle.parse_terms(t)) for t in texts] == [6, 54, 220]
                  and [oracle.sha256(t) for t in texts] == ref["general_quadratic_sha256"])
        elif kind == "reversible":
            ok = out.reversible is True
        elif kind == "darboux":
            ok = out.certified is True
        elif kind == "first-integral":
            ok = (out.kind == "rational"
                  and (oracle.parse_terms(str(out.payload.num)),
                       oracle.parse_terms(str(out.payload.den))) == FIRST_INTEGRAL_I)
        elif kind == "bracket":
            ok = [str(c) for c in out] == ["0", "0"]
        else:
            ok = (str(out.num) == "1"
                  and oracle.sha256(str(out.den)) == ref["integrating_factor_sha256"][arg])
        return ok


# ----------------------------------------------------------------------

# the two case (i) quartics of criterion 10 with known B-type, and the one
# whose boundary formula does not apply, as (d, e, g, h)
BTYPE_BASES = {"B2": (0, 1, 1, 0), "B4": (0, 1, -1, 0), "Unknown": (0, -1, 1, 0)}
# the scale-invariance defect input of the boundary scan and its x1e13 twin
TINY_QUARTIC = tuple(Fraction(s) for s in ("0", "1e-13", "-1e-13", "0"))
TWIN_QUARTIC = (0, 1, -1, 0)


def _quarter_turn(q):
    d, e, g, h = q
    return (h, -g, -e, d)


def _reflect(q):
    d, e, g, h = q
    return (-d, e, g, -h)


class OrbitSweep(Workload):
    """Ray returns, focus growth, B-types and blow-ups in the float layer."""

    name = "orbit-sweep"
    imports = ("isoquintic.quintic", "isoquintic.orbits")
    SLOTS = ([("center", t, r) for t in ("i", "ii", "iii") for r in (0.1, 0.25, 0.4)]
             + [("focus", 1, 0.1), ("focus", 1, 0.1), ("focus", 2, 0.1)]
             + [("btype", t, None) for t in BTYPE_BASES]
             + [("scale-pair", None, None)]
             + [("blowup", None, 0.4)] * 2)
    cycle = len(SLOTS)

    def warmup(self, seed):
        return _first_of(self.items(f"warmup:{seed}"),
                         ("center-ii", "focus-k1", "btype-B4"))

    def items(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        tiny = False
        for kind, arg, r0 in _cycles(rng, self.SLOTS):
            if kind == "center":
                # only draws whose orbit from r0 lies in the period annulus
                v = center_point(rng, arg, height=3, den=3, bound=3)
                while not stays_near(v, r0):
                    v = center_point(rng, arg, height=3, den=3, bound=3)
                yield f"center-{arg}", kind, v, r0, None
            elif kind == "focus":
                yield f"focus-k{arg}", kind, self._focus(rng, arg), r0, None
            elif kind == "btype":
                scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                q = tuple(scale * c for c in BTYPE_BASES[arg])
                for _ in range(rng.randrange(4)):
                    q = _quarter_turn(q)
                if rng.random() < 0.5:
                    q = _reflect(q)
                yield f"btype-{arg}", kind, q, None, arg
            elif kind == "scale-pair":
                tiny = not tiny
                q = TINY_QUARTIC if tiny else TWIN_QUARTIC
                yield ("btype-tiny" if tiny else "btype-twin"), kind, q, None, "B4"
            else:
                yield "blowup", kind, self._blowup(rng), r0, None

    @staticmethod
    def _focus(rng, k):
        """Draws near the origin as in criterion 8: |a + c| >= 1/2, or a + c = 0
        with D2 nonzero."""
        while True:
            if k == 1:
                v = {n: _frac(rng, 1, 2) for n in NAMES}
                if abs(v["a"] + v["c"]) < Fraction(1, 2):
                    continue
            else:
                v = {n: Fraction(0) for n in NAMES}
                v["a"] = _frac(rng, 1, 2)
                v["c"] = -v["a"]
                v["d"], v["f"], v["h"] = (_frac(rng, 1, 2) for _ in range(3))
            hit = oracle.first_nonzero(v)
            if hit is not None and hit[0] == k:
                return v

    @staticmethod
    def _blowup(rng):
        """Coefficients in [-1, 1] whose orbit from r0 = 0.4 blows up before t = 2 pi.

        With r' = r (r^2 P2 + r^4 P4), a <= c in [3/4, 1] and |b| <= 1/4 give
        P2 >= 5/8 on the unit circle; d, h in [1/2, 1], f in [0, 1] and
        |e|, |g| <= 1/4 give P4 > 0.  So r' >= (5/8) r^3 and r is infinite
        before t = 1 / (2 * 5/8 * 0.4^2) = 5 < 2 pi, the ray return time.
        """
        q = lambda lo, hi: Fraction(rng.randint(lo, hi), 4)
        return {"a": q(3, 4), "b": q(-1, 1), "c": q(3, 4), "d": q(2, 4),
                "e": q(-1, 1), "f": q(0, 4), "g": q(-1, 1), "h": q(2, 4)}

    def run(self, ctx, item):
        _, kind, v, r0, _ = item
        qu, orb = ctx.quintic, ctx.orbits
        if kind in ("btype", "scale-pair"):
            d, e, g, h = v
            params = qu.QuinticParams(0, 0, 0, d, e, -3 * (d + h), g, h)
            verdict = orb.center_type(params, qu.CenterCase(qu.CaseTag.CASE_I))
            return verdict.tag, verdict.evidence
        sysm = qu.build_system(qu.QuinticParams(*(v[n] for n in NAMES)))
        try:
            return "returned", orb.ray_return_time(sysm, r0, 0.0)
        except orb.OrbitError as exc:
            return "raised", type(exc).__name__

    def check(self, item, out, stats):
        label, kind, v, r0, want = item
        if kind == "btype":
            return PASS if out[0] == want else FAIL
        if kind == "scale-pair":
            if out[0] == want:
                return PASS
            # the boundary scan's absolute cut-off calls the 1e-13 quartic
            # inapplicable: reported in its own count, kept in the workload
            if label == "btype-tiny" and out[1].startswith("inapplicable"):
                return KNOWN_DEFECT
            return FAIL
        outcome, value = out
        key = f"outcome.{value if outcome == 'raised' else outcome}"
        stats[key] = stats.get(key, 0) + 1
        if kind == "blowup":
            return PASS if outcome == "raised" else FAIL
        if outcome != "returned":
            return FAIL
        T, (xe, ye) = value
        x0 = float(r0)
        if kind == "center":
            period_error = abs(T - TWO_PI)
            closure = math.hypot(xe - x0, ye)
            stats["max_period_error"] = max(stats.get("max_period_error", 0.0), period_error)
            stats["max_closure_defect"] = max(stats.get("max_closure_defect", 0.0), closure)
            return PASS if period_error < 1e-7 and closure < 1e-6 else FAIL
        growth = math.hypot(xe, ye) - x0
        if abs(growth) < 1e-9:
            return INCONCLUSIVE
        sign = oracle.first_nonzero(v)[1]
        return PASS if (growth > 0) == (sign == "positive") else FAIL


# ----------------------------------------------------------------------

FAMILY = "a,b,c,d,e,f,g,h"
CASE_II_DOC = '{"family": "quintic-uic", "b": "b", "e": "e", "g": "g"}\n'
CASE_II_PARTNER = ('{"p": "x*((e - g) + (e*x^2 + g*y^2)*(b + e*x^2 + g*y^2))", '
                   '"q": "y*((e - g) + (e*x^2 + g*y^2)*(b + e*x^2 + g*y^2))"}\n')

# label -> argv after `python -m isoquintic.cli`; CSV goes to out.csv
CLI_ARGV = {
    "classify-center": ["classify", "--family", "0,1,0,0,2,0,3,0"],
    "classify-focus": ["classify", "--family", "1,0,0,0,0,0,0,0"],
    "plconst-m2": ["plconst", "--family", FAMILY, "-m", "2"],
    "plconst-m4": ["plconst", "--family", FAMILY, "-m", "4"],
    "plconst-m2-json": ["plconst", "--json", "--family", FAMILY, "-m", "2"],
    "plconst-m4-json": ["plconst", "--json", "--family", FAMILY, "-m", "4"],
    "verify-commute": ["verify", "commute", "--system", "sys.json",
                       "--other", "partner.json"],
    "verify-invariant": ["verify", "invariant", "--family", FAMILY,
                         "--curve", "x^2 + y^2"],
    "verify-integral": ["verify", "integral", "--family", "1,0,-1,0,0,0,0,0",
                        "--num", "x^2 + y^2", "--den", "1 - 2*x*y"],
    "verify-reversible": ["verify", "reversible", "--family", "0,1,0,0,1,0,-1,0",
                          "--line", "0,1"],
    "verify-form1": ["verify", "form1", "--family", FAMILY],
    "orbit": ["orbit", "--family", "0,1,0,0,1,0,-1,0", "--x0", "0.3", "--y0", "0",
              "--out", "out.csv"],
    "boundary": ["boundary", "--params", "0,1,-1,0", "--out", "out.csv"],
}


def cli_workdir(root):
    """The working directory of the CLI requests, with their system documents."""
    workdir = os.path.join(root, ".bench_out", "cli")
    os.makedirs(workdir, exist_ok=True)
    for name, text in (("sys.json", CASE_II_DOC), ("partner.json", CASE_II_PARTNER)):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return workdir


class CliOneshot(Workload):
    """Sequential `python -m isoquintic.cli` processes over a fixed argv list."""

    name = "cli-oneshot"
    imports = ("isoquintic.cli",)

    def __init__(self):
        self.ref = oracle.load_reference()["cli"]
        self.trace_stem = None
        self.cycle = len(CLI_ARGV)

    def load(self, root):
        ctx = super().load(root)
        ctx.workdir = cli_workdir(root)
        ctx.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        ctx.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
        ctx.count = 0
        return ctx

    def items(self, seed):
        labels = _cycles(random.Random(f"{self.name}:{seed}"), sorted(CLI_ARGV))
        return ((label,) for label in labels)

    def run(self, ctx, item):
        argv = CLI_ARGV[item[0]]
        csv = os.path.join(ctx.workdir, "out.csv")
        if os.path.exists(csv):
            os.remove(csv)
        if self.trace_stem is None:
            cmd = [sys.executable, "-m", "isoquintic.cli", *argv]
        else:
            ctx.count += 1
            stem = f"{self.trace_stem}-child{ctx.count}"
            cmd = [sys.executable, ctx.child, "cli-child", stem, str(ctx.count), *argv]
        proc = subprocess.run(cmd, cwd=ctx.workdir, env=ctx.env,
                              capture_output=True, timeout=60)
        return proc, csv

    def check(self, item, out, stats):
        proc, csv = out
        want = self.ref[item[0]]
        ok = (proc.returncode == want["exit"]
              and oracle.sha256(proc.stdout) == want["stdout_sha256"])
        if want.get("csv_sha256"):
            with open(csv, "rb") as fh:
                ok = ok and oracle.sha256(fh.read()) == want["csv_sha256"]
        return PASS if ok else FAIL


WORKLOADS = {w.name: w for w in (ClassifySweep, SymbolicCertify, OrbitSweep,
                                 CliOneshot)}
