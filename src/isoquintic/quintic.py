"""The uniformly isochronous quintic family and its three center cases.

The family is dx/dt = y + x*P, dy/dt = -x + y*P with
P = a x^2 + b x y + c y^2 + d x^4 + e x^3 y + f x^2 y^2 + g x y^3 + h y^4.

`family_forms` states the family once, as the binary forms of p and q;
`build_system` is their Poly system.  `classify` runs the Lyapunov stages on
the forms of a numeric point directly and stops at the first nonzero D_k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .qpoly import (Poly, RationalFunction, as_poly, form_poly, substitute_form,
                    to_float)
from .lyapunov import (PlanarSystem, check_count, first_nonzero_numerator,
                       stage_constants)

PARAM_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")

X = Poly.var("x")
Y = Poly.var("y")


class QuinticError(Exception):
    pass


class NoSymbolicPartner(QuinticError):
    """Case (iii) with d or e nonzero has no known polynomial partner."""


@dataclass(frozen=True)
class QuinticParams:
    """Coefficients a..h; each an exact rational or a symbol name."""

    a: object
    b: object
    c: object
    d: object
    e: object
    f: object
    g: object
    h: object

    @classmethod
    def symbolic(cls):
        return cls(*PARAM_NAMES)

    @classmethod
    def numeric(cls, *values):
        return cls(*(Fraction(v) for v in values))

    def polys(self):
        return {n: as_poly(getattr(self, n)) for n in PARAM_NAMES}

    @property
    def is_numeric(self):
        for n in PARAM_NAMES:
            v = getattr(self, n)
            if isinstance(v, str) or (isinstance(v, Poly) and v.variables()):
                return False
        return True

    def fractions(self):
        if not self.is_numeric:
            raise QuinticError("parameters are not fully numeric")
        out = {}
        for n in PARAM_NAMES:
            v = getattr(self, n)
            out[n] = v.constant_value() if isinstance(v, Poly) else Fraction(v)
        return out


class CaseTag(Enum):
    CASE_I = "i"
    CASE_II = "ii"
    CASE_III = "iii"


@dataclass(frozen=True)
class CenterCase:
    tag: CaseTag


# the monomials of P that a, ..., h multiply
RADIAL_MONOMIALS = (X ** 2, X * Y, Y ** 2, X ** 4, X ** 3 * Y, X ** 2 * Y ** 2,
                    X * Y ** 3, Y ** 4)


def radial_factor(params):
    """The polynomial P multiplying (x, y) in the family."""
    p = params.polys()
    return sum((p[n] * mono for n, mono in zip(PARAM_NAMES, RADIAL_MONOMIALS)),
               Poly.zero())


def _coefficient(value):
    """A parameter as a form coefficient: a number, or a Poly in symbols
    other than x and y."""
    if isinstance(value, (int, Fraction)):
        return value
    value = as_poly(value)
    names = value.variables()
    if names & {"x", "y"}:
        raise QuinticError(f"parameter {value} uses the variables x, y")
    return value if names else value.constant_value()


def family_forms(params):
    """p and q of the family as binary forms, by degree (see `Poly.forms`):
    x P and y P shift the coefficients of P's quadratic and quartic forms.
    These lists fix the term order of `build_system`, so the order in which
    orbits.compile_rhs sums the right-hand side."""
    a, b, c, d, e, f, g, h = (_coefficient(getattr(params, n))
                              for n in PARAM_NAMES)
    return ({1: [0, 1], 3: [a, b, c, 0], 5: [d, e, f, g, h, 0]},
            {1: [-1, 0], 3: [0, a, b, c], 5: [0, d, e, f, g, h]})


def build_system(params):
    return PlanarSystem(*(sum(map(form_poly, forms.values()), Poly.zero())
                          for forms in family_forms(params)))


def reduced_conditions(params):
    """The four residual polynomials equivalent to D1 = ... = D4 = 0."""
    p = params.polys()
    a, b, c, d, e, f, g, h = (p[n] for n in PARAM_NAMES)
    return [
        a + c,
        3 * d + f + 3 * h,
        3 * c * e - b * f + 3 * c * g - 6 * b * h,
        2 * c ** 2 * f - 3 * b * c * g + 3 * b ** 2 * h,
    ]


def case_iii_fgh(a, b, d, e):
    """The (f, g, h) forced by case (iii), as exact rationals; needs a != 0."""
    a, b, d, e = (Fraction(v) for v in (a, b, d, e))
    if a == 0:
        raise QuinticError("case (iii) requires a != 0")
    f = 3 * b * (a * e - b * d) / (2 * a ** 2)
    g = (2 * a ** 2 * b * d + (2 * a ** 2 - b ** 2) * (b * d - a * e)) / (2 * a ** 3)
    h = (-2 * a ** 2 * d + b * (b * d - a * e)) / (2 * a ** 2)
    return f, g, h


def theorem_case(params):
    """Match fully numeric parameters against the three center cases.

    The all-zero quartic part satisfies both (i) and (ii); the first match in
    the order (i), (ii), (iii) is reported.
    """
    v = params.fractions()
    a, b, c, d, e, f, g, h = (v[n] for n in PARAM_NAMES)
    if a == b == c == 0 and f == -3 * (d + h):
        return CenterCase(CaseTag.CASE_I)
    if a == c == d == f == h == 0:
        return CenterCase(CaseTag.CASE_II)
    if a != 0 and c == -a and (f, g, h) == case_iii_fgh(a, b, d, e):
        return CenterCase(CaseTag.CASE_III)
    return None


@dataclass(frozen=True)
class Classification:
    kind: str  # "center" | "focus" | "undetermined"
    case: CenterCase | None = None
    focus_index: int | None = None
    focus_sign: str | None = None
    m: int | None = None


def classify(params, m=4):
    """A center case, or the index and sign of the first nonzero D_k among
    D_1..D_m: the stages stop at that D_k."""
    check_count(m)
    case = theorem_case(params)
    if case is not None:
        return Classification("center", case=case)
    constants = itertools.islice(stage_constants(*family_forms(params)), m)
    hit = first_nonzero_numerator(d for d, _, _ in constants)
    if hit is None:
        return Classification("undetermined", m=m)
    return Classification("focus", focus_index=hit[0], focus_sign=hit[1])


# ----------------------------------------------------------------------
# substitutions realizing the three cases on symbolic Lyapunov constants

def case_substitution(tag):
    """Bindings that impose a center case on a polynomial in a..h.

    Case (iii) writes d = a^3 u and e = a^3 v in two new symbols u, v, which
    clears every power of 1/a from its f, g and h.  For a != 0 the map
    (u, v) -> (d, e) is onto, so a polynomial vanishes on case (iii) exactly
    when it vanishes under these bindings.
    """
    a, b, d, h = (Poly.var(n) for n in ("a", "b", "d", "h"))
    if tag is CaseTag.CASE_I:
        return {"a": 0, "b": 0, "c": 0, "f": -3 * (d + h)}
    if tag is CaseTag.CASE_II:
        return {"a": 0, "c": 0, "d": 0, "f": 0, "h": 0}
    u, v = Poly.var("u"), Poly.var("v")
    w = b * u - a * v  # (b d - a e) / a^3
    return {
        "c": -a,
        "d": a ** 3 * u,
        "e": a ** 3 * v,
        "f": Fraction(-3, 2) * a * b * w,
        "g": Fraction(1, 2) * (2 * a ** 2 * b * u + (2 * a ** 2 - b ** 2) * w),
        "h": Fraction(1, 2) * a * (-2 * a ** 2 * u + b * w),
    }


def vanishes_under_case(poly, tag):
    """Is `poly` identically zero after imposing the case conditions?"""
    return poly.subs(case_substitution(tag)).is_zero


# ----------------------------------------------------------------------
# commuting partners and first integrals

def _partner_factor(p, tag):
    """R with radial partner (x (1 + R), y (1 + R)) and first integral
    (x^2 + y^2)^k / (1 + R): the quartic of case (i) (k = 2), or the quadratic
    of case (iii)'s cubic subfamily d = e = 0 (k = 1).  None for case (iii)
    with d or e nonzero, which has no known polynomial partner."""
    if tag is CaseTag.CASE_I:
        return (p["e"] * X ** 4 - 4 * p["d"] * X ** 3 * Y
                + 4 * p["h"] * X * Y ** 3 - p["g"] * Y ** 4)
    if p["d"].is_zero and p["e"].is_zero:
        return p["b"] * X ** 2 - 2 * p["a"] * X * Y
    return None


def commuting_partner(params, case):
    """A transversal polynomial system commuting with the center system."""
    p = params.polys()
    if case.tag is CaseTag.CASE_II:
        u = p["e"] * X ** 2 + p["g"] * Y ** 2
        Q = (p["e"] - p["g"]) + u * (p["b"] + u)
        return PlanarSystem(X * Q, Y * Q)
    R = _partner_factor(p, case.tag)
    if R is None:
        raise NoSymbolicPartner(
            "case (iii) with d or e nonzero: rotate to canonical form instead")
    Q = 1 + R
    return PlanarSystem(X * Q, Y * Q)


@dataclass(frozen=True)
class FirstIntegralSpec:
    kind: str  # "rational" | "darboux-exp" | "numeric-only"
    payload: object

    def eval_float(self, x, y):
        if self.kind == "rational":
            return self.payload.eval_float({"x": x, "y": y})
        if self.kind == "darboux-exp":
            return self.payload.eval_float(x, y)
        raise QuinticError("numeric-only integral has no closed-form evaluator")


@dataclass(frozen=True)
class RotationData:
    b1: float
    e1: float
    g1: float
    phi: float
    residual: float


def first_integral(params, case):
    """A certified first integral for the given center case.

    Case (ii), P = x y (b + e x^2 + g y^2), gets the Darboux integral of
    `structure.darboux_candidate` for every b, or of
    `darboux_candidate_equal` when e = g is a nonzero number; the payload
    is the certified candidate.  With b = 0 it is the case (i) system with
    d = h = 0 and gets that rational integral.  Case (iii) with d or e
    nonzero is numeric-only (rotation data).
    """
    from . import structure

    p = params.polys()
    sysm = build_system(params)
    tag = case.tag
    if tag is CaseTag.CASE_II and params.b == 0:
        tag = CaseTag.CASE_I

    if tag is CaseTag.CASE_II:
        b, e, g = (_coefficient(getattr(params, n)) for n in "beg")
        if e == g:
            if isinstance(e, Poly) or e == 0:
                raise QuinticError("e = g variant needs a nonzero numeric e")
            cand = structure.darboux_candidate_equal(e, b)
        else:
            cand = structure.darboux_candidate(e, g, b)
        verdict = structure.verify_darboux_integral(sysm, cand)
        if not verdict.certified:
            raise QuinticError(f"certificate failed: {verdict.residual}")
        return FirstIntegralSpec("darboux-exp", cand)

    R = _partner_factor(p, tag)
    if R is None:
        return FirstIntegralSpec("numeric-only", rotate_to_canonical(params))
    num = X ** 2 + Y ** 2 if tag is CaseTag.CASE_III else (X ** 2 + Y ** 2) ** 2
    den = 1 + R
    res = structure.rational_integral_residual(sysm, num, den)
    if not res.is_zero:
        raise QuinticError(f"integral certificate failed: residual {res}")
    return FirstIntegralSpec("rational", RationalFunction(num, den))


# ----------------------------------------------------------------------
# case (iii) rotation

def rotate_to_canonical(params):
    """Numerically rotate a case (iii) system onto the form with radial part
    x y (b1 + e1 x^2 + g1 y^2).

    The angle solves a tan^2(phi) + b tan(phi) - a = 0; the root
    (-b + sqrt(b^2 + 4 a^2)) / (2a) is chosen for determinism.  The residual
    is the largest rotated coefficient that ought to vanish.
    """
    v = params.fractions()
    a, b = to_float(v["a"]), to_float(v["b"])
    if a == 0:
        raise QuinticError("rotation requires a != 0")
    tan_phi = (-b + math.sqrt(b * b + 4 * a * a)) / (2 * a)
    phi = math.atan(tan_phi)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    lx, ly = [cos_phi, sin_phi], [-sin_phi, cos_phi]

    quad = substitute_form([to_float(v[n]) for n in "abc"], lx, ly)
    quart = substitute_form([to_float(v[n]) for n in "defgh"], lx, ly)
    residual = max(abs(c) for c in (quad[0], quad[2], *quart[::2]))
    return RotationData(quad[1], quart[1], quart[3], phi, residual)
