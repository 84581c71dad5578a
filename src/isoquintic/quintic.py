"""The uniformly isochronous quintic family and its three center cases.

The family is dx/dt = y + x*P, dy/dt = -x + y*P with
P = a x^2 + b x y + c y^2 + d x^4 + e x^3 y + f x^2 y^2 + g x y^3 + h y^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .qpoly import Poly, RationalFunction, as_poly
from .lyapunov import PlanarSystem, pl_constants

PARAM_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")

X = Poly.var("x")
Y = Poly.var("y")

# auxiliary symbol standing for 1/a in field-of-fractions certificates
A_INV = "ainv"


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
    witness: tuple | None = None  # for case (iii): the derived (f, g, h)


def radial_factor(params):
    """The polynomial P multiplying (x, y) in the family."""
    p = params.polys()
    return (p["a"] * X ** 2 + p["b"] * X * Y + p["c"] * Y ** 2
            + p["d"] * X ** 4 + p["e"] * X ** 3 * Y + p["f"] * X ** 2 * Y ** 2
            + p["g"] * X * Y ** 3 + p["h"] * Y ** 4)


def build_system(params):
    P = radial_factor(params)
    return PlanarSystem(Y + X * P, -X + Y * P)


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
    if a != 0 and c == -a:
        fw, gw, hw = case_iii_fgh(a, b, d, e)
        if (f, g, h) == (fw, gw, hw):
            return CenterCase(CaseTag.CASE_III, witness=(fw, gw, hw))
    return None


@dataclass(frozen=True)
class Classification:
    kind: str  # "center" | "focus" | "undetermined"
    case: CenterCase | None = None
    focus_index: int | None = None
    focus_sign: str | None = None
    m: int | None = None


def classify(params, m=4):
    case = theorem_case(params)
    if case is not None:
        return Classification("center", case=case)
    report = pl_constants(build_system(params), m)
    if report.first_nonzero_index is None:
        return Classification("undetermined", m=m)
    return Classification("focus", focus_index=report.first_nonzero_index,
                          focus_sign=report.sign)


# ----------------------------------------------------------------------
# substitutions realizing the three cases on symbolic Lyapunov constants

def case_substitution(tag):
    """Bindings that impose a center case on a polynomial in a..h.

    Case (iii) works over the field of fractions with `a` invertible: the
    symbol `ainv` stands for 1/a, and results must be reduced with
    Poly.reduce_inverse_pairs("a", "ainv") before testing for zero.
    """
    a, b, d, e = (Poly.var(n) for n in ("a", "b", "d", "e"))
    if tag is CaseTag.CASE_I:
        return {"a": 0, "b": 0, "c": 0,
                "f": -3 * (Poly.var("d") + Poly.var("h"))}
    if tag is CaseTag.CASE_II:
        return {"a": 0, "c": 0, "d": 0, "f": 0, "h": 0}
    ai = Poly.var(A_INV)
    bd_ae = b * d - a * e
    return {
        "c": -a,
        "f": Fraction(-3, 2) * b * bd_ae * ai ** 2,
        "g": Fraction(1, 2) * (2 * a ** 2 * b * d
                               + (2 * a ** 2 - b ** 2) * bd_ae) * ai ** 3,
        "h": Fraction(1, 2) * (-2 * a ** 2 * d + b * bd_ae) * ai ** 2,
    }


def vanishes_under_case(poly, tag):
    """Is `poly` identically zero after imposing the case conditions?"""
    reduced = poly.subs(case_substitution(tag))
    if tag is CaseTag.CASE_III:
        reduced = reduced.reduce_inverse_pairs("a", A_INV)
    return reduced.is_zero


# ----------------------------------------------------------------------
# commuting partners and first integrals

def commuting_partner(params, case):
    """A transversal polynomial system commuting with the center system."""
    p = params.polys()
    a, b, d, e, g, h = (p[n] for n in ("a", "b", "d", "e", "g", "h"))
    if case.tag is CaseTag.CASE_I:
        q4 = e * X ** 4 - 4 * d * X ** 3 * Y + 4 * h * X * Y ** 3 - g * Y ** 4
        return PlanarSystem(X * (1 + q4), Y * (1 + q4))
    if case.tag is CaseTag.CASE_II:
        u = e * X ** 2 + g * Y ** 2
        Q = (e - g) + u * (b + u)
        return PlanarSystem(X * Q, Y * Q)
    # case (iii): only the cubic subfamily d = e = 0 has a polynomial partner
    if p["d"].is_zero and p["e"].is_zero:
        w = b * X ** 2 - 2 * a * X * Y
        return PlanarSystem(X + X * w, Y + Y * w)
    raise NoSymbolicPartner(
        "case (iii) with d or e nonzero: rotate to canonical form instead")


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
class DarbouxExpIntegral:
    """H = (x^2+y^2)^2 / (C2 * exp(I(u))) for b = 1, or the e = g variant."""

    e: Fraction
    g: Fraction
    equal_variant: bool
    candidate: object  # the certified DarbouxCandidate

    def eval_float(self, x, y):
        from .structure import c3_exponent
        r2 = x * x + y * y
        if self.equal_variant:
            ev = float(self.e)
            return r2 / (1.0 + ev * r2) * math.exp((1.0 + x * x) / (ev * r2))
        ev, gv = float(self.e), float(self.g)
        u = ev * x * x + gv * y * y
        c2 = (ev - gv) + u + u * u
        return r2 * r2 / (c2 * math.exp(c3_exponent(u, ev - gv)))


@dataclass(frozen=True)
class RotationData:
    b1: float
    e1: float
    g1: float
    phi: float
    residual: float


def _certified_rational_integral(sysm, num, den):
    from .structure import rational_integral_residual
    res = rational_integral_residual(sysm, num, den)
    if not res.is_zero:
        raise QuinticError(f"integral certificate failed: residual {res}")
    return FirstIntegralSpec("rational", RationalFunction(num, den))


def first_integral(params, case):
    """A certified first integral for the given center case.

    Case (ii) with numeric b outside {0, 1} is first rescaled to b = 1; the
    returned integral is for the normalized system.  Case (iii) with d or e
    nonzero is numeric-only (rotation data).
    """
    from . import structure

    p = params.polys()
    sysm = build_system(params)
    if case.tag is CaseTag.CASE_I:
        d, e, g, h = (p[n] for n in ("d", "e", "g", "h"))
        den = 1 + e * X ** 4 - 4 * d * X ** 3 * Y + 4 * h * X * Y ** 3 - g * Y ** 4
        return _certified_rational_integral(sysm, (X ** 2 + Y ** 2) ** 2, den)

    if case.tag is CaseTag.CASE_II:
        b, e, g = params.b, params.e, params.g
        if b == 0:
            den = 1 + p["e"] * X ** 4 - p["g"] * Y ** 4
            return _certified_rational_integral(sysm, (X ** 2 + Y ** 2) ** 2, den)
        if b != 1:
            norm, _ = normalize_b(params)
            return first_integral(norm, case)
        if e == g:
            if isinstance(e, str) or e == 0:
                raise QuinticError("e = g variant needs a nonzero numeric e")
            cand = structure.darboux_candidate_equal(Fraction(e))
            verdict = structure.verify_darboux_integral(sysm, cand)
            if verdict.certified:
                return FirstIntegralSpec(
                    "darboux-exp",
                    DarbouxExpIntegral(Fraction(e), Fraction(e), True, cand))
            raise QuinticError(f"certificate failed: {verdict.residual}")
        cand = structure.darboux_candidate(p["e"], p["g"])
        verdict = structure.verify_darboux_integral(sysm, cand)
        if not verdict.certified:
            raise QuinticError(f"certificate failed: {verdict.residual}")
        if params.is_numeric:
            payload = DarbouxExpIntegral(Fraction(e), Fraction(g), False, cand)
        else:
            payload = DarbouxExpIntegral(e, g, False, cand)
        return FirstIntegralSpec("darboux-exp", payload)

    # case (iii)
    if p["d"].is_zero and p["e"].is_zero:
        a, b = p["a"], p["b"]
        den = 1 + b * X ** 2 - 2 * a * X * Y
        return _certified_rational_integral(sysm, X ** 2 + Y ** 2, den)
    rot = rotate_to_canonical(params)
    return FirstIntegralSpec("numeric-only", rot)


# ----------------------------------------------------------------------
# case (ii) normalization and case (iii) rotation

@dataclass(frozen=True)
class BScaling:
    scale: object          # sqrt(|b|), Fraction when exact, else float
    exact: bool
    swapped: bool          # x and y exchanged (b < 0)
    time_reversed: bool


def _exact_sqrt(q):
    q = Fraction(q)
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def normalize_b(params):
    """Rescale a case (ii) system so that b = 1.

    For b > 0 this is x -> x/sqrt(b), y -> y/sqrt(b); for b < 0 the
    substitution additionally swaps the variables and reverses time, which
    flips the signs of the rescaled e and g.
    """
    v = params.fractions()
    b, e, g = v["b"], v["e"], v["g"]
    if b == 0:
        raise QuinticError("b = 0 is already in normalized form")
    if b == 1:
        scaling = BScaling(Fraction(1), True, False, False)
        return params, scaling
    b2 = b ** 2
    if b > 0:
        e1, g1 = e / b2, g / b2
        swapped = reversed_ = False
        root = _exact_sqrt(b)
    else:
        e1, g1 = -g / b2, -e / b2
        swapped = reversed_ = True
        root = _exact_sqrt(-b)
    scale = root if root is not None else math.sqrt(abs(float(b)))
    scaling = BScaling(scale, root is not None, swapped, reversed_)
    new = QuinticParams(0, Fraction(1), 0, 0, e1, 0, g1, 0)
    return new, scaling


def rotate_to_canonical(params):
    """Numerically rotate a case (iii) system onto the form with radial part
    x y (b1 + e1 x^2 + g1 y^2).

    The angle solves a tan^2(phi) + b tan(phi) - a = 0; the root
    (-b + sqrt(b^2 + 4 a^2)) / (2a) is chosen for determinism.  The residual
    is the largest rotated coefficient that ought to vanish.
    """
    v = params.fractions()
    a, b = float(v["a"]), float(v["b"])
    if a == 0:
        raise QuinticError("rotation requires a != 0")
    tan_phi = (-b + math.sqrt(b * b + 4 * a * a)) / (2 * a)
    phi = math.atan(tan_phi)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)

    coeffs = {(2, 0): float(v["a"]), (1, 1): float(v["b"]), (0, 2): float(v["c"]),
              (4, 0): float(v["d"]), (3, 1): float(v["e"]), (2, 2): float(v["f"]),
              (1, 3): float(v["g"]), (0, 4): float(v["h"])}
    rotated = _rotate_xy_coeffs(coeffs, cos_phi, sin_phi)
    b1 = rotated.get((1, 1), 0.0)
    e1 = rotated.get((3, 1), 0.0)
    g1 = rotated.get((1, 3), 0.0)
    residual = max(abs(rotated.get(ij, 0.0))
                   for ij in ((2, 0), (0, 2), (4, 0), (2, 2), (0, 4)))
    return RotationData(b1, e1, g1, phi, residual)


def _rotate_xy_coeffs(coeffs, c, s):
    """Expand R(c x + s y, -s x + c y) for a float coefficient dict."""
    out = {}
    for (i, j), v in coeffs.items():
        part = {(0, 0): v}
        for _ in range(i):
            part = _fmul(part, {(1, 0): c, (0, 1): s})
        for _ in range(j):
            part = _fmul(part, {(1, 0): -s, (0, 1): c})
        for ij, w in part.items():
            out[ij] = out.get(ij, 0.0) + w
    return out


def _fmul(p1, p2):
    out = {}
    for (i1, j1), v1 in p1.items():
        for (i2, j2), v2 in p2.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0.0) + v1 * v2
    return out
