"""The uniformly isochronous quintic family and its three center cases.

The family is dx/dt = y + x*P, dy/dt = -x + y*P with
P = a x^2 + b x y + c y^2 + d x^4 + e x^3 y + f x^2 y^2 + g x y^3 + h y^4.

`QuinticParams` checks a..h once, on construction: each is a Fraction or a
Poly in parameters other than x and y.  `family_forms` states the family
once, as the binary forms of p and q; `build_system` is their Poly system.
`classify` decides a numeric point from R = `reduced_conditions` alone, and
solves no Lyapunov stage.  Each center case has one partner factor Q
(`_partner_factor`): its commuting partner is (x Q, y Q), and Q is the
denominator of its rational first integral, or C2 of its Darboux integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .qpoly import Poly, RationalFunction, as_poly, divide_exact, form_poly
from .lyapunov import PlanarSystem, check_count, first_nonzero_numerator

PARAM_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")

X = Poly.var("x")
Y = Poly.var("y")


class QuinticError(Exception):
    pass


def _coefficient(value):
    """A parameter as a Fraction, or a Poly in symbols other than x and y."""
    value = as_poly(value)
    names = value.variables()
    if names & {"x", "y"}:
        raise QuinticError(f"parameter {value} uses the variables x, y")
    return value if names else value.constant_value()


@dataclass(frozen=True)
class QuinticParams:
    """Coefficients a..h, given as numbers, symbol names or Polys, and each
    stored as a Fraction or a Poly free of x and y (else QuinticError)."""

    a: object
    b: object
    c: object
    d: object
    e: object
    f: object
    g: object
    h: object

    def __post_init__(self):
        for n in PARAM_NAMES:
            v = getattr(self, n)
            if not isinstance(v, Fraction):
                object.__setattr__(self, n, _coefficient(v))

    @classmethod
    def symbolic(cls):
        return cls(*PARAM_NAMES)

    @classmethod
    def numeric(cls, *values):
        return cls(*(Fraction(v) for v in values))

    @property
    def is_numeric(self):
        return not any(isinstance(getattr(self, n), Poly) for n in PARAM_NAMES)

    def require_numeric(self):
        if not self.is_numeric:
            raise QuinticError("parameters are not fully numeric")


class CaseTag(Enum):
    CASE_I = "i"
    CASE_II = "ii"
    CASE_III = "iii"


@dataclass(frozen=True)
class CenterCase:
    tag: CaseTag


def family_forms(params):
    """p and q of the family as binary forms, by degree (see `Poly.forms`):
    x P and y P shift the coefficients of P's quadratic and quartic forms.
    These lists fix the term order of `build_system`, so the order in which
    orbits.compile_rhs sums the right-hand side."""
    a, b, c, d, e, f, g, h = (getattr(params, n) for n in PARAM_NAMES)
    return ({1: [0, 1], 3: [a, b, c, 0], 5: [d, e, f, g, h, 0]},
            {1: [-1, 0], 3: [0, a, b, c], 5: [0, d, e, f, g, h]})


def build_system(params):
    return PlanarSystem(*(sum(map(form_poly, forms.values()), Poly.zero())
                          for forms in family_forms(params)))


def _conditions(p):
    """R_1, ..., R_4 in turn, on Poly or Fraction parameters alike."""
    yield p.a + p.c
    yield 3 * p.d + p.f + 3 * p.h
    yield 3 * p.c * p.e - p.b * p.f + 3 * p.c * p.g - 6 * p.b * p.h
    yield 2 * p.c ** 2 * p.f - 3 * p.b * p.c * p.g + 3 * p.b ** 2 * p.h


def reduced_conditions(params):
    """R_1..R_4 as Polys: R = 0 exactly when D1 = ... = D4 = 0."""
    return [as_poly(r) for r in _conditions(params)]


@dataclass(frozen=True)
class Classification:
    kind: str  # "center" | "focus" | "undetermined"
    case: CenterCase | None = None
    focus_index: int | None = None
    focus_sign: str | None = None
    m: int | None = None


def classify(params, m=4):
    """Center case, or index and sign of the first nonzero D_k among
    D_1..D_m, of fully numeric parameters, read from R alone.

    Criterion 2 proves that the raw stage numerators, over positive
    denominators, are d_1 = 192 R_1, d_2 = 8640 R_2 at c = -a, and, at
    sigma = {c -> -a, f -> -3d - 3h}, d_3 = 38707200 R_3 and d_4 =
    24385536000 R_4 - 36578304000 b R_3.  So the first nonzero R_k is D_k's
    index and sign, and R = 0 is a center: case (iii) if a != 0, (i) if
    b = 0, else (ii).  D_4 is never passed: "undetermined" needs m < 4."""
    check_count(m)
    params.require_numeric()
    hit = first_nonzero_numerator(_conditions(params))
    if hit is None:
        tag = (CaseTag.CASE_III if params.a else
               CaseTag.CASE_II if params.b else CaseTag.CASE_I)
        return Classification("center", case=CenterCase(tag))
    if hit[0] > m:
        return Classification("undetermined", m=m)
    return Classification("focus", focus_index=hit[0], focus_sign=hit[1])


def theorem_case(params):
    """The center case of fully numeric parameters, or None (see
    `classify`).  A point of both (i) and (ii), a = b = c = d = f = h = 0,
    is reported as (i), the first match in the order (i), (ii), (iii)."""
    return classify(params).case


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
# the form P = ell (beta + u) of cases (ii) and (iii), partners and integrals

@dataclass(frozen=True)
class CanonicalForm:
    """P = ell (beta + u) with u a quadratic form, y u_x - x u_y =
    2 ell shift for a shift free of x and y, and r = b x^2 - 2 a x y, so
    that y r_x - x r_y = 2 beta ell."""
    ell: Poly
    beta: Fraction | Poly
    u: Poly
    shift: Poly
    r: Poly


def rotate_to_canonical(params):
    """The exact form P = ell (beta + u) of a case (ii) or (iii) system.

    Case (ii) has ell = x y, beta = b and u = e x^2 + g y^2.  Case (iii) has
    ell = a x^2 + b x y - a y^2, beta = 1 and u = P4 / ell, so it is case
    (ii) rotated, with every rotation-invariant piece rational.  Its shift is
    (b d - a e) / (2 a^3), and u is indefinite exactly when the rotated e1
    and g1 have opposite signs.  Raises QuinticError when P has no such form.
    """
    a, b, c = params.a, params.b, params.c
    if a + c:
        raise QuinticError("the form P = ell (beta + u) needs c = -a")
    if a:
        ell, beta = form_poly([a, b, c]), Fraction(1)
    else:
        ell, beta = X * Y, b
    u = divide_exact(form_poly([params.d, params.e, params.f, params.g,
                                params.h]), ell)
    if u is None:
        raise QuinticError(f"the quartic part of P is no multiple of {ell}")
    shift = divide_exact(Y * u.diff("x") - X * u.diff("y"), 2 * ell)
    if shift is None:
        raise QuinticError("y u_x - x u_y is no multiple of 2 ell")
    return CanonicalForm(ell, beta, u, shift, b * X ** 2 - 2 * a * X * Y)


def case_i_quartic(d, e, g, h):
    """The coefficient list of R = e x^4 - 4 d x^3 y + 4 h x y^3 - g y^4,
    exact or float as d, e, g, h are."""
    return [e, -4 * d, 0, 4 * h, -g]


def _partner_factor(params, case):
    """Q of a center case, and the form P = ell (beta + u) it came from or
    None: Q = 1 + R in case (i) and in case (ii) with b = 0, Q = 1 + r when
    u = 0, and Q = C2 = shift + beta u + u^2 otherwise."""
    if case.tag is CaseTag.CASE_I or (case.tag is CaseTag.CASE_II
                                      and not params.b):
        return 1 + form_poly(case_i_quartic(params.d, params.e, params.g,
                                            params.h)), None
    form = rotate_to_canonical(params)
    if not form.u:
        return 1 + form.r, form
    return form.shift + form.beta * form.u + form.u ** 2, form


def commuting_partner(params, case):
    """A transversal polynomial system (x Q, y Q) commuting with the center
    system, Q of `_partner_factor`."""
    Q, _ = _partner_factor(params, case)
    return PlanarSystem(X * Q, Y * Q)


@dataclass(frozen=True)
class FirstIntegralSpec:
    kind: str  # "rational" | "darboux-exp"
    payload: object

    def eval_float(self, x, y):
        if self.kind == "rational":
            return self.payload.eval_float({"x": x, "y": y})
        return self.payload.eval_float(x, y)


def first_integral(params, case):
    """A certified first integral for the given center case, on Q of
    `_partner_factor`: (x^2 + y^2)^2 / Q with Q = 1 + R, (x^2 + y^2) / Q
    with Q = 1 + r when u = 0, and otherwise the Darboux integral of
    `structure.form_candidate`, whose C2 is Q and whose certified candidate
    is the payload.
    """
    from . import structure

    sysm = build_system(params)
    den, form = _partner_factor(params, case)
    if form is None:
        num = (X ** 2 + Y ** 2) ** 2
    elif not form.u:
        num = X ** 2 + Y ** 2
    else:
        cand = structure.form_candidate(form.ell, form.u, form.shift,
                                        form.beta, form.r)
        verdict = structure.verify_darboux_integral(sysm, cand)
        if not verdict.certified:
            raise QuinticError(f"certificate failed: {verdict.residual}")
        return FirstIntegralSpec("darboux-exp", cand)
    res = structure.rational_integral_residual(sysm, num, den)
    if not res.is_zero:
        raise QuinticError(f"integral certificate failed: residual {res}")
    return FirstIntegralSpec("rational", RationalFunction(num, den))
