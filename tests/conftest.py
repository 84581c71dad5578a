import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from isoquintic import orbits, qpoly
from isoquintic.qpoly import Poly, divide_exact, parse_expr, substitute_form
from isoquintic.lyapunov import PlanarSystem
from isoquintic.quintic import (PARAM_NAMES, CaseTag, CenterCase,
                                Classification, QuinticError, QuinticParams,
                                case_substitution, reduced_conditions,
                                rotate_to_canonical, theorem_case)


SRC = str(Path(__file__).resolve().parents[1] / "src")

X, Y = Poly.var("x"), Poly.var("y")
ROT = PlanarSystem(Y, -X)  # the linear center

# explicit components with terms outside the family (even degrees, a cubic
# that is not x P, y P), made numeric by its bindings
NUMERIC_DOCUMENT = {
    "p": "y + 3/2*x^2 - x*y + 2*y^3 - 5/3*x^4*y + 7*x^5 + b*x^3",
    "q": "-x + b*x*y - 1/4*y^2 + x^3 + 2/9*x^2*y^3 - 1000000*y^4",
    "bindings": {"b": "-999999/1000000"},
}

# The orbit layer integrates with numpy; the exact layer runs without it, as
# on the requires-python floor, where only pytest and hypothesis are installed.
requires_numpy = pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                                    reason="integrating an orbit needs numpy")


def run_fresh(code, *args):
    """The JSON that `code` prints when run with `args` in a fresh
    interpreter, with src/ on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def clear_product_memo():
    """Empty `qpoly`'s memo of monomial products, as a new process has it."""
    qpoly._PRODUCTS.clear()
    qpoly._PAIRS.clear()


@pytest.fixture
def rng():
    return random.Random(20240824)


@pytest.fixture(scope="session")
def beyond_decimal_emax():
    """10^1000001: beyond the float range, and beyond the default Emax
    999999 of a decimal context."""
    return Fraction(10 ** 1000001)


def random_poly(rnd, vars=("x", "y", "a", "b"), max_terms=5, max_exp=3,
                coeff_range=9):
    terms = {}
    p = Poly.zero()
    for _ in range(rnd.randint(0, max_terms)):
        term = Poly.const(Fraction(rnd.randint(-coeff_range, coeff_range),
                                   rnd.randint(1, 4)))
        for v in vars:
            term = term * Poly.var(v, rnd.randint(0, max_exp))
        p = p + term
    return p


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def polys(draw, vars=("x", "y", "a", "b"), max_terms=4, max_exp=3):
    p = Poly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = Poly.const(draw(coeffs))
        for v in vars:
            term = term * Poly.var(v, draw(st.integers(0, max_exp)))
        p = p + term
    return p


def numeric(**kw):
    """The numeric point of the family with the entries `kw`, 0 elsewhere."""
    params = QuinticParams(**dict.fromkeys(PARAM_NAMES, 0) | kw)
    params.require_numeric()
    return params


def random_point(rnd, height, den):
    """Seeded a..h: numerators in [-height, height], denominators to den."""
    return {n: Fraction(rnd.randint(-height, height), rnd.randint(1, den))
            for n in PARAM_NAMES}


def on_stratum(point, level):
    """The point, a dict of a..h, moved onto the stratum where R_1..R_level
    vanish (R_3 only where a != 0): c = -a, f = -3 (d + h), then e."""
    v = dict(point)
    if level >= 1:
        v["c"] = -v["a"]
    if level >= 2:
        v["f"] = -3 * (v["d"] + v["h"])
    if level >= 3 and v["a"]:
        v["e"] = (v["b"] * v["d"] - v["a"] * v["g"] - v["b"] * v["h"]) / v["a"]
    return v


def first_hit(values):
    """(k, sign) of the first nonzero of `values`, from 1, or (None, None)."""
    return next(((k, "positive" if r > 0 else "negative")
                 for k, r in enumerate(values, start=1) if r), (None, None))


def expected_classification(index, sign, m, tag=None):
    """What `classify(params, m)` owes a point whose first nonzero R_k is
    R_index, of `sign`; for index None, a center of case `tag`.  A focus
    beyond m is "undetermined"."""
    if index is None:
        return Classification("center", case=CenterCase(tag))
    if index > m:
        return Classification("undetermined", m=m)
    return Classification("focus", focus_index=index, focus_sign=sign)


def case_i_point(d, e, g, h):
    """The case (i) point (0, 0, 0, d, e, -3 (d + h), g, h)."""
    return QuinticParams.numeric(0, 0, 0, d, e, -3 * (d + h), g, h)


# The case (i) B-types: tag -> (quartic (d, e, g, h), the evidence
# `orbits.center_type` gives it).  B2 and B4 count the maximizers of
# `boundary_curve`, which calls c0 <= 0 inapplicable: Unknown.
CASE_I_BTYPES = {
    "B2": ((0, 1, 1, 0), "maximizers(2)"),
    "B4": ((0, 1, -1, 0), "maximizers(4)"),
    "Unknown": ((0, -1, 1, 0), "inapplicable"),
}


def eg_rule(e, g):
    """The B-type of the case (ii) point (0, b, 0, 0, e, 0, g, 0), b != 0,
    and of its rotations: B4 iff u = e x^2 + g y^2 is indefinite."""
    return "B4" if e * g < 0 else "B2"


def case_iii_fgh(a, b, d, e):
    """The (f, g, h) forced by case (iii), as exact rationals; needs a != 0.
    With c = -a this is the one zero of R_2, R_3, R_4 in (f, g, h): the
    generator of case (iii) test points."""
    a, b, d, e = (Fraction(v) for v in (a, b, d, e))
    if a == 0:
        raise QuinticError("case (iii) requires a != 0")
    f = 3 * b * (a * e - b * d) / (2 * a ** 2)
    g = (2 * a ** 2 * b * d + (2 * a ** 2 - b ** 2) * (b * d - a * e)) / (2 * a ** 3)
    h = (-2 * a ** 2 * d + b * (b * d - a * e)) / (2 * a ** 2)
    return f, g, h


def case_iii_point(a, b, d, e):
    """The case (iii) point with these a, b, d, e: c = -a, `case_iii_fgh`."""
    return QuinticParams(a, b, -a, d, e, *case_iii_fgh(a, b, d, e))


def b_type(params):
    """`orbits.center_type` of a center, in the case `classify` gives it."""
    return orbits.center_type(params, theorem_case(params))


def scaled_case_iii_system():
    """2 a^3 times the case (iii) system of quintic.case_substitution, with
    its symbols u, v written d, e: no power of 1/a is left."""
    a, b, d, e = (Poly.var(n) for n in "abde")
    quad = a * X ** 2 + b * X * Y - a * Y ** 2
    big = (2 * a ** 3 + 2 * a ** 2 * d * X ** 2 - 2 * a * b * d * X * Y
           + 2 * a ** 2 * e * X * Y + 2 * a ** 2 * d * Y ** 2
           - b ** 2 * d * Y ** 2 + a * b * e * Y ** 2)
    P = quad * big
    return PlanarSystem(2 * a ** 3 * Y + X * P, -2 * a ** 3 * X + Y * P)


# The symbolic components of cases (i) and (ii), each with its partner
# factor Q: the commuting partner is (x Q, y Q), and Q is the denominator of
# the rational integral of case (i), or C2 = shift + b u + u^2 of case (ii).
CASE_I_SYMBOLIC = QuinticParams(0, 0, 0, "d", "e", parse_expr("-3*d - 3*h"),
                                "g", "h")
CASE_I_Q = 1 + parse_expr("e*x^4 - 4*d*x^3*y + 4*h*x*y^3 - g*y^4")
CASE_II_SYMBOLIC = QuinticParams(0, "b", 0, 0, "e", 0, "g", 0)
CASE_II_U = parse_expr("e*x^2 + g*y^2")
CASE_II_Q = parse_expr("e - g") + CASE_II_U * (Poly.var("b") + CASE_II_U)


def case_iii_symbolic(**stratum):
    """Case (iii) as `case_substitution` writes it, in a, b, u and v, with
    `stratum` binding u and v."""
    sub = case_substitution(CaseTag.CASE_III)
    return QuinticParams("a", "b", *(qpoly.as_poly(sub[n]).subs(stratum)
                                     for n in "cdefgh"))


def composes(params):
    """Is P = ell (beta + u) of `rotate_to_canonical` the rate dW/dtheta on
    the unit circle times a function of one periodic W?  With ell =
    A x^2 + B x y - A y^2, W = A x y - (B/4)(x^2 - y^2) has
    y W_x - x W_y = -ell, and u + 2 shift W must be a multiple of
    x^2 + y^2, so that u is affine in W there."""
    form = rotate_to_canonical(params)
    A, B, _ = form.ell.forms()[2]
    W = A * X * Y - Fraction(1, 4) * B * (X ** 2 - Y ** 2)
    level = divide_exact(form.u + 2 * form.shift * W, X ** 2 + Y ** 2)
    return (Y * W.diff("x") - X * W.diff("y") == -form.ell
            and level is not None and not level.variables() & {"x", "y"})


def quartic_mean_is_r2_over_8():
    """Does P4 have mean R_2 / 8 on the circle?  A quartic form is
    c (x^2 + y^2)^2 + (x^2 + y^2) H2 + H4 with H2, H4 harmonic, so its mean
    c is its bilaplacian over 64."""
    def laplacian(p):
        return p.diff("x").diff("x") + p.diff("y").diff("y")

    p4 = qpoly.form_poly([Poly.var(n) for n in "defgh"])
    r2 = reduced_conditions(QuinticParams.symbolic())[1]
    return (laplacian(laplacian((X ** 2 + Y ** 2) ** 2)) == 64
            and laplacian(laplacian(p4)) == 8 * r2)


# the monomials of P that a, ..., h multiply
RADIAL_MONOMIALS = (X ** 2, X * Y, Y ** 2, X ** 4, X ** 3 * Y, X ** 2 * Y ** 2,
                    X * Y ** 3, Y ** 4)


def radial_factor(params):
    """The polynomial P multiplying (x, y) in the family, term by term: the
    reference `quintic.build_system` is checked against."""
    return sum((getattr(params, n) * mono
                for n, mono in zip(PARAM_NAMES, RADIAL_MONOMIALS)), Poly.zero())


def rotate_form(form, k):
    """The coefficient list of F o M for the binary form F with coefficient
    list `form`, where M: x -> c x + s y, y -> -s x + c y with
    c = (1 - k^2) / (1 + k^2) and s = 2k / (1 + k^2): exact for a rational
    k, since (c, s) is then a rational point of the unit circle."""
    k = Fraction(k)
    c, s = (1 - k * k) / (1 + k * k), 2 * k / (1 + k * k)
    return substitute_form(form, [c, s], [-s, c])


def rotate(params, k):
    """The image of a point of the family under the rotation M of
    `rotate_form`.  M commutes with the linear part (y, -x), so P -> P o M,
    one binary form at a time."""
    v = [getattr(params, n) for n in PARAM_NAMES]
    return QuinticParams(*rotate_form(v[:3], k), *rotate_form(v[3:], k))


def turn(rnd):
    """A seeded k = +-p/q for `rotate`, with 1 <= p, q <= 9 and p != q: no
    quarter turn, so c s != 0."""
    while True:
        p, q = rnd.randint(1, 9), rnd.randint(1, 9)
        if p != q:
            return Fraction(rnd.choice((-1, 1)) * p, q)
