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

from isoquintic import qpoly
from isoquintic.qpoly import Poly, substitute_form
from isoquintic.lyapunov import PlanarSystem
from isoquintic.quintic import PARAM_NAMES, QuinticError, QuinticParams


SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def scaled_case_iii_system():
    """2 a^3 times the case (iii) system of quintic.case_substitution, with
    its symbols u, v written d, e: no power of 1/a is left."""
    x, y = Poly.var("x"), Poly.var("y")
    a, b, d, e = (Poly.var(n) for n in "abde")
    quad = a * x ** 2 + b * x * y - a * y ** 2
    big = (2 * a ** 3 + 2 * a ** 2 * d * x ** 2 - 2 * a * b * d * x * y
           + 2 * a ** 2 * e * x * y + 2 * a ** 2 * d * y ** 2
           - b ** 2 * d * y ** 2 + a * b * e * y ** 2)
    P = quad * big
    return PlanarSystem(2 * a ** 3 * y + x * P, -2 * a ** 3 * x + y * P)


X, Y = Poly.var("x"), Poly.var("y")

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
