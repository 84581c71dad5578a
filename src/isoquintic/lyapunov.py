"""Symbolic Lyapunov constants for planar systems with linear part (y, -x).

The comparison function F = (x^2+y^2)/2 + f_3 + f_4 + ... is built degree by
degree so that dF/dt = D_1 (x^4+y^4) + D_2 (x^6+y^6) + ...; the D_i are the
constants returned here, as exact polynomials in the system parameters.

Each homogeneous part is kept as its list of coefficients of x^(k-i) y^i:
integer numerators over one denominator per form, in one stage loop for
numeric and symbolic systems (ints, or integer-coefficient parameter Polys).
Derivatives are index shifts and products are convolutions.  Each stage
solves L f = r for one homogeneous f, where L f = y f_x - x f_y is the action
of the linear rotation field.  L only couples neighbouring coefficients, so
two short recurrences solve it exactly.

`stage_constants` is that loop, as a generator of integer numerators over
positive denominators, with the f_k solved so far; it runs only as far as it
is read.  `pl_constants`, its one reader, reports the first m constants
alone, with Fraction coefficients.  It, `first_nonzero` and
`quintic.classify` (which reads R, not D) take the first nonzero index and
sign from `first_nonzero_numerator`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import floordiv

from .qpoly import Poly, as_poly, convolve, form_poly

CAP = 6


class LyapunovError(Exception):
    pass


@dataclass(frozen=True)
class PlanarSystem:
    """The vector field (p, q) of dx/dt = p, dy/dt = q."""

    p: Poly
    q: Poly


def check_linear_center(sys):
    """Require linear part exactly (y, -x) and no constant terms.

    Returns the homogeneous parts of p and q as coefficient lists.
    """
    p, q = sys.p.forms(), sys.q.forms()
    if 0 in p or 0 in q:
        raise LyapunovError("system has a constant term")
    if p.get(1, [0, 0]) != [0, 1]:
        raise LyapunovError("linear part of p must be exactly y")
    if q.get(1, [0, 0]) != [-1, 0]:
        raise LyapunovError("linear part of q must be exactly -x")
    return p, q


def check_count(m):
    """Require 1 <= m <= CAP constants."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > CAP:
        raise LyapunovError(f"requested {m} constants exceeds the cap {CAP}")


@dataclass(frozen=True)
class LyapunovReport:
    constants: list  # canonical (integer-primitive, sign preserved)
    raw: list        # as produced by the stage solves
    first_nonzero_index: int | None = None
    sign: str | None = None


def _poly_numbers(entries):
    """The numbers in a list of numbers and parameter Polys."""
    return (v for c in entries
            for v in (c.terms.values() if isinstance(c, Poly) else (c,)))


def _solve_stage(r, k, div=floordiv):
    """The degree-k f with L f = r, both as coefficients of x^(k-i) y^i.

    Row i reads (k-i+1) f_(i-1) - (i+1) f_(i+1) = r_i.  The even rows give
    the odd coefficients forward from f_(-1) = 0, the odd rows the even ones
    backward from f_(k+1) = 0.  For even k the last even row is left out (the
    caller makes r average to zero, which satisfies it) and f_k stays 0.
    On integer entries scaled by `_exact_scale(k)`, div = floordiv is exact.
    """
    f = [0] * (k + 2)  # f[k + 1] is f_(k+1) and, as f[-1], f_(-1)
    for i in range(0, k, 2):
        f[i + 1] = div((k - i + 1) * f[i - 1] - r[i], i + 1)
    for i in reversed(range(1, k + 1, 2)):
        f[i - 1] = div(r[i] + (i + 1) * f[i + 1], k - i + 1)
    return f[:k + 1]


def _circle_average(r, k, div=floordiv):
    """Circle average of sum r_i x^(k-i) y^i over that of x^k + y^k, k even.

    The averages of cos^(k-i) sin^i, i even, are in the ratio of the
    integers w_i, with w_0 = w_k = (k-1)!! and w_(i+2) = w_i (i+1)/(k-i-1);
    x^k + y^k has 2 w_0 on that scale.
    """
    w0 = w = math.prod(range(1, k, 2))
    total = 0
    for i in range(0, k, 2):
        total = total + w * r[i]
        w = w * (i + 1) // (k - i - 1)
    return div(total + w * r[k], 2 * w0)


def _exact_scale(k):
    """A factor that makes every quotient of _solve_stage(., k) on integers
    exact, and for even k those of _circle_average before it."""
    forward = math.prod(range(1, k + 1, 2))  # the divisors i + 1
    scale = math.lcm(forward, math.prod(range(k, 0, -2)))  # and k - i + 1
    return scale if k % 2 else 2 * forward * scale  # 2 w_0 = 2 (k-1)!!


def _stage_known(f, p, q, deg):
    """Degree-`deg` part of dF/dt = F_x p + F_y q over the known f_i, i < deg."""
    total = [0] * (deg + 1)
    for i, fi in f.items():
        j = deg + 1 - i
        if j in p:  # d/dx: x^(i-t) y^t -> (i-t) x^(i-1-t) y^t
            convolve(total, [(i - t) * fi[t] for t in range(i)], p[j])
        if j in q:  # d/dy: x^(i-t) y^t -> t x^(i-t) y^(t-1)
            convolve(total, [(t + 1) * fi[t + 1] for t in range(i)], q[j])
    return total


def stage_constants(p, q):
    """Yield D_1, D_2, ... of the system with forms p, q (as returned by
    `check_linear_center`), each as (d, e, f): D_k = d / e with e > 0 and d
    an int or an integer-coefficient Poly, and f the f_2..f_(2k+2) solved so
    far, each as (coefficient list, denominator).  The stages run only as
    far as the consumer reads.

    Odd stage k: solve L(f_k) = -(known terms) so the degree-k part of dF/dt
    vanishes.  Even stage K = k+1: D is fixed by the circle average, then
    L(f_K) = D (x^K + y^K) - (known terms), with a zero y^K coefficient in f_K.

    Numeric and symbolic systems run one integer loop: p and q over one
    denominator s, each f_k over its own, with int or integer-Poly entries.
    A known part is scaled by `_exact_scale`, so the recurrences divide
    exactly with //, and each stage ends with one gcd over its coefficients.
    """
    entries = [c for form in (*p.values(), *q.values()) for c in form]
    s = math.lcm(*(c.denominator for c in _poly_numbers(entries)))
    # c * s is an integer, or has integer coefficients: // 1 makes them ints
    p, q = ({k: [c * s // 1 for c in form] for k, form in pq.items()}
            for pq in (p, q))
    f = {2: ([1, 0, 1], 2)}

    def known_part(deg):
        """The known terms of degree deg, scaled for //, and their
        denominator."""
        e = math.lcm(*(den for _, den in f.values()))
        known = _stage_known({i: fi if den == e else [c * (e // den) for c in fi]
                              for i, (fi, den) in f.items()}, p, q, deg)
        scale = _exact_scale(deg)
        return [c * scale for c in known], e * s * scale

    def solve(r, k, e):
        fk = _solve_stage(r, k)
        g = math.gcd(e, *_poly_numbers(fk))
        f[k] = [c // g for c in fk], e // g

    for k in itertools.count(3, 2):
        # odd stage: kill the degree-k component
        known, e = known_part(k)
        solve([-c for c in known], k, e)

        # even stage: the degree-K component must be D*(x^K + y^K); L f
        # averages to zero over the circle, which fixes D
        K = k + 1
        known, e = known_part(K)
        d = _circle_average(known, K)
        rhs = [-c for c in known]
        rhs[0] = rhs[0] + d  # rhs[K] would get d too, but its row is not read
        solve(rhs, K, e)
        yield d, e, f


def first_nonzero_numerator(numerators):
    """Index (1-based) and sign of the first nonzero of numbers read over
    positive denominators, reading no further; None when all are zero."""
    for i, d in enumerate(numerators, start=1):
        if d:
            return i, ("positive" if d > 0 else "negative")
    return None


def pl_constants(sys, m):
    """Compute the first m Lyapunov constants of `sys`, exactly: the first m
    of `stage_constants`, with Fraction coefficients.  When none of them
    depends on a parameter, the report also names the first nonzero one."""
    check_count(m)
    p, q = check_linear_center(sys)
    raw = [form_poly([d], e)  # D = d / e, a form of degree 0
           for d, e, _ in itertools.islice(stage_constants(p, q), m)]
    index = sign = None
    if not any(d.variables() for d in raw):
        index, sign = first_nonzero_numerator(
            d.constant_value() for d in raw) or (None, None)
    return LyapunovReport([d.canonical() for d in raw], raw, index, sign)


def first_nonzero(report, bindings):
    """Index (1-based) and sign of the first constant not exactly zero."""
    point = {k: as_poly(v).constant_value() for k, v in bindings.items()}
    return first_nonzero_numerator(d.eval_rational(point) for d in report.raw)
