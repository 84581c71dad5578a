"""Exact verifiers: commuting fields, invariant curves, integrating factors,
Darboux first integrals, reversibility, and the constant-angular-speed form.

Every certificate here is a polynomial identity checked in exact rational
arithmetic; exponential invariants are certified at the level of cleared
identities, never by symbolic calculus on exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qpoly import Poly, RationalFunction, as_poly, divide_exact
from .lyapunov import PlanarSystem

X = Poly.var("x")
Y = Poly.var("y")


class StructureError(Exception):
    pass


class NotCommutingError(StructureError):
    pass


class DegeneratePairError(StructureError):
    pass


class DomainError(StructureError):
    pass


def lie_bracket(sys1, sys2):
    """Components of [X1, X2]; both zero iff the flows commute."""
    p, q = sys1.p, sys1.q
    r, s = sys2.p, sys2.q
    first = p * r.diff("x") + q * r.diff("y") - r * p.diff("x") - s * p.diff("y")
    second = p * s.diff("x") + q * s.diff("y") - r * q.diff("x") - s * q.diff("y")
    return first, second


def commutes(sys1, sys2):
    b1, b2 = lie_bracket(sys1, sys2)
    return b1.is_zero and b2.is_zero


def directional_derivative(sys, c):
    return sys.p * c.diff("x") + sys.q * c.diff("y")


def cofactor_of(sys, curve):
    """K with p C_x + q C_y = K C, via exact division, or None."""
    if curve.is_zero:
        raise ValueError("curve must be nonzero")
    return divide_exact(directional_derivative(sys, curve), curve)


def radial_cofactor_theorem_check(R, Q):
    """Residual of the invariance identity for the commuting radial pair.

    With p = y + x R, q = -x + y R and the radial partner (x Q, y Q), the
    curve Q = 0 must be invariant with cofactor x R_x + y R_y.  Returns
    x (Q_x p + Q_y q) - x (x R_x + y R_y) Q, which is zero whenever the pair
    commutes.
    """
    sys1 = PlanarSystem(Y + X * R, -X + Y * R)
    sys2 = PlanarSystem(X * Q, Y * Q)
    if not commutes(sys1, sys2):
        raise NotCommutingError("the radial pair does not commute")
    cof = X * R.diff("x") + Y * R.diff("y")
    return X * directional_derivative(sys1, Q) - X * cof * Q


def integrating_factor_from_pair(sys1, sys2):
    """mu = 1 / (p s - q r) for a commuting pair, with its certificate.

    The divergence identity (p_x + q_y) W = p W_x + q W_y with W = p s - q r
    is checked exactly before returning.
    """
    W = sys1.p * sys2.q - sys1.q * sys2.p
    if W.is_zero:
        raise DegeneratePairError("p s - q r is identically zero")
    if not commutes(sys1, sys2):
        raise NotCommutingError("systems do not commute")
    lhs = (sys1.p.diff("x") + sys1.q.diff("y")) * W
    rhs = sys1.p * W.diff("x") + sys1.q * W.diff("y")
    if lhs != rhs:
        raise StructureError("divergence identity failed for mu = 1/(ps - qr)")
    return RationalFunction(Poly.const(1), W)


def rational_integral_residual(sys, num, den):
    """Cleared dH/dt for H = num/den: p (N_x D - N D_x) + q (N_y D - N D_y)."""
    return (sys.p * (num.diff("x") * den - num * den.diff("x"))
            + sys.q * (num.diff("y") * den - num * den.diff("y")))


# ----------------------------------------------------------------------
# Darboux candidates

@dataclass(frozen=True)
class AlgebraicInvariant:
    curve: Poly
    cofactor: Poly


@dataclass(frozen=True)
class RationalExponent:
    """exp(G) with G = num/den; cleared certificate
    p (N_x D - N D_x) + q (N_y D - N D_y) = K D^2."""
    exponent: RationalFunction
    cofactor: Poly


@dataclass(frozen=True)
class IntegralExponent:
    """exp(integral_0^u dt / (shift + t + t^2)); certificate
    p u_x + q u_y = K (shift + u + u^2)."""
    u: Poly
    shift: Poly  # the value e - g
    cofactor: Poly


@dataclass(frozen=True)
class DarbouxCandidate:
    """Invariants with rational exponents; certified when sum(lambda_i K_i) = 0."""
    algebraic: tuple
    exponential: tuple = ()


@dataclass(frozen=True)
class DarbouxVerdict:
    certified: bool
    residual: Poly | None = None


def verify_darboux_integral(sys, cand):
    """Certify each invariant against `sys`, then the weighted cofactor sum."""
    total = Poly.zero()
    for inv, lam in cand.algebraic:
        res = directional_derivative(sys, inv.curve) - inv.cofactor * inv.curve
        if not res.is_zero:
            raise StructureError(f"algebraic invariant failed: {inv.curve}")
        total = total + Fraction(lam) * inv.cofactor
    for inv, lam in cand.exponential:
        if isinstance(inv, RationalExponent):
            gn, gd = inv.exponent.num, inv.exponent.den
            if rational_integral_residual(sys, gn, gd) != inv.cofactor * gd ** 2:
                raise StructureError(f"exponential invariant failed: exp({gn}/{gd})")
        elif isinstance(inv, IntegralExponent):
            u = inv.u
            lhs = directional_derivative(sys, u)
            if lhs != inv.cofactor * (inv.shift + u + u ** 2):
                raise StructureError("integral-exponent invariant failed")
        else:
            raise TypeError(f"unknown exponential invariant {type(inv).__name__}")
        total = total + Fraction(lam) * inv.cofactor
    if total.is_zero:
        return DarbouxVerdict(True)
    return DarbouxVerdict(False, residual=total)


def darboux_candidate(e, g):
    """Darboux data for the b = 1 normal form with e != g: H = C1^2/(C2 C3)."""
    e = Poly._coerce(e)
    g = Poly._coerce(g)
    u = e * X ** 2 + g * Y ** 2
    c1 = AlgebraicInvariant(X ** 2 + Y ** 2, 2 * X * Y * (1 + u))
    c2 = AlgebraicInvariant((e - g) + u + u ** 2, 2 * X * Y * (1 + 2 * u))
    c3 = IntegralExponent(u, e - g, 2 * X * Y)
    return DarbouxCandidate(
        algebraic=((c1, Fraction(2)), (c2, Fraction(-1))),
        exponential=((c3, Fraction(-1)),))


def darboux_candidate_equal(e):
    """The b = 1 normal form with g = e: C3 = exp((1 + x^2)/(x^2 + y^2)).

    The cofactor relation is 2 L1 - L2 + (1/e) L3 = 0 with L3 = -2 e x y;
    the C3 weight is the unique one making the cofactor sum vanish
    (C3 to the power +1/e).
    """
    e = Fraction(e)
    if e == 0:
        raise ValueError("the e = g variant needs e != 0")
    u = e * (X ** 2 + Y ** 2)
    c1 = AlgebraicInvariant(X ** 2 + Y ** 2, 2 * X * Y * (1 + u))
    c2 = AlgebraicInvariant(Poly.const(0) + u + u ** 2, 2 * X * Y * (1 + 2 * u))
    g_exp = RationalFunction(1 + X ** 2, X ** 2 + Y ** 2)
    c3 = RationalExponent(g_exp, -2 * e * X * Y)
    return DarbouxCandidate(
        algebraic=((c1, Fraction(2)), (c2, Fraction(-1))),
        exponential=((c3, Fraction(1, e)),))


# ----------------------------------------------------------------------
# reversibility

def _reflected_compose(poly, xp, yp, den, n):
    """den^n * poly(xp/den, yp/den) for poly of degree <= n in x, y."""
    total = Poly.zero()
    for k, part in poly.homogeneous_parts().items():
        total = total + part.subs({"x": xp, "y": yp}) * den ** (n - k)
    return total


def reversibility_residual(sys, alpha, beta):
    """Cleared residual of the reflection-symmetry condition about the line
    alpha x + beta y = 0; the zero polynomial iff the system is reversible
    about that line.

    2 a b (p p' - q q') + (b^2 - a^2)(p q' + p' q), with (x', y') the
    reflection of (x, y) and all (alpha^2 + beta^2) denominators cleared.
    """
    alpha = as_poly(alpha)
    beta = as_poly(beta)
    if alpha.is_zero and beta.is_zero:
        raise ValueError("(alpha, beta) must not both be zero")
    den = alpha ** 2 + beta ** 2
    xp = (beta ** 2 - alpha ** 2) * X - 2 * alpha * beta * Y
    yp = -2 * alpha * beta * X + (alpha ** 2 - beta ** 2) * Y
    n = max(sys.p.degree_in(), sys.q.degree_in())
    p, q = sys.p, sys.q
    pr = _reflected_compose(p, xp, yp, den, n)
    qr = _reflected_compose(q, xp, yp, den, n)
    return (2 * alpha * beta * (p * pr - q * qr)
            + (beta ** 2 - alpha ** 2) * (p * qr + pr * q))


@dataclass(frozen=True)
class ReversibilityVerdict:
    reversible: bool
    witness: Poly | None = None


def reversible_modulo_constraint(sys, constraint, slope="s"):
    """Reversibility about the lines alpha x + beta y = 0 with (alpha, beta) =
    (s, -1) and s constrained by a quadratic (e.g. a s^2 - b s - a = 0).

    The residual is pseudo-reduced modulo the constraint (fraction-free, the
    leading coefficient is treated as invertible); Yes iff the remainder
    vanishes identically.
    """
    c2 = constraint.coefficient(slope, 2)
    c1 = constraint.coefficient(slope, 1)
    c0 = constraint.coefficient(slope, 0)
    if c2.is_zero:
        raise ValueError("constraint must be quadratic in the slope symbol")
    if constraint != c2 * Poly.var(slope, 2) + c1 * Poly.var(slope) + c0:
        raise ValueError("constraint has terms beyond degree 2 in the slope")

    residual = reversibility_residual(sys, Poly.var(slope), Poly.const(-1))
    rem = _pseudo_rem_quadratic(residual, constraint, c2, slope)
    if rem.is_zero:
        return ReversibilityVerdict(True)
    return ReversibilityVerdict(False, witness=rem)


def _pseudo_rem_quadratic(poly, constraint, lead, slope):
    while True:
        deg = poly.degree_in((slope,))
        if deg < 2:
            return poly
        top = poly.coefficient(slope, deg)
        poly = lead * poly - top * Poly.var(slope, deg - 2) * constraint


def angular_speed_residual(sys):
    """x q - y p + (x^2 + y^2); zero iff the angular speed is exactly -1."""
    return X * sys.q - Y * sys.p + X ** 2 + Y ** 2


# ----------------------------------------------------------------------
# the antiderivative of 1/(e - g + t + t^2)

def c3_exponent(u, e_minus_g):
    """Definite integral of dt/(e-g + t + t^2) from 0 to u, branch-selected
    by the sign of 4(e-g) - 1.  Raises DomainError on a pole inside the
    integration segment.
    """
    lo, hi = min(0.0, u), max(0.0, u)
    disc = 1.0 - 4.0 * e_minus_g
    if disc >= 0.0:
        r = math.sqrt(disc)
        for root in ((-1.0 - r) / 2.0, (-1.0 + r) / 2.0):
            if lo - 1e-12 <= root <= hi + 1e-12:
                raise DomainError(f"pole at t = {root} inside [0, {u}]")
    delta = 4.0 * e_minus_g - 1.0
    if abs(delta) < 1e-12:
        F = lambda t: -2.0 / (1.0 + 2.0 * t)
    elif delta > 0.0:
        rt = math.sqrt(delta)
        F = lambda t: 2.0 / rt * math.atan((1.0 + 2.0 * t) / rt)
    else:
        rt = math.sqrt(-delta)
        # abs: between the two poles the ratio is negative with constant sign
        F = lambda t: math.log(abs((1.0 + 2.0 * t - rt) / (1.0 + 2.0 * t + rt))) / rt
    return F(u) - F(0.0)
