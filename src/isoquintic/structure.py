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

from .qpoly import (Poly, RationalFunction, as_poly, divide_exact, form_poly,
                    substitute_form, to_float)

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
    if den.is_zero:
        raise ValueError("denominator must be nonzero")
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
    """exp(integral_0^u dt / (shift + b t + t^2)); certificate
    p u_x + q u_y = K (shift + b u + u^2)."""
    u: Poly
    shift: Poly
    b: Poly  # the beta of `form_candidate`
    cofactor: Poly


def _float(value):
    """A variable-free weight or coefficient (number or Poly) as a float."""
    return to_float(as_poly(value).constant_value())


@dataclass(frozen=True)
class DarbouxCandidate:
    """Invariants with weights lambda (rationals, or Polys in parameters);
    certified when sum(lambda_i K_i) = 0."""
    algebraic: tuple
    exponential: tuple = ()

    def eval_float(self, x, y):
        """prod |C_i|^lambda_i * exp(sum lambda_j G_j) at (x, y), in floats."""
        point = {"x": x, "y": y}
        exponent = 0.0
        for inv, lam in self.exponential:
            if isinstance(inv, RationalExponent):
                g = inv.exponent.eval_float(point)
            else:
                g = c3_exponent(inv.u.eval_float(point), _float(inv.shift),
                                _float(inv.b))
            exponent += _float(lam) * g
        value = math.exp(exponent)
        for inv, lam in self.algebraic:
            value *= abs(inv.curve.eval_float(point)) ** _float(lam)
        return value


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
        total = total + lam * inv.cofactor
    for inv, lam in cand.exponential:
        if isinstance(inv, RationalExponent):
            gn, gd = inv.exponent.num, inv.exponent.den
            if rational_integral_residual(sys, gn, gd) != inv.cofactor * gd ** 2:
                raise StructureError(f"exponential invariant failed: exp({gn}/{gd})")
        elif isinstance(inv, IntegralExponent):
            u = inv.u
            lhs = directional_derivative(sys, u)
            if lhs != inv.cofactor * (inv.shift + inv.b * u + u ** 2):
                raise StructureError("integral-exponent invariant failed")
        else:
            raise TypeError(f"unknown exponential invariant {type(inv).__name__}")
        total = total + lam * inv.cofactor
    if total.is_zero:
        return DarbouxVerdict(True)
    return DarbouxVerdict(False, residual=total)


def form_candidate(ell, u, shift, beta, r):
    """Darboux data for P = ell (beta + u), u a nonzero quadratic form with
    y u_x - x u_y = 2 ell shift, and r with y r_x - x r_y = 2 beta ell (the
    form of `quintic.rotate_to_canonical`).

    C1 = x^2 + y^2 and C2 = shift + beta u + u^2 have cofactors
    2 ell (beta + u) and 2 ell (beta + 2 u) and the weights 2 and -1.  With
    shift != 0, u obeys du/dt = 2 ell C2, so C3 = exp(integral_0^u dt / C2)
    has cofactor 2 ell and weight -beta.  With shift = 0, u = kappa C1 for a
    nonzero number kappa, and C3 = exp((1 + r) / C1) has cofactor
    -2 kappa ell and weight beta / kappa; beta = 0 is a ValueError there, as
    H = 1 / kappa^2 is constant.
    """
    c1 = X ** 2 + Y ** 2
    if u.is_zero:
        raise ValueError("the Darboux form needs u != 0")
    if shift.is_zero:
        if not beta:
            raise ValueError("with shift = 0, the Darboux form needs beta != 0")
        kappa = divide_exact(u, c1)
        if kappa is None or kappa.variables():
            raise ValueError("with shift = 0, u must be a number times x^2 + y^2")
        kappa = kappa.constant_value()
        c3 = RationalExponent(RationalFunction(1 + r, c1), -2 * kappa * ell)
        weight = beta * (1 / kappa)
    else:
        c3, weight = IntegralExponent(u, shift, beta, 2 * ell), -beta
    return DarbouxCandidate(
        algebraic=((AlgebraicInvariant(c1, 2 * ell * (beta + u)), Fraction(2)),
                   (AlgebraicInvariant(shift + beta * u + u ** 2,
                                       2 * ell * (beta + 2 * u)), Fraction(-1))),
        exponential=((c3, weight),))


def darboux_candidate(e, g, b=1):
    """`form_candidate` of case (ii), P = x y (b + e x^2 + g y^2): H =
    C1^2 C2^-1 C3^-b, or C3 = exp((1 + b x^2)/(x^2 + y^2)) with weight b/e
    when e = g.  Each of e, g, b is a number, a symbol name or a Poly in
    parameters."""
    e, g, b = as_poly(e), as_poly(g), as_poly(b)
    return form_candidate(X * Y, e * X ** 2 + g * Y ** 2, e - g, b, b * X ** 2)


def darboux_candidate_equal(e, b=1):
    """P = x y (b + e (x^2 + y^2)), e a nonzero number."""
    return darboux_candidate(e, e, b)


# ----------------------------------------------------------------------
# reversibility

SLOPE = "s"  # the symbol of reversible_modulo_constraint's slope


def reversibility_residual(sys, alpha, beta):
    """The two components of M F(M x) + F(x), M the reflection about the
    line alpha x + beta y = 0, with all (alpha^2 + beta^2) denominators
    cleared; both are the zero polynomial iff the system is reversible about
    that line.
    """
    alpha = as_poly(alpha)
    beta = as_poly(beta)
    if alpha.is_zero and beta.is_zero:
        raise ValueError("(alpha, beta) must not both be zero")
    den = alpha ** 2 + beta ** 2
    mx = [beta ** 2 - alpha ** 2, -2 * alpha * beta]  # den M, row by row
    my = [mx[1], -mx[0]]
    n = max(sys.p.degree_in(), sys.q.degree_in())

    def reflected(poly):  # den^n poly(M x), one binary form at a time
        return sum((form_poly(substitute_form(form, mx, my)) * den ** (n - k)
                    for k, form in poly.forms().items()), Poly.zero())

    pr, qr = reflected(sys.p), reflected(sys.q)
    scale = den ** (n + 1)
    return (mx[0] * pr + mx[1] * qr + scale * sys.p,
            my[0] * pr + my[1] * qr + scale * sys.q)


@dataclass(frozen=True)
class ReversibilityVerdict:
    reversible: bool
    witness: Poly | None = None


def reversible_modulo_constraint(sys, constraint):
    """Reversibility of a radial system about the lines s x - y = 0, with
    the slope symbol s constrained by a quadratic (e.g. a s^2 - b s - a = 0).

    The system must have the radial form p = w y + x P, q = -w x + y P with
    w free of x and y (checked as x q - y p + w (x^2 + y^2) = 0, w the
    coefficient of y in p); anything else is a ValueError.  The reflection
    about the line then reverses the flow exactly when P is odd in the
    coordinate normal to it: with x = u - s v and y = s u + v, every
    coefficient of u^(k-j) v^j with even j in P_k(u - s v, s u + v) must
    vanish.  Each is pseudo-reduced modulo the constraint (fraction-free,
    the leading coefficient is treated as invertible); the witness of a
    failing verdict is the first remainder that does not vanish.
    """
    c2 = constraint.coefficient(SLOPE, 2)
    c1 = constraint.coefficient(SLOPE, 1)
    c0 = constraint.coefficient(SLOPE, 0)
    if c2.is_zero:
        raise ValueError("constraint must be quadratic in the slope symbol")
    if constraint != c2 * Poly.var(SLOPE, 2) + c1 * Poly.var(SLOPE) + c0:
        raise ValueError("constraint has terms beyond degree 2 in the slope")
    forms = sys.p.forms()
    omega = as_poly(forms.get(1, [0, 0])[1])
    if not (X * sys.q - Y * sys.p + omega * (X ** 2 + Y ** 2)).is_zero:
        raise ValueError("system is not of the radial form "
                         "p = w y + x P, q = -w x + y P")

    # p_k = x P_(k-1) + (w y for k = 1): P_(k-1) is p_k without its y^k entry
    slope = Poly.var(SLOPE)
    for form in forms.values():
        rotated = substitute_form(form[:-1], [1, -slope], [slope, 1])
        for coeff in rotated[::2]:
            rem = _pseudo_rem_quadratic(as_poly(coeff), constraint, c2)
            if not rem.is_zero:
                return ReversibilityVerdict(False, witness=rem)
    return ReversibilityVerdict(True)


def _pseudo_rem_quadratic(poly, constraint, lead):
    while True:
        deg = poly.degree_in((SLOPE,))
        if deg < 2:
            return poly
        top = poly.coefficient(SLOPE, deg)
        poly = lead * poly - top * Poly.var(SLOPE, deg - 2) * constraint


def angular_speed_residual(sys):
    """x q - y p + (x^2 + y^2); zero iff the angular speed is exactly -1."""
    return X * sys.q - Y * sys.p + X ** 2 + Y ** 2


# ----------------------------------------------------------------------
# the antiderivative of 1/(shift + b t + t^2)

def c3_exponent(u, shift, b=1.0):
    """Definite integral of dt/(shift + b t + t^2) from 0 to u, branch-selected
    by the sign of 4 shift - b^2.  Raises DomainError on a pole inside the
    integration segment.
    """
    lo, hi = min(0.0, u), max(0.0, u)
    delta = 4.0 * shift - b * b
    if delta <= 0.0:
        r = math.sqrt(-delta)
        for root in ((-b - r) / 2.0, (-b + r) / 2.0):
            if lo - 1e-12 <= root <= hi + 1e-12:
                raise DomainError(f"pole at t = {root} inside [0, {u}]")
    if abs(delta) <= 1e-12 * (b * b + 4.0 * abs(shift)):
        F = lambda t: -2.0 / (2.0 * t + b)
    elif delta > 0.0:
        rt = math.sqrt(delta)
        F = lambda t: 2.0 / rt * math.atan((2.0 * t + b) / rt)
    else:
        rt = math.sqrt(-delta)
        # abs: between the two poles the ratio is negative with constant sign
        F = lambda t: math.log(abs((2.0 * t + b - rt) / (2.0 * t + b + rt))) / rt
    return F(u) - F(0.0)
