"""Symbolic Lyapunov constants for planar systems with linear part (y, -x).

The comparison function F = (x^2+y^2)/2 + f_3 + f_4 + ... is built degree by
degree so that dF/dt = D_1 (x^4+y^4) + D_2 (x^6+y^6) + ...; the D_i are the
constants returned here, as exact polynomials in the system parameters.

Each stage solves L f = r for one homogeneous f, where L f = y f_x - x f_y
is the action of the linear rotation field.  L only couples neighbouring
coefficients, so two short recurrences solve it exactly; the right-hand
side carries the parameter polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qpoly import Poly

CAP = 6

X = Poly.var("x")
Y = Poly.var("y")


class LyapunovError(Exception):
    pass


@dataclass(frozen=True)
class PlanarSystem:
    """The vector field (p, q) of dx/dt = p, dy/dt = q."""

    p: Poly
    q: Poly

    def components(self):
        """Homogeneous components (in x, y) of p and q."""
        return self.p.homogeneous_parts(), self.q.homogeneous_parts()

    def eval_float(self, x, y, extra=None):
        pt = {"x": x, "y": y}
        if extra:
            pt.update(extra)
        return self.p.eval_float(pt), self.q.eval_float(pt)


def check_linear_center(sys):
    """Require linear part exactly (y, -x) and no constant terms."""
    pc, qc = sys.components()
    if pc.get(0) or qc.get(0):
        raise LyapunovError("system has a constant term")
    if pc.get(1, Poly.zero()) != Y:
        raise LyapunovError("linear part of p must be exactly y")
    if qc.get(1, Poly.zero()) != -X:
        raise LyapunovError("linear part of q must be exactly -x")


@dataclass
class LyapunovReport:
    constants: list  # canonical (integer-primitive, sign preserved)
    raw: list        # as produced by the stage solves
    f_components: dict = field(repr=False, default_factory=dict)
    first_nonzero_index: int | None = None
    sign: str | None = None


def _xy_vector(poly, k):
    """Coefficient vector of x^(k-j) y^j, j = 0..k; entries are parameter Polys."""
    coeffs = poly.xy_coefficients()
    vec = [Poly.zero()] * (k + 1)
    for (i, j), c in coeffs.items():
        if i + j != k:
            raise LyapunovError(f"stage polynomial not homogeneous of degree {k}")
        vec[j] = c
    return vec


def _poly_from_vector(vec, k):
    total = Poly.zero()
    for j, c in enumerate(vec):
        total = total + c * (Poly.var("x", k - j) * Poly.var("y", j))
    return total


def _solve_stage(r, k):
    """The degree-k f with L f = r, given as coefficients r_i of x^(k-i) y^i.

    Row i reads (k-i+1) f_(i-1) - (i+1) f_(i+1) = r_i.  The even rows give
    the odd coefficients forward from f_(-1) = 0, the odd rows the even ones
    backward from f_(k+1) = 0.  For even k the last even row is left out (the
    caller makes r average to zero, which satisfies it) and f_k stays 0.
    """
    f = [Poly.zero()] * (k + 2)  # f[k + 1] is f_(k+1) and, as f[-1], f_(-1)
    for i in range(0, k, 2):
        f[i + 1] = ((k - i + 1) * f[i - 1] - r[i]) * Fraction(1, i + 1)
    for i in reversed(range(1, k + 1, 2)):
        f[i - 1] = (r[i] + (i + 1) * f[i + 1]) * Fraction(1, k - i + 1)
    return _poly_from_vector(f[:k + 1], k)


def _circle_average(r, k):
    """Circle average of sum r_i x^(k-i) y^i over that of x^k + y^k, k even.

    cos^(k-i) sin^i averages to w_i, with w_(i+2) = w_i (i+1)/(k-i-1); the
    scale w_0 = w_k = 1 makes the average of x^k + y^k equal to 2.
    """
    w, total = Fraction(1), Poly.zero()
    for i in range(0, k, 2):
        total = total + w * r[i]
        w *= Fraction(i + 1, k - i - 1)
    return (total + r[k]) * Fraction(1, 2)


def _stage_known(fcomp, pcomp, qcomp, deg):
    """Degree-`deg` part of dF/dt contributed by the already-known f_i."""
    total = Poly.zero()
    for i, fi in fcomp.items():
        j = deg + 1 - i
        if j < 2:
            continue
        pj = pcomp.get(j)
        qj = qcomp.get(j)
        if pj is not None:
            total = total + fi.diff("x") * pj
        if qj is not None:
            total = total + fi.diff("y") * qj
    return total


def pl_constants(sys, m):
    """Compute the first m Lyapunov constants of `sys`, exactly.

    Odd stage k: solve L(f_k) = -(known terms) so the degree-k part of dF/dt
    vanishes.  Even stage K = k+1: D is fixed by the circle average, then
    L(f_K) = D (x^K + y^K) - (known terms), with a zero y^K coefficient in f_K.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > CAP:
        raise LyapunovError(f"requested {m} constants exceeds the cap {CAP}")
    check_linear_center(sys)
    pcomp, qcomp = sys.components()

    fcomp = {2: Fraction(1, 2) * (X ** 2 + Y ** 2)}
    raw = []
    for k in range(3, 2 * m + 2, 2):
        # odd stage: kill the degree-k component
        known = _xy_vector(_stage_known(fcomp, pcomp, qcomp, k), k)
        fcomp[k] = _solve_stage([-c for c in known], k)

        # even stage: the degree-K component must be D*(x^K + y^K); L f
        # averages to zero over the circle, which fixes D
        K = k + 1
        known = _xy_vector(_stage_known(fcomp, pcomp, qcomp, K), K)
        d = _circle_average(known, K)
        rhs = [-c for c in known]
        rhs[0] = rhs[0] + d  # rhs[K] would get d too, but its row is not read
        fcomp[K] = _solve_stage(rhs, K)
        raw.append(d)

    report = LyapunovReport(constants=[d.canonical() for d in raw], raw=raw,
                            f_components=fcomp)
    if all(not d.variables() for d in raw):
        hit = first_nonzero(report, {})
        if hit is not None:
            report.first_nonzero_index, report.sign = hit
    return report


def first_nonzero(report, bindings):
    """Index (1-based) and sign of the first constant not exactly zero."""
    point = {k: Fraction(v) for k, v in bindings.items()}
    for i, d in enumerate(report.raw, start=1):
        value = d.eval_rational(point)
        if value:
            return i, ("positive" if value > 0 else "negative")
    return None
