"""Symbolic Lyapunov constants for planar systems with linear part (y, -x).

The comparison function F = (x^2+y^2)/2 + f_3 + f_4 + ... is built degree by
degree so that dF/dt = D_1 (x^4+y^4) + D_2 (x^6+y^6) + ...; the D_i are the
constants returned here, as exact polynomials in the system parameters.

Each homogeneous part is kept as its list of coefficients of x^(k-i) y^i:
Fractions for a numeric system, parameter Polys where parameters remain.
Derivatives are index shifts and products are convolutions.  Each stage
solves L f = r for one homogeneous f, where L f = y f_x - x f_y is the action
of the linear rotation field.  L only couples neighbouring coefficients, so
two short recurrences solve it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qpoly import Poly, as_poly

CAP = 6


class LyapunovError(Exception):
    pass


@dataclass(frozen=True)
class PlanarSystem:
    """The vector field (p, q) of dx/dt = p, dy/dt = q."""

    p: Poly
    q: Poly

    def eval_float(self, x, y, extra=None):
        pt = {"x": x, "y": y}
        if extra:
            pt.update(extra)
        return self.p.eval_float(pt), self.q.eval_float(pt)


def _forms(poly):
    """Homogeneous parts of `poly` in x, y by degree k, each the list of its
    coefficients of x^(k-j) y^j, j = 0..k."""
    forms = {}
    for (i, j), c in poly.xy_coefficients().items():
        k = i + j
        c = c if c.variables() else c.constant_value()
        forms.setdefault(k, [0] * (k + 1))[j] = c
    return forms


def check_linear_center(sys):
    """Require linear part exactly (y, -x) and no constant terms.

    Returns the homogeneous parts of p and q as coefficient lists.
    """
    p, q = _forms(sys.p), _forms(sys.q)
    if 0 in p or 0 in q:
        raise LyapunovError("system has a constant term")
    if p.get(1, [0, 0]) != [0, 1]:
        raise LyapunovError("linear part of p must be exactly y")
    if q.get(1, [0, 0]) != [-1, 0]:
        raise LyapunovError("linear part of q must be exactly -x")
    return p, q


@dataclass
class LyapunovReport:
    constants: list  # canonical (integer-primitive, sign preserved)
    raw: list        # as produced by the stage solves
    f_components: dict = field(repr=False, default_factory=dict)
    first_nonzero_index: int | None = None
    sign: str | None = None


def _form_poly(c):
    """The Poly sum c_j x^(k-j) y^j of a coefficient list c_0..c_k."""
    k = len(c) - 1
    terms = {}
    for j, cj in enumerate(c):
        xy = tuple((v, e) for v, e in (("x", k - j), ("y", j)) if e)
        if isinstance(cj, Poly):
            for m, q in cj.terms.items():
                terms[xy + m] = q
        else:
            terms[xy] = cj
    return Poly(terms)  # drops the zero coefficients


def _solve_stage(r, k):
    """The degree-k f with L f = r, both as coefficients of x^(k-i) y^i.

    Row i reads (k-i+1) f_(i-1) - (i+1) f_(i+1) = r_i.  The even rows give
    the odd coefficients forward from f_(-1) = 0, the odd rows the even ones
    backward from f_(k+1) = 0.  For even k the last even row is left out (the
    caller makes r average to zero, which satisfies it) and f_k stays 0.
    """
    f = [0] * (k + 2)  # f[k + 1] is f_(k+1) and, as f[-1], f_(-1)
    for i in range(0, k, 2):
        f[i + 1] = ((k - i + 1) * f[i - 1] - r[i]) * Fraction(1, i + 1)
    for i in reversed(range(1, k + 1, 2)):
        f[i - 1] = (r[i] + (i + 1) * f[i + 1]) * Fraction(1, k - i + 1)
    return f[:k + 1]


def _circle_average(r, k):
    """Circle average of sum r_i x^(k-i) y^i over that of x^k + y^k, k even.

    cos^(k-i) sin^i averages to w_i, with w_(i+2) = w_i (i+1)/(k-i-1); the
    scale w_0 = w_k = 1 makes the average of x^k + y^k equal to 2.
    """
    w, total = Fraction(1), 0
    for i in range(0, k, 2):
        total = total + w * r[i]
        w *= Fraction(i + 1, k - i - 1)
    return (total + r[k]) * Fraction(1, 2)


def _convolve(out, a, b):
    """Add the coefficients of the product of forms a and b into out."""
    for s, bs in enumerate(b):
        if bs:
            for t, at in enumerate(a):
                if at:
                    out[s + t] = out[s + t] + at * bs


def _stage_known(f, p, q, deg):
    """Degree-`deg` part of dF/dt = F_x p + F_y q over the known f_i, i < deg."""
    total = [0] * (deg + 1)
    for i, fi in f.items():
        j = deg + 1 - i
        if j in p:  # d/dx: x^(i-t) y^t -> (i-t) x^(i-1-t) y^t
            _convolve(total, [(i - t) * fi[t] for t in range(i)], p[j])
        if j in q:  # d/dy: x^(i-t) y^t -> t x^(i-t) y^(t-1)
            _convolve(total, [(t + 1) * fi[t + 1] for t in range(i)], q[j])
    return total


def pl_constants(sys, m):
    """Compute the first m Lyapunov constants of `sys`, exactly.

    Odd stage k: solve L(f_k) = -(known terms) so the degree-k part of dF/dt
    vanishes.  Even stage K = k+1: D is fixed by the circle average, then
    L(f_K) = D (x^K + y^K) - (known terms), with a zero y^K coefficient in f_K.
    Every f_k and known part is a coefficient list of x^(k-i) y^i.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > CAP:
        raise LyapunovError(f"requested {m} constants exceeds the cap {CAP}")
    p, q = check_linear_center(sys)

    f = {2: [Fraction(1, 2), 0, Fraction(1, 2)]}
    raw = []
    for k in range(3, 2 * m + 2, 2):
        # odd stage: kill the degree-k component
        f[k] = _solve_stage([-c for c in _stage_known(f, p, q, k)], k)

        # even stage: the degree-K component must be D*(x^K + y^K); L f
        # averages to zero over the circle, which fixes D
        K = k + 1
        known = _stage_known(f, p, q, K)
        d = _circle_average(known, K)
        rhs = [-c for c in known]
        rhs[0] = rhs[0] + d  # rhs[K] would get d too, but its row is not read
        f[K] = _solve_stage(rhs, K)
        raw.append(as_poly(d))

    report = LyapunovReport(constants=[d.canonical() for d in raw], raw=raw,
                            f_components={k: _form_poly(c) for k, c in f.items()})
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
