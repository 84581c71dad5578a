"""Symbolic Lyapunov constants for planar systems with linear part (y, -x).

The comparison function F = (x^2+y^2)/2 + f_3 + f_4 + ... is built degree by
degree so that dF/dt = D_1 (x^4+y^4) + D_2 (x^6+y^6) + ...; the D_i are the
constants returned here, as exact polynomials in the system parameters.

Each stage is one exact linear solve.  The matrix is always numeric (the
action of the linear rotation field on a homogeneous degree), only the
right-hand side carries parameter polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .qpoly import Poly, solve_linear_exact

CAP = 6

X = Poly.var("x")
Y = Poly.var("y")


class LyapunovError(Exception):
    pass


class StageSolveError(LyapunovError):
    """A stage matrix was singular: an implementation bug, not a user error."""


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


def rotation_operator_matrix(k):
    """Matrix of f -> y f_x - x f_y on the basis x^k, x^(k-1) y, ..., y^k.

    L(x^(k-j) y^j) = (k-j) x^(k-j-1) y^(j+1) - j x^(k-j+1) y^(j-1), so the
    matrix is tridiagonal-off-center with integer entries.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = k + 1
    m = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        if j + 1 < n:
            m[j + 1][j] = Fraction(k - j)
        if j - 1 >= 0:
            m[j - 1][j] = Fraction(-j)
    return m


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
        total = total + c * X ** (k - j) * Y ** j
    return total


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
    vanishes.  Even stage k+1: solve for f_{k+1} and the scalar D so the
    degree-(k+1) part equals D (x^{k+1} + y^{k+1}), normalized by a zero
    y^{k+1} coefficient in f_{k+1}.
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
        rhs = [-c for c in _xy_vector(_stage_known(fcomp, pcomp, qcomp, k), k)]
        try:
            sol = solve_linear_exact(rotation_operator_matrix(k), rhs)
        except Exception as exc:  # pragma: no cover - would be a bug
            raise StageSolveError(f"odd stage {k} failed: {exc}") from exc
        fcomp[k] = _poly_from_vector(sol, k)

        # even stage: degree K component must be D*(x^K + y^K), with the
        # y^K coefficient of f_K pinned to zero
        K = k + 1
        known = _xy_vector(_stage_known(fcomp, pcomp, qcomp, K), K)
        n = K + 2
        mat = [[Fraction(0)] * n for _ in range(n)]
        rot = rotation_operator_matrix(K)
        for i in range(K + 1):
            for j in range(K + 1):
                mat[i][j] = rot[i][j]
        mat[0][K + 1] = Fraction(-1)
        mat[K][K + 1] = Fraction(-1)
        mat[K + 1][K] = Fraction(1)
        rhs = [-c for c in known] + [Poly.zero()]
        try:
            sol = solve_linear_exact(mat, rhs)
        except Exception as exc:  # pragma: no cover - would be a bug
            raise StageSolveError(f"even stage {K} failed: {exc}") from exc
        fcomp[K] = _poly_from_vector(sol[:K + 1], K)
        raw.append(sol[K + 1])

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
