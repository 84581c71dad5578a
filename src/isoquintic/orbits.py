"""Floating-point verification layer: orbit integration, ray-return timing,
closure checks, the explicit period-annulus boundary, and B-type verdicts.

The symbolic layer proves identities; this module checks that the numbers
agree.  Orbits are integrated by an adaptive embedded 4(5) pair (scipy's
RK45) at tight tolerances.  numpy and scipy are imported by the solve and by
`compile_rhs` only, so the case (i) boundary and every B-type verdict run on
the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from sys import float_info
from typing import TYPE_CHECKING

from .qpoly import to_float
from .structure import angular_speed_residual
from . import quintic

if TYPE_CHECKING:
    import numpy as np

ESCAPE_RADIUS = 1e9
TOL = 1e-10            # default rtol = atol of the adaptive integrator
MIN_TOL = 100 * float_info.epsilon  # RK45 raises any smaller rtol to this
MAX_STEP = 0.1         # largest step of the adaptive integrator
MAX_RHS_CALLS = 50_000  # right-hand side evaluations one solve may spend
# RK45 spends 2 calls to start and 6 per attempted step of at most MAX_STEP:
# a longer span cannot finish within MAX_RHS_CALLS
MAX_T_END = MAX_STEP * (MAX_RHS_CALLS - 2) / 6
RETURN_T_MAX = 2.5 * math.pi  # span searched for the first ray return
MAX_BOUNDARY_N = 2 ** 16  # most boundary samples one call may return


class OrbitError(Exception):
    pass


class EscapedError(OrbitError):
    def __init__(self, t):
        super().__init__(f"orbit escaped (|state| > {ESCAPE_RADIUS:g}) at t = {t}")
        self.t = t


class StiffnessError(OrbitError):
    pass


class NoReturnError(OrbitError):
    pass


class InapplicableBoundaryError(OrbitError):
    pass


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def endpoint(self):
        return float(self.x[-1]), float(self.y[-1])


def compile_rhs(sys):
    """Compile a numeric PlanarSystem into a fast (t, state) -> derivative.

    The derivative raises StiffnessError when called more than MAX_RHS_CALLS
    times, which bounds the work of one solve whatever its step sizes, and
    when its terms sum past the float range (or to inf - inf).
    """
    def collect(poly):
        if poly.variables() - {"x", "y"}:
            raise ValueError("system has parameters left")
        # in term order, on which the overflow of math.fsum depends
        return [(to_float(c), dict(m).get("x", 0), dict(m).get("y", 0))
                for m, c in poly.terms.items()]

    pterms = collect(sys.p)
    qterms = collect(sys.q)
    import numpy as np  # after collect: a system with parameters fails first

    calls = 0

    def field(x, y):
        return (math.fsum(c * x ** i * y ** j for c, i, j in pterms),
                math.fsum(c * x ** i * y ** j for c, i, j in qterms))

    def rhs(t, state):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise StiffnessError(
                f"budget of {MAX_RHS_CALLS} right-hand side calls spent at "
                f"t = {t:.6g} (|state| = {math.hypot(*state):.3g})")
        # Python floats: iterating the array would give slower numpy scalars
        x, y = state.tolist() if isinstance(state, np.ndarray) else state
        try:
            try:
                return field(x, y)
            except OverflowError:
                # numpy scalars give the same values, with +-inf where float ** raises
                return field(np.float64(x), np.float64(y))
        except (OverflowError, ValueError) as exc:  # fsum past the float range, inf - inf
            raise StiffnessError(
                f"right-hand side overflowed at t = {t:.6g} "
                f"(|state| = {math.hypot(x, y):.3g}): {exc}") from None

    return rhs


def _escape_event(t, state):
    return math.hypot(state[0], state[1]) - ESCAPE_RADIUS


_escape_event.terminal = True


def _solve(sys, x0, y0, t_end, tol, events=()):
    """The one adaptive RK45 run: rtol = atol = tol, terminal escape guard.

    Inputs that would make it run without end or on garbage are rejected
    first.  Overflow on the way to the escape radius is left to the guard,
    not reported as numpy warnings.
    """
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tol must be finite and at least {MIN_TOL:.3g}")
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise ValueError("initial point must be finite")
    if math.hypot(x0, y0) >= ESCAPE_RADIUS:
        raise ValueError(
            f"initial point must lie inside |state| = {ESCAPE_RADIUS:g}")
    if not 0 < t_end <= MAX_T_END:  # false for nan
        raise ValueError(f"t_end must be in (0, {MAX_T_END:g}]")
    rhs = compile_rhs(sys)  # a system with parameters fails before the import
    # the package's slowest imports, so deferred to the first solve
    import numpy as np
    from scipy.integrate import solve_ivp

    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, t_end), (x0, y0),
                        method="RK45", rtol=tol, atol=tol, max_step=MAX_STEP,
                        events=(*events, _escape_event))
    if sol.t_events[-1].size:
        raise EscapedError(float(sol.t_events[-1][0]))
    return sol


def _stall_error(sol):
    """A run that stopped before t_end (status -1), typically a blow-up
    below the escape radius."""
    x, y = sol.y[0][-1], sol.y[1][-1]
    return StiffnessError(f"solver stalled at t = {sol.t[-1]:.6g} "
                          f"(|state| = {math.hypot(x, y):.3g}): {sol.message}")


def integrate(sys, x0, y0, t_end, tol=TOL):
    """Integrate to t_end; trips the divergence guard at |state| = 1e9."""
    sol = _solve(sys, x0, y0, t_end, tol)
    if sol.status == -1:
        raise _stall_error(sol)
    return Trajectory(sol.t, sol.y[0], sol.y[1])


def ray_return_time(sys, x0, y0, tol=TOL):
    """Time of first return, within RETURN_T_MAX, to the ray through (x0, y0),
    and the endpoint.

    The system must have constant angular speed (form with x q - y p =
    -(x^2+y^2)), else ValueError; the crossing is located by the solver's
    root finder on the ray's normal coordinate, well below 1e-12 in time.
    """
    if not angular_speed_residual(sys).is_zero:
        raise ValueError("system is not of the constant-angular-speed form")
    r0 = math.hypot(x0, y0)
    if r0 == 0:
        raise ValueError("initial point must not be the origin")
    ux, uy = x0 / r0, y0 / r0

    def cross(t, state):
        return -uy * state[0] + ux * state[1]

    # non-terminal: the solver reports a spurious crossing at t = 0, which is
    # filtered out below together with the opposite-ray crossings
    cross.direction = -1.0  # the positive ray is crossed with decreasing normal

    sol = _solve(sys, x0, y0, RETURN_T_MAX, tol, (cross,))
    hits = [t for t in sol.t_events[0] if t > 1e-3]
    if not hits:
        if sol.status == -1:
            raise _stall_error(sol)
        raise NoReturnError("no ray return located")
    T = float(hits[0])
    xs, ys = sol.y_events[0][len(sol.t_events[0]) - len(hits)]
    return T, (float(xs), float(ys))


# ----------------------------------------------------------------------
# period-annulus boundary for case (i)

@dataclass
class BoundaryResult:
    phis: list
    rhos: list                # math.inf at global maximizers
    c0: float
    maximizers: list          # clustered angles of the global maximum

    @property
    def btype(self):
        """B2 or B4 by the number of maximizers, else Unknown."""
        k = len(self.maximizers)
        return f"B{k}" if k in (2, 4) else "Unknown"


def _golden_max(fun, lo, hi):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    m = (a + b) / 2.0
    return m, fun(m)


def boundary_curve(d, e, g, h, N=256):
    """Sampled explicit boundary rho(phi) = (c0 - Q(phi))^(-1/4) for case (i).

    Q is the partner quartic `quintic.case_i_quartic` restricted to the unit
    circle; c0 is its global maximum (dense scan plus golden section
    refinement).  The scan runs on the quartic divided exactly by its
    largest |coefficient| s, so the verdict is scale-invariant; c0 and rho
    are scaled back by s and s^(-1/4).  Raises InapplicableBoundaryError
    when c0 <= 0: the formula does not describe the boundary there; and
    ValueError when a coefficient or c0 is outside the normal float range.
    """
    if not 64 <= N <= MAX_BOUNDARY_N:
        raise ValueError(f"N must be in [64, {MAX_BOUNDARY_N}]")
    for v in (d, e, g, h):
        to_float(v)  # a ValueError that names a coefficient beyond the range
    scale = max(abs(d), abs(e), abs(g), abs(h))
    if scale == 0:
        # Q has no c^2 s^2 term, so it is constant on the circle only when
        # zero: c0 = 0, and every scan point would be a peak to refine
        raise InapplicableBoundaryError(
            "boundary formula inapplicable (c0 = 0 <= 0)")
    q0, q1, _, q3, q4 = quintic.case_i_quartic(
        *(to_float(v / scale) for v in (d, e, g, h)))

    def Q(phi):
        c, s = math.cos(phi), math.sin(phi)
        return q0 * c ** 4 + q1 * c ** 3 * s + q3 * c * s ** 3 + q4 * s ** 4

    dense = 4096  # angles in the coarse scan
    step = 2.0 * math.pi / dense
    values = [Q(i * step) for i in range(dense)]

    # refine every strict local maximum of the scan, then keep the global ones
    peaks = []
    for i in range(dense):
        if values[i] >= values[i - 1] and values[i] >= values[(i + 1) % dense]:
            lo = (i - 1) * step
            hi = (i + 1) * step
            peaks.append(_golden_max(Q, lo, hi))
    top = max(v for _, v in peaks)  # c0 / s
    winners = sorted(p % (2.0 * math.pi) for p, v in peaks if v >= top - 1e-9)
    maximizers = _cluster_angles(winners, 1e-6)

    try:
        c0 = float(Fraction(top) * Fraction(scale))
    except OverflowError:
        c0 = math.copysign(math.inf, top)
    if top <= 1e-12:
        raise InapplicableBoundaryError(
            f"boundary formula inapplicable (c0 = {c0:.6g} <= 0)")
    if not float_info.min <= c0 < math.inf:
        raise ValueError(f"boundary c0 is outside the normal float range "
                         f"[{float_info.min:.6g}, {float_info.max:.6g}]")
    # 1e-12 < top <= 10, so every finite rho is then a normal float too
    unscale = top ** 0.25 / c0 ** 0.25

    phis = [2.0 * math.pi * i / N for i in range(N)]
    rhos = []
    for phi in phis:
        gap = top - Q(phi)
        rhos.append(math.inf if gap < 1e-12 else gap ** -0.25 * unscale)
    return BoundaryResult(phis, rhos, c0, maximizers)


def _cluster_angles(angles, tol):
    out = []
    for ang in angles:
        if out and (ang - out[-1] <= tol
                    or (ang + tol >= 2.0 * math.pi and out[0] <= tol)):
            continue
        out.append(ang)
    # merge a cluster wrapping through 2*pi
    if len(out) > 1 and out[0] + 2.0 * math.pi - out[-1] <= tol:
        out.pop()
    return out


# ----------------------------------------------------------------------
# B-type classification

@dataclass(frozen=True)
class CenterTypeVerdict:
    tag: str       # "B2" | "B4" | "Unknown"
    evidence: str  # "eg-rule" | "maximizers(k)" | "inapplicable: ..."


def center_type(params, case):
    """B-type of a center: for cases (ii) and (iii), B4 exactly when the
    quadratic form u of P = ell (beta + u) is indefinite, read exactly from
    its coefficients (case (ii): e and g of opposite signs); maximizer
    counting on the explicit boundary for case (i), after an exact division
    by the largest |d|, |e|, |g|, |h|, which no positive scaling changes."""
    params.require_numeric()
    if case.tag is not quintic.CaseTag.CASE_I:
        u = quintic.rotate_to_canonical(params).u
        uxx, uxy, uyy = u.forms().get(2, [0, 0, 0])
        return CenterTypeVerdict("B4" if uxy * uxy > 4 * uxx * uyy else "B2",
                                 "eg-rule")
    quartic = (params.d, params.e, params.g, params.h)
    scale = max(map(abs, quartic)) or 1
    try:
        boundary = boundary_curve(*(v / scale for v in quartic))
    except InapplicableBoundaryError as exc:
        return CenterTypeVerdict("Unknown", f"inapplicable: {exc}")
    return CenterTypeVerdict(boundary.btype,
                             f"maximizers({len(boundary.maximizers)})")

