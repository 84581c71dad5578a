"""Floating-point verification layer: orbit integration, ray-return timing,
closure checks, the explicit period-annulus boundary, B-type verdicts, and
the values of certified first integrals.

The symbolic layer proves identities; this module checks that the numbers
agree.  It is the package's one float layer: beside it, only `qpoly.to_float`
and `Poly.eval_float` turn exact values into floats.  Orbits are integrated
by the adaptive Dormand-Prince 5(4) pair at tight tolerances, in one step
loop that stops at the escape radius and, for a ray return, at the first
return: the systems turn at unit speed, so every orbit meets its ray again at
t = 2 pi.  The stepper repeats scipy's RK45 arithmetic on Python floats,
but for the eight reductions of a step, which numpy's dot rounds on scipy's
shapes: the five stage dots, the dots of the solution and of the error
estimate, and the RMS norm's.  `brentq`, which locates those events, repeats
scipy's brentq.c on floats, so both give scipy's floats without importing
it.  numpy is imported by the solve and by `compile_rhs` only, so the case
(i) boundary, every B-type verdict and `integral_value` run on the standard
library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from sys import float_info

from .qpoly import RationalFunction, as_poly, to_float
from .structure import RationalExponent, angular_speed_residual
from . import quintic

ESCAPE_RADIUS = 1e9
TOL = 1e-10            # default rtol = atol of the adaptive integrator
MIN_TOL = 100 * float_info.epsilon  # the smallest rtol scipy's RK45 keeps
MAX_STEP = 0.1         # largest step of the adaptive integrator
MAX_RHS_CALLS = 50_000  # right-hand side evaluations one solve may spend
# RK45 spends 2 calls to start and 6 per attempted step of at most MAX_STEP:
# a longer span cannot finish within MAX_RHS_CALLS
MAX_T_END = MAX_STEP * (MAX_RHS_CALLS - 2) / 6
EPS4 = 4 * float_info.epsilon  # brentq's xtol and rtol
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


class DomainError(OrbitError):
    pass


@dataclass
class Trajectory:
    t: list  # floats, one per accepted step, from t = 0
    x: list
    y: list

    def endpoint(self):
        return self.x[-1], self.y[-1]


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
        # fsum over a list: faster than over a generator, the same sum
        return (math.fsum([c * x ** i * y ** j for c, i, j in pterms]),
                math.fsum([c * x ** i * y ** j for c, i, j in qterms]))

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


# The Dormand-Prince 5(4) pair with Shampine's 4th-order continuous
# extension, as scipy's RK45 tabulates it (Dormand & Prince, J. Comput.
# Appl. Math. 6 (1980); Shampine, Math. Comp. 46 (1986)).
_C = [0, 1/5, 3/10, 4/5, 8/9, 1]
_A = [[0, 0, 0, 0, 0],
      [1/5, 0, 0, 0, 0],
      [3/40, 9/40, 0, 0, 0],
      [44/45, -56/15, 32/9, 0, 0],
      [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
      [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]]
_B = [35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]
_E = [-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]
_P = [[1, -8048581381/2820520608, 8663915743/2820520608,
       -12715105075/11282082432],
      [0, 0, 0, 0],
      [0, 131558114200/32700410799, -68118460800/10900136933,
       87487479700/32700410799],
      [0, -1754552775/470086768, 14199869525/1410260304,
       -10690763975/1880347072],
      [0, 127303824393/49829197408, -318862633887/49829197408,
       701980252875 / 199316789632],
      [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
      [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]]
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step size control


def _rk45_steps(rhs, x0, y0, t_end, tol):
    """Accepted steps (t_old, t, state_old, state, K) of the Dormand-Prince
    pair from t = 0 to t_end, at rtol = atol = tol and steps up to MAX_STEP,
    each time a float and each state an (x, y) tuple of floats;
    StiffnessError when the step falls below ten ulps of t, or is nan.

    The step control and the initial step (Hairer, Norsett & Wanner, Solving
    ODEs I, II.4) are those of scipy's RK45.  numpy's work in a step is the
    eight reductions whose rounding is scipy's: the five stage dots, the two
    dots of the solution and of the error estimate, and the dot of the RMS
    norm, on scipy's shapes, since numpy's dot rounds differently from a sum
    of Python floats.  Every other operation is elementwise, and Python
    floats round it as numpy does; only numpy's x / 0 and its nan-propagating
    maximum are spelt out.  K holds the seven stages of the last step and is
    overwritten by the next.
    """
    import numpy as np

    def rms(vx, vy):  # np.linalg.norm((vx, vy)) / 2 ** 0.5, without the checks
        v = np.array((vx, vy))
        return math.sqrt(v.dot(v)) / 2 ** 0.5

    def divide(a, b):  # a / b for a >= 0, with numpy's inf or nan where b = 0
        return a / b if b else math.inf if a > 0 else math.nan

    def maximum(a, b):  # np.maximum: nan when either is
        return a if a >= b or a != a else b

    A, B, E = np.array(_A), np.array(_B), np.array(_E)
    t, x, y = 0.0, x0, y0
    K = np.empty((7, 2))
    fx, fy = K[0] = rhs(t, (x, y))
    # views on K, which every step fills in place
    stages = [(s, _C[s], K[:s].T, A[s, :s]) for s in range(1, 6)]
    K_B, K_E = K[:-1].T, K.T

    # initial step, selected from the first two slopes
    sx, sy = tol + abs(x) * tol, tol + abs(y) * tol
    d0, d1 = rms(x / sx, y / sy), rms(fx / sx, fy / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    gx, gy = rhs(t + h0, (x + h0 * fx, y + h0 * fy))
    d2 = divide(rms((gx - fx) / sx, (gy - fy) / sy), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = divide(0.01, max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end, MAX_STEP)

    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), MAX_STEP)
        rejected = False
        while True:
            if not h_abs >= min_step:  # nan too, where scipy runs on
                raise StiffnessError(
                    f"solver stalled at t = {t:.6g} "
                    f"(|state| = {math.hypot(x, y):.3g}): Required step size "
                    "is less than spacing between numbers.")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            for s, c, K_s, a in stages:
                kx, ky = np.dot(K_s, a).tolist()
                K[s] = rhs(t + c * h, (x + kx * h, y + ky * h))
            bx, by = np.dot(K_B, B).tolist()
            x_new, y_new = x + h * bx, y + h * by
            K[6] = rhs(t + h, (x_new, y_new))
            ex, ey = np.dot(K_E, E).tolist()
            sx = tol + maximum(abs(x), abs(x_new)) * tol
            sy = tol + maximum(abs(y), abs(y_new)) * tol
            error_norm = rms(ex * h / sx, ey * h / sy)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** -0.2)
            rejected = True
        factor = (MAX_FACTOR if error_norm == 0
                  else min(MAX_FACTOR, SAFETY * error_norm ** -0.2))
        h_abs *= min(1, factor) if rejected else factor
        t_old, t, y_old, x, y = t, t_new, (x, y), x_new, y_new
        yield t_old, t, y_old, (x, y), K
        if t >= t_end:
            return
        K[0] = K[6]


def _interpolant(t_old, t, y_old, K):
    """The continuous extension over the step from t_old to t, as scipy's
    RkDenseOutput evaluates it: exactly y_old at t_old."""
    import numpy as np

    Q = K.T.dot(np.array(_P))
    h = t - t_old

    def dense(s):
        p = np.cumprod(np.tile((s - t_old) / h, 4))
        return h * np.dot(Q, p) + y_old

    return dense


def brentq(f, a, b):
    """A zero of f in [a, b] by Brent's method, as scipy's brentq.c finds it
    at xtol = rtol = 4 eps in at most 100 iterations: the same floats.
    ValueError when f(a) and f(b) have the same sign or f is nan."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    negative = lambda v: math.copysign(1.0, v) < 0  # C's signbit
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (EPS4 + EPS4 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # inf or nan in C: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _solve(sys, x0, y0, t_end, tol, normal=None):
    """The one adaptive run of the Dormand-Prince pair: rtol = atol = tol,
    stopped at |state| = ESCAPE_RADIUS (EscapedError) and where the step
    size stalls, typically in a blow-up below the escape radius
    (StiffnessError).

    Without `normal`, returns the accepted steps as a Trajectory.  With
    `normal`, the coordinate normal to a ray, stops at the first return to
    the ray, where it falls through zero, and returns (T, (x, y));
    NoReturnError if there is none by t_end.  Crossings up to t = 1e-3 do not
    count: the orbit starts on the ray, and from far out it can blow up
    before it has turned by more than the rounding of that coordinate; it
    turns at unit speed, so a return comes at t = 2 pi.  Events are located
    by `brentq` on the step's continuous extension, so the return and escape
    times are the floats scipy's solve_ivp gives.  The extension ends within
    rounding of the step end: where the event changes sign at the step end
    but not on the extension, the step end is the event (solve_ivp raises a
    ValueError there).

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
    import numpy as np  # deferred to the first solve

    def locate(event):
        """The zero of event(state) in the last step, and the state there."""
        dense = _interpolant(t_old, t, y_old, K)
        at = lambda s: event(dense(s))
        start, end = at(t_old), at(t)
        if start and end and (start < 0) == (end < 0):
            return t, (x, y)  # the extension's sign change lies past t
        root = brentq(at, t_old, t)
        return root, tuple(dense(root).tolist())

    def escape(state):
        return math.hypot(*state) - ESCAPE_RADIUS

    x, y = float(x0), float(y0)
    ts, xs, ys = [0.0], [x], [y]
    if normal:
        g = normal((x, y))
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _rk45_steps(rhs, x, y, float(t_end), tol)
        for t_old, t, y_old, (x, y), K in steps:
            hit = None
            if normal:
                g_old, g = g, normal((x, y))
                if g_old >= 0 >= g:
                    hit = locate(normal)
                    if hit[0] <= 1e-3:
                        hit = None
            if math.hypot(x, y) >= ESCAPE_RADIUS:
                t_escape, _ = locate(escape)
                if hit is None or t_escape < hit[0]:
                    raise EscapedError(t_escape)
            if hit is not None:
                return hit
            ts.append(t)
            xs.append(x)
            ys.append(y)
    if normal:
        raise NoReturnError("no ray return located")
    return Trajectory(ts, xs, ys)


def integrate(sys, x0, y0, t_end, tol=TOL):
    """Integrate to t_end; trips the divergence guard at |state| = 1e9."""
    return _solve(sys, x0, y0, t_end, tol)


def ray_return_time(sys, x0, y0, tol=TOL):
    """Time of first return, within RETURN_T_MAX, to the ray through (x0, y0),
    and the endpoint.

    The system must have constant angular speed (form with x q - y p =
    -(x^2+y^2)), else ValueError.  The integration stops at the return,
    located by brentq on the ray's normal coordinate, well below 1e-12 in
    time, so a blow-up, escape or spent call budget after it does not hide it.
    """
    if not angular_speed_residual(sys).is_zero:
        raise ValueError("system is not of the constant-angular-speed form")
    r0 = math.hypot(x0, y0)
    if r0 == 0:
        raise ValueError("initial point must not be the origin")
    ux, uy = x0 / r0, y0 / r0

    def normal(state):
        return -uy * state[0] + ux * state[1]

    return _solve(sys, x0, y0, RETURN_T_MAX, tol, normal)


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
        """B2 or B4 by the number of maximizers, two per maximizing line
        (Q is even), else Unknown."""
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


# ----------------------------------------------------------------------
# certified first integrals in floats

def _number(value):
    """A variable-free weight or coefficient (number or Poly) as a float."""
    return to_float(as_poly(value).constant_value())


def integral_value(h, x, y):
    """The first integral h of `quintic.first_integral` at (x, y), in floats:
    num / den for a RationalFunction, and for a `structure.DarbouxCandidate`
    prod |C_i|^lambda_i * exp(sum lambda_j G_j), each G_j a RationalExponent
    or the `c3_exponent` of an IntegralExponent.  Coefficients convert by
    `qpoly.to_float`; a parameter left is an UnboundVariableError, or a
    ValueError in a weight."""
    point = {"x": x, "y": y}
    if isinstance(h, RationalFunction):
        d = h.den.eval_float(point)
        return h.num.eval_float(point) / d
    exponent = 0.0
    for inv, lam in h.exponential:
        if isinstance(inv, RationalExponent):
            g = integral_value(inv.exponent, x, y)
        else:
            g = c3_exponent(inv.u.eval_float(point), _number(inv.shift),
                            _number(inv.b))
        exponent += _number(lam) * g
    value = math.exp(exponent)
    for inv, lam in h.algebraic:
        value *= abs(inv.curve.eval_float(point)) ** _number(lam)
    return value


def c3_exponent(u, shift, b=1.0):
    """Definite integral of dt/(shift + b t + t^2) from 0 to u, branch-selected
    by the sign of 4 shift - b^2, which within a relative 1e-12 counts as a
    double root.  Raises DomainError on a pole inside the integration
    segment, the double root -b/2 included.
    """
    lo, hi = min(0.0, u), max(0.0, u)
    delta = 4.0 * shift - b * b
    tol = 1e-12 * (b * b + 4.0 * abs(shift))
    if delta <= tol:  # real roots, or a double one up to rounding
        r = math.sqrt(max(-delta, 0.0))
        for root in ((-b - r) / 2.0, (-b + r) / 2.0):
            if lo - 1e-12 <= root <= hi + 1e-12:
                raise DomainError(f"pole at t = {root} inside [0, {u}]")
    if abs(delta) <= tol:
        F = lambda t: -2.0 / (2.0 * t + b)
    elif delta > 0.0:
        rt = math.sqrt(delta)
        F = lambda t: 2.0 / rt * math.atan((2.0 * t + b) / rt)
    else:
        rt = math.sqrt(-delta)
        # abs: between the two poles the ratio is negative with constant sign
        F = lambda t: math.log(abs((2.0 * t + b - rt) / (2.0 * t + b + rt))) / rt
    return F(u) - F(0.0)
