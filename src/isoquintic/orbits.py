"""Floating-point verification layer: orbit integration, ray-return timing,
closure checks, the explicit period-annulus boundary, and B-type verdicts.

The symbolic layer proves identities; this module checks that the numbers
agree.  Default integrator is an adaptive embedded 4(5) pair (scipy's RK45)
at tight tolerances; a fixed-step RK4 is kept for order tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .structure import angular_speed_residual, DomainError
from . import quintic

ESCAPE_RADIUS = 1e9


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


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"       # "rk45" | "rk4"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = 0.1
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    config: IntegratorConfig

    def samples(self):
        return list(zip(self.t, self.x, self.y))

    def endpoint(self):
        return float(self.x[-1]), float(self.y[-1])


def compile_rhs(sys):
    """Compile a numeric PlanarSystem into a fast (t, state) -> derivative."""
    def collect(poly):
        out = []
        for (i, j), c in poly.xy_coefficients().items():
            out.append((float(c.constant_value()), i, j))
        return out

    pterms = collect(sys.p)
    qterms = collect(sys.q)

    def rhs(t, state):
        x, y = state
        return (math.fsum(c * x ** i * y ** j for c, i, j in pterms),
                math.fsum(c * x ** i * y ** j for c, i, j in qterms))

    return rhs


def _escape_event(t, state):
    return math.hypot(state[0], state[1]) - ESCAPE_RADIUS


_escape_event.terminal = True


def integrate(sys, x0, y0, t_end, cfg=IntegratorConfig()):
    """Integrate to t_end; trips the divergence guard at |state| = 1e9."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise ValueError("initial point must be finite")
    rhs = compile_rhs(sys)
    if cfg.method == "rk4":
        return _integrate_rk4(rhs, x0, y0, t_end, cfg)
    sol = solve_ivp(rhs, (0.0, t_end), (x0, y0), method="RK45",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
                    events=_escape_event, dense_output=False)
    if sol.status == 1:
        raise EscapedError(float(sol.t_events[0][0]))
    if not sol.success:
        raise StiffnessError(sol.message)
    return Trajectory(sol.t, sol.y[0], sol.y[1], cfg)


def _integrate_rk4(rhs, x0, y0, t_end, cfg):
    n_steps = max(1, math.ceil(t_end / cfg.max_step))
    if n_steps > cfg.max_steps:
        raise StiffnessError("fixed-step budget exceeded")
    h = t_end / n_steps
    ts = [0.0]
    xs = [x0]
    ys = [y0]
    state = np.array((x0, y0), dtype=float)
    t = 0.0
    for _ in range(n_steps):
        k1 = np.array(rhs(t, state))
        k2 = np.array(rhs(t + h / 2, state + h / 2 * k1))
        k3 = np.array(rhs(t + h / 2, state + h / 2 * k2))
        k4 = np.array(rhs(t + h, state + h * k3))
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if math.hypot(*state) > ESCAPE_RADIUS:
            raise EscapedError(t)
        ts.append(t)
        xs.append(float(state[0]))
        ys.append(float(state[1]))
    return Trajectory(np.array(ts), np.array(xs), np.array(ys), cfg)


def ray_return_time(sys, x0, y0, cfg=IntegratorConfig(), t_max=None):
    """Time of first return to the ray through (x0, y0), and the endpoint.

    The system must have constant angular speed (form with x q - y p =
    -(x^2+y^2)); the crossing is located by the solver's root finder on the
    ray's normal coordinate, well below 1e-12 in time.
    """
    if not angular_speed_residual(sys).is_zero:
        raise OrbitError("system is not of the constant-angular-speed form")
    r0 = math.hypot(x0, y0)
    if r0 == 0:
        raise ValueError("initial point must not be the origin")
    ux, uy = x0 / r0, y0 / r0
    if t_max is None:
        t_max = 2.5 * math.pi

    def cross(t, state):
        return -uy * state[0] + ux * state[1]

    # non-terminal: the solver reports a spurious crossing at t = 0, which is
    # filtered out below together with the opposite-ray crossings
    cross.direction = -1.0  # the positive ray is crossed with decreasing normal

    rhs = compile_rhs(sys)
    sol = solve_ivp(rhs, (0.0, t_max), (x0, y0), method="RK45",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
                    events=(cross, _escape_event))
    if sol.t_events[1].size:
        raise EscapedError(float(sol.t_events[1][0]))
    hits = [t for t in sol.t_events[0] if t > 1e-3]
    if not hits:
        raise NoReturnError("no ray return located")
    T = float(hits[0])
    xs, ys = sol.y_events[0][len(sol.t_events[0]) - len(hits)]
    return T, (float(xs), float(ys))


def closure_defect(sys, x0, y0, cfg=IntegratorConfig()):
    """Distance between start and the first ray return; ~0 for a center."""
    _, (xe, ye) = ray_return_time(sys, x0, y0, cfg)
    return math.hypot(xe - x0, ye - y0)


# ----------------------------------------------------------------------
# period-annulus boundary for case (i)

@dataclass
class BoundaryResult:
    phis: np.ndarray
    rhos: np.ndarray          # math.inf at global maximizers
    c0: float
    maximizers: list          # clustered angles of the global maximum


def _case_i_quartic(d, e, g, h):
    def Q(phi):
        c, s = math.cos(phi), math.sin(phi)
        return e * c ** 4 - 4 * d * c ** 3 * s + 4 * h * c * s ** 3 - g * s ** 4
    return Q


def _golden_max(fun, lo, hi, tol=1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
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

    Q is the partner quartic e x^4 - 4 d x^3 y + 4 h x y^3 - g y^4 restricted
    to the unit circle; c0 is its global maximum (dense scan plus golden
    section refinement).  Raises InapplicableBoundaryError when c0 <= 0: the
    formula does not describe the boundary there.
    """
    if N < 64:
        raise ValueError("N must be >= 64")
    d, e, g, h = (float(v) for v in (d, e, g, h))
    Q = _case_i_quartic(d, e, g, h)
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
    c0 = max(v for _, v in peaks)
    winners = sorted(p % (2.0 * math.pi) for p, v in peaks if v >= c0 - 1e-9)
    maximizers = _cluster_angles(winners, 1e-6)

    if c0 <= 1e-12:
        raise InapplicableBoundaryError(
            f"boundary formula inapplicable (c0 = {c0:.6g} <= 0)")

    phis = np.array([2.0 * math.pi * i / N for i in range(N)])
    rhos = np.empty(N)
    for i, phi in enumerate(phis):
        gap = c0 - Q(phi)
        rhos[i] = math.inf if gap < 1e-12 else gap ** -0.25
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


def _eg_verdict(e, g):
    return CenterTypeVerdict("B2" if e * g >= 0 else "B4", "eg-rule")


def center_type(params, case):
    """B-type of a center: the e g sign rule for case (ii) (and for
    case (iii) after numeric rotation), maximizer counting on the explicit
    boundary for case (i)."""
    v = params.fractions()
    tag = case.tag
    if tag is quintic.CaseTag.CASE_II:
        return _eg_verdict(float(v["e"]), float(v["g"]))
    if tag is quintic.CaseTag.CASE_III:
        rot = quintic.rotate_to_canonical(params)
        return _eg_verdict(rot.e1, rot.g1)
    try:
        boundary = boundary_curve(v["d"], v["e"], v["g"], v["h"])
    except InapplicableBoundaryError as exc:
        return CenterTypeVerdict("Unknown", f"inapplicable: {exc}")
    k = len(boundary.maximizers)
    if k in (2, 4):
        return CenterTypeVerdict(f"B{k}", f"maximizers({k})")
    return CenterTypeVerdict("Unknown", f"maximizers({k})")


def conservation_drift(sys, integral, traj):
    """Max relative drift of a first integral along a trajectory."""
    try:
        h0 = integral.eval_float(float(traj.x[0]), float(traj.y[0]))
    except (ZeroDivisionError, ValueError) as exc:
        raise DomainError(f"integral undefined at the initial sample: {exc}")
    if h0 == 0:
        raise DomainError("integral vanishes at the initial sample")
    worst = 0.0
    for x, y in zip(traj.x, traj.y):
        try:
            h = integral.eval_float(float(x), float(y))
        except (ZeroDivisionError, ValueError) as exc:
            raise DomainError(f"integral undefined at ({x}, {y}): {exc}")
        worst = max(worst, abs(h - h0) / abs(h0))
    return worst
