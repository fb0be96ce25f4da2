"""Ancilla-state parameterizations and QFI maximization.

b=1 states are a polar angle on the Bloch sphere (the QFI of either interaction
is invariant under Z rotations, so the azimuth is fixed to 0); the search is an
exhaustive angle scan refined by scipy's bounded scalar search. b=2 states
are searched as raw vectors psi in C^4 from several seeded starts that climb
in lockstep, a quasi-Newton ascent on the exact QFI gradient of
``fisher.qfi_and_gradient`` with one stacked call per round for every start
still searching; it needs no scipy. The optimum is reported in the
five-parameter Schmidt form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .channels import ModelParams
from .collision import check_count, check_measured
from .fisher import qfi_and_gradient, qfi_values, thermal_fi_nbar
# Bound here as well for callers that look it up through this module, such
# as the span wrappers of perfbench/spans.py.
from .fisher import fisher_for  # noqa: F401

TIE_TOL = 1e-9


# Nothing in the package calls this forwarder: it is bound only for the span
# target ("optimize", "minimize") of perfbench/spans.py, whose untraced check
# looks it up in every benchmark run, and goes when the benchmark drops that
# target. It imports scipy.optimize on its first call.
def minimize(*args, **kwargs):
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


@dataclass(frozen=True)
class BlochAngles:
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class SchmidtParams:
    """Two-qubit pure state sqrt(r)|+m,+n> + e^{i alpha} sqrt(1-r)|-m,-n>."""

    r: float
    theta_m: float
    theta_n: float
    phi_n: float
    alpha: float

    def __post_init__(self):
        if not 0.5 <= self.r <= 1.0:
            raise ValueError(f"r must be in [1/2, 1], got {self.r}")
        for name in ("theta_m", "theta_n"):
            v = getattr(self, name)
            if not 0.0 <= v <= math.pi:
                raise ValueError(f"{name} must be in [0, pi], got {v}")
        for name in ("phi_n", "alpha"):
            v = getattr(self, name)
            if not 0.0 <= v < 2.0 * math.pi:
                raise ValueError(f"{name} must be in [0, 2pi), got {v}")


@dataclass(frozen=True)
class Optimum:
    argmax: object
    value_nbar: float
    evaluations: int


def bloch_state(angles: BlochAngles) -> np.ndarray:
    t = angles.theta
    return np.array([math.cos(t / 2.0), math.sin(t / 2.0)], dtype=complex)


def _local_basis(theta: float, phi: float):
    """(|+k>, |-k>) for the qubit Bloch direction (theta, phi)."""
    c, sn = math.cos(theta / 2.0), math.sin(theta / 2.0)
    phase = complex(math.cos(phi), math.sin(phi))
    return (np.array([c, phase * sn]), np.array([phase.conjugate() * sn, -c]))


def schmidt_state(p: SchmidtParams) -> np.ndarray:
    """sqrt(r)|+m,+n> + e^{i alpha} sqrt(1-r)|-m,-n> with the local bases of
    Bloch directions (theta_m, 0) and (theta_n, phi_n)."""
    plus_m, minus_m = _local_basis(p.theta_m, 0.0)
    plus_n, minus_n = _local_basis(p.theta_n, p.phi_n)
    psi = (math.sqrt(p.r) * np.kron(plus_m, plus_n)
           + np.exp(1j * p.alpha) * math.sqrt(1.0 - p.r)
           * np.kron(minus_m, minus_n))
    return psi / np.linalg.norm(psi)


def _phase(z: complex) -> float:
    """Argument of z in [0, 2pi)."""
    a = float(np.angle(z)) % (2.0 * math.pi)
    return a if a < 2.0 * math.pi else 0.0


def _schmidt_params(psi: np.ndarray) -> SchmidtParams:
    """Schmidt form of a normalized two-qubit state, up to a collective Z
    rotation and a global phase, which leave the QFI unchanged.

    From the SVD psi = sum_k s_k u_k (x) v_k: r = s_0^2; the rotation takes
    u_0 to the (theta_m, 0) direction, the global phase makes
    <+m,+n|psi> > 0, and alpha is the phase of <-m,-n|psi> (0 when s_1 = 0).
    """
    u, s, vh = np.linalg.svd(psi.reshape(2, 2))
    # Rotating both qubits by d maps the SVD to (d u) s (vh d).
    d = np.array([1.0, np.exp(-1j * (np.angle(u[1, 0]) - np.angle(u[0, 0])))])
    u0, v0 = d * u[:, 0], vh[0] * d
    theta_m = 2.0 * math.atan2(abs(u0[1]), abs(u0[0]))
    theta_n = 2.0 * math.atan2(abs(v0[1]), abs(v0[0]))
    phi_n = _phase(v0[1] * v0[0].conjugate())
    alpha = 0.0
    if s[1] != 0.0:
        psi = np.kron(d, d) * psi
        plus_m, minus_m = _local_basis(theta_m, 0.0)
        plus_n, minus_n = _local_basis(theta_n, phi_n)
        alpha = _phase(np.vdot(np.kron(minus_m, minus_n), psi)
                       * np.vdot(psi, np.kron(plus_m, plus_n)))
    return SchmidtParams(r=float(s[0] ** 2 / (s @ s)), theta_m=theta_m,
                         theta_n=theta_n, phi_n=phi_n, alpha=alpha)


def refine_grid_max(f, grid, values, xatol: float):
    """Refine the maximum of f found by a scan: ``values`` are f on the
    sorted ``grid``, and the bracket around their first argmax is searched
    with scipy's bounded scalar search. The refined point wins only when its
    value is strictly larger. Returns (x, f(x), refinement evaluations), or
    (nan, nan, 0) when the scan holds a NaN: no maximum was found."""
    i = int(np.argmax(values))
    if math.isnan(values[i]):
        return math.nan, math.nan, 0
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda x: -f(x), method="bounded",
                          bounds=(grid[max(i - 1, 0)],
                                  grid[min(i + 1, len(grid) - 1)]),
                          options={"xatol": xatol})
    if -res.fun > values[i]:
        return float(res.x), float(-res.fun), res.nfev
    return float(grid[i]), float(values[i]), res.nfev


def optimize_b1(params: ModelParams, n_measured: int) -> Optimum:
    """Maximize QFI over the single-ancilla polar angle: a 181-point scan
    over [0, pi], stacked into one ``qfi_values`` call, then refinement of
    the bracket around its maximum to 1e-6 in theta, one single-row call of
    the same evaluator per step."""
    def scan(thetas):
        psi = np.array([bloch_state(BlochAngles(float(t))) for t in thetas])
        return qfi_values(params, psi, n_measured)

    thetas = np.linspace(0.0, math.pi, 181)
    theta, value, nfev = refine_grid_max(lambda t: scan([t])[0], thetas,
                                         scan(thetas), 1e-6)
    return Optimum(argmax=BlochAngles(theta=theta), value_nbar=value,
                   evaluations=len(thetas) + nfev)


# The seeded starts: product and Bell corners.
_G, _E, _X = qmat.KET_G, qmat.KET_E, qmat.KET_PLUS_X
_B2_SEEDS = (
    np.kron(_G, _G), np.kron(_G, _X), np.kron(_X, _G), np.kron(_X, _X),
    np.kron(_G, _E), np.kron(_E, _G),
    (np.kron(_G, _G) + np.kron(_E, _E)) / math.sqrt(2.0),
    np.kron(bloch_state(BlochAngles(math.pi / 4)), _G),
)

# The b=2 ascent: FTOL and GTOL are scipy's L-BFGS-B stopping rules at values
# well below its defaults, which stop ~1e-9 short of the optimum; ARMIJO is
# the line search's sufficient-decrease constant; a search fails after
# MAX_BACKTRACKS shrinks, and a row stops after MAX_ITERATIONS steps.
_FTOL, _GTOL = 1e-12, 1e-9
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_MAX_ITERATIONS = 200


def _b2_starts(seed: int, n_random_starts: int) -> np.ndarray:
    """The seeded corners, then ``n_random_starts`` normalized
    complex-Gaussian states drawn from ``seed``: an (S, 4) stack."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_random_starts, 2, 4))
    randoms = z[:, 0] + 1j * z[:, 1]
    return np.concatenate(
        [_B2_SEEDS, randoms / np.linalg.norm(randoms, axis=1, keepdims=True)])


def _ascend(params: ModelParams, n_measured: int, psi0: np.ndarray):
    """Climb the QFI from every row of the (S, 4) stack ``psi0`` at once.

    Each start is a row x in R^8, psi = x[:4] + i x[4:], on the unit sphere,
    minimizing f = -QFI / (N F_th(nbar)) by BFGS with a dense inverse
    Hessian, first scaled by s.y / y.y; an update with s.y <= 0 is skipped.
    Each round makes one stacked ``qfi_and_gradient`` call on the rows still
    searching, each at the trial point of a backtracking Armijo search. A
    row's first trial moves x by 1 along -g; later searches start from
    step 1, doubled after an accepted step along which f curves down, and
    no trial moves x by more than 1. An accepted point is put back on the
    sphere, and as f is blind to the norm, its gradient is taken there;
    the gradient and each secant pair (s, y) are kept tangent to the sphere
    at the new point. A row stops on a relative reduction <= FTOL, on
    max|g| <= GTOL, on a failed search, on the iteration cap or on a
    non-finite value, which leaves it at its last finite point. Returns each
    row's final state, its QFI and the number of state rows evaluated.
    """
    # Unscaled, the QFI at large nbar is ~1e-5 and the search meets its
    # absolute tolerances far from the optimum.
    scale = n_measured * thermal_fi_nbar(params.nbar)

    def evaluate(x):
        """f and its gradient tangent to the sphere at the unit rows of x."""
        psi = x[:, :4] + 1j * x[:, 4:]
        value, g = qfi_and_gradient(params, psi, n_measured)
        g_psi = (g @ psi[:, :, None])[:, :, 0]
        grad = np.concatenate([g_psi.real, g_psi.imag], axis=1)
        grad -= (grad * x).sum(axis=1, keepdims=True) * x
        return -value / scale, (-2.0 / scale) * grad

    x_out = np.concatenate([psi0.real, psi0.imag], axis=1)
    f_out, g = evaluate(x_out)
    evaluations = len(x_out)
    # The state of the rows still searching; row j is start rows[j].
    rows = np.flatnonzero(np.isfinite(f_out) & (np.abs(g).max(axis=1) > _GTOL))
    x, f, g = x_out[rows], f_out[rows], g[rows]
    hess = np.tile(np.eye(8), (len(rows), 1, 1))
    scaled = np.zeros(len(rows), bool)
    iterations = np.zeros(len(rows), int)
    backtracks = np.zeros(len(rows), int)
    d = -g
    slope = (g * d).sum(axis=1)
    step = 1.0 / np.sqrt(-slope)
    while len(rows):
        trial = x + step[:, None] * d
        trial /= np.sqrt((trial * trial).sum(axis=1, keepdims=True))
        ft, gt = evaluate(trial)
        evaluations += len(rows)
        finite = np.isfinite(ft)
        ok = finite & (ft <= f + _ARMIJO * step * slope)
        # A rejected step shrinks to the minimizer of the quadratic through
        # f, the slope and the trial value, kept within [0.1, 0.5] of it.
        curve = np.where(ok | ~finite, 1.0, ft - f - slope * step)
        shrunk = np.clip(-0.5 * slope * step * step / curve,
                         0.1 * step, 0.5 * step)
        backtracks = np.where(ok, 0, backtracks + 1)

        s, y = trial - x, gt - g
        s -= (s * trial).sum(axis=1, keepdims=True) * trial
        y -= (y * trial).sum(axis=1, keepdims=True) * trial
        sy = (s * y).sum(axis=1)
        update = ok & (sy > 0.0)
        # Where f curves down along an accepted step, as off a saddle, the
        # update is skipped and H stays as it was, so without the doubling
        # the row would crawl with the same short steps.
        step = np.where(ok, np.where(update, 1.0, 2.0 * step), shrunk)
        first = update & ~scaled
        yy = np.where(first, (y * y).sum(axis=1), 1.0)
        hess *= np.where(first, sy / yy, 1.0)[:, None, None]
        scaled |= update
        # H += s v^T + v s^T is the BFGS update of the inverse Hessian.
        rho = np.where(update, 1.0 / np.where(update, sy, 1.0), 0.0)
        hy = (hess @ y[:, :, None])[:, :, 0]
        v = (0.5 * rho * (1.0 + rho * (y * hy).sum(axis=1)))[:, None] * s \
            - rho[:, None] * hy
        vs = v[:, :, None] * s[:, None, :]
        hess += vs + vs.swapaxes(1, 2)

        reduction = (f - ft) / np.maximum(np.maximum(np.abs(f), np.abs(ft)),
                                          1.0)
        x = np.where(ok[:, None], trial, x)
        f = np.where(ok, ft, f)
        g = np.where(ok[:, None], gt, g)
        iterations += ok
        d = np.where(ok[:, None], -(hess @ g[:, :, None])[:, :, 0], d)
        slope = (g * d).sum(axis=1)
        # On the unit sphere a longer move than 1 only wraps around.
        step /= np.maximum(1.0, step * np.sqrt((d * d).sum(axis=1)))
        stop = ~finite | (backtracks > _MAX_BACKTRACKS) | ok & (
            (reduction <= _FTOL) | (np.abs(g).max(axis=1) <= _GTOL)
            | (iterations >= _MAX_ITERATIONS) | (slope >= 0.0))
        if stop.any():
            x_out[rows[stop]], f_out[rows[stop]] = x[stop], f[stop]
            keep = ~stop
            rows, x, f, g, d, slope, step = (
                rows[keep], x[keep], f[keep], g[keep], d[keep], slope[keep],
                step[keep])
            hess, scaled, iterations, backtracks = (
                hess[keep], scaled[keep], iterations[keep], backtracks[keep])
    return x_out[:, :4] + 1j * x_out[:, 4:], -scale * f_out, evaluations


def optimize_b2(params: ModelParams, n_measured: int, seed: int = 0,
                n_random_starts: int = 8) -> Optimum:
    """Maximize QFI over the two-qubit block states of a b=2 block.

    The search runs over x in R^8, psi = (x[:4] + i x[4:]) / |.|, so it needs
    no bounds. The starts are the seeded corners plus ``n_random_starts``
    complex-Gaussian states from ``seed``, and they climb together: each
    round of the quasi-Newton ascent ``_ascend`` takes the QFI and its exact
    gradient for every start still searching from one stacked
    ``qfi_and_gradient`` call. Among optima within ``TIE_TOL`` relative, the
    one with the larger Schmidt weight r wins. It is reported in Schmidt
    form; ``evaluations`` counts the state rows evaluated, each one value
    and its gradient.
    """
    check_measured(n_measured, 2)
    check_count(seed, "seed")
    check_count(n_random_starts, "n_random_starts")
    finals, values, evaluations = _ascend(
        params, n_measured, _b2_starts(seed, n_random_starts))
    best, best_val = None, -math.inf
    for psi, val in zip(finals, values):
        found = _schmidt_params(psi)
        # Ties are relative: at nbar=10, gamma_tau=1 the QFI is ~4e-5, and
        # the |g,g> corner, 1.8e-5 relative below the optimum, would tie
        # with it under an absolute TIE_TOL.
        if val > best_val * (1.0 + TIE_TOL) or (val > best_val * (1.0 - TIE_TOL)
                                                and best is not None
                                                and found.r > best.r):
            best, best_val = found, float(val)
    return Optimum(argmax=best, value_nbar=best_val, evaluations=evaluations)
