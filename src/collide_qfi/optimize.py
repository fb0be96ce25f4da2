"""Ancilla-state parameterizations and QFI maximization.

b=1 states are a polar angle on the Bloch sphere (the QFI of either interaction
is invariant under Z rotations, so the azimuth is fixed to 0); the search is an
exhaustive angle scan refined by scipy's bounded scalar search. b=2 states
are searched as raw vectors psi in C^4 with scipy's L-BFGS-B from several
seeded starts, on the exact QFI gradient of ``fisher.qfi_and_gradient``, and
the optimum is reported in the five-parameter Schmidt form.
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


# scipy.optimize, with the scipy.linalg it pulls in, takes most of the
# package's import time, and only the optimizers need it, so it is imported
# on the first call. As a module attribute, this forwarder can be rebound.
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


def optimize_b2(params: ModelParams, n_measured: int, seed: int = 0,
                n_random_starts: int = 8) -> Optimum:
    """Maximize QFI over the two-qubit block states of a b=2 block.

    The search runs over x in R^8, psi = (x[:4] + i x[4:]) / |.|, so it needs
    no bounds. Each start is one L-BFGS-B run on -QFI / (N F_th(nbar)); each
    objective call takes the value and its exact gradient from one
    ``qfi_and_gradient`` call on psi, and the radial part of the gradient,
    which only rescales x, is projected out. The starts are the seeded
    corners plus ``n_random_starts`` complex-Gaussian states from ``seed``.
    Among optima within ``TIE_TOL`` relative, the one with the larger
    Schmidt weight r wins. It is reported in Schmidt form; ``evaluations``
    counts objective calls, each one value and its gradient.
    """
    check_measured(n_measured, 2)
    check_count(seed, "seed")
    check_count(n_random_starts, "n_random_starts")
    # Unscaled, the QFI at large nbar is ~1e-5 and the search meets its
    # absolute tolerances far from the optimum.
    scale = n_measured * thermal_fi_nbar(params.nbar)

    def objective(x):
        psi = x[:4] + 1j * x[4:]
        norm = np.linalg.norm(psi)
        psi /= norm
        value, g = qfi_and_gradient(params, psi[None], n_measured)
        grad = 2.0 * g[0] @ psi
        grad -= np.vdot(psi, grad).real * psi
        grad /= -scale * norm
        return -value[0] / scale, np.concatenate([grad.real, grad.imag])

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_random_starts, 2, 4))
    randoms = z[:, 0] + 1j * z[:, 1]
    starts = list(_B2_SEEDS) + list(
        randoms / np.linalg.norm(randoms, axis=1, keepdims=True))

    best, best_val, nfev = None, -math.inf, 0
    for psi0 in starts:
        # ftol/gtol well below scipy's defaults: those stop ~1e-9 short of
        # the optimum.
        res = minimize(objective, np.concatenate([psi0.real, psi0.imag]),
                       jac=True, method="L-BFGS-B",
                       options={"ftol": 1e-12, "gtol": 1e-9})
        nfev += res.nfev
        psi = res.x[:4] + 1j * res.x[4:]
        found = _schmidt_params(psi / np.linalg.norm(psi))
        val = -float(res.fun) * scale
        # Ties are relative: at nbar=10, gamma_tau=1 the QFI is ~4e-5, and
        # the |g,g> corner, 1.8e-5 relative below the optimum, would tie
        # with it under an absolute TIE_TOL.
        if val > best_val * (1.0 + TIE_TOL) or (val > best_val * (1.0 - TIE_TOL)
                                                and best is not None
                                                and found.r > best.r):
            best, best_val = found, val
    return Optimum(argmax=best, value_nbar=best_val, evaluations=nfev)
