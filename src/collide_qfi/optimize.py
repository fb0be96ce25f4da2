"""Ancilla-state parameterizations and derivative-free QFI maximization.

b=1 states are a polar angle on the Bloch sphere (the exchange interaction is
invariant under Z rotations, so the azimuth is fixed to 0). b=2 states use a
five-parameter Schmidt decomposition. The b=1 search is an exhaustive angle
scan refined by golden section; the b=2 search is multi-start Nelder-Mead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import Interaction, ModelParams
from .collision import AncillaBlock
from .fisher import fisher_for

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TIE_TOL = 1e-9


@dataclass(frozen=True)
class BlochAngles:
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must be in [0, 2pi), got {self.phi}")


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
    t, p = angles.theta, angles.phi
    return np.array([math.cos(t / 2.0),
                     np.exp(1j * p) * math.sin(t / 2.0)], dtype=complex)


def _bloch_pair(theta: float, phi: float):
    """Orthonormal basis (|+k>, |-k>) for Bloch direction (theta, phi)."""
    plus = np.array([math.cos(theta / 2.0),
                     np.exp(1j * phi) * math.sin(theta / 2.0)], dtype=complex)
    minus = np.array([np.exp(-1j * phi) * math.sin(theta / 2.0),
                      -math.cos(theta / 2.0)], dtype=complex)
    return plus, minus


def schmidt_state(p: SchmidtParams) -> np.ndarray:
    plus_m, minus_m = _bloch_pair(p.theta_m, 0.0)
    plus_n, minus_n = _bloch_pair(p.theta_n, p.phi_n)
    psi = (math.sqrt(p.r) * np.outer(plus_m, plus_n).ravel()
           + np.exp(1j * p.alpha) * math.sqrt(1.0 - p.r)
           * np.outer(minus_m, minus_n).ravel())
    return psi / np.linalg.norm(psi)


def _qfi_of_theta(params: ModelParams, n_measured: int, theta: float) -> float:
    block = AncillaBlock(b=1, psi=bloch_state(BlochAngles(theta)))
    return fisher_for(params, block, n_measured).value_nbar


def optimize_b1(params: ModelParams, n_measured: int,
                scan_points: int = 181, refine_tol: float = 1e-6) -> Optimum:
    """Maximize QFI over the single-ancilla polar angle.

    Coarse uniform scan over [0, pi] followed by golden-section refinement of
    the bracketing interval.
    """
    if params.interaction is not Interaction.EXCHANGE:
        raise ValueError("b=1 optimization is defined for the exchange interaction")
    if not 1 <= n_measured <= 4:
        raise ValueError("n_measured must be in 1..4")
    evals = 0

    def f(theta):
        nonlocal evals
        evals += 1
        return _qfi_of_theta(params, n_measured, theta)

    thetas = np.linspace(0.0, math.pi, scan_points)
    values = np.array([f(t) for t in thetas])
    best = int(np.argmax(values))  # first max wins: smaller theta on ties

    lo = thetas[max(best - 1, 0)]
    hi = thetas[min(best + 1, scan_points - 1)]
    # Golden-section on [lo, hi]; the scan guarantees a bracket.
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > refine_tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    theta_ref = x1 if f1 >= f2 else x2
    val_ref = max(f1, f2)

    theta_opt, val_opt = thetas[best], values[best]
    if val_ref > val_opt + TIE_TOL or (val_ref > val_opt - TIE_TOL
                                       and theta_ref < theta_opt):
        theta_opt, val_opt = theta_ref, val_ref
    return Optimum(argmax=BlochAngles(theta=float(theta_opt)),
                   value_nbar=float(val_opt), evaluations=evals)


_B2_BOUNDS = [(0.5, 1.0), (0.0, math.pi), (0.0, math.pi),
              (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)]

# (r, theta_m, theta_n, phi_n, alpha) for the seeded product/Bell corners.
_B2_SEEDS = [
    (1.0, 0.0, 0.0, 0.0, 0.0),                  # |g,g>
    (1.0, 0.0, math.pi / 2, 0.0, 0.0),          # |g,+x>
    (1.0, math.pi / 2, 0.0, 0.0, 0.0),          # |+x,g>
    (1.0, math.pi / 2, math.pi / 2, 0.0, 0.0),  # |+x,+x>
    (1.0, 0.0, math.pi, 0.0, 0.0),              # |g,e>
    (1.0, math.pi, 0.0, 0.0, 0.0),              # |e,g>
    (0.5, 0.0, 0.0, 0.0, 0.0),                  # Bell (|gg>+|ee>)/sqrt(2)
    (1.0, math.pi / 4, 0.0, 0.0, 0.0),          # |psi(pi/4)> (x) |g>
]


_B2_LO = np.array([b[0] for b in _B2_BOUNDS])
_B2_HI = np.array([b[1] for b in _B2_BOUNDS])


def _clip_to_bounds(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, _B2_LO), _B2_HI)


def _schmidt_from_vector(x: np.ndarray) -> SchmidtParams:
    r, tm, tn, pn, al = _clip_to_bounds(np.asarray(x, dtype=float))
    return SchmidtParams(r=float(r), theta_m=float(tm), theta_n=float(tn),
                         phi_n=float(min(pn, 2 * math.pi - 1e-15)),
                         alpha=float(min(al, 2 * math.pi - 1e-15)))


def optimize_b2(params: ModelParams, n_measured: int, seed: int = 0,
                n_random_starts: int = 64) -> Optimum:
    """Maximize QFI over the five Schmidt parameters of a b=2 block.

    Multi-start Nelder-Mead (standard reflection/expansion/contraction
    coefficients, shrink 1/2) from seeded corners plus uniform-random starts.
    """
    if params.interaction is not Interaction.EXCHANGE:
        raise ValueError("b=2 optimization is defined for the exchange interaction")
    if n_measured not in (2, 4):
        raise ValueError("n_measured must be 2 or 4 for b=2 blocks")
    evals = 0

    def objective(x):
        nonlocal evals
        evals += 1
        block = AncillaBlock(b=2, psi=schmidt_state(_schmidt_from_vector(x)))
        return -fisher_for(params, block, n_measured).value_nbar

    rng = np.random.default_rng(seed)
    starts = [np.array(s) for s in _B2_SEEDS]
    starts += [_B2_LO + rng.random(5) * (_B2_HI - _B2_LO)
               for _ in range(n_random_starts)]

    best_x, best_val = None, -math.inf
    for x0 in starts:
        res = minimize(objective, x0, method="Nelder-Mead", bounds=_B2_BOUNDS,
                       options={"xatol": 1e-7, "fatol": 1e-7,
                                "maxiter": 200 * 5, "maxfev": 200 * 5})
        val = -res.fun
        x = _clip_to_bounds(res.x)
        if val > best_val + TIE_TOL or (val > best_val - TIE_TOL
                                        and best_x is not None
                                        and x[0] > best_x[0]):
            best_x, best_val = x, val
    return Optimum(argmax=_schmidt_from_vector(best_x),
                   value_nbar=float(best_val), evaluations=evals)
