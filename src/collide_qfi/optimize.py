"""Ancilla-state parameterizations and derivative-free QFI maximization.

b=1 states are a polar angle on the Bloch sphere (the exchange interaction is
invariant under Z rotations, so the azimuth is fixed to 0). b=2 states use a
five-parameter Schmidt decomposition. The b=1 search is an exhaustive angle
scan refined by golden section; the b=2 search is multi-start Nelder-Mead,
with every start stepped in lock-step so that each simplex step evaluates all
starts in one stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Bound here for callers that look it up through this module, such as the
# span wrappers of perfbench/spans.py; the search below does not use it.
from scipy.optimize import minimize  # noqa: F401

from .channels import Interaction, ModelParams
from .collision import AncillaBlock
from .fisher import fisher_for, qfi_values

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


def _schmidt_states(x: np.ndarray) -> np.ndarray:
    """Two-qubit states for an (M, 5) stack of Schmidt vectors (r, theta_m,
    theta_n, phi_n, alpha), clipped into the parameter bounds, as (M, 4).

    Per row, sqrt(r)|+m,+n> + e^{i alpha} sqrt(1-r)|-m,-n> with the local
    bases (|+k>, |-k>) of Bloch directions (theta_m, 0) and (theta_n, phi_n).
    """
    r, tm, tn, pn, al = _clip_to_bounds(np.asarray(x, dtype=float)).T
    al = np.minimum(al, _TWO_PI_OPEN)
    cm, sm = np.cos(tm / 2.0), np.sin(tm / 2.0)
    cn, sn = np.cos(tn / 2.0), np.sin(tn / 2.0)
    phase = np.exp(1j * np.minimum(pn, _TWO_PI_OPEN)) * sn
    # basis[row, component, k]: column k=0 is |+k>, k=1 is |-k>
    basis_m = np.array([[cm, sm], [sm, -cm]]).transpose(2, 0, 1)
    basis_n = np.array([[cn, phase.conj()], [phase, -cn]]).transpose(2, 0, 1)
    weights = np.array([np.sqrt(r), np.exp(1j * al) * np.sqrt(1.0 - r)]).T
    psi = ((basis_m * weights[:, None, :]) @ basis_n.transpose(0, 2, 1)
           ).reshape(-1, 4)
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def schmidt_state(p: SchmidtParams) -> np.ndarray:
    return _schmidt_states(
        np.array([[p.r, p.theta_m, p.theta_n, p.phi_n, p.alpha]]))[0]


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
    # The whole scan is one stacked evaluation.
    psi = np.array([bloch_state(BlochAngles(float(t))) for t in thetas])
    values = qfi_values(params, 1, psi, n_measured)
    evals += scan_points
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
_TWO_PI_OPEN = 2 * math.pi - 1e-15

# Nelder-Mead as in scipy.optimize.minimize(method="Nelder-Mead",
# bounds=_B2_BOUNDS): reflection, expansion, contraction and shrink
# coefficients, initial simplex steps, and the stopping rules.
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1.0, 2.0, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_XATOL = _NM_FATOL = 1e-7
_NM_MAXITER = _NM_MAXFEV = 200 * 5


def _clip_to_bounds(x: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(x, _B2_LO), _B2_HI)


def _schmidt_from_vector(x: np.ndarray) -> SchmidtParams:
    r, tm, tn, pn, al = _clip_to_bounds(np.asarray(x, dtype=float))
    return SchmidtParams(r=float(r), theta_m=float(tm), theta_n=float(tn),
                         phi_n=float(min(pn, _TWO_PI_OPEN)),
                         alpha=float(min(al, _TWO_PI_OPEN)))


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray):
    ind = np.argsort(fsim, axis=1)
    return (np.take_along_axis(sim, ind[:, :, None], 1),
            np.take_along_axis(fsim, ind, 1))


def _nelder_mead(f, x0: np.ndarray):
    """Bounded Nelder-Mead from every row of the (S, 5) array ``x0`` at once.

    ``f`` maps an (M, 5) stack of points to their M values. Each start
    follows scipy's ``_minimize_neldermead`` step for step, so it reaches
    the same points and values as a serial run on the same objective; the
    starts only share the calls to ``f``. An iteration makes at most three:
    the reflections of every running start, then their expansions and
    contractions, then their shrinks. A start that reaches the evaluation
    limit inside an iteration stops there as scipy's does: a pending
    reflection is dropped and a shrink keeps the vertices it already moved.
    Returns the best vertex, its value and the evaluation count per start.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), _B2_LO, _B2_HI)
    starts, n = x0.shape
    k = np.arange(n)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NM_NONZDELT) * x0, _NM_ZDELT)
    # Steps past the upper bound reflect into the interior, then clip.
    sim = np.clip(np.where(sim > _B2_HI, 2 * _B2_HI - sim, sim), _B2_LO, _B2_HI)
    # One call per vertex keeps each stacked call at one row per start.
    fsim = np.stack([f(sim[:, j]) for j in range(n + 1)], axis=1)
    nfev = np.full(starts, n + 1)
    iterations = np.ones(starts, dtype=int)
    # scipy sorts once after the first evaluations and once before its loop.
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))
    running = np.ones(starts, dtype=bool)
    while True:
        running &= (nfev < _NM_MAXFEV) & (iterations < _NM_MAXITER)
        idx = np.flatnonzero(running)
        s, fs = sim[idx], fsim[idx]
        converged = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _NM_XATOL)
                     & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= _NM_FATOL))
        running[idx[converged]] = False
        idx, s, fs = idx[~converged], s[~converged], fs[~converged]
        if not idx.size:
            break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = np.clip((1 + _NM_RHO) * xbar - _NM_RHO * worst, _B2_LO, _B2_HI)
        fxr = f(xr)
        nfev[idx] += 1

        expand = fxr < fs[:, 0]
        accept = ~expand & (fxr < fs[:, -2])
        outside = ~expand & ~accept & (fxr < fs[:, -1])
        completed = accept | (nfev[idx] < _NM_MAXFEV)
        # The worst vertex is replaced by the reflection unless a second
        # point wins, or not at all when the start shrinks.
        new_x, new_f, replace = xr, fxr, accept.copy()

        second = np.flatnonzero(~accept & completed)
        if second.size:
            xb, w = xbar[second], worst[second]
            exp2, out2 = expand[second, None], outside[second, None]
            x2 = np.where(
                exp2, (1 + _NM_RHO * _NM_CHI) * xb - _NM_RHO * _NM_CHI * w,
                np.where(out2, (1 + _NM_PSI * _NM_RHO) * xb - _NM_PSI * _NM_RHO * w,
                         (1 - _NM_PSI) * xb + _NM_PSI * w))
            x2 = np.clip(x2, _B2_LO, _B2_HI)
            f2 = f(x2)
            nfev[idx[second]] += 1
            e, o, fr = expand[second], outside[second], fxr[second]
            take2 = np.where(e, f2 < fr,
                             np.where(o, f2 <= fr, f2 < fs[second, -1]))
            new_x[second[take2]] = x2[take2]
            new_f[second[take2]] = f2[take2]
            replace[second[take2 | e]] = True
            shrink = second[~take2 & ~e]
        else:
            shrink = second
        s[replace, -1] = new_x[replace]
        fs[replace, -1] = new_f[replace]

        if shrink.size:
            best = s[shrink, :1]
            moved = np.clip(best + _NM_SIGMA * (s[shrink, 1:] - best),
                            _B2_LO, _B2_HI)
            # The vertex at which the evaluation limit interrupts a shrink
            # is moved but keeps its old value.
            left = _NM_MAXFEV - nfev[idx[shrink]]
            evaluated = k[None, :] < left[:, None]
            reached = k[None, :] <= left[:, None]
            tail = s[shrink, 1:]
            tail[reached] = moved[reached]
            ftail = fs[shrink, 1:]
            if evaluated.any():
                ftail[evaluated] = f(moved[evaluated])
            s[shrink, 1:], fs[shrink, 1:] = tail, ftail
            nfev[idx[shrink]] += evaluated.sum(axis=1)
            completed[shrink[left < n]] = False
        iterations[idx[completed]] += 1
        sim[idx], fsim[idx] = _sort_simplices(s, fs)
    return sim[:, 0], fsim.min(axis=1), nfev


def optimize_b2(params: ModelParams, n_measured: int, seed: int = 0,
                n_random_starts: int = 64) -> Optimum:
    """Maximize QFI over the five Schmidt parameters of a b=2 block.

    Multi-start Nelder-Mead (standard reflection/expansion/contraction
    coefficients, shrink 1/2) from seeded corners plus uniform-random starts,
    all starts stepped in lock-step on stacked QFI evaluations.
    """
    if params.interaction is not Interaction.EXCHANGE:
        raise ValueError("b=2 optimization is defined for the exchange interaction")
    if n_measured not in (2, 4):
        raise ValueError("n_measured must be 2 or 4 for b=2 blocks")

    def objective(x):
        return -qfi_values(params, 2, _schmidt_states(x), n_measured)

    rng = np.random.default_rng(seed)
    starts = [np.array(s) for s in _B2_SEEDS]
    starts += [_B2_LO + rng.random(5) * (_B2_HI - _B2_LO)
               for _ in range(n_random_starts)]
    xs, funs, nfev = _nelder_mead(objective, np.array(starts))

    best_x, best_val = None, -math.inf
    for x, fun in zip(xs, funs):
        val = -fun
        x = _clip_to_bounds(x)
        if val > best_val + TIE_TOL or (val > best_val - TIE_TOL
                                        and best_x is not None
                                        and x[0] > best_x[0]):
            best_x, best_val = x, val
    return Optimum(argmax=_schmidt_from_vector(best_x),
                   value_nbar=float(best_val), evaluations=int(nfev.sum()))
