"""Closed forms for the ZZ indirect-measurement protocol.

With the system pinned to its Gibbs fixed point, the N-ancilla measurement
record is a Markov chain over ground/excited outcomes, and the QFI follows an
arithmetic progression F_N = F_1 + (N-1)*Delta, where Delta is built from the
bath-induced transition probabilities between collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fisher import thermal_fi_nbar


@dataclass(frozen=True)
class ZzProbabilities:
    """Gibbs populations and between-collision transition probabilities."""

    p_g: float
    p_e: float
    p_gg: float  # stay in |g>
    p_eg: float  # jump |e> -> |g>
    big_gamma: float


def _require_finite(nbar: float, gamma_tau: float) -> None:
    for name, value in (("nbar", nbar), ("gamma_tau", gamma_tau)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def zz_probs(nbar: float, gamma_tau: float) -> ZzProbabilities:
    _require_finite(nbar, gamma_tau)
    if nbar < 0 or gamma_tau < 0:
        raise ValueError("nbar and gamma_tau must be nonnegative")
    big_gamma = gamma_tau * (2.0 * nbar + 1.0)
    p_g = (nbar + 1.0) / (2.0 * nbar + 1.0)
    p_e = 1.0 - p_g
    decay = 1.0 - math.exp(-big_gamma)
    return ZzProbabilities(
        p_g=p_g, p_e=p_e,
        p_gg=1.0 - decay * p_e,
        p_eg=decay * p_g,
        big_gamma=big_gamma,
    )


def zz_f1(nbar: float, g_tau_sa: float) -> float:
    """Single-ancilla QFI for a |+x> probe, as a function of the collision angle."""
    return 0.5 * (1.0 - math.cos(2.0 * g_tau_sa)) * thermal_fi_nbar(nbar)


def _transition_derivatives(nbar: float, gamma_tau: float):
    """Analytic d p_{k->g} / d nbar via the chain rule through Gamma and p_g."""
    q = 2.0 * nbar + 1.0
    p_e = nbar / q
    p_g = 1.0 - p_e
    dp_g = -1.0 / q ** 2
    dp_e = -dp_g
    big_gamma = gamma_tau * q
    e = math.exp(-big_gamma)
    dgamma = 2.0 * gamma_tau
    # p_gg = 1 - (1 - e^-G) p_e ; p_eg = (1 - e^-G) p_g
    dp_gg = -(e * dgamma * p_e + (1.0 - e) * dp_e)
    dp_eg = e * dgamma * p_g + (1.0 - e) * dp_g
    return dp_gg, dp_eg


def zz_delta(nbar: float, gamma_tau: float) -> float:
    """Per-ancilla collective increment Delta, in nbar units."""
    if nbar <= 0:
        raise ValueError("nbar must be > 0")
    if gamma_tau <= 0:
        raise ValueError("gamma_tau must be > 0 (no transitions, Delta undefined)")
    probs = zz_probs(nbar, gamma_tau)
    dp_gg, dp_eg = _transition_derivatives(nbar, gamma_tau)
    terms = [
        (probs.p_g, probs.p_gg, dp_gg),
        (probs.p_e, probs.p_eg, dp_eg),
    ]
    total = 0.0
    for p_k, p_kg, dp_kg in terms:
        p_ke = 1.0 - p_kg
        if p_kg * p_ke == 0.0:
            raise ValueError("degenerate transition probabilities")
        total += p_k / (p_kg * p_ke) * dp_kg ** 2
    return total


def zz_fn(nbar: float, gamma_tau: float, n_measured: int) -> float:
    """N-ancilla QFI of the |+x> protocol at the optimal collision angle."""
    _require_finite(nbar, gamma_tau)
    if n_measured < 1:
        raise ValueError("n_measured must be >= 1")
    f1 = zz_f1(nbar, math.pi / 2.0)
    if n_measured == 1:
        return f1
    return f1 + (n_measured - 1) * zz_delta(nbar, gamma_tau)


def appendix_f(x: float, dx: float) -> float:
    """f(x) = (dx)^2 / x for an outcome probability x with derivative dx."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    return dx * dx / x


def appendix_g(x: float, dx: float, y: float, dy: float) -> float:
    """g(x, y) = f(xy) + f(x(1-y)) with product-rule derivatives.

    Satisfies g(x, y) = f(x) + (x / (y(1-y))) * dy^2.
    """
    if not 0.0 < x < 1.0 or not 0.0 < y < 1.0:
        raise ValueError("x and y must lie in (0, 1)")
    return (appendix_f(x * y, dx * y + x * dy)
            + appendix_f(x * (1.0 - y), dx * (1.0 - y) - x * dy))
