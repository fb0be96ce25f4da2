"""Closed forms for the ZZ indirect-measurement protocol.

With the system pinned to its Gibbs fixed point, the N-ancilla measurement
record is a Markov chain over ground/excited outcomes, and the QFI follows an
arithmetic progression F_N = F_1 + (N-1)*Delta, where Delta is built from the
bath-induced transition probabilities between collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import ModelParams
from .collision import is_integer
from .fisher import thermal_fi_nbar


@dataclass(frozen=True)
class ZzProbabilities:
    """Gibbs populations and between-collision transition probabilities."""

    p_g: float
    p_e: float
    p_gg: float  # stay in |g>
    p_eg: float  # jump |e> -> |g>


def zz_probs(nbar: float, gamma_tau: float) -> ZzProbabilities:
    ModelParams(nbar=nbar, gamma_tau_se=gamma_tau)  # the chain's domain check
    big_gamma = gamma_tau * (2.0 * nbar + 1.0)
    p_g = (nbar + 1.0) / (2.0 * nbar + 1.0)
    p_e = nbar / (2.0 * nbar + 1.0)  # 1 - p_g cancels at small nbar
    decay = -math.expm1(-big_gamma)  # 1 - e^-Gamma cancels at small Gamma
    return ZzProbabilities(
        p_g=p_g, p_e=p_e,
        p_gg=1.0 - decay * p_e,
        p_eg=decay * p_g,
    )


def zz_f1(nbar: float, g_tau_sa: float) -> float:
    """Single-ancilla QFI for a |+x> probe, as a function of the collision angle."""
    return 0.5 * (1.0 - math.cos(2.0 * g_tau_sa)) * thermal_fi_nbar(nbar)


def zz_delta(nbar: float, gamma_tau: float) -> float:
    """Per-ancilla collective increment Delta, in nbar units."""
    probs = zz_probs(nbar, gamma_tau)
    if nbar <= 0:
        raise ValueError("nbar must be > 0")
    if gamma_tau <= 0:
        raise ValueError("gamma_tau must be > 0 (no transitions, Delta undefined)")
    # d p_{k->g} / d nbar by the chain rule through Gamma = gamma_tau (2nbar+1)
    # and p_g, from p_gg = 1 - (1 - e^-Gamma) p_e and p_eg = (1 - e^-Gamma) p_g
    q = 2.0 * nbar + 1.0
    e = math.exp(-gamma_tau * q)
    decay = -math.expm1(-gamma_tau * q)  # 1 - e, without cancellation
    dp_e = 1.0 / q ** 2
    dp_gg = -(e * 2.0 * gamma_tau * probs.p_e + decay * dp_e)
    dp_eg = e * 2.0 * gamma_tau * probs.p_g - decay * dp_e
    terms = [  # (p_k, p_{k->g}, p_{k->e}, d p_{k->g} / d nbar)
        (probs.p_g, probs.p_gg, decay * probs.p_e, dp_gg),  # 1 - p_gg cancels
        (probs.p_e, probs.p_eg, 1.0 - probs.p_eg, dp_eg),
    ]
    total = 0.0
    for p_k, p_kg, p_ke, dp_kg in terms:
        if p_kg * p_ke == 0.0:
            raise ValueError("degenerate transition probabilities")
        total += p_k / (p_kg * p_ke) * dp_kg ** 2
    return total


def zz_fn(nbar: float, gamma_tau: float, n_measured: int) -> float:
    """N-ancilla QFI of the |+x> protocol at the optimal collision angle."""
    ModelParams(nbar=nbar, gamma_tau_se=gamma_tau)  # the chain's domain check
    if not is_integer(n_measured):
        raise ValueError(f"n_measured must be an integer, got {n_measured!r}")
    if n_measured < 1:
        raise ValueError("n_measured must be >= 1")
    f1 = zz_f1(nbar, math.pi / 2.0)
    if n_measured == 1:
        return f1
    return f1 + (n_measured - 1) * zz_delta(nbar, gamma_tau)

