"""Thermal map, collision unitaries, and operator embedding.

The bath contact of the system qubit is a generalized-amplitude-damping
channel with decay probability eta = 1 - exp(-Gamma), Gamma = gamma*tau*(2nbar+1),
and ground-branch weight p = (nbar+1)/(2nbar+1). Its superoperator is affine
in four coefficients, which have closed forms, as do their nbar-derivatives.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .qmat import I2, SIGMA_Z

# The largest nbar whose thermal Fisher information
# 1/(nbar (nbar+1) (2nbar+1)^2), about 1/(4 nbar^4), is a normal float: 2^255,
# about 5.8e76. Above it the FI underflows and the chain's values with it.
NBAR_MAX = (0.25 / sys.float_info.min) ** 0.25


class Interaction(enum.Enum):
    ZZ = "zz"
    EXCHANGE = "exchange"


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless physics knobs of the collision model. Building one checks
    the (nbar, gamma_tau) domain that the chain and the zz closed forms share."""

    nbar: float
    gamma_tau_se: float
    g_tau_sa: float = math.pi / 2
    interaction: Interaction = Interaction.ZZ

    def __post_init__(self):
        # a member or its value, such as "zz"; Interaction() rejects the rest.
        # A member skips the call, which costs more than the checks below.
        if not isinstance(self.interaction, Interaction):
            object.__setattr__(self, "interaction", Interaction(self.interaction))
        for name in ("nbar", "gamma_tau_se", "g_tau_sa"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0 <= self.nbar <= NBAR_MAX:
            raise ValueError(f"nbar must be in [0, {NBAR_MAX:.3g}], "
                             f"got {self.nbar}")
        if self.gamma_tau_se < 0:
            raise ValueError(f"gamma_tau_se must be nonnegative, got "
                             f"{self.gamma_tau_se}")
        # 2 gamma_tau (2nbar+1) bounds the decay exponent Gamma and its
        # nbar-derivative 2 gamma_tau; past it they overflow and the map's
        # derivative reads inf * 0 = NaN. float(): numpy scalars would warn.
        if not math.isfinite(2.0 * float(self.gamma_tau_se)
                             * (2.0 * float(self.nbar) + 1.0)):
            raise ValueError("2 gamma_tau_se (2nbar+1) must be finite, got "
                             f"gamma_tau_se={self.gamma_tau_se}, nbar={self.nbar}")


@dataclass(frozen=True)
class KrausChannel:
    operators: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("empty Kraus set")
        d = ops[0].shape[0]
        comp = sum(k.conj().T @ k for k in ops)
        if float(np.max(np.abs(comp - np.eye(d)))) > 1e-12:
            raise ValueError("Kraus set is not trace preserving")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in self.operators)


def thermal_kraus(nbar: float, gamma_tau: float) -> KrausChannel:
    """Qubit thermal map exp(L * tau) as a generalized-amplitude-damping Kraus set."""
    ModelParams(nbar=nbar, gamma_tau_se=gamma_tau)  # the chain's domain check
    if gamma_tau == 0.0:
        return KrausChannel((I2.copy(),))
    big_gamma = gamma_tau * (2.0 * nbar + 1.0)
    eta = 1.0 - math.exp(-big_gamma)
    p = (nbar + 1.0) / (2.0 * nbar + 1.0)
    s, sq = math.sqrt(p), math.sqrt(1.0 - p)
    ops = [
        s * np.array([[1, 0], [0, math.sqrt(1 - eta)]]),
        s * np.array([[0, math.sqrt(eta)], [0, 0]]),
        sq * np.array([[math.sqrt(1 - eta), 0], [0, 1]]),
        sq * np.array([[0, 0], [math.sqrt(eta), 0]]),
    ]
    return KrausChannel(tuple(k for k in ops if np.any(k)))


# The thermal map is affine in c = (1, up, down, coh - 1): T = sum_e c_e B_e
# and dT = sum_e dc_e B_e over the basis I, E30 - E00, E03 - E33 and E11 +
# E22. THERMAL_BASIS holds its nonzero entries as (e, row-major (i, j),
# value). It is a tuple: numpy arrays made at import raise the peak RSS of
# every process that imports the package, by ~0.15 MB as measured.
THERMAL_BASIS = ((0, 0, 0, 0, 1, 1, 2, 2, 3, 3),
                 (0, 5, 10, 15, 12, 0, 3, 15, 5, 10),
                 (1, 1, 1, 1, 1, -1, 1, -1, 1, 1))


@lru_cache(maxsize=None)
def thermal_monomials(degree: int) -> tuple:
    """The monomials c_e1...c_ed, e1 <= ... <= ed, of degree d, last index
    slowest, as d tuples of indices: tuple j holds each monomial's e_j."""
    return tuple(zip(*sorted(combinations_with_replacement(range(4), degree),
                             key=lambda m: m[::-1])))


def thermal_coefficients(nbar, gamma_tau, degree: int) -> np.ndarray:
    """The monomials of the given degree (``thermal_monomials``) of the
    thermal map's c over ``THERMAL_BASIS`` and their nbar-derivatives, for
    1-d arrays of nbar and gamma_tau, which broadcast against each other: an
    (R, 2, M) stack, the monomials in row 0 and their derivatives in row 1.

    With q = nbar/(2nbar+1) and eta = 1 - e^-Gamma, the map moves population
    up = q*eta from |g> to |e> and down = (1 - q)*eta back, and scales the
    coherences by coh = e^-Gamma/2; dGamma/dnbar = 2 gamma_tau makes dc exact.
    """
    nbar, gamma_tau = np.asarray(nbar, float), np.asarray(gamma_tau, float)
    if np.any(nbar < 0) or np.any(gamma_tau < 0):
        raise ValueError("nbar and gamma_tau must be nonnegative")
    d = 2.0 * nbar + 1.0
    q = nbar / d
    dq = 1.0 / (d * d)
    eta = -np.expm1(-gamma_tau * d)
    deta = 2.0 * gamma_tau * np.exp(-gamma_tau * d)
    coh = np.exp(-0.5 * gamma_tau * d)
    c = np.empty((len(eta), 2, 4))
    c[:, 0, 0], c[:, 1, 0] = 1.0, 0.0
    c[:, 0, 1], c[:, 0, 2], c[:, 0, 3] = q * eta, (1.0 - q) * eta, coh - 1.0
    c[:, 1, 1], c[:, 1, 2], c[:, 1, 3] = (dq * eta + q * deta,
                                          -dq * eta + (1.0 - q) * deta,
                                          -gamma_tau * coh)
    i, *rest = thermal_monomials(degree)
    m = c
    for f in rest:  # the product rule, one factor at a time
        m = np.stack([m[:, 0, i] * c[:, 0, f],
                      m[:, 1, i] * c[:, 0, f] + m[:, 0, i] * c[:, 1, f]], axis=1)
        i = slice(None)  # from here on m is indexed by monomial
    return m


def zz_unitary(g_tau: float) -> np.ndarray:
    """exp(-i (g_tau/2) sigmaZ x sigmaZ) on (system, ancilla)."""
    theta = g_tau / 2.0
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    return np.diag(np.exp(-1j * theta * np.diag(zz).real))


def exchange_unitary(g_tau: float) -> np.ndarray:
    """Resonant energy-exchange unitary: identity on {|gg>,|ee>}, x-rotation on {|ge>,|eg>}."""
    u = np.eye(4, dtype=complex)
    c, s = math.cos(g_tau), math.sin(g_tau)
    u[1, 1] = u[2, 2] = c
    u[1, 2] = u[2, 1] = -1j * s
    return u


def collision_unitary(interaction: Interaction, g_tau: float) -> np.ndarray:
    if interaction is Interaction.ZZ:
        return zz_unitary(g_tau)
    return exchange_unitary(g_tau)


def embed_op(op: np.ndarray, targets, dims) -> np.ndarray:
    """Lift an operator acting on ``targets`` to the full tensor-product space."""
    dims = list(dims)
    n = len(dims)
    targets = list(targets)
    rest = [i for i in range(n) if i not in targets]
    full = np.kron(op, np.eye(int(np.prod([dims[i] for i in rest])) if rest else 1))
    order = targets + rest
    perm = [order.index(i) for i in range(n)]
    t = full.reshape([dims[i] for i in order] * 2)
    t = t.transpose(perm + [n + p for p in perm])
    d = int(np.prod(dims))
    return np.ascontiguousarray(t.reshape(d, d))

