"""Fisher-information engine.

All Fisher information is computed with respect to the mean bath occupation
nbar; multiplying by (d nbar / dT)^2 converts to temperature units, a factor
that cancels in every reported ratio. The QFI is evaluated directly from the
eigendecomposition of rho, excluding the kernel, which sidesteps an explicit
solve of the Lyapunov equation for the symmetric logarithmic derivative.
The state derivative is exact: forward-mode through the collision chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .channels import ModelParams
from .collision import (AncillaBlock, outgoing_with_derivative, step_maps,
                        step_maps_over_params)
# Bound here as well for callers that look it up through this module, such
# as the span wrappers of perfbench/spans.py.
from .collision import outgoing_joint_state  # noqa: F401

KERNEL_REL_CUTOFF = 1e-12
KERNEL_LEAK_TOL = 1e-8
PROB_CUTOFF = 1e-14


class RankChangeError(RuntimeError):
    """The state derivative has support on the kernel of rho: a rank change
    of the state at this nbar, where the QFI is discontinuous."""

    def __init__(self, max_kernel_element: float):
        super().__init__(max_kernel_element)
        self.max_kernel_element = max_kernel_element

    def __str__(self) -> str:
        return ("derivative leaves the state's support "
                f"(max kernel element {self.max_kernel_element:.3e})")


@dataclass(frozen=True)
class FisherResult:
    value_nbar: float
    ratio_thermal: float
    n_measured: int
    block_b: int


@dataclass(frozen=True)
class Povm:
    effects: tuple

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        object.__setattr__(self, "effects", effects)
        d = effects[0].shape[0]
        for e in effects:
            if float(np.linalg.eigvalsh((e + e.conj().T) / 2).min()) < -1e-10:
                raise ValueError("POVM effect is not PSD")
        comp = sum(effects)
        if float(np.max(np.abs(comp - np.eye(d)))) > 1e-10:
            raise ValueError("POVM effects do not sum to identity")

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


def thermal_fi_nbar(nbar: float) -> float:
    """Fisher information of a fully thermalized qubit probe, in nbar units."""
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar}")
    if nbar <= 0:
        raise ValueError("nbar must be > 0 (thermal FI diverges as nbar -> 0)")
    return 1.0 / (nbar * (nbar + 1.0) * (2.0 * nbar + 1.0) ** 2)


def dnbar_dT(temperature: float, omega: float) -> float:
    """d nbar / dT for nbar = 1/(exp(omega/T) - 1), in hbar = k_B = 1 units."""
    if temperature <= 0 or omega <= 0:
        raise ValueError("temperature and omega must be > 0")
    x = omega / temperature
    return (omega / temperature ** 2) * math.exp(x) / (math.exp(x) - 1.0) ** 2


def qfi(rho: np.ndarray, drho: np.ndarray):
    """Quantum Fisher information from rho and its parameter derivative.

    In the eigenbasis of rho, QFI = sum_{ij} 2 |<i|drho|j>|^2 / (lambda_i +
    lambda_j) over pairs outside the kernel. A leading batch axis gives one
    value per row from one stacked eigendecomposition; a single state gives
    a float. Any row whose derivative leaks into its kernel raises.
    """
    lam, v = qmat.herm_eigen(rho)
    a = v.conj().swapaxes(-1, -2) @ drho @ v
    denom = lam[..., :, None] + lam[..., None, :]
    # eigh sorts ascending, so the last eigenvalue is the largest
    mask = denom > KERNEL_REL_CUTOFF * lam[..., -1, None, None]
    if not mask.all():
        leak = np.where(mask, 0.0, np.abs(a)).max(axis=(-2, -1))
        leaking = np.flatnonzero(leak > KERNEL_LEAK_TOL)
        if leaking.size:
            raise RankChangeError(float(leak.flat[leaking[0]]))
        denom = np.where(mask, denom, np.inf)
    terms = (a.real * a.real + a.imag * a.imag) / denom
    val = np.maximum(2.0 * terms.sum(axis=(-2, -1)), 0.0)
    return float(val) if val.ndim == 0 else val


def cfi(rho: np.ndarray, drho: np.ndarray, povm: Povm) -> float:
    """Classical Fisher information of a POVM on a state rho with parameter
    derivative drho: sum over outcomes of (d p)^2 / p, skipping p ~ 0. For a
    model state the pair comes from ``outgoing_with_derivative``, as in
    ``qfi_values``."""
    if povm.dim != rho.shape[0]:
        raise ValueError("POVM dimension does not match the state")
    total = 0.0
    for e in povm.effects:
        p = float(np.trace(e @ rho).real)
        if p > PROB_CUTOFF:
            dp = float(np.trace(e @ drho).real)
            total += dp * dp / p
    return total


def qfi_values(params: ModelParams, b: int, psi: np.ndarray,
               n_measured: int) -> np.ndarray:
    """QFI in nbar units of the N-ancilla outgoing state for each row of a
    (B, 2^b) stack of block states, from one stacked pass through the
    collision chain and one stacked eigendecomposition."""
    if b not in (1, 2):
        raise ValueError(f"block size must be 1 or 2, got {b}")
    psi = qmat.pure_states(psi)
    if psi.ndim != 2 or psi.shape[1] != 2 ** b:
        raise ValueError(f"psi stack shape {psi.shape} does not match b={b}")
    return qfi(*outgoing_with_derivative(step_maps(params, b, psi), n_measured))


def qfi_row(params, block: AncillaBlock, n_measured: int) -> np.ndarray:
    """QFI in nbar units of the N-ancilla outgoing state of one block at each
    point of a sequence of model parameters that share g_tau_sa and the
    interaction, such as one row of a sweep grid: one stacked pass through
    the same chain as ``qfi_values``."""
    maps = step_maps_over_params(params, block.psi)
    return qfi(*outgoing_with_derivative(maps, n_measured))


def fisher_for(params: ModelParams, block: AncillaBlock,
               n_measured: int) -> FisherResult:
    """QFI of the N-ancilla outgoing state, in nbar units, plus the thermal ratio.

    The state and its exact nbar-derivative come from one pass through the
    collision chain: the one-row case of ``qfi_values``.
    """
    value = float(qfi_values(params, block.b, block.psi[None], n_measured)[0])
    ratio = value / (n_measured * thermal_fi_nbar(params.nbar))
    return FisherResult(value_nbar=value, ratio_thermal=ratio,
                        n_measured=n_measured, block_b=block.b)
