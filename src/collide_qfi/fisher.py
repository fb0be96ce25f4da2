"""Fisher-information engine.

All Fisher information is computed with respect to the mean bath occupation
nbar; multiplying by (d nbar / dT)^2 converts to temperature units, a factor
that cancels in every reported ratio. The QFI is evaluated directly from the
eigendecomposition of rho, excluding the kernel, which sidesteps an explicit
solve of the Lyapunov equation for the symmetric logarithmic derivative.
The state derivative is exact: forward-mode through the collision chain.
The gradient of the QFI in the block state is exact too: reverse-mode through
the same chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .channels import NBAR_MAX, ModelParams
from .collision import (AncillaBlock, outgoing_pullback,
                        outgoing_with_derivative, step_maps,
                        step_maps_pullback)
# Bound here as well for callers that look it up through this module, such
# as the span wrappers of perfbench/spans.py.
from .collision import outgoing_joint_state  # noqa: F401

KERNEL_REL_CUTOFF = 1e-12
KERNEL_LEAK_TOL = 1e-8


class RankChangeError(RuntimeError):
    """The state derivative has support on the kernel of rho: a rank change
    of the state at this nbar, where the QFI is discontinuous. ``values``
    holds each row's QFI, NaN where it leaks; None means no row has one."""

    def __init__(self, max_kernel_element: float, values=None):
        super().__init__(max_kernel_element)
        self.max_kernel_element = max_kernel_element
        self.values = values

    def __str__(self) -> str:
        return ("derivative leaves the state's support "
                f"(max kernel element {self.max_kernel_element:.3e})")


@dataclass(frozen=True)
class FisherResult:
    value_nbar: float
    ratio_thermal: float


def thermal_fi_nbar(nbar: float) -> float:
    """Fisher information of a fully thermalized qubit probe, in nbar units.

    An nbar whose FI is not a normal float is rejected: below about 5.6e-309
    the FI overflows, above ``NBAR_MAX`` (about 5.8e76) it underflows.
    """
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar}")
    if nbar <= 0:
        raise ValueError("nbar must be > 0 (thermal FI diverges as nbar -> 0)")
    if nbar > NBAR_MAX:
        raise ValueError(f"thermal FI at nbar={nbar} underflows, not a normal "
                         f"float (nbar must be <= {NBAR_MAX:.3g})")
    value = 1.0 / (nbar * (nbar + 1.0) * (2.0 * nbar + 1.0) ** 2)
    if value == math.inf:
        raise ValueError(f"thermal FI at nbar={nbar} overflows, not a normal "
                         "float")
    return value


def qfi(rho: np.ndarray, drho: np.ndarray):
    """Quantum Fisher information from rho and its parameter derivative.

    In the eigenbasis of rho, QFI = sum_{ij} 2 |<i|drho|j>|^2 / (lambda_i +
    lambda_j) over pairs outside the kernel. A leading batch axis gives one
    value per row from one stacked eigendecomposition; a single state gives
    a float. If a row's derivative leaks into its kernel, the error raised
    carries the value of every row, NaN on the leaking rows.
    """
    val = _qfi_eigen(rho, drho)[0]
    return float(val) if val.ndim == 0 else val


def _qfi_eigen(rho: np.ndarray, drho: np.ndarray):
    """The pass of ``qfi``: (values, v, a, denom), with v the eigenvectors
    of rho, a = v^dag drho v, and denom the pair sums lambda_i + lambda_j,
    inf on the kernel pairs. The SLD is v (2 a / denom) v^dag."""
    lam, v = qmat.herm_eigen(rho)
    a = v.conj().swapaxes(-1, -2) @ drho @ v
    denom = lam[..., :, None] + lam[..., None, :]
    # eigh sorts ascending, so the last eigenvalue is the largest
    mask = denom > KERNEL_REL_CUTOFF * lam[..., -1, None, None]
    leaking = None
    if np.count_nonzero(mask) < mask.size:
        leak = np.where(mask, 0.0, np.abs(a)).max(axis=(-2, -1))
        leaking = leak > KERNEL_LEAK_TOL
        denom = np.where(mask, denom, np.inf)
    terms = (a.real * a.real + a.imag * a.imag) / denom
    val = np.maximum(2.0 * terms.sum(axis=(-2, -1)), 0.0)
    if leaking is not None and leaking.any():
        raise RankChangeError(float(leak[leaking][0]),
                              np.where(leaking, math.nan, val))
    return val, v, a, denom


def qfi_values(params, psi: np.ndarray, n_measured: int) -> np.ndarray:
    """QFI in nbar units of the N-ancilla outgoing state for each row of a
    stacked evaluation, from one stacked pass through the collision chain and
    one stacked eigendecomposition. ``params`` and ``psi`` are one
    ``ModelParams`` and a (B, 2^b) stack of block states, or a sequence of
    model parameters, such as one row of a sweep grid, and a one-state stack,
    as ``step_maps`` takes them."""
    psi = qmat.pure_states(psi)
    # The tape is dropped before the QFI, so no array of the pass outlives it.
    return qfi(*outgoing_with_derivative(step_maps(params, psi, n_measured),
                                         n_measured)[:2])


def qfi_and_gradient(params: ModelParams, psi: np.ndarray, n_measured: int):
    """QFI in nbar units of each row of a (B, 2^b) stack of block states, as
    ``qfi_values`` gives it, and its exact gradient: (values, G), with G a
    Hermitian (B, 2^b, 2^b) stack such that a variation dpsi of row k moves
    its QFI by 2 Re <G_k psi_k, dpsi>.

    One pass forward and one back. With the SLD L of the outgoing state,
    dF = 2 tr(L d(drho)) - tr(L^2 drho) (Paris, IJQI 7, 125 (2009)), so the
    reverse pass starts from the cotangents (-L^2, 2L) and runs through the
    chain, the fixed point and the step maps.
    """
    psi = qmat.pure_states(psi)
    maps = step_maps(params, psi, n_measured)
    rho, drho, tape = outgoing_with_derivative(maps, n_measured)
    val, v, a, denom = _qfi_eigen(rho, drho)
    sld = v @ (2.0 * a / denom) @ v.conj().swapaxes(-1, -2)
    maps_bar = outgoing_pullback(tape, -(sld @ sld), 2.0 * sld)
    return val, step_maps_pullback(params, maps_bar)


def fisher_for(params: ModelParams, block: AncillaBlock,
               n_measured: int) -> FisherResult:
    """QFI of the N-ancilla outgoing state, in nbar units, plus the thermal ratio.

    The state and its exact nbar-derivative come from one pass through the
    collision chain: the one-row case of ``qfi_values``.
    """
    value = float(qfi_values(params, block.psi[None], n_measured)[0])
    ratio = value / (n_measured * thermal_fi_nbar(params.nbar))
    return FisherResult(value_nbar=value, ratio_thermal=ratio)
