"""Fisher-information engine.

All Fisher information is computed with respect to the mean bath occupation
nbar; multiplying by (d nbar / dT)^2 converts to temperature units, a factor
that cancels in every reported ratio. The QFI is evaluated directly from the
eigendecomposition of rho, excluding the kernel, which sidesteps an explicit
solve of the Lyapunov equation for the symmetric logarithmic derivative.
The state derivative is exact by default (forward-mode through the collision
chain); central differences in nbar remain available as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import qmat
from .channels import ModelParams
from .collision import (AncillaBlock, outgoing_joint_state,
                        outgoing_with_derivative, step_maps,
                        step_maps_over_params)

KERNEL_REL_CUTOFF = 1e-12
KERNEL_LEAK_TOL = 1e-8
PROB_CUTOFF = 1e-14


class RankChangeError(RuntimeError):
    """The state derivative has support on the kernel of rho.

    With the exact derivative this is a real rank change of the state at this
    nbar, where the QFI is discontinuous. With a finite-difference derivative
    it can also mean a step too large for the state's rank structure; then
    ``step`` holds that step and the message says to reduce it.
    """

    def __init__(self, max_kernel_element: float, step: float | None = None):
        super().__init__(max_kernel_element, step)
        self.max_kernel_element = max_kernel_element
        self.step = step

    def __str__(self) -> str:
        text = ("derivative leaves the state's support "
                f"(max kernel element {self.max_kernel_element:.3e})")
        if self.step is not None:
            text += f"; reduce the step ({self.step:.3g})"
        return text


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


def default_step(nbar: float) -> float:
    return max(1e-6, 1e-6 * nbar)


def state_derivative(builder, nbar: float, step: float) -> np.ndarray:
    """Central-difference derivative of a state family with respect to nbar.

    The step may not exceed nbar: nbar - step would cross nbar = 0, where a
    model state does not exist and a thermal state has no physical meaning.
    """
    if not math.isfinite(step) or step <= 0:
        raise ValueError(f"finite-difference step must be finite and > 0, "
                         f"got {step}")
    if step > nbar:
        raise ValueError(f"finite-difference step {step:.3g} exceeds nbar = "
                         f"{nbar:.3g}; use a step no larger than nbar")
    return (builder(nbar + step) - builder(nbar - step)) / (2.0 * step)


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


def cfi(rho_builder, povm: Povm, nbar: float, step: float | None = None) -> float:
    """Classical Fisher information of a POVM on a parameterized state family."""
    h = default_step(nbar) if step is None else step
    rho = rho_builder(nbar)
    if povm.dim != rho.shape[0]:
        raise ValueError("POVM dimension does not match the state")
    drho = state_derivative(rho_builder, nbar, h)
    total = 0.0
    for e in povm.effects:
        p = float(np.trace(e @ rho).real)
        if p > PROB_CUTOFF:
            dp = float(np.trace(e @ drho).real)
            total += dp * dp / p
    return total


def joint_state_builder(params: ModelParams, block: AncillaBlock,
                        n_measured: int):
    """nbar -> steady-state joint outgoing ancilla state, all else fixed.

    The system fixed point is re-solved at each nbar: the map itself depends
    on temperature through the thermal channel.
    """
    def build(nbar: float) -> np.ndarray:
        return outgoing_joint_state(replace(params, nbar=nbar), block, n_measured)

    return build


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


def fisher_for(params: ModelParams, block: AncillaBlock, n_measured: int,
               step: float | None = None) -> FisherResult:
    """QFI of the N-ancilla outgoing state, in nbar units, plus the thermal ratio.

    The state and its exact nbar-derivative come from one pass through the
    collision chain: the one-row case of ``qfi_values``. Given a ``step``,
    the derivative is instead the central difference of three builds, the
    oracle for the exact one.
    """
    if step is None:
        rho, drho = outgoing_with_derivative(
            step_maps(params, block.b, block.psi[None]), n_measured)
        rho, drho = rho[0], drho[0]
    else:
        build = joint_state_builder(params, block, n_measured)
        rho = build(params.nbar)
        drho = state_derivative(build, params.nbar, step)
    try:
        value = qfi(rho, drho)
    except RankChangeError as exc:
        exc.step = step
        raise
    ratio = value / (n_measured * thermal_fi_nbar(params.nbar))
    return FisherResult(value_nbar=value, ratio_thermal=ratio,
                        n_measured=n_measured, block_b=block.b)
