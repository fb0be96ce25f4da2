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
                        outgoing_with_derivative)

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
    """Central-difference derivative of a state family with respect to nbar."""
    if step <= 0:
        raise ValueError("step must be > 0")
    return (builder(nbar + step) - builder(nbar - step)) / (2.0 * step)


def qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information from rho and its parameter derivative.

    In the eigenbasis of rho, QFI = sum_{ij} 2 |<i|drho|j>|^2 / (lambda_i +
    lambda_j) over pairs outside the kernel.
    """
    lam, v = qmat.herm_eigen(rho)
    a = v.conj().T @ drho @ v
    denom = lam[:, None] + lam[None, :]
    cutoff = KERNEL_REL_CUTOFF * float(lam.max())
    mask = denom > cutoff
    leak = np.abs(a)[~mask]
    if leak.size and float(leak.max()) > KERNEL_LEAK_TOL:
        raise RankChangeError(float(leak.max()))
    val = float(np.sum(2.0 * np.abs(a[mask]) ** 2 / denom[mask]))
    return max(val, 0.0)


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


def fisher_for(params: ModelParams, block: AncillaBlock, n_measured: int,
               step: float | None = None) -> FisherResult:
    """QFI of the N-ancilla outgoing state, in nbar units, plus the thermal ratio.

    The state and its exact nbar-derivative come from one pass through the
    collision chain. Given a ``step``, the derivative is instead the central
    difference of three builds, the oracle for the exact one.
    """
    if step is None:
        rho, drho = outgoing_with_derivative(params, block, n_measured)
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
