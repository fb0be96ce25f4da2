"""Central-difference oracle for the nbar-derivative of a state family,
and for the gradient of a function of a block state.

The package differentiates the collision chain exactly, forward in nbar and
in reverse from the QFI to the block state. These helpers take the
derivatives from evaluations at x +- step instead, so tests can check the
exact paths, and the CFI and QFI built on them, against them.
"""

import math
from dataclasses import replace

import numpy as np

from collide_qfi.collision import outgoing_joint_state
from collide_qfi.fisher import qfi


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


def joint_state_builder(params, block, n_measured: int):
    """nbar -> steady-state joint outgoing ancilla state, all else fixed.

    The system fixed point is re-solved at each nbar: the map itself depends
    on temperature through the thermal channel.
    """
    def build(nbar: float) -> np.ndarray:
        return outgoing_joint_state(replace(params, nbar=nbar), block, n_measured)

    return build


def state_pair(builder, nbar: float, step: float | None = None):
    """(rho, drho) of a state family at nbar, with drho the central
    difference over ``step`` (``default_step(nbar)`` when None)."""
    h = default_step(nbar) if step is None else step
    return builder(nbar), state_derivative(builder, nbar, h)


def psi_gradient(f, psi: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a real function f of a state vector,
    one real coordinate at a time: df/dRe psi_k + i df/dIm psi_k, so that a
    move dpsi changes f by Re <gradient, dpsi>."""
    grad = np.zeros(len(psi), dtype=complex)
    for k in range(len(psi)):
        for unit in (1.0, 1j):
            e = np.zeros(len(psi), dtype=complex)
            e[k] = unit * step
            grad[k] += unit * (f(psi + e) - f(psi - e)) / (2.0 * step)
    return grad


def fd_qfi(params, block, n_measured: int, step: float) -> float:
    """QFI of the N-ancilla outgoing state, in nbar units, with the
    derivative taken as a central difference over ``step``."""
    build = joint_state_builder(params, block, n_measured)
    return qfi(*state_pair(build, params.nbar, step))
