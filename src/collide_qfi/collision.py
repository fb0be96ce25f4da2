"""Stroboscopic block dynamics: the per-block step map, the block map on the
system and its fixed point, and the joint outgoing state of N consecutive
ancillas at steady state.

Subsystem ordering is system first, then ancillas in arrival order. Vectorized
density matrices use row-major flattening, so a map rho -> A rho B has
superoperator kron(A, B.T).

The outgoing stream is a finitely correlated state with the system as its
memory, so one step map per block carries everything the chain needs:
E: rho_S -> C_b...C_1(rho_S (x) Psi), with C_i the collision with ancilla i
followed by the thermal map on S. A stack of step maps and their nbar
derivatives is an (R, 2, 4*4^b, 4) array: ``maps[r, 0]`` is E and
``maps[r, 1]`` is dE/dnbar for stack row r. Rows index the output as (iS, jS,
block row, block column), the block operator flattened row-major; columns
index the system input (iS, jS). The block map Phi on the system is the
block trace of E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qmat
from .channels import ModelParams, collision_unitary, thermal_superop
# Bound here as well for callers that look them up through this module, such
# as the span wrappers of perfbench/spans.py.
from .channels import embed_op, thermal_kraus  # noqa: F401

MAX_MEASURED = 4


class FixedPointError(RuntimeError):
    """No eigenvalue of the block map lies close enough to 1."""


@dataclass(frozen=True)
class AncillaBlock:
    """Block size b and the pure input state of one block of ancillas."""

    b: int
    psi: np.ndarray

    def __post_init__(self):
        if self.b not in (1, 2):
            raise ValueError(f"block size must be 1 or 2, got {self.b}")
        psi = qmat.pure_state(self.psi)
        if psi.shape[0] != 2 ** self.b:
            raise ValueError(f"psi dim {psi.shape[0]} does not match b={self.b}")
        object.__setattr__(self, "psi", psi)

    @property
    def projector(self) -> np.ndarray:
        return qmat.projector(self.psi)


@dataclass(frozen=True)
class SteadyStateResult:
    rho_s_star: np.ndarray
    residual: float
    unique: bool


def _collision_pairs(params) -> np.ndarray:
    """Pairs (C, dC/dnbar) of one collision on (S, A), the collision unitary
    then the thermal map on S, for a sequence of model parameters that share
    the unitary: an (R, 2, 16, 16) array whose rows index the output and
    columns the input, each as (iS, jS, iA, jA). One ``thermal_superop``
    call serves the whole sequence."""
    first = params[0]
    if any(p.g_tau_sa != first.g_tau_sa or p.interaction is not first.interaction
           for p in params):
        raise ValueError("stacked parameters must share g_tau_sa and interaction")
    u = collision_unitary(first).reshape(2, 2, 2, 2)
    # kron(u, u*) with system legs first: rows (s, t, a, c), columns (S, T, A, C)
    w = np.einsum('saSA,tcTC->stacSTAC', u, u.conj()).reshape(4, 64)
    t, dt = thermal_superop(np.array([p.nbar for p in params]),
                            np.array([p.gamma_tau_se for p in params]))
    return (np.stack([t, dt], axis=1).reshape(-1, 4) @ w).reshape(-1, 2, 16, 16)


def _step_maps(pairs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Step maps (E, dE/dnbar) of one block from one-collision pairs ``pairs``
    (P, 2, 16, 16) and block input operators ``ops`` (Q, 2^b, 2^b), with P
    and Q equal or 1: an (max(P, Q), 2, 4*4^b, 4) stack.

    The first ancilla's collision contracts its input legs with Psi. The
    second collides on (S, A_2) with A_1 and the system input as spectators;
    its derivative is C dY + dC Y, so dC dY is never formed.
    """
    big_b = ops.shape[1]
    m = big_b // 2  # dimension of the ancillas after the first
    # rows (a1, c1), columns (a2, c2) of each input operator
    psi = ops.reshape(-1, 2, m, 2, m).transpose(0, 1, 3, 2, 4).reshape(-1, 4, m * m)
    # y[r, k, s, t, a1, c1, S, T, (a2, c2)]
    y = pairs.reshape(-1, 128, 4) @ psi
    if m == 1:
        return y.reshape(-1, 2, 16, 4)
    r = len(y)
    # rows (s, t, a2, c2) on which the second collision acts
    y = y.reshape(r, 2, 2, 2, 2, 2, 2, 2, 2, 2).transpose(
        0, 1, 2, 3, 8, 9, 4, 5, 6, 7).reshape(r, 2, 16, 16)
    z = pairs.reshape(-1, 32, 16) @ y[:, 0]
    z[:, 16:] += pairs[:, 0] @ y[:, 1]
    # z[r, k, s, t, a2, c2, a1, c1, (S, T)] -> rows (s, t, a1, a2, c1, c2)
    z = z.reshape(r, 2, 2, 2, 2, 2, 2, 2, 4).transpose(0, 1, 2, 3, 6, 4, 7, 5, 8)
    return z.reshape(r, 2, 64, 4)


@lru_cache(maxsize=128)
def _step_map_tensor(params: ModelParams, b: int) -> np.ndarray:
    """Read-only (4^b, 32*4^b) matrix that maps a vectorized block input
    state to its flattened step maps: the step-map builder run on the
    operator basis of the block, one basis element per row."""
    basis = np.eye(4 ** b).reshape(-1, 2 ** b, 2 ** b)
    tensor = _step_maps(_collision_pairs([params]), basis).reshape(4 ** b, -1)
    tensor.flags.writeable = False
    return tensor


@lru_cache(maxsize=128)
def block_collision_superop(params: ModelParams, b: int) -> np.ndarray:
    """Superoperator S of the full block collision on (system, A_1..A_b) and
    its derivative dS/dnbar, stacked as a read-only (2, 4^(1+b), 4^(1+b))
    array: ``s, ds = block_collision_superop(params, b)``.

    The block applies, per ancilla in arrival order, the collision unitary on
    (S, A_i) followed by the thermal map on S. S on rho_S (x) |a><c| is the
    step map of the block input |a><c|, so S is the step-map tensor
    rearranged. Nothing computes with S; it is the reference layout against
    which tests check the step maps.
    """
    big_b = 2 ** b
    e = _step_map_tensor(params, b).reshape(
        big_b, big_b, 2, 2, 2, big_b, big_b, 2, 2)
    # e[a, c, k, s, t, A, C, S, T] -> pair[k, (s, A, t, C), (S, a, T, c)]
    pair = e.transpose(2, 3, 5, 4, 6, 7, 0, 8, 1).reshape(
        2, 4 * big_b * big_b, 4 * big_b * big_b)
    pair.flags.writeable = False
    return pair


def _projectors(psi: np.ndarray) -> np.ndarray:
    """Stack of projectors |psi><psi| for a (B, d) stack of state vectors."""
    return psi[:, :, None] * psi.conj()[:, None, :]


def step_maps(params: ModelParams, b: int, psi: np.ndarray) -> np.ndarray:
    """Step maps of one set of model parameters for each row of a (B, 2^b)
    stack of block states: two real matmuls against the cached tensor."""
    # Real products, not one complex one: numpy's OpenBLAS runs the complex
    # product of a 17-row optimizer stack in several threads, scipy's
    # L-BFGS-B wakes scipy's own OpenBLAS pool between two such calls, and
    # when the two pools want more threads than there are cores they stall
    # each other for a scheduler slice per call. These real products do not.
    tensor = _step_map_tensor(params, b).view(float)
    p = _projectors(psi).reshape(len(psi), -1)
    maps = (p.real @ tensor).view(complex) + 1j * (p.imag @ tensor).view(complex)
    return maps.reshape(len(psi), 2, -1, 4)


def step_maps_over_params(params, psi: np.ndarray) -> np.ndarray:
    """Step maps of one block state ``psi`` for each point of a sequence of
    model parameters that share the collision unitary, built per ancilla
    from the stacked one-collision pairs; no block superoperator is formed."""
    return _step_maps(_collision_pairs(params), _projectors(psi[None]))


def _block_trace(maps: np.ndarray) -> np.ndarray:
    """Block trace of a step-map stack: Phi and dPhi/dnbar, (R, 2, 4, 4)."""
    r, _, rows, _ = maps.shape
    big_b = math.isqrt(rows // 4)
    return maps.reshape(r, 2, 4, big_b * big_b, 4)[:, :, :, ::big_b + 1].sum(axis=3)


def block_map_superop(params: ModelParams, block: AncillaBlock) -> np.ndarray:
    """4x4 superoperator of Phi: rho_S -> tr_A{C[rho_S (x) Psi]}."""
    return _block_trace(step_maps(params, block.b, block.psi[None]))[0, 0]


_I4 = np.eye(4)
_TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])
_E3 = np.array([0.0, 0.0, 0.0, 1.0])


def _inverse_or_nan(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.full_like(a, np.nan)


def _unit_eigenvalues(superop: np.ndarray) -> int:
    """Number of eigenvalues of a 4x4 map within 1e-8 of 1; FixedPointError
    when there is none."""
    evals = np.linalg.eigvals(superop)
    dist = np.abs(evals - 1.0)
    near = int(np.count_nonzero(dist < 1e-8))
    if near == 0:
        raise FixedPointError(
            f"no eigenvalue within 1e-8 of 1 (closest: {evals[np.argmin(dist)]})")
    return near


def _fixed_point_pair(superop: np.ndarray, dsuperop: np.ndarray):
    """Fixed points rho* of a (B, 4, 4) stack of maps Phi and their
    derivatives drho*/dnbar, each as a (B, 2, 2) stack.

    rho* solves (Phi - I) rho = 0 with tr rho = 1. Trace preservation makes
    the rows of (Phi - I) at the two diagonal slots linearly dependent, so one
    of them is replaced by the trace constraint, giving a square system. This
    avoids eigenvector extraction, which loses half the digits when the
    decaying part of the spectrum is defective (exact full-swap collisions).
    Differentiating gives (Phi - I) drho* = -(dPhi) rho* with tr drho* = 0:
    the same system with a traceless right-hand side, solved by the same
    inverse. A row whose inverse fails the residual check has a degenerate
    fixed space, or none; once its map is seen to have a unit eigenvalue, the
    pseudo-inverse of its system gives the minimum-norm solutions instead.
    """
    a = superop - _I4
    a[:, 3, :] = _TRACE_ROW
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = np.array([_inverse_or_nan(m) for m in a])
    # NaN or inf in the inverse fails the comparison too
    ok = np.abs((a @ inv[:, :, 3:])[:, :, 0] - _E3).max(axis=1) <= 1e-9
    for i in np.flatnonzero(~ok):
        _unit_eigenvalues(superop[i])
        inv[i] = np.linalg.pinv(a[i])
    rho = inv[:, :, 3].reshape(-1, 2, 2)
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    rho /= (rho[:, 0, 0].real + rho[:, 1, 1].real)[:, None, None]
    r = -(dsuperop @ rho.reshape(-1, 4, 1))
    r[:, 3] = 0.0
    drho = (inv @ r).reshape(-1, 2, 2)
    return rho, (drho + drho.conj().transpose(0, 2, 1)) / 2.0


def steady_state(superop: np.ndarray) -> SteadyStateResult:
    """Fixed point of a trace-preserving qubit map given as a 4x4 superoperator."""
    superop = np.asarray(superop, dtype=complex)
    near = _unit_eigenvalues(superop)
    rho = _fixed_point_pair(superop[None], np.zeros_like(superop[None]))[0][0]
    diff = (superop @ rho.reshape(-1)).reshape(2, 2) - rho
    # Trace norm of a Hermitian 2x2 in closed form.
    t, d = diff.trace().real, np.linalg.det(diff).real
    root = math.sqrt(max(t * t - 4.0 * d, 0.0))
    residual = 0.5 * (abs(t + root) + abs(t - root))
    return SteadyStateResult(rho_s_star=rho, residual=residual, unique=near == 1)


def steady_state_for(params: ModelParams, block: AncillaBlock) -> SteadyStateResult:
    return steady_state(block_map_superop(params, block))


def outgoing_with_derivative(maps: np.ndarray, n_measured: int):
    """Joint state of N consecutive outgoing ancillas at steady-state
    operation and its exact derivative in nbar, for each row of a step-map
    stack ``maps``; returns (rho, drho), each (R, 2^N, 2^N).

    The block trace of the maps gives the fixed point and its tangent
    (rho_S*, drho_S*). Each block then takes matmuls over the system legs
    only: [E; dE] x and E dx, the product rule without dE dx. The last
    block's maps are traced over the system first, which ends the chain.
    The ancilla legs pile up latest first and are put in arrival order once,
    at the end.
    """
    r, _, rows, _ = maps.shape
    big_b = math.isqrt(rows // 4)
    b = big_b.bit_length() - 1
    if not 1 <= n_measured <= MAX_MEASURED:
        raise ValueError(f"n_measured must be in 1..{MAX_MEASURED}")
    if n_measured % b != 0:
        raise ValueError(
            f"n_measured={n_measured} is not a multiple of block size {b}")
    phi = _block_trace(maps)
    rho_s, drho_s = _fixed_point_pair(phi[:, 0], phi[:, 1])
    # x[r, (iS, jS), columns]: the state; dx its derivative
    x, dx = rho_s.reshape(r, 4, 1), drho_s.reshape(r, 4, 1)
    blocks = n_measured // b
    split = maps.reshape(r, 2, 4, -1, 4)
    last = split[:, :, 0] + split[:, :, 3]
    for i in range(blocks):
        step = maps if i < blocks - 1 else last
        z = step.reshape(r, -1, 4) @ x
        half = z.shape[1] // 2
        x, dx = z[:, :half], step[:, 0] @ dx + z[:, half:]
        if i < blocks - 1:
            x, dx = x.reshape(r, 4, -1), dx.reshape(r, 4, -1)
    # columns (i_L, j_L, ..., i_1, j_1) -> (i_1..i_L), (j_1..j_L)
    order = [1 + 2 * (blocks - 1 - k) for k in range(blocks)]
    perm = [0] + order + [o + 1 for o in order]
    dim = big_b ** blocks
    return tuple(y.reshape(r, *[big_b] * (2 * blocks)).transpose(perm).reshape(
        r, dim, dim) for y in (x, dx))


def outgoing_joint_state(params: ModelParams, block: AncillaBlock,
                         n_measured: int) -> np.ndarray:
    """Joint state of N consecutive outgoing ancillas at steady-state operation.

    Starts from rho_S* (x) Psi^{(x) N/b}, applies per ancilla the collision
    unitary on (S, A_i) followed by the thermal map on S, then traces out S.
    This is the state half of ``outgoing_with_derivative`` for one block.
    """
    maps = step_maps(params, block.b, block.psi[None])
    return outgoing_with_derivative(maps, n_measured)[0][0]

