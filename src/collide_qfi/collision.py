"""Stroboscopic block dynamics: the per-block map on the system, its fixed
point, and the joint outgoing state of N consecutive ancillas at steady state.

Subsystem ordering is system first, then ancillas in arrival order. Vectorized
density matrices use row-major flattening, so a map rho -> A rho B has
superoperator kron(A, B.T).
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


def _collision_pair(params: ModelParams) -> np.ndarray:
    """Pair (C, dC/dnbar) of one collision on (S, A): the collision unitary,
    then the thermal map on S. Stacked as a (2, 16, 16) array."""
    u = collision_unitary(params).reshape(2, 2, 2, 2)
    # kron(u, u*) with the system legs (s, t) of its output in front.
    w = np.einsum('saSA,tcTC->stacSATC', u, u.conj()).reshape(4, 64)
    thermal = np.stack(thermal_superop(params.nbar, params.gamma_tau_se))
    c = (thermal.reshape(8, 4) @ w).reshape(2, 2, 2, 2, 2, 16)
    return c.transpose(0, 1, 3, 2, 4, 5).reshape(2, 16, 16)


def _append_collision(collision: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Pair of the block superoperator on (S, A_1..A_i), from the pair on
    (S, A_1..A_{i-1}) and the one-collision pair on (S, A_i).

    S_i = C S_{i-1} and dS_i = dC S_{i-1} + C dS_{i-1}; the two maps share
    only the system legs, so one matmul over those legs gives every product.
    """
    m = math.isqrt(block.shape[1]) // 2
    # rows (k, s, a, t, c, a', c'), columns (s'', t'')
    x = collision.reshape(2, 2, 2, 2, 2, 2, 2, 2, 2)
    x = x.transpose(0, 1, 2, 3, 4, 6, 8, 5, 7).reshape(128, 4)
    # rows (s'', t''), columns (l, A, C, s', A', t', C')
    y = block.reshape(2, 2, m, 2, m, 2, m, 2, m)
    y = y.transpose(1, 3, 0, 2, 4, 5, 6, 7, 8).reshape(4, -1)
    z = (x @ y).reshape(2, 2, 2, 2, 2, 2, 2, 2, m, m, 2, m, 2, m)
    # z[k, s, a, t, c, a', c', l, A, C, s', A', t', C']
    pair = np.stack([z[0, ..., 0, :, :, :, :, :, :],
                     z[1, ..., 0, :, :, :, :, :, :]
                     + z[0, ..., 1, :, :, :, :, :, :]])
    d = 4 * m
    return pair.transpose(0, 1, 7, 2, 3, 8, 4, 9, 10, 5, 11, 12, 6).reshape(
        2, d * d, d * d)


@lru_cache(maxsize=128)
def block_collision_superop(params: ModelParams, b: int) -> np.ndarray:
    """Superoperator S of the full block collision on (system, A_1..A_b) and
    its derivative dS/dnbar, stacked as a read-only (2, 4^(1+b), 4^(1+b))
    array: ``s, ds = block_collision_superop(params, b)``.

    The block applies, per ancilla in arrival order, the collision unitary on
    (S, A_i) followed by the thermal map on S. Only the thermal map depends
    on nbar, so dS follows from T and dT by the product rule.
    """
    collision = _collision_pair(params)
    pair = collision
    for _ in range(1, b):
        pair = _append_collision(collision, pair)
    pair.flags.writeable = False
    return pair


@lru_cache(maxsize=128)
def _block_map_tensor(params: ModelParams, b: int) -> np.ndarray:
    """Block superoperator pair with the ancilla output already traced, as a
    read-only (2*16, 4^b) matrix acting on the vectorized block input state:
    rows 0-15 give Phi and rows 16-31 give dPhi/dnbar."""
    big_b = 2 ** b
    t = block_collision_superop(params, b).reshape(
        2, 2, big_b, 2, big_b, 2, big_b, 2, big_b)
    t = np.einsum('kiajaxbyc->kijxybc', t)
    t = np.ascontiguousarray(t.reshape(32, big_b * big_b))
    t.flags.writeable = False
    return t


def _projectors(psi: np.ndarray) -> np.ndarray:
    """Stack of projectors |psi><psi| for a (B, d) stack of state vectors."""
    return psi[:, :, None] * psi.conj()[:, None, :]


def _block_maps(params: ModelParams, b: int, proj: np.ndarray) -> np.ndarray:
    """Phi and dPhi/dnbar for a (B, 2^b, 2^b) stack of block input states
    ``proj``, as a (B, 2, 4, 4) array: one matmul for the whole stack."""
    tensor = _block_map_tensor(params, b)
    return (proj.reshape(len(proj), -1) @ tensor.T).reshape(-1, 2, 4, 4)


def block_map_superop(params: ModelParams, block: AncillaBlock) -> np.ndarray:
    """4x4 superoperator of Phi: rho_S -> tr_A{C[rho_S (x) Psi]}."""
    return _block_maps(params, block.b, block.projector[None])[0, 0]


_I4 = np.eye(4)
_TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])
_E3 = np.array([0.0, 0.0, 0.0, 1.0])
_B5 = np.array([0, 0, 0, 0, 1.0], dtype=complex)


def _inverse_or_nan(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.full_like(a, np.nan)


def _solve_fixed_point(superop: np.ndarray):
    """Solve (Phi - I) rho = 0 with tr rho = 1 for a (B, 4, 4) stack of maps.

    Trace preservation makes the rows of (Phi - I) at the two diagonal slots
    linearly dependent, so one of them can be replaced by the trace
    constraint, giving a square system. This avoids eigenvector extraction,
    which loses half the digits when the decaying part of the spectrum is
    defective (exact full-swap collisions). Returns rho (B, 2, 2), the
    inverses of the square systems (B, 4, 4) and a mask of the rows whose
    inverse passed the residual check. A row that fails it has a degenerate
    fixed space and takes the minimum-norm fixed point by least squares.
    """
    a = superop - _I4
    a[:, 3, :] = _TRACE_ROW
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = np.array([_inverse_or_nan(m) for m in a])
    x = inv[:, :, 3]
    # NaN or inf in x fails the comparison too
    ok = np.abs((a @ x[:, :, None])[:, :, 0] - _E3).max(axis=1) <= 1e-9
    if not ok.all():
        for i in np.flatnonzero(~ok):
            x[i] = np.linalg.lstsq(_stacked_system(superop[i]), _B5,
                                   rcond=None)[0]
    rho = x.reshape(-1, 2, 2)
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    rho /= (rho[:, 0, 0].real + rho[:, 1, 1].real)[:, None, None]
    return rho, inv, ok


def _stacked_system(superop: np.ndarray) -> np.ndarray:
    """(Phi - I) with the trace row appended, for the least-squares branch."""
    return np.vstack([superop - _I4, _TRACE_ROW])


def _fixed_point_pair(superop: np.ndarray, dsuperop: np.ndarray):
    """Fixed points rho* of a (B, 4, 4) stack of maps Phi and their
    derivatives drho*/dnbar, each as a (B, 2, 2) stack.

    Differentiating (Phi - I) rho* = 0 gives (Phi - I) drho* = -(dPhi) rho*
    with tr drho* = 0: the same system as the fixed point, solved again with
    a new right-hand side. Trace preservation of every Phi(nbar) keeps that
    right-hand side traceless, so the bordered row can again be dropped. A
    row with a degenerate fixed space solves the tangent by the same least
    squares, alone.
    """
    rho, inv, ok = _solve_fixed_point(superop)
    r = -(dsuperop @ rho.reshape(-1, 4, 1))
    r[:, 3] = 0.0
    x = (inv @ r)[:, :, 0]
    if not ok.all():
        for i in np.flatnonzero(~ok):
            # Re-derive through the checked path so non-unique or missing
            # fixed points surface the same way they do in steady_state_for.
            rho[i] = steady_state(superop[i]).rho_s_star
            ri = -(dsuperop[i] @ rho[i].reshape(-1))
            x[i] = np.linalg.lstsq(_stacked_system(superop[i]),
                                   np.append(ri, 0.0), rcond=None)[0]
    drho = x.reshape(-1, 2, 2)
    return rho, (drho + drho.conj().transpose(0, 2, 1)) / 2.0


def steady_state(superop: np.ndarray) -> SteadyStateResult:
    """Fixed point of a trace-preserving qubit map given as a 4x4 superoperator."""
    superop = np.asarray(superop, dtype=complex)
    evals = np.linalg.eigvals(superop)
    dist = np.abs(evals - 1.0)
    near = np.where(dist < 1e-8)[0]
    if near.size == 0:
        raise FixedPointError(
            f"no eigenvalue within 1e-8 of 1 (closest: {evals[np.argmin(dist)]})")
    rho = _solve_fixed_point(superop[None])[0][0]
    diff = (superop @ rho.reshape(-1)).reshape(2, 2) - rho
    # Trace norm of a Hermitian 2x2 in closed form.
    t, d = diff.trace().real, np.linalg.det(diff).real
    root = math.sqrt(max(t * t - 4.0 * d, 0.0))
    residual = 0.5 * (abs(t + root) + abs(t - root))
    return SteadyStateResult(rho_s_star=rho, residual=residual,
                             unique=near.size == 1)


def steady_state_for(params: ModelParams, block: AncillaBlock) -> SteadyStateResult:
    return steady_state(block_map_superop(params, block))


def _collide_block(pair: np.ndarray, x: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Let a fresh block collide with the system, for a stack of inputs.

    ``x[n, k, iS, jS, iD, jD]`` holds, for stack row n, the joint state of
    the system and the ancillas already out (k=0) and its derivative (k=1);
    ``proj[n]`` is that row's block state. The pair (S, dS) acts on (system,
    new block): rho -> S rho and drho -> S drho + dS rho. The stack rows and
    k fold into the matmul columns, so one matmul serves the whole stack.
    The new block is appended after the earlier ancillas.
    """
    n, d = x.shape[0], x.shape[4]
    big_b = proj.shape[1]
    dim = 4 * big_b * big_b
    # rows (iS, iB, jS, jB), columns (n, k, iD, jD)
    inp = (x.transpose(2, 3, 0, 1, 4, 5)[:, None, :, None]
           * proj.transpose(1, 2, 0)[None, :, None, :, :, None, None, None]
           ).reshape(dim, -1)
    out = (pair.reshape(2 * dim, dim) @ inp).reshape(2, dim, n, 2, d * d)
    y = out[0]
    y[:, :, 1] += out[1, :, :, 0]
    y = y.reshape(2, big_b, 2, big_b, n, 2, d, d)
    return y.transpose(4, 5, 0, 2, 6, 1, 7, 3).reshape(
        n, 2, 2, 2, d * big_b, d * big_b)


def outgoing_with_derivative(params: ModelParams, b: int, psi: np.ndarray,
                             n_measured: int):
    """Joint state of N consecutive outgoing ancillas at steady-state
    operation and its exact derivative in nbar, for a (B, 2^b) stack of
    normalized block states ``psi``; returns (rho, drho), each (B, 2^N, 2^N).

    Starts from (rho_S*, drho_S*) (x) Psi and applies the cached block
    superoperator pair to the system and one fresh block at a time, carrying
    the derivative forward by the product rule; then traces out S. Every
    step runs on the whole stack at once.
    """
    if not 1 <= n_measured <= MAX_MEASURED:
        raise ValueError(f"n_measured must be in 1..{MAX_MEASURED}")
    if n_measured % b != 0:
        raise ValueError(
            f"n_measured={n_measured} is not a multiple of block size {b}")
    proj = _projectors(psi)
    maps = _block_maps(params, b, proj)
    rho_s, drho_s = _fixed_point_pair(maps[:, 0], maps[:, 1])
    pair = block_collision_superop(params, b)
    x = np.stack([rho_s, drho_s], axis=1)[..., None, None]
    for _ in range(n_measured // b):
        x = _collide_block(pair, x, proj)
    out = x[:, :, 0, 0] + x[:, :, 1, 1]
    return out[:, 0], out[:, 1]


def outgoing_joint_state(params: ModelParams, block: AncillaBlock,
                         n_measured: int) -> np.ndarray:
    """Joint state of N consecutive outgoing ancillas at steady-state operation.

    Starts from rho_S* (x) Psi^{(x) N/b}, applies per ancilla the collision
    unitary on (S, A_i) followed by the thermal map on S, then traces out S.
    This is the state half of ``outgoing_with_derivative`` for one block.
    """
    return outgoing_with_derivative(params, block.b, block.psi[None],
                                    n_measured)[0][0]


def power_iteration_fixed_point(superop: np.ndarray, rho0: np.ndarray,
                                max_steps: int = 500,
                                tol: float = 1e-12) -> np.ndarray:
    """Iterate the block map from rho0; cross-check for steady_state."""
    rho = np.asarray(rho0, dtype=complex)
    for _ in range(max_steps):
        nxt = (superop @ rho.reshape(-1)).reshape(2, 2)
        if qmat.trace_norm(nxt - rho) < tol:
            return nxt
        rho = nxt
    return rho
