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
    """The block map does not preserve trace, so it has no fixed state to
    solve for. A trace-preserving map always has eigenvalue 1."""


def is_integer(value) -> bool:
    """Whether value is a Python or numpy int; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name: str) -> int:
    """An integer >= 0: a seed (numpy's generators take no other) or a count."""
    if not is_integer(value) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def check_measured(n_measured, b: int) -> None:
    """Reject an ancilla count the chain cannot take: it must be an integer
    in 1..MAX_MEASURED and a multiple of the block size."""
    if not is_integer(n_measured):
        raise ValueError(f"n_measured must be an integer, got {n_measured!r}")
    if not 1 <= n_measured <= MAX_MEASURED:
        raise ValueError(f"n_measured must be in 1..{MAX_MEASURED}, "
                         f"got {n_measured}")
    if n_measured % b:
        raise ValueError(f"n_measured={n_measured} is not a multiple of block "
                         f"size {b}")


@dataclass(frozen=True)
class AncillaBlock:
    """Block size b and the pure input state of one block of ancillas."""

    b: int
    psi: np.ndarray

    def __post_init__(self):
        if self.b not in (1, 2):
            raise ValueError(f"block size must be 1 or 2, got {self.b}")
        psi = qmat.pure_states(np.ravel(self.psi))
        if psi.shape[0] != 2 ** self.b:
            raise ValueError(f"psi dim {psi.shape[0]} does not match b={self.b}")
        object.__setattr__(self, "psi", psi)


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
    or Q equal to 1: an (max(P, Q), 2, 4*4^b, 4) stack.

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


def step_maps(params, psi: np.ndarray) -> np.ndarray:
    """Step maps of one block for a stacked evaluation: either one
    ``ModelParams`` and each row of a (Q, 2^b) stack of block states, or each
    point of a sequence of model parameters that share g_tau_sa and the
    interaction, such as one row of a sweep grid, and a one-state stack.
    Returns an (R, 2, 4*4^b, 4) stack; b is read from the width of ``psi``.

    One parameter point takes two real matmuls against its cached step-map
    tensor. A sequence is built per ancilla from the stacked one-collision
    pairs and forms no tensor: on a 21-point b=2 row that is ~18x faster
    than forming a tensor per point, whose cache would then never hit.
    """
    if psi.ndim != 2 or psi.shape[1] not in (2, 4):
        raise ValueError(
            f"block size must be 1 or 2: psi stack shape {psi.shape}")
    if isinstance(params, ModelParams):
        # Real products, not one complex one: numpy's OpenBLAS runs a complex
        # product against the tensor multithreaded, even for the optimizer's
        # one-row stack, scipy's L-BFGS-B wakes scipy's own OpenBLAS pool
        # between two such calls, and when the two pools want more workers
        # than there are cores they stall each other for a scheduler slice
        # per call. These real products do not.
        b = psi.shape[1].bit_length() - 1
        tensor = _step_map_tensor(params, b).view(float)
        p = _projectors(psi).reshape(len(psi), -1)
        maps = (p.real @ tensor).view(complex) + 1j * (p.imag @ tensor).view(complex)
        return maps.reshape(len(psi), 2, -1, 4)
    if not params:
        raise ValueError("step_maps needs at least one parameter point, got "
                         "an empty parameter sequence")
    if len(params) > 1 and len(psi) > 1:
        raise ValueError(f"a sequence of {len(params)} parameter points takes "
                         f"one block state, got {len(psi)}")
    return _step_maps(_collision_pairs(params), _projectors(psi))


def step_maps_pullback(params: ModelParams,
                       maps_bar: np.ndarray) -> np.ndarray:
    """Reverse of ``step_maps`` for one ``ModelParams``: a cotangent of the
    (R, 2, 4*4^b, 4) step-map stack pulled back to the block states, as
    the Hermitian (R, 2^b, 2^b) stack G with which a variation of psi moves
    the function by 2 Re <G psi, dpsi>.

    The maps are linear in P = |psi><psi|, maps = P T, so P_bar = maps_bar
    T^dag against the cached tensor, and G is its Hermitian part.
    """
    r = len(maps_bar)
    big_b = math.isqrt(maps_bar.shape[2] // 4)
    tensor = _step_map_tensor(params, big_b.bit_length() - 1).view(float)
    m = maps_bar.reshape(r, -1)
    # Real products, not one complex one, for the reason given in step_maps:
    # the real and imaginary parts of maps_bar T^dag are [Re m, Im m] and
    # [Im m, -Re m] against [Re T, Im T].
    parts = np.concatenate([m, -1j * m]).view(float) @ tensor.T
    g = (parts[:r] + 1j * parts[r:]).reshape(r, big_b, big_b)
    return (g + g.conj().transpose(0, 2, 1)) / 2.0


def _block_trace(maps: np.ndarray) -> np.ndarray:
    """Block trace of a step-map stack: Phi and dPhi/dnbar, (R, 2, 4, 4)."""
    r, _, rows, _ = maps.shape
    big_b = math.isqrt(rows // 4)
    return maps.reshape(r, 2, 4, big_b * big_b, 4)[:, :, :, ::big_b + 1].sum(axis=3)


def block_map_superop(params: ModelParams, block: AncillaBlock) -> np.ndarray:
    """4x4 superoperator of Phi: rho_S -> tr_A{C[rho_S (x) Psi]}."""
    return _block_trace(step_maps(params, block.psi[None]))[0, 0]


_I4 = np.eye(4)
_TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])
_E3 = np.array([0.0, 0.0, 0.0, 1.0])


def _inverse_or_nan(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.full_like(a, np.nan)


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
    inverse. A map that does not preserve trace raises FixedPointError. A
    trace-preserving map has a unit eigenvalue, so a row whose inverse fails
    the residual check has a degenerate fixed space, and the pseudo-inverse
    of its system gives the minimum-norm solutions instead. The inverse of
    the bordered system is returned third, for ``_fixed_point_pullback``.
    """
    a = superop - _I4
    # Trace preservation: rows 0 and 3 of Phi sum to the trace functional
    # (1, 0, 0, 1), so those rows of Phi - I cancel.
    defect = np.abs((a[:, 0] + a[:, 3]).view(float))
    if not defect.max() <= 1e-9:
        row = int(np.argmax(defect.max(axis=1)))
        raise FixedPointError(f"block map does not preserve trace (row {row}: "
                              f"defect {defect[row].max():.3e})")
    a[:, 3, :] = _TRACE_ROW
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = np.array([_inverse_or_nan(m) for m in a])
    # NaN or inf in the inverse fails the comparison too
    ok = np.abs((a @ inv[:, :, 3:])[:, :, 0] - _E3).max(axis=1) <= 1e-9
    if not ok.all():
        inv[~ok] = np.linalg.pinv(a[~ok])
    rho = inv[:, :, 3].reshape(-1, 2, 2)
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    rho /= (rho[:, 0, 0].real + rho[:, 1, 1].real)[:, None, None]
    r = -(dsuperop @ rho.reshape(-1, 4, 1))
    r[:, 3] = 0.0
    drho = (inv @ r).reshape(-1, 2, 2)
    return rho, (drho + drho.conj().transpose(0, 2, 1)) / 2.0, inv


def _fixed_point_pullback(dsuperop, inv, rho, drho, rho_bar, drho_bar):
    """Reverse of ``_fixed_point_pair``: the cotangents (rho_bar, drho_bar)
    of its outputs, each (B, 4, 1), pulled back to its maps as a (B, 2, 4,
    4) stack (Phi_bar, dPhi_bar).

    Each solve x = A^-1 y pulls back as y_bar = A^-H x_bar and A_bar =
    -y_bar x^dag, with the inverse the forward pass formed. Row 3 of A is
    the trace constraint, which no map entry reaches. Symmetrizing and
    normalizing leave a trace-one Hermitian solution as it is, so they pull
    back as the identity.
    """
    inv_h = inv.conj().transpose(0, 2, 1)
    rho, drho = rho.reshape(-1, 4, 1), drho.reshape(-1, 4, 1)
    # drho = A^-1 r with r = -(dPhi rho) outside the trace row
    r_bar = inv_h @ drho_bar
    a_bar = -r_bar @ drho.conj().transpose(0, 2, 1)
    r_bar[:, 3] = 0.0
    rho_h = rho.conj().transpose(0, 2, 1)
    out = np.empty((len(inv), 2, 4, 4), dtype=complex)
    out[:, 1] = -r_bar @ rho_h
    # rho = A^-1 e_3, read by both the state and the right-hand side r
    s_bar = inv_h @ (rho_bar - dsuperop.conj().transpose(0, 2, 1) @ r_bar)
    out[:, 0] = a_bar - s_bar @ rho_h
    out[:, 0, 3] = 0.0
    return out


def steady_state(superop: np.ndarray) -> np.ndarray:
    """Fixed point of a trace-preserving qubit map given as a 4x4
    superoperator: the one-map case of ``_fixed_point_pair``, so a map with
    a degenerate fixed space gives its minimum-norm fixed point."""
    superop = np.asarray(superop, dtype=complex)
    return _fixed_point_pair(superop[None], np.zeros_like(superop[None]))[0][0]


def outgoing_with_derivative(maps: np.ndarray, n_measured: int):
    """Joint state of N consecutive outgoing ancillas at steady-state
    operation and its exact derivative in nbar, for each row of a step-map
    stack ``maps``; returns (rho, drho, tape), rho and drho each (R, 2^N,
    2^N), and the tape the arrays of the pass that ``outgoing_pullback``
    reads.

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
    check_measured(n_measured, b)
    phi = _block_trace(maps)
    rho_s, drho_s, inv = _fixed_point_pair(phi[:, 0], phi[:, 1])
    # x[r, (iS, jS), columns]: the state; dx its derivative
    x, dx = rho_s.reshape(r, 4, 1), drho_s.reshape(r, 4, 1)
    blocks = n_measured // b
    split = maps.reshape(r, 2, 4, -1, 4)
    last = split[:, :, 0] + split[:, :, 3]
    steps = []
    for i in range(blocks):
        step = maps if i < blocks - 1 else last
        steps.append((step, x, dx))
        z = step.reshape(r, -1, 4) @ x
        half = z.shape[1] // 2
        x, dx = z[:, :half], step[:, 0] @ dx + z[:, half:]
        if i < blocks - 1:
            x, dx = x.reshape(r, 4, -1), dx.reshape(r, 4, -1)
    # columns (i_L, j_L, ..., i_1, j_1) -> (i_1..i_L), (j_1..j_L)
    order = [1 + 2 * (blocks - 1 - k) for k in range(blocks)]
    perm = [0] + order + [o + 1 for o in order]
    legs = (r, *[big_b] * (2 * blocks))
    dim = big_b ** blocks
    rho, drho = (y.reshape(legs).transpose(perm).reshape(r, dim, dim)
                 for y in (x, dx))
    return rho, drho, (maps, phi[:, 1], inv, rho_s, drho_s, steps, perm)


def outgoing_pullback(tape, rho_bar: np.ndarray,
                      drho_bar: np.ndarray) -> np.ndarray:
    """Reverse of ``outgoing_with_derivative``, from its ``tape``: the
    cotangents (rho_bar, drho_bar) of its outputs pulled back to the
    step-map stack, as an array shaped like ``maps``. A cotangent pairs with
    a variation as Re tr(bar^dag delta).

    Each block is linear in (E, dE): the forward z = [E; dE] x and dx' = z_1
    + E dx pull back as z_bar = [x'_bar; dx'_bar], [E; dE]_bar = z_bar
    x^dag, E_bar += dx'_bar dx^dag, x_bar = [E; dE]^dag z_bar and dx_bar =
    E^dag dx'_bar. The fixed point and the block trace then pull back to
    the maps.
    """
    maps, dphi, inv, rho_s, drho_s, steps, perm = tape
    r, _, rows, _ = maps.shape
    big_b = math.isqrt(rows // 4)
    legs = (r, *[big_b] * (len(perm) - 1))
    back = [perm.index(k) for k in range(len(perm))]
    x_bar, dx_bar = (y.reshape(legs).transpose(back)
                     for y in (rho_bar, drho_bar))
    maps_bar = np.zeros(maps.shape, dtype=complex)
    split_bar = maps_bar.reshape(r, 2, 4, -1, 4)
    for i in reversed(range(len(steps))):
        step, x, dx = steps[i]
        half = step.shape[2]
        x_bar, dx_bar = x_bar.reshape(r, half, -1), dx_bar.reshape(r, half, -1)
        z_bar = np.concatenate([x_bar, dx_bar], axis=1)
        step_bar = (z_bar @ x.conj().transpose(0, 2, 1)).reshape(r, 2, half, 4)
        step_bar[:, 0] += dx_bar @ dx.conj().transpose(0, 2, 1)
        x_bar = step.reshape(r, -1, 4).conj().transpose(0, 2, 1) @ z_bar
        dx_bar = step[:, 0].conj().transpose(0, 2, 1) @ dx_bar
        if i < len(steps) - 1:
            maps_bar += step_bar
        else:
            split_bar[:, :, 0] += step_bar
            split_bar[:, :, 3] += step_bar
    phi_bar = _fixed_point_pullback(dphi, inv, rho_s, drho_s, x_bar, dx_bar)
    split_bar[:, :, :, ::big_b + 1] += phi_bar[:, :, :, None]
    return maps_bar


def outgoing_joint_state(params: ModelParams, block: AncillaBlock,
                         n_measured: int) -> np.ndarray:
    """Joint state of N consecutive outgoing ancillas at steady-state operation.

    Starts from rho_S* (x) Psi^{(x) N/b}, applies per ancilla the collision
    unitary on (S, A_i) followed by the thermal map on S, then traces out S.
    This is the state half of ``outgoing_with_derivative`` for one block.
    """
    maps = step_maps(params, block.psi[None])
    return outgoing_with_derivative(maps, n_measured)[0][0]

