"""Stroboscopic block dynamics: the per-block step map, the block map on the
system and its fixed point, and the joint outgoing state of N consecutive
ancillas at steady state.

Subsystem ordering is system first, then ancillas in arrival order. Vectorized
density matrices use row-major flattening, so a map rho -> A rho B has
superoperator kron(A, B.T).

The outgoing stream is a finitely correlated state with the system as its
memory, so one step map per block carries everything the chain needs:
E: rho_S -> C_b...C_1(rho_S (x) Psi), with C_i the collision with ancilla i
followed by the thermal map on S. The thermal map is affine in its
coefficients, so both step-map caches sum collision orders over one cached
set of basis collisions, and each is a real matrix read by one real product
per row: states stacked at one point read a tensor in the block state's real
coordinates Re P + Im P, and one block state, at one point or the many of a
sweep row, a polynomial in the thermal coefficients.

A stack of step maps and their nbar derivatives is an (R, 2, rows, 4)
array: ``maps[r, 0]`` holds the maps and ``maps[r, 1]`` their derivatives
for stack row r. Columns index the system input (iS, jS). The rows are
[Phi; L; E]: the block map Phi = tr_A E on the system (4 rows, (iS, jS)),
which the fixed point reads; the last block L = tr_S E (4^b rows, the block
operator flattened row-major); and E itself (4*4^b rows: (iS, jS), then the
(row, column) legs of each ancilla of the block, latest first); a one-block
chain reads only the [Phi; L] prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import qmat
from .channels import (THERMAL_BASIS, ModelParams, collision_unitary,
                       thermal_coefficients, thermal_monomials)
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


def block_size(shape) -> int:
    """The block size b of a (Q, 2^b) stack of block states. b is 1 or 2:
    the package has no b=3 block spec or chain length yet."""
    if len(shape) != 2 or shape[1] not in (2, 4):
        raise ValueError(f"block size must be 1 or 2: psi stack shape {shape}")
    return shape[1].bit_length() - 1


@dataclass(frozen=True)
class AncillaBlock:
    """Block size b and the pure input state of one block of ancillas."""

    b: int
    psi: np.ndarray

    def __post_init__(self):
        psi = qmat.pure_states(np.ravel(self.psi))
        if block_size(psi[None].shape) != self.b:
            raise ValueError(f"psi dim {psi.shape[0]} does not match b={self.b}")
        object.__setattr__(self, "psi", psi)


@lru_cache(maxsize=128)
def _basis_collisions(interaction, g_tau_sa: float) -> np.ndarray:
    """Read-only (4, 16, 16) stack of the basis collisions C_e = B_e W: the
    collision unitary u's superoperator W = kron(u, u*), then the thermal
    map's basis element B_e (``THERMAL_BASIS``) on the system. Rows are the
    output legs (s, t, a, c), system first, and columns the inputs (S, T, A,
    C); thermal coefficients c give the pair (sum c_e C_e, sum dc_e C_e)."""
    u = collision_unitary(interaction, g_tau_sa).reshape(2, 2, 2, 2)
    w = np.einsum('saSA,tcTC->stacSTAC', u, u.conj()).reshape(4, 64)
    basis = np.zeros((4, 16))
    basis[THERMAL_BASIS[:2]] = THERMAL_BASIS[2]
    big_c = (basis.reshape(-1, 4) @ w).reshape(4, 16, 16)
    big_c.flags.writeable = False
    return big_c


def _layout(rows: int):
    """(2^b, whether E is present) of a step-map stack with ``rows`` rows:
    [Phi; L] has 4 + 4^b rows and [Phi; L; E] 4 + 5*4^b, and 4^b is never a
    multiple of 5."""
    with_e = (rows - 4) % 5 == 0
    return math.isqrt((rows - 4) // 5 if with_e else rows - 4), with_e


def _step_maps(mats: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Step maps of one block as a sum of collision orders: from K orders
    ``mats`` (K, b, 16, 16) of b collisions each and block input operators
    ``ops`` (Q, 2^b, 2^b), E = sum_k C_kb...C_k1(rho_S (x) Psi) in a (Q, 4 +
    5*4^b, 4) stack [Phi; L; E]. Collision i acts on (S, A_i), with the
    earlier ancillas' outputs, the later ones' inputs and the system input
    as spectators, and leaves the ancilla legs latest first, as the E rows
    have them.
    """
    b = ops.shape[1].bit_length() - 1
    d2 = 4 ** b
    # psi[q, (a_1, c_1), (a_2, c_2, ..., a_b, c_b)]
    psi = ops.reshape(-1, *[2] * (2 * b)).transpose(
        0, *[1 + i + j for i in range(b) for j in (0, b)]).reshape(-1, 4, d2 // 4)
    r = len(psi)
    out = np.empty((r, 4 + 5 * d2, 4), dtype=complex)
    e = out[:, 4 + d2:].reshape(r, 16, d2)
    for k, order in enumerate(mats):
        # y[r, (s, t), outputs of A_i..A_1, (S, T), inputs of A_i+1..A_b]
        y = (order[0].reshape(64, 4) @ psi).reshape(r, 16, d2)
        for i in range(1, b):
            # y with (a_{i+1}, c_{i+1}) next to (s, t): collision i + 1's rows
            y = order[i] @ y.reshape(r, 4, 4 ** (i + 1), 4, -1).transpose(
                0, 1, 3, 2, 4).reshape(r, 16, d2)
        e[...] = e + y if k else y
    # e_legs[r, s, t, a_b, c_b, ..., a_1, c_1, (S, T)]. Phi sums the block
    # diagonal, a_i = c_i, in row-major order of (a_1..a_b), and L adds the
    # system diagonal, its rows (a_1..a_b, c_1..c_b).
    e_legs = e.reshape(r, 2, 2, *[2] * (2 * b), 4)
    terms = [e_legs[(..., *[i for k in reversed(a) for i in (k, k)], slice(None))]
             for a in np.ndindex(*[2] * b)]
    phi = out[:, :4].reshape(r, 2, 2, 4)
    np.add(terms[0], terms[1], out=phi)
    for term in terms[2:]:
        phi += term
    last = out[:, 4:4 + d2].reshape(r, *[2] * (2 * b), 4)
    # L's legs taken latest first, as E has them
    latest_first = [1 + i for k in reversed(range(b)) for i in (k, b + k)]
    np.add(e_legs[:, 0, 0], e_legs[:, 1, 1],
           out=last.transpose(0, *latest_first, 1 + 2 * b))
    return out


def _hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian stack sum_ij x_ij K_ij, K_ij = ((1+i)E_ij + (1-i)E_ji)/2,
    of a real stack x: real part (x + x^T)/2 and imaginary part (x - x^T)/2,
    so x = Re P + Im P gives a Hermitian P back."""
    return ((1 + 1j) * x + (1 - 1j) * x.swapaxes(-1, -2)) / 2


@lru_cache(maxsize=1)
def _step_map_tensor(params: ModelParams, b: int, with_e: bool) -> np.ndarray:
    """Read-only (4^b, 2*rows*8) real matrix that maps the real coordinates
    x = Re P + Im P of a block input state P to its flattened step maps: the
    builder run on the basis K_ij of ``_hermitian``, a row each, viewed as
    reals and kept to [Phi; L] unless ``with_e``. With the point's C = sum
    c_e C_e and dC = sum dc_e C_e, the maps put C on every ancilla, and their
    derivative sums the b orders with dC on one. Only the optimizers' rounds,
    stacks of block states at one point, read it. The cache keeps one point:
    an optimizer call's rounds reread it; later sweep points never do."""
    big_c = _basis_collisions(params.interaction, params.g_tau_sa).reshape(4, -1)
    pair = (thermal_coefficients(np.array([params.nbar]),
                                 np.array([params.gamma_tau_se]), 1)
            @ big_c).reshape(2, 16, 16)
    basis = _hermitian(np.eye(4 ** b).reshape(-1, 2 ** b, 2 ** b))
    rows = 4 + 4 ** b * (5 if with_e else 1)
    # order k of the derivative takes pair[1], dC, on ancilla k
    maps = [_step_maps(pair[orders], basis)[:, :rows]
            for orders in (np.zeros((1, b), int), np.eye(b, dtype=int))]
    tensor = np.stack(maps, axis=1).reshape(4 ** b, -1).view(float)
    tensor.flags.writeable = False
    return tensor


@lru_cache(maxsize=128)
def _step_map_poly(interaction, g_tau_sa: float, psi: bytes) -> np.ndarray:
    """Read-only (M, 2*rows*4) real matrix, the step maps [Phi; L; E] of one
    block state, given by its bytes, as a polynomial in the thermal map's c:
    row m, the maps of the m-th monomial of degree b in ``thermal_monomials``
    (M = 4 for b=1, 10 for b=2) viewed as reals, takes a real coefficient as
    a tensor row does. Its first (4 + 4^b)*8 columns are the [Phi; L] prefix.

    Expanding the product over the ancillas of sum_e c_e C_e, with C_e the
    cached basis collisions, makes the row of c_e1...c_eb the sum of the
    orders over the distinct orderings of (C_e1, ..., C_eb), at any degree.
    """
    ops = _projectors(np.frombuffer(psi, dtype=complex)[None])
    big_c = _basis_collisions(interaction, g_tau_sa)
    poly = np.stack([
        _step_maps(big_c[np.array(sorted(set(permutations(m))))], ops)[0]
        for m in zip(*thermal_monomials(ops.shape[1].bit_length() - 1))])
    poly = poly.reshape(len(poly), -1).view(float)
    poly.flags.writeable = False
    return poly


@lru_cache(maxsize=128)
def block_collision_superop(params: ModelParams, b: int) -> np.ndarray:
    """Superoperator S of the full block collision on (system, A_1..A_b) and
    its derivative dS/dnbar, stacked as a read-only (2, 4^(1+b), 4^(1+b))
    array: ``s, ds = block_collision_superop(params, b)``.

    The block applies, per ancilla in arrival order, the collision unitary on
    (S, A_i) followed by the thermal map on S. S on rho_S (x) |a><c| is the
    step map of the block input |a><c|, so S is the E rows of the step-map
    tensor, taken back from its basis by E_ac = ((1-i)K_ac + (1+i)K_ca)/2,
    and rearranged. Nothing computes with S; it is the reference layout
    against which tests check the step maps.
    """
    big_b = 2 ** b
    k = _step_map_tensor(params, b, True).view(complex).reshape(
        big_b, big_b, 2, -1, 4)[:, :, :, 4 + big_b * big_b:]
    e = (((1 - 1j) * k + (1 + 1j) * k.swapaxes(0, 1)) / 2).reshape(
        big_b, big_b, 2, 2, 2, *[2] * (2 * b), 2, 2)
    # e[a, c, k, s, t, (A_b, C_b, ..., A_1, C_1), S, T]
    #   -> pair[k, (s, A_1..A_b, t, C_1..C_b), (S, a, T, c)]
    rows = [5 + 2 * (b - 1 - k) for k in range(b)]  # the axes of A_1..A_b
    pair = e.transpose(2, 3, *rows, 4, *[i + 1 for i in rows],
                       5 + 2 * b, 0, 6 + 2 * b, 1).reshape(
        2, 4 * big_b * big_b, 4 * big_b * big_b)
    pair.flags.writeable = False
    return pair


def _projectors(psi: np.ndarray) -> np.ndarray:
    """Stack of projectors |psi><psi| for a (B, d) stack of state vectors."""
    return psi[:, :, None] * psi.conj()[:, None, :]


def step_maps(params, psi: np.ndarray, n_measured: int) -> np.ndarray:
    """Step maps of one block for a stacked evaluation: one ``ModelParams``
    and each row of a (Q, 2^b) stack of block states, or each point of a
    sequence of model parameters that share g_tau_sa and the interaction (a
    sweep row, or one point) and a one-state stack. Returns an (R, 2, rows,
    4) stack [Phi; L; E] for a chain of ``n_measured`` ancillas, with the E
    rows only when the chain has more than one block.

    Both take one real product per row, coefficients against a cached real
    matrix: for one parameter point, each projector P's real coordinates Re
    P + Im P against the point's tensor; for a sequence, the monomials of
    each point's thermal map's c = (1, up, down, coh - 1) and their
    derivatives (``thermal_coefficients``) against the state's polynomial,
    or its [Phi; L] prefix for one block: every one-state evaluation reads it.
    """
    b = block_size(psi.shape)
    check_measured(n_measured, b)
    with_e = n_measured > b
    rows = 4 + 4 ** b * (5 if with_e else 1)
    if isinstance(params, ModelParams):
        p = _projectors(psi).reshape(len(psi), 1, -1)
        coeffs, cached = p.real + p.imag, _step_map_tensor(params, b, with_e)
    else:
        if not params:
            raise ValueError("step_maps got an empty parameter sequence")
        if len(psi) != 1:
            raise ValueError(f"a sequence of {len(params)} parameter points "
                             f"takes one block state, got {len(psi)}")
        first = params[0]
        if any(p.g_tau_sa != first.g_tau_sa
               or p.interaction is not first.interaction for p in params):
            raise ValueError("stacked parameters must share g_tau_sa and "
                             "interaction")
        cached = _step_map_poly(first.interaction, first.g_tau_sa,
                                psi.astype(complex).tobytes())[:, :rows * 8]
        c = thermal_coefficients(np.array([p.nbar for p in params]),
                                 np.array([p.gamma_tau_se for p in params]), b)
        coeffs = c.reshape(2 * len(params), 1, -1)
    # Real, not complex: numpy's OpenBLAS runs a complex product multithreaded,
    # even for one row, and stalls a scheduler slice per call against another
    # OpenBLAS pool (scipy's, if imported) when they want more workers than
    # there are cores. One gemv per row: numpy sends a one-row product to gemv
    # and a taller one to gemm, which round differently, so a row reads the
    # same bits alone as in any stack; one gemm of all rows raises RSS.
    maps = (coeffs @ cached).view(complex)
    return maps.reshape(-1, 2, rows, 4)


def step_maps_pullback(params: ModelParams,
                       maps_bar: np.ndarray) -> np.ndarray:
    """Reverse of ``step_maps`` for one ``ModelParams``: a cotangent of the
    (R, 2, rows, 4) step-map stack pulled back to the block states, as the
    Hermitian (R, 2^b, 2^b) stack G with which a variation of psi moves the
    function by 2 Re <G psi, dpsi>.

    The maps are x T, x = Re P + Im P, with T the cached tensor's real view,
    so x_bar is maps_bar's real view against T^T, a real product per row, and
    G = sum x_bar_ij K_ij: Re tr(G dP) = sum x_bar_ij (Re dP_ij + Im dP_ij).
    """
    r, _, rows, _ = maps_bar.shape
    big_b, with_e = _layout(rows)
    tensor = _step_map_tensor(params, big_b.bit_length() - 1, with_e)
    x_bar = maps_bar.reshape(r, 1, -1).view(float) @ tensor.T
    return _hermitian(x_bar.reshape(r, big_b, big_b))


def block_map_superop(params: ModelParams, block: AncillaBlock) -> np.ndarray:
    """4x4 superoperator of Phi: rho_S -> tr_A{C[rho_S (x) Psi]}."""
    return step_maps([params], block.psi[None], block.b)[0, 0, :4]


_I4 = np.eye(4)
_TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])
_E3 = np.array([[0.0], [0.0], [0.0], [1.0]])


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
    of its system gives the minimum-norm solutions instead; one overall max
    of the residuals tells whether any row failed, and only then are the
    rows told apart. The inverse of the bordered system is returned third,
    for ``_fixed_point_pullback``.
    """
    a = superop - _I4
    # Trace preservation: rows 0 and 3 of Phi sum to (1, 0, 0, 1), so those
    # rows of Phi - I cancel, and Phi[0, 0] - 1 is -Phi[3, 0], unrounded.
    defect = np.abs((a[:, 0] + a[:, 3]).view(float))
    if not defect.max() <= 1e-9:
        row = int(np.argmax(defect.max(axis=1)))
        raise FixedPointError(f"block map does not preserve trace (row {row}: "
                              f"defect {defect[row].max():.3e})")
    a[:, 0, 0] = -superop[:, 3, 0]
    a[:, 3, :] = _TRACE_ROW
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = np.array([_inverse_or_nan(m) for m in a])
    # NaN or inf in the inverse fails the comparison too, and one overall
    # max tells whether any row failed it
    residual = np.abs(a @ inv[:, :, 3:] - _E3)
    if not residual.max() <= 1e-9:
        ok = residual.max(axis=(1, 2)) <= 1e-9
        inv[~ok] = np.linalg.pinv(a[~ok])
    rho = inv[:, :, 3].reshape(-1, 2, 2)
    rho = (rho + rho.conj().transpose(0, 2, 1)) / 2.0
    rho /= (rho[:, 0, 0].real + rho[:, 1, 1].real)[:, None, None]
    r = -(dsuperop @ rho.reshape(-1, 4, 1))
    r[:, 3] = 0.0
    drho = (inv @ r).reshape(-1, 2, 2)
    return rho, (drho + drho.conj().transpose(0, 2, 1)) / 2.0, inv


def _fixed_point_pullback(dsuperop, inv, rho_h, drho_h, rho_bar, drho_bar):
    """Reverse of ``_fixed_point_pair``: the cotangents (rho_bar, drho_bar)
    of its outputs, each (B, 4, 1), pulled back to its maps as a (B, 2, 4,
    4) stack (Phi_bar, dPhi_bar). rho_h and drho_h are the outputs as (B, 1,
    4) rows, conjugated.

    Each solve x = A^-1 y pulls back as y_bar = A^-H x_bar and A_bar =
    -y_bar x^dag, with the inverse the forward pass formed. Row 3 of A is
    the trace constraint, which no map entry reaches. Symmetrizing and
    normalizing leave a trace-one Hermitian solution as it is, so they pull
    back as the identity.
    """
    inv_h = inv.conj().transpose(0, 2, 1)
    # drho = A^-1 r with r = -(dPhi rho) outside the trace row
    r_bar = inv_h @ drho_bar
    a_bar = -r_bar @ drho_h
    r_bar[:, 3] = 0.0
    out = np.empty((len(inv), 2, 4, 4), dtype=complex)
    np.matmul(-r_bar, rho_h, out=out[:, 1])
    # rho = A^-1 e_3, read by both the state and the right-hand side r
    s_bar = inv_h @ (rho_bar - dsuperop.conj().transpose(0, 2, 1) @ r_bar)
    np.subtract(a_bar, s_bar @ rho_h, out=out[:, 0])
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
    stack ``maps`` built for N; returns (rho, drho, tape), rho and drho each
    (R, 2^N, 2^N), and the tape the arrays of the pass that
    ``outgoing_pullback`` reads.

    The Phi rows give the fixed point and its tangent (rho_S*, drho_S*).
    Each block before the last takes matmuls over the system legs of its E
    rows: E x, and E dx + dE x, the product rule without dE dx. The last
    block takes the same with its L rows, which ends the chain. The ancilla legs
    pile up latest first and, when there is more than one block, are put in
    arrival order once, at the end.
    """
    r, _, rows, _ = maps.shape
    big_b, with_e = _layout(rows)
    b = big_b.bit_length() - 1
    check_measured(n_measured, b)
    blocks = n_measured // b
    if blocks > 1 and not with_e:
        raise ValueError(f"a chain of {blocks} blocks needs the E rows: build "
                         f"the step maps for n_measured={n_measured}")
    d2 = big_b * big_b
    phi, last, e = maps[:, :, :4], maps[:, :, 4:4 + d2], maps[:, :, 4 + d2:]
    rho_s, drho_s, inv = _fixed_point_pair(phi[:, 0], phi[:, 1])
    # x[r, (iS, jS), columns]: the state; dx its derivative
    x, dx = rho_s.reshape(r, 4, 1), drho_s.reshape(r, 4, 1)
    steps = []
    for i in range(blocks):
        step = e if i < blocks - 1 else last
        steps.append((step, x, dx))
        # M dx + dM x summed in place, then M x, so a block holds at most
        # two arrays of its output's size
        dx = step[:, 0] @ dx
        dx += step[:, 1] @ x
        x = step[:, 0] @ x
        if i < blocks - 1:
            x, dx = x.reshape(r, 4, -1), dx.reshape(r, 4, -1)
    dim = big_b ** blocks
    perm = None
    if blocks > 1:
        # x's columns are legs (0 for a row, 1 for a column, ancilla): the
        # last block's as L has them, then each earlier ancilla's as E has
        # them, latest first; rho takes them as (i_1..i_N), (j_1..j_N).
        tail = range(n_measured - b, n_measured)
        columns = [(0, a) for a in tail] + [(1, a) for a in tail]
        columns += [(k, a) for a in reversed(range(n_measured - b))
                    for k in (0, 1)]
        perm = [0] + [1 + columns.index(leg) for leg in sorted(columns)]
        legs = (r, *[2] * (2 * n_measured))
        # rho's copy is made, and x dropped, before drho's copy
        x = x.reshape(legs).transpose(perm).reshape(r, dim, dim)
        dx = dx.reshape(legs).transpose(perm).reshape(r, dim, dim)
    rho, drho = x.reshape(r, dim, dim), dx.reshape(r, dim, dim)
    return rho, drho, (maps, inv, steps, perm)


def outgoing_pullback(tape, rho_bar: np.ndarray,
                      drho_bar: np.ndarray) -> np.ndarray:
    """Reverse of ``outgoing_with_derivative``, from its ``tape``: the
    cotangents (rho_bar, drho_bar) of its outputs pulled back to the
    step-map stack, as an array shaped like ``maps``. A cotangent pairs with
    a variation as Re tr(bar^dag delta).

    Each block is linear in its rows (M, dM), E or L: the forward x' = M x
    and dx' = M dx + dM x pull back as z_bar = [x'_bar; dx'_bar], [M;
    dM]_bar = z_bar x^dag, M_bar += dx'_bar dx^dag, x_bar = [M; dM]^dag
    z_bar and dx_bar = M^dag dx'_bar. The L cotangent fills the L rows, the
    E cotangents of the blocks before the last add up in the E rows, and the
    fixed point pulls back to the Phi rows. Each block conjugates its rows
    and its x and dx once; the first block's x and dx are the fixed point
    and its tangent, so their conjugates serve the fixed point's pullback.
    """
    maps, inv, steps, perm = tape
    r, _, rows, _ = maps.shape
    x_bar, dx_bar = rho_bar, drho_bar
    if perm is not None:
        legs = (r, *[2] * (len(perm) - 1))
        back = [perm.index(k) for k in range(len(perm))]
        x_bar, dx_bar = (y.reshape(legs).transpose(back)
                         for y in (rho_bar, drho_bar))
    maps_bar = np.zeros(maps.shape, dtype=complex)
    for i in reversed(range(len(steps))):
        step, x, dx = steps[i]
        half = step.shape[2]
        x_h, dx_h = x.conj().transpose(0, 2, 1), dx.conj().transpose(0, 2, 1)
        x_bar, dx_bar = x_bar.reshape(r, half, -1), dx_bar.reshape(r, half, -1)
        z_bar = np.concatenate([x_bar, dx_bar], axis=1)
        step_bar = (z_bar @ x_h).reshape(r, 2, half, 4)
        step_bar[:, 0] += dx_bar @ dx_h
        step_h = step.conj().reshape(r, -1, 4).transpose(0, 2, 1)
        x_bar = step_h @ z_bar
        dx_bar = step_h[:, :, :half] @ dx_bar
        # the L rows follow the 4 Phi rows; the E rows end the stack
        target = (slice(4, 4 + half) if i == len(steps) - 1
                  else slice(rows - half, rows))
        maps_bar[:, :, target] += step_bar
    # the first block's x and dx are the fixed point and its tangent
    maps_bar[:, :, :4] = _fixed_point_pullback(
        maps[:, 1, :4], inv, x_h, dx_h, x_bar, dx_bar)
    return maps_bar


def outgoing_joint_state(params: ModelParams, block: AncillaBlock,
                         n_measured: int) -> np.ndarray:
    """Joint state of N consecutive outgoing ancillas at steady-state operation.

    Starts from rho_S* (x) Psi^{(x) N/b}, applies per ancilla the collision
    unitary on (S, A_i) followed by the thermal map on S, then traces out S.
    This is the state half of ``outgoing_with_derivative`` for one block.
    """
    maps = step_maps([params], block.psi[None], n_measured)
    return outgoing_with_derivative(maps, n_measured)[0][0]
