"""Acceptance gate: scalar regression checks plus invariant suites.

Each check prints a single [PASS]/[FAIL] line, so a verbose run reads as a
checklist. Check 05 asserts that the |g>-ancilla ratio at nbar=10,
gamma_tau=0.04 (about 77.3) matches its full-swap closed form to 1e-6
relative. It used to assert a ratio >= 95, which lay above the single-ancilla
optimum over all states and all gamma_tau that check 04 asserts (77.3).
"""

import math

import numpy as np
import pytest

from collide_qfi import qmat
from collide_qfi.channels import Interaction, ModelParams, thermal_kraus
from collide_qfi.collision import AncillaBlock, block_map_superop, outgoing_joint_state
from collide_qfi.fisher import fisher_for
from collide_qfi.sweeps import claim_suite, render_report
from fd_oracle import default_step, fd_qfi, joint_state_builder, state_pair
from oracles import Povm, cfi, default_rk4_steps, lindblad_rk4, partial_trace


@pytest.fixture(scope="module")
def report():
    return claim_suite()


def by_name(report):
    return {r.name: r for r in report}


def gate(tag, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}" + (f": {detail}" if detail else ""))
    assert ok, f"{tag}: {detail}"


def gate_claims(report, tag, names):
    results = [by_name(report)[n] for n in names]
    detail = "; ".join(f"{r.name} measured {r.measured:.6g} vs {r.expected:.6g}"
                       for r in results)
    gate(tag, all(r.passed for r in results), detail)


def test_01_zz_single_ancilla_angles(report):
    gate_claims(report, "acceptance-01 zz angle dependence",
                ["zz-angle-0", "zz-angle-1", "zz-angle-2"])


def test_02_zz_progression_closed_form(report):
    gate_claims(report, "acceptance-02 zz arithmetic progression",
                ["zz-progression"])


def test_03_zz_collective_increment_max(report):
    gate_claims(report, "acceptance-03 zz max collective increment",
                ["zz-delta-max"])


def test_04_exchange_single_ancilla_optimum(report):
    gate_claims(report, "acceptance-04 exchange single-ancilla optimum",
                ["exchange-opt-1-1"])


def test_05_ground_probe_small_coupling_bound(report):
    gate_claims(report, "acceptance-05 ground-probe small-coupling bound",
                ["exchange-ground-small-coupling"])


def test_06_exchange_collective_advantage(report):
    gate_claims(report, "acceptance-06 exchange two-ancilla advantage",
                ["exchange-collective-ratio", "exchange-collective-location",
                 "exchange-collective-thermal"])


def test_07_ground_probe_additivity(report):
    gate_claims(report, "acceptance-07 ground-probe additivity",
                ["exchange-ground-additivity"])


def test_08_b2_product_states_near_optimal(report):
    gate_claims(report, "acceptance-08 b=2 product states near-optimal",
                ["b2-product-near-optimal", "b2-optimum-uncorrelated"])


def test_09_low_temperature_threshold(report):
    gate_claims(report, "acceptance-09 low-temperature threshold",
                ["b2-low-temperature-threshold"])


def test_10_cptp_randomized_suite():
    rng = np.random.default_rng(0)
    worst_trace, worst_eig = 0.0, 0.0
    for i in range(1000):
        nbar = 5.0 * rng.random()
        gt = 3.0 * rng.random()
        # constructor enforces Kraus completeness at 1e-12
        ch = thermal_kraus(nbar, gt)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        out = ch.apply(rho)
        worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(out).min()))
        if i % 10 == 0:
            interaction = Interaction.ZZ if i % 20 else Interaction.EXCHANGE
            params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                                 g_tau_sa=rng.random() * math.pi,
                                 interaction=interaction)
            block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
            s = block_map_superop(params, block)
            mapped = (s @ rho.reshape(-1)).reshape(2, 2)
            worst_trace = max(worst_trace, abs(np.trace(mapped).real - 1.0))
            worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(mapped).min()))
    ok = worst_trace < 1e-12 and worst_eig < 1e-10
    gate("acceptance-10 randomized CPTP suite", ok,
         f"1000 cases, worst trace error {worst_trace:.2e}, "
         f"worst negative eigenvalue {worst_eig:.2e}")


def test_11_thermal_map_vs_rk4_oracle():
    rng = np.random.default_rng(1)
    nbars = (0.0, 0.5, 1.0, 2.0, 4.0)
    gts = (0.02, 0.05, 0.1, 0.2, 0.3)
    pairs = [(nbar, gt) for nbar in nbars for gt in gts]
    stacks, outs = [], []
    for nbar, gt in pairs:
        a = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
        rhos = a @ a.conj().transpose(0, 2, 1)
        rhos = rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        stacks.append(rhos)
        outs.append(sum(k @ rhos @ k.conj().T
                        for k in thermal_kraus(nbar, gt).operators))
    # all 250 states run as one stack through the oracle, each with the
    # step count of its own parameter pair
    nbar_col, gt_col = (np.repeat(col, 10) for col in zip(*pairs))
    steps = np.repeat([default_rk4_steps(gt * (2 * nbar + 1))
                       for nbar, gt in pairs], 10)
    ref = lindblad_rk4(np.concatenate(stacks), nbar_col, gt_col, steps)
    worst = float(np.max(np.abs(np.concatenate(outs) - ref)))
    gate("acceptance-11 thermal map vs RK4 oracle", worst < 1e-8,
         f"25 parameter pairs x 10 states, worst deviation {worst:.2e}")


def random_two_outcome_povm(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    e = a @ a.conj().T
    e = e / np.linalg.eigvalsh(e).max() * rng.random()
    return Povm(effects=(e, np.eye(d) - e))


def test_12_cfi_bounded_by_qfi():
    rng = np.random.default_rng(2)
    cases = [
        (0.5, 0.3, Interaction.ZZ), (1.0, 0.5, Interaction.ZZ),
        (2.0, 1.0, Interaction.ZZ), (5.0, 0.2, Interaction.ZZ),
        (0.5, 0.3, Interaction.EXCHANGE), (1.0, 0.5, Interaction.EXCHANGE),
        (2.0, 0.2, Interaction.EXCHANGE), (5.0, 1.0, Interaction.EXCHANGE),
        (10.0, 0.3, Interaction.EXCHANGE), (0.3, 0.8, Interaction.EXCHANGE),
    ]
    block = AncillaBlock(b=1, psi=qmat.KET_PLUS_X)
    worst_excess = -math.inf
    for nbar, gt, interaction in cases:
        params = ModelParams(nbar=nbar, gamma_tau_se=gt, interaction=interaction)
        value = fisher_for(params, block, 1).value_nbar
        pair = state_pair(joint_state_builder(params, block, 1), nbar)
        for _ in range(20):
            povm = random_two_outcome_povm(rng, 2)
            c = cfi(*pair, povm)
            worst_excess = max(worst_excess, (c - value) / value)
    bound_ok = worst_excess <= 1e-6

    # diagonal ground-probe states: the z-basis measurement is optimal
    ground = AncillaBlock(b=1, psi=qmat.KET_G)
    worst_gap = 0.0
    for nbar, gt in [(1.0, 0.5), (4.0, 0.2)]:
        params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                             interaction=Interaction.EXCHANGE)
        for n in (1, 2):
            d = 2 ** n
            value = fisher_for(params, ground, n).value_nbar
            pair = state_pair(joint_state_builder(params, ground, n), nbar)
            z = Povm(effects=tuple(np.diag(np.eye(d)[i]).astype(complex)
                                   for i in range(d)))
            c = cfi(*pair, z)
            worst_gap = max(worst_gap, abs(c - value) / value)
    equal_ok = worst_gap < 1e-6
    gate("acceptance-12 classical vs quantum Fisher information",
         bound_ok and equal_ok,
         f"worst CFI excess {worst_excess:.2e}, "
         f"worst z-basis gap {worst_gap:.2e}")


def test_13_marginal_monotonicity_and_consistency():
    cases = [
        (1.0, 0.5, Interaction.ZZ, AncillaBlock(b=1, psi=qmat.KET_PLUS_X)),
        (2.0, 0.3, Interaction.EXCHANGE, AncillaBlock(b=1, psi=qmat.KET_G)),
        (1.0, 0.5, Interaction.EXCHANGE, AncillaBlock(b=1, psi=qmat.KET_PLUS_X)),
        (1.0, 0.5, Interaction.EXCHANGE,
         AncillaBlock(b=2, psi=np.kron(qmat.KET_G, qmat.KET_PLUS_X))),
    ]
    worst_drop, worst_marginal = 0.0, 0.0
    for nbar, gt, interaction, block in cases:
        params = ModelParams(nbar=nbar, gamma_tau_se=gt, interaction=interaction)
        windows = [n for n in range(block.b, 5, block.b)]
        values = [fisher_for(params, block, n).value_nbar for n in windows]
        for small, big in zip(values, values[1:]):
            worst_drop = max(worst_drop, (small - big) / max(small, 1e-30))
        for n_small, n_big in zip(windows, windows[1:]):
            rho_big = outgoing_joint_state(params, block, n_big)
            rho_small = outgoing_joint_state(params, block, n_small)
            reduced = partial_trace(rho_big, list(range(n_small)), [2] * n_big)
            worst_marginal = max(worst_marginal,
                                 float(np.max(np.abs(reduced - rho_small))))
    ok = worst_drop <= 1e-9 and worst_marginal < 1e-9
    gate("acceptance-13 marginal monotonicity and consistency", ok,
         f"worst QFI drop {worst_drop:.2e}, "
         f"worst marginal deviation {worst_marginal:.2e}")


def test_14_finite_difference_convergence():
    cases = [
        (1.0, 0.5, Interaction.ZZ, AncillaBlock(b=1, psi=qmat.KET_PLUS_X), 2),
        (10.0, 0.3, Interaction.EXCHANGE, AncillaBlock(b=1, psi=qmat.KET_G), 1),
        (0.5, 1.0, Interaction.EXCHANGE,
         AncillaBlock(b=2, psi=np.kron(qmat.KET_PLUS_X, qmat.KET_G)), 2),
    ]
    worst = 0.0
    for nbar, gt, interaction, block, n in cases:
        params = ModelParams(nbar=nbar, gamma_tau_se=gt, interaction=interaction)
        h = default_step(nbar)
        full = fd_qfi(params, block, n, h)
        half = fd_qfi(params, block, n, h / 2)
        worst = max(worst, abs(half - full) / full)
    gate("acceptance-14 finite-difference convergence", worst < 1e-6,
         f"worst relative change on halving the step {worst:.2e}")


def test_15_claim_suite_deterministic(report):
    second = claim_suite()
    same = render_report(report) == render_report(second)
    gate("acceptance-15 repeated claim runs byte-identical", same)
