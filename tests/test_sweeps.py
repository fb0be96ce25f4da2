import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from collide_qfi import collision, qmat, sweeps
from collide_qfi.channels import Interaction, ModelParams
from collide_qfi.collision import AncillaBlock, FixedPointError
from collide_qfi.fisher import RankChangeError, fisher_for, thermal_fi_nbar
from collide_qfi.optimize import optimize_b1, optimize_b2
from collide_qfi.sweeps import (ClaimResult, SweepConfig, _ground_swap_ratio,
                                _maximize_1d, parse_block, render_report,
                                run_sweep)
from collide_qfi.zz_analytic import zz_delta, zz_fn
from collide_qfi.cli import build_parser, parse_grid


def small_config(**overrides):
    kwargs = dict(nbar_grid=(0.5, 1.0), gamma_tau_grid=(0.2, 0.8),
                  interaction=Interaction.ZZ, block=parse_block("plusx"),
                  n_measured=2, quantities=("qfi", "ratio_thermal"))
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        small_config(nbar_grid=())
    with pytest.raises(ValueError):
        small_config(nbar_grid=(1.0, 0.5))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            small_config(nbar_grid=(0.5, bad))
        with pytest.raises(ValueError, match="non-finite"):
            small_config(gamma_tau_grid=(bad, 0.8))
    with pytest.raises(ValueError):
        small_config(quantities=("qfi", "bogus"))
    # CSV would print a repeated column twice and JSON once
    with pytest.raises(ValueError, match="quantity 'qfi' is repeated"):
        small_config(quantities=("qfi", "ratio_thermal", "qfi"))
    with pytest.raises(ValueError):
        small_config(block="optimize-b7")
    # the Schmidt weight is read from b=2 optima only
    for block in (parse_block("gg"), "optimize-b1"):
        with pytest.raises(ValueError, match="schmidt_r is defined for the "
                                             "optimize-b2 block only"):
            small_config(interaction=Interaction.EXCHANGE, block=block,
                         quantities=("qfi", "schmidt_r"))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="g_tau_sa must be finite"):
            small_config(g_tau_sa=bad)


def test_sweep_config_fields_of_the_wrong_type_are_named():
    # a string of quantities read as its letters ("unknown quantity 'q'"),
    # and a block of no known type raised AttributeError
    with pytest.raises(ValueError, match="quantities must be a sequence of "
                                         "names, got 'qfi'"):
        small_config(quantities="qfi")
    for bad in (None, 42, qmat.KET_PLUS_X):
        with pytest.raises(ValueError, match="block must be an AncillaBlock "
                                             "or a spec string"):
            small_config(block=bad)


def test_block_may_be_given_by_spec():
    # a spec string runs the block parse_block names, bit for bit as the
    # AncillaBlock does, and is stored as that block
    for spec, interaction, n in (("plusx", Interaction.ZZ, 2),
                                 ("gg", Interaction.EXCHANGE, 4),
                                 ("theta:1.2", Interaction.EXCHANGE, 2),
                                 ("schmidt:0.8,0.5,0.5,0.1,0.2",
                                  Interaction.EXCHANGE, 2)):
        named = small_config(interaction=interaction, block=spec, n_measured=n)
        built = small_config(interaction=interaction, block=parse_block(spec),
                             n_measured=n)
        assert isinstance(named.block, AncillaBlock)
        assert named.block.b == built.block.b
        assert np.array_equal(named.block.psi, built.block.psi)
        assert run_sweep(named) == run_sweep(built)
    with pytest.raises(ValueError, match="unknown block spec 'bogus'"):
        small_config(block="bogus")


def test_run_sweep_seed_is_an_integer_of_at_least_zero(monkeypatch):
    # -1 failed every point, 1.5 escaped the statuses as a TypeError, None
    # ran from OS entropy and True ran as 1: each is now refused before any
    # point is evaluated
    seeds = []

    def no_optimum(params, n_measured, seed):
        seeds.append(seed)
        raise RuntimeError("no optimum")

    monkeypatch.setattr(sweeps, "optimize_b2", no_optimum)
    config = small_config(interaction=Interaction.EXCHANGE, block="optimize-b2",
                          nbar_grid=(1.0,), gamma_tau_grid=(0.3,),
                          quantities=("qfi",))
    for bad in (-1, 1.5, None, True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run_sweep(config, seed=bad)
    assert seeds == []
    # a numpy integer is a seed, and reaches the optimizer
    [row] = run_sweep(config, seed=np.int64(3))
    assert row.status == "RuntimeError" and seeds == [3]


def test_interaction_may_be_given_by_name():
    # a name runs the model it names, bit for bit as the enum does: the zz
    # value at (1, 0.5), not the exchange one
    qfi = {}
    for interaction in ("zz", Interaction.ZZ):
        config = small_config(nbar_grid=(1.0,), gamma_tau_grid=(0.5,),
                              interaction=interaction, quantities=("qfi",))
        assert config.interaction is Interaction.ZZ
        [row] = run_sweep(config)
        qfi[interaction] = row.values["qfi"]
    assert qfi["zz"] == qfi[Interaction.ZZ]
    assert abs(qfi["zz"] - zz_fn(1.0, 0.5, 2)) < 1e-12 * qfi["zz"]
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction="exchange")
    assert params == ModelParams(nbar=1.0, gamma_tau_se=0.5,
                                 interaction=Interaction.EXCHANGE)
    config = small_config(interaction="exchange", block="optimize-b1",
                          n_measured=1, quantities=("qfi",))
    assert config.interaction is Interaction.EXCHANGE
    for bad in (None, "ZZ", "bogus"):
        with pytest.raises(ValueError):
            ModelParams(nbar=1.0, gamma_tau_se=0.5, interaction=bad)
        with pytest.raises(ValueError):
            small_config(interaction=bad)


def test_b2_domain_has_one_text_for_sweeps_and_the_optimizer():
    # both take the chain's count rule at block size 2
    texts = {1: "n_measured=1 is not a multiple of block size 2",
             3: "n_measured=3 is not a multiple of block size 2",
             5: "n_measured must be in 1..4, got 5",
             2.0: "n_measured must be an integer, got 2.0"}
    for interaction, n in itertools.product(
            (Interaction.ZZ, Interaction.EXCHANGE), texts):
        with pytest.raises(ValueError) as from_sweep:
            small_config(interaction=interaction, block="optimize-b2",
                         n_measured=n, quantities=("qfi",))
        params = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                             interaction=interaction)
        with pytest.raises(ValueError) as from_optimizer:
            optimize_b2(params, n)
        assert str(from_sweep.value) == str(from_optimizer.value) == texts[n]


def test_ancilla_count_must_be_an_integer():
    plusx = parse_block("plusx")
    params = ModelParams(nbar=1.0, gamma_tau_se=0.5)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="n_measured must be an integer"):
            small_config(n_measured=bad)
    with pytest.raises(ValueError, match="n_measured must be an integer"):
        fisher_for(params, plusx, 2.0)
    exchange = ModelParams(nbar=1.0, gamma_tau_se=0.5,
                           interaction=Interaction.EXCHANGE)
    with pytest.raises(ValueError, match="n_measured must be an integer"):
        optimize_b2(exchange, 2.0)
    # a numpy integer is a count
    rows = run_sweep(small_config(n_measured=np.int64(2)))
    assert [r.values for r in rows] == [r.values for r in
                                        run_sweep(small_config())]
    assert fisher_for(params, plusx, np.int64(2)) == fisher_for(params, plusx, 2)


def test_default_grids_shapes():
    defaults = build_parser().parse_args(["sweep"])
    nbar = parse_grid(defaults.nbar_grid)
    gt = parse_grid(defaults.gamma_tau_grid)
    assert len(nbar) == 41 and len(gt) == 41
    assert abs(nbar[0] - 0.1) < 1e-12 and abs(nbar[-1] - 10.0) < 1e-12
    assert abs(gt[0] - 0.01) < 1e-12 and abs(gt[-1] - 3.0) < 1e-12


def test_run_sweep_rows_and_values():
    rows = run_sweep(small_config())
    assert len(rows) == 4
    # rows follow the grid: nbar outer, gamma_tau inner
    assert [(r.nbar, r.gamma_tau) for r in rows] == [
        (0.5, 0.2), (0.5, 0.8), (1.0, 0.2), (1.0, 0.8)]
    for r in rows:
        assert r.status == "ok"
        expect = zz_fn(r.nbar, r.gamma_tau, 2)
        assert abs(r.values["qfi"] - expect) < 1e-6 * expect
        ratio = r.values["qfi"] / (2 * thermal_fi_nbar(r.nbar))
        assert abs(r.values["ratio_thermal"] - ratio) < 1e-9


def point_by_point(config):
    """Status and values of each grid point from one fisher_for call per
    point and quantity, the way a sweep evaluated them one at a time."""
    out = []
    for nbar in config.nbar_grid:
        for gt in config.gamma_tau_grid:
            params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                                 g_tau_sa=config.g_tau_sa,
                                 interaction=config.interaction)
            block, n = config.block, config.n_measured
            try:
                value = fisher_for(params, block, n).value_nbar
                values = {"qfi": value,
                          "ratio_thermal": value / (n * thermal_fi_nbar(nbar)),
                          "delta_zz": zz_delta(nbar, gt) / thermal_fi_nbar(nbar)}
                base = fisher_for(params, block, block.b).value_nbar
                values["ratio_per_copy"] = value / ((n // block.b) * base)
                out.append(("ok", values))
            except (ValueError, RuntimeError) as exc:
                out.append((type(exc).__name__, None))
    return out


def test_run_sweep_stacked_rows_match_fisher_for():
    # one stacked pass per nbar row gives what one fisher_for call per point
    # gives: the same statuses, values to 1e-12 relative
    rng = np.random.default_rng(2)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    random_b2 = AncillaBlock(b=2, psi=psi / np.linalg.norm(psi))
    gg = parse_block("gg")
    quantities = ("qfi", "ratio_thermal", "ratio_per_copy", "delta_zz")
    grid = dict(nbar_grid=(0.1, 0.7, 4.0), gamma_tau_grid=(0.01, 0.2, 1.0, 3.0))
    cases = [dict(block=parse_block("plusx"), n_measured=n) for n in (1, 2, 3, 4)]
    cases += [dict(interaction=Interaction.EXCHANGE, block=gg, n_measured=n)
              for n in (2, 4)]
    cases += [dict(interaction=interaction, block=random_b2, n_measured=n,
                   g_tau_sa=0.9)
              for interaction in Interaction for n in (2, 4)]
    cases = [dict(grid, **case) for case in cases]
    # n = 1e-6: a rank change at the three middle points only
    cases.append(dict(nbar_grid=(1e-6,), gamma_tau_grid=(0.01, 0.1, 0.3, 1.0, 3.0),
                      interaction=Interaction.EXCHANGE, block=gg, n_measured=4))
    for case in cases:
        config = small_config(quantities=quantities, **case)
        rows = run_sweep(config)
        expected = point_by_point(config)
        assert len(rows) == len(expected)
        for row, (status, values) in zip(rows, expected):
            assert row.status == status, (case, row)
            for q in quantities:
                if values is None:
                    assert math.isnan(row.values[q])
                else:
                    assert abs(row.values[q] - values[q]) <= 1e-12 * abs(values[q])
    assert [r.status for r in rows] == ["ok"] + ["RankChangeError"] * 3 + ["ok"]


def test_run_sweep_evaluates_each_point_once(monkeypatch):
    # a row with a failing point is not evaluated again point by point: one
    # stacked QFI call per block count over the points still live, and one
    # optimizer call per point and block count
    calls = []

    def counted(name, describe):
        call = getattr(sweeps, name)

        def wrapper(params, *args):
            calls.append((name, describe(params, *args)))
            return call(params, *args)
        monkeypatch.setattr(sweeps, name, wrapper)

    # the rows of a stacked call; the point and block count of an optimum
    counted("qfi_values", lambda params, psi, n: len(params))
    counted("optimize_b1", lambda params, n: (params.gamma_tau_se, n))
    gg4 = small_config(nbar_grid=(1e-6,),
                       gamma_tau_grid=(0.01, 0.1, 0.3, 1.0, 3.0),
                       interaction=Interaction.EXCHANGE, block=parse_block("gg"),
                       n_measured=4, quantities=("qfi", "ratio_per_copy"))
    rows = run_sweep(gg4)
    assert [r.status for r in rows] == (["ok"] + ["RankChangeError"] * 3
                                        + ["ok"])
    assert calls == [("qfi_values", 5), ("qfi_values", 2)]
    # Delta fails at gamma_tau = 0 after the row's QFI call
    calls.clear()
    zz = small_config(nbar_grid=(0.5, 1.0), gamma_tau_grid=(0.0, 0.5, 1.0),
                      quantities=("qfi", "delta_zz"))
    rows = run_sweep(zz)
    assert [r.status for r in rows] == ["ValueError", "ok", "ok"] * 2
    assert calls == [("qfi_values", 3)] * 2
    # the low-nbar b=1 optimum still reads the rank change, not a masked
    # value; only the point that passes N=2 is optimized at N=1
    calls.clear()
    b1 = small_config(nbar_grid=(1e-6,), gamma_tau_grid=(0.0, 0.1, 1.0),
                      interaction=Interaction.EXCHANGE, block="optimize-b1",
                      quantities=("qfi", "ratio_per_copy"))
    rows = run_sweep(b1)
    assert [r.status for r in rows] == ["undefined", "RankChangeError",
                                        "RankChangeError"]
    assert calls == [("optimize_b1", (gt, 2)) for gt in (0.0, 0.1, 1.0)] + [
        ("optimize_b1", (0.0, 1))]
    assert math.isnan(rows[1].values["qfi"])


def test_run_sweep_optimized_rows_match_optimizer_calls():
    # an optimizing block's row holds what one optimizer call per point and
    # block count gives, bit for bit
    nbar = 2.0
    config = small_config(nbar_grid=(nbar,), gamma_tau_grid=(0.3, 0.8),
                          interaction=Interaction.EXCHANGE, block="optimize-b1",
                          quantities=("qfi", "ratio_thermal", "ratio_per_copy",
                                      "theta_opt"))
    for row in run_sweep(config):
        params = ModelParams(nbar=nbar, gamma_tau_se=row.gamma_tau,
                             interaction=Interaction.EXCHANGE)
        opt, one = optimize_b1(params, 2), optimize_b1(params, 1)
        assert row.status == "ok"
        assert row.values == {
            "qfi": opt.value_nbar,
            "ratio_thermal": opt.value_nbar / (2 * thermal_fi_nbar(nbar)),
            "ratio_per_copy": opt.value_nbar / (2 * one.value_nbar),
            "theta_opt": opt.argmax.theta}
    seed = 3
    config = small_config(nbar_grid=(nbar,), gamma_tau_grid=(0.5,),
                          interaction=Interaction.EXCHANGE, block="optimize-b2",
                          n_measured=4,
                          quantities=("qfi", "ratio_per_copy", "schmidt_r"))
    [row] = run_sweep(config, seed=seed)
    params = ModelParams(nbar=nbar, gamma_tau_se=0.5,
                         interaction=Interaction.EXCHANGE)
    opt = optimize_b2(params, 4, seed=seed)
    one = optimize_b2(params, 2, seed=seed)
    assert row.status == "ok"
    assert row.values == {"qfi": opt.value_nbar,
                          "ratio_per_copy": opt.value_nbar / (2 * one.value_nbar),
                          "schmidt_r": opt.argmax.r}


def test_run_sweep_records_error_status():
    # b=2 optimization of N=3 ancillas fails at every point, so the config
    # is rejected; a point that fails alone keeps its error class. Delta has
    # no value without bath contact (gamma_tau = 0).
    with pytest.raises(ValueError,
                       match="n_measured=3 is not a multiple of block size 2"):
        small_config(block="optimize-b2", n_measured=3, quantities=("qfi",))
    config = small_config(gamma_tau_grid=(0.0, 0.5), n_measured=1,
                          quantities=("qfi", "delta_zz"))
    rows = run_sweep(config)
    for r in rows:
        assert r.status == ("ValueError" if r.gamma_tau == 0.0 else "ok")
        assert math.isnan(r.values["qfi"]) == (r.gamma_tau == 0.0)
    # F_th underflows to 0 at nbar=1e100: that row fails alone, with NaN in
    # every column
    config = small_config(nbar_grid=(1.0, 1e100), gamma_tau_grid=(0.5,),
                          n_measured=1)
    ok, huge = run_sweep(config)
    assert ok.status == "ok" and abs(ok.values["ratio_thermal"] - 1.0) < 1e-9
    assert huge.status == "ValueError"
    assert all(math.isnan(v) for v in huge.values.values())
    # the range check comes before Delta's own OverflowError at nbar=1e200
    config = small_config(nbar_grid=(1e200,), gamma_tau_grid=(0.5,),
                          quantities=("delta_zz",))
    [huge] = run_sweep(config)
    assert huge.status == "ValueError" and math.isnan(huge.values["delta_zz"])
    # a qfi-only sweep past the thermal-FI range fails there too, instead of
    # reading an underflowed QFI as ok (or warning of an overflow at 1e200)
    for case in (dict(block=parse_block("plusx")),
                 dict(interaction=Interaction.EXCHANGE, block=parse_block("gg"))):
        config = small_config(nbar_grid=(1.0, 1e100, 1e200),
                              gamma_tau_grid=(0.5,), quantities=("qfi",), **case)
        ok, *huge = run_sweep(config)
        assert ok.status == "ok" and ok.values["qfi"] > 0.0
        for r in huge:
            assert r.status == "ValueError" and math.isnan(r.values["qfi"])


def test_run_sweep_status_is_the_error_class(monkeypatch):
    # a block map that does not preserve trace is labelled by its error
    # class like any other failure, not as a degenerate fixed space (which
    # raises nothing: zz |+x> at gamma_tau = 0 reads ok)
    def not_trace_preserving(params, psi, n_measured):
        raise FixedPointError("block map does not preserve trace")

    [row] = run_sweep(small_config(nbar_grid=(1.0,), gamma_tau_grid=(0.0,),
                                   n_measured=1))
    assert row.status == "ok"
    monkeypatch.setattr(sweeps, "qfi_values", not_trace_preserving)
    rows = run_sweep(small_config())
    assert [r.status for r in rows] == ["FixedPointError"] * 4
    assert all(math.isnan(v) for r in rows for v in r.values.values())


def test_run_sweep_closed_form_only_computes_no_qfi(monkeypatch):
    # delta_zz needs no QFI, so a point whose QFI raises keeps its value
    # when only delta_zz is asked for, and reads NaN in every column when
    # the QFI is asked for too
    def rank_change(params, psi, n_measured):
        raise RankChangeError(1.0)

    monkeypatch.setattr(sweeps, "qfi_values", rank_change)
    gg = dict(interaction=Interaction.EXCHANGE, block=parse_block("gg"),
              n_measured=4)
    for r in run_sweep(small_config(quantities=("delta_zz",), **gg)):
        assert r.status == "ok"
        assert r.values == {"delta_zz": zz_delta(r.nbar, r.gamma_tau)
                            / thermal_fi_nbar(r.nbar)}
    for r in run_sweep(small_config(quantities=("qfi", "delta_zz"), **gg)):
        assert r.status == "RankChangeError"
        assert all(math.isnan(v) for v in r.values.values())


def test_run_sweep_ratio_per_copy():
    config = small_config(quantities=("qfi", "ratio_per_copy"))
    rows = run_sweep(config)
    for r in rows:
        f1 = zz_fn(r.nbar, r.gamma_tau, 1)
        assert abs(r.values["ratio_per_copy"] - r.values["qfi"] / (2 * f1)) < 1e-6


def test_run_sweep_ratio_per_copy_undefined_without_coupling():
    # with no system-ancilla coupling the one-block QFI is 0, so the per-copy
    # ratio has no value: the row says so instead of reading ok. The
    # derivative of the last block's rows is exactly 0, so one block reads a
    # QFI of exactly 0; two blocks read ~2e-34 to 3e-34 (exchange |g>, zz
    # |+x>), as the system trace of their chain rounds.
    for interaction, block, n, bound in ((Interaction.EXCHANGE, "g", 2, 1e-30),
                                         (Interaction.EXCHANGE, "gg", 2, 0.0),
                                         (Interaction.ZZ, "plusx", 1, 0.0),
                                         (Interaction.ZZ, "plusx", 2, 1e-30)):
        config = small_config(interaction=interaction, block=parse_block(block),
                              n_measured=n, gamma_tau_grid=(0.0, 0.5),
                              nbar_grid=(1.0,), g_tau_sa=0.0,
                              quantities=("qfi", "ratio_per_copy"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_sweep(config)
        assert [r.status for r in rows] == ["undefined", "undefined"]
        for r in rows:
            assert 0.0 <= r.values["qfi"] <= bound
            assert math.isnan(r.values["ratio_per_copy"])
        points = [ModelParams(nbar=1.0, gamma_tau_se=gt, g_tau_sa=0.0,
                              interaction=interaction) for gt in (0.0, 0.5)]
        d2 = 4 ** config.block.b
        maps = collision.step_maps(points, config.block.psi[None], n)
        assert not maps[:, 1, 4:4 + d2].any()


def test_fixed_block_sweep_builds_each_step_map_polynomial_once():
    # the rows of a fixed-block sweep read their step maps off one cached
    # polynomial per state: it is filled once for each, not once per row or
    # point, and the one-block chain of ratio_per_copy reads the same
    # polynomial as the N=4 chain
    nbar_grid = tuple(np.geomspace(0.1, 10.0, 5))
    gamma_tau_grid = tuple(np.geomspace(0.01, 3.0, 7))
    # a coupling no other test uses, so that every polynomial is new
    for block in ("plusx", "gg"):
        config = small_config(interaction=Interaction.EXCHANGE,
                              block=parse_block(block), n_measured=4,
                              nbar_grid=nbar_grid,
                              gamma_tau_grid=gamma_tau_grid, g_tau_sa=0.8642,
                              quantities=("qfi", "ratio_per_copy"))
        misses = collision._step_map_poly.cache_info().misses
        rows = run_sweep(config)
        assert len(rows) == 35 and all(r.status == "ok" for r in rows)
        assert collision._step_map_poly.cache_info().misses == misses + 1


def test_fisher_for_equals_the_sweep_row_bit_for_bit():
    # fisher_for is the one-point case of a sweep row: both read the block
    # state's cached step-map polynomial, so every point gives the same bits
    mismatches = []
    for interaction in Interaction:
        for spec, n in (("g", 1), ("plusx", 2), ("gg", 2), ("plusx-g", 4),
                        ("theta:1.1", 3)):
            block = parse_block(spec)
            for g_tau_sa, nbar in itertools.product((0.0, 0.7, math.pi / 2),
                                                    (0.05, 1.3, 10.0)):
                config = small_config(interaction=interaction, block=block,
                                      n_measured=n, nbar_grid=(nbar,),
                                      gamma_tau_grid=(0.01, 0.3, 2.0),
                                      g_tau_sa=g_tau_sa, quantities=("qfi",))
                for row in run_sweep(config):
                    params = ModelParams(nbar=nbar, gamma_tau_se=row.gamma_tau,
                                         g_tau_sa=g_tau_sa,
                                         interaction=interaction)
                    value = fisher_for(params, block, n).value_nbar
                    if value != row.values["qfi"]:
                        mismatches.append((interaction.value, spec, g_tau_sa,
                                           nbar, row.gamma_tau))
    assert mismatches == []


def test_one_state_evaluations_fill_no_step_map_tensor():
    # one block state at any number of points reads its polynomial: only
    # stacks of many states at one point, the optimizers' rounds, fill the
    # tensor cache. A coupling no other test uses keeps every point new.
    misses = collision._step_map_tensor.cache_info().misses
    for spec in ("plusx", "g-plusx"):
        block = parse_block(spec)
        params = ModelParams(nbar=0.7, gamma_tau_se=0.4, g_tau_sa=0.7531,
                             interaction=Interaction.EXCHANGE)
        fisher_for(params, block, 2 * block.b)
        collision.block_map_superop(params, block)
        collision.outgoing_joint_state(params, block, 2 * block.b)
        config = small_config(interaction=Interaction.EXCHANGE, block=block,
                              n_measured=2 * block.b, g_tau_sa=0.7531,
                              quantities=("qfi", "ratio_per_copy"))
        assert all(r.status == "ok" for r in run_sweep(config))
    assert collision._step_map_tensor.cache_info().misses == misses


def _rows_of(f, calls):
    """A ``rows`` callable for ``_maximize_1d``: one {"f": f(x)} row per
    point, each call's points and rows appended to ``calls``."""
    def rows(points):
        out = [{"f": f(x)} for x in points]
        calls.append((points, out))
        return out
    return rows


def test_maximize_1d_interior_peak():
    def check(f, xs, tol):
        # the grid is one call, each later call one point, and the returned
        # row is the very row evaluated at x
        calls = []
        x, row = _maximize_1d(_rows_of(f, calls), "f", xs, tol)
        assert len(calls[0][0]) == len(xs)
        assert all(len(points) == 1 for points, _ in calls[1:])
        assert any(row is r for points, out in calls
                   for t, r in zip(points, out) if t == x)
        return x, row["f"]

    x, v = check(lambda x: -(x - 0.3) ** 2, np.linspace(0.01, 1.0, 25), 1e-4)
    assert abs(x - 0.3) < 1e-3
    assert v <= 0.0
    # log-spaced variant
    x, _ = check(lambda x: -(math.log10(x) + 1.0) ** 2,
                 np.logspace(-3, 1, 25), 1e-4)
    assert abs(x - 0.1) < 1e-3
    # a maximum at a grid end: a monotone f ends within tol of its last point
    for xs in (np.logspace(-2, 0, 25), np.linspace(0.01, 1.0, 25)):
        x, v = check(lambda x: x, xs, 1e-4)
        assert 1.0 - 1e-4 <= x <= 1.0 and v == x
    # the result is never below the grid's best value: not on a rippled f,
    # and not where f is NaN off the grid
    grid = np.linspace(0.01, 1.0, 25)

    def ripple(x):
        return math.cos(40.0 * x)

    def on_grid(x):
        return -(x - 0.3) ** 2 if np.any(grid == x) else math.nan

    for f in (ripple, on_grid):
        x, v = check(f, grid, 1e-4)
        assert v >= max(f(t) for t in grid) and v == f(x)


def test_maximize_1d_without_a_maximum():
    # np.argmax picks the first NaN of a grid, so a grid holding one has no
    # maximum to refine: the search returns that point's row, and rows is
    # not called after the grid
    for values in ([math.nan] * 3, [math.nan, 0.0, -0.01],
                   [0.0, math.nan, math.nan]):
        calls = []
        x, row = _maximize_1d(_rows_of(lambda x: values[int(x)], calls), "f",
                              (0.0, 1.0, 2.0), 1e-4)
        first_nan = [math.isnan(v) for v in values].index(True)
        assert math.isnan(x) and len(calls) == 1
        assert row is calls[0][1][first_nan]


def test_ground_swap_ratio_matches_fisher_for():
    ground = AncillaBlock(b=1, psi=qmat.KET_G)
    for nbar in (0.5, 2.0, 10.0):
        for gt in (0.01, 0.04, 0.3, 1.0):
            params = ModelParams(nbar=nbar, gamma_tau_se=gt,
                                 interaction=Interaction.EXCHANGE)
            numeric = fisher_for(params, ground, 1).ratio_thermal
            closed = _ground_swap_ratio(nbar, gt)
            assert abs(numeric - closed) <= 1e-6 * closed, (nbar, gt)
    # The |g> peak over gamma_tau at nbar=10 is the single-ancilla optimum
    # of acceptance-04 (77.3), so no |g> ratio there can reach 95.
    _, row = _maximize_1d(
        _rows_of(lambda gt: _ground_swap_ratio(10.0, gt), []), "f",
        np.logspace(-3, math.log10(3.0), 25), 1e-4)
    assert abs(row["f"] - 77.3) <= 0.01 * 77.3


def test_searching_claims_cost_at_most_their_calls(monkeypatch):
    # each peak search reads its grid as one sweep and then one point per
    # step; the bounds are that search's counts, so a change that reads the
    # grid point by point or spends two points per step fails here
    counts = {"sweeps": 0, "optimize_b1": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(sweeps, "_sweep_values",
                        counted("sweeps", sweeps._sweep_values))
    monkeypatch.setattr(sweeps, "optimize_b1",
                        counted("optimize_b1", sweeps.optimize_b1))
    bounds = ((sweeps._claims_zz_delta_max, 13, 0),
              (sweeps._claims_exchange_opt11, 8, 28),
              (sweeps._claims_exchange_collective, 11, 42))
    for claim, max_sweeps, max_b1 in bounds:
        counts.update(sweeps=0, optimize_b1=0)
        assert all(r.passed for r in claim())
        assert counts["sweeps"] <= max_sweeps, (claim.__name__, counts)
        assert counts["optimize_b1"] <= max_b1, (claim.__name__, counts)


def test_an_optimizer_row_leaves_at_most_one_step_map_tensor():
    # the step-map tensor cache keeps one point: an optimizer reads its
    # point's tensor in every round, and no later point reads it again, so
    # a finished 6-point b=2 N=4 row leaves less than two tensors behind
    gamma_taus = tuple(np.geomspace(0.07, 2.2, 6))
    first = ModelParams(nbar=1.0, gamma_tau_se=gamma_taus[0],
                        interaction=Interaction.EXCHANGE)
    optimize_b2(first, 4)  # loads what any optimizer call loads on first use
    bound = 2 * collision._step_map_tensor(first, 2, True).nbytes
    assert bound == 344_064
    config = small_config(interaction=Interaction.EXCHANGE,
                          block="optimize-b2", n_measured=4, nbar_grid=(1.0,),
                          gamma_tau_grid=gamma_taus, quantities=("qfi",))
    tracemalloc.start()
    try:
        rows = run_sweep(config)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 6 and all(r.status == "ok" for r in rows)
    assert left < bound


def test_claims_fail_where_an_optimizer_point_fails(monkeypatch):
    # a claim reads the sweep's rows, so a point that raises fails its claim
    # with a NaN measurement instead of aborting the suite
    def no_optimum(params, n_measured, seed=0):
        raise RuntimeError("no optimum")

    monkeypatch.setattr(sweeps, "optimize_b1", no_optimum)
    monkeypatch.setattr(sweeps, "optimize_b2", no_optimum)
    records = (sweeps._claims_exchange_opt11()
               + sweeps._claims_exchange_collective()
               + sweeps._claims_b2_products())
    assert [r.name for r in records] == [
        "exchange-opt-1-1", "exchange-collective-ratio",
        "exchange-collective-location", "exchange-collective-thermal",
        "b2-product-near-optimal", "b2-optimum-uncorrelated"]
    # the location too: a scan without a maximum locates nothing
    for r in records:
        assert math.isnan(r.measured) and not r.passed


def test_claims_fail_where_a_stacked_row_fails(monkeypatch):
    def rank_change(params, psi, n_measured):
        raise RankChangeError(1.0)

    monkeypatch.setattr(sweeps, "qfi_values", rank_change)
    # the worst case over a grid is NaN, not the worst of the points left
    records = (sweeps._claims_zz_progression()
               + sweeps._claims_ground_additivity())
    assert [r.name for r in records] == ["zz-progression",
                                         "exchange-ground-additivity"]
    for r in records:
        assert math.isnan(r.measured) and not r.passed
    # the b=2 products are fixed-block rows, the optimum's Schmidt weight
    # is not, so only the product fraction fails
    near_optimal, uncorrelated = sweeps._claims_b2_products()
    assert near_optimal.name == "b2-product-near-optimal"
    assert math.isnan(near_optimal.measured) and not near_optimal.passed
    assert uncorrelated.name == "b2-optimum-uncorrelated"
    assert uncorrelated.passed


def test_render_report_format():
    # each verdict is derived from the record's own numbers
    report = (
        ClaimResult("alpha", "first check", 1.0, 1.0, 1e-6, "abs"),
        ClaimResult("beta", "second check", 2.0, 3.0, 1e-6, "rel"),
        ClaimResult("gamma", "third check", 0.9, 0.95, 0.0, "lower-bound"),
        ClaimResult("delta", "fourth check", 0.0, 2e-5, 1e-5, "upper-bound"),
        ClaimResult("epsilon", "fifth check", 0.189, math.nan, 0.05, "rel"),
    )
    text = render_report(report)
    lines = text.splitlines()
    assert lines[0].startswith("[PASS] alpha:")
    assert lines[1].startswith("[FAIL] beta:")
    assert lines[2].startswith("[PASS] gamma:")
    assert lines[3].startswith("[FAIL] delta:")
    assert lines[4].startswith("[FAIL] epsilon:")
    assert "measured nan" in lines[4]
    assert lines[-1] == "2/5 checks passed"
    assert not all(r.passed for r in report)
    # rendering is a pure function of the report
    assert render_report(report) == text
