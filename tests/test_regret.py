"""Regret matrix structure, minimax selection, peak temperature, sweeps."""

import importlib
import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mmrclimate.control import (
    ScenarioConfig,
    _paths,
    _stiffness,
    solve_optimal,
    weighted_costs,
)
from mmrclimate.economy import ClimateModel, EconParams
from mmrclimate.errors import NonConvergence, NoPeak, ValidationError
from mmrclimate.exppoly import ExpPoly
from mmrclimate.regret import (
    ROOT_TOL,
    Policy,
    RegretMatrix,
    _peaks,
    _picks,
    _regrets,
    build_policy_set,
    build_states,
    mmr_select,
    regret_matrix,
    sweep,
    tmax,
)

TWO_MODELS = (ClimateModel("LOW", 0.0016), ClimateModel("HIGH", 0.0024))


@pytest.fixture(scope="module")
def small_scenario():
    baseline = ExpPoly(((0.9, 1, -0.0125), (4.6, 0, -0.0125)))
    return ScenarioConfig(baseline=baseline, e0=500.0,
                          econ=EconParams(alpha=0.000125, beta=0.018))


@pytest.fixture(scope="module")
def small_matrix(small_scenario):
    deltas = (0.01, 0.03, 0.05)
    states = build_states(deltas, TWO_MODELS)
    policies = build_policy_set(deltas, TWO_MODELS, small_scenario)
    return regret_matrix(policies, states, small_scenario)


class TestPolicySet:
    def test_full_ensemble_counts(self, config, default_matrix):
        assert len(default_matrix.policies) == 43
        assert len(default_matrix.states) == 42
        assert default_matrix.policies[-1].is_no_abatement

    def test_minimal_ensemble(self, small_scenario):
        policies = build_policy_set([0.05], [TWO_MODELS[0]], small_scenario)
        assert len(policies) == 2

    def test_states_are_the_policy_set_without_no_abatement(self, small_scenario):
        deltas = (0.01, 0.03, 0.05)
        assert build_states(deltas, TWO_MODELS) == build_policy_set(
            deltas, TWO_MODELS, small_scenario)[:-1]

    def test_duplicate_delta_rejected(self, small_scenario):
        with pytest.raises(ValidationError):
            build_policy_set([0.05, 0.05], [TWO_MODELS[0]], small_scenario)

    @pytest.mark.parametrize("deltas, ensemble", [([], TWO_MODELS), ([0.05], [])])
    def test_empty_deltas_or_ensemble_rejected(self, deltas, ensemble):
        with pytest.raises(ValidationError, match="at least one discount rate and one model"):
            build_states(deltas, ensemble)

    def test_duplicate_response_rejected(self, small_scenario):
        with pytest.raises(ValidationError):
            build_states([0.05], [ClimateModel("A", 0.002), ClimateModel("B", 0.002)])

    def test_solver_error_keeps_type_and_attributes(self, small_scenario,
                                                    monkeypatch):
        import mmrclimate.regret as regret_module

        def failing_solver(delta, k, scenario):
            raise NoPeak("no interior maximum", asymptote_degc=1.5)

        regret_module._peak.cache_clear()
        regret_module._path.cache_clear()
        monkeypatch.setattr(regret_module, "_path", failing_solver)
        policy = Policy(delta=0.05, model=TWO_MODELS[0])
        with pytest.raises(NoPeak) as err:
            tmax(policy, TWO_MODELS[1], small_scenario)
        assert err.value.asymptote_degc == 1.5
        assert err.value.exit_code == NoPeak.exit_code
        assert "delta=0.05, model=LOW" in str(err.value)
        assert "no interior maximum" in str(err.value)

    def test_costs_need_no_solved_path(self, config, scenario, default_matrix,
                                       monkeypatch):
        import mmrclimate.regret as regret_module

        def failing_solver(delta, k, scenario):
            raise NoPeak("no interior maximum")

        monkeypatch.setattr(regret_module, "_path", failing_solver)
        states = build_states(config.deltas, config.ensemble)
        policies = build_policy_set(config.deltas, config.ensemble, scenario)
        matrix = regret_matrix(policies, states, scenario)
        np.testing.assert_array_equal(matrix.values, default_matrix.values)
        np.testing.assert_array_equal(matrix.j_opt, default_matrix.j_opt)

    def test_table_ordering(self, config, default_matrix):
        # model-major, delta cycling fastest, no abatement last
        labels = [p.label() for p in default_matrix.policies]
        assert labels[0] == "d=0.01/GFDL"
        assert labels[6] == "d=0.07/GFDL"
        assert labels[7] == "d=0.01/BCC"
        assert labels[9] == "d=0.03/BCC"      # tenth column of the table
        assert labels[-1] == "no-abatement"
        state_labels = [s.label() for s in default_matrix.states]
        assert state_labels[3] == "d=0.04/GFDL"   # fourth row


class TestMatrixInvariants:
    @pytest.mark.parametrize("cut", [np.s_[:, :-1], np.s_[:-1, :], np.s_[0]])
    def test_values_of_another_shape_rejected(self, small_matrix, cut):
        with pytest.raises(ValidationError, match="shape"):
            RegretMatrix(small_matrix.states, small_matrix.policies,
                         small_matrix.values[cut], small_matrix.j_opt)

    def test_diagonal_is_zero(self, default_matrix):
        pairs = default_matrix.diagonal_indices()
        assert len(pairs) == 42
        for i, j in pairs:
            assert abs(default_matrix.values[i, j]) <= 1e-9

    def test_nonnegative(self, default_matrix):
        assert default_matrix.values.min() >= -1e-9
        assert default_matrix.max_regret.min() >= -1e-9

    def test_row_minimum_at_matching_policy(self, default_matrix):
        # policies close to the true state do best: the in-row minimum
        # sits at the state's own column
        diag = dict(default_matrix.diagonal_indices())
        for i, state in enumerate(default_matrix.states):
            assert int(np.argmin(default_matrix.values[i, :])) == diag[i]

    def test_no_abatement_has_largest_max_regret(self, default_matrix):
        mx = default_matrix.max_regret
        assert mx[-1] == mx.max()
        assert mx[-1] > mx[:-1].max()

    def test_mmr_dominance(self, default_matrix):
        policy, value = mmr_select(default_matrix)
        assert np.all(value <= default_matrix.max_regret + 1e-15)

    def test_arrays_are_read_only(self, small_matrix):
        # max_regret and mmr_index are kept, so a write would leave them stale
        for array in (small_matrix.values, small_matrix.j_opt, small_matrix.max_regret):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        copy = small_matrix.values.copy()
        assert replace(small_matrix, values=copy).values is copy

    def test_standalone_regret_matches_matrix(self, default_matrix, scenario):
        state = default_matrix.states[10]
        policy = default_matrix.policies[3]
        single = regret_matrix([policy], [state], scenario)
        assert single.values[0, 0] == pytest.approx(
            default_matrix.values[10, 3], abs=1e-12)

    def test_own_state_regret_is_zero(self, small_scenario):
        sol = solve_optimal(0.03, TWO_MODELS[1], small_scenario)
        policy = Policy.from_solution(sol)
        state_like = build_states([0.03], [TWO_MODELS[1]])[0]
        single = regret_matrix([policy], [state_like], small_scenario)
        assert single.values[0, 0] == pytest.approx(0.0, abs=1e-9)


    def test_no_abatement_is_an_ordinary_column(self, config, scenario):
        # no abatement first and twice, and a pair that is no state: each
        # column is, to the bit, that policy's column in the default order
        states = build_states(config.deltas, config.ensemble)[::3]
        policies = build_policy_set(config.deltas, config.ensemble, scenario)
        passive, extra = Policy.no_abatement(), Policy(0.033, config.ensemble[2])
        order = [passive, *policies[5:9], passive, extra]
        matrix = regret_matrix(order, states, scenario)
        default = regret_matrix([*policies, extra], states, scenario)
        for j, policy in enumerate(order):
            column = default.values[:, default.policies.index(policy)]
            assert matrix.values[:, j].tobytes() == column.tobytes()
        assert matrix.values[:, 0].tobytes() == matrix.values[:, 5].tobytes()
        assert matrix.j_opt.tobytes() == default.j_opt.tobytes()
        diagonal = matrix.diagonal_indices()
        assert diagonal
        for i, j in diagonal:
            assert matrix.values[i, j] == 0.0

    @pytest.mark.parametrize("bad, name", [
        ("no states", "states"),
        ("no policies", "policies"),
        ("no abatement as a state", "states"),
    ])
    def test_bad_inputs_are_named(self, small_matrix, small_scenario, bad, name):
        states, policies = list(small_matrix.states), list(small_matrix.policies)
        if bad == "no states":
            states = []
        elif bad == "no policies":
            policies = []
        else:
            states.append(Policy.no_abatement())
        with pytest.raises(ValidationError, match=name):
            regret_matrix(policies, states, small_scenario)

    def test_overflowing_weighting_is_named(self, small_matrix, small_scenario):
        # the weightings are weighed in one broadcast; the error names the
        # first weighting whose costs overflow, and the scenario's e0
        weights = [EconParams(alpha=1e-4, beta=0.01), EconParams(alpha=2e-4, beta=1e308),
                   EconParams(alpha=3e-4, beta=1e308)]
        with pytest.raises(NonConvergence,
                           match=r"alpha = 0\.0002, beta = 1e\+308, e0 = 500\.0:"):
            _regrets(small_matrix.policies, small_matrix.states, small_scenario, weights)

    def test_negative_regret_is_refused(self, small_matrix, small_scenario, monkeypatch):
        # each state's own cost raised past every column's: regret_matrix
        # and sweep meet the one check, every weighting at once
        regret_module = importlib.import_module("mmrclimate.regret")

        def raised(*args):
            costs = weighted_costs(*args)
            costs[..., -1] += 1.0
            return costs

        monkeypatch.setattr(regret_module, "weighted_costs", raised)
        with pytest.raises(ValidationError, match="negative regret"):
            regret_matrix(small_matrix.policies, small_matrix.states, small_scenario)
        with pytest.raises(ValidationError, match="negative regret"):
            sweep([1.25e-4, 2.5e-4], [0.018], (0.01, 0.03, 0.05), TWO_MODELS,
                  small_scenario)


class TestScalingInvariance:
    def test_joint_scaling_preserves_selection(self, small_scenario):
        deltas = (0.01, 0.03, 0.05)
        states = build_states(deltas, TWO_MODELS)
        base_policies = build_policy_set(deltas, TWO_MODELS, small_scenario)
        base = regret_matrix(base_policies, states, small_scenario)
        for c in (0.25, 4.0):
            scaled_scenario = ScenarioConfig(
                baseline=small_scenario.baseline, e0=small_scenario.e0,
                econ=EconParams(alpha=small_scenario.econ.alpha * c,
                                beta=small_scenario.econ.beta * c))
            policies = build_policy_set(deltas, TWO_MODELS, scaled_scenario)
            scaled = regret_matrix(policies, states, scaled_scenario)
            np.testing.assert_allclose(scaled.values, c * base.values,
                                       rtol=1e-9, atol=1e-12)
            assert scaled.mmr_index == base.mmr_index
            np.testing.assert_array_equal(scaled.values.argmax(axis=0),
                                          base.values.argmax(axis=0))


class TestMmrSelect:
    def test_returns_column_minimum(self, small_matrix):
        policy, value = mmr_select(small_matrix)
        assert value == pytest.approx(small_matrix.max_regret.min())
        assert not policy.is_no_abatement

    def test_tie_break_prefers_low_delta_then_low_response(self, small_matrix):
        # force a tie by duplicating the matrix values
        values = small_matrix.values.copy()
        mx = small_matrix.max_regret
        j = int(np.argmin(mx))
        other = 5 if j != 5 else 4
        values[:, other] = values[:, j]
        tied = replace(small_matrix, values=values)
        policy, _ = mmr_select(tied)
        a, b = tied.policies[j], tied.policies[other]
        expected = min([a, b], key=lambda p: (p.delta, p.model.ccr))
        assert policy.label() == expected.label()


class TestTmax:
    def test_peak_is_a_descending_crossing(self, scenario, config):
        sol = solve_optimal(0.02, config.model("IPSL"), scenario)
        policy = Policy.from_solution(sol)
        years, peak = tmax(policy, config.model("MIROC"), scenario)
        slope = scenario.baseline - sol.abatement
        assert slope(years - 1.0) > 0 > slope(years + 1.0)
        assert peak == config.model("MIROC").ccr * sol.net_emissions(years)

    def test_peak_is_the_turning_point_not_the_maximum(self, scenario, config):
        # Tmax is ccr * E where dE/dt falls through zero (Table 3's "years
        # to peak"), not the maximum of T over t >= 0: at 0.01/MIROC the
        # stock first drains, so its turning point is below ccr * e0
        miroc = config.model("MIROC")
        years, peak = tmax(Policy(0.01, miroc), miroc, scenario)
        assert years == pytest.approx(136.72211, abs=1e-5)
        assert peak == miroc.ccr * solve_optimal(0.01, miroc, scenario).net_emissions(years)
        assert peak == pytest.approx(0.88390, abs=1e-5)
        assert peak < miroc.ccr * scenario.e0

    def test_no_abatement_has_no_peak(self, scenario, config):
        with pytest.raises(NoPeak) as err:
            tmax(Policy.no_abatement(), config.model("HAD"), scenario)
        asym = err.value.asymptote_degc
        assert asym is not None
        assert asym == pytest.approx(
            config.model("HAD").ccr
            * (scenario.e0 + scenario.baseline.discounted_integral(0.0)),
            rel=1e-12)

    def test_draining_path_peaks_at_start(self, scenario, config):
        # abating one GtC/yr more than the baseline: E = e0 - t
        (drain,) = _peaks([ExpPoly(((scenario.e0, 0, 0.0), (-1.0, 1, 0.0)))], ROOT_TOL)
        model = config.model("MIROC")
        assert drain.tmax(model, "drain") == (0.0, model.ccr * scenario.e0)

    def test_unbounded_emissions_have_no_asymptote(self, scenario, config):
        # abating one GtC/yr less than the baseline: E = e0 + t
        (grow,) = _peaks([ExpPoly(((scenario.e0, 0, 0.0), (1.0, 1, 0.0)))], ROOT_TOL)
        with pytest.raises(NoPeak) as err:
            grow.tmax(config.model("HAD"), "grow")
        assert err.value.asymptote_degc is None

    def test_tolerance_below_float_spacing_ends(self, scenario, config):
        # bisection to 1e-20 never ended (a midpoint of adjacent floats is
        # one of them); the rounds make a fixed number of halvings
        policy = Policy(delta=0.02, model=config.model("IPSL"))
        model = config.model("MIROC")
        fine = tmax(policy, model, scenario, root_tol=1e-20)
        assert fine == pytest.approx(tmax(policy, model, scenario, root_tol=1e-9),
                                     abs=1e-9)

    def test_one_search_serves_every_model(self, config, scenario, monkeypatch):
        regret = importlib.import_module("mmrclimate.regret")
        regret._peak.cache_clear()
        search, calls = regret._peaks, []

        def counted(emissions, *args):
            calls.append(len(emissions))
            return search(emissions, *args)

        monkeypatch.setattr(regret, "_peaks", counted)
        policy = Policy.from_solution(solve_optimal(0.02, config.model("IPSL"), scenario))
        got = [tmax(policy, model, scenario) for model in config.ensemble]
        assert calls == [1]
        k = _stiffness(scenario.econ.alpha, scenario.econ.beta, config.model("IPSL").ccr)
        (peak,) = search(_paths([0.02], [k], scenario), ROOT_TOL)
        assert got == [peak.tmax(model, policy.label()) for model in config.ensemble]

    def test_solve_and_its_peaks_build_one_path(self, config, scenario, monkeypatch):
        # tmax under every model reads the path solve_optimal built for the pair
        control = importlib.import_module("mmrclimate.control")
        regret = importlib.import_module("mmrclimate.regret")
        regret._peak.cache_clear()
        control._path.cache_clear()
        build, calls = control._paths, []

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(control, "_paths", counted)
        sol = solve_optimal(0.02, config.model("IPSL"), scenario)
        policy = Policy.from_solution(sol)
        got = [tmax(policy, model, scenario) for model in config.ensemble]
        assert len(calls) == 1
        (peak,) = _peaks([sol.net_emissions], ROOT_TOL)
        assert got == [peak.tmax(model, policy.label()) for model in config.ensemble]

    def test_kept_peaks_are_keyed_by_scenario_and_tolerance(self, config, scenario):
        regret = importlib.import_module("mmrclimate.regret")
        policy = Policy(delta=0.02, model=config.model("IPSL"))
        model = config.model("MIROC")
        # the same pair under another stock, another baseline, other weights,
        # another tolerance: each solved under its own scenario
        requests = [(scenario, 1e-6), (replace(scenario, e0=scenario.e0 + 100.0), 1e-6),
                    (replace(scenario, baseline=scenario.baseline * 1.1), 1e-6),
                    (replace(scenario, econ=EconParams(alpha=2e-4, beta=0.018)), 1e-6),
                    (scenario, 1e-3)]
        fresh = [repr(_peaks([solve_optimal(0.02, policy.model, s).net_emissions],
                             tol)[0].tmax(model, policy.label()))
                 for s, tol in requests]
        assert len(set(fresh)) == len(fresh)
        for order in (requests, requests[::-1]):
            regret._peak.cache_clear()
            for s, tol in order + order:
                got = tmax(policy, model, s, root_tol=tol)
                assert repr(got) == fresh[requests.index((s, tol))]

    def test_equal_policies_give_equal_peaks(self, config, scenario):
        # a policy is its pair: one solved under another scenario is the
        # same policy, and its peak is the pair's own under the scenario
        # it is asked under
        other = replace(scenario, e0=scenario.e0 + 100.0,
                        econ=EconParams(alpha=2e-4, beta=0.022))
        model = config.model("MIROC")
        solved = Policy.from_solution(solve_optimal(0.02, config.model("IPSL"), scenario))
        assert solved == Policy(0.02, config.model("IPSL"))
        got = tmax(solved, model, other)
        assert got == tmax(Policy(0.02, config.model("IPSL")), model, other)
        path = solve_optimal(0.02, config.model("IPSL"), other).net_emissions
        assert got == _peaks([path], ROOT_TOL)[0].tmax(model, solved.label())

    def test_no_peak_names_each_policy_sharing_a_path(self, config, scenario):
        # two zero responses: one k = 0 loop, so one kept peak, and the
        # message names the policy asked about
        regret = importlib.import_module("mmrclimate.regret")
        regret._peak.cache_clear()
        passive = [Policy(delta=0.05, model=ClimateModel("A", 0.0)),
                   Policy(delta=0.05, model=ClimateModel("B", 0.0))]
        model = config.model("HAD")
        for policy, other in zip(passive + passive[::-1], passive[::-1] + passive):
            with pytest.raises(NoPeak) as err:
                tmax(policy, model, scenario)
            assert policy.label() in str(err.value)
            assert other.label() not in str(err.value)
            assert err.value.asymptote_degc == pytest.approx(
                model.ccr * (scenario.e0 + scenario.baseline.discounted_integral(0.0)),
                rel=1e-12)
        assert regret._peak.cache_info()[:2] == (3, 1)   # (hits, misses)

    @pytest.mark.parametrize("root_tol", [0.0, -1.0, math.nan, math.inf])
    def test_root_tol_must_be_positive_and_finite(self, scenario, config, root_tol):
        # a tolerance <= 0 would never end the bisection
        with pytest.raises(ValidationError, match="root_tol"):
            tmax(Policy.no_abatement(), config.model("HAD"), scenario,
                 root_tol=root_tol)


class TestSweep:
    def test_single_cell_agrees_with_mmr_select(self, small_scenario):
        deltas = (0.01, 0.03, 0.05)
        states = build_states(deltas, TWO_MODELS)
        policies = build_policy_set(deltas, TWO_MODELS, small_scenario)
        matrix = regret_matrix(policies, states, small_scenario)
        expected_policy, expected_value = mmr_select(matrix)

        report = sweep([small_scenario.econ.alpha], [small_scenario.econ.beta],
                       deltas, TWO_MODELS, small_scenario)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.mmr_value == pytest.approx(expected_value, rel=1e-12)
        assert cell.policy_model == expected_policy.model.name
        assert cell.policy_delta == expected_policy.delta
        assert cell.tmax_model == "HIGH"

    @staticmethod
    def _cell_inputs(config, scenario, cell):
        cell_scenario = replace(scenario, econ=EconParams(alpha=cell.alpha,
                                                          beta=cell.beta))
        policy = Policy(delta=cell.policy_delta,
                        model=config.model(cell.policy_model))
        return policy, cell_scenario

    def test_cell_peak_is_tmax_of_the_worst_model(self, config, scenario):
        # the batched path solve against one solve_optimal and tmax per
        # cell, on the default 3x3 grid and on a scaled one
        for fa, fb in [(1.0, 1.0), (1.17, 0.86)]:
            report = sweep([a * fa for a in config.alpha_grid],
                           [b * fb for b in config.beta_grid],
                           config.deltas, config.ensemble, scenario)
            assert len(report.cells) == 9
            for cell in report.cells:
                policy, cell_scenario = self._cell_inputs(config, scenario, cell)
                years, peak = tmax(policy, config.model(cell.tmax_model), cell_scenario)
                assert cell.years_to_peak == years
                assert cell.tmax_degc == peak

    def test_resonant_cell_peak_is_tmax_of_its_nudged_path(self, scenario):
        # one pair, so each cell's MMR policy is that pair; at alphas[0]
        # its stable root sits on the baseline rate, and the batched path
        # of that cell is the pair's own, as for the other cell
        theta, delta = -scenario.baseline.rates()[0], 0.005
        alphas, beta = [scenario.econ.alpha, 2.0 * scenario.econ.alpha], scenario.econ.beta
        model = ClimateModel("resonant", math.sqrt(
            (theta * theta + delta * theta) * alphas[0] / beta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sweep(alphas, [beta], [delta], [model], scenario)
            importlib.import_module("mmrclimate.regret")._peak.cache_clear()
            for cell, alpha in zip(report.cells, alphas):
                cell_scenario = replace(scenario, econ=EconParams(alpha=alpha, beta=beta))
                peak = tmax(Policy(delta, model), model, cell_scenario)
                assert (cell.years_to_peak, cell.tmax_degc) == peak

    def test_one_peak_search_serves_every_cell(self, config, scenario, monkeypatch):
        regret = importlib.import_module("mmrclimate.regret")
        search, calls = regret._peaks, []

        def counted(emissions, *args):
            calls.append(len(emissions))
            return search(emissions, *args)

        monkeypatch.setattr(regret, "_peaks", counted)
        report = sweep(config.alpha_grid, config.beta_grid, config.deltas,
                       config.ensemble, scenario)
        assert calls == [len(report.cells)] == [9]

    def test_one_batched_path_solve(self, config, scenario, monkeypatch):
        # the loops are formed once for the engine and once for all nine
        # paths; a path solved alone would form its loop again
        control = importlib.import_module("mmrclimate.control")
        loops, calls = control._loops, []

        def counted(*args):
            calls.append(len(args[0]))
            return loops(*args)

        monkeypatch.setattr(control, "_loops", counted)
        sweep(config.alpha_grid, config.beta_grid, config.deltas,
              config.ensemble, scenario)
        assert calls == [9 * 43, 9]

    def test_no_abatement_choice_has_no_peak(self, config, scenario, monkeypatch):
        # no abatement is the k = 0 loop, whose path is the passive one
        regret_module = importlib.import_module("mmrclimate.regret")
        monkeypatch.setattr(regret_module, "_picks", lambda policies, max_regret: np.full(
            max_regret.shape[:-1], len(policies) - 1))
        with pytest.raises(NoPeak, match="under no-abatement"):
            sweep(config.alpha_grid, config.beta_grid, config.deltas,
                  config.ensemble, scenario)

    def test_root_tol_reaches_the_peak_search(self, config, scenario):
        report = sweep(config.alpha_grid[:2], config.beta_grid[:2],
                       config.deltas, config.ensemble, scenario, root_tol=0.25)
        worst = config.model(report.cells[0].tmax_model)
        for cell in report.cells:
            policy, cell_scenario = self._cell_inputs(config, scenario, cell)
            coarse = tmax(policy, worst, cell_scenario, root_tol=0.25)[0]
            assert cell.years_to_peak == coarse
            assert coarse != tmax(policy, worst, cell_scenario)[0]

    @pytest.mark.parametrize("scale", [(1.0, 1.0), (1.17, 0.86)])
    def test_every_cell_equals_its_lone_matrix(self, config, scenario, scale):
        # the grid's one batched engine call is elementwise per (loop,
        # rate), so each cell is bit-identical to its matrix built alone
        alphas = [a * scale[0] for a in config.alpha_grid]
        betas = [b * scale[1] for b in config.beta_grid]
        report = sweep(alphas, betas, config.deltas, config.ensemble, scenario)
        assert len(report.cells) == 9
        states = build_states(config.deltas, config.ensemble)
        policies = build_policy_set(config.deltas, config.ensemble, scenario)
        worst = max(config.ensemble, key=lambda m: m.ccr)
        for cell in report.cells:
            cell_scenario = replace(scenario, econ=EconParams(alpha=cell.alpha,
                                                              beta=cell.beta))
            policy, value = mmr_select(regret_matrix(policies, states, cell_scenario))
            years, peak = tmax(policy, worst, cell_scenario)
            assert (cell.policy_delta, cell.policy_model) == (policy.delta,
                                                             policy.model.name)
            assert (cell.mmr_value, cell.years_to_peak, cell.tmax_degc) == (
                value, years, peak)

    def test_cells_sharing_beta_over_alpha_equal_their_lone_matrices(
            self, config, scenario):
        # (1e-4, 0.01) and (2e-4, 0.02) share every stiffness k = beta m^2 /
        # alpha to the bit, so their loops repeat in the grid's engine call;
        # each cell must still be its lone matrix bit for bit
        alphas, betas = [1e-4, 2e-4], [0.01, 0.02]
        states = build_states(config.deltas, config.ensemble)
        policies = build_policy_set(config.deltas, config.ensemble, scenario)
        weights = [EconParams(alpha=a, beta=b) for a in alphas for b in betas]
        scenarios = [replace(scenario, econ=econ) for econ in weights]
        lone = [regret_matrix(policies, states, s) for s in scenarios]
        values, j_opt = _regrets(policies, states, scenario, weights)
        for i, alone in enumerate(lone):
            assert values[i].tobytes() == alone.values.tobytes()
            assert j_opt[i].tobytes() == alone.j_opt.tobytes()
        report = sweep(alphas, betas, config.deltas, config.ensemble, scenario)
        worst = max(config.ensemble, key=lambda m: m.ccr)
        for cell, matrix, cell_scenario in zip(report.cells, lone, scenarios):
            policy, value = mmr_select(matrix)
            assert (cell.policy_delta, cell.policy_model, cell.mmr_value) == (
                policy.delta, policy.model.name, value)
            assert (cell.years_to_peak, cell.tmax_degc) == tmax(policy, worst, cell_scenario)

    def test_one_engine_call_and_no_j_star(self, config, scenario, monkeypatch):
        # a 3x3 sweep integrates all its loops in one engine call and
        # costs no solved path: tmax builds paths only
        control = importlib.import_module("mmrclimate.control")
        regret_module = importlib.import_module("mmrclimate.regret")
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        integrals = counting("integrals", control.closed_loop_integrals)
        for module in (control, regret_module):
            monkeypatch.setattr(module, "closed_loop_integrals", integrals)
        report = sweep(config.alpha_grid, config.beta_grid, config.deltas,
                       config.ensemble, scenario)
        assert len(report.cells) == 9
        assert calls == ["integrals"]

    def test_empty_grid_rejected(self, small_scenario):
        with pytest.raises(ValidationError):
            sweep([], [0.018], (0.01,), TWO_MODELS, small_scenario)


def test_submodule_is_not_shadowed():
    import mmrclimate.regret as regret_module

    assert isinstance(regret_module, types.ModuleType)
    assert regret_module.regret_matrix is regret_matrix
