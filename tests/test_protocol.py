import numpy as np
import pytest
from dataclasses import replace
from scipy import stats

from realitysteer import (
    BranchStructure,
    GateSpec,
    Participation,
    RecordEncoding,
    RegisterLayout,
    apply_gate,
    basis_index,
    born_probabilities,
    canonical_scenario,
    clinic_erase,
    conditional_clinic,
    decoupling_diagnostic,
    decoupling_sweep,
    derive_seed,
    nonlinear_probabilities,
    observe,
    partial_trace,
    prepare_cat,
    purity,
    record_value,
    reobserve,
    rewrite_record,
    run_ensemble,
    run_trial,
    scenario_layout,
    spread_to_environment,
    von_neumann_entropy,
)
from realitysteer.protocol import _decoupling_metrics, _haar_encodings
from realitysteer.seeding import as_generator
from conftest import brute_partial_trace, dense_decoupling_metrics, haar_unitary

SQRT_HALF = 1.0 / np.sqrt(2.0)


def observed_state(scenario):
    layout = scenario_layout(scenario)
    state = prepare_cat(scenario.branch_structure, layout)
    state = observe(state, layout, scenario.observe_variant, scenario.encoding)
    return spread_to_environment(state, layout, scenario.env_qubits - 1), layout


def expected_after_full_erase(scenario):
    """Post-erase state built directly from basis indices: records moved to
    the ancilla, brain blank, flag untouched."""
    layout = scenario_layout(scenario)
    amps = np.zeros(2**layout.total_qubits, dtype=complex)
    for branch, weight in enumerate(scenario.branch_structure.weights):
        values = {"C": branch, "A": branch}
        for copy_index in range(1, scenario.env_qubits + 1):
            values[f"E{copy_index}"] = branch
        if scenario.encoding is RecordEncoding.TAGGED:
            values["Af"] = 1
        amps[basis_index(layout, values)] = weight
    return amps


class TestPrepareCat:
    def test_symmetric_two_branch_is_plus_state(self):
        state = prepare_cat(BranchStructure.equal(1, 1))
        assert np.allclose(state.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_deterministic_weights(self):
        state = prepare_cat(BranchStructure.two_branch(1.0, 0.0))
        assert state.amplitudes[0] == 1.0

    def test_four_branch_uniform(self):
        state = prepare_cat(BranchStructure.equal(2, 2))
        assert np.allclose(state.amplitudes, [0.5] * 4, atol=1e-15)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(ValueError, match="unity"):
            BranchStructure(1, 1, np.array([1.0, 1.0]))

    def test_embedded_preparation(self):
        scenario = canonical_scenario()
        layout = scenario_layout(scenario)
        state = prepare_cat(scenario.branch_structure, layout)
        idx_alive = basis_index(layout, {"C": 0})
        idx_dead = basis_index(layout, {"C": 1})
        assert abs(state.amplitudes[idx_alive] - SQRT_HALF) < 1e-15
        assert abs(state.amplitudes[idx_dead] - SQRT_HALF) < 1e-15
        assert np.count_nonzero(state.amplitudes) == 2

    def test_cat_register_not_first(self, biased_structure):
        layout = RegisterLayout.from_sizes([("B", 1), ("C", 1)])
        state = prepare_cat(biased_structure, layout)
        assert np.allclose(born_probabilities(state, layout, "C"), [0.36, 0.64], atol=1e-15)
        assert np.allclose(born_probabilities(state, layout, "B"), [1.0, 0.0], atol=1e-15)


class TestObserve:
    def test_variant_a_builds_ghz(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        expected = np.zeros(state.dim, dtype=complex)
        expected[basis_index(layout, {"C": 0, "B": 0, "E1": 0})] = SQRT_HALF
        expected[basis_index(layout, {"C": 1, "B": 1, "E1": 1})] = SQRT_HALF
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    @pytest.mark.parametrize("encoding", [RecordEncoding.PLAIN, RecordEncoding.TAGGED])
    @pytest.mark.parametrize("variant", ["b", "c"])
    def test_variants_agree(self, variant, encoding):
        base = canonical_scenario(encoding=encoding)
        reference, layout = observed_state(base)
        other, _ = observed_state(replace(base, observe_variant=variant))
        assert np.max(np.abs(reference.amplitudes - other.amplitudes)) < 1e-12

    @pytest.mark.parametrize("encoding", [RecordEncoding.PLAIN, RecordEncoding.TAGGED])
    def test_variants_agree_for_branch_families(self, encoding):
        base = canonical_scenario(
            branch_structure=BranchStructure.equal(2, 2), encoding=encoding
        )
        reference, _ = observed_state(base)
        for variant in ("b", "c"):
            other, _ = observed_state(replace(base, observe_variant=variant))
            assert np.max(np.abs(reference.amplitudes - other.amplitudes)) < 1e-12

    def test_deterministic_cat_stays_product(self):
        scenario = canonical_scenario(
            branch_structure=BranchStructure.two_branch(1.0, 0.0)
        )
        state, layout = observed_state(scenario)
        brain = partial_trace(state, layout, ["B"])
        assert von_neumann_entropy(brain) < 1e-12
        assert abs(purity(brain) - 1.0) < 1e-12

    def test_tagged_records_are_orthogonal_to_blank(self):
        scenario = canonical_scenario(encoding=RecordEncoding.TAGGED)
        state, layout = observed_state(scenario)
        table = born_probabilities(state, layout, "B")
        blank = table[0]
        alive_record = table[record_value(RecordEncoding.TAGGED, 1, 0)]
        dead_record = table[record_value(RecordEncoding.TAGGED, 1, 1)]
        assert blank < 1e-12
        assert abs(alive_record - 0.5) < 1e-12
        assert abs(dead_record - 0.5) < 1e-12

    def test_non_blank_brain_rejected(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        with pytest.raises(ValueError, match="not blank"):
            observe(state, layout, "a", scenario.encoding)

    def test_unknown_variant_rejected(self):
        scenario = canonical_scenario()
        layout = scenario_layout(scenario)
        blank = prepare_cat(scenario.branch_structure, layout)
        with pytest.raises(ValueError, match="variant"):
            observe(blank, layout, "d", scenario.encoding)


class TestSpread:
    def test_two_extra_copies_make_five_qubit_correlation(self):
        scenario = canonical_scenario(env_qubits=3)
        layout = scenario_layout(scenario)
        state = prepare_cat(scenario.branch_structure, layout)
        state = observe(state, layout, "a", scenario.encoding)
        state = spread_to_environment(state, layout, 2)
        expected = np.zeros(state.dim, dtype=complex)
        expected[basis_index(layout, {})] = SQRT_HALF
        expected[
            basis_index(layout, {"C": 1, "B": 1, "E1": 1, "E2": 1, "E3": 1})
        ] = SQRT_HALF
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    def test_zero_copies_is_identity(self):
        scenario = canonical_scenario(env_qubits=2)
        layout = scenario_layout(scenario)
        state = prepare_cat(scenario.branch_structure, layout)
        state = observe(state, layout, "a", scenario.encoding)
        unchanged = spread_to_environment(state, layout, 0)
        assert np.array_equal(unchanged.amplitudes, state.amplitudes)

    def test_every_environment_copy_is_maximally_mixed(self):
        scenario = canonical_scenario(env_qubits=3)
        state, layout = observed_state(scenario)
        for name in ("E1", "E2", "E3"):
            qubit = layout.qubits(name)[0]
            oracle = brute_partial_trace(state.amplitudes, layout.total_qubits, [qubit])
            assert np.allclose(oracle, np.eye(2) / 2, atol=1e-12)

    def test_insufficient_environment_rejected(self):
        scenario = canonical_scenario(env_qubits=2)
        layout = scenario_layout(scenario)
        state = prepare_cat(scenario.branch_structure, layout)
        state = observe(state, layout, "a", scenario.encoding)
        with pytest.raises(ValueError, match="environment slots"):
            spread_to_environment(state, layout, 2)


class TestClinicErase:
    @pytest.mark.parametrize("encoding", [RecordEncoding.PLAIN, RecordEncoding.TAGGED])
    @pytest.mark.parametrize("c0_sq", [0.1, 0.36, 0.5, 0.9])
    def test_erase_moves_record_exactly(self, encoding, c0_sq):
        structure = BranchStructure.two_branch(np.sqrt(c0_sq), np.sqrt(1 - c0_sq))
        scenario = canonical_scenario(branch_structure=structure, encoding=encoding)
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, encoding)
        expected = expected_after_full_erase(scenario)
        assert np.max(np.abs(erased.amplitudes - expected)) < 1e-12
        brain = partial_trace(erased, layout, ["B"])
        assert abs(purity(brain) - 1.0) < 1e-12
        assert born_probabilities(erased, layout, "B")[0] > 1.0 - 1e-12

    def test_product_input_stays_product(self):
        scenario = canonical_scenario(
            branch_structure=BranchStructure.two_branch(1.0, 0.0)
        )
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, scenario.encoding)
        assert erased.amplitudes[basis_index(layout, {"C": 0, "E1": 0, "A": 0})] == 1.0

    @pytest.mark.parametrize("encoding", [RecordEncoding.PLAIN, RecordEncoding.TAGGED])
    @pytest.mark.parametrize("num_alive,num_dead", [(2, 2), (1, 2)])
    def test_erase_is_exact_for_branch_families(self, encoding, num_alive, num_dead):
        structure = BranchStructure.equal(num_alive, num_dead)
        scenario = canonical_scenario(
            branch_structure=structure, encoding=encoding, env_qubits=2
        )
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, encoding)
        expected = expected_after_full_erase(scenario)
        assert np.max(np.abs(erased.amplitudes - expected)) < 1e-12
        assert abs(purity(partial_trace(erased, layout, ["B"])) - 1.0) < 1e-12

    def test_ancilla_still_entangled_with_cat(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, scenario.encoding)
        ancilla = partial_trace(erased, layout, ["A"])
        assert von_neumann_entropy(ancilla) > 0.99

    def test_non_blank_ancilla_rejected(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        poked = apply_gate(state, GateSpec.x(layout.qubits("A")[0]))
        with pytest.raises(ValueError, match="'A' is not blank"):
            clinic_erase(poked, layout, scenario.encoding)


class TestConditionalClinic:
    def test_dead_only_tagged_leaves_one_bit_of_entropy(self):
        scenario = canonical_scenario(
            encoding=RecordEncoding.TAGGED, participation=Participation.DEAD_ONLY
        )
        state, layout = observed_state(scenario)
        partial = conditional_clinic(
            state, layout, scenario.branch_structure, scenario.participation,
            scenario.encoding,
        )
        brain = partial_trace(partial, layout, ["B"])
        assert abs(von_neumann_entropy(brain) - 1.0) < 1e-9

    def test_dead_only_tagged_matches_expected_structure(self):
        scenario = canonical_scenario(
            encoding=RecordEncoding.TAGGED, participation=Participation.DEAD_ONLY
        )
        state, layout = observed_state(scenario)
        partial = conditional_clinic(
            state, layout, scenario.branch_structure, scenario.participation,
            scenario.encoding,
        )
        expected = np.zeros(partial.dim, dtype=complex)
        alive_record = record_value(RecordEncoding.TAGGED, 1, 0)
        expected[
            basis_index(layout, {"C": 0, "B": alive_record, "E1": 0})
        ] = SQRT_HALF  # non-participating branch untouched, flag off
        expected[
            basis_index(layout, {"C": 1, "E1": 1, "Af": 1, "A": 1, "F": 1})
        ] = SQRT_HALF  # erased branch: blank brain, record in ancilla, flag on
        assert np.max(np.abs(partial.amplitudes - expected)) < 1e-12

    def test_dead_only_plain_accidentally_disentangles(self):
        # blank and the alive record coincide in plain encoding, so the
        # failed coordination is invisible to the brain's reduced state
        scenario = canonical_scenario(participation=Participation.DEAD_ONLY)
        state, layout = observed_state(scenario)
        partial = conditional_clinic(
            state, layout, scenario.branch_structure, scenario.participation,
            scenario.encoding,
        )
        brain = partial_trace(partial, layout, ["B"])
        assert von_neumann_entropy(brain) < 1e-10

    @pytest.mark.parametrize("encoding", [RecordEncoding.PLAIN, RecordEncoding.TAGGED])
    def test_participation_all_reduces_to_plain_erase(self, encoding):
        scenario = canonical_scenario(encoding=encoding)
        state, layout = observed_state(scenario)
        conditional = conditional_clinic(
            state, layout, scenario.branch_structure, Participation.ALL, encoding
        )
        plain = clinic_erase(state, layout, encoding)
        flag_raised = apply_gate(plain, GateSpec.x(layout.qubits("F")[0]))
        assert np.max(np.abs(conditional.amplitudes - flag_raised.amplitudes)) == 0.0

    def test_flag_correlates_with_participation(self):
        scenario = canonical_scenario(
            encoding=RecordEncoding.TAGGED, participation=Participation.ALIVE_ONLY
        )
        state, layout = observed_state(scenario)
        partial = conditional_clinic(
            state, layout, scenario.branch_structure, scenario.participation,
            scenario.encoding,
        )
        flag = born_probabilities(partial, layout, "F")
        assert abs(flag[1] - 0.5) < 1e-12

    def test_non_blank_flag_rejected(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        poked = apply_gate(state, GateSpec.x(layout.qubits("F")[0]))
        with pytest.raises(ValueError, match="'F' is not blank"):
            conditional_clinic(
                poked, layout, scenario.branch_structure, Participation.DEAD_ONLY,
                scenario.encoding,
            )


class TestReobserve:
    def test_deterministic_cat_always_comes_back_alive(self):
        scenario = canonical_scenario(
            branch_structure=BranchStructure.two_branch(1.0, 0.0)
        )
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, scenario.encoding)
        for seed in range(20):
            branch, _ = reobserve(erased, layout, scenario.encoding, seed)
            assert branch == 0

    def test_same_seed_reproduces_outcome(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, scenario.encoding)
        outcomes = {reobserve(erased, layout, scenario.encoding, 99)[0] for _ in range(5)}
        assert len(outcomes) == 1

    def test_symmetric_outcome_frequency(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, scenario.encoding)
        hits = sum(
            reobserve(erased, layout, scenario.encoding, seed)[0] == 0
            for seed in range(2000)
        )
        sigma = np.sqrt(0.25 / 2000)
        assert abs(hits / 2000 - 0.5) < 4 * sigma

    def test_post_state_carries_consistent_records(self):
        scenario = canonical_scenario(encoding=RecordEncoding.TAGGED)
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, scenario.encoding)
        branch, post = reobserve(erased, layout, scenario.encoding, 5)
        assert born_probabilities(post, layout, "C")[branch] > 1.0 - 1e-12
        assert born_probabilities(post, layout, "E1")[branch] > 1.0 - 1e-12

    def test_four_branch_dead_only_confines_transitions(self):
        scenario = canonical_scenario(
            branch_structure=BranchStructure.equal(2, 2),
            encoding=RecordEncoding.TAGGED,
            participation=Participation.DEAD_ONLY,
        )
        state, layout = observed_state(scenario)
        partial = conditional_clinic(
            state, layout, scenario.branch_structure, scenario.participation,
            scenario.encoding,
        )
        for seed in range(300):
            branch, _ = reobserve(partial, layout, scenario.encoding, seed)
            assert branch in (2, 3)

    def test_unerased_tagged_brain_rejected(self):
        scenario = canonical_scenario(encoding=RecordEncoding.TAGGED)
        state, layout = observed_state(scenario)
        with pytest.raises(ValueError, match="erasure incomplete"):
            reobserve(state, layout, scenario.encoding, 0)

    def test_rewrite_record_restores_observed_form(self):
        scenario = canonical_scenario()
        state, layout = observed_state(scenario)
        erased = clinic_erase(state, layout, scenario.encoding)
        recoupled = rewrite_record(erased, layout, scenario.encoding)
        brain = partial_trace(recoupled, layout, ["B"])
        reference = partial_trace(state, layout, ["B"])
        assert np.max(np.abs(brain.entries - reference.entries)) < 1e-12


class TestRunTrial:
    def test_canonical_report(self):
        report = run_trial(canonical_scenario(rng_seed=7))
        assert report.erased is True
        assert abs(report.brain_purity_after_erase - 1.0) < 1e-12
        assert report.brain_entropy_after_erase < 1e-10
        assert report.memory_consistent is True
        assert report.pre_outcome in ("alive", "dead")
        assert np.allclose(report.cat_marginal_before, (0.5, 0.5), atol=1e-12)
        assert np.allclose(report.cat_marginal_after, (0.5, 0.5), atol=1e-12)

    def test_zero_weight_filter_always_lands_alive(self):
        scenario = canonical_scenario(nonlinear_lambda=0.0)
        for seed in range(30):
            report = run_trial(replace(scenario, rng_seed=seed))
            assert report.post_outcome == "alive"

    def test_filter_shifts_cat_marginal(self):
        report = run_trial(canonical_scenario(nonlinear_lambda=2.0, rng_seed=3))
        assert abs(report.cat_marginal_after[0] - 0.2) < 1e-12
        assert abs(report.cat_marginal_after[1] - 0.8) < 1e-12
        assert np.allclose(report.cat_marginal_before, (0.5, 0.5), atol=1e-12)

    def test_ensemble_matches_per_trial_runs(self):
        scenario = canonical_scenario(
            encoding=RecordEncoding.TAGGED,
            participation=Participation.DEAD_ONLY,
            rng_seed=11,
        )
        ensemble = run_ensemble(scenario, 50)
        singles = [
            run_trial(replace(scenario, rng_seed=derive_seed(11, index)))
            for index in range(50)
        ]
        assert ensemble == singles

    def test_ensemble_chunks_are_consistent(self):
        scenario = canonical_scenario(rng_seed=5)
        whole = run_ensemble(scenario, 40)
        parts = run_ensemble(scenario, 25) + run_ensemble(scenario, 15, first_trial=25)
        assert whole == parts

    def test_post_frequencies_track_born_weights(self):
        scenario = canonical_scenario(rng_seed=2026)
        reports = run_ensemble(scenario, 10_000)
        alive = sum(r.post_outcome == "alive" for r in reports) / 10_000
        sigma = np.sqrt(0.25 / 10_000)
        assert abs(alive - 0.5) < 3 * sigma

    def test_memory_consistency_holds_across_scenarios(self):
        for encoding in RecordEncoding:
            for participation in Participation:
                scenario = canonical_scenario(
                    encoding=encoding, participation=participation, rng_seed=1
                )
                reports = run_ensemble(scenario, 200)
                assert all(r.memory_consistent for r in reports)

    def test_non_participating_observer_stays_put(self):
        scenario = canonical_scenario(
            encoding=RecordEncoding.TAGGED,
            participation=Participation.DEAD_ONLY,
            rng_seed=4,
        )
        reports = run_ensemble(scenario, 500)
        for report in reports:
            if report.pre_outcome == "alive":
                assert not report.erased
                assert report.post_outcome == "alive"
            else:
                assert report.erased

    def test_probability_invariance_without_filter(self):
        scenario = canonical_scenario(
            branch_structure=BranchStructure.two_branch(0.6, 0.8),
            encoding=RecordEncoding.TAGGED,
            participation=Participation.DEAD_ONLY,
            rng_seed=8,
        )
        reports = run_ensemble(scenario, 10_000)
        pre = np.array([sum(r.pre_branch == k for r in reports) for k in (0, 1)])
        post = np.array([sum(r.post_branch == k for r in reports) for k in (0, 1)])
        _, p_value, _, _ = stats.chi2_contingency(np.array([pre, post]))
        assert p_value > 0.001

    def test_filter_breaks_probability_invariance(self):
        scenario = canonical_scenario(nonlinear_lambda=2.0, rng_seed=9)
        reports = run_ensemble(scenario, 10_000)
        post = np.array([sum(r.post_branch == k for r in reports) for k in (0, 1)])
        expected = np.array(nonlinear_probabilities(SQRT_HALF, SQRT_HALF, 2.0))
        _, p_fit = stats.chisquare(post, expected * 10_000)
        assert p_fit > 0.001
        _, p_born = stats.chisquare(post, np.array([0.5, 0.5]) * 10_000)
        assert p_born < 1e-6


class TestScenarioValidation:
    def test_env_qubits_floor(self):
        with pytest.raises(ValueError, match="env_qubits"):
            canonical_scenario(env_qubits=0)

    def test_variant_names(self):
        with pytest.raises(ValueError, match="observe_variant"):
            canonical_scenario(observe_variant="z")

    def test_filter_needs_two_branches(self):
        with pytest.raises(ValueError, match="two-branch"):
            canonical_scenario(
                branch_structure=BranchStructure.equal(2, 2), nonlinear_lambda=2.0
            )

    def test_qubit_budget(self):
        with pytest.raises(ValueError, match="budget"):
            canonical_scenario(env_qubits=25)

    def test_layout_shape(self):
        layout = scenario_layout(
            canonical_scenario(encoding=RecordEncoding.TAGGED, env_qubits=2)
        )
        assert layout.names == ("C", "B", "E1", "E2", "Af", "A", "F")
        assert layout.total_qubits == 8


class TestDecoupling:
    def test_full_access_is_trivially_feasible(self):
        result = decoupling_diagnostic(6, 6, rng=0)
        assert result.conditional_trace_distance == 0.0
        assert result.leaked_bits == 0.0
        assert result.feasible

    def test_no_access_leaks_everything(self):
        result = decoupling_diagnostic(6, 0, rng=0)
        assert abs(result.conditional_trace_distance - 1.0) < 1e-9
        assert abs(result.leaked_bits - 1.0) < 1e-9
        assert not result.feasible

    def test_deterministic_per_seed(self):
        first = decoupling_diagnostic(5, 2, rng=42)
        second = decoupling_diagnostic(5, 2, rng=42)
        assert first == second

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            decoupling_diagnostic(6, 7, rng=0)
        with pytest.raises(ValueError, match="1..12"):
            decoupling_diagnostic(13, 2, rng=0)

    def test_sweep_rows_match_single_diagnostics(self):
        table = decoupling_sweep(6, [2, 4], num_encodings=3, rng_seed=99)
        for k in (2, 4):
            for encoding_index in range(3):
                direct = decoupling_diagnostic(6, k, derive_seed(99, encoding_index))
                assert table[k][encoding_index] == direct

    def test_integral_float_split_runs_as_the_sweep_does(self):
        direct = decoupling_diagnostic(4, 2.0, derive_seed(0, 0))
        assert direct == decoupling_sweep(4, [2.0], 1, 0)[2][0]

    def test_transition_direction(self):
        table = decoupling_sweep(8, [1, 7], num_encodings=5, rng_seed=3)
        low_access = np.mean([r.conditional_trace_distance for r in table[1]])
        high_access = np.mean([r.conditional_trace_distance for r in table[7]])
        assert low_access > 0.9
        assert high_access < 0.3

    @pytest.mark.parametrize(
        "num_record_qubits, accessible, field",
        [(0, 0, "num_record_qubits"), (6, 7, "accessible"), (6, -1, "accessible"),
         (4, 2.5, "accessible")],
    )
    def test_sweep_refuses_bad_split(self, num_record_qubits, accessible, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            decoupling_sweep(num_record_qubits, [accessible], 1, 0)


HAAR_QUBITS = 6
HAAR_ENCODINGS = 1000
HAAR_SEED = 20261019


def test_haar_encodings_meet_their_second_moments():
    """Sample means over Haar encodings against the exact degree-2 Weingarten
    moments of the hidden reduced states rho0, rho1 (d = d_a * d_h, d_a = 2^k
    accessible): E Tr rho0^2 = (d_a + d_h)/(d + 1), E Tr rho0 rho1 =
    d_h (d_a^2 - 1)/(d^2 - 1), E ||rho0 - rho1||_2^2 = 2 d_a (d_h^2 - 1)/(d^2 - 1)."""
    n, d = HAAR_QUBITS, 2**HAAR_QUBITS
    pairs = [_haar_encodings(n, derive_seed(HAAR_SEED, j)) for j in range(HAAR_ENCODINGS)]
    zero, one = (np.array(column) for column in zip(*pairs))
    for k in range(n + 1):
        d_a, d_h = 2**k, 2 ** (n - k)
        # rho[h, g] = sum_a u[a, h] conj(u[a, g]) over the accessible index a.
        rho0, rho1 = (
            np.einsum("nah,nag->nhg", u.reshape(-1, d_a, d_h), u.reshape(-1, d_a, d_h).conj())
            for u in (zero, one)
        )
        samples = {
            "purity": np.sum(np.abs(rho0) ** 2, axis=(1, 2)),
            "overlap": np.real(np.sum(rho0 * rho1.conj(), axis=(1, 2))),
            "hs_sq": np.sum(np.abs(rho0 - rho1) ** 2, axis=(1, 2)),
        }
        if k == 0:
            assert np.max(np.abs(samples["hs_sq"] - 2.0)) < 1e-12
            assert np.max(np.abs(samples["purity"] - 1.0)) < 1e-12
        elif k == n:
            assert np.max(samples["hs_sq"]) < 1e-12
        else:
            expected = {
                "purity": (d_a + d_h) / (d + 1),
                "overlap": d_h * (d_a**2 - 1) / (d**2 - 1),
                "hs_sq": 2 * d_a * (d_h**2 - 1) / (d**2 - 1),
            }
            for name, values in samples.items():
                sigma = values.std(ddof=1) / np.sqrt(len(values))
                assert abs(values.mean() - expected[name]) < 4 * sigma, (k, name)


ORACLE_SEED = 1  # derive_seed(1, 0) rounds the dense k = 0 trace distance above 1
ORACLE_ENCODINGS = 3


@pytest.mark.parametrize("n", range(1, 11))
def test_decoupling_matches_the_full_qr_and_dense_metrics(n):
    """Every row of a sweep over all splits against the brute-force path: the
    encodings as columns 0 and d/2 of the full Haar QR, and every metric from
    the hidden side's full density matrices."""
    dim = 2**n
    table = decoupling_sweep(n, range(n + 1), ORACLE_ENCODINGS, ORACLE_SEED)
    for j in range(ORACLE_ENCODINGS):
        seed = derive_seed(ORACLE_SEED, j)
        unitary = haar_unitary(dim, as_generator(seed))
        columns = unitary[:, 0], unitary[:, dim // 2]
        for column, encoded in zip(columns, _haar_encodings(n, seed)):
            assert np.max(np.abs(encoded - column)) < 1e-14
        for k in range(n + 1):
            result, expected = table[k][j], dense_decoupling_metrics(*columns, n, k)
            assert abs(result.leaked_bits - expected.leaked_bits) < 1e-12, (j, k)
            assert abs(result.conditional_trace_distance
                       - expected.conditional_trace_distance) < 1e-12, (j, k)
            assert result.feasible == expected.feasible, (j, k)
            assert 0.0 <= expected.conditional_trace_distance <= 1.0, (j, k)


def test_no_access_trace_distance_is_at_most_one():
    # Orthogonal branch states: encodings 0 and 3 round to just above 1.
    for row in decoupling_sweep(10, [0], 4, ORACLE_SEED)[0]:
        assert 1.0 - 1e-12 < row.conditional_trace_distance <= 1.0


@pytest.mark.parametrize("n", range(1, 7))
def test_decoupling_structured_encodings_match_the_dense_oracle(n):
    """Rank-deficient branch pairs, whose hidden states have near-zero
    eigenvalues: a square root of their spectrum would lose half the digits."""
    dim = 2**n
    basis = np.eye(dim)
    uniform = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    pairs = {
        "leading": (basis[0], basis[dim // 2]),
        "last": (basis[0], basis[1]),
        "ghz": (basis[0], basis[dim - 1]),
        "phased": (uniform, uniform * np.where(np.arange(dim) % 2, 1j, 1.0)),
        "identical": (uniform, uniform.copy()),
    }
    for name, pair in pairs.items():
        for k in range(n + 1):
            result = _decoupling_metrics(*pair, n, k)
            expected = dense_decoupling_metrics(*pair, n, k)
            assert abs(result.leaked_bits - expected.leaked_bits) < 1e-12, (name, k)
            assert abs(result.conditional_trace_distance
                       - expected.conditional_trace_distance) < 1e-12, (name, k)
            assert result.feasible == expected.feasible, (name, k)
