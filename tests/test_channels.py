import numpy as np
import pytest

from realitysteer import (
    BranchStructure,
    DensityMatrix,
    GateSpec,
    KrausChannel,
    NonlinearFilter,
    RegisterLayout,
    Scenario,
    StateVector,
    apply_antilinear,
    apply_local_channel,
    apply_nonlinear_filter,
    born_probabilities,
    nonlinear_probabilities,
    partial_trace,
    random_channel,
    trace_distance,
    validate_cptp,
)
from conftest import brute_filter, brute_kraus_on_last

SQRT_HALF = 1.0 / np.sqrt(2.0)

CB = RegisterLayout.from_sizes([("C", 1), ("B", 1)])
CEB = RegisterLayout.from_sizes([("C", 1), ("E", 1), ("B", 1)])

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |0><0|
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1><1|


def bell():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = SQRT_HALF
    return StateVector(amps, 2)


def weighted_ghz(c0, c1):
    amps = np.zeros(8, dtype=complex)
    amps[0b000], amps[0b111] = c0, c1
    return StateVector(amps, 3)


class TestValidateCptp:
    def test_identity_channel(self):
        ok, residual = validate_cptp(KrausChannel((np.eye(2),), 1))
        assert ok and residual == 0.0

    def test_dephasing_projectors(self):
        ok, _ = validate_cptp(KrausChannel((KET0, KET1), 1))
        assert ok

    def test_incomplete_operator_set(self):
        # K†K = diag(1, 4), so the deviation from identity has norm 3
        ok, residual = validate_cptp(KrausChannel((KET0 + 2 * KET1,), 1))
        assert not ok
        assert abs(residual - 3.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            KrausChannel((np.eye(2), np.eye(4)), 1)

    def test_empty_operator_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel((), 1)


class TestApplyLocalChannel:
    def test_identity_channel_preserves_state(self):
        identity = KrausChannel((np.eye(2),), 1)
        rho = apply_local_channel(bell(), CB, "B", identity)
        expected = np.outer(bell().amplitudes, bell().amplitudes.conj())
        assert np.max(np.abs(rho.entries - expected)) < 1e-12

    def test_identity_channel_on_density_matrix(self):
        identity = KrausChannel((np.eye(2),), 1)
        full = apply_local_channel(bell(), CB, "B", identity)
        again = apply_local_channel(full, CB, "B", identity)
        assert np.max(np.abs(again.entries - full.entries)) < 1e-12

    def test_dephasing_on_bell_pair(self):
        channel = KrausChannel((KET0, KET1), 1)
        rho = apply_local_channel(bell(), CB, "B", channel)
        oracle = brute_kraus_on_last(bell().amplitudes, 2, [KET0, KET1])
        assert np.max(np.abs(rho.entries - oracle)) < 1e-12
        reduced = partial_trace(rho, CB, ["C"])
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_full_erasure_channel_on_bell_pair(self):
        reset = KrausChannel(
            (np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)),
            1,
        )
        rho = apply_local_channel(bell(), CB, "B", reset)
        oracle = brute_kraus_on_last(bell().amplitudes, 2, list(reset.operators))
        assert np.max(np.abs(rho.entries - oracle)) < 1e-12
        reduced = partial_trace(rho, CB, ["C"])
        assert np.allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_channel_on_inner_subsystem(self):
        rng = np.random.default_rng(2)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(amps / np.linalg.norm(amps), 3)
        channel = random_channel(1, 2, rng=21)
        rho = apply_local_channel(state, CEB, "E", channel)
        assert abs(np.trace(rho.entries) - 1.0) < 1e-10

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (1, 2, 1), (2, 1, 1)])
    def test_density_matrix_input_agrees_with_pure_input(self, sizes):
        layout = RegisterLayout.from_sizes(zip(("C", "E", "B"), sizes))
        n = layout.total_qubits
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state = StateVector(amps / np.linalg.norm(amps), n)
        full = DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), n)
        channel = random_channel(layout.size("E"), 3, rng=8)
        from_pure = apply_local_channel(state, layout, "E", channel)
        from_mixed = apply_local_channel(full, layout, "E", channel)
        assert np.max(np.abs(from_mixed.entries - from_pure.entries)) < 1e-12

    def test_arity_mismatch_rejected(self):
        channel = random_channel(2, 2, rng=3)
        with pytest.raises(ValueError, match="arity"):
            apply_local_channel(bell(), CB, "B", channel)

    def test_incomplete_channel_rejected(self):
        bad = KrausChannel((KET0,), 1)
        with pytest.raises(ValueError, match="completeness"):
            apply_local_channel(bell(), CB, "B", bad)


class TestRandomChannel:
    def test_deterministic_per_seed(self):
        first = random_channel(1, 3, rng=77)
        second = random_channel(1, 3, rng=77)
        for a, b in zip(first.operators, second.operators):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("num_kraus", [1, 2, 4])
    def test_output_is_always_cptp(self, arity, num_kraus):
        for seed in range(5):
            channel = random_channel(arity, num_kraus, rng=seed)
            ok, residual = validate_cptp(channel)
            assert ok, residual

    def test_single_kraus_is_unitary(self):
        channel = random_channel(1, 1, rng=13)
        op = channel.operators[0]
        assert np.max(np.abs(op.conj().T @ op - np.eye(2))) < 1e-10

    def test_rejects_zero_operators(self):
        with pytest.raises(ValueError, match="num_kraus"):
            random_channel(1, 0, rng=0)


class TestNonlinearFilter:
    def test_identity_weight_returns_state_unchanged(self):
        state = weighted_ghz(SQRT_HALF, SQRT_HALF)
        assert apply_nonlinear_filter(state, CEB, NonlinearFilter(1.0, "B")) is state

    def test_zero_weight_projects_onto_alive_branch(self):
        state = weighted_ghz(SQRT_HALF, SQRT_HALF)
        filtered = apply_nonlinear_filter(state, CEB, NonlinearFilter(0.0, "B"))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(filtered.amplitudes, expected, atol=1e-15)
        assert born_probabilities(filtered, CEB, "C")[0] == 1.0

    def test_weight_two_amplitudes(self):
        state = weighted_ghz(SQRT_HALF, SQRT_HALF)
        filtered = apply_nonlinear_filter(state, CEB, NonlinearFilter(2.0, "B"))
        assert abs(filtered.amplitudes[0b000] - 1 / np.sqrt(5)) < 1e-12
        assert abs(filtered.amplitudes[0b111] - 2 / np.sqrt(5)) < 1e-12
        oracle = brute_filter(state.amplitudes, 3, 2, 2.0)
        assert np.max(np.abs(filtered.amplitudes - oracle)) < 1e-12

    def test_filtered_cat_marginal(self):
        state = weighted_ghz(SQRT_HALF, SQRT_HALF)
        filtered = apply_nonlinear_filter(state, CEB, NonlinearFilter(2.0, "B"))
        probs = born_probabilities(filtered, CEB, "C")
        oracle = brute_filter(state.amplitudes, 3, 2, 2.0)
        oracle_marginal = [sum(abs(oracle[i]) ** 2 for i in range(4)),
                           sum(abs(oracle[i]) ** 2 for i in range(4, 8))]
        assert np.max(np.abs(probs - oracle_marginal)) < 1e-12
        assert abs(probs[0] - 0.2) < 1e-12 and abs(probs[1] - 0.8) < 1e-12

    def test_annihilating_filter_rejected(self):
        state = weighted_ghz(0.0, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            apply_nonlinear_filter(state, CEB, NonlinearFilter(0.0, "B"))

    def test_multi_qubit_target_rejected(self):
        layout = RegisterLayout.from_sizes([("C", 1), ("B", 2)])
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValueError, match="one-qubit"):
            apply_nonlinear_filter(StateVector(amps, 3), layout, NonlinearFilter(2.0, "B"))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            NonlinearFilter(-0.5, "B")

    def test_nontrivial_filter_moves_cat_state_identity_does_not(self):
        state = weighted_ghz(0.6, 0.8)
        before = partial_trace(state, CEB, ["C"])
        moved = apply_nonlinear_filter(state, CEB, NonlinearFilter(2.0, "B"))
        assert trace_distance(before, partial_trace(moved, CEB, ["C"])) > 1e-3
        unmoved = apply_nonlinear_filter(state, CEB, NonlinearFilter(1.0, "B"))
        assert trace_distance(before, partial_trace(unmoved, CEB, ["C"])) == 0.0


class TestNonlinearProbabilities:
    def test_identity_weight_is_born_rule(self):
        p0, p1 = nonlinear_probabilities(SQRT_HALF, SQRT_HALF, 1.0)
        assert abs(p0 - 0.5) < 1e-15 and abs(p1 - 0.5) < 1e-15

    def test_deterministic_branch(self):
        assert nonlinear_probabilities(1.0, 0.0, 3.7) == (1.0, 0.0)

    def test_weight_two_shifts_to_one_fifth(self):
        p0, p1 = nonlinear_probabilities(SQRT_HALF, SQRT_HALF, 2.0)
        assert abs(p0 - 0.2) < 1e-12 and abs(p1 - 0.8) < 1e-12

    def test_agrees_with_state_pipeline_on_grid(self):
        for c0_sq in (0.1, 0.25, 0.36, 0.5, 0.64, 0.9):
            for lam in (0.0, 0.5, 1.0, 2.0, 3.5):
                c0, c1 = np.sqrt(c0_sq), np.sqrt(1 - c0_sq)
                state = weighted_ghz(c0, c1)
                filtered = apply_nonlinear_filter(state, CEB, NonlinearFilter(lam, "B"))
                marginal = born_probabilities(filtered, CEB, "C")
                p0, p1 = nonlinear_probabilities(c0, c1, lam)
                assert abs(marginal[0] - p0) < 1e-12
                assert abs(marginal[1] - p1) < 1e-12

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            nonlinear_probabilities(1.0, 1.0, 2.0)

    def test_fully_annihilated_rejected(self):
        with pytest.raises(ValueError, match="annihilates"):
            nonlinear_probabilities(0.0, 1.0, 0.0)

    def test_annihilation_refused_at_norm_tol(self):
        # The filtered norm is 1e-11: Scenario and the state filter refuse it too.
        c0, c1 = 1e-11, np.sqrt(1.0 - 1e-22)
        with pytest.raises(ValueError, match="lambda_: the filter annihilates both branches"):
            nonlinear_probabilities(c0, c1, 0.0)
        with pytest.raises(ValueError, match="nonlinear_lambda: the filter annihilates"):
            Scenario(branch_structure=BranchStructure.two_branch(c0, c1), nonlinear_lambda=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            apply_nonlinear_filter(weighted_ghz(c0, c1), CEB, NonlinearFilter(0.0, "B"))

    # 1e155 and 1e200 are finite, their squares are not.
    @pytest.mark.parametrize("weight", [-0.5, np.nan, np.inf, 1e155, 1e200, np.float64(1e200)])
    def test_every_filter_site_refuses_the_same_weights(self, weight):
        with pytest.raises(ValueError, match="lambda_: must be >= 0 with a finite square"):
            NonlinearFilter(weight, "B")
        with pytest.raises(ValueError, match="lambda_: must be >= 0 with a finite square"):
            nonlinear_probabilities(0.6, 0.8, weight)
        with pytest.raises(ValueError, match="nonlinear_lambda: must be >= 0 with a finite square"):
            Scenario(nonlinear_lambda=weight)


class TestAntilinear:
    def test_real_state_is_fixed(self):
        state = weighted_ghz(SQRT_HALF, SQRT_HALF)
        assert np.array_equal(apply_antilinear(state).amplitudes, state.amplitudes)

    def test_conjugates_amplitudes(self):
        layout = RegisterLayout.from_sizes([("C", 1)])
        state = StateVector(np.array([1j * SQRT_HALF, SQRT_HALF]), 1)
        flipped = apply_antilinear(state)
        assert np.allclose(flipped.amplitudes, [-1j * SQRT_HALF, SQRT_HALF], atol=1e-15)
        assert np.allclose(
            born_probabilities(flipped, layout, "C"),
            born_probabilities(state, layout, "C"),
            atol=1e-15,
        )

    def test_never_changes_any_marginal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            state = StateVector(amps / np.linalg.norm(amps), 3)
            flipped = apply_antilinear(state, GateSpec.h(1))
            # conjugation alone, and with a real unitary, preserves tables
            for name in ("C", "E", "B"):
                before = born_probabilities(state, CEB, name)
                after = born_probabilities(apply_antilinear(state), CEB, name)
                assert np.max(np.abs(before - after)) < 1e-12
            assert abs(np.linalg.norm(flipped.amplitudes) - 1.0) < 1e-12

    def test_non_unitary_post_map_rejected(self):
        state = weighted_ghz(SQRT_HALF, SQRT_HALF)
        with pytest.raises(ValueError, match="unitary"):
            apply_antilinear(state, GateSpec.unitary(np.diag([1.0, 2.0]), (0,)))


class TestNoSignallingProperty:
    def test_local_channels_never_move_the_remote_state(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for index in range(120):
            arity = 1 + index % 2
            layout = RegisterLayout.from_sizes([("C", 1), ("B", arity)])
            dim = 2 ** (1 + arity)
            amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = StateVector(amps / np.linalg.norm(amps), 1 + arity)
            before = partial_trace(state, layout, ["C"])
            channel = random_channel(arity, 1 + index % 3, rng=rng)
            after_full = apply_local_channel(state, layout, "B", channel)
            after = partial_trace(after_full, layout, ["C"])
            worst = max(worst, trace_distance(before, after))
        assert worst < 1e-10
