from dataclasses import asdict

import numpy as np
import pytest

from realitysteer import (
    BasisState,
    BranchStructure,
    DensityMatrix,
    GateSpec,
    KrausChannel,
    Participation,
    RecordEncoding,
    RegisterLayout,
    Scenario,
    StateVector,
    TrialEngine,
    apply_local_channel,
    basis_index,
    born_statistics_test,
    canonical_scenario,
    check_circuit_equivalence,
    check_coordination,
    check_indistinguishability,
    check_no_signalling,
    check_nonlinear_witness,
    clinic_erase,
    decoupling_diagnostic,
    decoupling_sweep,
    expected_post_probabilities,
    observe,
    partial_trace,
    prepare_cat,
    project_onto,
    protocol,
    random_channel,
    run_checks,
    run_ensemble,
    scenario_layout,
    spread_to_environment,
    trace_distance,
    verify,
)
from realitysteer.seeding import as_generator, derive_seed, derive_seeds
from realitysteer.statevec import _density_spectra, basis_project_onto

SQRT_HALF = 1.0 / np.sqrt(2.0)


class TestCircuitEquivalence:
    def test_canonical_and_random_cats_pass(self):
        verdict = check_circuit_equivalence(num_random_cats=100, rng_seed=7)
        assert verdict.passed
        assert verdict.metric < 1e-12

    def test_deterministic_cat_only(self):
        verdict = check_circuit_equivalence(num_random_cats=0)
        assert verdict.passed

    def test_refuses_a_negative_count(self):
        with pytest.raises(ValueError, match="num_random_cats: must be an integer >= 0"):
            check_circuit_equivalence(num_random_cats=-3)

    def test_metric_reproducible(self):
        first = check_circuit_equivalence(num_random_cats=25, rng_seed=3)
        second = check_circuit_equivalence(num_random_cats=25, rng_seed=3)
        assert first.metric == second.metric

    @pytest.mark.parametrize("dropped", [None, "a", "b", "c"])
    def test_metric_matches_dense_observe_cat_by_cat(self, monkeypatch, dropped):
        """The metric, bit for bit, from the public dense ``observe`` on one
        ``prepare_cat`` state at a time, with the variant ``dropped`` missing
        its last gate in both paths."""
        real_stage = verify._observe_stage

        def stage(layout, variant, encoding):
            built = real_stage(layout, variant, encoding)
            return built._replace(gates=built.gates[:-1]) if variant == dropped else built

        monkeypatch.setattr(verify, "_observe_stage", stage)
        monkeypatch.setattr(protocol, "_observe_stage", stage)
        gen = as_generator(11)
        structures = [BranchStructure.equal(1, 1), BranchStructure.two_branch(1.0, 0.0)]
        structures += [verify._random_two_branch(gen) for _ in range(20)]
        scenario = canonical_scenario()
        layout = scenario_layout(scenario)
        worst = 0.0
        for structure in structures:
            cat = prepare_cat(structure, layout)
            states = [observe(cat, layout, v, scenario.encoding).amplitudes for v in "abc"]
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, float(np.max(np.abs(states[i] - states[j]))))
        verdict = check_circuit_equivalence(num_random_cats=20, rng_seed=11)
        assert verdict.metric.hex() == worst.hex()
        assert verdict.passed == (dropped is None)

    @pytest.mark.parametrize("rng_seed", [1, 7, 20260810])
    def test_batched_cat_weights_equal_the_per_cat_structures(self, rng_seed):
        gen = as_generator(rng_seed)
        expected = np.stack([verify._random_two_branch(gen).weights for _ in range(1600)])
        batched = verify._random_cat_weights(as_generator(rng_seed), 1600)
        assert batched.dtype == expected.dtype
        assert batched.tobytes() == expected.tobytes()
        assert verify._random_cat_weights(as_generator(rng_seed), 0).shape == (0, 2)

    @pytest.mark.parametrize("bad", [1e200, np.nan], ids=["overflowing", "nan"])
    def test_a_cat_off_unity_raises(self, monkeypatch, bad):
        """One cat drawn off unity (its norm overflows, or is NaN) is refused
        by the same rule and message as ``BranchStructure``'s."""

        class OneBadCat:
            def __init__(self, rng):
                self.gen = as_generator(rng)

            def standard_normal(self, size):
                draws = self.gen.standard_normal(size)
                if len(draws) > 3:
                    draws[3] *= bad
                return draws

        monkeypatch.setattr(verify, "as_generator", OneBadCat)
        refusal = "^weights: squared amplitudes sum off unity by"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=refusal):
            check_circuit_equivalence(num_random_cats=5, rng_seed=1)
        assert check_circuit_equivalence(num_random_cats=3, rng_seed=1).passed

    def test_a_defective_variant_fails(self, monkeypatch):
        real_stage = verify._observe_stage

        def dropped_gate(layout, variant, encoding):
            stage = real_stage(layout, variant, encoding)
            return stage._replace(gates=stage.gates[:-1]) if variant == "c" else stage

        monkeypatch.setattr(verify, "_observe_stage", dropped_gate)
        verdict = check_circuit_equivalence(num_random_cats=3)
        assert not verdict.passed
        assert verdict.metric > 0.5


class TestNoSignalling:
    def test_hundred_random_channels(self):
        verdict = check_no_signalling(num_random_channels=100, rng_seed=19)
        assert verdict.passed
        assert verdict.metric < 1e-10

    def test_requires_at_least_one_channel(self):
        with pytest.raises(ValueError):
            check_no_signalling(num_random_channels=0)

    def test_metric_reproducible(self):
        first = check_no_signalling(num_random_channels=10, rng_seed=2)
        second = check_no_signalling(num_random_channels=10, rng_seed=2)
        assert first.metric == second.metric


def _channel_distances(num_channels, rng_seed):
    """Each random channel's trace distance, one channel at a time through
    the public ``random_channel``, ``apply_local_channel``, ``partial_trace``
    and ``trace_distance``: the per-channel loop the stacked check replaces."""
    distances = []
    for index in range(num_channels):
        gen = as_generator(derive_seed(rng_seed, index))
        arity = 1 + index % 2
        layout = RegisterLayout.from_sizes([("C", 1), ("B", arity)])
        amplitudes = gen.standard_normal(2 ** (1 + arity)) + 1j * gen.standard_normal(
            2 ** (1 + arity)
        )
        state = StateVector(amplitudes / np.linalg.norm(amplitudes), 1 + arity)
        before = partial_trace(state, layout, ["C"])
        channel = random_channel(arity, 1 + index % 3, gen)
        after = partial_trace(apply_local_channel(state, layout, "B", channel), layout, ["C"])
        distances.append(trace_distance(before, after))
    return distances


def _erase_distances(rng_seed):
    """The eight erase-pipeline trace distances, through the public stages."""
    distances = []
    for index in range(8):
        gen = as_generator(derive_seed(rng_seed, 10_000 + index))
        scenario = canonical_scenario(branch_structure=verify._random_two_branch(gen))
        layout = scenario_layout(scenario)
        observed = observe(prepare_cat(scenario.branch_structure, layout), layout,
                           scenario.observe_variant, scenario.encoding)
        state = spread_to_environment(observed, layout, scenario.env_qubits - 1)
        erased = clinic_erase(state, layout, scenario.encoding)
        distances.append(trace_distance(partial_trace(state, layout, ["C"]),
                                        partial_trace(erased, layout, ["C"])))
    return distances


def _frozen_random_channel(arity, num_kraus, seed):
    """``random_channel``'s operators by the formula it had when each channel
    was drawn and normalized on its own; kept as the reference."""
    gen = np.random.default_rng(seed)
    dim = 2**arity
    raw = []
    for _ in range(num_kraus):
        real = gen.standard_normal((dim, dim))
        imag = gen.standard_normal((dim, dim))
        raw.append((real + 1j * imag) / np.sqrt(2.0))
    total = np.zeros((dim, dim), dtype=np.complex128)
    for op in raw:
        total += op.conj().T @ op
    eigenvalues, vectors = np.linalg.eigh(total)
    inv_sqrt = vectors @ np.diag(eigenvalues**-0.5) @ vectors.conj().T
    return [op @ inv_sqrt for op in raw]


class TestStackedNoSignalling:
    @pytest.mark.parametrize("rng_seed", [20260810, 1, 4])
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 100])
    def test_equals_the_per_channel_loop(self, monkeypatch, count, rng_seed):
        calls = []
        real = verify._channel_trace_distances

        def recorded(states, kraus):
            distances = real(states, kraus)
            calls.append((states.shape[1], kraus.shape[1], distances))
            return distances

        monkeypatch.setattr(verify, "_channel_trace_distances", recorded)
        verdict = check_no_signalling(count, rng_seed=rng_seed)
        loop = _channel_distances(count, rng_seed)
        assert float.hex(verdict.metric) == float.hex(max([0.0] + loop + _erase_distances(rng_seed)))
        # One stack per (arity, Kraus count) group, each member's distance
        # equal to the loop's, in index order.
        groups = {(2 ** (2 + i % 2), 1 + i % 3) for i in range(count)}
        assert {(dim, k) for dim, k, _ in calls} == groups
        for dim, k, distances in calls:
            members = [i for i in range(count) if (2 ** (2 + i % 2), 1 + i % 3) == (dim, k)]
            assert [float.hex(float(d)) for d in distances] == [float.hex(loop[i]) for i in members]

    def test_after_traced_over_b_fails(self, monkeypatch):
        real_einsum = np.einsum

        def over_b(subscripts, *operands, **kwargs):
            if subscripts == "...biai->...ab":
                subscripts = "...ibia->...ab"
            return real_einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", over_b)
        verdict = check_no_signalling(1)
        assert not verdict.passed
        assert verdict.metric > 1e-3

    def test_an_unnormalized_kraus_set_raises(self, monkeypatch):
        real = verify._normalized_kraus

        def one_left_raw(raw):
            operators = real(raw)
            operators[-1] = raw[-1]
            return operators

        monkeypatch.setattr(verify, "_normalized_kraus", one_left_raw)
        with pytest.raises(ValueError, match="channel violates completeness"):
            check_no_signalling(7)

    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 0.1], [0.0, 0.5]]),
        np.full((2, 2), np.nan),
        np.array([[1.5, 0.0], [0.0, -0.5]]),
        np.array([[0.6, 0.0], [0.0, 0.6]]),
    ], ids=["non_hermitian", "nan", "negative_eigenvalue", "trace"])
    def test_one_bad_matrix_raises_as_density_matrix(self, bad):
        stack = np.stack([np.eye(2) / 2, bad, np.diag([1.0, 0.0])]).astype(np.complex128)
        with pytest.raises(ValueError) as single:
            DensityMatrix(bad, 1)
        with pytest.raises(ValueError) as stacked:
            _density_spectra(stack)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("num_kraus", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 20260810])
    def test_random_channel_operators_are_unchanged(self, arity, num_kraus, seed):
        channel = random_channel(arity, num_kraus, seed)
        expected = _frozen_random_channel(arity, num_kraus, seed)
        assert [op.tobytes() for op in channel.operators] == [op.tobytes() for op in expected]


def _three_draws(gen, arity, num_kraus):
    """An index's state and Kraus set from its three draws in turn: the
    state's real parts, its imaginary parts, then the ``(k, 2, d, d)`` Kraus
    block, with the state divided by its own norm."""
    dim = 2**arity
    amplitudes = gen.standard_normal(2 * dim) + 1j * gen.standard_normal(2 * dim)
    draws = gen.standard_normal((num_kraus, 2, dim, dim))
    return amplitudes / np.linalg.norm(amplitudes), (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2.0)


class TestNoSignallingOneDrawPerIndex:
    @pytest.mark.parametrize("rng_seed", [20260810, 3])
    def test_stacks_equal_the_three_draws_per_index(self, monkeypatch, rng_seed):
        """Each index's one draw gives, for arity 1 and 2 and 1 to 3 Kraus
        operators, the state and Kraus bits of its three draws: every
        group's stacks, as the check hands them on, equal its members'
        three draws in index order."""
        calls = []
        real = verify._channel_trace_distances

        def recorded(states, kraus):
            calls.append((states, kraus))
            return real(states, kraus)

        monkeypatch.setattr(verify, "_channel_trace_distances", recorded)
        count = 14
        check_no_signalling(count, rng_seed=rng_seed)
        assert len(calls) == 6
        for states, kraus in calls:
            arity, num_kraus = int(np.log2(states.shape[1])) - 1, kraus.shape[1]
            members = [i for i in range(count) if (1 + i % 2, 1 + i % 3) == (arity, num_kraus)]
            expected = [
                _three_draws(as_generator(derive_seed(rng_seed, i)), arity, num_kraus)
                for i in members
            ]
            assert states.tobytes() == np.stack([state for state, _ in expected]).tobytes()
            assert kraus.tobytes() == np.stack([ops for _, ops in expected]).tobytes()

    @pytest.mark.parametrize("bad, shown", [(2.0, "7.500e-01"), (np.nan, "nan")],
                             ids=["halved", "nan"])
    def test_a_member_off_unity_raises(self, monkeypatch, bad, shown):
        """One state of the first stack divided by a wrong norm is refused by
        ``StateVector``'s norm rule, which names the worst deviation."""
        real_norm = np.linalg.norm
        calls = []

        def third_off(x, *args, **kwargs):
            calls.append(None)
            return real_norm(x, *args, **kwargs) * (bad if len(calls) == 3 else 1.0)

        monkeypatch.setattr(np.linalg, "norm", third_off)
        refusal = f"^squared norm deviates from 1 by {shown}$"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=refusal):
            check_no_signalling(20, rng_seed=1)
        monkeypatch.undo()
        assert check_no_signalling(20, rng_seed=1).passed


# A two-qubit state with C leading: 0.6 on C = 0, 0.8 on C = 1, B blank.
PROJECTION_LAYOUT = RegisterLayout.from_sizes([("C", 1), ("B", 1)])
PROJECTION_DENSE = StateVector([0.6, 0, 0.8, 0], 2)
PROJECTION_BASIS = BasisState([0, 2], [0.6, 0.8], 2)


class TestCountArguments:
    """The one count rule, ``statevec._count``, at every library site that
    takes a count or a qubit index, size or value, and the one seed rule,
    ``seeding._seed``, at every seeding entry point: each refusal is a
    ValueError that starts with the name."""

    @pytest.mark.parametrize("call, name", [
        (lambda: check_no_signalling(True), "num_random_channels"),
        (lambda: check_no_signalling(2.5), "num_random_channels"),
        (lambda: check_circuit_equivalence(2.5), "num_random_cats"),
        (lambda: check_circuit_equivalence(False), "num_random_cats"),
        (lambda: born_statistics_test(num_trials=1000.5), "num_trials"),
        (lambda: born_statistics_test(num_trials=True), "num_trials"),
        (lambda: run_ensemble(canonical_scenario(), 2.5), "num_trials"),
        (lambda: run_ensemble(canonical_scenario(), True), "num_trials"),
        (lambda: decoupling_sweep(4, [1], 2.5, 0), "num_encodings"),
        (lambda: BranchStructure(1.5, 1, None), "num_alive"),
        (lambda: BranchStructure(1, True, None), "num_dead"),
        (lambda: Scenario(env_qubits=2.5), "env_qubits"),
        (lambda: Scenario(env_qubits=True), "env_qubits"),
        (lambda: random_channel(1, 1.5, 0), "num_kraus"),
        (lambda: random_channel(1.0, 1, 0), "arity"),
        (lambda: KrausChannel((np.eye(2),), 1.0), "arity"),
        (lambda: KrausChannel((np.eye(2),), True), "arity"),
        (lambda: Scenario(rng_seed=1.5), "rng_seed"),
        (lambda: Scenario(rng_seed=True), "rng_seed"),
        (lambda: decoupling_sweep(True, [True], 1, 0), "num_record_qubits"),
        (lambda: decoupling_diagnostic(2.0, 1, 0), "num_record_qubits"),
        (lambda: GateSpec.x(True), "targets"),
        (lambda: GateSpec.x(1.0), "targets"),
        (lambda: RegisterLayout.from_sizes([("C", True)]), "sizes"),
        (lambda: RegisterLayout.from_sizes([("C", 1.5)]), "sizes"),
        (lambda: RegisterLayout((("C", (0,)),), True), "total_qubits"),
        (lambda: RegisterLayout((("C", (0,)),), 1.0), "total_qubits"),
        (lambda: StateVector(np.array([1, 0]), True), "num_qubits"),
        (lambda: StateVector(np.array([1, 0]), 1.0), "num_qubits"),
        (lambda: StateVector(np.array([1, 0]), 1.5), "num_qubits"),
        (lambda: BasisState([0], [1.0], True), "num_qubits"),
        (lambda: BasisState([0], [1.0], 1.0), "num_qubits"),
        (lambda: BasisState([0], [1.0], 1.5), "num_qubits"),
        (lambda: DensityMatrix(np.diag([1.0, 0.0]), True), "num_qubits"),
        (lambda: DensityMatrix(np.diag([1.0, 0.0]), 1.0), "num_qubits"),
        (lambda: DensityMatrix(np.diag([1.0, 0.0]), 1.5), "num_qubits"),
        (lambda: basis_index(RegisterLayout.from_sizes([("C", 1)]), {"C": 1.0}), "values"),
        (lambda: basis_index(RegisterLayout.from_sizes([("C", 1)]), {"C": 1.5}), "values"),
        (lambda: project_onto(PROJECTION_DENSE, PROJECTION_LAYOUT, "C", True), "value"),
        (lambda: project_onto(PROJECTION_DENSE, PROJECTION_LAYOUT, "C", 1.0), "value"),
        (lambda: project_onto(PROJECTION_DENSE, PROJECTION_LAYOUT, "C", 1.5), "value"),
        (lambda: basis_project_onto(PROJECTION_BASIS, PROJECTION_LAYOUT, "C", True), "value"),
        (lambda: basis_project_onto(PROJECTION_BASIS, PROJECTION_LAYOUT, "C", 1.0), "value"),
        (lambda: basis_project_onto(PROJECTION_BASIS, PROJECTION_LAYOUT, "C", 1.5), "value"),
        (lambda: as_generator(1.5), "rng"),
        (lambda: as_generator(True), "rng"),
        (lambda: derive_seed(1.5, 0), "base_seed"),
        (lambda: derive_seed(True, 0), "base_seed"),
        (lambda: derive_seeds(1.5, 0, 2), "base_seed"),
        (lambda: decoupling_sweep(4, [1], 2, 1.5), "rng_seed"),
        (lambda: decoupling_sweep(4, [1], 2, True), "rng_seed"),
        (lambda: check_no_signalling(1, 1.5), "rng_seed"),
        (lambda: check_no_signalling(1, True), "rng_seed"),
        (lambda: run_checks(("circuit_equivalence",), rng_seed=1.5), "rng_seed"),
        (lambda: check_circuit_equivalence(1, rng_seed=True), "rng_seed"),
    ], ids=[
        "channels_bool", "channels_float", "cats_float", "cats_bool", "trials_float",
        "trials_bool", "ensemble_float", "ensemble_bool", "encodings_float", "alive_float",
        "dead_bool", "env_float", "env_bool", "kraus_float", "arity_float",
        "kraus_arity_float", "kraus_arity_bool", "seed_float", "seed_bool",
        "record_bool", "record_float", "target_bool", "target_float", "size_bool",
        "size_float", "layout_total_bool", "layout_total_float", "state_bool",
        "state_integral_float", "state_float", "basis_bool", "basis_integral_float",
        "basis_float", "density_bool", "density_integral_float", "density_float",
        "value_integral_float", "value_float", "project_bool",
        "project_integral_float", "project_float", "basis_project_bool",
        "basis_project_integral_float", "basis_project_float", "generator_float",
        "generator_bool", "derive_float", "derive_bool", "derive_many_float",
        "sweep_seed_float", "sweep_seed_bool", "no_signalling_seed_float",
        "no_signalling_seed_bool", "run_checks_seed_float", "circuit_seed_bool",
    ])
    def test_refuses_a_non_integer(self, call, name):
        with pytest.raises(ValueError, match=f"{name}: must be an integer"):
            call()

    @pytest.mark.parametrize("call, name, minimum", [
        (lambda: check_circuit_equivalence(-1), "num_random_cats", 0),
        (lambda: check_no_signalling(0), "num_random_channels", 1),
        (lambda: born_statistics_test(num_trials=999), "num_trials", 1000),
        (lambda: run_ensemble(canonical_scenario(), 0), "num_trials", 1),
        (lambda: TrialEngine(canonical_scenario()).run_batch(0, 0, -1), "count", 1),
        (lambda: TrialEngine(canonical_scenario()).run_batch(0, 0, 0), "count", 1),
        (lambda: TrialEngine(canonical_scenario()).run_batch(0, -2, 3), "first", 0),
        (lambda: decoupling_sweep(4, [1], 0, 0), "num_encodings", 1),
        (lambda: BranchStructure(0, 1, None), "num_alive", 1),
        (lambda: Scenario(env_qubits=0), "env_qubits", 1),
        (lambda: random_channel(1, 0, 0), "num_kraus", 1),
        (lambda: random_channel(0, 1, 0), "arity", 1),
        (lambda: KrausChannel((np.eye(1),), 0), "arity", 1),
        (lambda: GateSpec.cnot(0, -1), "targets", 0),
        (lambda: RegisterLayout.from_sizes([("C", 1), ("B", 0)]), "sizes", 1),
        (lambda: basis_index(RegisterLayout.from_sizes([("C", 1)]), {"C": -1}), "values", 0),
        (lambda: project_onto(PROJECTION_DENSE, PROJECTION_LAYOUT, "C", -1), "value", 0),
        (lambda: basis_project_onto(PROJECTION_BASIS, PROJECTION_LAYOUT, "C", -1), "value", 0),
        (lambda: RegisterLayout((), -1), "total_qubits", 0),
        (lambda: StateVector(np.array([1.0]), 0), "num_qubits", 1),
        (lambda: BasisState([0], [1.0], 0), "num_qubits", 1),
        (lambda: DensityMatrix(np.ones((1, 1)), 0), "num_qubits", 1),
    ], ids=[
        "cats", "channels", "trials", "ensemble", "batch_negative", "batch_empty",
        "batch_first", "encodings", "alive", "env", "kraus", "arity", "kraus_arity",
        "target", "size", "value", "project", "basis_project", "layout_total", "state",
        "basis", "density",
    ])
    def test_refuses_a_count_below_its_minimum(self, call, name, minimum):
        with pytest.raises(ValueError, match=f"{name}: must be an integer >= {minimum}, got "):
            call()

    # Access levels take integral floats, as the CLI's sweep values are,
    # but not bools.
    @pytest.mark.parametrize("call", [
        lambda: decoupling_diagnostic(4, True, 0),
        lambda: decoupling_sweep(4, [False], 1, 0),
        lambda: decoupling_sweep(4, [2, np.True_], 1, 0),
    ], ids=["diagnostic_bool", "sweep_bool", "sweep_numpy_bool"])
    def test_refuses_a_bool_access_level(self, call):
        with pytest.raises(ValueError, match="^accessible: "):
            call()

    def test_accepts_numpy_integers(self):
        verdict = check_no_signalling(np.int64(3))
        assert verdict.passed
        assert "under 3 random local channels" in verdict.details
        assert check_circuit_equivalence(np.int32(2)).passed
        assert born_statistics_test(num_trials=np.int64(1000)).passed
        scenario = Scenario(BranchStructure(np.int64(1), np.int32(1), None), env_qubits=np.int64(2))
        assert len(run_ensemble(scenario, np.int64(3), first_trial=np.int32(1))) == 3
        assert len(TrialEngine(scenario).run_batch(0, np.uint8(0), np.int16(2))) == 2
        assert len(decoupling_sweep(4, [1], np.int64(2), 0)[1]) == 2
        assert decoupling_diagnostic(np.int64(4), np.int32(1), 0) == decoupling_diagnostic(4, 1, 0)
        assert random_channel(np.int64(2), np.int32(3), 0).arity == 2
        assert type(KrausChannel((np.eye(2),), np.int64(1)).arity) is int
        assert GateSpec.x(np.int64(1)).targets == (1,)
        layout = RegisterLayout.from_sizes([("C", np.int32(2))])
        assert layout.total_qubits == 2
        assert RegisterLayout.from_sizes([]).total_qubits == 0
        assert type(RegisterLayout((("C", (0,)),), np.int64(1)).total_qubits) is int
        assert type(StateVector(np.array([1, 0]), np.int64(1)).num_qubits) is int
        assert type(BasisState([0], [1.0], np.int64(1)).num_qubits) is int
        assert type(DensityMatrix(np.diag([1.0, 0.0]), np.int64(1)).num_qubits) is int
        assert basis_index(layout, {"C": np.uint8(2)}) == basis_index(layout, {"C": "10"}) == 2

    def test_seeds_of_any_sign_reduce_mod_2_64(self):
        seeded = Scenario(rng_seed=np.int64(-77))
        assert type(seeded.rng_seed) is int and seeded.rng_seed == -77
        assert run_ensemble(seeded, 5) == run_ensemble(Scenario(rng_seed=2**64 - 77), 5)

    def test_projection_values_take_numpy_integers(self):
        dense = project_onto(PROJECTION_DENSE, PROJECTION_LAYOUT, "C", np.int64(1))
        expected = project_onto(PROJECTION_DENSE, PROJECTION_LAYOUT, "C", 1)
        assert dense.amplitudes.tobytes() == expected.amplitudes.tobytes()
        assert abs(dense.amplitudes[2]) == 1.0
        basis = basis_project_onto(PROJECTION_BASIS, PROJECTION_LAYOUT, "C", np.int64(1))
        expected = basis_project_onto(PROJECTION_BASIS, PROJECTION_LAYOUT, "C", 1)
        assert basis.indices.tolist() == expected.indices.tolist() == [2]
        assert basis.amplitudes.tobytes() == expected.amplitudes.tobytes()

    @pytest.mark.parametrize("seed, plain", [
        (np.int64(5), 5), (np.uint64(5), 5), (-1, 2**64 - 1), (2**70 + 5, 5),
    ], ids=["numpy_int", "numpy_uint", "negative", "wide"])
    def test_seeding_entry_points_reduce_seeds_mod_2_64(self, seed, plain):
        assert as_generator(seed).random(2).tolist() == as_generator(plain).random(2).tolist()
        assert derive_seed(seed, 3) == derive_seed(plain, 3)
        assert derive_seeds(seed, 0, 3).tolist() == derive_seeds(plain, 0, 3).tolist()


class TestIndistinguishability:
    def test_canonical(self):
        verdict = check_indistinguishability()
        assert verdict.passed
        assert verdict.metric < 1e-10

    def test_biased_weights(self, biased_structure):
        verdict = check_indistinguishability(
            canonical_scenario(branch_structure=biased_structure)
        )
        assert verdict.passed

    def test_deterministic_cat(self):
        verdict = check_indistinguishability(
            canonical_scenario(branch_structure=BranchStructure.two_branch(1.0, 0.0))
        )
        assert verdict.passed and verdict.metric < 1e-12

    def test_tagged_encoding(self):
        verdict = check_indistinguishability(
            canonical_scenario(encoding=RecordEncoding.TAGGED)
        )
        assert verdict.passed

    def test_rejects_nontrivial_filter(self):
        with pytest.raises(ValueError, match="linear"):
            check_indistinguishability(canonical_scenario(nonlinear_lambda=2.0))

    def test_rejects_partial_participation(self):
        with pytest.raises(ValueError, match="participation"):
            check_indistinguishability(
                canonical_scenario(
                    encoding=RecordEncoding.TAGGED,
                    participation=Participation.DEAD_ONLY,
                )
            )


class TestCoordination:
    def test_dead_only_blocks_steering(self):
        verdict = check_coordination()
        assert verdict.passed
        assert abs(verdict.metric - 1.0) < 1e-9
        assert "blocked" in verdict.details

    def test_full_participation_enables_steering(self):
        verdict = check_coordination(
            canonical_scenario(encoding=RecordEncoding.TAGGED)
        )
        assert verdict.passed
        assert verdict.metric < 1e-10
        assert "enabled" in verdict.details

    def test_four_branch_entropy_exceeds_threshold(self):
        verdict = check_coordination(
            canonical_scenario(
                branch_structure=BranchStructure.equal(2, 2),
                encoding=RecordEncoding.TAGGED,
                participation=Participation.DEAD_ONLY,
            )
        )
        assert verdict.passed
        assert verdict.metric > 0.5

    def test_plain_encoding_rejected(self):
        with pytest.raises(ValueError, match="tagged"):
            check_coordination(canonical_scenario(participation=Participation.DEAD_ONLY))


class TestNonlinearWitness:
    def test_refuses_a_weight_with_an_infinite_square(self):
        # 1e155 is finite, its square is not: the filtered norm would overflow.
        with pytest.raises(ValueError, match="lambda_: must be >= 0 with a finite square"):
            check_nonlinear_witness(lambda_=1e155)

    def test_identity_weight_gives_zero_witness(self):
        verdict = check_nonlinear_witness(lambda_=1.0)
        assert verdict.passed
        assert verdict.metric == 0.0

    def test_weight_two_gives_three_tenths(self):
        verdict = check_nonlinear_witness(lambda_=2.0)
        assert verdict.passed
        assert abs(verdict.metric - 0.3) < 1e-12

    def test_antilinear_map_gives_zero_witness(self):
        verdict = check_nonlinear_witness(use_antilinear=True)
        assert verdict.passed
        assert verdict.metric < 1e-12

    def test_deterministic_branch_cannot_be_shifted(self):
        verdict = check_nonlinear_witness(lambda_=2.0, weights=(1.0, 0.0))
        assert verdict.passed
        assert verdict.metric < 1e-12

    def test_biased_weights_match_prediction(self):
        verdict = check_nonlinear_witness(lambda_=0.5, weights=(0.6, 0.8))
        assert verdict.passed


class TestBornStatistics:
    def test_canonical_passes(self):
        verdict = born_statistics_test(num_trials=20_000)
        assert verdict.passed
        assert verdict.metric > 0.001

    def test_filter_scenario_passes_against_shifted_prediction(self):
        scenario = canonical_scenario(nonlinear_lambda=2.0, rng_seed=17)
        verdict = born_statistics_test(scenario, num_trials=20_000)
        assert verdict.passed
        expected = expected_post_probabilities(scenario)
        assert np.allclose(expected, [0.2, 0.8], atol=1e-12)

    def test_deterministic_cat(self):
        scenario = canonical_scenario(
            branch_structure=BranchStructure.two_branch(1.0, 0.0), rng_seed=23
        )
        verdict = born_statistics_test(scenario, num_trials=1000)
        assert verdict.passed

    def test_minimum_trial_count_enforced(self):
        with pytest.raises(ValueError, match="1000"):
            born_statistics_test(num_trials=10)


class TestSuiteRunner:
    def test_all_selector_runs_six_checks(self):
        verdicts = run_checks(("all",), rng_seed=20260810)
        assert len(verdicts) == 6
        assert all(v.passed for v in verdicts)

    def test_single_selector(self):
        verdicts = run_checks(("no_signalling",), rng_seed=1)
        assert len(verdicts) == 1
        assert verdicts[0].check_name == "no_signalling"

    def test_unknown_selector_raises(self):
        with pytest.raises(KeyError, match="unknown check"):
            run_checks(("nope",))

    def test_verdicts_reproducible(self):
        first = run_checks(("circuit_equivalence", "nonlinear_witness"), rng_seed=4)
        second = run_checks(("circuit_equivalence", "nonlinear_witness"), rng_seed=4)
        assert [(v.check_name, v.metric) for v in first] == [
            (v.check_name, v.metric) for v in second
        ]


# Verdicts of the two branches no golden reaches (the default `verify` suite
# runs neither), pinned field for field.
UNPINNED_VERDICTS = [
    (
        lambda: check_coordination(canonical_scenario(encoding=RecordEncoding.TAGGED)),
        {
            "check_name": "coordination",
            "passed": True,
            "metric": 3.2034265038149176e-16,
            "tolerance": 1e-10,
            "details": "full participation: brain entropy after the erase in bits; "
                       "steering enabled, passes below tolerance",
        },
    ),
    (
        lambda: check_nonlinear_witness(use_antilinear=True),
        {
            "check_name": "nonlinear_witness",
            "passed": True,
            "metric": 0.0,
            "tolerance": 1e-10,
            "details": "probability-preserving map: cat reduced state must not move; "
                       "passes below tolerance",
        },
    ),
]


@pytest.mark.parametrize("check, expected", UNPINNED_VERDICTS, ids=["coordination_all", "antilinear"])
def test_verdict_pinned(check, expected):
    assert asdict(check()) == expected
