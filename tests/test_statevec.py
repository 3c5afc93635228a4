import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realitysteer import (
    BasisState,
    DensityMatrix,
    GateSpec,
    KrausChannel,
    NonlinearFilter,
    RegisterLayout,
    StateVector,
    apply_gate,
    apply_local_channel,
    apply_nonlinear_filter,
    basis_index,
    born_probabilities,
    init_register,
    partial_trace,
    permute,
    project_onto,
    purity,
    sample_outcome,
    trace_distance,
    von_neumann_entropy,
)
from realitysteer.statevec import _bit_values, _check_norm

from conftest import brute_bit_values, brute_partial_trace, brute_partial_trace_dm, brute_permutation

SQRT_HALF = 1.0 / np.sqrt(2.0)

CBE = RegisterLayout.from_sizes([("C", 1), ("B", 1), ("E", 1)])


def ghz3():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = SQRT_HALF
    return StateVector(amps, 3)


def bell():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = SQRT_HALF
    return StateVector(amps, 2)


class TestRegisterLayout:
    def test_from_sizes_assigns_consecutive_blocks(self):
        layout = RegisterLayout.from_sizes([("C", 1), ("B", 2), ("E", 3)])
        assert layout.total_qubits == 6
        assert layout.qubits("B") == (1, 2)
        assert layout.names == ("C", "B", "E")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            RegisterLayout((("C", (0,)), ("C", (1,))), 2)

    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(ValueError, match="partition"):
            RegisterLayout((("C", (0,)), ("B", (2,))), 3)
        with pytest.raises(ValueError, match="partition"):
            RegisterLayout((("C", (0,)), ("B", (0,))), 1)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            CBE.qubits("X")


class TestInitRegister:
    def test_three_qubit_blank(self):
        state = init_register(CBE, "000")
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_single_qubit_one(self):
        layout = RegisterLayout.from_sizes([("C", 1)])
        state = init_register(layout, "1")
        assert state.amplitudes[1] == 1.0

    def test_four_subsystem_register(self):
        layout = RegisterLayout.from_sizes([("C", 1), ("B", 1), ("E", 1), ("A", 1)])
        state = init_register(layout, "0000")
        assert state.dim == 16
        assert state.amplitudes[0] == 1.0

    def test_mapping_form(self):
        state = init_register(CBE, {"B": "1"})
        assert state.amplitudes[0b010] == 1.0

    def test_mapping_int_values(self):
        state = init_register(CBE, {"C": 1, "E": 1})
        assert state.amplitudes[0b101] == 1.0

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            init_register(CBE, "00")

    def test_unknown_subsystem(self):
        with pytest.raises(KeyError, match="unknown subsystem"):
            init_register(CBE, {"X": "0"})

    def test_bad_characters(self):
        with pytest.raises(ValueError, match="0s and 1s"):
            init_register(CBE, "0a1")


class TestApplyGate:
    def test_hadamard(self):
        layout = RegisterLayout.from_sizes([("C", 1)])
        state = apply_gate(init_register(layout, "0"), GateSpec.h(0))
        assert np.allclose(state.amplitudes, [SQRT_HALF, SQRT_HALF], atol=1e-15)

    def test_cnot_makes_bell_pair(self):
        layout = RegisterLayout.from_sizes([("C", 1), ("B", 1)])
        state = apply_gate(init_register(layout, "00"), GateSpec.h(0))
        state = apply_gate(state, GateSpec.cnot(0, 1))
        assert np.allclose(state.amplitudes, bell().amplitudes, atol=1e-15)

    def test_fanout_sequence_makes_ghz(self):
        state = apply_gate(init_register(CBE, "000"), GateSpec.h(0))
        state = apply_gate(state, GateSpec.cnot(0, 1))
        state = apply_gate(state, GateSpec.cnot(0, 2))
        assert np.max(np.abs(state.amplitudes - ghz3().amplitudes)) < 1e-12

    def test_swap(self):
        layout = RegisterLayout.from_sizes([("C", 1), ("B", 1)])
        state = apply_gate(init_register(layout, "10"), GateSpec.swap(0, 1))
        assert state.amplitudes[0b01] == 1.0

    def test_controlled_u_multi_control(self):
        layout = RegisterLayout.from_sizes([("a", 1), ("b", 1), ("c", 1)])
        x = np.array([[0, 1], [1, 0]])
        toffoli = GateSpec.controlled(x, controls=(0, 1), targets=(2,))
        assert apply_gate(init_register(layout, "110"), toffoli).amplitudes[0b111] == 1.0
        assert apply_gate(init_register(layout, "100"), toffoli).amplitudes[0b100] == 1.0

    def test_arbitrary_unitary_on_middle_qubit(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(raw)
        state = apply_gate(init_register(CBE, "000"), GateSpec.unitary(q, (1,)))
        expected = np.zeros(8, dtype=complex)
        expected[0b000], expected[0b010] = q[0, 0], q[1, 0]
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_rejects_repeated_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            GateSpec.cnot(1, 1)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(ghz3(), GateSpec.x(5))

    def test_rejects_non_unitary_matrix(self):
        with pytest.raises(ValueError, match="unitary"):
            GateSpec.unitary(np.array([[1, 0], [0, 2]]), (0,))

    def test_norm_preserved_under_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            state = StateVector(amps / np.linalg.norm(amps), n)
            for _ in range(10):
                raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                q, _ = np.linalg.qr(raw)
                target = int(rng.integers(0, n))
                state = apply_gate(state, GateSpec.unitary(q, (target,)))
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


X_MATRIX = np.array([[0, 1], [1, 0]])


@st.composite
def permutation_circuits(draw):
    """Random amplitudes on 1-8 qubits and a list of X, CNOT and
    multi-controlled-X gates on them."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        qubits = draw(st.permutations(range(n)))
        arity = draw(st.integers(1, n))
        if arity == 1:
            gates.append(GateSpec.x(qubits[0]))
        elif arity == 2 and draw(st.booleans()):
            gates.append(GateSpec.cnot(qubits[0], qubits[1]))
        else:
            gates.append(GateSpec.controlled(X_MATRIX, qubits[: arity - 1], (qubits[arity - 1],)))
    return StateVector(amps / np.linalg.norm(amps), n), gates


@settings(max_examples=150, deadline=None)
@given(circuit=permutation_circuits())
def test_permutation_gates_match_bit_oracle(circuit):
    state, gates = circuit
    n = state.num_qubits
    expected = brute_permutation(state.amplitudes, n, gates)
    relabelled = permute(BasisState(np.arange(2**n), state.amplitudes, n), gates)
    scattered = np.zeros(2**n, dtype=complex)
    scattered[relabelled.indices] = relabelled.amplitudes
    assert np.array_equal(scattered, expected)
    for gate in gates:
        state = apply_gate(state, gate)
    assert np.array_equal(state.amplitudes, expected)


@st.composite
def qubit_lists(draw):
    """A register of 1-22 qubits and a list of its qubits: a contiguous run,
    ascending with gaps, descending, a single qubit, none, or any order."""
    n = draw(st.integers(1, 22))
    shape = draw(st.sampled_from(["contiguous", "gapped", "descending", "single", "empty", "any"]))
    if shape == "contiguous":
        start = draw(st.integers(0, n - 1))
        qubits = list(range(start, draw(st.integers(start + 1, n))))
    elif shape in ("gapped", "descending"):
        qubits = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)), reverse=shape == "descending")
    elif shape == "single":
        qubits = [draw(st.integers(0, n - 1))]
    elif shape == "empty":
        qubits = []
    else:
        qubits = draw(st.lists(st.integers(0, n - 1), max_size=n))
    indices = np.array(draw(st.lists(st.integers(0, 2**n - 1), max_size=40)), dtype=np.intp)
    return n, qubits, indices


@settings(max_examples=300, deadline=None)
@given(case=qubit_lists())
def test_bit_values_match_the_per_qubit_rule(case):
    n, qubits, indices = case
    got = _bit_values(indices, n, qubits)
    assert got.dtype == indices.dtype
    assert np.array_equal(got, brute_bit_values(indices, n, qubits))


@pytest.mark.parametrize("qubits", [
    [], [5], [0, 1, 2], [2, 1, 0], [0, 2, 3, 7], [3, 4, 0, 1], [21], list(range(22)),
], ids=["empty", "single", "contiguous", "descending", "gapped", "two-runs", "last", "all"])
def test_bit_values_on_every_22_qubit_pattern(qubits):
    indices = np.random.default_rng(3).integers(0, 2**22, 500)
    assert np.array_equal(_bit_values(indices, 22, qubits), brute_bit_values(indices, 22, qubits))


@pytest.mark.parametrize("gate", [
    GateSpec.h(0),
    GateSpec.unitary(X_MATRIX, (1,)),
    GateSpec.controlled(np.diag([1, -1]), (0,), (1,)),
    GateSpec.controlled(np.kron(X_MATRIX, X_MATRIX), (0,), (1, 2)),
], ids=["h", "u", "controlled-z", "controlled-xx"])
def test_permute_refuses_gates_that_are_not_x(gate):
    state = BasisState([0], [1.0], 3)
    with pytest.raises(ValueError, match=repr(gate.kind)):
        permute(state, [GateSpec.x(2), gate])


class TestBasisState:
    def test_refuses_repeated_and_out_of_range_indices(self):
        with pytest.raises(ValueError, match="distinct"):
            BasisState([1, 1], [SQRT_HALF, SQRT_HALF], 2)
        with pytest.raises(ValueError, match="out of range"):
            BasisState([0, 4], [SQRT_HALF, SQRT_HALF], 2)
        with pytest.raises(ValueError, match="out of range"):
            BasisState([-1], [1.0], 2)
        with pytest.raises(ValueError, match="integers"):
            BasisState([0.5], [1.0], 2)

    def test_norm_checked_like_state_vector(self):
        with pytest.raises(ValueError, match="squared norm"):
            BasisState([0, 3], [1.0, 1.0], 2)
        with pytest.raises(ValueError, match="match"):
            BasisState([0, 3], [1.0], 2)

    def test_values_are_read_only(self):
        state = BasisState([0, 3], [SQRT_HALF, SQRT_HALF], 2)
        with pytest.raises(ValueError):
            state.indices[0] = 1
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_permute_checks_targets(self):
        with pytest.raises(ValueError, match="out of range"):
            permute(BasisState([0], [1.0], 2), [GateSpec.x(2)])


class TestPartialTrace:
    def test_ghz_keep_cat_is_mixed(self):
        rho = partial_trace(ghz3(), CBE, ["C"])
        assert np.allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-12)

    def test_product_state_keeps_purity(self):
        layout = RegisterLayout.from_sizes([("a", 1), ("b", 1)])
        amps = np.array([SQRT_HALF, SQRT_HALF, 0, 0], dtype=complex)  # |0>|+>
        rho = partial_trace(StateVector(amps, 2), layout, ["b"])
        assert abs(purity(rho) - 1.0) < 1e-12
        assert np.allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-12)

    def test_bell_keep_first_matches_brute_force(self):
        layout = RegisterLayout.from_sizes([("a", 1), ("b", 1)])
        rho = partial_trace(bell(), layout, ["a"])
        oracle = brute_partial_trace(bell().amplitudes, 2, [0])
        assert np.allclose(rho.entries, oracle, atol=1e-12)
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_random_states_match_brute_force(self):
        rng = np.random.default_rng(5)
        layout = RegisterLayout.from_sizes([("a", 1), ("b", 2), ("c", 1)])
        for _ in range(10):
            amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            state = StateVector(amps / np.linalg.norm(amps), 4)
            rho = partial_trace(state, layout, ["b"])
            oracle = brute_partial_trace(state.amplitudes, 4, [1, 2])
            assert np.max(np.abs(rho.entries - oracle)) < 1e-12

    def test_density_matrix_input_agrees_with_pure_input(self):
        rng = np.random.default_rng(6)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(amps / np.linalg.norm(amps), 3)
        full = DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), 3)
        direct = partial_trace(state, CBE, ["B"])
        via_dm = partial_trace(full, CBE, ["B"])
        assert np.max(np.abs(direct.entries - via_dm.entries)) < 1e-12

    @pytest.mark.parametrize(
        "keep", [["c", "a"], ["b", "a"], ["c", "b"], ["a", "c"], ["b"], ["c", "b", "a"]]
    )
    def test_mixed_states_match_brute_force(self, keep):
        layout = RegisterLayout.from_sizes([("a", 1), ("b", 2), ("c", 1)])
        qubits = [q for name in keep for q in layout.qubits(name)]
        rng = np.random.default_rng(13)
        for rank in (1, 3, 16):
            ginibre = rng.standard_normal((16, rank)) + 1j * rng.standard_normal((16, rank))
            entries = ginibre @ ginibre.conj().T
            entries /= np.trace(entries).real
            reduced = partial_trace(DensityMatrix(entries, 4), layout, keep)
            oracle = brute_partial_trace_dm(entries, 4, qubits)
            assert np.max(np.abs(reduced.entries - oracle)) < 1e-12

    def test_composition_order_is_irrelevant(self):
        rng = np.random.default_rng(7)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state = StateVector(amps / np.linalg.norm(amps), 3)
        keep_cb = partial_trace(state, CBE, ["C", "B"])
        cb_layout = RegisterLayout.from_sizes([("C", 1), ("B", 1)])
        via_e_first = partial_trace(keep_cb, cb_layout, ["C"])
        keep_ce = partial_trace(state, CBE, ["C", "E"])
        ce_layout = RegisterLayout.from_sizes([("C", 1), ("E", 1)])
        via_b_first = partial_trace(keep_ce, ce_layout, ["C"])
        assert np.max(np.abs(via_e_first.entries - via_b_first.entries)) < 1e-12

    def test_empty_keep_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            partial_trace(ghz3(), CBE, [])

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            partial_trace(ghz3(), CBE, ["X"])


class TestBornProbabilities:
    def test_ghz_cat_marginal(self):
        probs = born_probabilities(ghz3(), CBE, "C")
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_basis_state(self):
        probs = born_probabilities(init_register(CBE, "000"), CBE, "C")
        assert np.allclose(probs, [1.0, 0.0], atol=1e-15)

    def test_matches_reduced_diagonal(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            state = StateVector(amps / np.linalg.norm(amps), 3)
            for name in ("C", "B", "E"):
                probs = born_probabilities(state, CBE, name)
                diagonal = np.real(np.diag(partial_trace(state, CBE, [name]).entries))
                assert np.max(np.abs(probs - diagonal)) < 1e-12

    def test_unknown_subsystem(self):
        with pytest.raises(KeyError):
            born_probabilities(ghz3(), CBE, "X")


class TestSampling:
    def test_deterministic_state(self):
        layout = RegisterLayout.from_sizes([("C", 1)])
        state = init_register(layout, "1")
        outcome, post = sample_outcome(state, layout, "C", rng=0)
        assert outcome == 1
        assert np.allclose(post.amplitudes, state.amplitudes)

    def test_same_seed_same_outcome(self):
        draws = {sample_outcome(ghz3(), CBE, "C", rng=123)[0] for _ in range(5)}
        assert len(draws) == 1

    def test_post_state_is_projected(self):
        outcome, post = sample_outcome(ghz3(), CBE, "B", rng=9)
        expected = np.zeros(8, dtype=complex)
        expected[0b111 if outcome else 0b000] = 1.0
        assert np.allclose(post.amplitudes, expected, atol=1e-12)

    def test_frequencies_within_three_sigma(self):
        state = ghz3()
        hits = sum(
            sample_outcome(state, CBE, "C", rng=seed)[0] == 0 for seed in range(100_000)
        )
        sigma = np.sqrt(0.25 / 100_000)
        assert abs(hits / 100_000 - 0.5) < 3 * sigma

    def test_project_onto_zero_probability_errors(self):
        layout = RegisterLayout.from_sizes([("C", 1)])
        with pytest.raises(ValueError, match="probability ~0"):
            project_onto(init_register(layout, "0"), layout, "C", 1)


class TestDensityMatrixDiagnostics:
    def test_purity_extremes(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]), 1)
        mixed = DensityMatrix(np.eye(2) / 2, 1)
        assert abs(purity(pure) - 1.0) < 1e-15
        assert abs(purity(mixed) - 0.5) < 1e-15

    def test_entropy_extremes(self):
        pure = DensityMatrix(np.diag([1.0, 0.0]), 1)
        mixed = DensityMatrix(np.eye(2) / 2, 1)
        assert von_neumann_entropy(pure) == 0.0
        assert abs(von_neumann_entropy(mixed) - 1.0) < 1e-12

    def test_entropy_bounds_and_purity_link(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            state = StateVector(amps / np.linalg.norm(amps), 4)
            layout = RegisterLayout.from_sizes([("a", 2), ("b", 2)])
            rho = partial_trace(state, layout, ["a"])
            entropy = von_neumann_entropy(rho)
            assert -1e-12 <= entropy <= 2.0 + 1e-12
            if abs(purity(rho) - 1.0) < 1e-10:
                assert entropy < 1e-8

    def test_spectrum_is_the_read_only_eigvalsh_of_the_entries(self):
        rho = partial_trace(ghz3(), CBE, ["C", "B"])
        assert rho.spectrum.tobytes() == np.linalg.eigvalsh(rho.entries).tobytes()
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.5

    def test_entropy_from_the_spectrum_matches_a_fresh_decomposition(self):
        def fresh_entropy(rho):
            eigenvalues = np.linalg.eigvalsh(rho.entries)
            eigenvalues = np.where(eigenvalues < 0.0, 0.0, eigenvalues)
            positive = eigenvalues[eigenvalues > 0.0]
            return float(-np.sum(positive * np.log2(positive)))

        rng = np.random.default_rng(18)
        # A Haar-random column's whole 10-qubit register (decoupling at k=0),
        # and a 2-qubit reduced state of a random 4-qubit state.
        column = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        wide = partial_trace(
            StateVector(column / np.linalg.norm(column), 10),
            RegisterLayout.from_sizes([("hidden", 10)]), "hidden",
        )
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        small = partial_trace(
            StateVector(amps / np.linalg.norm(amps), 4),
            RegisterLayout.from_sizes([("a", 2), ("b", 2)]), "a",
        )
        for rho in (wide, small):
            assert von_neumann_entropy(rho).hex() == fresh_entropy(rho).hex()

    def test_trace_distance_identical(self):
        rho = DensityMatrix(np.eye(2) / 2, 1)
        assert trace_distance(rho, rho) == 0.0

    def test_trace_distance_orthogonal_pure(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]), 1)
        one = DensityMatrix(np.diag([0.0, 1.0]), 1)
        assert abs(trace_distance(zero, one) - 1.0) < 1e-15

    def test_trace_distance_shifted_diagonals(self):
        # eigenvalues of the difference are +-0.3
        before = DensityMatrix(np.diag([0.5, 0.5]), 1)
        after = DensityMatrix(np.diag([0.2, 0.8]), 1)
        assert abs(trace_distance(before, after) - 0.3) < 1e-12

    def test_dimension_mismatch(self):
        small = DensityMatrix(np.eye(2) / 2, 1)
        large = DensityMatrix(np.eye(4) / 4, 2)
        with pytest.raises(ValueError, match="equal dimensions"):
            trace_distance(small, large)


class TestValueInvariants:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]), 1)

    def test_a_stack_of_states_names_its_worst_deviation(self):
        stack = np.array([[1.0, 0.0], [np.sqrt(1.3), 0.0], [0.0, np.sqrt(0.5)]])
        for state, shown in zip(stack[1:], ["3.000e-01", "5.000e-01"]):
            with pytest.raises(ValueError, match=f"^squared norm deviates from 1 by {shown}$"):
                _check_norm(state)
        with pytest.raises(ValueError, match="^squared norm deviates from 1 by 5.000e-01$"):
            _check_norm(stack)
        with pytest.raises(ValueError, match="^squared norm deviates from 1 by nan$"):
            _check_norm(np.array([[1.0, 0.0], [np.nan, 0.0]]).reshape(2, 1, 2))
        _check_norm(stack[:1])
        _check_norm(stack[0])

    def test_state_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            StateVector(np.array([1.0, 0.0, 0.0]), 2)

    def test_density_matrix_hermiticity(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), 1)

    def test_density_matrix_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), 1)

    def test_density_matrix_positivity(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]), 1)

    def test_density_matrix_refuses_nan(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan), 1)
        # Hermitian wherever it is defined, with one NaN on the diagonal.
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.diag([np.nan, 0.5, 0.25, 0.25]), 2)

    def test_amplitudes_are_read_only(self):
        state = ghz3()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_gate_matrices_are_read_only(self):
        for gate in (GateSpec.x(0), GateSpec.h(0), GateSpec.cnot(0, 1), GateSpec.swap(0, 1)):
            with pytest.raises(ValueError):
                gate.resolved_matrix()[0, 0] = 0.0

    def test_basis_index_big_endian(self):
        assert basis_index(CBE, {"C": 1}) == 0b100
        assert basis_index(CBE, {"E": 1}) == 0b001


LAYOUT_KERNELS = {
    "born_probabilities": lambda state, layout: born_probabilities(state, layout, "B"),
    "project_onto": lambda state, layout: project_onto(state, layout, "B", 0),
    "partial_trace": lambda state, layout: partial_trace(state, layout, ["B"]),
    "apply_local_channel": lambda state, layout: apply_local_channel(
        state, layout, "B", KrausChannel((np.eye(2),), 1)
    ),
    "apply_nonlinear_filter": lambda state, layout: apply_nonlinear_filter(
        state, layout, NonlinearFilter(0.5, "B")
    ),
}


@pytest.mark.parametrize("kernel", LAYOUT_KERNELS.values(), ids=list(LAYOUT_KERNELS))
def test_layout_of_wrong_size_is_refused(kernel):
    layout = RegisterLayout.from_sizes([("C", 1), ("B", 1)])
    with pytest.raises(ValueError, match="layout has 2 qubits but the state has 3"):
        kernel(init_register(CBE, "100"), layout)
