"""Shared fixtures and independent brute-force oracles.

The oracles deliberately use explicit index loops and bit arithmetic so
they share no code path with the production reshape/transpose kernels.
"""

import math

import numpy as np
import pytest

from realitysteer import (
    BranchStructure,
    NonlinearFilter,
    Participation,
    apply_nonlinear_filter,
    born_probabilities,
    canonical_scenario,
    clinic_erase,
    conditional_clinic,
    observe,
    partial_trace,
    prepare_cat,
    project_onto,
    purity,
    record_value,
    rewrite_record,
    scenario_layout,
    spread_to_environment,
    trace_distance,
    von_neumann_entropy,
)
from realitysteer.protocol import DECOUPLING_FEASIBLE_THRESHOLD, RECORD_TOL, DecouplingResult
from realitysteer.statevec import NORM_TOL, DensityMatrix, RegisterLayout, StateVector


def assemble_index(num_qubits, groups):
    """Build a basis index from (qubit_list, value) groups, bit by bit."""
    index = 0
    for qubits, value in groups:
        for position, qubit in enumerate(qubits):
            bit = (value >> (len(qubits) - 1 - position)) & 1
            index |= bit << (num_qubits - 1 - qubit)
    return index


def brute_partial_trace(amplitudes, num_qubits, keep_qubits):
    """Partial trace by summation over explicit basis indices."""
    keep = list(keep_qubits)
    rest = [q for q in range(num_qubits) if q not in keep]
    dim_keep = 2 ** len(keep)
    rho = np.zeros((dim_keep, dim_keep), dtype=complex)
    for i in range(dim_keep):
        for j in range(dim_keep):
            total = 0.0 + 0.0j
            for env in range(2 ** len(rest)):
                row = assemble_index(num_qubits, [(keep, i), (rest, env)])
                col = assemble_index(num_qubits, [(keep, j), (rest, env)])
                total += amplitudes[row] * np.conj(amplitudes[col])
            rho[i, j] = total
    return rho


def brute_partial_trace_dm(entries, num_qubits, keep_qubits):
    """Partial trace of a density matrix by summation over explicit basis
    indices."""
    keep = list(keep_qubits)
    rest = [q for q in range(num_qubits) if q not in keep]
    dim_keep = 2 ** len(keep)
    rho = np.zeros((dim_keep, dim_keep), dtype=complex)
    for i in range(dim_keep):
        for j in range(dim_keep):
            total = 0.0 + 0.0j
            for env in range(2 ** len(rest)):
                row = assemble_index(num_qubits, [(keep, i), (rest, env)])
                col = assemble_index(num_qubits, [(keep, j), (rest, env)])
                total += entries[row, col]
            rho[i, j] = total
    return rho


def brute_filter(amplitudes, num_qubits, target_qubit, weight):
    """Entrywise one-qubit reweighting followed by explicit renormalization."""
    out = np.array(amplitudes, dtype=complex)
    for index in range(len(out)):
        if (index >> (num_qubits - 1 - target_qubit)) & 1:
            out[index] *= weight
    norm = np.sqrt(sum(abs(a) ** 2 for a in out))
    return out / norm


def brute_image(index, num_qubits, gates):
    """Where X, CNOT and multi-controlled-X gates move one basis index: gate
    by gate, an index whose control bits are all 1 gets its last target bit
    flipped."""
    for gate in gates:
        *controls, target = gate.targets
        if all((index >> (num_qubits - 1 - q)) & 1 for q in controls):
            index ^= 1 << (num_qubits - 1 - target)
    return index


def brute_permutation(amplitudes, num_qubits, gates):
    """X, CNOT and multi-controlled-X gates as explicit basis relabelling:
    the amplitude at each index moves to its :func:`brute_image`."""
    out = np.zeros(2**num_qubits, dtype=complex)
    for index in range(2**num_qubits):
        out[brute_image(index, num_qubits, gates)] = amplitudes[index]
    return out


def brute_kraus_on_last(amplitudes, dim_first, kraus_ops):
    """Channel on the trailing subsystem of a bipartite pure state, via
    explicit Kronecker embedding."""
    dim_last = kraus_ops[0].shape[0]
    rho = np.zeros((dim_first * dim_last,) * 2, dtype=complex)
    for op in kraus_ops:
        embedded = np.kron(np.eye(dim_first), op)
        branch = embedded @ np.asarray(amplitudes)
        rho += np.outer(branch, branch.conj())
    return rho


def exact_reduced_state(amplitudes, num_qubits, keep_qubits):
    """The reduced state of the kept qubits as a full Gram matrix of the dense
    (kept, rest) block, each entry's real and imaginary part the ``math.fsum``
    of its products' parts: exactly rounded, so no order or padding shows."""
    index = np.arange(2**num_qubits)

    def value(qubits):
        bits = np.zeros_like(index)
        for qubit in qubits:
            bits = (bits << 1) | ((index >> (num_qubits - 1 - qubit)) & 1)
        return bits

    rest = [q for q in range(num_qubits) if q not in keep_qubits]
    block = np.zeros((2 ** len(keep_qubits), 2 ** len(rest)), dtype=complex)
    block[value(keep_qubits), value(rest)] = amplitudes
    block = block[:, (block != 0).any(axis=0)]  # zero columns add nothing
    re, im = block.real, block.imag

    def fsum(*products):
        terms = np.concatenate(products)
        return math.fsum(terms[terms != 0.0].tolist())

    d = len(block)
    return np.array([
        [complex(fsum(re[i] * re[j], im[i] * im[j]), fsum(im[i] * re[j], -(re[i] * im[j])))
         for j in range(d)]
        for i in range(d)
    ])


def dense_engine_tables(scenario):
    """Every table ``TrialEngine`` builds, by its pipeline run on a dense
    ``StateVector`` through the public stage functions: the bit-for-bit
    oracle of the engine.  The brain state is the full exact Gram matrix of
    :func:`exact_reduced_state`, so it also checks the engine's premise that
    the brain state is diagonal.  Keys are the engine's attribute names; the
    ``_ok_*`` columns are lists (1 pinned, 0 not, -1 never evaluated) and
    the patient tables are None when no erased branch has weight."""
    layout = scenario_layout(scenario)
    structure = scenario.branch_structure
    encoding = scenario.encoding
    branches = range(structure.num_branches)
    records = [record_value(encoding, structure.cat_width, b) for b in branches]

    def marginals(state):
        cat = born_probabilities(state, layout, "C")[: len(records)]
        return born_probabilities(state, layout, "B")[records], tuple(float(p) for p in cat)

    def pinned(state, given, value, read, expect):
        conditioned = project_onto(state, layout, given, value)
        return int(born_probabilities(conditioned, layout, read)[expect] >= 1.0 - RECORD_TOL)

    state = prepare_cat(structure, layout)
    state = observe(state, layout, scenario.observe_variant, encoding)
    state = spread_to_environment(state, layout, scenario.env_qubits - 1)
    pre_probs, cat_before = marginals(state)
    if scenario.participation is Participation.ALL:
        state = clinic_erase(state, layout, encoding)
    else:
        state = conditional_clinic(state, layout, structure, scenario.participation, encoding)
    brain = DensityMatrix(
        exact_reduced_state(state.amplitudes, state.num_qubits, layout.qubits("B")),
        layout.size("B"),
    )
    if scenario.nonlinear_lambda is not None:
        state = apply_nonlinear_filter(
            state, layout, NonlinearFilter(scenario.nonlinear_lambda, "A")
        )
    participates = np.array([b in structure.branches_in(scenario.participation) for b in branches])
    ok_stay = [
        pinned(state, "C", b, "B", records[b])
        if not participates[b] and pre_probs[b] > NORM_TOL else -1
        for b in branches
    ]
    post_probs = cat_after_patient = None
    ok_patient = [-1] * len(records)
    if pre_probs[participates].sum() > NORM_TOL:
        state = rewrite_record(project_onto(state, layout, "B", 0), layout, encoding)
        post_probs, cat_after_patient = marginals(state)
        ok_patient = [
            pinned(state, "B", records[b], "C", b) if post_probs[b] > NORM_TOL else -1
            for b in branches
        ]
        post_probs = post_probs.tolist()
    return {
        "pre_probs": pre_probs.tolist(),
        "cat_before": cat_before,
        "brain_purity": purity(brain),
        "brain_entropy": von_neumann_entropy(brain),
        "_ok_stay": ok_stay,
        "post_probs": post_probs,
        "cat_after_patient": cat_after_patient,
        "_ok_patient": ok_patient,
    }


def haar_unitary(dim, rng):
    """The whole Haar-random unitary: a full QR of the ``dim x dim`` Ginibre
    matrix, with the phase convention that makes Q Haar.  The program's
    encodings are two of its columns, from the Householder factors of the
    leading columns only."""
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre / np.sqrt(2.0))
    diagonal = np.diag(r)
    return q * (diagonal / np.abs(diagonal))


def dense_decoupling_metrics(encoded_zero, encoded_one, num_record_qubits, accessible):
    """The decoupling metrics from the hidden side's full density matrices
    at every split, however large the hidden side is."""
    if accessible == num_record_qubits:
        return DecouplingResult(0.0, 0.0, True)
    hidden = num_record_qubits - accessible
    parts = (("accessible", accessible), ("hidden", hidden))
    layout = RegisterLayout.from_sizes([(name, size) for name, size in parts if size])
    rho_zero, rho_one = (
        partial_trace(StateVector(encoded, num_record_qubits), layout, "hidden")
        for encoded in (encoded_zero, encoded_one)
    )
    distance = trace_distance(rho_zero, rho_one)
    averaged = DensityMatrix((rho_zero.entries + rho_one.entries) / 2.0, hidden)
    leaked = von_neumann_entropy(averaged) - 0.5 * (
        von_neumann_entropy(rho_zero) + von_neumann_entropy(rho_one)
    )
    return DecouplingResult(leaked, distance, distance < DECOUPLING_FEASIBLE_THRESHOLD)


@pytest.fixture
def canonical():
    return canonical_scenario()


@pytest.fixture
def biased_structure():
    return BranchStructure.two_branch(np.sqrt(0.36), np.sqrt(0.64))
