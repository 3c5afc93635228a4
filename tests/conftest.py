"""Shared fixtures and independent brute-force oracles.

The oracles deliberately use explicit index loops and bit arithmetic so
they share no code path with the production reshape/transpose kernels.
"""

import numpy as np
import pytest

from realitysteer import BranchStructure, canonical_scenario


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


def brute_permutation(amplitudes, num_qubits, gates):
    """X, CNOT and multi-controlled-X gates as explicit basis relabelling:
    each index whose control bits are all 1 moves to the index with the last
    target bit flipped."""
    out = np.array(amplitudes, dtype=complex)
    for gate in gates:
        *controls, target = gate.targets
        moved = np.empty_like(out)
        for index in range(2**num_qubits):
            fire = all((index >> (num_qubits - 1 - q)) & 1 for q in controls)
            flip = 1 << (num_qubits - 1 - target) if fire else 0
            moved[index ^ flip] = out[index]
        out = moved
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


@pytest.fixture
def canonical():
    return canonical_scenario()


@pytest.fixture
def biased_structure():
    return BranchStructure.two_branch(np.sqrt(0.36), np.sqrt(0.64))
