"""Local operations on subsystems: linear Kraus channels, plus the two
nonstandard maps used by the steering analysis — a probability-shifting
nonlinear filter and a probability-preserving antilinear map.

The nonlinear filter is defined on pure global states only.  Its matrix
``diag(1, lambda)`` acts on one qubit and the *global renormalization* that
follows is what makes the map nonlinear: for ``lambda != 1`` it cannot be
written as any completely positive trace-preserving map, and it shifts
branch weights in a way no local linear channel can.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .seeding import as_generator
from .statevec import (
    NORM_TOL,
    DensityMatrix,
    GateSpec,
    RegisterLayout,
    StateVector,
    _apply_matrix,
    _check_filter_weight,
    _count,
    _filter_norm,
    _frozen_array,
    _subsystem_qubits,
    apply_gate,
)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Finite set of equal-dimension Kraus operators acting on ``arity`` qubits.

    Construction checks shapes only; completeness (sum of K†K equal to the
    identity) is checked by :func:`validate_cptp` and enforced wherever a
    channel is applied.
    """

    operators: tuple
    arity: int

    def __post_init__(self):
        object.__setattr__(self, "arity", _count("arity", self.arity, 1))
        ops = tuple(_frozen_array(op) for op in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = 2**self.arity
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError(
                    f"Kraus operators must all be {dim}x{dim} for arity {self.arity}"
                )
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class NonlinearFilter:
    """One-qubit reweighting ``diag(1, lambda)`` followed by renormalization.

    ``lambda_ = 1`` is the identity; ``lambda_ = 0`` projects onto the 0
    branch of the target subsystem.
    """

    lambda_: float
    target: str

    def __post_init__(self):
        _check_filter_weight("lambda_", self.lambda_)


class CptpCheck(NamedTuple):
    valid: bool
    residual: float


def _completeness_sum(operators: np.ndarray) -> np.ndarray:
    """The sum of K†K over the Kraus axis of a ``(..., k, d, d)`` stack, one
    ``(d, d)`` sum per channel, accumulated in listed order."""
    total = np.zeros(operators.shape[:-3] + operators.shape[-2:], dtype=np.complex128)
    for index in range(operators.shape[-3]):
        op = operators[..., index, :, :]
        total += op.conj().swapaxes(-1, -2) @ op
    return total


def _completeness_residuals(operators: np.ndarray) -> np.ndarray:
    """The Frobenius deviation of each channel's completeness sum from the
    identity, for a ``(..., k, d, d)`` stack of Kraus sets."""
    total = _completeness_sum(operators)
    return np.linalg.norm(total - np.eye(operators.shape[-1]), axis=(-2, -1))


def _check_complete(operators: np.ndarray) -> None:
    """Refuse a ``(..., k, d, d)`` stack unless every channel passes
    :func:`validate_cptp`; the message names the worst residual."""
    residual = float(np.max(_completeness_residuals(operators)))
    if not residual <= NORM_TOL:
        raise ValueError(f"channel violates completeness (residual {residual:.3e})")


def validate_cptp(channel: KrausChannel, tolerance: float = NORM_TOL) -> CptpCheck:
    """Check the completeness relation; residual is the Frobenius deviation."""
    residual = float(_completeness_residuals(np.stack(channel.operators)))
    return CptpCheck(residual <= tolerance, residual)


def apply_local_channel(state, layout: RegisterLayout, subsystem: str, channel: KrausChannel) -> DensityMatrix:
    """Apply a channel to one subsystem, identity elsewhere; returns the full
    register's density matrix.

    Accepts a StateVector or DensityMatrix.  The channel must pass
    :func:`validate_cptp`.
    """
    targets = _subsystem_qubits(state, layout, subsystem)
    if len(targets) != channel.arity:
        raise ValueError(
            f"channel arity {channel.arity} does not match subsystem "
            f"{subsystem!r} of {len(targets)} qubit(s)"
        )
    _check_complete(np.stack(channel.operators))
    n = layout.total_qubits
    dim = 2**n
    out = np.zeros((dim, dim), dtype=np.complex128)
    if isinstance(state, StateVector):
        for op in channel.operators:
            branch = _apply_matrix(state.amplitudes, n, targets, op)
            out += np.outer(branch, branch.conj())
    else:
        for op in channel.operators:
            left = _apply_matrix(state.entries, n, targets, op)
            # right-multiplication by K† via transposes: rho K† = (conj(K) rho^T)^T
            out += _apply_matrix(left.T, n, targets, op.conj()).T
    return DensityMatrix(out, n)


def random_channel(arity: int, num_kraus: int, rng) -> KrausChannel:
    """Random CPTP channel: Ginibre operators normalized by the inverse square
    root of their completeness sum.  Deterministic per seed; a single Kraus
    operator comes out unitary.
    """
    arity, num_kraus = _count("arity", arity, 1), _count("num_kraus", num_kraus, 1)
    dim = 2**arity
    draws = as_generator(rng).standard_normal((num_kraus, 2, dim, dim))
    return KrausChannel(tuple(_normalized_kraus(_ginibre_kraus(draws))), arity)


def _ginibre_kraus(draws: np.ndarray) -> np.ndarray:
    """The Ginibre operators of a ``(..., k, 2, d, d)`` block of standard
    normals, as ``(..., k, d, d)``: each operator's real part, then its
    imaginary part, over the square root of 2."""
    return (draws[..., 0, :, :] + 1j * draws[..., 1, :, :]) / np.sqrt(2.0)


def _normalized_kraus(raw: np.ndarray) -> np.ndarray:
    """Each Kraus set of a ``(..., k, d, d)`` stack times the inverse square
    root of its completeness sum, which makes every set complete."""
    eigenvalues, vectors = np.linalg.eigh(_completeness_sum(raw))
    dim = raw.shape[-1]
    scale = np.zeros(eigenvalues.shape + (dim,))
    scale[..., range(dim), range(dim)] = eigenvalues**-0.5
    inv_sqrt = vectors @ scale @ vectors.conj().swapaxes(-1, -2)
    return raw @ inv_sqrt[..., np.newaxis, :, :]


def apply_nonlinear_filter(state: StateVector, layout: RegisterLayout, filt: NonlinearFilter) -> StateVector:
    """Reweight the target qubit's branches by ``diag(1, lambda)`` and
    renormalize the global state.

    Raises when the filtered state has no remaining support (lambda = 0 with
    nothing on the target's 0 branch).
    """
    targets = _subsystem_qubits(state, layout, filt.target)
    if len(targets) != 1:
        raise ValueError("nonlinear filter acts on a one-qubit subsystem")
    if filt.lambda_ == 1.0:
        return state
    weights = np.array([[1.0, 0.0], [0.0, filt.lambda_]], dtype=np.complex128)
    filtered = _apply_matrix(state.amplitudes, state.num_qubits, targets, weights)
    return StateVector(filtered / _filter_norm(filtered), state.num_qubits)


def nonlinear_probabilities(c0: complex, c1: complex, lambda_: float):
    """Shifted two-branch outcome probabilities after the filter.

    For amplitudes (c0, c1) the filter turns the Born weights into
    ``|c0|^2 / (|c0|^2 + lambda^2 |c1|^2)`` and its complement.
    """
    p0 = abs(c0) ** 2
    p1 = abs(c1) ** 2
    if abs(p0 + p1 - 1.0) > NORM_TOL:
        raise ValueError("branch amplitudes must be normalized")
    _check_filter_weight("lambda_", lambda_, (p0, p1))
    denominator = p0 + lambda_**2 * p1
    return p0 / denominator, lambda_**2 * p1 / denominator


def apply_antilinear(state: StateVector, post_unitary: "GateSpec | None" = None) -> StateVector:
    """Conjugate all amplitudes, then optionally apply a unitary.

    Nonlinear as a map on states, but it never changes any subsystem's Born
    probabilities, so it cannot shift branch weights.
    """
    conjugated = StateVector(state.amplitudes.conj(), state.num_qubits)
    if post_unitary is None:
        return conjugated
    return apply_gate(conjugated, post_unitary)
