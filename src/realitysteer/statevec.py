"""Pure-state and density-matrix core for small composite qubit registers.

Conventions fixed here and relied on everywhere else:

- Amplitude ordering is big-endian over the register: qubit 0 is the most
  significant bit of a basis index.  For a layout listing subsystems
  (C, B, E) of one qubit each, the basis label "011" (C=0, B=1, E=1) sits
  at index 3.
- Every subsystem kernel (gates, channels, Born tables, projection, partial
  trace) sees the register as a ``(2^k, rest)`` matrix whose row index runs
  over the subsystem's k qubits in listed order, via ``_qubits_first``; a
  density matrix's rows and columns are each such a register.
- Complex arithmetic is 64-bit floating point.  Norms, traces, and
  unitarity are enforced within ``NORM_TOL``; exact circuit identities are
  compared at ``EXACT_TOL``.
- Values are immutable after construction; operations return new values and
  are safe to share between threads.

A state is held one of two ways.  ``StateVector`` holds all 2^n amplitudes
and takes any gate.  ``BasisState`` holds only the basis indices a state
occupies and their amplitudes; its kernels (``permute``, ``basis_*``) apply
the basis permutations the protocol is made of.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .seeding import as_generator, draw_index

NORM_TOL = 1e-10
EXACT_TOL = 1e-12


def _frozen_array(values) -> np.ndarray:
    """A read-only complex copy of ``values``."""
    arr = np.array(values, dtype=np.complex128)
    arr.flags.writeable = False
    return arr


# The gates with a fixed matrix, by kind; the matrix size fixes the arity.
_FIXED_GATES = {
    "x": _frozen_array([[0, 1], [1, 0]]),
    "h": _frozen_array(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)),
    "cnot": _frozen_array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "swap": _frozen_array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def _count(name: str, value, minimum: int) -> int:
    """A count argument as an ``int``: an integer, numpy integers included
    but not a bool, of at least ``minimum``.  The message starts with ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name}: must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_norm(amps: np.ndarray) -> None:
    """Refuse a state, or a ``(..., n)`` stack of states, unless every squared
    norm is within ``NORM_TOL`` of 1; the message names the worst deviation."""
    deviation = float(np.abs(np.sum(np.abs(amps) ** 2, axis=-1) - 1.0).max())
    if not deviation <= NORM_TOL:
        raise ValueError(f"squared norm deviates from 1 by {deviation:.3e}")


def _is_unitary(matrix: np.ndarray) -> bool:
    d = matrix.shape[0]
    return matrix.shape == (d, d) and bool(
        np.max(np.abs(matrix.conj().T @ matrix - np.eye(d))) <= NORM_TOL
    )


@dataclass(frozen=True)
class RegisterLayout:
    """Named partition of a qubit register into ordered subsystems.

    The qubit indices of all subsystems together must cover
    ``0..total_qubits-1`` exactly once, and names must be unique.  The
    first-listed subsystem holds the most significant bits of every basis
    index.
    """

    subsystems: tuple
    total_qubits: int

    def __post_init__(self):
        object.__setattr__(self, "total_qubits", _count("total_qubits", self.total_qubits, 0))
        names = [name for name, _ in self.subsystems]
        if len(set(names)) != len(names):
            raise ValueError("subsystem names must be unique")
        covered = sorted(q for _, qubits in self.subsystems for q in qubits)
        if covered != list(range(self.total_qubits)):
            raise ValueError(
                "subsystem qubit indices must partition 0..total_qubits-1 "
                "with no overlap and no gaps"
            )

    @classmethod
    def from_sizes(cls, sizes) -> "RegisterLayout":
        """Assign consecutive qubit blocks, e.g. ``from_sizes([("C", 1), ("B", 2)])``."""
        subsystems = []
        next_qubit = 0
        for name, width in sizes:
            width = _count("sizes", width, 1)
            subsystems.append((str(name), tuple(range(next_qubit, next_qubit + width))))
            next_qubit += width
        return cls(subsystems=tuple(subsystems), total_qubits=next_qubit)

    @property
    def names(self):
        return tuple(name for name, _ in self.subsystems)

    def qubits(self, name: str):
        for sub_name, qubits in self.subsystems:
            if sub_name == name:
                return qubits
        raise KeyError(f"unknown subsystem {name!r}")

    def size(self, name: str) -> int:
        return len(self.qubits(name))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of a composite qubit register."""

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", _count("num_qubits", self.num_qubits, 1))
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected 2**{self.num_qubits}"
            )
        _check_norm(amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


@dataclass(frozen=True, eq=False)
class BasisState:
    """Normalized pure state held as the basis indices it occupies and their
    amplitudes: the vector with ``amplitudes[i]`` at ``indices[i]`` and zeros
    elsewhere.  Indices are distinct int64 values in ``0..2^n-1``, ordered
    as in ``StateVector``; an index may carry a zero amplitude."""

    indices: np.ndarray
    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        raw = np.asarray(self.indices)
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError("basis indices must be integers")
        indices = raw.astype(np.int64)
        indices.flags.writeable = False
        amps = _frozen_array(self.amplitudes)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", _count("num_qubits", self.num_qubits, 1))
        if indices.ndim != 1 or amps.shape != indices.shape:
            raise ValueError(
                f"{indices.shape} basis indices do not match {amps.shape} amplitudes"
            )
        if indices.size and not (indices.min() >= 0 and indices.max() < 2**self.num_qubits):
            raise ValueError(f"basis indices out of range for {self.num_qubits} qubits")
        if np.unique(indices).size != indices.size:
            raise ValueError("basis indices must be distinct")
        _check_norm(amps)


def _density_spectra(stack: np.ndarray) -> np.ndarray:
    """Check every matrix of a ``(..., d, d)`` stack as a density matrix:
    Hermitian and of unit trace within ``NORM_TOL``, and no eigenvalue below
    ``-NORM_TOL``.  Each check is written so that a NaN fails it; the trace
    message names the worst deviation.  Returns the ascending eigenvalues,
    ``(..., d)``."""
    if not float(np.abs(stack - stack.conj().swapaxes(-1, -2)).max()) <= NORM_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    trace_deviation = float(np.abs(stack.trace(axis1=-2, axis2=-1) - 1.0).max())
    if not trace_deviation <= NORM_TOL:
        raise ValueError(f"trace deviates from 1 by {trace_deviation:.3e}")
    spectra = np.linalg.eigvalsh(stack)
    if not float(spectra[..., 0].min()) >= -NORM_TOL:
        raise ValueError("matrix has an eigenvalue below -1e-10")
    return spectra


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on k qubits.

    ``spectrum`` holds the ascending eigenvalues that the positivity check
    computed, read-only; it is not a constructor argument.  The checks are
    those of :func:`_density_spectra`, so a NaN fails them.
    """

    entries: np.ndarray
    num_qubits: int
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _frozen_array(self.entries)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "num_qubits", _count("num_qubits", self.num_qubits, 1))
        dim = 2**self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape}, expected ({dim}, {dim})")
        spectrum = _density_spectra(mat)
        spectrum.flags.writeable = False
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A unitary to apply to specific qubits.

    ``kind`` is one of ``x``, ``h``, ``cnot``, ``swap``, ``u``
    (arbitrary unitary on all targets) or ``controlled-u`` (matrix acts on
    the trailing targets when every leading control qubit is 1).  For
    ``cnot`` the targets are (control, target).
    """

    kind: str
    targets: tuple
    matrix: "np.ndarray | None" = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(_count("targets", t, 0) for t in self.targets))
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("gate targets must be distinct")
        if self.kind in _FIXED_GATES:
            arity = _FIXED_GATES[self.kind].shape[0].bit_length() - 1
            if len(self.targets) != arity:
                raise ValueError(f"{self.kind} takes {arity} target(s)")
            if self.matrix is not None:
                raise ValueError(f"{self.kind} does not take an explicit matrix")
        elif self.kind in ("u", "controlled-u"):
            if self.matrix is None:
                raise ValueError(f"{self.kind} requires a matrix")
            mat = _frozen_array(self.matrix)
            object.__setattr__(self, "matrix", mat)
            if not _is_unitary(mat):
                raise ValueError("gate matrix is not unitary within tolerance")
            acted = int(np.log2(mat.shape[0]))
            if 2**acted != mat.shape[0]:
                raise ValueError("gate matrix dimension must be a power of two")
            if self.kind == "u" and acted != len(self.targets):
                raise ValueError("matrix dimension must match number of targets")
            if self.kind == "controlled-u" and not 0 < acted < len(self.targets):
                raise ValueError("controlled-u needs at least one control qubit")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    @classmethod
    def x(cls, qubit: int) -> "GateSpec":
        return cls("x", (qubit,))

    @classmethod
    def h(cls, qubit: int) -> "GateSpec":
        return cls("h", (qubit,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "GateSpec":
        return cls("cnot", (control, target))

    @classmethod
    def swap(cls, qubit_a: int, qubit_b: int) -> "GateSpec":
        return cls("swap", (qubit_a, qubit_b))

    @classmethod
    def unitary(cls, matrix, targets) -> "GateSpec":
        return cls("u", tuple(targets), matrix)

    @classmethod
    def controlled(cls, matrix, controls, targets) -> "GateSpec":
        return cls("controlled-u", tuple(controls) + tuple(targets), matrix)

    def resolved_matrix(self) -> np.ndarray:
        """Concrete 2^k x 2^k unitary over ``targets`` in listed order."""
        if self.kind in _FIXED_GATES:
            return _FIXED_GATES[self.kind]
        if self.kind == "u":
            return self.matrix
        # controlled-u: identity except the all-controls-1 block
        dim = 2 ** len(self.targets)
        acted = self.matrix.shape[0]
        full = np.eye(dim, dtype=np.complex128)
        full[dim - acted :, dim - acted :] = self.matrix
        return full


def _qubit_axes(num_qubits: int, qubits, trailing: int) -> list:
    """Axis order of a (2,) * n tensor with ``trailing`` extra axes that puts
    the listed qubits first, in listed order; every other axis keeps its order."""
    others = [q for q in range(num_qubits) if q not in qubits]
    return [*qubits, *others, *range(num_qubits, num_qubits + trailing)]


def _qubits_first(array: np.ndarray, num_qubits: int, qubits) -> np.ndarray:
    """View a (2^n,) or (2^n, d) array as a (2^k, rest) matrix whose row
    index runs over the listed qubits, in listed order."""
    tensor = array.reshape((2,) * num_qubits + array.shape[1:])
    tensor = tensor.transpose(_qubit_axes(num_qubits, qubits, array.ndim - 1))
    return tensor.reshape(2 ** len(qubits), -1)


def _qubits_back(block: np.ndarray, num_qubits: int, qubits, shape) -> np.ndarray:
    """Inverse of :func:`_qubits_first`: a contiguous array of ``shape``."""
    order = _qubit_axes(num_qubits, qubits, len(shape) - 1)
    inverse = sorted(range(len(order)), key=order.__getitem__)
    tensor = block.reshape((2,) * num_qubits + shape[1:]).transpose(inverse)
    return np.ascontiguousarray(tensor).reshape(shape)


def _apply_matrix(array: np.ndarray, num_qubits: int, targets, matrix: np.ndarray) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubits of a state vector, or of
    the rows of a density matrix."""
    block = matrix @ _qubits_first(array, num_qubits, targets)
    return _qubits_back(block, num_qubits, targets, array.shape)


def _check_targets(gate: GateSpec, num_qubits: int) -> None:
    if any(t >= num_qubits for t in gate.targets):
        raise ValueError(f"gate targets {gate.targets} out of range for {num_qubits} qubits")


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Apply a unitary gate, identity on all qubits outside its targets."""
    _check_targets(gate, state.num_qubits)
    new_amps = _apply_matrix(
        state.amplitudes, state.num_qubits, gate.targets, gate.resolved_matrix()
    )
    return StateVector(new_amps, state.num_qubits)


def basis_index(layout: RegisterLayout, values) -> int:
    """Basis index for per-subsystem values, e.g. ``{"C": 1, "B": 0}``.

    Values may be ints (the subsystem's own basis index) or bit strings.
    Unlisted subsystems default to 0.
    """
    index = 0
    for name, value in values.items():
        qubits = layout.qubits(name)
        if isinstance(value, str):
            if len(value) != len(qubits):
                raise ValueError(
                    f"label for {name!r} has length {len(value)}, expected {len(qubits)}"
                )
            value = int(value, 2)
        else:
            value = _count("values", value, 0)
        if not 0 <= value < 2 ** len(qubits):
            raise ValueError(f"value {value} out of range for subsystem {name!r}")
        for position, qubit in enumerate(qubits):
            bit = (value >> (len(qubits) - 1 - position)) & 1
            index |= bit << (layout.total_qubits - 1 - qubit)
    return index


def init_register(layout: RegisterLayout, basis_label) -> StateVector:
    """Computational basis state from a full bit string or per-subsystem values.

    ``init_register(layout, "010")`` reads one bit per qubit in layout order;
    ``init_register(layout, {"C": "1"})`` sets named subsystems and leaves the
    rest blank.
    """
    if isinstance(basis_label, str):
        if len(basis_label) != layout.total_qubits:
            raise ValueError(
                f"label length {len(basis_label)} does not match register "
                f"size {layout.total_qubits}"
            )
        if set(basis_label) - {"0", "1"}:
            raise ValueError("basis label must contain only 0s and 1s")
        index = int(basis_label, 2)
    else:
        index = basis_index(layout, basis_label)
    amps = np.zeros(2**layout.total_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, layout.total_qubits)


def _subsystem_qubits(state, layout: RegisterLayout, keep) -> list:
    """Qubits of the named subsystems, in listed order, after checking that
    the layout covers exactly the state's register."""
    if layout.total_qubits != state.num_qubits:
        raise ValueError(
            f"layout has {layout.total_qubits} qubits but the state has {state.num_qubits}"
        )
    if isinstance(keep, str):
        keep = [keep]
    qubits = [q for name in keep for q in layout.qubits(name)]
    if not qubits:
        raise ValueError("keep list must not be empty")
    return qubits


def _gram(block: np.ndarray) -> np.ndarray:
    """``block @ block^dagger``: the reduced state of a (2^k, rest) block."""
    return block @ block.conj().T


def _checked_table(probs: np.ndarray) -> np.ndarray:
    total_deviation = abs(float(probs.sum()) - 1.0)
    if total_deviation > NORM_TOL:
        raise AssertionError(f"probability table sums off unity by {total_deviation:.3e}")
    return probs


def _projected_qubits(state, layout: RegisterLayout, subsystem: str, value) -> tuple:
    """The subsystem's qubits and ``value`` as an ``int``, once it is known to
    be one of the subsystem's values."""
    qubits = _subsystem_qubits(state, layout, subsystem)
    value = _count("value", value, 0)
    if value >= 2 ** len(qubits):
        raise ValueError(f"value {value} out of range for subsystem {subsystem!r}")
    return qubits, value


def _squared_norm(amps: np.ndarray) -> float:
    """The summed squared magnitudes of a 1-D complex array, exactly rounded:
    the ``math.fsum`` of its squared real and imaginary parts.  It does not
    depend on the order of the terms, and zero terms add nothing."""
    parts = np.concatenate((amps.real, amps.imag))
    return math.fsum((parts[parts != 0.0] ** 2).tolist())


def _projection_weight(amps: np.ndarray, subsystem: str, value: int) -> float:
    """The squared norm of the amplitudes a projection keeps, refused when ~0."""
    weight = _squared_norm(amps)
    if weight <= NORM_TOL:
        raise ValueError(
            f"projection of {subsystem!r} onto value {value} has probability ~0"
        )
    return weight


def partial_trace(state, layout: RegisterLayout, keep) -> DensityMatrix:
    """Reduced density matrix over the kept subsystems, in keep-list order.

    Accepts a StateVector or DensityMatrix over the full layout.
    """
    keep_qubits = _subsystem_qubits(state, layout, keep)
    n = layout.total_qubits
    if isinstance(state, StateVector):
        reduced = _gram(_qubits_first(state.amplitudes, n, keep_qubits))
    else:
        # Kept qubits first on the rows, then on the columns: the entries
        # become [b, j, a, i] for rho[(a, i), (b, j)], summed over i == j.
        rows = _qubits_first(state.entries, n, keep_qubits)
        d, rest = rows.shape[0], 2**n // rows.shape[0]
        both = _qubits_first(rows.reshape(d * rest, -1).T, n, keep_qubits)
        reduced = np.einsum("biai->ab", both.reshape(d, rest, d, rest))
    return DensityMatrix(reduced, len(keep_qubits))


def born_probabilities(state: StateVector, layout: RegisterLayout, subsystem: str) -> np.ndarray:
    """Measurement probability table over a subsystem's computational basis."""
    qubits = _subsystem_qubits(state, layout, subsystem)
    block = _qubits_first(state.amplitudes, state.num_qubits, qubits)
    return _checked_table(np.sum(np.abs(block) ** 2, axis=1))


def project_onto(state: StateVector, layout: RegisterLayout, subsystem: str, value: int) -> StateVector:
    """Project onto ``subsystem == value`` and renormalize."""
    qubits, value = _projected_qubits(state, layout, subsystem, value)
    n = state.num_qubits
    # A view of the read-only amplitudes when the qubits already lead.
    block = _qubits_first(state.amplitudes, n, qubits)
    weight = _projection_weight(block[value], subsystem, value)
    projected = np.zeros_like(block)
    projected[value] = block[value] / np.sqrt(weight)
    return StateVector(_qubits_back(projected, n, qubits, state.amplitudes.shape), n)


def sample_outcome(state: StateVector, layout: RegisterLayout, subsystem: str, rng):
    """Born-rule draw on a subsystem; returns (outcome, renormalized post-state).

    ``rng`` is an integer seed or a Generator; identical seed and state give
    an identical outcome.
    """
    probs = born_probabilities(state, layout, subsystem)
    outcome = draw_index(as_generator(rng), probs)
    return outcome, project_onto(state, layout, subsystem, outcome)


def _filter_norm(vector: np.ndarray) -> float:
    """The norm that renormalizes a filtered state, refused when ~0."""
    norm = math.sqrt(_squared_norm(vector))
    if norm <= NORM_TOL:
        raise ValueError(
            "degenerate filter: weight 0 with no support on the target's 0 branch"
        )
    return norm


def _check_filter_weight(name: str, weight, born=None) -> None:
    """The nonlinear filter's rule: a weight >= 0 with a finite square, so the
    filtered norm and probabilities stay finite.  Given the two branches' Born
    weights ``(p0, p1)``, the filtered norm ``sqrt(p0 + weight^2 p1)`` must
    also exceed ``NORM_TOL``, as :func:`_filter_norm` demands.  Messages
    start with ``name``."""
    square = float(weight) * float(weight) if weight >= 0 else math.nan
    if not math.isfinite(square):
        raise ValueError(f"{name}: must be >= 0 with a finite square")
    if born is not None and math.sqrt(born[0] + square * born[1]) <= NORM_TOL:
        raise ValueError(f"{name}: the filter annihilates both branches")


# Kernels on a BasisState.  A weight or norm is ``_squared_norm`` of the
# stored amplitudes, as the dense kernels take it of all 2^n: exactly rounded
# sums ignore zeros and order, so both give the same bits.  A Born table is a
# ``bincount``: each bin of a table whose values reach a report holds at most
# one nonzero term.  (The tables read only against a tolerance, such as
# blank-register checks, may sum several terms in another order.)


def _bit_values(indices: np.ndarray, num_qubits: int, qubits) -> np.ndarray:
    """Each index's value on the listed qubits, read in listed order, the
    first listed qubit as the most significant bit."""
    values = np.zeros_like(indices)
    for qubit in qubits:
        values = (values << 1) | ((indices >> (num_qubits - 1 - qubit)) & 1)
    return values


def _permutation_pairs(gates, num_qubits: int) -> tuple:
    """Step one of a relabelling: each gate as a ``(control mask, flip bit)``
    pair over ``num_qubits``-bit indices.  X, CNOT and multi-controlled X are
    the only gates taken; any other gate, or a target out of range, raises
    ``ValueError``."""
    pairs = []
    for gate in gates:
        is_x = gate.kind in ("x", "cnot") or (
            gate.kind == "controlled-u" and np.array_equal(gate.matrix, _FIXED_GATES["x"])
        )
        if not is_x:
            raise ValueError(
                f"permute applies x, cnot and controlled-X gates only, not {gate.kind!r}"
            )
        _check_targets(gate, num_qubits)
        *controls, target = gate.targets
        mask = sum(1 << (num_qubits - 1 - q) for q in controls)
        pairs.append((mask, 1 << (num_qubits - 1 - target)))
    return tuple(pairs)


# The protocol applies the same few stage gate tuples over and over: four per
# register shape, for up to 64 shapes.  A gate hashes and compares by
# identity, so a hit is the very same gates.
_cached_permutation_pairs = functools.lru_cache(maxsize=256)(_permutation_pairs)


def _relabel(state: BasisState, pairs) -> BasisState:
    """Step two of a relabelling: for each ``(mask, flip)`` pair in turn,
    every index whose mask bits are all 1 flips its ``flip`` bit.  Each pair
    is a bijection on ``0..2^n-1`` and the amplitudes stay the input's, so
    the indices stay distinct and in range and the norm stays within
    tolerance: the result is built without re-checking them."""
    indices = state.indices
    for mask, flip in pairs:
        if mask:
            indices = np.where((indices & mask) == mask, indices ^ flip, indices)
        else:
            indices = indices ^ flip
    indices.flags.writeable = False
    relabelled = object.__new__(BasisState)
    object.__setattr__(relabelled, "indices", indices)
    object.__setattr__(relabelled, "amplitudes", state.amplitudes)
    object.__setattr__(relabelled, "num_qubits", state.num_qubits)
    return relabelled


def permute(state: BasisState, gates) -> BasisState:
    """Apply X, CNOT and multi-controlled-X gates as a relabelling of basis
    indices: where every control bit is 1, the target bit flips.  The
    amplitudes are untouched.  Any other gate, or a target out of range,
    raises ``ValueError``."""
    return _relabel(state, _permutation_pairs(gates, state.num_qubits))


def basis_born_probabilities(state: BasisState, layout: RegisterLayout, subsystem: str) -> np.ndarray:
    """:func:`born_probabilities` of a basis state, as a weighted ``bincount``."""
    qubits = _subsystem_qubits(state, layout, subsystem)
    values = _bit_values(state.indices, state.num_qubits, qubits)
    weights = np.abs(state.amplitudes) ** 2
    return _checked_table(np.bincount(values, weights=weights, minlength=2 ** len(qubits)))


def basis_project_onto(state: BasisState, layout: RegisterLayout, subsystem: str, value: int) -> BasisState:
    """:func:`project_onto` of a basis state."""
    qubits, value = _projected_qubits(state, layout, subsystem, value)
    selected = _bit_values(state.indices, state.num_qubits, qubits) == value
    indices, amps = state.indices[selected], state.amplitudes[selected]
    weight = _projection_weight(amps, subsystem, value)
    return BasisState(indices, amps / np.sqrt(weight), state.num_qubits)


def basis_filter(state: BasisState, qubit: int, weight: float) -> BasisState:
    """The nonlinear filter ``diag(1, weight)`` on one qubit of a basis state,
    then global renormalization; weight 1 returns the state itself."""
    if weight == 1.0:
        return state
    n = state.num_qubits
    set_bit = ((state.indices >> (n - 1 - qubit)) & 1) == 1
    filtered = state.amplitudes * np.where(set_bit, weight, 1.0)
    return BasisState(state.indices, filtered / _filter_norm(filtered), n)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/2^k for the maximally mixed state."""
    return float(np.real(np.trace(rho.entries @ rho.entries)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits; eigenvalues in [-1e-10, 0) are clipped to 0."""
    eigenvalues = np.where(rho.spectrum < 0.0, 0.0, rho.spectrum)
    positive = eigenvalues[eigenvalues > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the trace norm of the difference, in [0, 1]."""
    if rho1.num_qubits != rho2.num_qubits:
        raise ValueError("trace_distance requires equal dimensions")
    eigenvalues = np.linalg.eigvalsh(rho1.entries - rho2.entries)
    # Orthogonal states round to up to ~2e-14 above 1.
    return min(1.0, float(0.5 * np.sum(np.abs(eigenvalues))))
