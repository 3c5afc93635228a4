"""Branch-navigation storyline on a composite register.

The register models a measured system C (the cat), an observer memory B
(the brain, or "reality register"), redundant environment records E1..Em,
a clinic ancilla that receives the moved memory record (Af/A), and a
participation flag F.  A trial runs:

    prepare cat -> observe (record write into B and E1) -> spread copies
    -> sample the observer's initial branch -> (conditional) memory erase
    -> optional nonlinear filter -> reobserve -> diagnostics

Two points are easy to get wrong and are deliberate here:

- Sampling the initial branch does NOT collapse the working state.  The
  global superposition persists; the draw only tells us which branch the
  observer we follow experiences.  All erase-stage diagnostics (brain
  entropy, purity) are properties of the uncollapsed global state.
- ``reobserve`` follows the observer whose memory was actually reset: it
  conditions on the blank-memory component before re-coupling.  Branches
  where a record survived belong to observer instances that kept their
  memory; they are unreachable for the erased observer, which is exactly
  what restricts transitions to the participating family.

Record encodings: ``PLAIN`` writes the branch index itself into B (blank
and the first record coincide, a documented degeneracy); ``TAGGED``
prefixes a written-flag qubit so blank, alive records, and dead records
are mutually orthogonal.

Every unitary step (observe, spread, erase, conditional erase, record
rewrite) is one gate tuple of X, CNOT and multi-controlled X, built once per
register shape by its ``_*_stage`` function.  A stage depends on the layout,
the encoding, the observation variant, the participation and the branch
counts, never on the weights or the seed, so scenarios of one shape share
their layout and stages.  These gates only relabel basis states, so the
register holds one amplitude per branch however many qubits it has.  The
public stage functions apply the gates to a dense ``StateVector``;
``TrialEngine`` applies the same gates to a ``BasisState``.
"""

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .seeding import (
    _seed,
    as_generator,
    clamped_cdf,
    derive_seed,
    derive_seeds,
    draw_index,
    first_two_uniforms,
    generators,
)
from .statevec import (
    _FIXED_GATES,
    NORM_TOL,
    BasisState,
    DensityMatrix,
    GateSpec,
    RegisterLayout,
    StateVector,
    _bit_values,
    _check_filter_weight,
    _count,
    _cached_permutation_pairs,
    _frozen_array,
    _relabel,
    _squared_norm,
    apply_gate,
    basis_born_probabilities,
    basis_filter,
    basis_index,
    basis_project_onto,
    born_probabilities,
    project_onto,
    purity,
    sample_outcome,
    trace_distance,
    von_neumann_entropy,
)

MAX_QUBITS = 22
MAX_RECORD_QUBITS = 12  # the decoupling diagnostic's dense 2^n x 2^n Ginibre draw
# Recovery counts as feasible when the inaccessible remainder is closer to
# branch-independent than branch-revealing; the midpoint criterion puts the
# feasibility transition at the half-access point for Haar-scrambled records.
DECOUPLING_FEASIBLE_THRESHOLD = 0.5
RECORD_TOL = 1e-9  # the engine's record checks: brain mass off the records, pinned reads
# Layouts and stages are cached per register shape.  One process meets few
# shapes (a sweep over every env_qubits value the budget allows meets 18),
# so each cache keeps at most this many.
_SHAPES_KEPT = 64


class RecordEncoding(Enum):
    PLAIN = "plain"
    TAGGED = "tagged"


class Participation(Enum):
    ALL = "all"
    DEAD_ONLY = "dead_only"
    ALIVE_ONLY = "alive_only"


@dataclass(frozen=True, eq=False)
class BranchStructure:
    """Families of alive and dead branches with complex amplitude weights.

    Branch indices run alive-first: ``0..num_alive-1`` are alive,
    ``num_alive..num_alive+num_dead-1`` are dead.  ``weights=None`` means
    equal weights.  Two structures are equal when their counts and weights
    are; ``hash`` agrees, so a ``Scenario`` holding one hashes by value.
    """

    num_alive: int
    num_dead: int
    weights: "np.ndarray | None"

    def __post_init__(self):
        # Counts first: the equal weights and the cat width derive from them.
        for key in ("num_alive", "num_dead"):
            object.__setattr__(self, key, _count(key, getattr(self, key), 1))
        if self.cat_width > MAX_QUBITS:
            key = "num_alive" if self.num_alive >= self.num_dead else "num_dead"
            raise ValueError(
                f"{key}: {self.num_branches} branches need a {self.cat_width}-qubit "
                f"cat register, exceeding the {MAX_QUBITS}-qubit budget"
            )
        n = self.num_branches
        weights = np.full(n, 1.0 / math.sqrt(n)) if self.weights is None else self.weights
        weights = _frozen_array(weights)
        object.__setattr__(self, "weights", weights)
        if weights.shape != (n,):
            raise ValueError(f"weights: expected {n} weights, got shape {weights.shape}")
        with np.errstate(over="ignore"):
            deviation = abs(float(np.sum(np.abs(weights) ** 2)) - 1.0)
        if not deviation <= NORM_TOL:
            raise ValueError(f"weights: squared amplitudes sum off unity by {deviation:.3e}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BranchStructure):
            return NotImplemented
        return (
            (self.num_alive, self.num_dead) == (other.num_alive, other.num_dead)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        # Python complex values hash equal when they compare equal (0.0 and -0.0 too).
        return hash((self.num_alive, self.num_dead, *self.weights.tolist()))

    @classmethod
    def equal(cls, num_alive: int = 1, num_dead: int = 1) -> "BranchStructure":
        return cls(num_alive, num_dead, None)

    @classmethod
    def two_branch(cls, alive_amplitude, dead_amplitude) -> "BranchStructure":
        return cls(1, 1, np.array([alive_amplitude, dead_amplitude]))

    @property
    def num_branches(self) -> int:
        return self.num_alive + self.num_dead

    @property
    def cat_width(self) -> int:
        return max(1, (self.num_branches - 1).bit_length())

    def is_alive(self, branch: int) -> bool:
        return branch < self.num_alive

    def label(self, branch: int) -> str:
        if self.num_branches == 2:
            return "alive" if branch == 0 else "dead"
        if self.is_alive(branch):
            return f"alive_{branch}"
        return f"dead_{branch - self.num_alive}"

    def branches_in(self, participation: Participation):
        return _branches_in(self.num_alive, self.num_dead, participation)


def _branches_in(num_alive: int, num_dead: int, participation: Participation) -> tuple:
    """The participating branches, alive-first indices as in ``BranchStructure``."""
    if participation is Participation.ALL:
        return tuple(range(num_alive + num_dead))
    if participation is Participation.DEAD_ONLY:
        return tuple(range(num_alive, num_alive + num_dead))
    return tuple(range(num_alive))


@dataclass(frozen=True)
class Scenario:
    """Complete trial configuration.  With ``BranchStructure`` it holds every
    scenario rule; each message starts with the field it rejects."""

    branch_structure: BranchStructure = field(default_factory=BranchStructure.equal)
    env_qubits: int = 1
    encoding: RecordEncoding = RecordEncoding.PLAIN
    observe_variant: str = "a"
    participation: Participation = Participation.ALL
    nonlinear_lambda: "float | None" = None
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rng_seed", _seed("rng_seed", self.rng_seed))
        object.__setattr__(self, "env_qubits", _count("env_qubits", self.env_qubits, 1))
        # Each copy takes at least one qubit: refuse before laying them out.
        if self.env_qubits > MAX_QUBITS:
            raise ValueError(f"env_qubits: {self.env_qubits} copies exceed the {MAX_QUBITS}-qubit budget")
        if self.observe_variant not in ("a", "b", "c"):
            raise ValueError("observe_variant: must be one of a, b, c")
        if self.nonlinear_lambda is not None:
            if self.branch_structure.num_branches != 2:
                raise ValueError(
                    "nonlinear_lambda: the filter targets a single record qubit and "
                    "supports two-branch scenarios only"
                )
            born = np.abs(self.branch_structure.weights) ** 2
            _check_filter_weight("nonlinear_lambda", self.nonlinear_lambda, born)
        total = scenario_layout(self).total_qubits
        if total > MAX_QUBITS:
            raise ValueError(
                f"env_qubits: scenario needs {total} qubits, exceeding the "
                f"{MAX_QUBITS}-qubit budget (reduce env_qubits or the branch count)"
            )


def canonical_scenario(**overrides) -> Scenario:
    """Symmetric two-branch scenario: one environment copy, plain records,
    full participation, no filter.  These are ``Scenario``'s defaults."""
    return Scenario(**overrides)


def scenario_layout(scenario: Scenario) -> RegisterLayout:
    """Register layout: C, B, E1..Em, (Af,) A, F.

    B is the brain (tagged: written-flag qubit first, then the value
    qubits), Af/A the clinic ancilla mirroring B's qubits, and F the
    one-qubit participation flag.  Scenarios of one shape share one layout.
    """
    tagged = scenario.encoding is RecordEncoding.TAGGED
    return _shape_layout(scenario.branch_structure.cat_width, tagged, scenario.env_qubits)


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _shape_layout(width: int, tagged: bool, env_qubits: int) -> RegisterLayout:
    sizes = [("C", width), ("B", width + 1 if tagged else width)]
    for copy_index in range(1, env_qubits + 1):
        sizes.append((f"E{copy_index}", width))
    if tagged:
        sizes.append(("Af", 1))
    sizes.append(("A", width))
    sizes.append(("F", 1))
    return RegisterLayout.from_sizes(sizes)


def record_value(encoding: RecordEncoding, cat_width: int, branch: int) -> int:
    """Integer content of the brain register holding branch's record; blank is 0."""
    if encoding is RecordEncoding.TAGGED:
        return (1 << cat_width) | branch
    return branch


def _brain_value_qubits(layout: RegisterLayout, encoding: RecordEncoding):
    qubits = layout.qubits("B")
    return qubits[1:] if encoding is RecordEncoding.TAGGED else qubits


def _ancilla_names(encoding: RecordEncoding) -> list:
    """The clinic ancilla's registers: the written flag Af (tagged only), then A."""
    return ["Af", "A"] if encoding is RecordEncoding.TAGGED else ["A"]


def _ancilla_record_qubits(layout: RegisterLayout, encoding: RecordEncoding):
    return tuple(q for name in _ancilla_names(encoding) for q in layout.qubits(name))


class _Stage(NamedTuple):
    """One unitary step of the protocol: its name in errors, the registers
    that must be blank before it, and its gates, a tuple, so a cached stage
    cannot change.  The dense stage functions and ``TrialEngine`` apply the
    same stages."""

    name: str
    blank: tuple
    gates: tuple


def _apply_stage(state, layout: RegisterLayout, stage: _Stage):
    """Refuse the stage unless each register it needs blank reads 0 with
    probability 1, within ``NORM_TOL``; then apply its gates: gate by gate
    to a ``StateVector``, as one relabelling to a ``BasisState``.  The
    relabelling's ``(mask, flip)`` pairs are compiled from ``stage.gates``
    once per gate tuple and register size."""
    dense = isinstance(state, StateVector)
    born = born_probabilities if dense else basis_born_probabilities
    for name in stage.blank:
        if abs(born(state, layout, name)[0] - 1.0) > NORM_TOL:
            raise ValueError(f"{stage.name}: register {name!r} is not blank")
    if not dense:
        return _relabel(state, _cached_permutation_pairs(stage.gates, state.num_qubits))
    for gate in stage.gates:
        state = apply_gate(state, gate)
    return state


def _pairwise_cnots(source_qubits, target_qubits):
    return [GateSpec.cnot(s, t) for s, t in zip(source_qubits, target_qubits)]


def _record_write_gates(layout: RegisterLayout, encoding: RecordEncoding, source: str):
    """Gates coupling a branch-carrying register into the brain."""
    gates = []
    if encoding is RecordEncoding.TAGGED:
        gates.append(GateSpec.x(layout.qubits("B")[0]))
    gates.extend(
        _pairwise_cnots(layout.qubits(source), _brain_value_qubits(layout, encoding))
    )
    return gates


def _cat_indices(branch_structure: BranchStructure, layout: RegisterLayout) -> list:
    """Basis index of each branch's cat value, everything else blank."""
    if layout.size("C") != branch_structure.cat_width:
        raise ValueError("layout cat register does not match the branch structure")
    return [basis_index(layout, {"C": b}) for b in range(branch_structure.num_branches)]


def prepare_cat(branch_structure: BranchStructure, layout: "RegisterLayout | None" = None) -> StateVector:
    """Cat register in the weighted branch superposition.

    Without a layout, returns the bare cat register; with one, returns the
    full register with everything else blank.
    """
    if layout is None:
        layout = RegisterLayout.from_sizes([("C", branch_structure.cat_width)])
    amps = np.zeros(2**layout.total_qubits, dtype=np.complex128)
    amps[_cat_indices(branch_structure, layout)] = branch_structure.weights
    return StateVector(amps, layout.total_qubits)


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _observe_stage(layout: RegisterLayout, variant: str, encoding: RecordEncoding) -> _Stage:
    cat = layout.qubits("C")
    env = layout.qubits("E1")
    if variant == "a":
        gates = _record_write_gates(layout, encoding, "C") + _pairwise_cnots(cat, env)
    elif variant == "b":
        gates = _record_write_gates(layout, encoding, "C") + _pairwise_cnots(
            _brain_value_qubits(layout, encoding), env
        )
    elif variant == "c":
        gates = _pairwise_cnots(cat, env) + _record_write_gates(layout, encoding, "E1")
    else:
        raise ValueError("variant must be one of a, b, c")
    return _Stage("observe", ("B", "E1"), tuple(gates))


def observe(state: StateVector, layout: RegisterLayout, variant: str, encoding: RecordEncoding) -> StateVector:
    """Measurement as record distribution: write the branch into B and E1.

    The three variants couple the registers in different orders — (a) the
    cat writes both records, (b) the brain informs the environment, (c) the
    environment informs the brain — and produce identical states on blank
    registers.
    """
    return _apply_stage(state, layout, _observe_stage(layout, variant, encoding))


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _spread_stage(layout: RegisterLayout, copies: int) -> _Stage:
    if copies < 0:
        raise ValueError("copies must be >= 0")
    available = sum(1 for name in layout.names if name.startswith("E")) - 1
    if copies > available:
        raise ValueError(
            f"requested {copies} extra record copies but only {available} "
            "environment slots remain"
        )
    gates = []
    for copy_index in range(2, copies + 2):
        gates.extend(_pairwise_cnots(layout.qubits("C"), layout.qubits(f"E{copy_index}")))
    return _Stage("spread_to_environment", (), tuple(gates))


def spread_to_environment(state: StateVector, layout: RegisterLayout, copies: int) -> StateVector:
    """Fan the branch record out into additional environment slots E2, E3, ..."""
    return _apply_stage(state, layout, _spread_stage(layout, copies))


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _clinic_stage(layout: RegisterLayout, encoding: RecordEncoding) -> _Stage:
    brain = layout.qubits("B")
    ancilla = _ancilla_record_qubits(layout, encoding)
    gates = _pairwise_cnots(brain, ancilla) + _pairwise_cnots(ancilla, brain)
    return _Stage("clinic_erase", tuple(_ancilla_names(encoding)), tuple(gates))


def clinic_erase(state: StateVector, layout: RegisterLayout, encoding: RecordEncoding) -> StateVector:
    """Move the memory record from B into the blank ancilla with two CNOT
    layers: copy B into the ancilla, then reset B conditioned on the copy.

    Afterwards B is exactly blank and disentangled; the ancilla carries the
    record, still correlated with cat and environment.
    """
    return _apply_stage(state, layout, _clinic_stage(layout, encoding))


def _participation_flag_gates(layout: RegisterLayout, encoding: RecordEncoding,
                              num_alive: int, num_dead: int, participation: Participation):
    """Raise F exactly on branches whose brain record participates."""
    flag = layout.qubits("F")[0]
    if participation is Participation.ALL:
        return [GateSpec.x(flag)]
    value_qubits = _brain_value_qubits(layout, encoding)
    gates = []
    for branch in _branches_in(num_alive, num_dead, participation):
        pattern = [(branch >> (len(value_qubits) - 1 - i)) & 1 for i in range(len(value_qubits))]
        pre = [GateSpec.x(q) for q, bit in zip(value_qubits, pattern) if bit == 0]
        gates.extend(pre)
        gates.append(GateSpec.controlled(_FIXED_GATES["x"], value_qubits, (flag,)))
        gates.extend(pre)
    return gates


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _conditional_clinic_stage(layout: RegisterLayout, num_alive: int, num_dead: int,
                              participation: Participation, encoding: RecordEncoding) -> _Stage:
    """The conditional erase for ``num_alive`` alive and ``num_dead`` dead
    branches: the counts are all of the branch structure it depends on."""
    gates = _participation_flag_gates(layout, encoding, num_alive, num_dead, participation)
    flag = layout.qubits("F")[0]
    brain = layout.qubits("B")
    ancilla = _ancilla_record_qubits(layout, encoding)
    x = _FIXED_GATES["x"]
    gates += [GateSpec.controlled(x, (flag, b), (a,)) for b, a in zip(brain, ancilla)]
    gates += [GateSpec.controlled(x, (flag, a), (b,)) for b, a in zip(brain, ancilla)]
    return _Stage("conditional_clinic", (*_ancilla_names(encoding), "F"), tuple(gates))


def conditional_clinic(state: StateVector, layout: RegisterLayout,
                       branch_structure: BranchStructure, participation: Participation,
                       encoding: RecordEncoding) -> StateVector:
    """Erase applied only in participating branches.

    The brain record raises the ancilla's on/off flag F; both CNOT layers of
    the erase then run controlled on F.  With partial participation the flag
    correlates with the branch family and the brain stays entangled with cat
    and environment in the skipped branches.
    """
    stage = _conditional_clinic_stage(layout, branch_structure.num_alive,
                                      branch_structure.num_dead, participation, encoding)
    return _apply_stage(state, layout, stage)


def _recorded_state(scenario: Scenario, layout: RegisterLayout, cat):
    """The prepared ``cat`` (a ``StateVector`` or ``BasisState``) observed
    into B and E1, then spread into every further environment copy: the
    state every erase starts from."""
    state = _apply_stage(cat, layout, _observe_stage(layout, scenario.observe_variant, scenario.encoding))
    return _apply_stage(state, layout, _spread_stage(layout, scenario.env_qubits - 1))


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _rewrite_stage(layout: RegisterLayout, encoding: RecordEncoding) -> _Stage:
    return _Stage("rewrite_record", (), tuple(_record_write_gates(layout, encoding, "C")))


def rewrite_record(state: StateVector, layout: RegisterLayout, encoding: RecordEncoding) -> StateVector:
    """The re-coupling step of reobservation alone: a fresh record write from
    the cat into the brain, with no sampling."""
    return _apply_stage(state, layout, _rewrite_stage(layout, encoding))


def _recouple_patient(state, layout: RegisterLayout, encoding: RecordEncoding):
    """The patient path: condition on the blank-memory observer, then write
    a fresh record of the cat."""
    project = project_onto if isinstance(state, StateVector) else basis_project_onto
    return _apply_stage(project(state, layout, "B", 0), layout, _rewrite_stage(layout, encoding))


def reobserve(state: StateVector, layout: RegisterLayout, encoding: RecordEncoding, rng):
    """Fresh record write followed by a Born draw of the brain register.

    Follows the observer whose memory was reset: the state is first
    conditioned on the blank-memory component (raising an error when none
    exists, i.e. erasure never happened), then re-coupled to the cat, then
    sampled.  Returns ``(branch, post_state)``.
    """
    blank_mass = float(born_probabilities(state, layout, "B")[0])
    if blank_mass <= NORM_TOL:
        raise ValueError("reobserve: brain register is not blank (erasure incomplete)")
    recoupled = _recouple_patient(state, layout, encoding)
    outcome, post = sample_outcome(recoupled, layout, "B", rng)
    # Tagged records carry the written flag above the branch bits.
    return outcome & ((1 << layout.size("C")) - 1), post


@dataclass(frozen=True)
class TrialReport:
    """Per-trial record of one steering attempt.

    ``memory_consistent`` asks whether the followed observer's final record
    and the branch of the post-measurement global state agree — for an
    erased observer, conditioning the re-coupled state on the sampled
    record must pin the cat to the matching branch; for an observer who
    kept their memory, conditioning on their branch must find the record
    intact.
    """

    pre_outcome: str
    post_outcome: str
    pre_branch: int
    post_branch: int
    erased: bool
    brain_purity_after_erase: float
    brain_entropy_after_erase: float
    cat_marginal_before: tuple
    cat_marginal_after: tuple
    memory_consistent: bool


class TrialEngine:
    """Precomputed trial pipeline for one scenario.

    The unitary stages and all state-level diagnostics are seed-independent,
    so they are evaluated once, and the engine keeps only their per-branch
    tables, never a state.  The pipeline runs on a ``BasisState``: one
    amplitude per branch, each stage applied as one relabelling.
    ``run(seed)`` draws the observer's pre- and post-branch from those
    tables.  ``run_batch`` draws a range of an ensemble's trials as columns,
    each equal to what ``run`` gives for that trial's seed; ``run(seed)``
    stays the scalar reference.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.layout = layout = scenario_layout(scenario)
        self.structure = structure = scenario.branch_structure
        encoding = scenario.encoding
        branches = range(structure.num_branches)
        records = [record_value(encoding, structure.cat_width, b) for b in branches]

        cat = BasisState(_cat_indices(structure, layout), structure.weights, layout.total_qubits)
        state = _recorded_state(scenario, layout, cat)
        self.pre_probs, self.cat_before = self._marginals(self._joint(state), records)

        participating = structure.branches_in(scenario.participation)
        if scenario.participation is Participation.ALL:
            erase = _clinic_stage(layout, encoding)
        else:
            erase = _conditional_clinic_stage(layout, structure.num_alive, structure.num_dead,
                                              scenario.participation, encoding)
        state = _apply_stage(state, layout, erase)
        brain = self._brain(state)
        self.brain_purity = purity(brain)
        self.brain_entropy = von_neumann_entropy(brain)

        if scenario.nonlinear_lambda is not None:
            (target,) = layout.qubits("A")  # two branches: a one-qubit ancilla
            state = basis_filter(state, target, scenario.nonlinear_lambda)

        # Memory checks per branch b, off a joint (C, B) table: 1 if cell
        # (b, records[b]) holds all but RECORD_TOL of its total, else 0.  -1
        # marks a check never evaluated, where run() raises a KeyError and
        # run_batch a RuntimeError.  A kept record holds its cat row's mass.
        def pinned(evaluated, joint, totals):
            cells = joint[branches, records] >= (1.0 - RECORD_TOL) * totals
            return np.where(evaluated, cells, -1).astype(np.int8)

        self._participates = np.array([b in participating for b in branches])
        joint = self._joint(state)
        self._ok_stay = pinned(~self._participates & (self.pre_probs > NORM_TOL), joint, joint.sum(axis=1))

        # Patient path: condition on the blank-memory observer, re-couple,
        # and tabulate the reachable branches.  Skipped when no branch was
        # erased with any weight (the draw can then never need it).  A fresh
        # record holds its record column's mass.
        self.post_probs = self.cat_after_patient = None
        self._ok_patient = np.full(structure.num_branches, -1, dtype=np.int8)
        if self.pre_probs[self._participates].sum() > NORM_TOL:
            joint = self._joint(_recouple_patient(state, layout, encoding))
            self.post_probs, self.cat_after_patient = self._marginals(joint, records)
            self._ok_patient = pinned(self.post_probs > NORM_TOL, joint, self.post_probs)

        self.labels = tuple(structure.label(b) for b in branches)
        self.cat_after_stay = tuple(
            tuple(1.0 if b == pre else 0.0 for b in branches) for pre in branches
        )
        self._pre_cdf = clamped_cdf(self.pre_probs)
        self._post_cdf = None if self.post_probs is None else clamped_cdf(self.post_probs)

    def _joint(self, state: BasisState) -> np.ndarray:
        """The (C, B) Born table, row b holding cat value b, cut to the branches."""
        table = basis_born_probabilities(state, self.layout, ["C", "B"])
        return table.reshape(-1, 2 ** self.layout.size("B"))[: self.structure.num_branches]

    def _brain(self, state: BasisState) -> DensityMatrix:
        """The brain's reduced state.  No stage targets C and each branch
        starts at its own cat value, so every stored amplitude is alone in its
        column of the (B, rest) block: the state is diagonal, entry v the
        squared norm of the amplitudes whose B value is v."""
        n, layout = state.num_qubits, self.layout
        if np.unique(_bit_values(state.indices, n, layout.qubits("C"))).size != state.indices.size:
            raise AssertionError("two stored amplitudes share a cat value")
        values = _bit_values(state.indices, n, layout.qubits("B"))
        width = layout.size("B")
        diagonal = [_squared_norm(state.amplitudes[values == v]) for v in range(2**width)]
        return DensityMatrix(np.diag(diagonal), width)

    def _marginals(self, joint: np.ndarray, records) -> tuple:
        """Per branch, the brain's record probability (array) and the cat's
        marginal (tuple): sums of one nonzero cell, so exact."""
        probs = joint[:, records].sum(axis=0)
        residual = abs(float(probs.sum()) - 1.0)
        if residual > RECORD_TOL:
            raise AssertionError(f"brain register holds non-record content (residual {residual:.3e})")
        return probs, tuple(float(p) for p in joint.sum(axis=1))

    def run(self, seed: int) -> TrialReport:
        rng = as_generator(seed)
        pre = draw_index(rng, self.pre_probs)
        erased = bool(self._participates[pre])
        post = draw_index(rng, self.post_probs) if erased else pre
        consistent = (self._ok_patient if erased else self._ok_stay)[post]
        if consistent < 0:
            raise KeyError(post)
        return self._report(pre, post, erased, bool(consistent))

    def _report(self, pre: int, post: int, erased: bool, consistent: bool) -> TrialReport:
        """The report of a trial with these draws."""
        return TrialReport(
            self.labels[pre], self.labels[post], pre, post, erased,
            self.brain_purity, self.brain_entropy, self.cat_before,
            self.cat_after_patient if erased else self.cat_after_stay[pre],
            consistent,
        )

    def run_batch(self, base_seed: int, first: int, count: int) -> "TrialBatch":
        """Trials ``first..first+count-1`` of the ensemble seeded by
        ``base_seed``.  Trial ``i`` draws the same uniforms as
        ``run(derive_seed(base_seed, i))``, from the same cdfs, so its
        columns equal that report field by field.  Where ``run`` would
        raise, this raises ``RuntimeError("trial i failed: ...")`` for the
        first such trial."""
        first, count = _count("first", first, 0), _count("count", count, 1)
        u_pre, u_post = first_two_uniforms(derive_seeds(base_seed, first, count))
        pre = np.searchsorted(self._pre_cdf, u_pre, side="right")
        erased = self._participates[pre]
        post, patient_ok = pre, -1
        if self._post_cdf is not None:
            post = np.where(erased, np.searchsorted(self._post_cdf, u_post, side="right"), pre)
            patient_ok = self._ok_patient[post]
        consistent = np.where(erased, patient_ok, self._ok_stay[pre])
        failed = np.flatnonzero(consistent < 0)
        if failed.size:
            index = first + int(failed[0])
            try:
                self.run(derive_seed(base_seed, index))
            except Exception as error:
                raise RuntimeError(f"trial {index} failed: {error}") from error
            raise RuntimeError(f"trial {index} failed: batch and scalar draws disagree")
        return TrialBatch(self, pre, post, erased, consistent == 1)


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Consecutive trials of one ensemble as columns.  What every trial
    shares (labels, brain purity and entropy, cat marginals) is held once,
    by ``engine``.  Two batches are equal, as a plain bool, when their
    scenarios are equal and their columns hold the same outcomes."""

    engine: TrialEngine
    pre: np.ndarray
    post: np.ndarray
    erased: np.ndarray
    consistent: np.ndarray

    def __len__(self) -> int:
        return len(self.pre)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialBatch):
            return NotImplemented
        columns = ("pre", "post", "erased", "consistent")
        return (
            self.engine.scenario == other.engine.scenario
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)
        )

    def outcomes(self) -> tuple:
        """The distinct reports, in (pre, post) order, and each trial's index into
        them: a trial's report follows from its (pre, post) pair, so B^2 at most."""
        codes = self.pre * len(self.engine.labels) + self.post
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        columns = (self.pre, self.post, self.erased, self.consistent)
        return list(map(self.engine._report, *(c[first].tolist() for c in columns))), inverse

    def reports(self) -> list:
        """Each trial's report; trials with one (pre, post) pair share it."""
        distinct, index = self.outcomes()
        return [distinct[i] for i in index.tolist()]

    def rows(self) -> list:
        """``asdict(report)`` of each trial's report, a fresh dict per trial."""
        distinct, index = self.outcomes()
        return [dict(vars(distinct[i])) for i in index.tolist()]


def run_trial(scenario: Scenario) -> TrialReport:
    """One full steering trial, deterministic per ``scenario.rng_seed``."""
    return TrialEngine(scenario).run(scenario.rng_seed)


def run_ensemble(scenario: Scenario, num_trials: int, *, first_trial: int = 0) -> list:
    """Independent trials with per-trial seeds ``derive_seed(scenario.rng_seed, i)``.

    Trial ``i`` is identical to ``run_trial`` on the same scenario with
    ``rng_seed = derive_seed(scenario.rng_seed, i)``, so serial and chunked
    ensembles agree.
    """
    num_trials = _count("num_trials", num_trials, 1)
    return TrialEngine(scenario).run_batch(scenario.rng_seed, first_trial, num_trials).reports()


@dataclass(frozen=True)
class DecouplingResult:
    leaked_bits: float
    conditional_trace_distance: float
    feasible: bool


def _haar_unitary(dim: int, rng: np.random.Generator) -> tuple:
    """Columns 0 and ``dim/2`` of a Haar unitary: the QR of a seeded Ginibre
    matrix, with the phase diag(r)/|diag(r)| that makes Q Haar.

    The whole ``dim x dim`` matrix is drawn (real part, then imaginary part),
    so the seed stream does not depend on which columns are kept.  Column j
    of Q depends only on the first j+1 Ginibre columns (Mezzadri,
    arXiv:math-ph/0609050), so the Householder QR runs on the first
    ``dim/2 + 1`` columns only and Q is never formed: Q e_j is reflectors j
    down to 0 applied to e_j.  Reflector i is I - tau[i] v v^dagger, where v
    is 0 before position i, 1 at it and ``h[i, i+1:]`` after it; ``h[j, j]``
    is r_jj.  At dim = 2 the last reflector has no tail but is still a phase,
    so it is applied too."""
    real = rng.standard_normal((dim, dim))
    imag = rng.standard_normal((dim, dim))
    half = dim // 2
    h, tau = np.linalg.qr((real[:, :half + 1] + 1j * imag[:, :half + 1]) / np.sqrt(2.0),
                          mode="raw")
    columns = []
    for j in (0, half):
        column = np.zeros(dim, dtype=complex)
        column[j] = 1.0
        for i in range(j, -1, -1):
            tail = h[i, i + 1:]
            step = tau[i] * (column[i] + np.vdot(tail, column[i + 1:]))
            column[i] -= step
            column[i + 1:] -= step * tail
        columns.append(column * (h[j, j] / abs(h[j, j])))
    return tuple(columns)


def _haar_encodings(num_record_qubits: int, rng) -> tuple:
    """Branches 0 and 1 encoded by a seeded Haar-random unitary: its columns
    for inputs |0> and |1> on the leading qubit, the others blank."""
    return _haar_unitary(2**num_record_qubits, as_generator(rng))


def _check_record_split(num_record_qubits, accessible_values=()) -> int:
    """The decoupling rule: a record of 1..MAX_RECORD_QUBITS qubits, of which
    0..num_record_qubits are accessible.  Integral floats are accepted as
    access levels, as the CLI's sweep values are; bools are not.  Returns the
    record size as an ``int``.  Messages start with the field."""
    num_record_qubits = _count("num_record_qubits", num_record_qubits, 1)
    if num_record_qubits > MAX_RECORD_QUBITS:
        raise ValueError(f"num_record_qubits: must be in 1..{MAX_RECORD_QUBITS}")
    if any(isinstance(k, (bool, np.bool_)) or k not in range(num_record_qubits + 1)
           for k in accessible_values):
        raise ValueError(f"accessible: out of range, must be integers in 0..{num_record_qubits}")
    return num_record_qubits


def _decoupling_metrics(encoded_zero: np.ndarray, encoded_one: np.ndarray,
                        num_record_qubits: int, accessible: int) -> DecouplingResult:
    """Leaked bits and trace distance of the two hidden states, on the
    smaller side of the cut.  With M_b the ``(2^k, 2^h)`` block of branch b
    and [M0; M1]^dagger = Q [R0 R1] a thin QR, the conjugate of branch b's
    hidden state is Q R_b R_b^dagger Q^dagger, so it has the nonzero spectrum
    of R_b R_b^dagger, and their average that of R R^dagger / 2; each has side
    min(2^(k+1), 2^h) (Page, arXiv:gr-qc/9305007)."""
    if accessible == num_record_qubits:
        return DecouplingResult(0.0, 0.0, True)
    d_a = 2**accessible
    blocks = [StateVector(encoded, num_record_qubits).amplitudes.reshape(d_a, -1)
              for encoded in (encoded_zero, encoded_one)]
    r = np.linalg.qr(np.concatenate(blocks).conj().T, mode="r")
    side = r.shape[0].bit_length() - 1
    rho_zero, rho_one = (DensityMatrix(part @ part.conj().T, side)
                         for part in (r[:, :d_a], r[:, d_a:]))
    leaked = von_neumann_entropy(DensityMatrix(r @ r.conj().T / 2.0, side)) - 0.5 * (
        von_neumann_entropy(rho_zero) + von_neumann_entropy(rho_one)
    )
    distance = trace_distance(rho_zero, rho_one)
    return DecouplingResult(leaked, distance, distance < DECOUPLING_FEASIBLE_THRESHOLD)


def decoupling_diagnostic(num_record_qubits: int, accessible: int, rng) -> DecouplingResult:
    """How much branch information the inaccessible remainder of a scrambled
    record still holds.

    One which-branch qubit is encoded into ``num_record_qubits`` qubits by a
    seeded Haar-random unitary.  Only the first ``accessible`` qubits can be
    manipulated; the diagnostic reports the trace distance between the
    inaccessible remainder's states conditional on branch 0 vs 1, plus the
    Holevo-style information (in bits) the remainder leaks.  Recovery of
    coherence from the accessible part is feasible when that conditional
    trace distance falls below ``DECOUPLING_FEASIBLE_THRESHOLD``.
    """
    num_record_qubits = _check_record_split(num_record_qubits, [accessible])
    encoded = _haar_encodings(num_record_qubits, rng)
    return _decoupling_metrics(*encoded, num_record_qubits, int(accessible))


def decoupling_sweep(num_record_qubits: int, accessible_values, num_encodings: int,
                     rng_seed: int) -> dict:
    """Decoupling metrics for many random encodings across accessibility levels.

    Encoding ``j`` uses seed ``derive_seed(rng_seed, j)``; each row matches
    ``decoupling_diagnostic`` for that seed exactly (the random unitary does
    not depend on the accessibility split).
    """
    num_encodings = _count("num_encodings", num_encodings, 1)
    rng_seed = _seed("rng_seed", rng_seed)
    values = list(accessible_values)
    num_record_qubits = _check_record_split(num_record_qubits, values)
    results = {int(k): [] for k in values}
    for gen in generators(rng_seed, 0, num_encodings):
        encoded = _haar_encodings(num_record_qubits, gen)
        for k in results:
            results[k].append(_decoupling_metrics(*encoded, num_record_qubits, k))
    return results
