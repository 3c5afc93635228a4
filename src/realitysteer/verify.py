"""Executable verification suite with machine-readable verdicts.

Each check turns one of the protocol's limit statements into a numeric
witness: circuit-variant equivalence, reduced-state invariance under local
channels, operational indistinguishability of steering, the coordination
constraint on partial participation, the nonlinear filter's probability
shift, and goodness of fit of sampled outcome statistics.  Checks are
deterministic given their seeds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    NonlinearFilter,
    apply_antilinear,
    apply_local_channel,
    apply_nonlinear_filter,
    nonlinear_probabilities,
    random_channel,
)
from .protocol import (
    BranchStructure,
    Participation,
    RecordEncoding,
    Scenario,
    TrialEngine,
    _recorded_state,
    canonical_scenario,
    clinic_erase,
    observe,
    prepare_cat,
    rewrite_record,
    scenario_layout,
)
from .seeding import as_generator, derive_seed
from .statevec import (
    EXACT_TOL,
    NORM_TOL,
    RegisterLayout,
    StateVector,
    born_probabilities,
    partial_trace,
    trace_distance,
)

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.

    ``metric`` is the witnessed quantity and ``tolerance`` the bound it was
    held against; ``details`` states the direction (most checks pass below
    tolerance, the blocked-steering branch of the coordination check passes
    above it).
    """

    check_name: str
    passed: bool
    metric: float
    tolerance: float
    details: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "metric", float(self.metric))
        object.__setattr__(self, "tolerance", float(self.tolerance))


def _below(check_name: str, metric: float, tolerance: float, details: str) -> Verdict:
    """A verdict that passes when the metric is below its tolerance."""
    return Verdict(check_name, metric < tolerance, metric, tolerance, details)


def _above(check_name: str, metric: float, tolerance: float, details: str) -> Verdict:
    """A verdict that passes when the metric is above its tolerance."""
    return Verdict(check_name, metric > tolerance, metric, tolerance, details)


def _random_two_branch(rng: np.random.Generator) -> BranchStructure:
    amplitudes = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return BranchStructure(1, 1, amplitudes / np.linalg.norm(amplitudes))


def check_circuit_equivalence(num_random_cats: int = 100, rng_seed: int = DEFAULT_SEED) -> Verdict:
    """Max entry-wise deviation between the three observation circuits.

    Covers the canonical symmetric cat, a deterministic cat, and seeded
    random cat weights.
    """
    structures = [
        BranchStructure.equal(1, 1),
        BranchStructure.two_branch(1.0, 0.0),
    ]
    gen = as_generator(rng_seed)
    structures += [_random_two_branch(gen) for _ in range(num_random_cats)]
    # Every structure here has two branches, so they share one layout.
    scenario = canonical_scenario()
    layout = scenario_layout(scenario)
    worst = 0.0
    for structure in structures:
        blank = prepare_cat(structure, layout)
        states = [
            observe(blank, layout, variant, scenario.encoding).amplitudes
            for variant in ("a", "b", "c")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, float(np.max(np.abs(states[i] - states[j]))))
    return _below(
        "circuit_equivalence", worst, EXACT_TOL,
        f"max amplitude deviation across observation variants a/b/c over "
        f"{len(structures)} cat preparations; passes below tolerance",
    )


def check_no_signalling(num_random_channels: int = 100, rng_seed: int = DEFAULT_SEED) -> Verdict:
    """Max change of the cat's reduced state under local operations on the
    observer's side: seeded random Kraus channels on random bipartite pure
    states, plus the full memory-erase pipeline treated as one big local
    operation.
    """
    if num_random_channels < 1:
        raise ValueError("num_random_channels must be >= 1")
    worst = 0.0
    for index in range(num_random_channels):
        gen = as_generator(derive_seed(rng_seed, index))
        arity = 1 + index % 2
        layout = RegisterLayout.from_sizes([("C", 1), ("B", arity)])
        amplitudes = gen.standard_normal(2 ** (1 + arity)) + 1j * gen.standard_normal(
            2 ** (1 + arity)
        )
        state = StateVector(amplitudes / np.linalg.norm(amplitudes), 1 + arity)
        before = partial_trace(state, layout, ["C"])
        channel = random_channel(arity, 1 + index % 3, gen)
        after_full = apply_local_channel(state, layout, "B", channel)
        after = partial_trace(after_full, layout, ["C"])
        worst = max(worst, trace_distance(before, after))
    # The erase pipeline acts only on B and the clinic ancilla, so it is a
    # local operation too and must leave the cat's state untouched.
    for index in range(8):
        gen = as_generator(derive_seed(rng_seed, 10_000 + index))
        scenario = canonical_scenario(branch_structure=_random_two_branch(gen))
        layout = scenario_layout(scenario)
        state = _recorded_state(scenario, layout)
        before = partial_trace(state, layout, ["C"])
        erased = clinic_erase(state, layout, scenario.encoding)
        after = partial_trace(erased, layout, ["C"])
        worst = max(worst, trace_distance(before, after))
    return _below(
        "no_signalling", worst, NORM_TOL,
        f"max trace distance of the cat's reduced state under "
        f"{num_random_channels} random local channels and the erase "
        "pipeline; passes below tolerance",
    )


def check_indistinguishability(scenario: "Scenario | None" = None) -> Verdict:
    """Trace distance between the observer's reduced state with and without
    the full steering pipeline (observe/spread vs observe/spread/erase/
    re-record); linearity demands zero.
    """
    scenario = scenario or canonical_scenario()
    if scenario.nonlinear_lambda is not None and scenario.nonlinear_lambda != 1.0:
        raise ValueError(
            "indistinguishability holds for linear evolution only; "
            "got a nontrivial nonlinear_lambda"
        )
    if scenario.participation is not Participation.ALL:
        raise ValueError("indistinguishability check needs full participation")
    layout = scenario_layout(scenario)
    observed = _recorded_state(scenario, layout)
    untouched = partial_trace(observed, layout, ["B"])
    steered_state = rewrite_record(
        clinic_erase(observed, layout, scenario.encoding), layout, scenario.encoding
    )
    steered = partial_trace(steered_state, layout, ["B"])
    return _below(
        "indistinguishability", trace_distance(untouched, steered), NORM_TOL,
        "trace distance between the observer's reduced state with and "
        "without steering; passes below tolerance",
    )


def check_coordination(scenario: "Scenario | None" = None) -> Verdict:
    """Residual brain entropy after the clinic stage.

    With partial participation the erase must fail to disentangle the brain
    (steering blocked: entropy above 0.5 bits); with full participation it
    must succeed (entropy below ``NORM_TOL``).
    """
    scenario = scenario or canonical_scenario(
        encoding=RecordEncoding.TAGGED, participation=Participation.DEAD_ONLY
    )
    if scenario.encoding is not RecordEncoding.TAGGED:
        raise ValueError(
            "coordination check needs tagged records; plain records make the "
            "blank state collide with one of them"
        )
    engine = TrialEngine(scenario)
    entropy = engine.brain_entropy
    if scenario.participation is Participation.ALL:
        return _below(
            "coordination", entropy, NORM_TOL,
            "full participation: brain entropy after the erase in bits; "
            "steering enabled, passes below tolerance",
        )
    return _above(
        "coordination", entropy, 0.5,
        f"participation={scenario.participation.value}: brain entropy "
        "after the erase in bits; steering blocked, passes ABOVE tolerance",
    )


def check_nonlinear_witness(lambda_: float = 2.0,
                            weights=(1 / math.sqrt(2), 1 / math.sqrt(2)),
                            use_antilinear: bool = False) -> Verdict:
    """Change of the cat's reduced state under a memory-side filter.

    A nontrivial filter on an entangled state must shift the cat's state by
    exactly the analytically predicted amount; the identity filter and the
    antilinear map must not move it at all.
    """
    c0, c1 = complex(weights[0]), complex(weights[1])
    structure = BranchStructure(1, 1, np.array([c0, c1]))
    layout = RegisterLayout.from_sizes([("C", 1), ("E", 1), ("B", 1)])
    amplitudes = np.zeros(8, dtype=np.complex128)
    amplitudes[0b000] = c0
    amplitudes[0b111] = c1
    state = StateVector(amplitudes, 3)
    before = partial_trace(state, layout, ["C"])
    if use_antilinear:
        transformed = apply_antilinear(state)
    else:
        transformed = apply_nonlinear_filter(state, layout, NonlinearFilter(lambda_, "B"))
    after = partial_trace(transformed, layout, ["C"])
    metric = trace_distance(before, after)

    linear_case = use_antilinear or lambda_ == 1.0 or abs(c0 * c1) == 0.0
    if linear_case:
        return _below(
            "nonlinear_witness", metric, NORM_TOL,
            "probability-preserving map: cat reduced state must not move; "
            "passes below tolerance",
        )
    p0, p1 = nonlinear_probabilities(c0, c1, lambda_)
    predicted_shift = abs(p0 - abs(c0) ** 2)
    marginal = born_probabilities(transformed, layout, "C")
    marginal_error = max(abs(marginal[0] - p0), abs(marginal[1] - p1))
    passed = (
        metric > 1e-6
        and abs(metric - predicted_shift) <= EXACT_TOL
        and marginal_error <= EXACT_TOL
    )
    return Verdict(
        check_name="nonlinear_witness",
        passed=passed,
        metric=metric,
        tolerance=1e-6,
        details=(
            f"filter weight {lambda_}: cat state moved by {metric:.6f} "
            f"(predicted {predicted_shift:.6f}, marginal error "
            f"{marginal_error:.2e}); violation witnessed, passes ABOVE tolerance"
        ),
    )


def expected_post_probabilities(scenario: Scenario) -> np.ndarray:
    """Closed-form post-outcome distribution: branch weights squared, or the
    filter-shifted two-branch probabilities when a filter is configured."""
    weights = scenario.branch_structure.weights
    if scenario.nonlinear_lambda is None or scenario.nonlinear_lambda == 1.0:
        return np.abs(weights) ** 2
    if scenario.participation is not Participation.ALL:
        raise ValueError("nonlinear_lambda: closed form with a filter needs full participation")
    p0, p1 = nonlinear_probabilities(
        weights[0], weights[1], scenario.nonlinear_lambda
    )
    return np.array([p0, p1])


def born_statistics_test(scenario: "Scenario | None" = None, num_trials: int = 20000) -> Verdict:
    """Chi-square goodness of fit of sampled post-outcomes against the
    closed-form prediction."""
    scenario = scenario or canonical_scenario(rng_seed=DEFAULT_SEED)
    if num_trials < 1000:
        raise ValueError("num_trials must be >= 1000")
    expected = expected_post_probabilities(scenario)
    batch = TrialEngine(scenario).run_batch(scenario.rng_seed, 0, num_trials)
    counts = np.bincount(batch.post, minlength=scenario.branch_structure.num_branches).astype(float)
    support = expected > 0
    stray = float(counts[~support].sum())
    if support.sum() < 2:
        # Deterministic prediction: every draw must land on the single branch.
        passed = stray == 0.0
        p_value = 1.0 if passed else 0.0
    else:
        # Imported here: scipy.stats costs about a second to import, and no
        # other code path needs it.
        from scipy import stats

        _, p_value = stats.chisquare(counts[support], expected[support] * num_trials)
        passed = stray == 0.0 and bool(p_value > 0.001)
    return Verdict(
        check_name="born_statistics",
        passed=passed,
        metric=float(p_value),
        tolerance=0.001,
        details=(
            f"chi-square p-value of {num_trials} sampled post-outcomes against "
            "the closed-form distribution; passes ABOVE tolerance"
        ),
    )


# Each check at its default configuration.  The calls resolve the check's
# module attribute when they run, so a wrapper installed there is used.
_CHECKS = {
    "circuit_equivalence": lambda seed: check_circuit_equivalence(rng_seed=seed),
    "no_signalling": lambda seed: check_no_signalling(rng_seed=seed),
    "indistinguishability": lambda seed: check_indistinguishability(),
    "coordination": lambda seed: check_coordination(),
    "nonlinear_witness": lambda seed: check_nonlinear_witness(),
    "born_statistics": lambda seed: born_statistics_test(canonical_scenario(rng_seed=seed)),
}
CHECK_NAMES = tuple(_CHECKS)


def run_checks(names=("all",), rng_seed: int = DEFAULT_SEED) -> list:
    """Run named checks (or all six) with their default configurations."""
    unknown = [name for name in names if name != "all" and name not in CHECK_NAMES]
    if unknown:
        raise KeyError(f"unknown check selector(s): {', '.join(unknown)}")
    selected = CHECK_NAMES if "all" in names else names
    return [_CHECKS[name](rng_seed) for name in selected]
