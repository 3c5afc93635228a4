"""The seed stream, pinned: the vectorized derivation and uniforms must equal
the scalar contract (``derive_seed``, ``default_rng(seed).random()``) bit
for bit, and batched ensembles must equal per-trial runs.  A numpy release
that changed ``default_rng``'s stream fails here first."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from realitysteer import (
    BranchStructure,
    Participation,
    RecordEncoding,
    Scenario,
    TrialEngine,
    canonical_scenario,
    derive_seed,
    run_ensemble,
    run_trial,
)
from realitysteer.seeding import derive_seeds, first_two_uniforms, generators

BASES = (20260810, -987654321)
COUNT = 20_000
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


@pytest.mark.parametrize("base", BASES)
def test_derive_seeds_match_scalar(base):
    seeds = derive_seeds(base, 0, COUNT)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(base, i) for i in range(COUNT)]


def test_derive_seeds_offset_range():
    assert derive_seeds(-5, 12_345, 100).tolist() == [
        derive_seed(-5, i) for i in range(12_345, 12_445)
    ]


@pytest.mark.parametrize("base", BASES)
def test_first_two_uniforms_match_default_rng(base):
    seeds = np.concatenate([derive_seeds(base, 0, COUNT), np.array(EDGE_SEEDS, dtype=np.uint64)])
    first, second = first_two_uniforms(seeds)
    reference = np.array([np.random.default_rng(int(s)).random(2) for s in seeds])
    assert np.array_equal(first, reference[:, 0])
    assert np.array_equal(second, reference[:, 1])


def _draws(gen, index):
    """Every draw kind the callers of ``generators`` use, between 32-bit
    integer draws.  Three 32-bit draws leave half of a 64-bit output
    buffered, so a buffer kept from the previous index would show in the
    first draw."""
    arity, num_kraus = 1 + index % 2, 1 + index % 3
    dim = 2**arity
    return [
        gen.integers(2**32, dtype=np.uint32),
        gen.standard_normal(2 ** (1 + arity)),
        gen.standard_normal(2 ** (1 + arity)),
        gen.standard_normal((num_kraus, 2, dim, dim)),
        gen.random(3),
        gen.standard_normal((2, 2)),
        gen.integers(2**32, size=2, dtype=np.uint32),
    ]


@pytest.mark.parametrize("base, first, count", [
    *((base, 0, 200) for base in BASES + EDGE_SEEDS), (-5, 10_000, 40), (2**63 + 7, 12_345, 20),
])
def test_generators_match_default_rng(base, first, count):
    index = first - 1
    for index, gen in enumerate(generators(base, first, count), start=first):
        reference = np.random.default_rng(derive_seed(base, index))
        for drawn, expected in zip(_draws(gen, index), _draws(reference, index)):
            assert np.asarray(drawn).tobytes() == np.asarray(expected).tobytes()
    assert index == first + count - 1


def test_generators_yield_one_reused_generator():
    yielded = {id(gen) for gen in generators(3, 0, 5)}
    assert len(yielded) == 1


def test_generators_of_no_index_yield_nothing():
    assert list(generators(3, 0, 0)) == []


@pytest.mark.parametrize("seed", [True, 1.5, 2.0])
def test_generators_refuse_a_non_integer_seed_before_the_first_index(seed):
    with pytest.raises(ValueError) as scalar:
        derive_seed(seed, 0)
    with pytest.raises(ValueError) as batched:
        generators(seed, 0, 0)
    assert str(batched.value) == str(scalar.value)
    assert str(batched.value).startswith("base_seed: must be an integer")


ACCEPTED = [
    canonical_scenario(
        branch_structure=BranchStructure.two_branch(0.6, 0.8),
        encoding=encoding, participation=participation, rng_seed=-77,
    )
    for encoding in RecordEncoding
    for participation in Participation
] + [
    canonical_scenario(
        branch_structure=BranchStructure(2, 2, [0.3, 0.5, 0.4, np.sqrt(0.5)]),
        encoding=RecordEncoding.TAGGED, participation=Participation.DEAD_ONLY,
        rng_seed=2**64 - 3,
    ),
    canonical_scenario(
        branch_structure=BranchStructure.two_branch(0.6, 0.8),
        nonlinear_lambda=2.0, rng_seed=31,
    ),
]


# Per scenario of ACCEPTED: pre_probs, post_probs, cat_before,
# cat_after_patient, cat_after_stay, _ok_stay, _ok_patient, as the engine
# built them when this test was written.
P, Q = 0.36, 0.6400000000000001
STAY = ((1.0, 0.0), (0.0, 1.0))
ENGINE_TABLES = [
    ((P, Q), (P, Q), (P, Q), (P, Q), STAY, (-1, -1), (1, 1)),
    ((P, Q), (P, Q), (P, Q), (P, Q), STAY, (1, -1), (1, 1)),
    ((P, Q), (1.0, 0.0), (P, Q), (1.0, 0.0), STAY, (-1, 1), (1, -1)),
    ((P, Q), (P, Q), (P, Q), (P, Q), STAY, (-1, -1), (1, 1)),
    ((P, Q), (0.0, 1.0), (P, Q), (0.0, 1.0), STAY, (1, -1), (-1, 1)),
    ((P, Q), (1.0, 0.0), (P, Q), (1.0, 0.0), STAY, (-1, 1), (1, -1)),
    (
        (0.09, 0.25, 0.16000000000000003, 0.5000000000000001),
        (0.0, 0.0, 0.2424242424242424, 0.7575757575757575),
        (0.09, 0.25, 0.16000000000000003, 0.5000000000000001),
        (0.0, 0.0, 0.2424242424242424, 0.7575757575757575),
        tuple(tuple(float(b == pre) for b in range(4)) for pre in range(4)),
        (1, 1, -1, -1),
        (-1, -1, 1, 1),
    ),
    (
        (P, Q), (0.12328767123287672, 0.8767123287671236),
        (P, Q), (0.12328767123287672, 0.8767123287671236),
        STAY, (-1, -1), (1, 1),
    ),
]


def _bits(values):
    """Floats as hex strings (so -0.0 and 0.0 differ), nested as given."""
    if isinstance(values, float):
        return values.hex()
    return tuple(_bits(v) for v in values)


def _scenario_id(s):
    return (
        f"{s.encoding.value}-{s.participation.value}-{s.branch_structure.num_branches}"
        f"-lambda{s.nonlinear_lambda}"
    )


@pytest.mark.parametrize("scenario, tables", zip(ACCEPTED, ENGINE_TABLES),
                         ids=[_scenario_id(s) for s in ACCEPTED])
def test_engine_tables_are_pinned(scenario, tables):
    engine = TrialEngine(scenario)
    pre, post, cat_before, cat_patient, cat_stay, ok_stay, ok_patient = tables
    assert _bits(engine.pre_probs.tolist()) == _bits(pre)
    assert _bits(engine.post_probs.tolist()) == _bits(post)
    assert _bits(engine.cat_before) == _bits(cat_before)
    assert _bits(engine.cat_after_patient) == _bits(cat_patient)
    assert _bits(engine.cat_after_stay) == _bits(cat_stay)
    for column, expected in ((engine._ok_stay, ok_stay), (engine._ok_patient, ok_patient)):
        assert column.dtype == np.int8
        assert column.tolist() == list(expected)


@pytest.mark.parametrize("scenario", ACCEPTED, ids=lambda s: (
    f"{s.encoding.value}-{s.participation.value}-{s.branch_structure.num_branches}"
    f"-lambda{s.nonlinear_lambda}"
))
def test_ensemble_matches_per_trial_runs(scenario):
    num_trials = 200
    singles = [
        run_trial(replace(scenario, rng_seed=derive_seed(scenario.rng_seed, i)))
        for i in range(num_trials)
    ]
    assert run_ensemble(scenario, num_trials) == singles
    batch = TrialEngine(scenario).run_batch(scenario.rng_seed, 0, num_trials)
    assert batch.rows() == [asdict(report) for report in singles]


@pytest.mark.parametrize("scenario", ACCEPTED, ids=_scenario_id)
def test_outcomes_hold_one_report_per_distinct_pair(scenario):
    num_branches = scenario.branch_structure.num_branches
    batch = TrialEngine(scenario).run_batch(scenario.rng_seed, 0, 2_000)
    distinct, index = batch.outcomes()
    pairs = sorted(set(zip(batch.pre.tolist(), batch.post.tolist())))
    assert [(r.pre_branch, r.post_branch) for r in distinct] == pairs
    assert len(distinct) <= num_branches**2
    assert [distinct[i] for i in index.tolist()] == batch.reports()
    assert len({id(r) for r in run_ensemble(scenario, 10_000)}) <= num_branches**2


@pytest.mark.parametrize("scenario", ACCEPTED, ids=_scenario_id)
def test_rows_are_fresh_dicts(scenario):
    rows = TrialEngine(scenario).run_batch(scenario.rng_seed, 0, 500).rows()
    before = [dict(row) for row in rows]
    # Trial 0's outcome recurs, so a shared dict would show below.
    assert before[0] in before[1:]
    rows[0].clear()
    assert rows[1:] == before[1:]


def test_batches_compare_as_plain_bools():
    scenario = canonical_scenario(rng_seed=3)
    one = TrialEngine(scenario).run_batch(3, 0, 500)
    two = TrialEngine(scenario).run_batch(3, 0, 500)
    other = TrialEngine(scenario).run_batch(4, 0, 500)
    assert (one != two) is False
    assert (one == two) is True
    assert (one != other) is True


def test_equal_scenarios_give_equal_batches():
    assert Scenario() == Scenario()
    assert hash(Scenario()) == hash(Scenario())
    assert BranchStructure.two_branch(0.6, 0.8) == BranchStructure.two_branch(0.6, 0.8)
    assert BranchStructure.two_branch(0.6, 0.8) != BranchStructure.two_branch(0.8, 0.6)
    assert BranchStructure.equal(1, 2) != BranchStructure.equal(2, 1)
    one = TrialEngine(Scenario()).run_batch(5, 0, 300)
    two = TrialEngine(Scenario()).run_batch(5, 0, 300)
    assert (one == two) is True
    assert (one != two) is False


def test_batch_fails_at_the_first_trial_the_scalar_path_rejects():
    scenario = canonical_scenario(
        encoding=RecordEncoding.TAGGED, participation=Participation.DEAD_ONLY, rng_seed=9
    )
    engine = TrialEngine(scenario)
    # Drop the stay-put memory check of the alive branch: run() then raises
    # a KeyError for every trial that draws alive.
    engine._ok_stay[0] = -1
    errors = {}
    for i in range(100):
        try:
            engine.run(derive_seed(9, i))
        except KeyError as error:
            errors[i] = error
    # Start the batch at an accepted trial, so the failing one is not its first.
    first = min(set(range(100)) - set(errors))
    index = min(i for i in errors if i > first)
    with pytest.raises(RuntimeError, match=rf"^trial {index} failed: {errors[index]}$"):
        engine.run_batch(9, first, 100 - first)
