from dataclasses import asdict

import numpy as np
import pytest

from realitysteer import (
    BranchStructure,
    Participation,
    RecordEncoding,
    born_statistics_test,
    canonical_scenario,
    check_circuit_equivalence,
    check_coordination,
    check_indistinguishability,
    check_no_signalling,
    check_nonlinear_witness,
    expected_post_probabilities,
    run_checks,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


class TestCircuitEquivalence:
    def test_canonical_and_random_cats_pass(self):
        verdict = check_circuit_equivalence(num_random_cats=100, rng_seed=7)
        assert verdict.passed
        assert verdict.metric < 1e-12

    def test_deterministic_cat_only(self):
        verdict = check_circuit_equivalence(num_random_cats=0)
        assert verdict.passed

    def test_metric_reproducible(self):
        first = check_circuit_equivalence(num_random_cats=25, rng_seed=3)
        second = check_circuit_equivalence(num_random_cats=25, rng_seed=3)
        assert first.metric == second.metric


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
