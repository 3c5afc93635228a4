"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
all).  Tolerances and runtime budgets are pinned here and nowhere else.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import realitysteer
from realitysteer import (
    BranchStructure,
    Participation,
    RecordEncoding,
    canonical_scenario,
    check_indistinguishability,
    check_no_signalling,
    check_nonlinear_witness,
    clinic_erase,
    conditional_clinic,
    decoupling_sweep,
    derive_seed,
    expected_post_probabilities,
    observe,
    partial_trace,
    prepare_cat,
    purity,
    reobserve,
    run_ensemble,
    scenario_layout,
    TrialEngine,
)
from realitysteer.cli import canonical_payload_bytes, cmd_run, parse_config
from scipy import stats

from test_protocol import expected_after_full_erase, observed_state

SQRT_HALF = 1.0 / np.sqrt(2.0)


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} — {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_circuit_equivalence_is_exact_and_fast():
    started = time.perf_counter()
    scenario = canonical_scenario()
    layout = scenario_layout(scenario)
    blank = prepare_cat(scenario.branch_structure, layout)
    states = [
        observe(blank, layout, variant, scenario.encoding).amplitudes
        for variant in ("a", "b", "c")
    ]
    worst = max(
        float(np.max(np.abs(states[i] - states[j])))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    elapsed = time.perf_counter() - started
    report(
        "circuit equivalence",
        worst < 1e-12 and elapsed < 0.05,
        f"max amplitude deviation {worst:.2e} (< 1e-12), {elapsed:.4f}s (< 0.05s)",
    )


def test_erasure_is_exact_for_all_encodings_and_weights():
    worst_state = 0.0
    worst_purity = 0.0
    for encoding in (RecordEncoding.PLAIN, RecordEncoding.TAGGED):
        for c0_sq in (0.1, 0.36, 0.5, 0.9):
            structure = BranchStructure.two_branch(np.sqrt(c0_sq), np.sqrt(1 - c0_sq))
            scenario = canonical_scenario(branch_structure=structure, encoding=encoding)
            state, layout = observed_state(scenario)
            erased = clinic_erase(state, layout, encoding)
            expected = expected_after_full_erase(scenario)
            worst_state = max(worst_state, float(np.max(np.abs(erased.amplitudes - expected))))
            brain_purity = purity(partial_trace(erased, layout, ["B"]))
            worst_purity = max(worst_purity, abs(brain_purity - 1.0))
    report(
        "erasure exactness",
        worst_state < 1e-12 and worst_purity < 1e-12,
        f"max state deviation {worst_state:.2e}, max purity deviation "
        f"{worst_purity:.2e} (both < 1e-12) over 2 encodings x 4 weight splits",
    )


def test_no_signalling_over_random_channels():
    started = time.perf_counter()
    verdict = check_no_signalling(num_random_channels=100, rng_seed=20260810)
    elapsed = time.perf_counter() - started
    report(
        "no-signalling",
        verdict.passed and elapsed < 0.5,
        f"max trace distance {verdict.metric:.2e} (< 1e-10) over 100 random "
        f"channels/states plus the erase pipeline, {elapsed:.3f}s (< 0.5s)",
    )


def test_steering_is_locally_indistinguishable():
    worst = 0.0
    for structure in (
        BranchStructure.equal(1, 1),
        BranchStructure.two_branch(np.sqrt(0.36), np.sqrt(0.64)),
    ):
        verdict = check_indistinguishability(
            canonical_scenario(branch_structure=structure)
        )
        worst = max(worst, verdict.metric)
        assert verdict.passed
    report(
        "indistinguishability",
        worst < 1e-10,
        f"max trace distance between steered and untouched observer state "
        f"{worst:.2e} (< 1e-10) on canonical and biased scenarios",
    )


def test_coordination_constraint_blocks_partial_participation():
    blocked = TrialEngine(
        canonical_scenario(
            encoding=RecordEncoding.TAGGED, participation=Participation.DEAD_ONLY
        )
    )
    enabled = TrialEngine(canonical_scenario(encoding=RecordEncoding.TAGGED))
    entropy_gap = abs(blocked.brain_entropy - 1.0)

    four_branch = canonical_scenario(
        branch_structure=BranchStructure.equal(2, 2),
        encoding=RecordEncoding.TAGGED,
        participation=Participation.DEAD_ONLY,
    )
    state, layout = observed_state(four_branch)
    partial = conditional_clinic(
        state, layout, four_branch.branch_structure, four_branch.participation,
        four_branch.encoding,
    )
    outcomes = [
        reobserve(partial, layout, four_branch.encoding, derive_seed(1, index))[0]
        for index in range(10_000)
    ]
    confined = sum(branch in (2, 3) for branch in outcomes)
    report(
        "coordination constraint",
        entropy_gap < 1e-9 and enabled.brain_entropy < 1e-10 and confined == 10_000,
        f"partial participation leaves S(brain) = 1 ± {entropy_gap:.1e} bits "
        f"(tol 1e-9), full participation S = {enabled.brain_entropy:.1e} "
        f"(< 1e-10), {confined}/10000 reobservations confined to the dead family",
    )


def test_wide_register_engine_builds_fast():
    scenario = canonical_scenario(env_qubits=18)
    started = time.perf_counter()
    engine = TrialEngine(scenario)
    elapsed = time.perf_counter() - started
    qubits = engine.layout.total_qubits
    report(
        "wide register",
        qubits == 22 and elapsed < 0.05,
        f"plain {qubits}-qubit TrialEngine built in {elapsed:.4f}s (< 0.05s)",
    )


def test_born_statistics_at_scale():
    started = time.perf_counter()
    scenario = canonical_scenario(rng_seed=20260810)
    reports = run_ensemble(scenario, 100_000)
    elapsed = time.perf_counter() - started
    alive = sum(r.post_outcome == "alive" for r in reports) / 100_000
    counts = np.array(
        [sum(r.post_branch == k for r in reports) for k in (0, 1)], dtype=float
    )
    _, p_value = stats.chisquare(counts, np.array([0.5, 0.5]) * 100_000)
    report(
        "born statistics",
        abs(alive - 0.5) < 0.005 and p_value > 0.001 and elapsed < 1.0,
        f"alive frequency {alive:.4f} (0.5 ± 0.005), chi-square p = {p_value:.3f} "
        f"(> 0.001), {elapsed:.3f}s for 100000 trials (< 1s)",
    )


def test_nonlinear_filter_shifts_and_linear_maps_do_not():
    scenario = canonical_scenario(nonlinear_lambda=2.0, rng_seed=20260810)
    analytic = expected_post_probabilities(scenario)
    analytic_error = max(abs(analytic[0] - 0.2), abs(analytic[1] - 0.8))
    engine = TrialEngine(scenario)
    marginal_error = max(
        abs(engine.cat_after_patient[0] - 0.2), abs(engine.cat_after_patient[1] - 0.8)
    )

    reports = run_ensemble(scenario, 100_000)
    dead = sum(r.post_outcome == "dead" for r in reports) / 100_000
    sigma = np.sqrt(0.8 * 0.2 / 100_000)

    witness = check_nonlinear_witness(lambda_=2.0)
    identity = check_nonlinear_witness(lambda_=1.0)
    antilinear = check_nonlinear_witness(use_antilinear=True)
    report(
        "nonlinear filter",
        analytic_error < 1e-12
        and marginal_error < 1e-12
        and abs(dead - 0.8) < 3 * sigma
        and abs(witness.metric - 0.3) < 1e-12
        and identity.metric == 0.0
        and antilinear.metric < 1e-12,
        f"marginals (0.2, 0.8) within {max(analytic_error, marginal_error):.1e} "
        f"(< 1e-12); sampled dead frequency {dead:.4f} (0.8 ± {3 * sigma:.4f}); "
        f"witness distance {witness.metric:.12f} (= 0.3 ± 1e-12); identity and "
        f"antilinear witnesses {identity.metric:.1e}/{antilinear.metric:.1e}",
    )


def test_decoupling_transition_sits_near_half_access():
    started = time.perf_counter()
    access_levels = [1, 3, 4, 5, 6, 7, 9]
    table = decoupling_sweep(10, access_levels, num_encodings=20, rng_seed=20260810)
    fractions = {
        k: float(np.mean([r.feasible for r in table[k]])) for k in access_levels
    }
    elapsed = time.perf_counter() - started
    crossing_inside = fractions[3] <= 0.5 <= fractions[7]
    report(
        "decoupling transition",
        fractions[9] >= 0.9
        and fractions[1] <= 0.1
        and crossing_inside
        and elapsed < 30.0,
        f"feasibility fractions {fractions} for 20 encodings at 10 record "
        f"qubits: >= 0.9 at k=9, <= 0.1 at k=1, 50% crossing inside [3, 7]; "
        f"{elapsed:.0f}s (< 30s)",
    )


def test_reports_are_byte_deterministic(tmp_path):
    config_path = tmp_path / "canonical.json"
    config_path.write_text(
        json.dumps(
            {
                "scenario": {"rng_seed": 42},
                "num_trials": 5000,
                "emit_per_trial": True,
            }
        )
    )
    config = parse_config(str(config_path))
    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cmd_run(config, out=first)
    cmd_run(config, out=second)
    payload_first = json.loads(Path(first).read_text())["payload"]
    payload_second = json.loads(Path(second).read_text())["payload"]
    identical = canonical_payload_bytes(payload_first) == canonical_payload_bytes(
        payload_second
    )
    report(
        "report determinism",
        identical,
        "repeated cmd_run with identical config and seed produced byte-identical "
        f"primary payloads ({len(canonical_payload_bytes(payload_first))} bytes)",
    )


# The child reads its peak resident set from VmHWM: ru_maxrss would also
# count the forking test process, whose high-water mark carries over exec.
PER_TRIAL_PEAK_RSS = """
import contextlib, io, sys
from realitysteer.cli import cmd_run, parse_config
with contextlib.redirect_stdout(io.StringIO()):
    cmd_run(parse_config(sys.argv[1]), out=sys.argv[2], trials=200_000)
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024)
"""


def test_per_trial_report_streams_in_bounded_memory(tmp_path):
    """A 200,000-trial per-trial report is 93 MB; its rows are written in
    chunks, so the process never holds a copy of the whole document."""
    config_path = tmp_path / "per_trial.json"
    config_path.write_text(json.dumps({
        "scenario": {"encoding": "tagged", "participation": "dead_only"},
        "emit_per_trial": True,
    }))
    out = tmp_path / "r.json"
    src = os.path.dirname(os.path.dirname(realitysteer.__file__))
    result = subprocess.run(
        [sys.executable, "-c", PER_TRIAL_PEAK_RSS, str(config_path), str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    peak_mb = float(result.stdout)
    report(
        "per-trial memory",
        peak_mb < 100 and out.stat().st_size > 90_000_000,
        f"200000-trial tagged dead_only per-trial report of {out.stat().st_size} bytes "
        f"written at a peak RSS of {peak_mb:.0f} MB (< 100 MB)",
    )
