"""Config acceptance as a contract: a config the CLI accepts runs to
completion (exit 0); a config it refuses exits 2 and names the offending key
or flag.  Exit 3 (a runtime error) never follows from configuration, only
from what a run meets, such as a report path that is a directory."""

import contextlib
import io
import json
import math
import re
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from realitysteer import (
    BranchStructure,
    Participation,
    Scenario,
    born_statistics_test,
    canonical_scenario,
)
from realitysteer.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    SCENARIO_KEYS,
    RunConfig,
    SweepConfig,
    cmd_run,
    cmd_sweep,
    main,
)

SCHEMA_KEYS = set(SCENARIO_KEYS) | {
    "axis", "values", "trials_per_point", "num_record_qubits",
    "num_trials", "output_path", "emit_per_trial",
}
NAMED_KEY = re.compile(r"config error: (?:scenario|sweep|config)\.(\w+)")


def run_cli(command, document, directory, flags=("--trials", "3")):
    """Exit code and stderr of ``realitysteer <command>`` on a config document."""
    path = directory / "config.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    argv = [command, str(path), "--out", str(directory / "report.json"), *flags]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as error:  # argparse refuses flags this way
            code = error.code
    return code, err.getvalue()


HUGE_INT_WEIGHT = '{"scenario": {"weights": [1' + "0" * 400 + ', 0]}}'

REFUSED = {
    "env sweep value over budget": (
        "sweep", {"sweep": {"axis": "env_qubits", "values": [1, 30]}}, (),
        r"sweep\.values: env_qubits values include 30: env_qubits: .*budget",
    ),
    "filter with partial participation": (
        "run", {"scenario": {"encoding": "tagged", "participation": "dead_only",
                             "nonlinear_lambda": 2.0}}, (),
        r"scenario\.nonlinear_lambda: .*participation",
    ),
    "zero filter on a dead-only cat": (
        "run", {"scenario": {"weights": [0, 1], "nonlinear_lambda": 0}}, (),
        r"scenario\.nonlinear_lambda: .*annihilates",
    ),
    "huge weight": ("run", {"scenario": {"weights": [1e200, 0]}}, (), r"scenario\.weights: "),
    "NaN weight": ("run", {"scenario": {"weights": [math.nan, 1]}}, (), r"scenario\.weights: "),
    "integer weight past the float range": ("run", HUGE_INT_WEIGHT, (), r"scenario\.weights: "),
    "lambda with an infinite square": (
        "run", {"scenario": {"nonlinear_lambda": 1e170}}, (), r"scenario\.nonlinear_lambda: "
    ),
    "zero trials flag": ("run", {}, ("--trials", "0"), r"--trials: must be an integer >= 1"),
    "negative threads flag": ("run", {}, ("--threads", "-3"), r"--threads: must be an integer >= 1"),
    "plain records, dead-only erase": (
        "run", {"scenario": {"participation": "dead_only"}}, (),
        r"scenario\.participation: ",
    ),
    "plain records, alive-only sweep": (
        "sweep", {"scenario": {"participation": "alive_only"},
                  "sweep": {"axis": "weight_c0sq", "values": [0.5]}}, (),
        r"scenario\.participation: ",
    ),
    "environment count past the budget": (
        "run", {"scenario": {"env_qubits": 10**30}}, (), r"scenario\.env_qubits: .*budget",
    ),
    "branch count past the budget": (
        "run", {"scenario": {"num_alive": 10**30}}, (), r"scenario\.num_alive: .*budget",
    ),
    "accessible_k sweep over a base a run refuses": (
        "sweep", {"scenario": {"encoding": "tagged", "participation": "dead_only",
                               "nonlinear_lambda": 2.0},
                  "sweep": {"axis": "accessible_k", "values": [1], "num_record_qubits": 2}}, (),
        r"scenario\.nonlinear_lambda: .*participation",
    ),
    "sweep without an axis": (
        "sweep", {"sweep": {"values": [1]}}, (), r"sweep\.axis: missing required key",
    ),
    "text weight": (
        "run", {"scenario": {"weights": ["a", 1]}}, (),
        r"scenario\.weights: expected a number, got str",
    ),
    "unknown encoding": (
        "run", {"scenario": {"encoding": "foo"}}, (),
        r"scenario\.encoding: must be one of plain, tagged",
    ),
    "weights not a list": (
        "run", {"scenario": {"weights": 0.5}}, (),
        r"scenario\.weights: expected a list of amplitudes",
    ),
    "scenario not an object": ("run", {"scenario": [1]}, (), r"scenario: expected an object"),
    "top level not an object": ("run", "[1]", (), r"top level must be an object"),
    "sweep not an object": ("sweep", {"sweep": [1]}, (), r"sweep: expected an object"),
    "empty sweep values": (
        "sweep", {"sweep": {"axis": "lambda", "values": []}}, (),
        r"sweep\.values: must be non-empty",
    ),
    "record register past its limit": (
        "sweep", {"sweep": {"axis": "accessible_k", "values": [1], "num_record_qubits": 13}}, (),
        r"sweep\.num_record_qubits: must be in 1\.\.12",
    ),
    "weight sweep value past 1": (
        "sweep", {"sweep": {"axis": "weight_c0sq", "values": [1.5]}}, (),
        r"sweep\.values: weight_c0sq values include 1\.5: weight_c0sq: must be in \[0, 1\]",
    ),
    "weight sweep over four branches": (
        "sweep", {"scenario": {"num_alive": 2, "num_dead": 2},
                  "sweep": {"axis": "weight_c0sq", "values": [0.5]}}, (),
        r"sweep\.values: weight_c0sq values include 0\.5: "
        r"weight_c0sq: weight sweeps need a two-branch scenario",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_with_key_named(case, tmp_path):
    command, document, flags, pattern = REFUSED[case]
    code, err = run_cli(command, document, tmp_path, flags or ("--trials", "3"))
    assert code == EXIT_CONFIG, err
    assert re.search(pattern, err), err


def test_report_path_on_a_directory_is_a_runtime_error(tmp_path):
    (tmp_path / "report.json").mkdir()
    code, err = run_cli("run", {}, tmp_path)
    assert code == EXIT_RUNTIME, err
    assert err.startswith("runtime error: "), err


# The library calls a config runs through hold the rules themselves, so a
# caller that skips parse_config gets the same refusal, naming the field.
LIBRARY_REFUSED = {
    "run, plain records, dead-only erase": (
        lambda out: cmd_run(
            RunConfig(canonical_scenario(participation=Participation.DEAD_ONLY, rng_seed=3),
                      4000, None, False),
            out=out,
        ),
        "participation: partial participation needs encoding 'tagged'",
    ),
    "weight sweep over four branches": (
        lambda out: cmd_sweep(
            SweepConfig(Scenario(branch_structure=BranchStructure.equal(2, 2)),
                        "weight_c0sq", (0.5,), 100),
            out=out,
        ),
        "weight_c0sq: weight sweeps need a two-branch scenario",
    ),
    "fractional access level": (
        lambda out: cmd_sweep(
            SweepConfig(canonical_scenario(), "accessible_k", (2.5,), 1, 4), out=out
        ),
        "accessible: out of range",
    ),
    "access sweep over plain records, dead-only erase": (
        lambda out: cmd_sweep(
            SweepConfig(canonical_scenario(participation=Participation.DEAD_ONLY),
                        "accessible_k", (1,), 1, 2),
            out=out,
        ),
        "participation: partial participation needs encoding 'tagged'",
    ),
    "Born test, plain records, alive-only erase": (
        lambda out: born_statistics_test(
            canonical_scenario(participation=Participation.ALIVE_ONLY), num_trials=1000
        ),
        "participation: partial participation needs encoding 'tagged'",
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSED))
def test_library_call_refuses_with_field_named(case, tmp_path):
    call, message = LIBRARY_REFUSED[case]
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call(str(out))
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "-3", "0"])
def test_bad_threads_variable_refused(value, tmp_path, monkeypatch):
    monkeypatch.setenv("REALITY_STEER_THREADS", value)
    code, err = run_cli("run", {}, tmp_path)
    assert code == EXIT_CONFIG, err
    assert re.search(rf"REALITY_STEER_THREADS: must be an integer >= 1, got '{value}'", err), err


# ------------------------------------------------------------------ property

# Accepted registers stay at most 15 qubits (counts <= 2, env_qubits <= 3) so
# each example runs in milliseconds; every other size is over the budget.
COUNTS = st.sampled_from([1, 1, 1, 2, 2, 0, -1, 40, 10**30])
ENV_QUBITS = st.sampled_from([1, 2, 3, 0, -2, 8, 23, 10**9])
SPECIAL = [math.nan, math.inf, -math.inf, 1e200, -1e200, 0.0]
LAMBDAS = st.one_of(
    st.floats(0.0, 5.0),
    st.sampled_from([
        0.0, 1.0, -1.0, math.nan, math.inf, -math.inf,
        1e-200, 1e-10, 1e154, math.sqrt(sys.float_info.max), 1e170,
    ]),
)
SWEEP_VALUES = {
    "lambda": LAMBDAS,
    "env_qubits": st.sampled_from([1, 2, 3, 1.5, 0, -2, 8, 23, 10**9, math.nan]),
    "weight_c0sq": st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, -0.1, 1.5, math.nan, math.inf]),
    ),
}


@st.composite
def weights(draw, num_branches):
    kind = draw(st.sampled_from(["normalized"] * 4 + ["special", "wrong_length"]))
    size = num_branches + (1 if kind == "wrong_length" else 0)
    magnitudes = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    total = math.sqrt(sum(m * m for m in magnitudes)) or 1.0
    entries = [m / total for m in magnitudes]
    if sum(entries) == 0.0:
        entries[0] = 1.0
    if kind == "special":
        entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from(SPECIAL))
    if draw(st.booleans()):  # one entry as an [re, im] pair
        entries[0] = [0.0, entries[0]]
    return entries


@st.composite
def scenario_blocks(draw):
    block = {}
    for key in ("num_alive", "num_dead"):
        if draw(st.booleans()):
            block[key] = draw(COUNTS)
    if draw(st.booleans()):
        branches = block.get("num_alive", 1) + block.get("num_dead", 1)
        if 2 <= branches <= 4:
            block["weights"] = draw(weights(branches))
        else:
            block["weights"] = [1.0, 0.0]
    if draw(st.booleans()):
        block["env_qubits"] = draw(ENV_QUBITS)
    block["encoding"] = draw(st.sampled_from(["plain", "tagged"]))
    block["participation"] = draw(st.sampled_from(["all", "all", "all", "dead_only", "alive_only"]))
    block["observe_variant"] = draw(st.sampled_from(["a", "b", "c"]))
    if draw(st.booleans()):
        block["nonlinear_lambda"] = draw(LAMBDAS)
    block["rng_seed"] = draw(st.integers(-(2**63), 2**64))
    return block


@st.composite
def documents(draw):
    document = {"scenario": draw(scenario_blocks())}
    if draw(st.booleans()):
        document["num_trials"] = draw(st.sampled_from([5, 5, 5, 0, -3]))
        return "run", document
    axis = draw(st.sampled_from(sorted(SWEEP_VALUES)))
    document["sweep"] = {
        "axis": axis,
        "values": draw(st.lists(SWEEP_VALUES[axis], min_size=1, max_size=3)),
        "trials_per_point": draw(st.sampled_from([2, 2, 2, 0])),
    }
    return "sweep", document


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=documents())
# Generated weight sweeps are mostly refused by their base scenario first, so
# these reach sweep_point's own range refusal on a valid two-branch base.
@example(case=("sweep", {
    "scenario": {"rng_seed": 0},
    "sweep": {"axis": "weight_c0sq", "values": [0.5, 1.5], "trials_per_point": 2},
}))
@example(case=("sweep", {
    "scenario": {"encoding": "tagged", "rng_seed": 1},
    "sweep": {"axis": "weight_c0sq", "values": [math.nan], "trials_per_point": 2},
}))
def test_accepted_configs_run_and_refused_ones_name_their_key(case, tmp_path_factory):
    command, document = case
    code, err = run_cli(command, document, tmp_path_factory.mktemp("config"))
    assert code in (EXIT_OK, EXIT_CONFIG), err
    if code == EXIT_CONFIG:
        named = NAMED_KEY.search(err)
        assert named and named.group(1) in SCHEMA_KEYS, err
