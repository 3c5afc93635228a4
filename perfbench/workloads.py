"""The four benchmark workloads: inputs made from a seed, operations, checks.

Every workload is a fixed cycle of operations (a "round").  The seed
chooses amplitudes, phases, filter weights and program seeds, never the
amount of work: register sizes, trial counts and accessibility levels are
fixed, so two seeds cost the same and their timings can be pooled.

Each operation calls the program's command-line layer in process, the way
``realitysteer run|sweep|verify`` does after parsing its arguments, and
writes its report inside the run's work directory.  ``inspect`` reads the
report back (untimed) and returns the bytes its digest covers plus any
failed output check.  ``run_checks`` holds the checks made once per run on
the first round.
"""

import inspect as _inspect
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import stats

from realitysteer import cli, protocol, seeding, verify
from realitysteer.statevec import NORM_TOL

@dataclass
class Op:
    label: str
    trials: int
    call: object      # () -> result; the timed part
    inspect: object   # result -> (digest subject, [problems])
    config: object = None


@dataclass
class Workload:
    name: str
    ops: list
    run_checks: object = None  # [digest subjects of round one] -> [(op index, problem)]
    notes: dict = field(default_factory=dict)


def _write_config(workdir, index, document):
    path = os.path.join(workdir, f"config{index}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return cli.parse_config(path)


def _read_payload(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["payload"]


def _phased(rng, magnitudes):
    """Amplitudes with the given magnitudes and seeded phases, as [re, im] pairs."""
    phases = rng.uniform(0.0, 2.0 * math.pi, len(magnitudes))
    return [[m * math.cos(p), m * math.sin(p)] for m, p in zip(magnitudes, phases)]


def _program_seed(rng):
    return int(rng.integers(0, 2**32))


def _cli_op(label, trials, config, out, command, check):
    """One ``cmd_run``/``cmd_sweep`` call whose report is read back and checked."""

    def call():
        return getattr(cli, command)(config, out=out, threads=1)

    def inspect(exit_code):
        payload = _read_payload(out)
        problems = [] if exit_code == cli.EXIT_OK else [f"exit code {exit_code}"]
        return payload, problems + check(payload)

    return Op(label, trials, call, inspect, config)


# ------------------------------------------------------------------ ensemble

ENSEMBLE_TRIALS = 6000
PER_TRIAL_TRIALS = 4000
CHI_SQUARE_P = 0.001


def _ensemble_scenarios(rng):
    """Six scenarios at <= 13 qubits.  Where participation is partial the
    participating family's weight is fixed, so the share of trials that draw
    twice (erased ones) does not depend on the seed.  The two per-trial
    reports take about 2.5 times as long as the others; with two per round a
    run holds more than ten of them, so the tail falls inside that group."""
    u = rng.uniform(0.2, 0.8)
    v = rng.uniform(0.2, 0.8)
    w = rng.uniform(0.2, 0.8)
    split = rng.uniform(0.2, 0.8, size=2)
    return [
        ("plain", ENSEMBLE_TRIALS, False, {
            "weights": _phased(rng, [math.sqrt(u), math.sqrt(1 - u)]),
            "env_qubits": 3, "encoding": "plain", "participation": "all",
            "observe_variant": str(rng.choice(["a", "b", "c"])),
        }),
        ("tagged_dead_only", ENSEMBLE_TRIALS, False, {
            "weights": _phased(rng, [0.6, 0.8]),
            "env_qubits": 2, "encoding": "tagged", "participation": "dead_only",
        }),
        ("tagged4_partial", ENSEMBLE_TRIALS, False, {
            "num_alive": 2, "num_dead": 2,
            "weights": _phased(rng, [
                math.sqrt(0.5 * split[0]), math.sqrt(0.5 * (1 - split[0])),
                math.sqrt(0.5 * split[1]), math.sqrt(0.5 * (1 - split[1])),
            ]),
            "env_qubits": 2, "encoding": "tagged", "participation": "dead_only",
        }),
        ("lambda", ENSEMBLE_TRIALS, False, {
            "weights": _phased(rng, [math.sqrt(v), math.sqrt(1 - v)]),
            "env_qubits": 1, "encoding": "plain", "participation": "all",
            "nonlinear_lambda": float(rng.uniform(0.5, 3.0)),
        }),
        ("per_trial", PER_TRIAL_TRIALS, True, {
            "weights": _phased(rng, [math.sqrt(w), math.sqrt(1 - w)]),
            "env_qubits": 2, "encoding": "plain", "participation": "all",
        }),
        ("per_trial_tagged", PER_TRIAL_TRIALS, True, {
            "weights": _phased(rng, [0.6, 0.8]),
            "env_qubits": 2, "encoding": "tagged", "participation": "dead_only",
        }),
    ]


def _ensemble_check(num_trials, emit):
    def check(payload):
        summary = payload["summary"]
        problems = []
        if summary["num_trials"] != num_trials:
            problems.append(f"num_trials {summary['num_trials']} != {num_trials}")
        total = sum(summary["post_outcome_frequencies"].values())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"post-outcome frequencies sum to {total}")
        if emit and len(payload.get("per_trial", ())) != num_trials:
            problems.append("per-trial report has the wrong length")
        return problems

    return check


def _chi_square(summary):
    """Statistic, degrees of freedom and stray count of one summary's
    post-outcomes against its analytic column."""
    n = summary["num_trials"]
    labels = sorted(summary["analytic_post_probabilities"])
    observed = np.array([round(summary["post_outcome_frequencies"][k] * n) for k in labels])
    expected = np.array([summary["analytic_post_probabilities"][k] * n for k in labels])
    support = expected > 0
    statistic = float(np.sum((observed[support] - expected[support]) ** 2 / expected[support]))
    return statistic, int(support.sum()) - 1, int(observed[~support].sum())


def build_ensemble(rng, workdir):
    ops = []
    for index, (label, trials, emit, scenario) in enumerate(_ensemble_scenarios(rng)):
        scenario["rng_seed"] = _program_seed(rng)
        config = _write_config(workdir, index, {
            "scenario": scenario, "num_trials": trials, "emit_per_trial": emit,
        })
        out = os.path.join(workdir, f"report{index}.json")
        ops.append(_cli_op(label, trials, config, out, "cmd_run", _ensemble_check(trials, emit)))

    def run_checks(payloads):
        problems = []
        # One chi-square test over every scenario of the round (statistics and
        # degrees of freedom add), so a run makes one p > 0.001 test, not six.
        total, dof = 0.0, 0
        for index, payload in enumerate(payloads):
            statistic, df, stray = _chi_square(payload["summary"])
            total, dof = total + statistic, dof + df
            if stray:
                problems.append((index, f"{stray} post-outcomes outside the analytic support"))
        p_value = float(stats.chi2.sf(total, dof))
        if not p_value > CHI_SQUARE_P:
            problems += [(i, f"chi-square p = {p_value:.2e}") for i in range(len(payloads))]
        # Serial output equals chunked output: the per-trial report written by
        # the serial run against three chunks computed with first_trial offsets.
        index = next(i for i, op in enumerate(ops) if op.config.emit_per_trial)
        scenario, n = ops[index].config.scenario, ops[index].trials
        bounds = [0, n // 3, 2 * n // 3, n]
        chunked = [
            asdict(report)
            for first, last in zip(bounds, bounds[1:])
            for report in protocol.run_ensemble(scenario, last - first, first_trial=first)
        ]
        if cli.canonical_payload_bytes(chunked) != cli.canonical_payload_bytes(
            payloads[index]["per_trial"]
        ):
            problems.append((index, "chunked ensemble differs from the serial report"))
        return problems

    return Workload("ensemble", ops, run_checks, {"chi_square_p_threshold": CHI_SQUARE_P})


# ------------------------------------------------------------- wide_register

WIDE_TRIALS = 16
# (base, total register qubits).  A plain two-branch register has 4 qubits
# besides its environment copies, a tagged one 6.  The 22-qubit point carries
# about half the round's time; the many 18-qubit points give the latency
# distribution one large group, so its median and tail fall inside it.
WIDE_POINTS = (
    (("plain", 18), ("tagged", 18)) * 5
    + (("plain", 20), ("tagged", 20), ("plain", 22))
    + (("plain", 18), ("tagged", 18)) * 5
)
WIDE_BASES = {
    "plain": ({"encoding": "plain", "participation": "all"}, 4),
    "tagged": ({"encoding": "tagged", "participation": "dead_only"}, 6),
}


def _wide_check(base):
    def check(payload):
        row = payload["rows"][0]
        if base == "plain" and row.get("erase_exact") is not True:
            return ["erase not exact under full participation"]
        if base == "tagged" and not row["brain_purity_after_erase"] < 1.0:
            return ["brain purity is 1 under dead_only participation"]
        return []

    return check


def build_wide_register(rng, workdir):
    ops = []
    for index, (base, total) in enumerate(WIDE_POINTS):
        keys, fixed_qubits = WIDE_BASES[base]
        u = rng.uniform(0.2, 0.8)
        scenario = dict(keys, weights=_phased(rng, [math.sqrt(u), math.sqrt(1 - u)]),
                        rng_seed=_program_seed(rng))
        config = _write_config(workdir, index, {
            "scenario": scenario,
            "sweep": {"axis": "env_qubits", "values": [total - fixed_qubits],
                      "trials_per_point": WIDE_TRIALS},
        })
        out = os.path.join(workdir, f"report{index}.json")
        ops.append(_cli_op(f"{base}{total}", WIDE_TRIALS, config, out, "cmd_sweep",
                           _wide_check(base)))
    return Workload("wide_register", ops)


# ---------------------------------------------------------------- decoupling

RECORD_QUBITS = 10
# One encoding per operation.  k = 0 and k = 1 cost seconds (dense 1024-dim
# density matrices); k >= 5 costs about a millisecond, so most operations
# time the Haar unitary itself.  One slow operation per round keeps the slow
# samples fewer than the ten the tail percentile leaves beyond it.
DECOUPLING_K = ((0, 1, 5, 9),) + ((5, 7, 9),) * 8


def _decoupling_check(payload):
    # Orthogonal encodings (k = 0) give a distance of 1 up to rounding: the
    # program returns values up to ~2e-14 above 1 there, so the range is held
    # at the program's own norm and trace tolerance.
    problems = []
    for row in payload["rows"]:
        distance = row["mean_conditional_trace_distance"]
        if not -NORM_TOL <= distance <= 1.0 + NORM_TOL:
            problems.append(f"k={row['accessible_k']}: trace distance {distance} outside [0, 1]")
    return problems


def build_decoupling(rng, workdir):
    ops = []
    for index, ks in enumerate(DECOUPLING_K):
        config = _write_config(workdir, index, {
            "scenario": {"rng_seed": _program_seed(rng)},
            "sweep": {"axis": "accessible_k", "values": list(ks), "trials_per_point": 1,
                      "num_record_qubits": RECORD_QUBITS},
        })
        out = os.path.join(workdir, f"report{index}.json")
        ops.append(_cli_op("k" + "-".join(map(str, ks)), 1, config, out, "cmd_sweep",
                           _decoupling_check))
    # The row compared with decoupling_diagnostic is drawn from the k >= 1
    # rows, which keeps the once-per-run check under a second.
    candidates = [(i, r) for i, ks in enumerate(DECOUPLING_K) for r, k in enumerate(ks) if k >= 1]
    sampled = candidates[int(rng.integers(len(candidates)))]

    def run_checks(payloads):
        index, row_index = sampled
        row = payloads[index]["rows"][row_index]
        reference = protocol.decoupling_diagnostic(
            RECORD_QUBITS, row["accessible_k"],
            seeding.derive_seed(ops[index].config.base.rng_seed, 0),
        )
        same = (
            row["mean_conditional_trace_distance"] == reference.conditional_trace_distance
            and row["mean_leaked_bits"] == reference.leaked_bits
            and row["feasible_fraction"] == (1.0 if reference.feasible else 0.0)
        )
        return [] if same else [(index, f"row k={row['accessible_k']} differs from decoupling_diagnostic")]

    return Workload("decoupling", ops, run_checks, {"sampled_row": list(sampled)})


# -------------------------------------------------------------------- verify

# Each round: one full pass (all six checks at the CLI defaults), then the two
# checks that exercise small dense states and Kraus channels at sixteen and
# twenty times their default counts, so those layers outweigh the pass's
# 20,000-trial Born-statistics ensemble.  All three take about 0.55 s, so the
# median and the tail both fall inside one group of similar operations.
CIRCUIT_CATS = 1600
NO_SIGNALLING_CHANNELS = 2000


def _single_check(verdict):
    return [asdict(verdict)], (
        [] if verdict.passed else [f"{verdict.check_name} failed (metric {verdict.metric:.3e})"]
    )


def build_verify(rng, workdir):
    out = os.path.join(workdir, "verdicts.json")
    pass_seed, cats_seed, channels_seed = (_program_seed(rng) for _ in range(3))
    born_trials = _inspect.signature(verify.born_statistics_test).parameters["num_trials"].default

    def verify_pass():
        return cli.cmd_verify(("all",), pass_seed, out=out)

    def inspect_pass(exit_code):
        verdicts = _read_payload(out)["verdicts"]
        problems = [f"{v['check_name']} failed" for v in verdicts if not v["passed"]]
        if exit_code != cli.EXIT_OK:
            problems.append(f"exit code {exit_code}")
        return verdicts, problems

    ops = [
        Op("verify_all", born_trials, verify_pass, inspect_pass),
        Op("circuit_equivalence", 0,
           lambda: verify.check_circuit_equivalence(CIRCUIT_CATS, rng_seed=cats_seed),
           _single_check),
        Op("no_signalling", 0,
           lambda: verify.check_no_signalling(NO_SIGNALLING_CHANNELS, rng_seed=channels_seed),
           _single_check),
    ]
    return Workload("verify", ops, notes={"seeds": [pass_seed, cats_seed, channels_seed]})


BUILDERS = {
    "ensemble": build_ensemble,
    "wide_register": build_wide_register,
    "decoupling": build_decoupling,
    "verify": build_verify,
}


def build(name, seed, workdir):
    """Generate the workload's inputs from ``seed``, write and parse them."""
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[name](np.random.default_rng(seed), workdir)
