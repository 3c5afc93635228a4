"""Command-line front end: trial ensembles, parameter sweeps, and the
verification suite.

Subcommands::

    realitysteer run <config.json>    [--out P] [--threads N] [--trials N] [--format json|csv]
    realitysteer verify [--suite a,b] [--seed N] [--out P] [--format json|csv]
    realitysteer sweep <config.json>  [--out P] [--threads N] [--trials N] [--format json|csv]

Exit codes: 0 success / all checks passed, 1 verification failure,
2 configuration or usage error, 3 runtime error.  ``--trials`` must be >= 1.
``--threads`` and its default, the ``REALITY_STEER_THREADS`` environment
variable, are validated by the same rule and otherwise ignored: an ensemble
is drawn as one vectorized batch, faster than worker processes start.

Config files are JSON.  A run config holds a ``scenario`` block plus
``num_trials`` / ``output_path`` / ``emit_per_trial``; a sweep config adds a
``sweep`` block with ``axis`` (one of lambda, env_qubits, accessible_k,
weight_c0sq), ``values``, ``trials_per_point``, and (for accessible_k)
``num_record_qubits``.  Scenario keys: num_alive, num_dead, weights (real
amplitudes or [re, im] pairs; omitted means equal weights), env_qubits,
encoding (plain|tagged), observe_variant (a|b|c), participation
(all|dead_only|alive_only), nonlinear_lambda, rng_seed.

Parsing only coerces types and prefixes messages with their key; each rule
lives in the library call that acts on it: ``Scenario``, then
``expected_post_probabilities`` (plain records or a filter with partial
participation), ``sweep_point`` (lambda, env_qubits, weight_c0sq values) and
``decoupling_sweep`` (accessible_k values).  Every scenario and sweep point a
config will run is built with its analytic column at parse time: a config
that parses runs, and a refusal exits 2 naming its key.

Reports are JSON documents ``{"payload": ..., "metadata": ...}``.  The
payload is fully determined by config and seed and serializes byte-
identically across runs; timestamps live only in the metadata block.
A run's ``per_trial`` rows are written from ``TrialBatch.outcomes()``, each
distinct report serialized once, with the bytes that
``canonical_payload_bytes`` gives for ``TrialBatch.rows()``.  The rows go
straight to the open report between the document's two halves, in fixed
chunks of trials, so no copy of the whole document is ever built.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .protocol import (
    BranchStructure,
    Participation,
    RecordEncoding,
    Scenario,
    TrialBatch,
    TrialEngine,
    _check_record_split,
    decoupling_sweep,
    scenario_layout,
)
from .statevec import EXACT_TOL
from .verify import CHECK_NAMES, DEFAULT_SEED, expected_post_probabilities, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

SWEEP_AXES = ("lambda", "env_qubits", "accessible_k", "weight_c0sq")


class ConfigError(ValueError):
    """Configuration problem; message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    num_trials: int
    output_path: "str | None"
    emit_per_trial: bool


@dataclass(frozen=True)
class SweepConfig:
    base: Scenario
    axis: str
    values: tuple
    trials_per_point: int
    num_record_qubits: int = 10


def _get(mapping, key, expected, context, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{context}.{key}: missing required key")
        return default
    value = mapping[key]
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        raise ConfigError(
            f"{context}.{key}: expected {expected.__name__}, got {type(value).__name__}"
        )
    return value


def _number(value, where: str) -> float:
    """A JSON number as a float; NaN and infinities are left to the rules."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: integer out of the float range") from None


def _choice(block, key, enum, context, default):
    name = _get(block, key, str, context, default=default)
    try:
        return enum(name)
    except ValueError:
        choices = ", ".join(member.value for member in enum)
        raise ConfigError(f"{context}.{key}: must be one of {choices}") from None


def _parse_weights(raw, context):
    """Coerce real amplitudes or [re, im] pairs; None means equal weights."""
    if raw is None:
        return None
    where = f"{context}.weights"
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: expected a list of amplitudes")
    pairs = [e if isinstance(e, list) and len(e) == 2 else (e, 0.0) for e in raw]
    return [complex(_number(re, where), _number(im, where)) for re, im in pairs]


SCENARIO_KEYS = (
    "num_alive", "num_dead", "weights", "env_qubits", "encoding",
    "observe_variant", "participation", "nonlinear_lambda", "rng_seed",
)


def parse_scenario(block, context: str = "scenario") -> Scenario:
    """Coerce a scenario block to a Scenario.  ``Scenario`` and
    ``expected_post_probabilities`` own every rule; their messages start
    with the rejected field, prefixed here with context."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context}: expected an object")
    for key in block:
        if key not in SCENARIO_KEYS:
            raise ConfigError(f"{context}.{key}: unknown key")
    encoding = _choice(block, "encoding", RecordEncoding, context, "plain")
    participation = _choice(block, "participation", Participation, context, "all")
    num_alive = _get(block, "num_alive", int, context, default=1)
    num_dead = _get(block, "num_dead", int, context, default=1)
    weights = _parse_weights(block.get("weights"), context)
    env_qubits = _get(block, "env_qubits", int, context, default=1)
    variant = _get(block, "observe_variant", str, context, default="a")
    nonlinear_lambda = block.get("nonlinear_lambda")
    if nonlinear_lambda is not None:
        nonlinear_lambda = _number(nonlinear_lambda, f"{context}.nonlinear_lambda")
    rng_seed = _get(block, "rng_seed", int, context, default=0)
    try:
        scenario = Scenario(
            branch_structure=BranchStructure(num_alive, num_dead, weights),
            env_qubits=env_qubits,
            encoding=encoding,
            observe_variant=variant,
            participation=participation,
            nonlinear_lambda=nonlinear_lambda,
            rng_seed=rng_seed,
        )
        # Reports echo the scenario, a sweep's base on any axis included.
        expected_post_probabilities(scenario)
        return scenario
    except ValueError as error:
        raise ConfigError(f"{context}.{error}") from None


def sweep_point(base: Scenario, axis: str, value) -> Scenario:
    """The scenario a lambda, env_qubits or weight_c0sq sweep runs at one
    value.  Raises ValueError for a value or base the axis cannot take."""
    if axis == "lambda":
        return replace(base, nonlinear_lambda=float(value))
    if axis == "env_qubits":
        if not float(value).is_integer():
            raise ValueError("env_qubits: must be an integer")
        return replace(base, env_qubits=int(value))
    if base.branch_structure.num_branches != 2:  # weight_c0sq
        raise ValueError("weight_c0sq: weight sweeps need a two-branch scenario")
    if not 0 <= value <= 1:
        raise ValueError("weight_c0sq: must be in [0, 1]")
    c0sq = float(value)
    two = BranchStructure.two_branch(math.sqrt(c0sq), math.sqrt(1.0 - c0sq))
    return replace(base, branch_structure=two)


def parse_config(path: str):
    """Parse a JSON config into a RunConfig or SweepConfig (the latter when a
    ``sweep`` block is present), refusing anything that would fail later."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as error:
        raise ConfigError(f"{path}: {error}") from None
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ConfigError(
            f"{path}:{error.lineno}:{error.colno}: invalid JSON ({error.msg})"
        ) from None
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: top level must be an object")
    scenario = parse_scenario(document.get("scenario", {}), "scenario")
    if "sweep" in document:
        block = document["sweep"]
        if not isinstance(block, dict):
            raise ConfigError("sweep: expected an object")
        axis = _get(block, "axis", str, "sweep", required=True)
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis: must be one of {', '.join(SWEEP_AXES)}")
        values = _get(block, "values", list, "sweep", required=True)
        if not values:
            raise ConfigError("sweep.values: must be non-empty")
        trials_per_point = _get(block, "trials_per_point", int, "sweep", default=1000)
        if trials_per_point < 1:
            raise ConfigError("sweep.trials_per_point: must be >= 1")
        num_record_qubits = _get(block, "num_record_qubits", int, "sweep", default=10)
        try:
            _check_record_split(num_record_qubits)
        except ValueError as error:
            raise ConfigError(f"sweep.{error}") from None
        for value in values:
            number = _number(value, "sweep.values")
            try:
                if axis == "accessible_k":
                    _check_record_split(num_record_qubits, [number])
                else:
                    expected_post_probabilities(sweep_point(scenario, axis, value))
            except ValueError as error:
                raise ConfigError(
                    f"sweep.values: {axis} values include {value!r}: {error}"
                ) from None
        return SweepConfig(
            base=scenario,
            axis=axis,
            values=tuple(values),
            trials_per_point=trials_per_point,
            num_record_qubits=num_record_qubits,
        )
    num_trials = _get(document, "num_trials", int, "config", default=1000)
    if num_trials < 1:
        raise ConfigError("config.num_trials: must be >= 1")
    output_path = _get(document, "output_path", str, "config")
    emit_per_trial = _get(document, "emit_per_trial", bool, "config", default=False)
    return RunConfig(scenario, num_trials, output_path, emit_per_trial)


def _scenario_payload(scenario: Scenario) -> dict:
    return {
        "num_alive": scenario.branch_structure.num_alive,
        "num_dead": scenario.branch_structure.num_dead,
        "weights": [[float(w.real), float(w.imag)] for w in scenario.branch_structure.weights],
        "env_qubits": scenario.env_qubits,
        "encoding": scenario.encoding.value,
        "observe_variant": scenario.observe_variant,
        "participation": scenario.participation.value,
        "nonlinear_lambda": scenario.nonlinear_lambda,
        "rng_seed": scenario.rng_seed,
        "total_qubits": scenario_layout(scenario).total_qubits,
    }


def _run_trials(scenario: Scenario, num_trials: int, threads: int = 1):
    """The ensemble as one ``TrialBatch``.  A ``threads`` argument is still
    accepted and ignored: one batch is drawn faster than workers start."""
    return TrialEngine(scenario).run_batch(scenario.rng_seed, 0, num_trials)


def _summarize(batch: TrialBatch) -> dict:
    engine = batch.engine
    labels = engine.labels
    num = len(batch)
    pre_counts = np.bincount(batch.pre, minlength=len(labels)).tolist()
    post_counts = np.bincount(batch.post, minlength=len(labels)).tolist()
    analytic = expected_post_probabilities(engine.scenario)
    return {
        "num_trials": num,
        "pre_outcome_frequencies": {k: v / num for k, v in zip(labels, pre_counts)},
        "post_outcome_frequencies": {k: v / num for k, v in zip(labels, post_counts)},
        "analytic_post_probabilities": dict(zip(labels, analytic.tolist())),
        "erased_fraction": int(np.count_nonzero(batch.erased)) / num,
        "memory_consistent_fraction": int(np.count_nonzero(batch.consistent)) / num,
        # Means of n equal floats, summed as per-trial means were, keep the bytes.
        "mean_brain_purity_after_erase": float(np.mean(np.full(num, engine.brain_purity))),
        "mean_brain_entropy_bits": float(np.mean(np.full(num, engine.brain_entropy))),
    }


def canonical_payload_bytes(payload: dict) -> bytes:
    """Deterministic serialization of the primary report payload."""
    return json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")


def _open_report(path: str, mode: str, **kwargs):
    """Open a report file for writing, creating its directory first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, mode, **kwargs)


# Holds the place of the per-trial array while the rest of a report is
# serialized; no payload string contains a NUL.
_PER_TRIAL_MARKER = "\0per_trial\0"

# Trial rows joined per write: a per-trial report never holds more than this
# many rows in one buffer, and a 4,000-trial report is still one write.
_ROWS_PER_WRITE = 8192


def _write_per_trial(handle, batch: TrialBatch):
    """Write ``batch.rows()`` of a non-empty batch as ``canonical_payload_bytes``
    writes that list at ``document["payload"]["per_trial"]``, two levels deep:
    each of ``batch.outcomes()`` is serialized once, and the texts written in
    trial order, ``_ROWS_PER_WRITE`` rows per write."""
    distinct, index = batch.outcomes()
    newline = b"\n" + b"  " * 3
    separator = b"," + newline
    texts = [canonical_payload_bytes(vars(r)).replace(b"\n", newline) for r in distinct]
    handle.write(b"[" + newline)
    for start in range(0, len(index), _ROWS_PER_WRITE):
        if start:
            handle.write(separator)
        chunk = index[start:start + _ROWS_PER_WRITE].tolist()
        handle.write(separator.join([texts[i] for i in chunk]))
    handle.write(b"\n    ]")


def _write_document(payload: dict, path: str, per_trial: "TrialBatch | None" = None):
    """Write ``payload`` and the metadata as one canonical JSON document.  A
    ``per_trial`` batch becomes ``payload["per_trial"]``, byte for byte as if
    that key held ``per_trial.rows()``, streamed between the document's halves."""
    if per_trial is not None:
        payload = dict(payload, per_trial=_PER_TRIAL_MARKER)
    document = {
        "payload": payload,
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "package_version": __version__,
        },
    }
    data = canonical_payload_bytes(document)
    with _open_report(path, "wb") as handle:
        if per_trial is not None:
            head, data = data.split(json.dumps(_PER_TRIAL_MARKER).encode("ascii"))
            handle.write(head)
            _write_per_trial(handle, per_trial)
        handle.write(data + b"\n")


def _write_report(path: str, fmt: str, payload: dict, header, rows, per_trial=None):
    """Write ``payload`` (plus any ``per_trial`` batch) as a JSON document,
    or ``header`` and ``rows`` as CSV."""
    if fmt != "csv":
        _write_document(payload, path, per_trial)
        return
    with _open_report(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_run(config: RunConfig, out: "str | None" = None, threads: int = 1,
            trials: "int | None" = None, fmt: str = "json") -> int:
    num_trials = trials if trials is not None else config.num_trials
    batch = _run_trials(config.scenario, num_trials)
    summary = _summarize(batch)
    payload = {
        "kind": "run",
        "config": {
            "scenario": _scenario_payload(config.scenario),
            "num_trials": num_trials,
            "emit_per_trial": config.emit_per_trial,
        },
        "summary": summary,
    }
    path = out or config.output_path or "run_report.json"
    rows = None
    if fmt == "csv":
        rows = [[key, json.dumps(value, sort_keys=True)] for key, value in sorted(summary.items())]
    per_trial = batch if config.emit_per_trial else None
    _write_report(path, fmt, payload, ["quantity", "value"], rows, per_trial)
    post = summary["post_outcome_frequencies"]
    print(f"ran {num_trials} trials of a {config.scenario.branch_structure.num_branches}-branch scenario")
    for label in sorted(post):
        print(f"  post[{label}] = {post[label]:.4f}")
    print(f"report written to {path}")
    return EXIT_OK


def cmd_verify(suite, seed: int, out: "str | None" = None, fmt: str = "json") -> int:
    try:
        verdicts = run_checks(suite, rng_seed=seed)
    except KeyError as error:
        raise ConfigError(
            f"--suite: {error.args[0]}; known: {', '.join(CHECK_NAMES)}, all"
        ) from None
    width = max(len(v.check_name) for v in verdicts)
    for verdict in verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        print(
            f"{status}  {verdict.check_name:<{width}}  metric={verdict.metric:.3e}  "
            f"tolerance={verdict.tolerance:.1e}"
        )
    if out:
        records = [asdict(v) for v in verdicts]
        payload = {"kind": "verify", "seed": seed, "verdicts": records}
        _write_report(out, fmt, payload, list(records[0]), [list(r.values()) for r in records])
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERIFY_FAILED


def _sweep_rows(config: SweepConfig, trials_per_point: int) -> list:
    rows = []
    if config.axis == "accessible_k":
        # No trial runs here, but the echoed base obeys the other axes' rule.
        expected_post_probabilities(config.base)
        table = decoupling_sweep(config.num_record_qubits, config.values,
                                 trials_per_point, config.base.rng_seed)
        for k in config.values:
            results = table[k]
            rows.append(
                {
                    "accessible_k": int(k),
                    "num_record_qubits": config.num_record_qubits,
                    "num_encodings": len(results),
                    "mean_conditional_trace_distance": float(
                        np.mean([r.conditional_trace_distance for r in results])
                    ),
                    "mean_leaked_bits": float(np.mean([r.leaked_bits for r in results])),
                    "feasible_fraction": float(
                        np.mean([1.0 if r.feasible else 0.0 for r in results])
                    ),
                }
            )
        return rows
    for value in config.values:
        scenario = sweep_point(config.base, config.axis, value)
        batch = _run_trials(scenario, trials_per_point)
        summary = _summarize(batch)
        row = {
            config.axis: value,
            "num_trials": trials_per_point,
            "post_outcome_frequencies": summary["post_outcome_frequencies"],
            "analytic_post_probabilities": summary["analytic_post_probabilities"],
        }
        if config.axis == "env_qubits":
            purity = batch.engine.brain_purity
            row["brain_purity_after_erase"] = purity
            row["erase_exact"] = bool(abs(purity - 1.0) <= EXACT_TOL)
        rows.append(row)
    return rows


def cmd_sweep(config: SweepConfig, out: "str | None" = None, threads: int = 1,
              trials: "int | None" = None, fmt: str = "json") -> int:
    trials_per_point = trials if trials is not None else config.trials_per_point
    rows = _sweep_rows(config, trials_per_point)
    payload = {
        "kind": "sweep",
        "config": {
            "scenario": _scenario_payload(config.base),
            "axis": config.axis,
            "values": list(config.values),
            "trials_per_point": trials_per_point,
            "num_record_qubits": config.num_record_qubits,
        },
        "rows": rows,
    }
    header = sorted({key for row in rows for key in row})
    cells = [[json.dumps(row.get(key), sort_keys=True) for key in header] for row in rows]
    for line in [header, *cells]:
        print("  ".join(line))
    path = out or f"sweep_{config.axis}.json"
    _write_report(path, fmt, payload, header, cells)
    print(f"report written to {path}")
    return EXIT_OK


THREADS_VARIABLE = "REALITY_STEER_THREADS"


def _at_least_one(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _threads_variable() -> int:
    """``REALITY_STEER_THREADS`` under the ``--threads`` rule; 1 when unset."""
    try:
        return _at_least_one(os.environ.get(THREADS_VARIABLE, "1"))
    except argparse.ArgumentTypeError as error:
        raise ConfigError(f"{THREADS_VARIABLE}: {error}") from None


def _default_threads() -> "int | None":
    """The ``--threads`` default; None for a bad variable, which ``main``
    refuses when no ``--threads`` flag replaces it."""
    try:
        return _threads_variable()
    except ConfigError:
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realitysteer",
        description="Branch-navigation simulator: trial ensembles, sweeps, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="report path (overrides config output_path)")
        p.add_argument("--threads", type=_at_least_one, default=_default_threads(),
                       help="accepted for compatibility and ignored; must be >= 1 "
                            "(default: REALITY_STEER_THREADS or 1)")
        p.add_argument("--trials", type=_at_least_one, help="override trial count")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    run_p = sub.add_parser("run", help="execute a trial ensemble from a config file")
    run_p.add_argument("config")
    common(run_p)

    verify_p = sub.add_parser("verify", help="run verification checks")
    verify_p.add_argument("--suite", default="all",
                          help="comma-separated check names or 'all'")
    verify_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify_p.add_argument("--out", help="write verdicts to this path")
    verify_p.add_argument("--format", choices=("json", "csv"), default="json")

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    sweep_p.add_argument("config")
    common(sweep_p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) is None:
            _threads_variable()
        if args.command == "verify":
            suite = tuple(name.strip() for name in args.suite.split(",") if name.strip())
            return cmd_verify(suite or ("all",), args.seed, args.out, args.format)
        config = parse_config(args.config)
        is_run = isinstance(config, RunConfig)
        if args.command == "run" and not is_run:
            raise ConfigError(f"{args.config}: expected a run config, found a sweep block")
        if args.command == "sweep" and is_run:
            raise ConfigError(f"{args.config}: sweep config needs a 'sweep' block")
        command = cmd_run if is_run else cmd_sweep
        return command(config, args.out, args.threads, args.trials, args.format)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as error:
        print(f"runtime error: {error}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
