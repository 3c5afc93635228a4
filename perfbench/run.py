#!/usr/bin/env python3
"""realitysteer benchmark: one workload, one process, one closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One caller issues the next operation only when the previous one
has returned.  Operations run in whole rounds (see ``workloads.py``) until
``--seconds`` have passed, so every run holds each operation equally often.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds twice, untraced and then traced, and prints the per-layer metrics:
calls and self time per round of each wrapped layer, their shares of the
operation time, and the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, percentile used, per-operation payload digests) go to
``perfbench/results/``.
"""

import os

# Pin BLAS before numpy loads: on two shared cores a second OpenBLAS thread
# made the 1024x1024 QR slower and noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
POOL_TRIALS = 50_000
DEFAULT_SEED = 1
REFERENCE_DIGESTS = HERE / "reference_digests.json"


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    if not (SRC / "realitysteer" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {SRC}/realitysteer")
    sys.path.insert(0, str(SRC))
    import realitysteer

    if Path(realitysteer.__file__).resolve().parent != SRC / "realitysteer":
        raise BenchmarkError(f"imported realitysteer from {realitysteer.__file__}, not {SRC}")
    return realitysteer


def environment():
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
    }
    # Cache sizes are informational; sysfs may be absent.
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


# ---------------------------------------------------------------- measuring

# On a host whose cores are shared with other tenants (the 2-core Xeon VM of
# the baseline), the speed one process gets drifts by up to half, in
# stretches from under a second to tens of seconds.  A fixed calibration
# kernel therefore runs before every operation and once after the last.
# Each operation's time is divided by the host's speed around it: the mean
# of the calibrations just before and just after it, over
# CALIBRATION_REFERENCE_S (the kernel's median there when the host was
# quiet).  The results file keeps the raw timings as well.
CALIBRATION_REFERENCE_S = 0.0036


class Calibrator:
    """Times a fixed mix of pure-Python, memory-bound numpy and small LAPACK
    work.  It allocates its buffers once and touches no program code, so the
    program's heap and caches change its time as little as possible."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.square = np.linspace(0.0, 1.0, 2**16).reshape(256, 256)
        self.out = np.empty_like(self.square)
        self.matrix = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) + np.eye(64)

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        for _ in range(8):
            np.multiply(self.square, 1.0000001, out=self.out)
            np.copyto(self.out, self.square.T)
        for _ in range(3):
            np.linalg.qr(self.matrix)
        return time.perf_counter() - start


def host_speeds(calibrations):
    """Speed around each interval between consecutive calibrations."""
    return [(a + b) / (2.0 * CALIBRATION_REFERENCE_S)
            for a, b in zip(calibrations, calibrations[1:])]


def digest(subject) -> str:
    from realitysteer.cli import canonical_payload_bytes

    return hashlib.sha256(canonical_payload_bytes(subject)).hexdigest()


class Loop:
    """Runs a workload's operations in whole rounds and keeps what it saw."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.digests = [None] * len(workload.ops)
        self.calibrate = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._devnull = open(os.devnull, "w")

    def close(self):
        self._devnull.close()

    def run_op(self, index, op, tracer):
        with contextlib.redirect_stdout(self._devnull):
            start = time.perf_counter()
            try:
                result = tracer.run_op(index, op.call) if tracer else op.call()
                error = None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        if error:
            return elapsed, None, [f"raised: {error}"]
        subject, problems = op.inspect(result)
        return elapsed, subject, problems

    def rounds(self, seconds=None, count=None, tracer=None):
        """Whole rounds until ``seconds`` have passed, or exactly ``count``
        rounds.  Returns per-operation raw seconds, the host speed around
        each operation, and the number of rounds run."""
        durations, calibrations, done = [], [], 0
        start = time.perf_counter()
        while (count is None and time.perf_counter() - start < seconds) or (
            count is not None and done < count
        ):
            first_round = self.digests[0] is None
            subjects, round_problems = [], []
            for index, op in enumerate(self.workload.ops):
                calibrations.append(self.calibrate())
                elapsed, subject, problems = self.run_op(index, op, tracer)
                durations.append(elapsed)
                if subject is not None:
                    value = digest(subject)
                    if first_round:
                        self.digests[index] = value
                    elif value != self.digests[index]:
                        problems.append("output differs from the earlier run of the same input")
                subjects.append(subject)
                round_problems.append(problems)
            if first_round and self.workload.run_checks and None not in subjects:
                for index, problem in self.workload.run_checks(subjects):
                    round_problems[index].append(problem)
            for op, problems in zip(self.workload.ops, round_problems):
                self.attempted += 1
                self.failed += bool(problems)
                self.problems += [f"{op.label}: {p}" for p in problems]
            done += 1
        calibrations.append(self.calibrate())
        return durations, host_speeds(calibrations), done

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def tail(durations):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(durations)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * index / len(ordered)


def setup_seconds(args, calibrate):
    """Median over fresh processes that import the program and generate and
    parse this workload's inputs: raw wall time, and wall time over the host
    speed around each process."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    samples, calibrations = [], [calibrate()]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        calibrations.append(calibrate())
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
    speeds = host_speeds(calibrations)
    corrected = [t / s for t, s in zip(samples, speeds)]
    return statistics.median(samples), statistics.median(corrected), samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_metrics(durations, trials_per_round, per_round):
    """Throughput comes from the median round: each operation of the round at
    its median time over the run's rounds, so a slow stretch of a shared
    host moves it no more than it moves the median."""
    median_round = sum(
        statistics.median(durations[i::per_round]) for i in range(per_round)
    )
    return {
        "ops_per_s": per_round / median_round,
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail(durations)[0],
        "trials_per_s": trials_per_round / median_round,
    }


def end_to_end(args, workload, loop, details):
    setup_raw, setup, setup_samples = setup_seconds(args, loop.calibrate)
    ops = workload.ops
    # Warm-up: lazy imports and first-call allocations, untimed and uncounted.
    loop.calibrate()
    loop.run_op(0, ops[0], None)
    durations, speeds, rounds = loop.rounds(seconds=args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_trials = sum(op.trials for op in ops)
    raw = dict(timing_metrics(durations, round_trials, len(ops)), setup_s=setup_raw)
    corrected = [d / s for d, s in zip(durations, speeds)]
    values = dict(timing_metrics(corrected, round_trials, len(ops)), setup_s=setup)
    percentile = tail(durations)[1]
    by_label = {}
    for index, seconds in enumerate(corrected):
        by_label.setdefault(ops[index % len(ops)].label, []).append(seconds)
    details.update(
        setup_samples_s=setup_samples,
        raw_metrics=raw,
        rounds=rounds,
        operations=len(durations),
        op_tail_percentile=percentile,
        op_median_s_by_label={k: statistics.median(v) for k, v in by_label.items()},
        op_seconds_raw=durations,
        host_speed=speeds,
    )
    print(f"{len(durations)} operations in {rounds} rounds; op_tail_s is "
          f"p{percentile:.1f} ({TAIL_BEYOND} samples beyond it); median host "
          f"slowdown {statistics.median(speeds):.3f}")
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "trials_per_s": "1/s"}
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}
    metrics["peak_rss_mb"] = metric(peak_mb, "MB")
    return metrics


# ------------------------------------------------------------------ tracing

LAYERS = (
    "statevec.apply_gate", "statevec.StateVector", "statevec.DensityMatrix",
    "statevec.born_probabilities", "statevec.project_onto", "statevec.partial_trace",
    "seeding.derive_seed", "seeding.as_generator", "seeding.draw_index",
    "protocol.TrialEngine.build", "protocol.TrialEngine.run",
    "protocol._haar_unitary", "protocol._decoupling_metrics",
    "channels.apply_local_channel", "channels.random_channel",
    "channels.apply_nonlinear_filter",
    "cli._run_trials", "cli._summarize", "cli._write_document",
)
MODULES = ("statevec", "seeding", "protocol", "channels", "cli", "verify", "op")


def per_layer(args, workload, loop, details):
    import numpy as np

    import tracing
    from realitysteer import cli

    ops = workload.ops
    loop.calibrate()
    loop.run_op(0, ops[0], None)
    plain, plain_speeds, rounds = loop.rounds(seconds=args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced, traced_speeds, _ = loop.rounds(count=rounds, tracer=tracer)
    finally:
        tracer.uninstall()

    name_id, op, duration, self_time = tracer.self_times()
    names = np.array(tracer.names)
    in_ops = op >= 0
    calls = dict(zip(names, np.bincount(name_id[in_ops], minlength=len(names))))
    self_s = dict(zip(names, np.bincount(
        name_id[in_ops], weights=self_time[in_ops], minlength=len(names))))
    op_time = float(duration[in_ops & (name_id == tracer.names.index("op"))].sum())

    metrics = {}

    def per_round(name, value, unit):
        metrics[name] = metric(float(value) / rounds, unit)

    def summed(prefix, table):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    for layer in LAYERS:
        per_round(f"{layer}.calls", summed(layer, calls), "count")
        per_round(f"{layer}.self_s", summed(layer, self_s), "s")
    for bucket in ("k0", "k1", "k2plus"):
        per_round(f"protocol._decoupling_metrics.{bucket}.self_s",
                  self_s.get(f"protocol._decoupling_metrics.{bucket}", 0.0), "s")
    for kind in tracing.GATE_KINDS:
        for low, high in tracing.GATE_WIDTHS:
            name = f"statevec.apply_gate.{kind}.n{low}-{high}.calls"
            per_round(name, tracer.counts[name], "count")
    per_round("statevec.apply_gate.bytes", tracer.counts["statevec.apply_gate.bytes"], "B-computed")
    per_round("cli._write_document.bytes", tracer.counts["cli._write_document.bytes"], "B")
    for check in tracing.CHECK_FUNCTIONS:
        per_round(f"verify.check.{check}.self_s", self_s.get(f"verify.check.{check}", 0.0), "s")
    plain_s = sum(d / s for d, s in zip(plain, plain_speeds))
    traced_s = sum(d / s for d, s in zip(traced, traced_speeds))
    metrics["trace.overhead_frac"] = metric(1.0 - plain_s / traced_s, "fraction")
    shares = {
        module: sum(v for k, v in self_s.items() if k.split(".")[0] == module) / op_time
        for module in MODULES
    }
    print("self-time share of operation time: " + ", ".join(
        f"{module} {share:.3f}" for module, share in shares.items()))

    # Parsing happens in set-up, outside the operations: trace one fresh parse.
    config_paths = sorted(Path(loop.workdir).glob("config*.json"))
    tracer_setup = tracing.Tracer()
    tracing.install(tracer_setup)
    try:
        tracer_setup.run_op(-1, lambda: [cli.parse_config(str(p)) for p in config_paths])
    finally:
        tracer_setup.uninstall()
    s_name, _, _, s_self = tracer_setup.self_times()
    parse = np.array(tracer_setup.names)[s_name] == "cli.parse_config"
    metrics["cli.parse_config.calls"] = metric(float(parse.sum()), "count")
    metrics["cli.parse_config.self_s"] = metric(float(s_self[parse].sum()), "s")

    metrics["cli._run_trials.pool_speedup"] = metric(pool_speedup(workload, loop), "ratio")
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(str(spans_path))
    details.update(rounds=rounds, spans_file=str(spans_path.relative_to(ROOT)),
                   spans_per_round=float(in_ops.sum()) / rounds, self_share=shares,
                   untraced_s=plain_s, traced_s=traced_s)
    return metrics


def pool_speedup(workload, loop):
    """Serial over two-process time for one 50k-trial ensemble (ensemble
    workload only; 0 elsewhere).  Not gated: on two shared cores it varies by
    more than a tenth from run to run."""
    from realitysteer import cli

    if workload.name != "ensemble":
        return 0.0
    scenario = workload.ops[0].config.scenario
    serial, pooled = [], []
    for _ in range(2):
        start = time.perf_counter()
        one = cli._run_trials(scenario, POOL_TRIALS, 1)
        serial.append(time.perf_counter() - start)
        start = time.perf_counter()
        two = cli._run_trials(scenario, POOL_TRIALS, 2)
        pooled.append(time.perf_counter() - start)
        if one != two:
            loop.problems.append("two-process ensemble differs from the serial one")
    return statistics.median(serial) / statistics.median(pooled)


# --------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble", "wide_register", "decoupling", "verify"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def compare_reference(args, loop, details):
    if args.seed != DEFAULT_SEED or not REFERENCE_DIGESTS.is_file():
        return
    reference = json.loads(REFERENCE_DIGESTS.read_text()).get(args.workload)
    same = reference == loop.digests
    details["digests_match_reference"] = same
    print(f"payload digests {'match' if same else 'DIFFER from'} "
          f"{REFERENCE_DIGESTS.relative_to(ROOT)}")


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except (BenchmarkError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, str(workdir))
        if args.setup_only:
            return 0
        loop = Loop(workload, workdir)
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": environment(), "notes": workload.notes}
        try:
            measure = per_layer if args.trace else end_to_end
            metrics = measure(args, workload, loop, details)
        finally:
            loop.close()
        details.update(
            operations_per_round=[op.label for op in workload.ops],
            payload_digests=loop.digests,
            problems=loop.problems,
        )
        compare_reference(args, loop, details)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    details["metrics"] = metrics
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    for problem in loop.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
