import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import realitysteer
from realitysteer import TrialEngine, cli
from realitysteer.cli import (
    ConfigError,
    RunConfig,
    SweepConfig,
    canonical_payload_bytes,
    cmd_run,
    cmd_sweep,
    main,
    parse_config,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CANONICAL = {
    "scenario": {
        "num_alive": 1,
        "num_dead": 1,
        "env_qubits": 1,
        "encoding": "plain",
        "observe_variant": "a",
        "participation": "all",
        "nonlinear_lambda": None,
        "rng_seed": 42,
    },
    "num_trials": 2000,
}


class TestParseConfig:
    def test_canonical_run_config(self, tmp_path):
        config = parse_config(write_config(tmp_path, "c.json", CANONICAL))
        assert isinstance(config, RunConfig)
        assert config.num_trials == 2000
        assert config.scenario.branch_structure.num_branches == 2
        assert np.allclose(
            np.abs(config.scenario.branch_structure.weights) ** 2, [0.5, 0.5]
        )

    def test_negative_filter_weight_names_key(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"scenario": {"nonlinear_lambda": -1}})
        with pytest.raises(ConfigError, match="nonlinear_lambda"):
            parse_config(path)

    def test_qubit_budget_violation_names_key(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"scenario": {"env_qubits": 27}})
        with pytest.raises(ConfigError, match="env_qubits.*budget"):
            parse_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "scenario": {,}\n}\n')
        with pytest.raises(ConfigError, match=r":2:\d+"):
            parse_config(str(path))

    def test_unknown_scenario_key(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"scenario": {"qubits": 3}})
        with pytest.raises(ConfigError, match="scenario.qubits"):
            parse_config(path)

    def test_weights_normalization_names_key(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"scenario": {"weights": [1.0, 1.0]}})
        with pytest.raises(ConfigError, match="weights"):
            parse_config(path)

    def test_complex_weight_pairs(self, tmp_path):
        payload = {"scenario": {"weights": [[0.0, 0.6], 0.8]}}
        config = parse_config(write_config(tmp_path, "c.json", payload))
        assert config.scenario.branch_structure.weights[0] == 0.6j

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/nowhere.json")

    def test_sweep_config(self, tmp_path):
        payload = {
            "scenario": {"rng_seed": 1},
            "sweep": {"axis": "lambda", "values": [0.5, 1, 2], "trials_per_point": 100},
        }
        config = parse_config(write_config(tmp_path, "s.json", payload))
        assert isinstance(config, SweepConfig)
        assert config.axis == "lambda"
        assert config.values == (0.5, 1, 2)

    def test_sweep_axis_validated(self, tmp_path):
        payload = {"sweep": {"axis": "chaos", "values": [1]}}
        path = write_config(tmp_path, "s.json", payload)
        with pytest.raises(ConfigError, match="sweep.axis"):
            parse_config(path)

    def test_sweep_range_validated(self, tmp_path):
        payload = {"sweep": {"axis": "lambda", "values": [-2.0]}}
        path = write_config(tmp_path, "s.json", payload)
        with pytest.raises(ConfigError, match="lambda values"):
            parse_config(path)

    def test_bool_rejected_for_int_field(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"num_trials": True, "scenario": {}})
        with pytest.raises(ConfigError, match="num_trials"):
            parse_config(path)


class TestCmdRun:
    def test_writes_report_and_summary(self, tmp_path):
        config = parse_config(write_config(tmp_path, "c.json", CANONICAL))
        out = str(tmp_path / "report.json")
        assert cmd_run(config, out=out) == 0
        document = json.loads(Path(out).read_text())
        summary = document["payload"]["summary"]
        assert summary["num_trials"] == 2000
        assert abs(summary["post_outcome_frequencies"]["alive"] - 0.5) < 0.05
        assert summary["memory_consistent_fraction"] == 1.0
        assert "created_utc" in document["metadata"]

    def test_single_trial_reports_are_byte_identical(self, tmp_path):
        payload = dict(CANONICAL, num_trials=1)
        config = parse_config(write_config(tmp_path, "c.json", payload))
        first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cmd_run(config, out=first)
        cmd_run(config, out=second)
        payload_a = json.loads(Path(first).read_text())["payload"]
        payload_b = json.loads(Path(second).read_text())["payload"]
        assert canonical_payload_bytes(payload_a) == canonical_payload_bytes(payload_b)

    def test_zero_weight_filter_is_always_alive(self, tmp_path):
        payload = {
            "scenario": dict(CANONICAL["scenario"], nonlinear_lambda=0.0),
            "num_trials": 500,
        }
        config = parse_config(write_config(tmp_path, "c.json", payload))
        out = str(tmp_path / "report.json")
        cmd_run(config, out=out)
        summary = json.loads(Path(out).read_text())["payload"]["summary"]
        assert summary["post_outcome_frequencies"]["alive"] == 1.0

    def test_parallel_matches_serial(self, tmp_path):
        config = parse_config(write_config(tmp_path, "c.json", CANONICAL))
        serial, parallel = str(tmp_path / "s.json"), str(tmp_path / "p.json")
        cmd_run(config, out=serial, threads=1)
        cmd_run(config, out=parallel, threads=3)
        bytes_serial = canonical_payload_bytes(json.loads(Path(serial).read_text())["payload"])
        bytes_parallel = canonical_payload_bytes(json.loads(Path(parallel).read_text())["payload"])
        assert bytes_serial == bytes_parallel

    def test_per_trial_emission(self, tmp_path):
        payload = dict(CANONICAL, num_trials=25, emit_per_trial=True)
        config = parse_config(write_config(tmp_path, "c.json", payload))
        out = str(tmp_path / "report.json")
        cmd_run(config, out=out)
        document = json.loads(Path(out).read_text())
        assert len(document["payload"]["per_trial"]) == 25
        assert document["payload"]["per_trial"][0]["memory_consistent"] is True

    def test_csv_format(self, tmp_path):
        config = parse_config(write_config(tmp_path, "c.json", CANONICAL))
        out = str(tmp_path / "report.csv")
        cmd_run(config, out=out, fmt="csv", trials=100)
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "quantity,value"
        assert len(lines) > 4

    def test_csv_with_per_trial_writes_the_summary_only(self, tmp_path):
        """A CSV report is the summary table whether or not the config asks
        for per-trial rows."""
        written = []
        for emit_per_trial in (False, True):
            document = dict(CANONICAL, emit_per_trial=emit_per_trial)
            config = parse_config(write_config(tmp_path, "c.json", document))
            out = tmp_path / f"{emit_per_trial}.csv"
            assert cmd_run(config, out=str(out), fmt="csv", trials=100) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        header, *rows = csv.reader(io.StringIO(written[1].decode()))
        assert header == ["quantity", "value"]
        assert [quantity for quantity, _ in rows] == [
            "analytic_post_probabilities", "erased_fraction",
            "mean_brain_entropy_bits", "mean_brain_purity_after_erase",
            "memory_consistent_fraction", "num_trials",
            "post_outcome_frequencies", "pre_outcome_frequencies",
        ]


class TestCmdSweep:
    def test_lambda_sweep_analytic_column(self, tmp_path):
        payload = {
            "scenario": {"rng_seed": 3},
            "sweep": {"axis": "lambda", "values": [0.5, 1, 2], "trials_per_point": 400},
        }
        config = parse_config(write_config(tmp_path, "s.json", payload))
        out = str(tmp_path / "sweep.json")
        assert cmd_sweep(config, out=out) == 0
        rows = json.loads(Path(out).read_text())["payload"]["rows"]
        predicted_dead = [row["analytic_post_probabilities"]["dead"] for row in rows]
        assert np.allclose(predicted_dead, [0.2, 0.5, 0.8], atol=1e-12)

    def test_env_sweep_reports_exact_erasure(self, tmp_path):
        payload = {
            "scenario": {"rng_seed": 3},
            "sweep": {"axis": "env_qubits", "values": [1, 2, 4], "trials_per_point": 50},
        }
        config = parse_config(write_config(tmp_path, "s.json", payload))
        out = str(tmp_path / "sweep.json")
        cmd_sweep(config, out=out)
        rows = json.loads(Path(out).read_text())["payload"]["rows"]
        assert all(row["erase_exact"] for row in rows)
        assert all(abs(row["brain_purity_after_erase"] - 1.0) < 1e-12 for row in rows)

    def test_weight_sweep(self, tmp_path):
        payload = {
            "scenario": {"rng_seed": 3},
            "sweep": {"axis": "weight_c0sq", "values": [0.25, 0.75], "trials_per_point": 200},
        }
        config = parse_config(write_config(tmp_path, "s.json", payload))
        out = str(tmp_path / "sweep.json")
        cmd_sweep(config, out=out)
        rows = json.loads(Path(out).read_text())["payload"]["rows"]
        alive = [row["analytic_post_probabilities"]["alive"] for row in rows]
        assert np.allclose(alive, [0.25, 0.75], atol=1e-12)

    def test_accessible_k_sweep(self, tmp_path):
        payload = {
            "scenario": {"rng_seed": 3},
            "sweep": {
                "axis": "accessible_k",
                "values": [1, 5],
                "trials_per_point": 4,
                "num_record_qubits": 6,
            },
        }
        config = parse_config(write_config(tmp_path, "s.json", payload))
        out = str(tmp_path / "sweep.json")
        cmd_sweep(config, out=out)
        rows = json.loads(Path(out).read_text())["payload"]["rows"]
        assert rows[0]["accessible_k"] == 1
        assert rows[0]["mean_conditional_trace_distance"] > rows[1][
            "mean_conditional_trace_distance"
        ]


def per_trial_run(**scenario):
    return dict(CANONICAL, scenario=dict(CANONICAL["scenario"], **scenario), emit_per_trial=True)


TAGGED = {"encoding": "tagged"}
# Every per-trial run the CLI accepts (plain records need full
# participation), one sweep, and the verify report.
REPORT_CASES = {
    "plain-all": ("run", per_trial_run()),
    "plain-all-lambda": ("run", per_trial_run(nonlinear_lambda=0.5)),
    "tagged-all": ("run", per_trial_run(**TAGGED)),
    "tagged-dead_only": ("run", per_trial_run(**TAGGED, participation="dead_only")),
    "tagged-alive_only": ("run", per_trial_run(**TAGGED, participation="alive_only")),
    "four-branch-tagged-dead_only": (
        "run", per_trial_run(**TAGGED, participation="dead_only", num_alive=2, num_dead=2)
    ),
    "env_qubits-sweep": (
        "sweep", dict(CANONICAL, sweep={"axis": "env_qubits", "values": [1, 2]})
    ),
    "verify": ("verify", None),
}


PER_TRIAL_RUNS = {name: document for name, (command, document) in REPORT_CASES.items()
                  if command == "run"}


def assert_rows_writer_bytes(tmp_path, document, trials):
    """The per-trial array is written from the batch columns; the file equals
    the document rebuilt with ``TrialBatch.rows()`` and serialized whole."""
    config = parse_config(write_config(tmp_path, "c.json", document))
    out = tmp_path / "r.json"
    assert cmd_run(config, out=str(out), trials=trials) == 0
    written = out.read_bytes()
    rebuilt = json.loads(written)
    batch = TrialEngine(config.scenario).run_batch(config.scenario.rng_seed, 0, trials)
    rebuilt["payload"]["per_trial"] = batch.rows()
    assert written == canonical_payload_bytes(rebuilt) + b"\n"


ROWS_PER_WRITE = cli._ROWS_PER_WRITE


@pytest.mark.parametrize("trials", [1, 40, 4000])
@pytest.mark.parametrize("document", PER_TRIAL_RUNS.values(), ids=list(PER_TRIAL_RUNS))
def test_per_trial_bytes_match_the_rows_writer(tmp_path, monkeypatch, document, trials):
    """Chunks of 1 and 3 rows put chunk boundaries inside every ensemble of
    more than one trial; the real chunk size writes each of them at once."""
    for rows_per_write in (1, 3, ROWS_PER_WRITE):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
        assert_rows_writer_bytes(tmp_path, document, trials)


def test_per_trial_bytes_cross_the_real_chunk_size(tmp_path):
    """Three chunks at the real size, the last holding one trial."""
    document = PER_TRIAL_RUNS["four-branch-tagged-dead_only"]
    assert_rows_writer_bytes(tmp_path, document, 2 * ROWS_PER_WRITE + 1)


class TestMainEntry:
    def test_run_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", dict(CANONICAL, num_trials=200))
        out = str(tmp_path / "r.json")
        assert main(["run", path, "--out", out]) == 0
        assert os.path.exists(out)

    def test_verify_single_check(self, capsys):
        assert main(["verify", "--suite", "circuit_equivalence", "--seed", "5"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_unknown_selector(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_verify_unknown_selector_beside_all(self, capsys):
        assert main(["verify", "--suite", "all,bogus"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        assert "PASS" not in captured.out

    def test_csv_report_into_missing_directory(self, tmp_path):
        path = write_config(tmp_path, "c.json", CANONICAL)
        out = tmp_path / "missing" / "r.csv"
        assert main(["run", path, "--format", "csv", "--out", str(out), "--trials", "50"]) == 0
        assert out.read_text().startswith("quantity,value")

    @pytest.mark.parametrize("command, document", REPORT_CASES.values(), ids=list(REPORT_CASES))
    def test_json_report_bytes_are_canonical(self, tmp_path, command, document):
        out = tmp_path / "r.json"
        if command == "verify":
            argv = ["verify"]
        else:
            argv = [command, write_config(tmp_path, "c.json", document), "--trials", "40"]
        assert main([*argv, "--out", str(out)]) == 0
        written = out.read_bytes()
        assert written == canonical_payload_bytes(json.loads(written)) + b"\n"

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"scenario": {"env_qubits": 0}})
        assert main(["run", path]) == 2

    def test_missing_config_file(self):
        assert main(["run", "/nonexistent.json"]) == 2

    def test_run_config_rejected_by_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", CANONICAL)
        assert main(["sweep", path]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {path}: sweep config needs a 'sweep' block\n"

    def test_sweep_config_rejected_by_run(self, tmp_path, capsys):
        path = write_config(tmp_path, "s.json", TestReportBytes.LAMBDA_SWEEP)
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {path}: expected a run config, found a sweep block\n"

    def test_trials_override(self, tmp_path):
        path = write_config(tmp_path, "c.json", CANONICAL)
        out = str(tmp_path / "r.json")
        assert main(["run", path, "--out", out, "--trials", "50"]) == 0
        summary = json.loads(Path(out).read_text())["payload"]["summary"]
        assert summary["num_trials"] == 50

    def test_threads_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REALITY_STEER_THREADS", "2")
        from realitysteer.cli import build_parser

        args = build_parser().parse_args(["run", "x.json"])
        assert args.threads == 2

    def test_verify_report_written(self, tmp_path):
        out = str(tmp_path / "verdicts.json")
        assert main(["verify", "--suite", "nonlinear_witness", "--out", out]) == 0
        document = json.loads(Path(out).read_text())
        assert document["payload"]["verdicts"][0]["passed"] is True

    def test_verify_failure_exits_one(self, monkeypatch, capsys):
        from realitysteer.verify import Verdict
        import realitysteer.cli as cli

        def failing(names, rng_seed):
            return [Verdict("no_signalling", False, 0.2, 1e-10, "injected failure")]

        monkeypatch.setattr(cli, "run_checks", failing)
        assert main(["verify", "--suite", "no_signalling"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestReportBytes:
    """File bytes of the CSV reports, and the table ``sweep`` prints, pinned
    as sha256 digests; ``test_golden.py`` pins only the JSON payloads."""

    LAMBDA_SWEEP = {
        "scenario": {"rng_seed": 3},
        "sweep": {"axis": "lambda", "values": [0.5, 1, 2], "trials_per_point": 400},
    }
    ACCESSIBLE_K_SWEEP = {
        "scenario": {"rng_seed": 3},
        "sweep": {"axis": "accessible_k", "values": [1, 5], "trials_per_point": 4,
                  "num_record_qubits": 6},
    }
    # (config, CSV file digest, printed table digest)
    SWEEPS = {
        "lambda": (
            LAMBDA_SWEEP,
            "d255e5e3ce1688630aadd3ef4517bfa756658814e3e126ce1b910b3cda96f406",
            "f42dacf8cbd8ca2b7c3d1274c59a3cfebed451bb04273190cddd693132c2a190",
        ),
        "accessible_k": (
            ACCESSIBLE_K_SWEEP,
            "26fc68fb266df411a5dd87544d40d3168c8356370ca8b711e0308090a01e5e5b",
            "f7138113b596b04c460d9d0d8df51bc2585a45be13d6922a61f751486df3f79e",
        ),
    }

    @pytest.mark.parametrize("axis", sorted(SWEEPS))
    def test_sweep_csv_bytes(self, axis, tmp_path, capsys):
        document, file_digest, table_digest = self.SWEEPS[axis]
        config = parse_config(write_config(tmp_path, "s.json", document))
        out = tmp_path / "sweep.csv"
        assert cmd_sweep(config, out=str(out), fmt="csv") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == file_digest
        printed = capsys.readouterr().out
        table, tail = printed.rsplit("report written to ", 1)
        assert tail == f"{out}\n"
        assert hashlib.sha256(table.encode()).hexdigest() == table_digest

    def test_verify_csv_bytes(self, tmp_path, capsys):
        out = tmp_path / "verdicts.csv"
        argv = ["verify", "--suite", "coordination,nonlinear_witness",
                "--format", "csv", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (
            b"check_name,passed,metric,tolerance,details\r\n"
            b"coordination,True,1.0,0.5,\"participation=dead_only: brain entropy after "
            b"the erase in bits; steering blocked, passes ABOVE tolerance\"\r\n"
            b"nonlinear_witness,True,0.3,1e-06,\"filter weight 2.0: cat state moved by "
            b"0.300000 (predicted 0.300000, marginal error 0.00e+00); violation "
            b"witnessed, passes ABOVE tolerance\"\r\n"
        )


class FixedClock:
    """Stands in for ``cli.datetime`` so two writes of one run match byte for byte."""

    @staticmethod
    def now(tz):
        return datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)


class TestReportFiles:
    """Reports written to a device, to a FIFO, and over a longer report by a
    write that fails."""

    PER_TRIAL_4000 = dict(CANONICAL, num_trials=4000, emit_per_trial=True)

    def run(self, tmp_path, document, out, *options):
        path = write_config(tmp_path, "c.json", document)
        assert main(["run", path, "--out", str(out), *options]) == 0

    def test_report_to_dev_null(self, tmp_path):
        self.run(tmp_path, self.PER_TRIAL_4000, os.devnull)
        self.run(tmp_path, CANONICAL, os.devnull, "--format", "csv")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_report_to_a_fifo(self, tmp_path):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        self.run(tmp_path, self.PER_TRIAL_4000, fifo)
        reader.join(timeout=60)
        assert not reader.is_alive()
        document = json.loads(received[0])
        assert len(document["payload"]["per_trial"]) == 4000

    def test_failed_write_leaves_a_prefix_of_the_new_document(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "datetime", FixedClock)
        out, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
        document = dict(CANONICAL, num_trials=40, emit_per_trial=True)
        self.run(tmp_path, document, fresh)
        self.run(tmp_path, self.PER_TRIAL_4000, out)

        def failing(handle, batch):
            raise RuntimeError("injected write failure")

        monkeypatch.setattr(cli, "_write_per_trial", failing)
        config = parse_config(write_config(tmp_path, "c.json", document))
        with pytest.raises(RuntimeError, match="injected"):
            cmd_run(config, out=str(out))
        expected = fresh.read_bytes()
        head = expected[:expected.index(b'"per_trial": ') + len(b'"per_trial": ')]
        assert out.read_bytes() == head


def test_cli_import_leaves_scipy_stats_unloaded():
    """``scipy.stats`` takes about a second to import and only the
    Born-statistics check uses it, so a bare CLI import must not load it."""
    src = os.path.dirname(os.path.dirname(realitysteer.__file__))
    code = "import sys, realitysteer.cli; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()
