"""Pinned report payloads: every shipped config, run through the CLI layer,
serializes to the same bytes.

A refactor that keeps these digests keeps every report payload byte for
byte.  A change that alters a payload on purpose re-pins the digest and
says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from realitysteer import protocol, statevec
from realitysteer.cli import (
    RunConfig,
    canonical_payload_bytes,
    cmd_run,
    cmd_sweep,
    cmd_verify,
    parse_config,
)
from realitysteer.verify import DEFAULT_SEED

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Trial-count overrides that keep the test fast; other configs run as shipped.
TRIALS = {"decoupling_sweep.json": 2}

DIGESTS = {
    "biased_tagged_run.json": "8a3ab77ad7fde60bc812b3ed3d71efde550d95794d726c3f8786abf9eabe66fe",
    "canonical_run.json": "e4c77dbc72d067ab72406d78d0a4b7f89da7835496a1b289181059b149db2a2f",
    "decoupling_sweep.json": "588d13d16748e038104f0133849cb7f7abc08dc71459236643b06132bb93181d",
    "env_sweep.json": "55caacd62ef93cf6e85f75b2b248f8357383a6e5bade84ce4688d393e4ecac87",
    "lambda_sweep.json": "9cf7adf7a07fdcff6107229e8de78bee0f702e1bd3ec1f08361b2c574122acc8",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_payload_digest(name, tmp_path):
    config = parse_config(str(CONFIG_DIR / name))
    command = cmd_run if isinstance(config, RunConfig) else cmd_sweep
    out = tmp_path / "report.json"
    assert command(config, out=str(out), trials=TRIALS.get(name)) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == DIGESTS[name]


# The full verify suite at the default seed.  Its no_signalling check traces
# post-channel density matrices in stacked batches, with the einsum that
# partial_trace uses on a DensityMatrix; no report path calls that branch.
VERIFY_DIGEST = "daab7f229a761880a7a64030f06f5721c18fc3cac436fe33d3d796368e0d005f"


def test_verify_payload_digest(tmp_path):
    out = tmp_path / "verify.json"
    assert cmd_verify(("all",), DEFAULT_SEED, out=str(out)) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == VERIFY_DIGEST


# Per-trial payloads.  No shipped config sets ``emit_per_trial``, so these
# runs switch it on: a shipped config read and changed in place, and a
# four-branch tagged dead_only run.  They pin every ``per_trial`` row.
FOUR_BRANCH_RUN = {
    "scenario": {
        "num_alive": 2,
        "num_dead": 2,
        "weights": [0.5, 0.5, [0.3, 0.4], [0.0, -0.5]],
        "env_qubits": 2,
        "encoding": "tagged",
        "participation": "dead_only",
        "rng_seed": 11,
    },
    "num_trials": 3000,
}
PER_TRIAL_RUNS = {
    "biased_tagged_run.json": json.loads((CONFIG_DIR / "biased_tagged_run.json").read_text()),
    "four_branch_tagged_dead_only": FOUR_BRANCH_RUN,
}
PER_TRIAL_DIGESTS = {
    "biased_tagged_run.json": "855bc719e4a72c5bb981023462fd371c3bedf50ad11711bfeb7bd9474931a12c",
    "four_branch_tagged_dead_only": "cba724fc22a2e5d8ea0b20d000af9d1e351c1b9e2076f6709e092b9fafbb086c",
}


@pytest.mark.parametrize("name", sorted(PER_TRIAL_DIGESTS))
def test_per_trial_payload_digest(name, tmp_path):
    path = tmp_path / "config.json"
    document = dict(PER_TRIAL_RUNS[name], emit_per_trial=True)
    path.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cmd_run(parse_config(str(path)), out=str(out)) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
    assert len(payload["per_trial"]) == document["num_trials"]
    assert hashlib.sha256(canonical_payload_bytes(payload)).hexdigest() == PER_TRIAL_DIGESTS[name]


def test_every_config_is_pinned():
    assert sorted(path.name for path in CONFIG_DIR.glob("*.json")) == sorted(DIGESTS)


# Layouts, stages and compiled relabellings are cached per register shape.
SHAPE_CACHES = {"_shape_layout", "_observe_stage", "_spread_stage", "_clinic_stage",
                "_conditional_clinic_stage", "_rewrite_stage", "_cached_permutation_pairs"}


@pytest.mark.parametrize("name, shapes", [("env_sweep.json", 3), ("lambda_sweep.json", 1)])
def test_warm_and_cold_caches_give_the_same_bytes(name, shapes, tmp_path):
    """A sweep run with every shape cache cleared, then again with the caches
    filled: ``env_sweep.json`` has a new shape at every point,
    ``lambda_sweep.json`` one shape at every point."""
    caches = {key: value for module in (protocol, statevec)
              for key, value in vars(module).items() if hasattr(value, "cache_clear")}
    assert set(caches) == SHAPE_CACHES
    config = parse_config(str(CONFIG_DIR / name))
    for cache in caches.values():
        cache.cache_clear()
    payloads, layouts_built = [], []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.json"
        assert cmd_sweep(config, out=str(out)) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
        payloads.append(canonical_payload_bytes(payload))
        layouts_built.append(protocol._shape_layout.cache_info().misses)
    # The cold run laid out each shape once; the warm run laid out none.
    assert layouts_built == [shapes, shapes]
    assert payloads[0] == payloads[1]
    assert hashlib.sha256(payloads[0]).hexdigest() == DIGESTS[name]
