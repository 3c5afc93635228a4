"""``TrialEngine`` against its dense oracle, bit for bit.

The engine runs its pipeline on a ``BasisState``;
``conftest.dense_engine_tables`` runs the same pipeline on a dense
``StateVector`` through the public stage functions.  Every table, the brain
purity and the brain entropy must agree as ``float.hex`` strings, so no
report byte can tell the two apart.
"""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from realitysteer import (
    BranchStructure,
    GateSpec,
    Participation,
    RecordEncoding,
    Scenario,
    TrialEngine,
    protocol,
)
from conftest import dense_engine_tables
from test_seeding import ACCEPTED

# The dense oracle costs 2^n per gate: the drawn scenarios stay at <= 16 qubits.
DENSE_BUDGET = 16
MAX_ENV = 4


def phased_scenario(num_alive, num_dead, weight_seed, zero, encoding, participation,
                    variant, env_qubits, lambda_):
    """Seeded magnitudes and phases, the branch ``zero`` (if any) at weight 0.
    ``lambda_`` applies to two-branch full participation only."""
    rng = np.random.default_rng(weight_seed)
    n = num_alive + num_dead
    weights = rng.uniform(0.1, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
    if zero is not None:
        weights[zero] = 0.0
    filtered = n == 2 and participation is Participation.ALL
    return Scenario(
        branch_structure=BranchStructure(num_alive, num_dead, weights / np.linalg.norm(weights)),
        env_qubits=env_qubits, encoding=encoding, observe_variant=variant,
        participation=participation, nonlinear_lambda=lambda_ if filtered else None,
    )


@st.composite
def oracle_scenarios(draw):
    num_alive, num_dead = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    encoding = draw(st.sampled_from(RecordEncoding))
    width = max(1, (num_alive + num_dead - 1).bit_length())
    tagged = encoding is RecordEncoding.TAGGED
    # C, B (+ its written flag), (Af,) A and F around the environment copies.
    fixed = 3 * width + 1 + 2 * tagged
    try:
        return phased_scenario(
            num_alive, num_dead,
            weight_seed=draw(st.integers(0, 2**32 - 1)),
            zero=draw(st.none() | st.integers(0, num_alive + num_dead - 1)),
            encoding=encoding,
            participation=draw(st.sampled_from(Participation)),
            variant=draw(st.sampled_from("abc")),
            env_qubits=draw(st.integers(1, min(MAX_ENV, (DENSE_BUDGET - fixed) // width))),
            lambda_=draw(st.none() | st.floats(0.0, 3.0)),
        )
    except ValueError:  # a zero weight the filter annihilates with lambda = 0
        reject()


def engine_tables(engine):
    """The engine's tables, keyed as ``dense_engine_tables`` keys them."""
    return {
        "pre_probs": engine.pre_probs.tolist(),
        "cat_before": engine.cat_before,
        "brain_purity": engine.brain_purity,
        "brain_entropy": engine.brain_entropy,
        "_ok_stay": engine._ok_stay.tolist(),
        "post_probs": None if engine.post_probs is None else engine.post_probs.tolist(),
        "cat_after_patient": engine.cat_after_patient,
        "_ok_patient": engine._ok_patient.tolist(),
    }


def _bits(value):
    """Floats as hex strings (so -0.0 and 0.0 differ), nested as given."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


TAGGED, PLAIN = RecordEncoding.TAGGED, RecordEncoding.PLAIN
ALL, DEAD_ONLY = Participation.ALL, Participation.DEAD_ONLY


# Each example fails when one of the engine's dense-order reductions is
# replaced by its compact form: the brain state's Gram matrix over the
# occupied columns only (purity and entropy move), the projection weight
# summed over the selected amplitudes only (post_probs move), and the filter
# norm taken over the stored amplitudes only (post_probs move).
@settings(max_examples=150, deadline=None)
@given(scenario=oracle_scenarios())
@example(scenario=phased_scenario(1, 1, 3232562482, None, TAGGED, ALL, "a", 4, 1.3955200993820742))
@example(scenario=phased_scenario(3, 3, 1342949110, 2, TAGGED, DEAD_ONLY, "b", 1, None))
@example(scenario=phased_scenario(1, 1, 3940716773, None, PLAIN, ALL, "c", 1, 1.2111643404836476))
def test_engine_tables_match_dense_oracle(scenario):
    assert _bits(engine_tables(TrialEngine(scenario))) == _bits(dense_engine_tables(scenario))


@pytest.mark.parametrize("encoding, participation, env_qubits", [
    (PLAIN, ALL, 16), (TAGGED, DEAD_ONLY, 14),
], ids=["plain20", "tagged20_dead_only"])
def test_engine_tables_match_dense_oracle_at_20_qubits(encoding, participation, env_qubits):
    scenario = phased_scenario(1, 1, 20261019, None, encoding, participation, "a", env_qubits, None)
    assert _bits(engine_tables(TrialEngine(scenario))) == _bits(dense_engine_tables(scenario))


# The protocol always pins its records, so a working build only ever reads 1
# or -1.  Each fault below breaks one stage on both sides (the dense oracle
# calls the same stage builders), so the "not pinned" reading 0 must agree
# bit for bit and must reach the reports as an inconsistent memory.
def _erase_every_branch(monkeypatch):
    build = protocol._conditional_clinic_stage
    monkeypatch.setattr(
        protocol, "_conditional_clinic_stage",
        lambda layout, structure, participation, encoding: build(layout, structure, ALL, encoding),
    )


def _write_the_wrong_record(monkeypatch):
    build = protocol._rewrite_stage

    def wrong(layout, encoding):
        stage = build(layout, encoding)
        return stage._replace(gates=stage.gates + [GateSpec.x(layout.qubits("B")[-1])])

    monkeypatch.setattr(protocol, "_rewrite_stage", wrong)


PLAIN_TWO = next(s for s in ACCEPTED if s.encoding is PLAIN and s.participation is ALL
                 and s.nonlinear_lambda is None)
TAGGED_FOUR = next(s for s in ACCEPTED if s.branch_structure.num_branches == 4)


@pytest.mark.parametrize("fault, scenario, column, expected", [
    (_erase_every_branch, TAGGED_FOUR, "_ok_stay", [0, 0, -1, -1]),
    (_write_the_wrong_record, PLAIN_TWO, "_ok_patient", [0, 0]),
    (_write_the_wrong_record, TAGGED_FOUR, "_ok_patient", [-1, -1, 0, 0]),
], ids=["erase_every_branch", "wrong_record_plain", "wrong_record_tagged"])
def test_unpinned_records_match_dense_oracle(monkeypatch, fault, scenario, column, expected):
    fault(monkeypatch)
    engine = TrialEngine(scenario)
    tables = engine_tables(engine)
    assert _bits(tables) == _bits(dense_engine_tables(scenario))
    assert tables[column] == expected
    batch = engine.run_batch(scenario.rng_seed, 0, 2000)
    reads = np.where(batch.erased, engine._ok_patient[batch.post], engine._ok_stay[batch.pre])
    assert (reads == 0).any()
    assert not batch.consistent[reads == 0].any()
    assert batch.consistent[reads == 1].all()
