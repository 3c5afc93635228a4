"""``TrialEngine`` against its dense oracle, bit for bit.

The engine runs its pipeline on a ``BasisState``;
``conftest.dense_engine_tables`` runs the same pipeline on a dense
``StateVector`` through the public stage functions, and takes the brain
state as a full exact Gram matrix.  Every table, the brain purity and the
brain entropy must agree as ``float.hex`` strings, so no report byte can
tell the two apart.  That holds because every sum the engine takes either
holds one nonzero term or is exactly rounded, and an exactly rounded sum of
the stored terms equals the same sum over the whole dense array, zeros and
all, in any order.
"""

import math

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
    # An exactly rounded norm: np.linalg.norm's would depend on the BLAS kernel.
    norm = math.sqrt(math.fsum((weights.real**2 + weights.imag**2).tolist()))
    return Scenario(
        branch_structure=BranchStructure(num_alive, num_dead, weights / norm),
        env_qubits=env_qubits, encoding=encoding, observe_variant=variant,
        participation=participation, nonlinear_lambda=lambda_ if filtered else None,
    )


def max_env_qubits(num_branches, encoding, budget):
    """The most environment copies a register of ``budget`` qubits has room for."""
    width = max(1, (num_branches - 1).bit_length())
    # C, B (+ its written flag), (Af,) A and F around the environment copies.
    fixed = 3 * width + 1 + 2 * (encoding is RecordEncoding.TAGGED)
    return (budget - fixed) // width


@st.composite
def oracle_scenarios(draw):
    num_alive, num_dead = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    encoding = draw(st.sampled_from(RecordEncoding))
    top = min(MAX_ENV, max_env_qubits(num_alive + num_dead, encoding, DENSE_BUDGET))
    try:
        return phased_scenario(
            num_alive, num_dead,
            weight_seed=draw(st.integers(0, 2**32 - 1)),
            zero=draw(st.none() | st.integers(0, num_alive + num_dead - 1)),
            encoding=encoding,
            participation=draw(st.sampled_from(Participation)),
            variant=draw(st.sampled_from("abc")),
            env_qubits=draw(st.integers(1, top)),
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


# Each example fails when one exactly rounded reduction goes back to an
# order-dependent numpy form, in the engine alone or in the helper both sides
# share: the projection weight as ``np.sum`` (post_probs move), the filter
# norm as ``np.linalg.norm`` (post_probs move), and the brain diagonal as a
# ``bincount`` or BLAS ``vdot`` of each value's amplitudes (purity and entropy
# move).
@settings(max_examples=150, deadline=None)
@given(scenario=oracle_scenarios())
@example(scenario=phased_scenario(3, 3, 1342949110, 2, TAGGED, DEAD_ONLY, "b", 1, None))
@example(scenario=phased_scenario(1, 1, 4284281754, None, PLAIN, ALL, "c", 2, 1.3780462788696664))
@example(scenario=phased_scenario(3, 1, 1802076932, 0, PLAIN, ALL, "a", 2, None))
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
        lambda layout, num_alive, num_dead, participation, encoding:
        build(layout, num_alive, num_dead, ALL, encoding),
    )


def _write_the_wrong_record(monkeypatch):
    build = protocol._rewrite_stage

    def wrong(layout, encoding):
        stage = build(layout, encoding)
        return stage._replace(gates=(*stage.gates, GateSpec.x(layout.qubits("B")[-1])))

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


def test_brain_state_refuses_amplitudes_that_share_a_cat_value(monkeypatch):
    """The diagonal brain state rests on every branch keeping its own cat
    value; an erase that writes the record back into C breaks that."""
    build = protocol._clinic_stage

    def onto_the_cat(layout, encoding):
        stage = build(layout, encoding)
        back = GateSpec.cnot(layout.qubits("A")[0], layout.qubits("C")[0])
        return stage._replace(gates=(*stage.gates, back))

    monkeypatch.setattr(protocol, "_clinic_stage", onto_the_cat)
    with pytest.raises(AssertionError, match="share a cat value"):
        TrialEngine(PLAIN_TWO)
