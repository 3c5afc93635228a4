"""Engine tables depend on the amplitudes alone.

Steering acts on the observer's memory, never on the environment, "which
may be cosmically large".  Neither the number of environment copies nor the
BLAS kernel changes an amplitude, so neither may change a bit of what
``TrialEngine`` reports.  Run as a script, this module prints
:func:`blas_tables` as JSON, for the subprocess test below.
"""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from realitysteer import Participation, RecordEncoding, TrialEngine
from realitysteer.protocol import MAX_QUBITS
from test_engine_oracle import _bits, engine_tables, max_env_qubits, phased_scenario

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("participation", Participation)
@pytest.mark.parametrize("encoding", RecordEncoding)
def test_engine_tables_do_not_depend_on_the_environment_size(encoding, participation):
    for weight_seed, (num_alive, num_dead, zero) in enumerate([(1, 1, None), (2, 1, None),
                                                                (1, 3, None), (3, 3, 4)]):
        top = max_env_qubits(num_alive + num_dead, encoding, MAX_QUBITS)
        tables = [
            _bits(engine_tables(TrialEngine(phased_scenario(
                num_alive, num_dead, weight_seed, zero, encoding, participation,
                "abc"[weight_seed % 3], env, 1.7,
            ))))
            for env in range(1, top + 1)
        ]
        assert all(t == tables[0] for t in tables[1:]), (num_alive, num_dead, weight_seed)


def blas_scenarios():
    """Forty phased scenarios over every encoding, participation and
    variant, at seeded register sizes up to the qubit budget."""
    rng = np.random.default_rng(20261019)
    scenarios = []
    for weight_seed in range(40):
        num_alive, num_dead = (int(v) for v in rng.integers(1, 4, 2))
        encoding = list(RecordEncoding)[weight_seed % 2]
        participation = list(Participation)[weight_seed % 3]
        top = max_env_qubits(num_alive + num_dead, encoding, MAX_QUBITS)
        env = int(rng.integers(1, top + 1))
        scenarios.append(phased_scenario(
            num_alive, num_dead, weight_seed, None, encoding, participation,
            "abc"[weight_seed % 3], env, float(rng.uniform(0.5, 2.0)),
        ))
    return scenarios


def _kernel_settings():
    """OpenBLAS settings to compare with this process's: one thread, and on
    x86-64 the Prescott kernel (SSE3), plus Haswell where the CPU has AVX2."""
    settings = [{"OPENBLAS_NUM_THREADS": "1"}]
    if platform.machine().lower() in ("x86_64", "amd64"):
        settings.append({"OPENBLAS_CORETYPE": "Prescott"})
        cpuinfo = Path("/proc/cpuinfo")
        if cpuinfo.is_file() and re.search(r"\bavx2\b", cpuinfo.read_text()):
            settings.append({"OPENBLAS_CORETYPE": "Haswell"})
    return settings


def blas_tables():
    """The tables of :func:`blas_scenarios`, as they read after a JSON trip."""
    return json.loads(json.dumps([_bits(engine_tables(TrialEngine(s))) for s in blas_scenarios()]))


def test_engine_tables_do_not_depend_on_the_blas_kernel():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    settings = _kernel_settings()
    children = [
        subprocess.Popen([sys.executable, __file__], env={**env, **extra},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for extra in settings
    ]
    here = blas_tables()
    assert len(here) == 40
    for extra, child in zip(settings, children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, (extra, err)
        tables = json.loads(out)
        assert tables == here, (extra, [i for i, (a, b) in enumerate(zip(here, tables)) if a != b])


if __name__ == "__main__":
    print(json.dumps(blas_tables()))
