"""Span tracer that wraps the simulator's entry points from outside the package.

Each wrapped function records one span: name, start, end, parent span and
the operation id the benchmark set.  Spans live in flat in-memory arrays
and are written once, when the benchmark ends.  A span's self time is its
duration minus the time its child spans cover; calls are strictly nested
because the benchmark drives the program from one thread.

Wrappers are installed at the names callers look up: a function imported by
name into another module (``protocol`` does ``from .statevec import
apply_gate``) is replaced in every ``realitysteer`` module that holds it, and
a method is replaced on its class.  ``uninstall`` restores the originals.
"""

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

GATE_WIDTHS = ((1, 8), (9, 14), (15, 18), (19, 22))
GATE_KINDS = ("x", "cnot", "controlled-u")


def width_bucket(num_qubits: int) -> str:
    for low, high in GATE_WIDTHS:
        if low <= num_qubits <= high:
            return f"n{low}-{high}"
    return "n23plus"


def k_bucket(accessible: int) -> str:
    return f"k{accessible}" if accessible < 2 else "k2plus"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = Counter()
        self.active = False
        self.op_id = -1
        self._stack = [-1]
        self._patches = []
        self._op_span = self.wrap("op", lambda fn: fn())

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span.

        ``before(args)`` may return a more specific span name and record
        counts; ``after(args, result)`` records counts from the result.
        """
        clock = time.perf_counter_ns
        nid_default = self._id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            nid = nid_default
            if before is not None:
                specific = before(args)
                if specific is not None:
                    nid = self._id(specific)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.end.append(0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("realitysteer"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, before, after))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` traced, under a root span ``op`` tagged with ``op_id``.

        Wrapped functions record spans only inside this call, so checks the
        benchmark runs between operations stay out of the trace.
        """
        self.op_id = op_id
        self.active = True
        try:
            return self._op_span(fn)
        finally:
            self.active = False
            self.op_id = -1

    # ------------------------------------------------------------------ results

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def self_times(self):
        """Per span: name id, operation id, duration and self time in seconds."""
        name_id, parent, op, start, end = self.arrays()
        duration = (end - start).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return name_id, op, duration, duration - child

    def write(self, path: str):
        name_id, parent, op, start, end = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            op=op,
            start_ns=start,
            end_ns=end,
        )


def install(tracer: Tracer):
    """Wrap every layer entry point the per-layer metrics name."""
    from realitysteer import channels, cli, protocol, seeding, statevec, verify

    def gate_counts(args):
        state, gate = args[0], args[1]
        n = state.num_qubits
        tracer.counts[f"statevec.apply_gate.{gate.kind}.{width_bucket(n)}.calls"] += 1
        # Computed, not measured: one read and one write of the 16-byte
        # complex amplitudes per call.
        tracer.counts["statevec.apply_gate.bytes"] += 2 * 16 * 2**n
        return None

    def metrics_by_k(args):
        return f"protocol._decoupling_metrics.{k_bucket(int(args[3]))}"

    def document_bytes(args, result):
        tracer.counts["cli._write_document.bytes"] += os.path.getsize(args[1])

    tracer.patch_function(statevec, "apply_gate", "statevec.apply_gate", before=gate_counts)
    for attr in ("born_probabilities", "project_onto", "partial_trace"):
        tracer.patch_function(statevec, attr, f"statevec.{attr}")
    tracer.patch_method(statevec.StateVector, "__post_init__", "statevec.StateVector")
    tracer.patch_method(statevec.DensityMatrix, "__post_init__", "statevec.DensityMatrix")
    for attr in ("derive_seed", "as_generator", "draw_index"):
        tracer.patch_function(seeding, attr, f"seeding.{attr}")
    tracer.patch_method(protocol.TrialEngine, "__init__", "protocol.TrialEngine.build")
    tracer.patch_method(protocol.TrialEngine, "run", "protocol.TrialEngine.run")
    tracer.patch_function(protocol, "_haar_unitary", "protocol._haar_unitary")
    tracer.patch_function(
        protocol, "_decoupling_metrics", "protocol._decoupling_metrics", before=metrics_by_k
    )
    for attr in ("apply_local_channel", "random_channel", "apply_nonlinear_filter"):
        tracer.patch_function(channels, attr, f"channels.{attr}")
    tracer.patch_function(cli, "parse_config", "cli.parse_config")
    tracer.patch_function(cli, "_write_document", "cli._write_document", after=document_bytes)
    tracer.patch_function(cli, "_run_trials", "cli._run_trials")
    tracer.patch_function(cli, "_summarize", "cli._summarize")
    for check in CHECK_FUNCTIONS:
        tracer.patch_function(verify, CHECK_FUNCTIONS[check], f"verify.check.{check}")


CHECK_FUNCTIONS = {
    "circuit_equivalence": "check_circuit_equivalence",
    "no_signalling": "check_no_signalling",
    "indistinguishability": "check_indistinguishability",
    "coordination": "check_coordination",
    "nonlinear_witness": "check_nonlinear_witness",
    "born_statistics": "born_statistics_test",
}
