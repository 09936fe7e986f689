"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: the library is not edited.
``Tracer.installed()`` substitutes attributes for the duration of a block,
patching each callable where its callers look it up (``game.py`` imports
``draw_partition``, ``compile_ops`` and friends by name, so those are patched
on the ``game`` module; methods are patched on their class).

A span holds its name, start, end, parent span and trial id.  Self time is a
span's duration minus the time covered by its child spans.  No layer has a
queue or a worker thread, so there is no waiting time to record.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import Counter

from qdepthlab import game, gadgets, hybrid, ntcf, oracles, qsim


def _round_span(args, kwargs):
    round_type = kwargs.get("round_type", args[2] if len(args) > 2 else None)
    short = {"computation": "comp"}.get(round_type.value, round_type.value)
    return f"game.round.{short}"


def _map_basis_items(args, result):
    return len(args[0].support)


def _partition_pairs(args, result):
    part, _ = result
    return len(part.data_block) + len(part.return_block) + len(part.pool)


# every module that imported qsim.measure, under the name it uses
_MEASURE_NAMES = [(qsim, "measure"), (game, "qsim_measure"),
                  (oracles, "qsim_measure"), (ntcf, "qsim_measure"),
                  (hybrid, "measure"), (gadgets, "measure")]


# (owner, attribute, span name or name function, optional (counter, fn))
PATCHES = [
    (qsim.SparseState, "apply_gate", "qsim.sparse_gate", None),
    (qsim.SparseState, "apply_hadamard_wall", "qsim.hadamard_wall", None),
    (qsim.SparseState, "map_basis", "qsim.map_basis",
     ("qsim.map_basis.items", _map_basis_items)),
    # a full Born-rule measurement of a sparse state (the dCQ read-out)
    (qsim.SparseState, "sample_index", "qsim.measure", None),
    (qsim.StateVector, "apply_gate", "qsim.dense_gate", None),
    *[(owner, name, "qsim.measure", None) for owner, name in _MEASURE_NAMES],
    (oracles.KeyedPermutation, "eval", "oracles.perm_eval", None),
    (oracles.KeyedPermutation, "invert", "oracles.perm_eval", None),
    (oracles, "solve_hidden_shift", "oracles.gf2", None),
    (game, "solve_hidden_shift", "oracles.gf2", None),
    (hybrid.HybridSession, "charge_layers", "hybrid.charge", None),
    (hybrid.HybridSession, "finish", "hybrid.finish", None),
    (game, "compile_ops", "gadgets.compile_ops", None),
    (game, "update_keys", "gadgets.update_keys", None),
    (game.ProverA, "begin", "game.prover_begin", None),
    (game.ProverA, "final_answer", "game.final_answer", None),
    (game, "draw_partition", "game.partition",
     ("game.partition.pool_pairs", _partition_pairs)),
    (game.GameRun, "run_round", _round_span, None),
    (game.GameRun, "run_rigid", "game.rigid", None),
    (game, "rigid_verdict", "game.rigid_verdict", None),
    (ntcf, "samp_state", "ntcf.samp_state", None),
    (ntcf, "gen", "ntcf.gen", None),
]


class NullTracer:
    """Stands in for the tracer in untraced runs: records nothing."""

    trial = -1

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    """Records spans and counters for one block of trials at a time."""

    def __init__(self):
        self.trial = -1
        self._stack = []          # open spans: [name, start_ns, child_ns, index]
        self.reset()

    def reset(self):
        """Start a new block: clear spans, per-name totals and counters."""
        self.spans = []           # (name, start_ns, end_ns, parent, trial)
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()

    # -- recording ------------------------------------------------------------

    def _enter(self, name):
        index = len(self.spans)
        self.spans.append(None)   # filled on exit, keeps start order
        self._stack.append([name, time.perf_counter_ns(), 0, index])

    def _exit(self):
        end = time.perf_counter_ns()
        name, start, child_ns, index = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (name, start, end, parent, self.trial)
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns

    @contextlib.contextmanager
    def span(self, name):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, name, value):
        self.counters[name] += value

    def _wrap(self, fn, name, counter):
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            self._enter(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of PATCHES for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in PATCHES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Write the current block's spans as gzipped columnar JSON."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "trial"],
            "spans": [[ids[s[0]], *s[1:]] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
