"""Depth accounting for hybrid quantum-classical provers.

Two scheme kinds are supported, after the hybrid models of Chia, Chung and
Lai, and a ``HybridSession`` has one call that runs quantum depth in each:

* dQC keeps quantum registers alive and interleaves classical computation
  between single-depth layers; only the cumulative layer count is bounded.
  ``layer(states, op, note)`` applies one depth-1 layer to every register.
* dCQ lets classical code invoke bounded-depth circuits polynomially many
  times, every qubit measured in the computational basis after each
  invocation.  ``invoke(circuit)`` runs a ``StepCircuit`` on a fresh
  register; it takes no input state, so none crosses an invocation.

Budget enforcement is fail-fast: a violating layer or invocation aborts
before any of it runs.

Every dQC layer enters the trace through ``charge_layers(layers, note)``:
``layer`` charges its one layer there before its op runs, and a caller
declares there the depth the lab does not simulate, each note saying why.
Its direct call sites:

* ``game.ProverA``: each query's layer, which ``query_round`` pays before
  it measures the pool (pool rotations and Bell measurements are drawn as
  coins); the opening layer in gadget fidelity (no instances are simulated);
  the random-answer strategy's closing wall (it never measures its
  instances, and the seeded digests of A's final supports record them
  without the wall).
* ``ntcf.HonestProver``: the claw block ``D0_DEFAULT``, into which round 1's
  basis slot is folded, and each later round's basis slot (the basis is
  applied by the measurement that reads the answer).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DepthBudgetExceeded, QDepthError, SchemeViolation
from .qsim import SparseState
# unused here; kept because bench/tracer.py patches ``hybrid.measure``
from .qsim import measure  # noqa: F401

DCQ = "dCQ"
DQC = "dQC"


@dataclass
class TraceStep:
    kind: str                      # "classical" | "quantum"
    name: str = ""
    layers: int = 0
    full_measurement: bool = False

    def to_json(self):
        if self.kind == "classical":
            return {"type": "classical", "name": self.name}
        return {
            "type": "quantum",
            "layers": self.layers,
            "full_measurement": self.full_measurement,
        }


@dataclass
class HybridTrace:
    scheme_kind: str
    budget: int
    steps: list = field(default_factory=list)

    def total_quantum_layers(self) -> int:
        return sum(s.layers for s in self.steps if s.kind == "quantum")

    def quantum_steps(self):
        return [s for s in self.steps if s.kind == "quantum"]

    def validate(self):
        """Check the scheme invariants; raises SchemeViolation on failure."""
        if self.scheme_kind == DCQ:
            for s in self.quantum_steps():
                if s.layers > self.budget:
                    raise SchemeViolation("dCQ invocation deeper than budget")
                if not s.full_measurement:
                    raise SchemeViolation("dCQ quantum step lacks full measurement")
        elif self.scheme_kind == DQC:
            if self.total_quantum_layers() > self.budget:
                raise SchemeViolation("dQC cumulative layer count over budget")
        else:
            raise SchemeViolation(f"unknown scheme kind {self.scheme_kind!r}")
        return self

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.scheme_kind,
                "budget": self.budget,
                "steps": [s.to_json() for s in self.steps],
            }
        )


class StepCircuit:
    """A dCQ circuit given as depth-1 steps, each a ``state -> state`` callable.

    The steps draw no randomness, so they prepare the same pre-measurement
    state on every invocation.  The state and its Born table (the indices
    and cumulative distribution ``SparseState.born_distribution`` gives) are
    both built once per circuit, on first use, and never mutated afterwards.
    """

    def __init__(self, steps, num_qubits):
        self.steps = steps
        self.num_qubits = num_qubits
        self._state = None
        self._born = None

    @property
    def depth(self):
        return len(self.steps)

    def prepared_state(self) -> SparseState:
        """The state the steps prepare from |0...0>, built on first use."""
        if self._state is None:
            state = SparseState.from_bits([0] * self.num_qubits)
            for step in self.steps:
                state = step(state)
            self._state = state
        return self._state

    def born_table(self):
        """``prepared_state().born_distribution()``, built on first use."""
        if self._born is None:
            self._born = self.prepared_state().born_distribution()
        return self._born


class HybridSession:
    """Mutable execution context charging quantum layers against a budget."""

    def __init__(self, scheme_kind, budget, rng):
        if budget < 0:
            raise QDepthError("budget must be nonnegative")
        self.scheme_kind = scheme_kind
        self.budget = budget
        self.rng = rng
        self.trace = HybridTrace(scheme_kind, budget)
        self._current_quantum = None

    def classical(self, name):
        self._current_quantum = None
        self.trace.steps.append(TraceStep("classical", name=name))

    def charge_layers(self, layers, note=""):
        """Add ``layers`` to the open quantum step, named by ``note``.

        Every dQC layer enters the trace here: each one ``layer`` runs, and
        depth the lab does not simulate, declared directly with a note that
        says why.  The dQC budget is checked first, so an over-budget charge
        changes nothing.
        """
        if self.scheme_kind == DQC:
            if self.trace.total_quantum_layers() + layers > self.budget:
                raise DepthBudgetExceeded(
                    f"dQC budget {self.budget} exceeded at layer "
                    f"{self.trace.total_quantum_layers() + layers}"
                )
        if layers:
            if self._current_quantum is None:
                self._current_quantum = TraceStep("quantum")
                self.trace.steps.append(self._current_quantum)
            self._current_quantum.layers += layers
        # with no layer charged there may be no open quantum step to name
        if note and self._current_quantum is not None:
            self._current_quantum.name = note

    def layer(self, states, op, note=""):
        """dQC: apply one depth-1 layer ``op`` to every register in ``states``.

        ``op`` is a ``state -> state`` callable acting in place; the
        registers are disjoint, so the layer costs 1 however many there are.
        The layer is charged through ``charge_layers``, so the budget is
        checked before ``op`` touches any register.
        """
        if self.scheme_kind != DQC:
            raise SchemeViolation("layer is only available in dQC sessions")
        self.charge_layers(1, note)
        for st in states:
            op(st)

    def invoke(self, circuit: StepCircuit):
        """dCQ: run ``circuit`` on a fresh |0...0> register, measure every qubit.

        The depth is checked against the budget before any step runs.  Each
        invocation is charged ``circuit.depth`` layers in its own fully
        measured trace step and sampled by its own Born-rule draw
        (``SparseState.sample_index``); the state it samples and that state's
        Born table are both built once per circuit (see ``StepCircuit``).
        Returns the measured basis index, qubit 0 most significant.
        """
        if self.scheme_kind != DCQ:
            raise SchemeViolation("invoke is only available in dCQ sessions")
        if circuit.depth > self.budget:
            raise DepthBudgetExceeded(
                f"circuit depth {circuit.depth} over dCQ budget {self.budget}"
            )
        state = circuit.prepared_state()
        self.trace.steps.append(
            TraceStep("quantum", layers=circuit.depth, full_measurement=True)
        )
        return state.sample_index(self.rng, circuit.born_table())

    def finish(self):
        self._current_quantum = None
        self.trace.validate()
        return self.trace


def audited_depth(trace: HybridTrace) -> int:
    """The quantum depth a trace certifies.

    For dQC this is the cumulative layer count; for dCQ it is the deepest
    single invocation (invocations may repeat polynomially many times).
    """
    if trace.scheme_kind == DQC:
        return trace.total_quantum_layers()
    steps = trace.quantum_steps()
    return max((s.layers for s in steps), default=0)
