"""Depth accounting for hybrid quantum-classical provers.

Two scheme kinds are supported.  A dCQ scheme lets classical code invoke
bounded-depth quantum circuits polynomially many times, with every qubit
measured in the computational basis after each invocation.  A dQC scheme
keeps one quantum state alive and interleaves classical computation between
single-depth layers; only the cumulative layer count is bounded.

Budget enforcement is fail-fast: a violating layer aborts before it runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DepthBudgetExceeded, QDepthError, SchemeViolation
from .qsim import LayeredCircuit, SparseState, StateVector, apply_layer, measure

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

    def as_dqc_view(self) -> "HybridTrace":
        """Reinterpret a dCQ trace in the dQC format.

        Full-register measurements are a special case of partial ones, so the
        steps carry over verbatim.  The budget of the view is the cumulative
        layer count (a multi-invocation dCQ run uses more total layers than
        any single invocation).
        """
        if self.scheme_kind != DCQ:
            raise SchemeViolation("only dCQ traces can be reinterpreted")
        budget = max(self.budget, self.total_quantum_layers())
        return HybridTrace(DQC, budget, list(self.steps))

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.scheme_kind,
                "budget": self.budget,
                "steps": [s.to_json() for s in self.steps],
            }
        )


class HybridSession:
    """Mutable execution context charging quantum layers against a budget."""

    def __init__(self, scheme_kind, budget, rng, support_cap=None):
        if budget < 0:
            raise QDepthError("budget must be nonnegative")
        self.scheme_kind = scheme_kind
        self.budget = budget
        self.rng = rng
        self.trace = HybridTrace(scheme_kind, budget)
        self.state = None
        self._support_cap = support_cap
        self._current_quantum = None

    # -- shared bookkeeping -------------------------------------------------

    def classical(self, name):
        self._flush_quantum()
        self.trace.steps.append(TraceStep("classical", name=name))

    def _flush_quantum(self, full_measurement=False):
        if self._current_quantum is not None:
            self._current_quantum.full_measurement = full_measurement
            self._current_quantum = None

    def _charge(self, layers):
        if self.scheme_kind == DQC:
            if self.trace.total_quantum_layers() + layers > self.budget:
                raise DepthBudgetExceeded(
                    f"dQC budget {self.budget} exceeded at layer "
                    f"{self.trace.total_quantum_layers() + layers}"
                )
        if self._current_quantum is None:
            self._current_quantum = TraceStep("quantum")
            self.trace.steps.append(self._current_quantum)
        self._current_quantum.layers += layers

    # -- dQC interface ------------------------------------------------------

    def alloc(self, num_qubits, sparse=True, bits=None):
        """Prepare a fresh all-zero (or basis) register; preparation is free."""
        if self.scheme_kind != DQC:
            raise SchemeViolation("alloc is only available in dQC sessions")
        bits = bits if bits is not None else [0] * num_qubits
        if sparse:
            kw = {"support_cap": self._support_cap} if self._support_cap else {}
            self.state = SparseState.from_bits(bits, **kw)
        else:
            self.state = StateVector.from_bits(bits)
        return self.state

    def layer(self, gates):
        """Apply one depth-1 gate layer to the live state (costs 1)."""
        if self.scheme_kind != DQC:
            raise SchemeViolation("layer is only available in dQC sessions")
        self._charge(1)
        if self.state is not None and gates:
            apply_layer(self.state, gates)
        return self.state

    def layer_multi(self, states, op):
        """One depth-1 layer acting on disjoint parallel registers.

        Charges a single layer, then applies ``op`` (a ``state -> state``
        callable) to every register.  The budget check happens before any
        register is touched.
        """
        if self.scheme_kind != DQC:
            raise SchemeViolation("layer_multi is only available in dQC sessions")
        self._charge(1)
        for st in states:
            op(st)
        return states

    def charge_layers(self, layers, note=""):
        """Account abstractly for depth executed outside the simulator."""
        if layers:
            self._charge(layers)
        # with no layer charged there may be no open quantum step to name
        if note and self._current_quantum is not None:
            self._current_quantum.name = note

    def measure(self, qubits, basis="standard"):
        """Partial or full computational/Hadamard measurement; costs nothing."""
        if self.state is None:
            raise SchemeViolation("no live state to measure")
        full = len(set(qubits)) == self.state.num_qubits
        bits, self.state = measure(self.state, qubits, basis, self.rng)
        self._flush_quantum(full_measurement=full)
        return bits

    # -- dCQ interface ------------------------------------------------------

    def invoke(self, circuit: LayeredCircuit, input_bits=None, sparse=True):
        """Run a whole circuit on a fresh register and measure every qubit."""
        if self.scheme_kind != DCQ:
            raise SchemeViolation("invoke is only available in dCQ sessions")
        if isinstance(input_bits, (SparseState, StateVector)):
            raise SchemeViolation("a quantum state cannot cross a dCQ round")
        if circuit.depth > self.budget:
            raise DepthBudgetExceeded(
                f"circuit depth {circuit.depth} over dCQ budget {self.budget}"
            )
        bits = input_bits if input_bits is not None else [0] * circuit.num_qubits
        if sparse:
            kw = {"support_cap": self._support_cap} if self._support_cap else {}
            state = SparseState.from_bits(bits, **kw)
        else:
            state = StateVector.from_bits(bits)
        step = TraceStep("quantum", layers=circuit.depth, full_measurement=True)
        self.trace.steps.append(step)
        for layer in circuit.layers:
            apply_layer(state, layer)
        out, _ = measure(state, range(circuit.num_qubits), "standard", self.rng)
        return out

    def finish(self):
        self._flush_quantum()
        self.trace.validate()
        return self.trace


def run_dcq(budget, rounds, input, rng, support_cap=None):
    """Run a dCQ alternation.

    Each round is a pair ``(classical_fn, quantum_part)``.  ``quantum_part``
    is None, a LayeredCircuit, or a callable ``data -> (circuit, input_bits)``.
    The circuit runs on a fresh register and is fully measured; then
    ``classical_fn(data, outcome_bits)`` produces the next data value.
    """
    session = HybridSession(DCQ, budget, rng, support_cap=support_cap)
    data = input
    for i, (classical_fn, quantum_part) in enumerate(rounds):
        outcome = None
        if quantum_part is not None:
            if callable(quantum_part) and not isinstance(quantum_part, LayeredCircuit):
                circuit, in_bits = quantum_part(data)
            else:
                circuit, in_bits = quantum_part, None
            outcome = session.invoke(circuit, in_bits)
        session.classical(getattr(classical_fn, "__name__", f"round_{i}"))
        data = classical_fn(data, outcome)
    return data, session.finish()


def run_dqc(budget, program, rng, support_cap=None):
    """Run a dQC program: ``program(session) -> output``."""
    session = HybridSession(DQC, budget, rng, support_cap=support_cap)
    output = program(session)
    return output, session.finish()


def audited_depth(trace: HybridTrace) -> int:
    """The quantum depth a trace certifies.

    For dQC this is the cumulative layer count; for dCQ it is the deepest
    single invocation (invocations may repeat polynomially many times).
    """
    if trace.scheme_kind == DQC:
        return trace.total_quantum_layers()
    steps = trace.quantum_steps()
    return max((s.layers for s in steps), default=0)
