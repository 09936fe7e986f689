"""Hybrid scheme runners: budget enforcement and trace validity."""

import json

import numpy as np
import pytest

from qdepthlab.errors import DepthBudgetExceeded, SchemeViolation
from qdepthlab.hybrid import (
    DCQ,
    DQC,
    HybridSession,
    HybridTrace,
    TraceStep,
    audited_depth,
    run_dcq,
    run_dqc,
)
from qdepthlab.qsim import Gate, LayeredCircuit, SparseState


@pytest.fixture
def rng():
    return np.random.default_rng(9)


def _circuit(depth, n=2):
    c = LayeredCircuit(n)
    for _ in range(depth):
        c.add_layer([Gate("H", (0,))])
    return c


def test_dcq_pure_classical_rounds(rng):
    out, trace = run_dcq(0, [(lambda d, o: d + 1, None)] * 3, 0, rng)
    assert out == 3
    assert trace.quantum_steps() == []


def test_dcq_depth_budget(rng):
    rounds = [(lambda d, o: o, _circuit(3))]
    with pytest.raises(DepthBudgetExceeded):
        run_dcq(2, rounds, None, rng)


def test_dcq_runs_and_measures_fully(rng):
    rounds = [(lambda d, o: o, _circuit(2))]
    out, trace = run_dcq(2, rounds, None, rng)
    assert len(out) == 2
    step = trace.quantum_steps()[0]
    assert step.layers == 2 and step.full_measurement


def test_dcq_rejects_live_state(rng):
    session = HybridSession(DCQ, 3, rng)
    with pytest.raises(SchemeViolation):
        session.invoke(_circuit(1), input_bits=SparseState.from_bits([0, 0]))


def test_dqc_budget_cumulative(rng):
    def program(session):
        session.alloc(1)
        session.layer([Gate("H", (0,))])
        session.layer([Gate("H", (0,))])
        return "ok"

    out, trace = run_dqc(2, program, rng)
    assert out == "ok"
    assert trace.total_quantum_layers() == 2

    def over(session):
        session.alloc(1)
        for _ in range(3):
            session.layer([Gate("H", (0,))])

    with pytest.raises(DepthBudgetExceeded):
        run_dqc(2, over, rng)


def test_dqc_abort_happens_before_the_layer_runs(rng):
    """The budget check fires before any gate of the violating layer."""
    session = HybridSession(DQC, 1, rng)
    st = session.alloc(1)
    session.layer([Gate("X", (0,))])
    before = dict(st.support)
    with pytest.raises(DepthBudgetExceeded):
        session.layer([Gate("X", (0,))])
    assert dict(session.state.support) == before


def test_dqc_partial_measurement_allowed(rng):
    def program(session):
        session.alloc(2)
        session.layer([Gate("H", (0,))])
        bits = session.measure([0])  # partial: qubit 1 untouched
        return bits

    out, trace = run_dqc(1, program, rng)
    assert out[0] in (0, 1)
    trace.validate()


def test_budget_one_coin_conditional(rng):
    """Prepare |+>, classical coin, conditional measurement: allowed at budget 1."""
    def program(session):
        session.alloc(1)
        session.layer([Gate("H", (0,))])
        session.classical("coin")
        if rng.integers(2):
            return session.measure([0])
        return session.measure([0], basis="hadamard")

    out, trace = run_dqc(1, program, rng)
    trace.validate()
    assert audited_depth(trace) == 1


def test_trace_json_roundtrip():
    trace = HybridTrace(DQC, 4, [
        TraceStep("quantum", layers=2),
        TraceStep("classical", name="post"),
    ])
    payload = json.loads(trace.to_json())
    assert payload["kind"] == "dQC" and payload["budget"] == 4
    assert payload["steps"][0] == {"type": "quantum", "layers": 2,
                                   "full_measurement": False}


def test_dcq_trace_as_dqc_view(rng):
    rounds = [(lambda d, o: o, _circuit(2))] * 3
    _, trace = run_dcq(2, rounds, None, rng)
    view = trace.as_dqc_view()
    view.validate()
    assert view.scheme_kind == DQC
    # a single-invocation trace keeps its budget verbatim
    _, single = run_dcq(2, rounds[:1], None, rng)
    assert single.as_dqc_view().budget == 2


def test_validate_catches_missing_full_measurement():
    trace = HybridTrace(DCQ, 2, [TraceStep("quantum", layers=1)])
    with pytest.raises(SchemeViolation):
        trace.validate()


def test_audited_depth_semantics():
    dcq = HybridTrace(DCQ, 5, [
        TraceStep("quantum", layers=5, full_measurement=True),
        TraceStep("quantum", layers=3, full_measurement=True),
    ])
    assert audited_depth(dcq) == 5
    dqc = HybridTrace(DQC, 9, [
        TraceStep("quantum", layers=4),
        TraceStep("quantum", layers=3),
    ])
    assert audited_depth(dqc) == 7


def test_charge_layers_zero_with_no_open_step(rng):
    """A zero-layer charge with a note neither fails nor adds a step."""
    session = HybridSession(DQC, 3, rng)
    session.charge_layers(0, "prepare")
    session.classical("solve")
    session.charge_layers(0, "nothing")
    trace = session.finish()
    assert [s.kind for s in trace.steps] == ["classical"]
    assert trace.total_quantum_layers() == 0
