"""Hybrid sessions: the dQC layer and the dCQ invocation, budget
enforcement and trace validity."""

import inspect
import json
import pathlib

import jsonschema
import numpy as np
import pytest

from qdepthlab import game, ntcf, oracles
from qdepthlab.errors import DepthBudgetExceeded, SchemeViolation
from qdepthlab.hybrid import (
    DCQ,
    DQC,
    HybridSession,
    HybridTrace,
    StepCircuit,
    TraceStep,
    audited_depth,
)
from qdepthlab.qsim import SparseState, measure, trial_rng

TRACE_SCHEMA = (pathlib.Path(__file__).resolve().parent.parent / "docs"
                / "schemas" / "hybrid_trace.v1.schema.json")


@pytest.fixture
def rng():
    return np.random.default_rng(9)


def _h0(state):
    return state.apply_hadamard_wall([0])


def _circuit(depth, n=2, calls=None):
    """A depth-``depth`` step circuit of H on qubit 0, logging its steps."""
    def step(state):
        if calls is not None:
            calls.append(1)
        return _h0(state)
    return StepCircuit([step] * depth, n)


def test_dcq_pure_classical_rounds(rng):
    session = HybridSession(DCQ, 0, rng)
    for i in range(3):
        session.classical(f"round_{i}")
    trace = session.finish()
    assert trace.quantum_steps() == []
    assert audited_depth(trace) == 0


def test_dcq_depth_budget(rng):
    """An over-budget invocation aborts before any of its steps runs."""
    calls = []
    session = HybridSession(DCQ, 2, rng)
    with pytest.raises(DepthBudgetExceeded):
        session.invoke(_circuit(3, calls=calls))
    assert calls == [] and session.trace.steps == []


def test_dcq_runs_and_measures_fully(rng):
    session = HybridSession(DCQ, 2, rng)
    out = session.invoke(_circuit(2))      # H H = I on qubit 0
    assert out == (0, 0)
    trace = session.finish()
    step = trace.quantum_steps()[0]
    assert step.layers == 2 and step.full_measurement


def test_dcq_rejects_live_state(rng):
    """No quantum state crosses a dCQ round: ``invoke`` takes the circuit
    alone, and the state it samples stays as the steps prepared it."""
    assert list(inspect.signature(HybridSession.invoke).parameters) == [
        "self", "circuit"]
    session = HybridSession(DCQ, 1, rng)
    circuit = _circuit(1)
    outs = [session.invoke(circuit)]
    prepared = circuit.prepared_state()
    snapshot = dict(prepared.support)
    outs += [session.invoke(circuit) for _ in range(20)]
    assert circuit.prepared_state() is prepared
    assert prepared.support == snapshot
    assert {out[0] for out in outs} == {0, 1}
    assert {out[1] for out in outs} == {0}
    with pytest.raises(SchemeViolation):
        HybridSession(DQC, 1, rng).invoke(circuit)


def test_dqc_budget_cumulative(rng):
    session = HybridSession(DQC, 2, rng)
    states = [SparseState.from_bits([0]) for _ in range(3)]
    session.layer(states, _h0)              # three registers, one layer
    session.layer(states, _h0)
    trace = session.finish()
    assert trace.total_quantum_layers() == 2
    assert all(st.support == {0: pytest.approx(1.0)} for st in states)

    session = HybridSession(DQC, 2, rng)
    with pytest.raises(DepthBudgetExceeded):
        for _ in range(3):
            session.layer(states, _h0)
    with pytest.raises(SchemeViolation):
        HybridSession(DCQ, 2, rng).layer(states, _h0)


def test_dqc_abort_happens_before_the_layer_runs(rng):
    """The budget check fires before ``op`` touches any register."""
    calls = []

    def flip(state):
        calls.append(1)
        return state.map_basis(lambda idx: idx ^ 1)

    session = HybridSession(DQC, 1, rng)
    states = [SparseState.from_bits([0]), SparseState.from_bits([1])]
    session.layer(states, flip)
    before = [dict(st.support) for st in states]
    with pytest.raises(DepthBudgetExceeded):
        session.layer(states, flip)
    assert len(calls) == 2
    assert [dict(st.support) for st in states] == before


def test_dqc_partial_measurement_allowed(rng):
    """A live register may be measured in part between layers; the
    measurement costs no depth and the trace stays valid."""
    session = HybridSession(DQC, 2, rng)
    st = SparseState.from_bits([0, 0])
    session.layer([st], _h0)
    bits, st = measure(st, [0], "standard", rng)  # partial: qubit 1 untouched
    session.classical("read")
    session.layer([st], _h0)
    trace = session.finish()
    assert bits[0] in (0, 1)
    assert audited_depth(trace) == 2


def test_budget_one_coin_conditional(rng):
    """Prepare |+>, classical coin, conditional measurement: allowed at budget 1."""
    session = HybridSession(DQC, 1, rng)
    st = SparseState.from_bits([0])
    session.layer([st], _h0)
    session.classical("coin")
    basis = "standard" if rng.integers(2) else "hadamard"
    measure(st, [0], basis, rng)
    trace = session.finish()
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
    session = HybridSession(DCQ, 2, rng)
    circuit = _circuit(2)
    for _ in range(3):
        session.invoke(circuit)
    view = session.finish().as_dqc_view()
    view.validate()
    assert view.scheme_kind == DQC
    # a single-invocation trace keeps its budget verbatim
    single = HybridSession(DCQ, 2, rng)
    single.invoke(circuit)
    assert single.finish().as_dqc_view().budget == 2


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


def _prover_a_trace(fidelity):
    cfg = game.ProtocolConfig(n=3, d=2, q=3, t_parallel=10, alpha=0.99,
                              fidelity=fidelity, seed=3).resolved()
    rng = trial_rng(3, 0)
    orc = game.make_oracle(cfg, rng) if fidelity == "abstract" else None
    prover = game.STRATEGIES_A["honest"](cfg)
    _, tr = game.run_query_protocol(cfg, prover, game.STRATEGIES_O["honest"](cfg),
                                    orc, rng)
    assert tr.depth_audit["branch"] == "no-test"
    return prover.finish_trace()


def _solver_trace(solver, access):
    rng = trial_rng(4, 0)
    sh = oracles.sample_shuffling(oracles.sample_simon(3, rng), 2, rng, mode="exact")
    oracle = oracles.build_inplace(sh, rng) if access == "inplace" else sh
    return solver(oracle, rng)[1]


def _ntcf_trace():
    prover = ntcf.HonestProver()
    ntcf.run_cvqd(2, prover, trial_rng(5, 0), n=3)
    return prover.trace()


# every producer of hybrid traces, with its honest audited depth (q = d = 2
# except A's q = 3)
TRACE_PRODUCERS = {
    "prover-a-abstract": (lambda: _prover_a_trace("abstract"), 3 + 2),
    "prover-a-gadget": (lambda: _prover_a_trace("gadget"), 3 + 1),
    "solve-inplace-dssp": (
        lambda: _solver_trace(oracles.solve_inplace_dssp, "inplace"), 2 + 3),
    "solve-inplace-dssp-parallel": (
        lambda: _solver_trace(oracles.solve_inplace_dssp_parallel, "inplace"),
        2 + 3),
    "solve-standard-dssp": (
        lambda: _solver_trace(oracles.solve_standard_dssp, "standard"), 2 * 2 + 3),
    "ntcf-honest": (_ntcf_trace, ntcf.D0_DEFAULT + 2),
}


@pytest.mark.parametrize("producer", sorted(TRACE_PRODUCERS))
def test_hybrid_traces_match_schema(producer):
    make, depth = TRACE_PRODUCERS[producer]
    trace = make()
    schema = json.loads(TRACE_SCHEMA.read_text())
    jsonschema.Draft202012Validator(schema).validate(json.loads(trace.to_json()))
    assert audited_depth(trace) == depth
