"""Simulator core: gates, measurement statistics, teleportation, twirling."""

import itertools
import json
import pathlib

import jsonschema
import numpy as np
import pytest

from qdepthlab import qsim
from qdepthlab.errors import CapacityError, QDepthError
from qdepthlab.qsim import Gate, SparseState, StateVector

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def test_h_on_zero():
    st = StateVector.from_bits([0])
    qsim.apply_layer(st, [Gate("H", (0,))])
    assert np.allclose(st.amplitudes, [2 ** -0.5, 2 ** -0.5])


def test_parallel_x_layer():
    st = StateVector.from_bits([0, 0])
    qsim.apply_layer(st, [Gate("X", (0,)), Gate("X", (1,))])
    assert np.allclose(st.amplitudes, [0, 0, 0, 1])


def test_layer_rejects_overlapping_targets():
    st = StateVector.from_bits([0, 0])
    with pytest.raises(QDepthError):
        qsim.apply_layer(st, [Gate("X", (0,)), Gate("H", (0,))])
    with pytest.raises(QDepthError):
        qsim.apply_layer(st, [Gate("X", (5,))])


def test_random_layer_preserves_norm(rng):
    st = StateVector(3, qsim.random_state(3, rng))
    u = qsim.haar_unitary(4, rng)
    qsim.apply_layer(st, [Gate("U2", (0, 2), matrix=u), Gate("H", (1,))])
    assert abs(st.norm() - 1.0) < 1e-9


def test_dense_limit_enforced():
    with pytest.raises(CapacityError):
        StateVector(23)
    with pytest.raises(CapacityError):
        qsim.make_epr(12)


def test_sparse_support_cap():
    with pytest.raises(CapacityError):
        SparseState(3, {i: 0.5 for i in range(4)}, support_cap=2)


def test_measure_deterministic_one(rng):
    st = StateVector.from_bits([1])
    (bit,), st = qsim.measure(st, [0], "standard", rng)
    assert bit == 1


def test_measure_plus_in_hadamard_basis(rng):
    st = StateVector.from_bits([0])
    st.apply_gate(Gate("H", (0,)))
    (bit,), _ = qsim.measure(st, [0], "hadamard", rng)
    assert bit == 0  # H|+> = |0>


def test_born_rule_plus_state(rng):
    zeros = 0
    trials = 10000
    for _ in range(trials):
        st = StateVector.from_bits([0])
        st.apply_gate(Gate("H", (0,)))
        (bit,), _ = qsim.measure(st, [0], "standard", rng)
        zeros += bit == 0
    assert abs(zeros / trials - 0.5) < 0.02


def test_measure_requires_rng():
    st = StateVector.from_bits([0])
    with pytest.raises(QDepthError):
        qsim.measure(st, [0], "standard", None)


def test_epr_pairing_and_correlations(rng):
    st = qsim.make_epr(1)
    assert np.allclose(st.amplitudes, [2 ** -0.5, 0, 0, 2 ** -0.5])
    # both halves equal in the standard basis, exhaustively over outcomes
    st2 = qsim.make_epr(2)
    for idx, amp in enumerate(st2.amplitudes):
        if abs(amp) > 1e-12:
            hi, lo = idx >> 2, idx & 3
            assert hi == lo
    # Hadamard basis: equal bits always
    st = qsim.make_epr(1)
    for q in (0, 1):
        st.apply_gate(Gate("H", (q,)))
    for idx, amp in enumerate(st.amplitudes):
        if abs(amp) > 1e-12:
            assert (idx >> 1) == (idx & 1)


def test_teleport_correction_identity(rng):
    """Receiver holds X^a Z^b |psi> exactly, for 50 random states."""
    for _ in range(50):
        psi = qsim.random_state(1, rng)
        st = StateVector(3, np.kron(psi, qsim.make_epr(1).amplitudes))
        (a, b), out = qsim.teleport(st, 0, (1, 2), rng)
        want = (np.linalg.matrix_power(qsim.X, a)
                @ np.linalg.matrix_power(qsim.Z, b) @ psi)
        assert qsim.fidelity(out.amplitudes, want) > 1 - 1e-9


def test_teleport_of_basis_states(rng):
    for bit in (0, 1):
        psi = np.zeros(2, dtype=complex)
        psi[bit] = 1
        st = StateVector(3, np.kron(psi, qsim.make_epr(1).amplitudes))
        (a, b), out = qsim.teleport(st, 0, (1, 2), rng)
        assert abs(abs(out.amplitudes[bit ^ a]) - 1.0) < 1e-9


def test_teleport_index_collision(rng):
    st = StateVector(3)
    with pytest.raises(QDepthError):
        qsim.teleport(st, 1, (1, 2), rng)


def test_dense_sparse_agreement(rng):
    """Random circuits on <= 12 qubits agree amplitude-wise within 1e-9."""
    n = 9
    for trial in range(3):
        dense = StateVector.from_bits([0] * n)
        sparse = SparseState.from_bits([0] * n)
        for _ in range(6):
            layer = []
            wires = list(rng.permutation(n))
            for q in wires[:3]:
                layer.append(Gate(["H", "T", "S", "X", "Z"][rng.integers(5)], (int(q),)))
            layer.append(Gate("CNOT", (int(wires[3]), int(wires[4]))))
            qsim.apply_layer(dense, layer)
            qsim.apply_layer(sparse, layer)
        assert np.allclose(dense.amplitudes,
                           sparse.to_dense().amplitudes, atol=1e-9)


def test_state_dump_json():
    st = StateVector.from_bits([1, 0])
    payload = json.loads(st.dump_json())
    assert payload["n"] == 2
    assert payload["amps"][2] == [1.0, 0.0]
    schema = json.loads((SCHEMAS / "state_dump.v1.schema.json").read_text())
    jsonschema.Draft202012Validator(schema).validate(payload)


# -- Pauli machinery ---------------------------------------------------------


def test_pauli_op_validation():
    with pytest.raises(QDepthError):
        qsim.PauliOp(1, 2, 0)
    op = qsim.PauliOp(2, 0b10, 0b01)
    assert op.label() == "X.Z"


def test_pauli_distribution_invariants():
    ops = list(qsim.all_paulis(1))
    with pytest.raises(QDepthError):
        qsim.PauliDistribution({ops[0]: 0.5})
    with pytest.raises(QDepthError):
        qsim.PauliDistribution({ops[0]: 1.5, ops[1]: -0.5})


def test_twirl_identity_channel():
    r = qsim.twirl([np.eye(2, dtype=complex)], 1)
    assert abs(r.identity_weight() - 1.0) < 1e-9


def test_twirl_x_conjugation():
    r = qsim.twirl([qsim.X.copy()], 1)
    x_op = qsim.PauliOp(1, 1, 0)
    assert abs(r.weights[x_op] - 1.0) < 1e-9


def test_twirl_rejects_non_trace_preserving():
    with pytest.raises(QDepthError):
        qsim.twirl([0.5 * np.eye(2, dtype=complex)], 1)


@pytest.mark.parametrize("n", [1, 2])
def test_twirl_matches_brute_force_average(rng, n):
    """Oracle: the brute-force Pauli average equals the returned channel on a
    spanning set of density matrices."""
    probes_1q = [
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
        np.full((2, 2), 0.5, dtype=complex),
        np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    ]
    probes = probes_1q if n == 1 else [
        np.kron(a, b) for a, b in itertools.product(probes_1q, repeat=2)
    ]
    for _ in range(3):
        kraus = qsim.random_cptp(n, rng)
        r = qsim.twirl(kraus, n)
        for rho in probes:
            lhs = qsim.twirled_channel_apply(kraus, n, rho)
            rhs = qsim.pauli_channel_apply(r, rho)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_twirled_channel_is_pauli_in_choi(rng):
    """Off-diagonal (in the Pauli basis) process-matrix entries vanish."""
    kraus = qsim.random_cptp(1, rng)
    twirled = lambda rho: qsim.twirled_channel_apply(kraus, 1, rho)
    choi = qsim.choi_matrix(twirled, 1)
    # expand the Choi state in the Pauli (x) Pauli basis; cross terms must die
    for p in qsim.all_paulis(1):
        for q_ in qsim.all_paulis(1):
            if p == q_:
                continue
            pm, qm = p.matrix(), q_.matrix()
            vec_p = np.kron(np.eye(2), pm).reshape(-1)
            coeff = 0.0
            # |P>> = (I (x) P) |Omega>>: check <<P| J |Q>> ~ 0 for P != Q
            omega = np.zeros(4, dtype=complex)
            omega[0] = omega[3] = 1.0
            ket_p = np.kron(np.eye(2, dtype=complex), pm) @ omega
            ket_q = np.kron(np.eye(2, dtype=complex), qm) @ omega
            coeff = ket_p.conj() @ choi @ ket_q
            assert abs(coeff) < 1e-9


def test_pauli_deviation_values():
    ops = {op.label(): op for op in qsim.all_paulis(1)}
    point = qsim.PauliDistribution({ops["I"]: 1.0})
    assert qsim.pauli_deviation(point) == 0.0
    mix = qsim.PauliDistribution({ops["I"]: 0.9, ops["X"]: 0.1})
    assert abs(qsim.pauli_deviation(mix) - 0.1) < 1e-12
    eps = 0.03
    planted = qsim.PauliDistribution({ops["I"]: 1 - 4 * eps, ops["Z"]: 4 * eps})
    assert abs(qsim.pauli_deviation(planted) - 4 * eps) < 1e-12


def test_remove_qubit_guards():
    st = StateVector.from_bits([0])
    st.apply_gate(Gate("H", (0,)))
    two = StateVector(2, np.kron(st.amplitudes, np.array([1, 0], dtype=complex)))
    two.remove_qubit(1, 0)
    assert two.num_qubits == 1
    plus2 = StateVector(2, np.kron(st.amplitudes, st.amplitudes))
    with pytest.raises(QDepthError):
        plus2.remove_qubit(1, 0)
