"""Delegation gadget layer: compilation, key tables, the referee's T-gadget
kernel branch by branch, and what the game's test rounds show of planted
attacks and z bits."""

import itertools

import numpy as np
import pytest

from qdepthlab import game, qsim
from qdepthlab.errors import ConfigError, QDepthError
from qdepthlab.gadgets import (
    H_COMPILE_SEQUENCE,
    RoundType,
    compile_ops,
    decrypt_state,
    encrypt_state,
    gadget_parity,
    h_sequence_matrix,
    update_keys,
)
from qdepthlab.qsim import Gate, PauliDistribution, StateVector


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# -- H compilation -------------------------------------------------------------


def test_h_sequence_product():
    assert np.allclose(h_sequence_matrix(),
                       np.exp(1j * np.pi / 4) * qsim.H, atol=1e-12)


def test_h_sequence_gate_counts():
    seq = H_COMPILE_SEQUENCE
    assert seq.count("T") == 6 and seq.count("H") == 4 and len(seq) == 10


def test_h_gadget_parity_schedule():
    """Walking the compiled sequence, the six T slots see H counts
    (1,1,2,2,3,3), alternating parity per the round-type rule."""
    compiled = compile_ops([("H", 0)])
    h_counts = [op[2] for op in compiled if op[0] == "t"]
    assert h_counts == [1, 1, 2, 2, 3, 3]
    x_parities = [gadget_parity(RoundType.XTEST, h) for h in h_counts]
    assert x_parities == ["odd", "odd", "even", "even", "odd", "odd"]
    z_parities = [gadget_parity(RoundType.ZTEST, h) for h in h_counts]
    assert z_parities == ["even", "even", "odd", "odd", "even", "even"]
    # a bare T gadget is even in an X test and odd in a Z test
    assert gadget_parity(RoundType.XTEST, None) == "even"
    assert gadget_parity(RoundType.ZTEST, None) == "odd"


# -- key update table -------------------------------------------------------------


def test_update_keys_h_row():
    keys = [[1, 0]]
    update_keys("H", keys, {"wire": 0})
    assert keys[0] == [0, 1]


def test_update_keys_cnot_row():
    keys = [[1, 0], [0, 1]]
    update_keys("CNOT", keys, {"control": 0, "target": 1})
    assert keys == [[1, 1], [1, 1]]


def test_update_keys_t_computation_row():
    # a=1, c=1, z=1, b=0, e=0: a'=0, b' = 0+0+1+1+0*1 = 0
    keys = [[1, 0]]
    update_keys("T", keys, {"wire": 0, "c": 1, "e": 0, "z": 1,
                            "parity": "computation"})
    assert keys[0] == [0, 0]


def test_update_keys_test_rows():
    keys = [[1, 1]]
    update_keys("T", keys, {"wire": 0, "c": 0, "e": 1, "z": 0, "parity": "even"})
    assert keys[0] == [1, 0]
    keys = [[1, 1]]
    update_keys("T", keys, {"wire": 0, "c": 0, "e": 1, "z": 1, "parity": "odd"})
    assert keys[0] == [0, 1]


# -- the referee's T gadget, exhaustively ----------------------------------------


def _xz(a, b):
    return (np.linalg.matrix_power(qsim.X, a)
            @ np.linalg.matrix_power(qsim.Z, b))


def _comp_branch(psi, a, b, label, e, c):
    """The (label, e, c) branch of the kernel's computation gadget on
    X^a Z^b |psi> under keys [a, b]: (output amplitudes, keys), None where c
    cannot occur."""
    sv = StateVector(1, _xz(a, b) @ psi)
    keys = [[a, b]]
    if game.gadget_first_half(sv, 0, 2 * label + e, game._ForcedDraw(c)) != c:
        return None
    game.gadget_second_half(lambda name, wires: sv.apply_gate(Gate(name, wires)),
                            keys, 0, label, c, e, "computation", None)
    return sv.amplitudes, keys


def _test_branch(parity, code, label, a, b, e, c, draw):
    """A test-round gadget of ``parity`` on a wire of family code ``code``
    under keys [a, b], its one draw forced by ``draw``: (output state, keys,
    z), None where c cannot occur."""
    codes, keys = [code], [[a, b]]
    if game.gadget_first_half_codes(codes, 0, 2 * label + e, draw) != c:
        return None
    z = game.gadget_second_half(
        lambda name, wires: game.apply_code_gate(codes, name, wires),
        keys, 0, label, c, e, parity, draw)
    return game._FAMILY[codes[0]], keys, z


def test_t_gadget_computation_exhaustive(rng):
    """All pads (a, b), both F/G ancilla labels and outcomes e, both c, 10
    random states: the output is X^{a'} Z^{b'} T |psi> with keys from the
    update table.  Every one of the 32 branches per state can occur."""
    for _ in range(10):
        psi = qsim.random_state(1, rng)
        branches = 0
        for a, b, label, e, c in itertools.product((0, 1), (0, 1), (game.F_ID, game.G_ID),
                                                   (0, 1), (0, 1)):
            got = _comp_branch(psi, a, b, label, e, c)
            if got is None:
                continue  # zero-probability branch
            branches += 1
            out, keys = got
            a2, b2 = keys[0]
            want = _xz(a2, b2) @ qsim.T @ psi
            assert qsim.fidelity(out, want) > 1 - 1e-9
        assert branches == 32


def test_t_gadget_xtest_even_identity():
    """X-test on an OTP of |0>: new keys (e, 0), state |e> exactly.  The
    ancilla is |e>, so c is fixed by a and e, and half of the 32
    (a, b, z, e, c) branches occur."""
    branches = 0
    for a, b, z, e, c in itertools.product((0, 1), repeat=5):
        got = _test_branch("even", 2 * game.Z_ID + a, game.Z_ID, a, b, e, c,
                           game._ForcedDraw(z))
        if got is None:
            continue
        branches += 1
        out, keys, z_sent = got
        want = np.zeros(2, dtype=complex)
        want[keys[0][0]] = 1
        assert z_sent == z
        assert keys[0] == [e, 0]
        assert qsim.fidelity(out, want) > 1 - 1e-9
    assert branches == 16


def test_t_gadget_ztest_odd_identity():
    """Z-test on an OTP of |+>: z is 1 for a Y ancilla, new keys
    (0, b+e+z), all 32 branches occur."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    branches = 0
    for a, b, label, e, c in itertools.product((0, 1), (0, 1), (game.X_ID, game.Y_ID),
                                               (0, 1), (0, 1)):
        got = _test_branch("odd", 2 * game.X_ID + b, label, a, b, e, c,
                           game._ForcedDraw(c))
        if got is None:
            continue
        branches += 1
        out, keys, z = got
        assert z == int(label == game.Y_ID)
        assert keys[0] == [0, (b + e + z) % 2]
        want = np.linalg.matrix_power(qsim.Z, keys[0][1]) @ plus
        assert qsim.fidelity(out, want) > 1 - 1e-9
    assert branches == 32


# -- a delegated circuit, gadget by gadget -----------------------------------------


def _delegate(state, ops, keys, rng):
    """Run ``ops`` on the pad of ``state`` under ``keys`` gate by gate: CNOT
    and the compiled H gates directly, each T through the referee's kernel
    with an ancilla of random F/G label and outcome; returns (final padded
    state, final keys)."""
    keys = [list(k) for k in keys]
    state = encrypt_state(state, keys)

    def apply_gate(name, wires):
        state.apply_gate(Gate(name, wires))

    for op in compile_ops(ops):
        if op[0] == "cnot":
            apply_gate("CNOT", op[1:])
            update_keys("CNOT", keys, {"control": op[1], "target": op[2]})
        elif op[0] == "h":
            apply_gate("H", (op[1],))
            update_keys("H", keys, {"wire": op[1]})
        else:
            label = (game.F_ID, game.G_ID)[rng.integers(2)]
            e = int(rng.integers(2))
            c = game.gadget_first_half(state, op[1], 2 * label + e, rng)
            game.gadget_second_half(apply_gate, keys, op[1], label, c, e,
                                    gadget_parity(RoundType.COMPUTATION, op[2]), rng)
    return state, keys


@pytest.mark.parametrize("ops", [
    [("T", 0)],
    [("T", 1), ("CNOT", 0, 1)],
    [("H", 0), ("T", 1), ("CNOT", 0, 1)],
])
def test_computation_session_implements_circuit(rng, ops):
    """Gadget/algebra consistency: simulate, decrypt, compare to the ideal
    gate action on random states."""
    for _ in range(4):
        psi = qsim.random_state(2, rng)
        keys = rng.integers(2, size=(2, 2)).tolist()
        st, final_keys = _delegate(StateVector(2, psi.copy()), ops, keys, rng)
        got = decrypt_state(st, final_keys)
        want = StateVector(2, psi.copy())
        for op in ops:
            if op[0] == "CNOT":
                want.apply_gate(Gate("CNOT", (op[1], op[2])))
            else:
                want.apply_gate(Gate(op[0], (op[1],)))
        assert qsim.fidelity(got.amplitudes, want.amplitudes) > 1 - 1e-9


def test_planted_pauli_failure_rates():
    """eps_X estimates the weight with a bit-flip part, eps_Z the phase part,
    through the referee's own test rounds."""
    ops = {op.label(): op for op in qsim.all_paulis(2)}
    r = PauliDistribution({
        ops["I.I"]: 0.6, ops["X.I"]: 0.15, ops["I.Z"]: 0.15, ops["X.Z"]: 0.1,
    })
    trials = 1200
    cfg = game.ProtocolConfig(fidelity="gadget")
    ex, ez = game.attack_failure_rates(cfg, r, trials, 2024)
    x_weight = r.marginal_weight(lambda op: op.x_bits != 0)   # 0.25
    z_weight = r.marginal_weight(lambda op: op.z_bits != 0)   # 0.25
    sigma = (0.25 * 0.75 / trials) ** 0.5
    assert abs(ex - x_weight) < 3 * sigma + 1e-12
    assert abs(ez - z_weight) < 3 * sigma + 1e-12
    r0 = r.identity_weight()
    assert r0 >= 1 - 2 * ex - 2 * ez


@pytest.mark.parametrize("trials", [0, -1])
def test_attack_failure_rates_refuses_no_trials(trials):
    """No round to play is a config error, not a rate of 0/0."""
    cfg = game.ProtocolConfig(fidelity="gadget")
    ident = PauliDistribution({qsim.PauliOp(2, 0, 0): 1.0})
    with pytest.raises(ConfigError):
        game.attack_failure_rates(cfg, ident, trials, 0)


def test_pauli_attack_iff_at_zero_error():
    """Accept-probability 1 in both tests iff the Pauli attack is trivial."""
    ops = {op.label(): op for op in qsim.all_paulis(1)}
    ident = PauliDistribution({ops["I"]: 1.0})
    assert 1 - ident.identity_weight() == 0.0
    rho_probe = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                 np.full((2, 2), 0.5), np.array([[0.5, -0.5j], [0.5j, 0.5]])]
    for rho in rho_probe:
        assert np.allclose(qsim.pauli_channel_apply(ident, rho.astype(complex)),
                           rho, atol=1e-9)
    # any off-identity weight shows up in one of the two tests
    for other in ("X", "Z", "XZ"):
        r = PauliDistribution({ops["I"]: 0.75, ops[other]: 0.25})
        x_fail = r.marginal_weight(lambda op: op.x_bits != 0)
        z_fail = r.marginal_weight(lambda op: op.z_bits != 0)
        assert x_fail + z_fail > 0


def test_message_blindness_single_gadget():
    """The only prover-visible classical message of a gadget is its z bit.
    Read from the ZBits messages of played computation, X-test and Z-test
    rounds, each kind's z bits are a fair coin: the mean sits within four
    standard errors of 1/2, a bound fixed before the run."""
    cfg = game.ProtocolConfig(fidelity="gadget")
    for kind in ("comp", "xtest", "ztest"):
        bits = []
        for seed in range(300):
            _, run = game.run_single_round(cfg, kind, seed=seed)
            bits += [z for msg in run.transcript.messages
                     if msg["kind"] == game.MSG_ZBITS for z in msg["payload"]["z"]]
        assert len(bits) == 300 * cfg.d
        bound = 4 * (0.25 / len(bits)) ** 0.5
        assert abs(np.mean(bits) - 0.5) <= bound, kind


# -- the one-time pad ------------------------------------------------------------


def _pad_gate_by_gate(state, keys, z_first):
    """The pad applied one Pauli gate at a time, per wire Z^b then X^a when
    ``z_first`` (encryption), else X^a then Z^b (decryption)."""
    out = state.copy()
    for q, (a, b) in enumerate(keys):
        order = (("Z", b), ("X", a)) if z_first else (("X", a), ("Z", b))
        for name, bit in order:
            if bit:
                out.apply_gate(Gate(name, (q,)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pad_equals_gate_by_gate_application(n, rng):
    """For every key pattern the cached pad operator gives exactly what the
    gate sequence gives."""
    state = StateVector(n, qsim.random_state(n, rng))
    for bits in itertools.product((0, 1), repeat=2 * n):
        keys = [list(bits[2 * q: 2 * q + 2]) for q in range(n)]
        enc = encrypt_state(state, keys)
        dec = decrypt_state(state, keys)
        assert np.array_equal(enc.amplitudes, _pad_gate_by_gate(state, keys, True).amplitudes)
        assert np.array_equal(dec.amplitudes, _pad_gate_by_gate(state, keys, False).amplitudes)
        assert np.array_equal(decrypt_state(enc, keys).amplitudes, state.amplitudes)
        assert enc.amplitudes is not state.amplitudes


def test_pad_needs_a_key_per_wire():
    with pytest.raises(QDepthError):
        encrypt_state(StateVector(2), [[1, 0]])
