"""The cached register operators of the dense stand-in: every named gate,
every pad and every gadget first-half branch against a reference built gate
by gate on the sparse kernel, read-only, and stateless across trials."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qdepthlab import gadgets, game, qsim
from qdepthlab.qsim import Gate, SparseState, StateVector


def _dense(state: SparseState) -> np.ndarray:
    amps = np.zeros(1 << state.num_qubits, dtype=complex)
    for idx, a in state.support.items():
        amps[idx] = a
    return amps


def _columns(n, act) -> np.ndarray:
    """The 2^n matrix whose column j is ``act`` on the sparse basis state j."""
    return np.column_stack([_dense(act(SparseState(n, {j: 1.0 + 0j})))
                            for j in range(1 << n)])


def _gate_reference(n, name, targets) -> np.ndarray:
    return _columns(n, lambda st: st.apply_gate(Gate(name, targets)))


def _pad_reference(n, a_mask, b_mask, z_first) -> np.ndarray:
    """X^a Z^b one Pauli gate at a time, per wire Z then X when ``z_first``."""
    def act(st):
        for q in range(n):
            bit = n - 1 - q
            order = ("Z", "X") if z_first else ("X", "Z")
            for name in order:
                if ((b_mask if name == "Z" else a_mask) >> bit) & 1:
                    st.apply_gate(Gate(name, (q,)))
        return st
    return _columns(n, act)


def _kraus_reference(n, wire, code, c) -> np.ndarray:
    """A gadget first half on an n+1 qubit register, the ancilla of family
    code ``code`` as its last qubit: CNOT from the ancilla onto ``wire``,
    ``wire`` projected onto |c>, the ancilla moved into its place."""
    anc = game._FAMILY[code]
    low = n - 1 - wire                   # the wire's bit in an n-qubit index

    def act(st):
        j, = st.support
        big = SparseState(n + 1, {(j << 1) | b: anc[b] for b in (0, 1)
                                  if anc[b] != 0})
        big.apply_gate(Gate("CNOT", (n, wire)))
        out = {}
        for idx, a in big.support.items():
            anc_bit, rest = idx & 1, idx >> 1
            if (rest >> low) & 1 == c:
                k = (rest & ~(1 << low)) | (anc_bit << low)
                out[k] = out.get(k, 0j) + a
        return SparseState(n, out)
    return _columns(n, act)


def _named_cases(n):
    for name, u in qsim.GATE_MATRICES.items():
        for targets in itertools.permutations(range(n), u.shape[0].bit_length() - 1):
            yield name, targets


@settings(max_examples=12, deadline=None)
@given(n=hst.integers(1, 3), seed=hst.integers(0, 2**32 - 1))
def test_every_named_gate_operator_matches_the_gate_by_gate_reference(n, seed):
    psi = qsim.random_state(n, np.random.default_rng(seed))
    for name, targets in _named_cases(n):
        want = _gate_reference(n, name, targets)
        assert np.allclose(qsim.named_operator(n, name, targets), want,
                           rtol=0, atol=1e-12)
        got = StateVector(n, psi).apply_gate(Gate(name, targets)).amplitudes
        assert np.allclose(got, want @ psi, rtol=0, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(n=hst.integers(1, 3), seed=hst.integers(0, 2**32 - 1))
def test_every_pad_operator_matches_the_gate_by_gate_reference(n, seed):
    """All key masks, encryption (Z first) and decryption (X first)."""
    psi = qsim.random_state(n, np.random.default_rng(seed))
    for a_mask, b_mask in itertools.product(range(1 << n), repeat=2):
        keys = [[(a_mask >> (n - 1 - q)) & 1, (b_mask >> (n - 1 - q)) & 1]
                for q in range(n)]
        for z_first, pad in ((True, gadgets.encrypt_state),
                             (False, gadgets.decrypt_state)):
            want = _pad_reference(n, a_mask, b_mask, z_first)
            assert np.allclose(gadgets._pad_operator(n, a_mask, b_mask, z_first),
                               want, rtol=0, atol=1e-12)
            got = pad(StateVector(n, psi), keys).amplitudes
            assert np.allclose(got, want @ psi, rtol=0, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(n=hst.integers(1, 3), seed=hst.integers(0, 2**32 - 1))
def test_every_gadget_branch_operator_matches_the_dense_reference(n, seed):
    """Every (wire, ancilla code, c): the cached branch is the reference's
    map, and the first half, its draw forced to c, moves a random stand-in
    to that branch, normalised."""
    psi = qsim.random_state(n, np.random.default_rng(seed))
    for wire, code in itertools.product(range(n), range(10)):
        ops = game._gadget_operator(n, wire, code)
        assert ops.shape == (2, 1 << n, 1 << n)
        for c in (0, 1):
            want = _kraus_reference(n, wire, code, c)
            assert np.allclose(ops[c], want, rtol=0, atol=1e-12)
            branch = want @ psi
            p_c = float(np.vdot(branch, branch).real)
            sv = StateVector(n, psi)
            assert game.gadget_first_half(sv, wire, code, game._ForcedDraw(c)) == c
            assert np.allclose(sv.amplitudes, branch / np.sqrt(p_c),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("op", [
    lambda: qsim.named_operator(2, "CNOT", (1, 0)),
    lambda: qsim.named_operator(1, "T", (0,)),
    lambda: gadgets._pad_operator(2, 0b10, 0b11, True),
    lambda: gadgets._pad_operator(2, 0b01, 0b00, False),
    lambda: game._gadget_operator(2, 1, 7),
])
def test_every_cached_operator_is_read_only(op):
    array = op()
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 2.0
    with pytest.raises(ValueError):
        array *= 2


def _clear_operator_caches():
    for memo in (qsim.named_operator, gadgets._pad_operator,
                 game._gadget_operator, game._gate):
        memo.cache_clear()


# criterion 08's in-place pairs and the gadget-fidelity benchmark's pairs
INPLACE_PAIRS = [("honest", "honest"), ("honest", "skip-oracle"),
                 ("honest", "pauli-x"), ("lying", "honest"),
                 ("classical", "honest"), ("reset", "honest")]
GADGET_PAIRS = [("honest", "honest"), ("honest", "pauli-x"),
                ("honest", "pauli-z"), ("lying", "honest"), ("reset", "honest")]


def _transcripts(trials=40):
    cases = [(game.ProtocolConfig(n=3, d=2, q=3, t_parallel=12), INPLACE_PAIRS),
             (game.ProtocolConfig(n=3, d=2, q=3, fidelity="gadget"), GADGET_PAIRS)]
    out = []
    for cfg, pairs in cases:
        for k, (sa, so) in enumerate(pairs):
            for t in range(trials):
                rng = game.trial_rng(2400 + k, t)
                oracle = (game.make_oracle(cfg, rng) if cfg.fidelity == "abstract"
                          else None)
                _, tr = game.run_query_protocol(cfg, game.STRATEGIES_A[sa](cfg),
                                                game.STRATEGIES_O[so](cfg), oracle, rng)
                out.append(tr.to_json())
    return out


def test_cold_and_warm_operator_caches_give_the_same_transcripts():
    """No cached operator or gate carries state from one trial to the next."""
    _clear_operator_caches()
    cold = _transcripts()
    assert game._gadget_operator.cache_info().currsize > 0
    assert _transcripts() == cold
