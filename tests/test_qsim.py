"""Simulator core: gates, measurement statistics, twirling."""

import concurrent.futures
import itertools
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from qdepthlab import gadgets, game, qsim
from qdepthlab.errors import CapacityError, ConfigError, QDepthError
from qdepthlab.qsim import Gate, SparseState, StateVector


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def test_h_on_zero():
    st = StateVector.from_bits([0])
    st.apply_gate(Gate("H", (0,)))
    assert np.allclose(st.amplitudes, [2 ** -0.5, 2 ** -0.5])


def test_parallel_x_layer():
    st = StateVector.from_bits([0, 0])
    st.apply_gate(Gate("X", (0,)))
    st.apply_gate(Gate("X", (1,)))
    assert np.allclose(st.amplitudes, [0, 0, 0, 1])


def test_layer_rejects_overlapping_targets():
    st = StateVector.from_bits([0, 0])
    with pytest.raises(QDepthError):
        st.apply_gate(Gate("CNOT", (0, 0)))
    with pytest.raises(QDepthError):
        st.apply_gate(Gate("X", (5,)))


def test_random_layer_preserves_norm(rng):
    st = StateVector(3, qsim.random_state(3, rng))
    u = qsim.haar_unitary(4, rng)
    st.apply_gate(Gate("U2", (0, 2), matrix=u))
    st.apply_gate(Gate("H", (1,)))
    assert abs(st.norm() - 1.0) < 1e-9


def test_dense_limit_enforced():
    StateVector(qsim.DENSE_LIMIT)
    with pytest.raises(CapacityError):
        StateVector(qsim.DENSE_LIMIT + 1)


def test_sparse_support_cap(monkeypatch):
    monkeypatch.setattr(qsim, "SPARSE_SUPPORT_CAP", 2)
    with pytest.raises(CapacityError):
        SparseState(3, {i: 0.5 for i in range(4)})


def test_measure_deterministic_one(rng):
    st = SparseState.from_bits([1])
    bit, st = qsim.measure(st, [0], rng)
    assert bit == 1


def test_measure_plus_in_hadamard_basis(rng):
    st = SparseState.from_bits([0])
    st.apply_gate(Gate("H", (0,)))
    bit, _ = qsim.measure(st.apply_hadamard_wall([0]), [0], rng)
    assert bit == 0  # H|+> = |0>


def test_born_rule_plus_state(rng):
    zeros = 0
    trials = 10000
    for _ in range(trials):
        st = SparseState.from_bits([0])
        st.apply_gate(Gate("H", (0,)))
        bit, _ = qsim.measure(st, [0], rng)
        zeros += bit == 0
    assert abs(zeros / trials - 0.5) < 0.02


def test_measure_requires_rng():
    st = SparseState.from_bits([0])
    with pytest.raises(QDepthError):
        qsim.measure(st, [0], None)


def test_dense_sparse_agreement(rng):
    """Random circuits on 5 qubits agree amplitude-wise within 1e-9."""
    n = 5
    for trial in range(3):
        dense = StateVector.from_bits([0] * n)
        sparse = SparseState.from_bits([0] * n)
        for _ in range(6):
            layer = []
            wires = list(rng.permutation(n))
            for q in wires[:3]:
                layer.append(Gate(["H", "T", "S", "X", "Z"][rng.integers(5)], (int(q),)))
            layer.append(Gate("CNOT", (int(wires[3]), int(wires[4]))))
            for gate in layer:
                dense.apply_gate(gate)
                sparse.apply_gate(gate)
        sparse_amps = np.zeros(1 << n, dtype=complex)
        sparse_amps[list(sparse.support)] = list(sparse.support.values())
        assert np.allclose(dense.amplitudes, sparse_amps, atol=1e-9)


# -- dense kernel: cached register operators against direct references ------


ONE_QUBIT_NAMES = ["I", "X", "Y", "Z", "H", "S", "SDG", "T", "TDG", "U"]


@hst.composite
def _gate_cases(draw):
    """(n, ordered targets, gate name, seed) on n <= 5 qubits; "U" is a
    Haar-random matrix drawn from the seed."""
    n = draw(hst.integers(1, 5))
    k = draw(hst.integers(1, min(n, 3)))
    targets = tuple(draw(hst.permutations(range(n)))[:k])
    names = {1: ONE_QUBIT_NAMES, 2: ["CNOT", "U"], 3: ["U"]}[k]
    return n, targets, draw(hst.sampled_from(names)), draw(hst.integers(0, 2**32 - 1))


def _gate_of(name, targets, rng) -> Gate:
    if name == "U":
        return Gate("U", targets, matrix=qsim.haar_unitary(1 << len(targets), rng))
    return Gate(name, targets)


def _embedded_unitary(u, targets, n) -> np.ndarray:
    """The 2^n matrix of ``u`` on ``targets``: kron(u, I) on the qubit order
    targets + rest, relabelled to the register's order."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    relabel = [sum(((i >> (n - 1 - q)) & 1) << (n - 1 - pos)
                   for pos, q in enumerate(order)) for i in range(1 << n)]
    full = np.kron(u, np.eye(1 << (n - len(targets))))
    return full[np.ix_(relabel, relabel)]


@settings(max_examples=150, deadline=None)
@given(case=_gate_cases())
@example(case=(2, (1, 0), "CNOT", 0))     # reversed
@example(case=(3, (2, 0), "CNOT", 1))     # reversed, not adjacent
@example(case=(5, (1, 4), "CNOT", 2))     # not adjacent
@example(case=(4, (3, 1), "U", 3))        # generic 2-qubit matrix
def test_apply_gate_matches_embedded_unitary(case):
    n, targets, name, seed = case
    rng = np.random.default_rng(seed)
    gate = _gate_of(name, targets, rng)
    psi = qsim.random_state(n, rng)
    got = StateVector(n, psi.copy()).apply_gate(gate).amplitudes
    want = _embedded_unitary(gate.unitary(), targets, n) @ psi
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(case=_gate_cases())
def test_dense_kernel_never_writes_the_callers_array(case):
    """Gates, pads and gadget first halves leave the array a caller handed
    to ``StateVector`` as it was, as when states are built straight from a
    shared table's rows."""
    n, targets, name, seed = case
    rng = np.random.default_rng(seed)
    gate = _gate_of(name, targets, rng)
    psi = qsim.random_state(n, rng)
    psi.flags.writeable = False      # any write raises
    sv = StateVector(n, psi)
    assert sv.amplitudes is psi      # the state starts on the caller's array
    sv.apply_gate(gate)
    assert sv.amplitudes is not psi
    keys = rng.integers(2, size=(n, 2)).tolist()
    for pad in (gadgets.encrypt_state, gadgets.decrypt_state):
        assert pad(StateVector(n, psi), keys).amplitudes is not psi
    sv = StateVector(n, psi)
    game.gadget_first_half(sv, targets[0], int(rng.integers(10)), rng)
    assert sv.amplitudes is not psi


@pytest.mark.parametrize("cls", [SparseState, StateVector])
@pytest.mark.parametrize("gate", [
    Gate("X", (-1,)), Gate("X", (2,)), Gate("CNOT", (0, 0)),
    Gate("CNOT", (1, -2)), Gate("CNOT", (0, 5))])
def test_apply_gate_rejects_bad_targets(cls, gate):
    """A negative, out-of-range or repeated target is a QDepthError on
    either kernel, also on a second try (nothing bad is memoised)."""
    for _ in range(2):
        state = cls(2)
        with pytest.raises(QDepthError):
            state.apply_gate(gate)
    assert cls(2).apply_gate(Gate("CNOT", (1, 0))).norm() == pytest.approx(1.0)


def test_map_basis_takes_one_batch_and_refuses_a_non_injective_map():
    """``map_basis`` hands its map the support's indices in support order,
    once, and keeps that order for their images; images that collide, or
    more or fewer images than indices, are a ``QDepthError`` that leaves
    the state as it was."""
    support = {5: 0.6 + 0j, 1: 0.0 + 0.8j, 6: 0j}
    calls = []

    def flip(idxs):
        calls.append(list(idxs))
        return [idx ^ 2 for idx in idxs]

    state = SparseState(3, support).map_basis(flip)
    assert calls == [[5, 1, 6]]
    assert list(state.support.items()) == [(7, 0.6 + 0j), (3, 0.8j), (4, 0j)]
    for bad in (lambda idxs: [0] * len(idxs), lambda idxs: idxs[:-1],
                lambda idxs: idxs + [7]):
        state = SparseState(3, support)
        with pytest.raises(QDepthError, match="not injective"):
            state.map_basis(bad)
        assert state.support == support


# -- the Born-rule draw of a full measurement --------------------------------


def _sample_index_reference(state, rng):
    """``SparseState.sample_index`` as it was before the Born table: the
    support's items, probabilities and draw rebuilt in one pass."""
    items = list(state.support.items())
    probs = np.fromiter((abs(a) ** 2 for _, a in items), dtype=float,
                        count=len(items))
    probs = probs / probs.sum()
    return items[int(rng.choice(len(items), p=probs))][0]


@hst.composite
def _supports(draw):
    """An unnormalised support on n <= 10 qubits, keys in random insertion
    order, every amplitude nonzero."""
    n = draw(hst.integers(1, 10))
    keys = draw(hst.lists(hst.integers(0, (1 << n) - 1), min_size=1,
                          max_size=min(1 << n, 200), unique=True))
    amps = draw(hst.lists(
        hst.tuples(hst.floats(1e-3, 2.0), hst.floats(0.0, 2 * np.pi)),
        min_size=len(keys), max_size=len(keys)))
    return n, {k: r * np.exp(1j * phi) for k, (r, phi) in zip(keys, amps)}


@settings(max_examples=150, deadline=None)
@given(case=_supports(), seed=hst.integers(0, 2**32 - 1),
       draws=hst.integers(1, 5))
def test_sample_index_matches_reference(case, seed, draws):
    """Drawing from a kept Born table, or from one built per call, one shot
    a call or ``draws`` shots in one call, returns the indices the old
    one-pass draw returned and leaves the generator in the same state."""
    n, support = case
    state = SparseState(n, support)
    born = state.born_distribution()
    assert born[0] == list(support)
    rng_kept, rng_fresh, rng_want, rng_shots = (np.random.default_rng(seed)
                                                for _ in range(4))
    wants = []
    for _ in range(draws):
        wants.append(_sample_index_reference(state, rng_want))
        assert state.sample_index(rng_kept, born, 1) == wants[-1:]
        assert state.sample_index(rng_fresh, None, 1) == wants[-1:]
    assert state.sample_index(rng_shots, born, draws) == wants
    for got in (rng_kept, rng_fresh, rng_shots):
        assert got.bit_generator.state == rng_want.bit_generator.state


# -- the Born sampler ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(weights=hst.lists(hst.one_of(hst.just(0.0), hst.floats(1e-9, 1e3)),
                         min_size=1, max_size=80).filter(lambda w: sum(w) > 0),
       seed=hst.integers(0, 2**32 - 1), draws=hst.integers(1, 20))
@example(weights=[0.0, 1.0], seed=0, draws=5)
@example(weights=[1.0, 0.0, 0.0, 3.0, 0.0], seed=7, draws=20)
def test_born_draw_matches_generator_choice(weights, seed, draws):
    """Draw for draw, ``born_draw`` on a ``born_cdf`` table returns the index
    ``Generator.choice`` returns for the same p, zero entries included, and
    leaves the generator in the same state."""
    p = np.array(weights) / sum(weights)
    cdf = qsim.born_cdf(p)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert qsim.born_draw(rng_got, cdf) == rng_want.choice(len(p), p=p)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def _pick_or_refusal(pick, rng):
    try:
        return pick(rng)
    except QDepthError:
        return "refused"


_WEIGHTS = hst.one_of(hst.just(0.0), hst.floats(5e-324, 1e300),
                      hst.floats(1e-9, 1e3))


@settings(max_examples=300, deadline=None)
@given(weights=hst.one_of(hst.lists(_WEIGHTS, min_size=2, max_size=2),
                          hst.lists(_WEIGHTS, min_size=1, max_size=40)),
       seed=hst.integers(0, 2**32 - 1), draws=hst.integers(1, 5))
@example(weights=[0.0, 1.0], seed=0, draws=5)
@example(weights=[1.0, 0.0], seed=0, draws=5)
@example(weights=[5e-324, 1.0], seed=1, draws=5)
@example(weights=[1.0, 1e-300], seed=2, draws=5)
@example(weights=[0.3, 0.7], seed=3, draws=5)
@example(weights=[0.0, 0.0], seed=0, draws=1)
@example(weights=[1e300, 1e300], seed=0, draws=1)
@example(weights=[1e308, 1e308], seed=0, draws=1)
@example(weights=[np.inf, 1.0], seed=0, draws=1)
@example(weights=[np.nan, 1.0], seed=0, draws=1)
@example(weights=[1.0, -0.5], seed=0, draws=1)
@example(weights=[0.25, 0.0, 0.75], seed=4, draws=5)
def test_born_pick_matches_born_draw_on_born_cdf(weights, seed, draws):
    """``born_pick`` on raw weights returns, draw for draw, the index
    ``born_draw`` takes from the ``born_cdf`` of the normalised weights, two
    entries or more, zero entries and extreme ratios included; it refuses
    the weights ``born_cdf`` refuses, and leaves the generator in the same
    state."""
    p = np.array(weights, dtype=float)
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for _ in range(draws):
            want = _pick_or_refusal(
                lambda rng: qsim.born_draw(rng, qsim.born_cdf(p / p.sum())), rng_want)
            assert _pick_or_refusal(lambda rng: qsim.born_pick(rng, p), rng_got) == want
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


class _FixedRandom:
    """A generator stand-in whose ``random()`` returns ``r``."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


@pytest.mark.parametrize("weights", [[0.1, 0.2], [0.0, 1.0], [1.0, 0.0],
                                     [77668.31143422979, 61300.33010530405]])
def test_born_pick_splits_two_weights_where_born_cdf_does(weights):
    """At the table's first entry and one ulp either side of it, the
    two-weight path picks what ``born_draw`` picks, also where the
    normalised weights sum to one ulp below 1, so that entry is a / (a + b)
    and not a."""
    p = np.array(weights)
    edge = qsim.born_cdf(p / p.sum())[0]
    for r in (0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)):
        if 0.0 <= r < 1.0:
            rng = _FixedRandom(float(r))
            assert qsim.born_pick(rng, p) == qsim.born_draw(rng, qsim.born_cdf(p / p.sum()))


def test_born_distribution_squares_amplitudes_in_python():
    """The Born table is built from Python's ``abs(a) ** 2``.  For this
    amplitude numpy's ``np.abs(a) ** 2`` is one ulp away, so a table built
    from it would move seeded draws.  Prover A's closing measurement draws
    from this same table, through ``sample_index``."""
    z, w = 0.1257302210933933 + 0.32359471786070765j, 0.5 + 0.25j
    weights = np.array([abs(z) ** 2, abs(w) ** 2])
    want = qsim.born_cdf(weights / weights.sum())
    indices, cdf = SparseState(1, {0: z, 1: w}).born_distribution()
    assert indices == [0, 1]
    assert cdf.tolist() == want.tolist()


_COMPONENTS = hst.one_of(
    hst.floats(-1.0, 1.0),
    hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    hst.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))


@settings(max_examples=300, deadline=None)
@given(amps=hst.lists(hst.builds(complex, _COMPONENTS, _COMPONENTS)
                      .filter(lambda a: abs(a) <= 1.0), min_size=1, max_size=50))
@example(amps=[0.1257302210933933 + 0.32359471786070765j, complex(-0.0, 0.0),
               complex(5e-324, -5e-324)])
def test_born_weights_equal_python_abs_squared_bit_for_bit(amps):
    """``born_weights``, which ``born_distribution`` normalises, is Python's
    ``abs(a) ** 2`` bit for bit, for amplitudes of modulus at most 1 with
    zeros, signed zeros and subnormal parts.  ``np.abs(z) ** 2`` fails this
    (at the first amplitude of the example, by one ulp), and so does
    ``np.hypot(z.real, z.imag) ** 2``: numpy squares by ``x * x``."""
    got = qsim.born_weights(np.array(amps, dtype=complex))
    assert got.tobytes() == np.array([abs(a) ** 2 for a in amps]).tobytes()
    state = SparseState(6, {k: a for k, a in enumerate(amps)})
    if sum(abs(a) ** 2 for a in amps) > 0:
        weights = np.array([abs(a) ** 2 for a in amps])
        want = qsim.born_cdf(weights / weights.sum())
        assert state.born_distribution()[1].tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [[0.0, 0.0], [0.0, 0.0, 0.0], [np.inf, 1.0],
                               [np.nan, 1.0]])
def test_born_pick_refuses_weights_without_a_finite_sum_before_dividing(p):
    """Weights summing to zero, infinity or NaN raise ``QDepthError``
    without a numpy warning (as errors here, whatever the test
    configuration) and without a draw."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QDepthError):
            qsim.born_pick(rng, np.array(p))
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("p", [[0.5, np.nan], [1.2, -0.2], [0.5, 0.6], [0.2, 0.2],
                               [], [np.inf, 0.0]])
def test_born_cdf_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), p=p)
    with pytest.raises(QDepthError):
        qsim.born_cdf(np.array(p, dtype=float))


def _sparse_measure_reference(state, qubits, rng):
    """The sparse branch of ``qsim.measure`` as it was before the Born
    sampler: outcome patterns keyed by tuples of bools, drawn by
    ``Generator.choice``."""
    masks = [state._mask(q) for q in qubits]
    patterns, members = {}, {}
    for idx, a in state.support.items():
        key = tuple((idx & m) != 0 for m in masks)
        patterns[key] = patterns.get(key, 0.0) + abs(a) ** 2
        members.setdefault(key, {})[idx] = a
    keys = sorted(patterns)
    probs = np.array([patterns[k] for k in keys])
    probs = probs / probs.sum()
    choice = keys[rng.choice(len(keys), p=probs)]
    keep = members[choice]
    nrm = np.sqrt(sum(abs(a) ** 2 for a in keep.values()))
    state.support = {k: v / nrm for k, v in keep.items()}
    return tuple(int(b) for b in choice), state


@settings(max_examples=200, deadline=None)
@given(case=_supports(), data=hst.data(), seed=hst.integers(0, 2**32 - 1),
       basis=hst.sampled_from(["standard", "hadamard"]))
def test_sparse_measure_matches_reference(case, data, seed, basis):
    """The outcome index the reference's bits spell (first measured qubit
    most significant), the same post-state (support order and amplitudes)
    and the same generator state as the tuple-keyed draw, on contiguous runs
    and on arbitrary qubit lists; a Hadamard-basis reading walls the
    measured qubits of both first."""
    n, support = case
    qubits = data.draw(hst.one_of(
        hst.tuples(hst.integers(0, n - 1), hst.integers(1, n)).map(
            lambda t: list(range(t[0], min(n, t[0] + t[1])))),
        hst.permutations(range(n)).flatmap(
            lambda p: hst.integers(1, n).map(lambda k: list(p[:k])))))
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = SparseState(n, support), SparseState(n, support)
    if basis == "hadamard":
        got.apply_hadamard_wall(qubits)
        want.apply_hadamard_wall(qubits)
    outcome, got = qsim.measure(got, qubits, rng_got)
    bits_want, want = _sparse_measure_reference(want, qubits, rng_want)
    assert outcome == qsim.bits_to_int(bits_want) and type(outcome) is int
    assert list(got.support.items()) == list(want.support.items())
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# -- the Hadamard wall ---------------------------------------------------------


def _wall_order_reference(state, qubits):
    """The support order of the grouped loop the wall replaced: groups by
    first appearance of their bits outside the wall, then sub-index (the
    wall's bits, first qubit most significant) ascending, zeros pruned."""
    masks = [state._mask(q) for q in qubits]
    comb = sum(masks)
    groups = {}
    for idx, a in state.support.items():
        groups.setdefault(idx & ~comb, {})[idx & comb] = a
    hk = qsim._hadamard_tensor(len(qubits))
    order = []
    for base, members in groups.items():
        vec = np.zeros(1 << len(qubits), dtype=complex)
        for bits, a in members.items():
            vec[sum(1 << (len(qubits) - 1 - j)
                    for j, m in enumerate(masks) if bits & m)] = a
        for sub in np.flatnonzero(np.abs(hk @ vec) > qsim._PRUNE):
            order.append(base | sum(m for j, m in enumerate(masks)
                                    if (sub >> (len(qubits) - 1 - j)) & 1))
    return order


@settings(max_examples=150, deadline=None)
@given(case=_supports(), data=hst.data())
def test_hadamard_wall_matches_per_qubit_gates(case, data):
    """The one-pass wall equals H on each qubit in turn, in support and
    amplitudes, and keeps the grouped loop's support order, which
    ``born_distribution`` reads."""
    n, support = case
    qubits = data.draw(hst.permutations(range(n)).flatmap(
        lambda p: hst.integers(0, n).map(lambda k: p[:k])))
    want = SparseState(n, support)
    for q in qubits:
        want.apply_gate(Gate("H", (q,)))
    got = SparseState(n, support).apply_hadamard_wall(qubits)
    assert list(got.support) == _wall_order_reference(SparseState(n, support), qubits)
    assert set(got.support) == set(want.support)
    for idx, a in got.support.items():
        assert abs(a - want.support[idx]) < 1e-12


@pytest.mark.parametrize("n", [62, 63, 64, 70])
def test_hadamard_wall_at_the_int64_edge(n):
    """Registers of at most 63 qubits form the wall's output indices in
    int64, wider ones in Python ints; on either side of that edge, with the
    top qubit set in the support, the wall keeps the reference's entries and
    their order, as Python ints, and the amplitudes of H on each qubit."""
    top = 1 << (n - 1)
    support = {top | 1: 0.6 + 0j, top | (1 << (n - 2)): 0.0 + 0.8j, 5: 0j + 1e-3,
               top | (1 << 30) | 6: -0.1 + 0j}
    for qubits in ([0], [0, n - 1], [n - 1, 1, 0, n // 2], [n - 3, n - 2]):
        got = SparseState(n, support).apply_hadamard_wall(qubits)
        assert list(got.support) == _wall_order_reference(SparseState(n, support),
                                                          qubits)
        assert all(type(k) is int for k in got.support)
        want = SparseState(n, support)
        for q in qubits:
            want.apply_gate(Gate("H", (q,)))
        assert set(got.support) == set(want.support)
        assert all(abs(a - want.support[k]) < 1e-12 for k, a in got.support.items())


def test_hadamard_wall_on_a_wide_register():
    """Basis indices beyond 63 bits stay exact Python ints."""
    n = 70
    state = SparseState(n, {(1 << 69) | 1: 1.0 + 0j}).apply_hadamard_wall([0, 69])
    want = {0: 0.5, 1: -0.5, 1 << 69: -0.5, (1 << 69) | 1: 0.5}
    assert state.support.keys() == want.keys()
    assert all(abs(state.support[k] - a) < 1e-12 for k, a in want.items())


@pytest.mark.parametrize("qubits", [[0, 0], [-1], [5], [1, 2]])
def test_hadamard_wall_rejects_bad_qubits(qubits):
    """A repeated, negative or out-of-range qubit is a QDepthError, also on
    a second try (nothing bad is memoised)."""
    for _ in range(2):
        with pytest.raises(QDepthError):
            SparseState(2).apply_hadamard_wall(qubits)
    assert SparseState(2).apply_hadamard_wall([1, 0]).norm() == pytest.approx(1.0)


@pytest.mark.parametrize("basis", ["standard", "hadamard"])
@pytest.mark.parametrize("qubits", [[0, 0], [-1], [5], [1, 2]])
@pytest.mark.parametrize("kernel", [SparseState])
def test_measure_rejects_bad_qubits(kernel, qubits, basis):
    """A repeated, negative or out-of-range measured qubit is a QDepthError
    before the state is touched, also on a second try; a Hadamard-basis
    reading's wall refuses it the same way."""
    state = kernel.from_bits([0, 1])
    before = state.copy()
    for _ in range(2):
        with pytest.raises(QDepthError, match="invalid on 2 qubits"):
            if basis == "hadamard":
                state.apply_hadamard_wall(qubits)
            qsim.measure(state, qubits, np.random.default_rng(0))
    assert state.support == before.support
    if basis == "standard":
        assert qsim.measure(state, [1, 0], np.random.default_rng(0))[0] == 0b10


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


def test_pauli_deviation_values():
    """The weight off the identity, 1 - r_0."""
    ops = {op.label(): op for op in qsim.all_paulis(1)}
    point = qsim.PauliDistribution({ops["I"]: 1.0})
    assert 1 - point.identity_weight() == 0.0
    mix = qsim.PauliDistribution({ops["I"]: 0.9, ops["X"]: 0.1})
    assert abs(1 - mix.identity_weight() - 0.1) < 1e-12
    eps = 0.03
    planted = qsim.PauliDistribution({ops["I"]: 1 - 4 * eps, ops["Z"]: 4 * eps})
    assert abs(1 - planted.identity_weight() - 4 * eps) < 1e-12


# -- the seeded trial loop ---------------------------------------------------------


def _alternate_play(played):
    """A stream play that rejects every stream 2 mod 3, audits depth 1 on odd
    streams and keeps the first draw of even ones, recording what it plays."""
    def play(rng, stream):
        played.append(stream)
        return stream % 3 != 2, stream % 2 or None, None if stream % 2 else rng.random()
    return play


def test_run_streams_stops_each_trial_at_its_first_reject():
    """Trial t plays streams 2t and 2t+1 from their own generators, stops at
    a reject, and records no None depth or kept value."""
    played = []
    accepted, depths, kept = qsim.run_streams(_alternate_play(played), 7, 4, 2, 1)
    assert played == [0, 1, 2, 4, 5, 6, 7]
    assert accepted == 2 and depths == {1}
    assert kept == [qsim.trial_rng(7, s).random() for s in (0, 2, 4, 6)]


@pytest.mark.parametrize("trials, repeat, jobs", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_run_streams_counts_below_one_are_config_errors(trials, repeat, jobs):
    with pytest.raises(ConfigError):
        qsim.run_streams(_alternate_play([]), 0, trials, repeat, jobs)


@pytest.mark.parametrize("cpus, jobs, workers", [(2, 5, 2), (None, 3, 1), (8, 3, 3)])
def test_run_streams_caps_its_workers_at_the_cpu_count(monkeypatch, cpus, jobs, workers):
    """``jobs`` chunks go to a pool of at most one worker per CPU, with the
    results of one job.  The pool here runs each chunk inline, so no process
    starts."""
    pools, submits = [], []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submits.append(args)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    split = qsim.run_streams(_alternate_play([]), 7, 6, 2, jobs)
    assert pools == [workers] and len(submits) == jobs
    assert split == qsim.run_streams(_alternate_play([]), 7, 6, 2, 1)
