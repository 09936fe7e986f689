"""Hidden-shift oracles: permutations, shuffling chains, in-place access,
shadows, and the depth-audited solvers."""

import numpy as np
import pytest

from qdepthlab import oracles
from qdepthlab.errors import CapacityError, DepthBudgetExceeded, QDepthError
from qdepthlab.hybrid import DCQ, HybridSession, StepCircuit, TraceStep, audited_depth
from qdepthlab.oracles import (
    KeyedPermutation,
    SubgroupEmbedding,
    apply_inplace_perm,
    apply_standard_oracle,
    build_inplace,
    dot_bits,
    inplace_from_standard,
    pseudorandom_simon,
    sample_shuffling,
    sample_simon,
    shadow_oracle,
    solve_hidden_shift,
    solve_inplace_dssp,
    solve_inplace_dssp_parallel,
    solve_standard_dssp,
)
from qdepthlab.qsim import Gate, SparseState

# chi-square critical value at p = 0.01 for 62 degrees of freedom
CHI2_99_DOF62 = 90.802


@pytest.fixture
def rng():
    return np.random.default_rng(77)


# -- keyed permutation --------------------------------------------------------


def test_prp_invert_exhaustive(rng):
    perm = oracles.random_keyed_permutation(8, rng)
    seen = set()
    for x in range(256):
        y = perm.eval(x)
        seen.add(y)
        assert perm.invert(y) == x
    assert len(seen) == 256  # injective over the full domain


def test_prp_distinct_keys_differ(rng):
    p1 = KeyedPermutation(b"key-one-0000000", 8)
    p2 = KeyedPermutation(b"key-two-0000000", 8)
    assert any(p1.eval(x) != p2.eval(x) for x in range(256))


def test_prp_odd_width(rng):
    perm = oracles.random_keyed_permutation(7, rng)
    assert sorted(perm.eval(x) for x in range(128)) == list(range(128))


def test_prp_width_checks(rng):
    perm = oracles.random_keyed_permutation(4, rng)
    with pytest.raises(QDepthError):
        perm.eval(16)


# -- subgroup embedding and Simon functions -----------------------------------


def test_subgroup_embedding_structure():
    emb = SubgroupEmbedding(4, 0b0110)
    assert emb.pivot == 2  # index-1-most-significant convention
    members = [x for x in range(16) if emb.in_h(x)]
    assert len(members) == 8
    for x in members:
        for y in members:
            assert emb.in_h(x ^ y)  # subgroup closure
    for x in range(16):
        assert emb.collapse(x) in members
        assert emb.collapse(x) == emb.collapse(x ^ 0b0110)


def test_projection_injective_on_h():
    emb = SubgroupEmbedding(4, 0b0110)
    members = [x for x in range(16) if emb.in_h(x)]
    images = {emb.project(x, 4) for x in members}
    assert len(images) == len(members)


def test_smallest_simon_case(rng):
    f = sample_simon(2, rng, forced_shift=0b11)
    assert f.evaluate(0b00) == f.evaluate(0b11)
    assert f.evaluate(0b01) == f.evaluate(0b10)
    assert len({f.evaluate(x) for x in range(4)}) == 2


def test_sample_simon_exhaustive(rng):
    for n in (3, 5, 8):
        f = sample_simon(n, rng)
        assert f.check_two_to_one()


def test_forced_zero_shift_rejected(rng):
    with pytest.raises(QDepthError):
        sample_simon(3, rng, forced_shift=0)


def test_shift_distribution_uniform(rng):
    counts = {}
    for _ in range(1000):
        f = sample_simon(6, rng)
        counts[f.s] = counts.get(f.s, 0) + 1
    expected = 1000 / 63
    chi2 = sum((counts.get(s, 0) - expected) ** 2 / expected
               for s in range(1, 64))
    assert chi2 < CHI2_99_DOF62


class _IdentityPerm:
    def eval(self, x):
        return x

    def invert(self, y):
        return y


def test_pseudorandom_simon_is_simon(rng):
    for n in (3, 6, 10):
        key = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
        s = int(rng.integers(1, 1 << n))
        g = pseudorandom_simon(key, s, n)
        assert g.check_two_to_one()
        assert g.s == s


def test_pseudorandom_simon_injective_on_h(rng):
    g = pseudorandom_simon(b"k" * 16, 0b101, 3)
    emb = g.embedding
    values = [g.evaluate(x) for x in range(8) if emb.in_h(x)]
    assert len(set(values)) == len(values)


def test_pseudorandom_simon_identity_perm_formula():
    """With the identity permutation, g reduces to the drop-and-pad map."""
    n, s = 4, 0b0101
    f = oracles.SimonFunction(n=n, m=n, s=s, prp=_IdentityPerm())
    emb = SubgroupEmbedding(n, s)
    for x in range(16):
        assert f.evaluate(x) == emb.project(emb.collapse(x), n)


def test_pseudorandom_simon_width_guard():
    with pytest.raises(QDepthError):
        pseudorandom_simon(b"k" * 16, 1, 4, m=2)


# -- shuffling oracles ---------------------------------------------------------


def test_shuffling_composition_d0(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 0, rng, mode="exact")
    for x in range(8):
        assert sh.compose(x) == f.evaluate(x)


@pytest.mark.parametrize("mode", ["exact", "prp"])
def test_shuffling_composition(rng, mode):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode=mode)
    for x in range(8):
        assert sh.compose(x) == f.evaluate(x)
    assert len(sh.s_d) == 8


def test_final_is_bottom_off_hidden_set(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    inside = set(sh.s_d)
    outside = next(y for y in range(1 << sh.big_width) if y not in inside)
    assert sh.final_eval(outside) is None


def test_exact_mode_width_policy(rng):
    with pytest.raises(CapacityError):
        sample_shuffling(sample_simon(9, rng), 2, rng, mode="exact")


def test_oracle_descriptor_withholds_shift(rng):
    import json

    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 1, rng, mode="exact", seed=5)
    desc = json.loads(sh.descriptor())
    assert desc["n"] == 3 and desc["d"] == 1 and desc["seed"] == 5
    assert "shift" not in {k for k in desc if k != "shift_commitment"}
    assert len(desc["shift_commitment"]) == 64


# -- in-place oracle ------------------------------------------------------------


@pytest.fixture
def inplace_oracle(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    return build_inplace(sh, rng)


def test_final_bijection_exhaustive(inplace_oracle):
    W = inplace_oracle.big_width
    seen = set()
    for z in range(1 << (W + 1)):
        v, fl = inplace_oracle.final.eval(z >> 1, z & 1)
        out = (v << 1) | fl
        assert out not in seen
        seen.add(out)
    assert len(seen) == 1 << (W + 1)


def test_middle_unitary_inverse_roundtrip(inplace_oracle, rng):
    fn = inplace_oracle.unitary_fn(1)
    inv = inplace_oracle.unitary_inv_fn(1)
    W = inplace_oracle.big_width
    for z in rng.integers(0, 1 << (W + 1), size=100):
        z = int(z)
        assert inv(fn(z)) == z


def test_flag_flips_by_coset_membership(inplace_oracle):
    """On S_d with incoming flag 0, the flag output is 1 iff the hidden
    function's preimage lies in the subgroup H."""
    base = inplace_oracle.base
    emb = base.simon.embedding
    for y, x_pre in base.s_d.items():
        v, fl = inplace_oracle.final.eval(y, 0)
        assert fl == int(emb.in_h(x_pre))
        assert v & ((1 << base.simon.m) - 1) == base.simon.evaluate(x_pre)
        v1, fl1 = inplace_oracle.final.eval(y, 1)
        assert fl1 == 1 ^ int(emb.in_h(x_pre))


def test_erasing_chain_reaches_tagged_state(inplace_oracle, rng):
    """The query chain ends in sum_x |x>|f(x)>|b(x)> exactly."""
    base = inplace_oracle.base
    n, W = base.n, base.big_width
    total = n + W + 1
    st = SparseState.from_bits([0] * total)
    for q in range(n):
        st.apply_gate(Gate("H", (q,)))
    apply_standard_oracle(
        st, lambda x: base.middle_eval(0, base.embed(x)), (0, n), (n, W))
    for lvl in range(1, base.d):
        apply_inplace_perm(st, lambda v, lvl=lvl: base.middle_eval(lvl, v), (n, W))
    apply_inplace_perm(st, inplace_oracle.unitary_fn(base.d), (n, W + 1))
    emb = base.simon.embedding
    want = {}
    amp = 2.0 ** (-n / 2)
    for x in range(1 << n):
        idx = (x << (W + 1)) | (base.simon.evaluate(x) << 1) | int(emb.in_h(x))
        want[idx] = amp
    assert set(st.support) == set(want)
    for k, v in want.items():
        assert abs(st.support[k] - v) < 1e-9


def test_standard_oracle_semantics(rng):
    st = SparseState.from_bits([0] * 8)
    for q in range(4):
        st.apply_gate(Gate("H", (q,)))
    fn = lambda x: (x * 7 + 3) % 16
    apply_standard_oracle(st, fn, (0, 4), (4, 4))
    for idx in st.support:
        x, y = idx >> 4, idx & 15
        assert y == fn(x)
    # applying twice is the identity
    apply_standard_oracle(st, fn, (0, 4), (4, 4))
    for idx in st.support:
        assert idx & 15 == 0
    assert abs(st.norm() - 1.0) < 1e-9


def test_standard_oracle_register_overlap():
    st = SparseState.from_bits([0] * 4)
    with pytest.raises(QDepthError):
        apply_standard_oracle(st, lambda x: x, (0, 3), (2, 2))


def test_two_query_inplace_route_matches_direct(rng):
    perm = oracles.random_keyed_permutation(8, rng)
    for x in range(256):
        st = SparseState.from_bits([0] * 16)
        st.map_basis(lambda idx: (x << 8))
        inplace_from_standard(st, perm, (0, 8), (8, 8))
        assert list(st.support) == [(perm.eval(x) << 8)]
    # identity permutation gives the identity map
    class _Id:
        def eval(self, x):
            return x

        def invert(self, y):
            return y

    st = SparseState.from_bits([0] * 4)
    inplace_from_standard(st, _Id(), (0, 2), (2, 2))
    assert list(st.support) == [0]


def test_two_query_route_on_superposition(rng):
    perm = oracles.random_keyed_permutation(4, rng)
    st = SparseState.from_bits([0] * 8)
    for q in range(4):
        st.apply_gate(Gate("H", (q,)))
    inplace_from_standard(st, perm, (0, 4), (4, 4))
    values = sorted(idx >> 4 for idx in st.support)
    assert values == list(range(16))  # amplitudes permuted, none lost
    assert abs(st.norm() - 1.0) < 1e-9


# -- shadow oracles --------------------------------------------------------------


def test_shadow_empty_hidden_set_is_same_object(inplace_oracle, rng):
    g = shadow_oracle(inplace_oracle, {}, rng)
    assert g is inplace_oracle


def test_shadow_middle_level_stays_permutation(inplace_oracle, rng):
    hidden = {1: list(range(16))}
    g = shadow_oracle(inplace_oracle, hidden, rng)
    W = g.big_width
    fn = g.unitary_fn(1)
    outs = {fn(z) for z in range(1 << (W + 1))}
    assert len(outs) == 1 << (W + 1)
    # agrees with the original outside the hidden set
    for z in range(40, 80):
        if (z >> 1) not in set(hidden[1]):
            assert fn(z) == inplace_oracle.unitary_fn(1)(z)


def test_shadow_final_level_kills_the_shift(inplace_oracle, rng):
    """Solving through the shadow recovers the original shift only at chance."""
    base = inplace_oracle.base
    hits = 0
    trials = 30
    for t in range(trials):
        trng = np.random.default_rng(1000 + t)
        g = shadow_oracle(inplace_oracle, {base.d: set(base.s_d)}, trng)
        s_hat, _, _ = solve_inplace_dssp(g, trng)
        hits += s_hat == base.simon.s
    assert hits / trials < 0.34  # chance is 1/7 at n=3


def test_shadow_final_level_requires_coverage(inplace_oracle, rng):
    partial = {inplace_oracle.d: list(inplace_oracle.base.s_d)[:2]}
    with pytest.raises(QDepthError):
        shadow_oracle(inplace_oracle, partial, rng)


# -- GF(2) solving and the dSSP solvers -------------------------------------------


def test_solve_hidden_shift_spanning_property(rng):
    """Recovery succeeds whenever the samples span the orthogonal space."""
    for n in (3, 5, 7):
        for _ in range(20):
            s = int(rng.integers(1, 1 << n))
            space = [y for y in range(1 << n) if dot_bits(y, s) == 0]
            samples = [space[i] for i in rng.integers(0, len(space), size=4 * n)]
            rank = oracles.gf2_rank(samples, n)
            got = solve_hidden_shift(samples, n)
            if rank == n - 1:
                assert got == s
            else:
                assert got is None


def test_solve_hidden_shift_rejects_full_rank(rng):
    samples = [1, 2, 4]
    assert solve_hidden_shift(samples, 3) is None


def test_inplace_solver_recovers_and_audits(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    ipo = build_inplace(sh, rng)
    s_hat, trace, stats = solve_inplace_dssp(ipo, rng)
    assert s_hat == f.s
    assert audited_depth(trace) == 2 + 3
    assert trace.scheme_kind == "dCQ"
    trace.validate()


def test_inplace_parallel_solver_is_one_dqc_run(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    ipo = build_inplace(sh, rng)
    s_hat, trace, stats = solve_inplace_dssp_parallel(ipo, rng, t_parallel=24)
    assert s_hat == f.s
    assert trace.scheme_kind == "dQC"
    assert trace.total_quantum_layers() == 2 + 3


def test_standard_solver_depth(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    s_hat, trace, _ = solve_standard_dssp(sh, rng)
    assert s_hat == f.s
    assert audited_depth(trace) == 2 * 2 + 3


def _rebuild_every_invocation(session, circuit):
    """Reference ``HybridSession.invoke``: re-run every step from |0...0>
    on each invocation."""
    if circuit.depth > session.budget:
        raise DepthBudgetExceeded("over budget")
    state = SparseState.from_bits([0] * circuit.num_qubits)
    for step in circuit.steps:
        state = step(state)
    session.trace.steps.append(
        TraceStep("quantum", layers=circuit.depth, full_measurement=True))
    idx = state.sample_index(session.rng)
    total = circuit.num_qubits
    return tuple((idx >> (total - 1 - q)) & 1 for q in range(total))


def _seeded_solve(access, n, mode, seed):
    rng = np.random.default_rng(seed)
    sh = sample_shuffling(sample_simon(n, rng), 2, rng, mode=mode)
    if access == "inplace":
        s_hat, trace, stats = solve_inplace_dssp(build_inplace(sh, rng), rng)
    else:
        s_hat, trace, stats = solve_standard_dssp(sh, rng)
    return s_hat, stats, trace.to_json(), rng.bit_generator.state


@pytest.mark.parametrize("access,n,mode", [
    ("inplace", 3, "exact"), ("inplace", 4, "prp"), ("standard", 3, "exact")])
def test_prepared_state_solver_matches_per_invocation_rebuild(
        monkeypatch, access, n, mode):
    """Sampling one prepared state per solve draws exactly what rebuilding
    it on every invocation draws: same shift, stats, trace and RNG state."""
    for seed in range(5):
        got = _seeded_solve(access, n, mode, seed)
        with monkeypatch.context() as m:
            m.setattr(HybridSession, "invoke", _rebuild_every_invocation)
            want = _seeded_solve(access, n, mode, seed)
        assert got == want


@pytest.mark.parametrize("access", ["inplace", "standard"])
def test_solver_runs_each_step_once_per_solve(monkeypatch, rng, access):
    calls = []

    def counted(schedule):
        def steps(self):
            steps, total = schedule(self)

            def wrap(k, step):
                def run(state):
                    calls.append(k)
                    return step(state)
                return run
            return [wrap(k, step) for k, step in enumerate(steps)], total
        return steps

    for name in ("inplace_steps", "standard_steps"):
        monkeypatch.setattr(oracles.SolverRun, name,
                            counted(getattr(oracles.SolverRun, name)))
    sh = sample_shuffling(sample_simon(3, rng), 2, rng, mode="exact")
    if access == "inplace":
        _, trace, stats = solve_inplace_dssp(build_inplace(sh, rng), rng)
        depth = 2 + 3
    else:
        _, trace, stats = solve_standard_dssp(sh, rng)
        depth = 2 * 2 + 3
    assert stats["runs"] > 1
    assert sorted(calls) == list(range(depth))
    # every invocation is still charged the full depth
    quantum = [st for st in trace.steps if st.kind == "quantum"]
    assert len(quantum) == stats["runs"]
    assert all(st.layers == depth and st.full_measurement for st in quantum)
    assert audited_depth(trace) == depth


def test_step_circuit_budget_checked_before_any_layer(rng):
    calls = []

    def step(state):
        calls.append(1)
        return state

    circuit = StepCircuit([step] * 3, 2)
    with pytest.raises(DepthBudgetExceeded):
        HybridSession(DCQ, 2, rng).invoke(circuit)
    assert calls == []


def test_flag_statistic_near_half(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 1, rng, mode="exact")
    ipo = build_inplace(sh, rng)
    _, _, stats = solve_inplace_dssp(ipo, rng, accepted_target=400, max_runs=4000)
    assert abs(stats["accepted"] / stats["runs"] - 0.5) < 0.06


def test_prp_mode_solver(rng):
    f = sample_simon(4, rng)
    sh = sample_shuffling(f, 2, rng, mode="prp")
    ipo = build_inplace(sh, rng)
    s_hat, _, _ = solve_inplace_dssp(ipo, rng)
    assert s_hat == f.s


def test_inplace_solver_under_budget_d_aborts(rng):
    """The erasing-access schedule declared as a dQC scheme runs at budget
    d+3 and aborts under budget d."""
    from qdepthlab.errors import DepthBudgetExceeded

    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    ipo = build_inplace(sh, rng)
    s_hat, trace, _ = solve_inplace_dssp_parallel(ipo, rng, t_parallel=20)
    assert s_hat == f.s and trace.budget == 5
    with pytest.raises(DepthBudgetExceeded):
        solve_inplace_dssp_parallel(ipo, rng, t_parallel=4, budget=2)


def test_prp_mode_inplace_bijectivity_spot_check(rng):
    """Inverse round-trips on 10^4 random points of the prp-backed unitaries."""
    f = sample_simon(4, rng)
    sh = sample_shuffling(f, 2, rng, mode="prp")
    ipo = build_inplace(sh, rng)
    W = ipo.big_width
    pts = rng.integers(0, 1 << (W + 1), size=10_000)
    for level in (1, 2):
        fn, inv = ipo.unitary_fn(level), ipo.unitary_inv_fn(level)
        for z in pts:
            z = int(z)
            assert inv(fn(z)) == z
