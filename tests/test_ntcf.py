"""Toy claw-free family and the single-prover depth protocol."""

from dataclasses import replace

import numpy as np
import pytest

from qdepthlab import ntcf, oracles
from qdepthlab.errors import CapacityError, QDepthError, SchemeViolation
from qdepthlab.hybrid import HybridSession
from qdepthlab.ntcf import (
    HonestProver,
    PreimageOnlyProver,
    ResetProver,
    chk,
    extractor_experiment,
    gen,
    rewind_extract,
    run_cvqd,
    samp_state,
    verify_v,
)
from qdepthlab.qsim import Gate, dot_bits, measure


@pytest.fixture
def rng():
    return np.random.default_rng(13)


def _seeded(tag, t):
    return np.random.default_rng(np.random.SeedSequence(entropy=tag,
                                                        spawn_key=(t,)))


def test_gen_claw_structure_exhaustive(rng):
    for n in (2, 4, 6):
        k, t = gen(n, rng)
        assert t is k  # toy trapdoor
        values = {}
        for b in (0, 1):
            for x in range(1 << n):
                values.setdefault(k.eval(b, x), []).append((b, x))
        for y, pre in values.items():
            assert len(pre) == 2
            (b0, x0), (b1, x1) = sorted(pre)
            assert (b0, b1) == (0, 1) and x0 ^ x1 == k.shift


def test_branches_injective(rng):
    k, _ = gen(5, rng)
    for b in (0, 1):
        outs = {k.eval(b, x) for x in range(32)}
        assert len(outs) == 32


def test_trapdoor_inverts_both_branches(rng):
    k, t = gen(4, rng)
    for b in (0, 1):
        for x in range(16):
            y = k.eval(b, x)
            x0, x1 = t.preimages(y)
            assert (x0 if b == 0 else x1) == x


def test_chk_rows(rng):
    k, _ = gen(4, rng)
    x = 5
    y = k.eval(0, x)
    assert chk(k, 0, x, y) == 1
    assert chk(k, 1, x ^ k.shift, y) == 1   # the claw partner
    assert chk(k, 1, x, y) == int(k.shift == 0)
    assert chk(k, 0, x, (y + 1) % 16) == 0


def test_samp_state_shape_and_claw_collapse(rng):
    k, _ = gen(3, rng)
    st, = samp_state([k])
    assert st.num_qubits == 1 + 2 * 3
    assert len(st.support) == 16
    y, st2 = measure(st, range(4, 7), "standard", rng)
    x0, x1 = k.preimages(y)
    assert sorted(st2.support) == sorted([
        ((0 << 3 | x0) << 3) | y, ((1 << 3 | x1) << 3) | y])


def test_standard_measurement_passes_chk(rng):
    k, _ = gen(3, rng)
    for _ in range(10):
        st, = samp_state([k])
        y, st2 = measure(st, range(4, 7), "standard", rng)
        bx, _ = measure(st2, range(0, 4), "standard", rng)
        b, x = bx >> 3, bx & 0b111
        assert chk(k, b, x, y) == 1


def test_hadamard_measurement_equation_exhaustive(rng):
    """Every Hadamard outcome satisfies u = e . (x0 ^ x1) in the noise-free toy."""
    for n in (2, 3, 4):
        k, _ = gen(n, rng)
        for _ in range(25):
            st, = samp_state([k])
            _, st2 = measure(st, range(1 + n, 1 + 2 * n), "standard", rng)
            for q in range(1 + n):
                st2.apply_gate(Gate("H", (q,)))
            ue, _ = measure(st2, range(0, 1 + n), "standard", rng)
            u, e = ue >> n, ue & ((1 << n) - 1)
            assert u == dot_bits(e, k.shift)


def test_verify_v_rows(rng):
    k, _ = gen(4, rng)
    x = 9
    y = k.eval(0, x)
    assert verify_v(k, y, 0, (0, x)) == 1
    e = 13
    assert verify_v(k, y, 1, (dot_bits(e, k.shift), e)) == 1
    # the documented toy deviation: the zero equation is accepted
    assert verify_v(k, y, 1, (0, 0)) == 1
    assert verify_v(k, y, 1, (1, 0)) == 0
    with pytest.raises(QDepthError):
        verify_v(k, y, 0, 7)


def test_verifier_refuses_answers_outside_its_answer_space(rng):
    """A preimage bit b outside {0, 1}, or an equation answer whose u is not
    a bit or whose e is not an n-bit string, is refused as malformed, as an
    x or y outside the key's width is.  With shift 1 each of these answers
    satisfies the unchecked predicate: f(b, x ^ b) = f(0, x) for every b,
    and e . shift and u & 1 read only the low bit."""
    k = replace(gen(4, rng)[0], shift=1)
    x = 9
    y = k.eval(0, x)
    for b in (2, 3, 5):
        assert k.eval(b, x ^ b) == y
        with pytest.raises(QDepthError, match="preimage bit"):
            chk(k, b, x ^ b, y)
        with pytest.raises(QDepthError, match="preimage bit"):
            verify_v(k, y, 0, (b, x ^ b))
    with pytest.raises(QDepthError, match="preimage bit"):
        chk(k, -1, x, y)
    e = 13
    u = dot_bits(e, k.shift)
    assert verify_v(k, y, 1, (u, e)) == 1
    for w in ((u + 2, e), (u, e + 16), (dot_bits(-1, k.shift), -1)):
        with pytest.raises(QDepthError, match="bit u and an n-bit e"):
            verify_v(k, y, 1, w)


@pytest.mark.parametrize("c", [0, 1])
def test_verifier_refuses_non_integer_answers(rng, c):
    """An answer whose components are not integers is refused as malformed
    under either challenge, also where its values pass the range checks."""
    k, _ = gen(4, rng)
    y = k.eval(0, 9)
    for w in ((0, 1.5), (1.0, 9), ("0", 9), (0, None)):
        with pytest.raises(QDepthError, match="malformed"):
            verify_v(k, y, c, w)
    assert verify_v(k, y, 0, (np.int64(0), np.uint8(9))) == 1


@pytest.mark.parametrize("answer", [None, (0, 1.5), (1.5, 0)])
def test_run_refuses_a_malformed_answer_before_recording_it(rng, answer):
    """A prover's malformed answer reaches ``verify_v`` first, which refuses
    it as malformed, as a non-integer image commitment is refused before it
    could be truncated; integer answers of numpy types are recorded as
    ints."""
    class Malformed(HonestProver):
        def answer(self, i, c):
            return answer

    class FractionalImages(HonestProver):
        def begin(self, keys, d, rng):
            return [y + 0.5 for y in super().begin(keys, d, rng)]

    class NumpyInts(HonestProver):
        def answer(self, i, c):
            return tuple(np.int64(v) for v in super().answer(i, c))

    with pytest.raises(QDepthError, match="malformed"):
        run_cvqd(2, Malformed(), rng)
    with pytest.raises(QDepthError, match="malformed image"):
        run_cvqd(2, FractionalImages(), rng)
    verdict, run = run_cvqd(2, NumpyInts(), _seeded(150, 0))
    assert verdict == "accept"
    assert all(type(v) is int for w in run.responses for v in w)


def test_honest_run_accepts_with_exact_depth(rng):
    for d in (1, 2, 4):
        verdict, run = run_cvqd(d, HonestProver(), _seeded(100 + d, 0))
        assert verdict == "accept"
        assert run.audited_depth == ntcf.D0_DEFAULT + d
        assert len(run.challenges) == d + 1


@pytest.mark.parametrize("d", [1, 3])
def test_reported_d0_is_the_audited_claw_block(d):
    """The d0 a run reports is the block its honest prover was audited for."""
    verdict, run = run_cvqd(d, ntcf.PROVERS["honest"](), _seeded(140 + d, 0), n=3)
    assert verdict == "accept"
    assert run.to_json()["d0"] + d == run.audited_depth


def test_challenges_are_sequential(rng):
    """c_{i+1} is sampled only after w_i arrives: the run log alternates."""
    verdict, run = run_cvqd(3, HonestProver(), rng)
    assert len(run.challenges) == len(run.responses)
    assert verdict == "accept"


def test_reject_aborts_early(rng):
    class Stubborn(PreimageOnlyProver):
        pass

    seen = []
    for t in range(200):
        verdict, run = run_cvqd(2, Stubborn(), _seeded(7, t))
        if verdict == "reject":
            # rejection happened at the first c=1 round: no later responses
            assert run.challenges[len(run.responses) - 1] == 1
            assert all(c == 0 for c in run.challenges[:-1])
            seen.append(len(run.responses))
    assert seen


def test_preimage_only_rate(rng):
    d = 3
    acc = sum(run_cvqd(d, PreimageOnlyProver(), _seeded(8, t))[0] == "accept"
              for t in range(2000))
    assert abs(acc / 2000 - 2.0 ** -(d + 1)) < 0.02


class _FailingProver(HonestProver):
    """Honest, except that each answer is wrong with probability ``mu``.  The
    failure draw comes before the measurement's draws, and a failed round
    still pays its layer."""

    def __init__(self, mu):
        self.mu = mu

    def answer(self, i, c):
        if self.rng.random() >= self.mu:
            return super().answer(i, c)
        if i >= 2:
            self.session.charge_layers(1, f"round_{i}_basis: a failed round")
        return (1, 0) if c == 1 else (0, 0)


def test_injected_failure_union_bound():
    """With per-round failure mu, acceptance stays above 1 - (d+1) mu."""
    d, mu, trials = 3, 0.05, 800
    acc = sum(
        run_cvqd(d, _FailingProver(mu), _seeded(9, t))[0] == "accept"
        for t in range(trials))
    rate = acc / trials
    sigma = (rate * (1 - rate) / trials) ** 0.5
    assert rate >= 1 - (d + 1) * mu - 3 * sigma


def test_rewind_extract_planted_reveals_shift(rng):
    """A prover deterministically correct on both challenges yields a valid
    preimage-equation pair every time, and the pair checks against the shift."""
    for t in range(30):
        prover = ResetProver(j=1, equation_mode="planted")
        y, w0, w1, both, _ = rewind_extract(prover, _seeded(10, t), n=4, d=2)
        assert both == 1
        b, x = w0
        u, e = w1
        k = prover.keys[-1]
        assert chk(k, b, x, y) == 1
        assert dot_bits(e, k.shift) == u


def test_rewind_extract_guess_matches_identity():
    """p0 = 1 and p1 ~ 1/2 for the preimage-keeping guesser, so both_valid
    tracks p0 + p1 - 1."""
    res = extractor_experiment(2, 1200, rng_seed=11, mode="guess")
    assert res["p0"] == 1.0
    assert abs(res["p1"] - 0.5) < 0.05
    assert res["both_valid_rate"] >= res["p0"] + res["p1"] - 1 - 1e-9


def test_extractor_requires_reset(rng):
    prover = ResetProver(j=10, equation_mode="guess")  # never resets in range
    with pytest.raises(Exception):
        rewind_extract(prover, rng, n=3, d=2)


def test_honest_depth_budget_is_tight(rng):
    """The honest prover runs exactly at budget; one more layer would abort."""
    from qdepthlab.errors import DepthBudgetExceeded

    prover = HonestProver()
    verdict, run = run_cvqd(2, prover, rng)
    trace = prover.session.trace
    assert trace.total_quantum_layers() == trace.budget
    with pytest.raises(DepthBudgetExceeded):
        prover.session.charge_layers(1, "one too many")


def test_lab_error_in_trace_is_not_swallowed(rng):
    """An error in the prover's trace is a lab bug and reaches the caller."""

    class Broken(HonestProver):
        def trace(self):
            raise QDepthError("lab bug")

    with pytest.raises(QDepthError, match="lab bug"):
        run_cvqd(2, Broken(), rng)


def test_scheme_violation_in_finish_reaches_the_caller(monkeypatch, rng):
    """A trace that fails its scheme check is a lab bug, not a run without
    an audit: the error reaches the caller."""

    def broken(self):
        raise SchemeViolation("lab bug")

    monkeypatch.setattr(HybridSession, "finish", broken)
    with pytest.raises(SchemeViolation, match="lab bug"):
        run_cvqd(2, HonestProver(), rng)


def _no_rounds(monkeypatch):
    """Make any Feistel pass, or any round of one, fail the test."""
    def never(*args, **kwargs):
        raise AssertionError("a Feistel pass ran")

    monkeypatch.setattr(ntcf, "feistel_pass", never)
    monkeypatch.setattr(oracles, "feistel_pass", never)
    monkeypatch.setattr(oracles, "_fmix64", never)


def test_samp_state_refuses_an_over_cap_claw_state_before_building(monkeypatch):
    """At n = 20 the claw state has 2^21 entries, over the sparse cap: the
    refusal comes before a single image is evaluated, also when only the
    last of a run's keys is over the cap, and no key's memo fills."""
    rng = np.random.default_rng(0)
    _no_rounds(monkeypatch)
    for widths in ([20], [4, 4, 4, 20]):
        keys = [gen(n, rng)[0] for n in widths]
        with pytest.raises(CapacityError):
            samp_state(keys)
        assert all(k.perm._fwd_cache == k.perm._inv_cache == {} for k in keys)


def test_preimages_of_sampled_images_run_no_round(monkeypatch, rng):
    """``samp_state`` leaves every image's preimage in the inverse memo, so
    the trapdoor inverts each image of every claw state of a run without
    running the Feistel network again."""
    d = 3
    keys = [gen(4, rng)[0] for _ in range(d + 1)]
    sampled = []

    def recorded(keys):
        states = samp_state(keys)
        sampled.extend({idx & 0xF for idx in st.support} for st in states)
        return states

    monkeypatch.setattr(ntcf, "samp_state", recorded)
    HonestProver().begin(keys, d, rng)
    _no_rounds(monkeypatch)
    assert len(sampled) == d + 1
    for key, images in zip(keys, sampled):
        assert len(images) == 16
        for y in images:
            x0, x1 = key.preimages(y)
            assert key.eval(0, x0) == key.eval(1, x1) == y


# (images, rng state after begin) of keys [gen(4, rng)[0] for _ in range(4)]
# and begin(keys, 3, rng) on default_rng(33), one Feistel pass per key
BEGIN_KNOWN = {
    HonestProver: [3, 0, 1, 5],
    PreimageOnlyProver: [1, 11, 3, 0],
}
BEGIN_RNG_STATE = 339233835315205608881349477243120495829


@pytest.mark.parametrize("prover_cls", [HonestProver, PreimageOnlyProver])
def test_begin_evaluates_every_key_in_one_feistel_pass(monkeypatch, prover_cls):
    """At d = 3 a prover's ``begin`` runs one Feistel pass for all four
    keys: ``FEISTEL_ROUNDS`` mixer calls, not one set per key.  Its images
    and the generator's state afterwards are those of one pass per key."""
    calls = []
    fmix64 = oracles._fmix64

    def counted(words):
        calls.append(len(words))
        return fmix64(words)

    rng = np.random.default_rng(33)
    keys = [gen(4, rng)[0] for _ in range(4)]
    monkeypatch.setattr(oracles, "_fmix64", counted)
    assert prover_cls().begin(keys, 3, rng) == BEGIN_KNOWN[prover_cls]
    assert len(calls) == oracles.FEISTEL_ROUNDS
    assert rng.bit_generator.state["state"]["state"] == BEGIN_RNG_STATE


@pytest.mark.parametrize("n", [64, 128, 129])
def test_gen_refuses_keys_over_63_bits_before_drawing(n):
    """A shift wider than 63 bits is beyond ``Generator.integers``: ``gen``
    refuses it with ``CapacityError`` before it draws anything."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(CapacityError):
        gen(n, rng)
    assert rng.bit_generator.state == state
    assert gen(63, rng)[0].n == 63
