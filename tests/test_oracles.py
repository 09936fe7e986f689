"""Hidden-shift oracles: keyed permutations, Simon functions, shuffling
chains, in-place access, GF(2) solving, and the depth-audited solvers."""

import hashlib
import json
import pathlib

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from qdepthlab import oracles
from qdepthlab.errors import CapacityError, DepthBudgetExceeded, QDepthError
from qdepthlab.hybrid import DCQ, HybridSession, StepCircuit, TraceStep, audited_depth
from qdepthlab.oracles import (
    KeyedPermutation,
    SubgroupEmbedding,
    apply_inplace_perm,
    apply_standard_oracle,
    build_inplace,
    feistel_pass,
    pseudorandom_simon,
    sample_shuffling,
    sample_simon,
    shift_sample,
    solve_hidden_shift,
    solve_inplace_dssp,
    solve_standard_dssp,
)
from qdepthlab.qsim import Gate, SparseState, bits_to_int, born_draw, dot_bits, measure

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"

# chi-square critical values at p = 0.01 for 62 and 63 degrees of freedom
CHI2_99_DOF62 = 90.802
CHI2_99_DOF63 = 92.010


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


def _fmix64_reference(v):
    """murmur3's 64-bit finaliser in Python ints."""
    for mul in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        v = ((v ^ (v >> 33)) * mul) & ((1 << 64) - 1)
    return v ^ (v >> 33)


def _feistel_reference(key, width, x):
    """One input through the rounds in Python ints: round r xors
    fmix64(half ^ K_r), masked to the other half's width, into the other
    half, where K_r is the r-th big-endian 8-byte word of SHAKE-256(key)."""
    words = hashlib.shake_256(key).digest(8 * oracles.FEISTEL_ROUNDS)
    l_bits = width // 2
    r_bits = width - l_bits
    left, right = x >> r_bits, x & ((1 << r_bits) - 1)
    for rnd in range(oracles.FEISTEL_ROUNDS):
        round_key = int.from_bytes(words[8 * rnd: 8 * rnd + 8], "big")
        if rnd % 2 == 0:
            left ^= _fmix64_reference(right ^ round_key) & ((1 << l_bits) - 1)
        else:
            right ^= _fmix64_reference(left ^ round_key) & ((1 << r_bits) - 1)
    return (left << r_bits) | right


# outputs of _feistel_reference under the key bytes(range(16))
FEISTEL_KNOWN = {
    2: {x: y for x, y in enumerate([3, 1, 0, 2])},
    4: {x: y for x, y in enumerate(
        [2, 15, 7, 14, 12, 10, 8, 6, 1, 5, 11, 9, 3, 13, 4, 0])},
    24: {0: 10577967, 1: 11520807, 12345: 4613289, 0xABCDEF: 12790041,
         (1 << 24) - 1: 5011266},
}


@pytest.mark.parametrize("width", sorted(FEISTEL_KNOWN))
def test_prp_known_answers(width):
    key = bytes(range(16))
    perm = KeyedPermutation(key, width)
    for x, y in FEISTEL_KNOWN[width].items():
        assert _feistel_reference(key, width, x) == y
        assert perm.eval(x) == y
        assert perm.invert(y) == x


def test_prp_memos_stop_at_the_cap(monkeypatch):
    """The forward and inverse memos stop at ``_CACHE_CAP`` outputs each,
    and each holds the other's pairs reversed.  Capped outputs are still
    the known answers."""
    for cap in (5, 12, 25):
        monkeypatch.setattr(KeyedPermutation, "_CACHE_CAP", cap)
        perm = KeyedPermutation(bytes(range(16)), 4)
        assert all(perm.invert(perm.eval(x)) == x for x in range(16))
        assert len(perm._fwd_cache) == len(perm._inv_cache) == min(cap, 16)
        assert perm._inv_cache == {y: x for x, y in perm._fwd_cache.items()}
        assert [perm.eval(x) for x in range(16)] == \
            [FEISTEL_KNOWN[4][x] for x in range(16)]


def test_prp_width_cap():
    """Feistel maps go up to 128 bits, where each 64-bit round value covers
    its half: the images of 0..63 set every bit.  129 bits are refused."""
    perm = KeyedPermutation(b"k" * 16, oracles.PRP_WIDTH_LIMIT)
    assert oracles.PRP_WIDTH_LIMIT == 128
    union = 0
    for y in perm.eval_many(range(64)):
        union |= y
    assert union == (1 << 128) - 1
    with pytest.raises(CapacityError):
        KeyedPermutation(b"k" * 16, 129)


@settings(max_examples=60, deadline=None)
@given(width=hst.integers(2, 128), key=hst.binary(min_size=16, max_size=16),
       data=hst.data())
def test_prp_matches_the_reference_and_round_trips(width, key, data):
    """At every width from 2 to 128 bits, batched and single evaluations
    give the per-input reference, and inverting on a fresh permutation,
    whose memos are empty, gives the inputs back."""
    top = (1 << width) - 1
    xs = data.draw(hst.lists(hst.integers(0, top), min_size=1, max_size=20))
    want = [_feistel_reference(key, width, x) for x in xs]
    assert KeyedPermutation(key, width).eval_many(xs) == want
    assert KeyedPermutation(key, width).eval(xs[0]) == want[0]
    fresh = KeyedPermutation(key, width)
    assert [fresh.invert(y) for y in want] == xs


@settings(max_examples=60, deadline=None)
@given(width=hst.integers(2, 70), data=hst.data())
@example(width=64, data=None)
@example(width=70, data=None)
def test_eval_many_matches_scalar_eval(width, data):
    """The batched Feistel rounds give what ``eval`` and a per-input
    reference give, element by element and duplicates included, on domains
    wider than 63 bits too, and leave the same forward and inverse memos
    behind as ``eval``."""
    top = (1 << width) - 1
    xs = [0, top, top // 3, 1, top]
    if data is not None:
        xs += data.draw(hst.lists(hst.integers(0, top), max_size=40))
    key = bytes(range(16))
    batch, scalar = KeyedPermutation(key, width), KeyedPermutation(key, width)
    scalar.eval(xs[2])      # one input already cached before the batch
    batch.eval(xs[2])
    got = batch.eval_many(xs)
    assert got == [_feistel_reference(key, width, x) for x in xs]
    assert got == [scalar.eval(x) for x in xs]
    assert list(batch._fwd_cache.items()) == list(scalar._fwd_cache.items())
    assert list(batch._inv_cache.items()) == list(scalar._inv_cache.items())
    assert all(batch.invert(y) == x for x, y in zip(xs, got))


@settings(max_examples=60, deadline=None)
@given(width=hst.integers(2, 70), data=hst.data())
def test_capped_memos_keep_eval_invert_and_eval_many_exact(width, data):
    """Under a cap of twenty outputs per memo, interleaved ``eval``,
    ``invert`` and ``eval_many`` calls give the per-input reference, and
    the memos never outgrow the cap."""
    top = (1 << width) - 1
    key = bytes(range(16))
    calls = data.draw(hst.lists(hst.tuples(
        hst.sampled_from(["eval", "invert", "eval_many"]),
        hst.lists(hst.integers(0, top), min_size=1, max_size=12)), max_size=8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KeyedPermutation, "_CACHE_CAP", 20)
        perm = KeyedPermutation(key, width)
        for name, xs in calls:
            if name == "eval_many":
                assert perm.eval_many(xs) == [_feistel_reference(key, width, x) for x in xs]
            elif name == "eval":
                assert perm.eval(xs[0]) == _feistel_reference(key, width, xs[0])
            else:
                assert _feistel_reference(key, width, perm.invert(xs[0])) == xs[0]
            assert len(perm._fwd_cache) <= 20 and len(perm._inv_cache) <= 20


def test_eval_many_hashes_the_key_once_and_mixes_once_per_round(monkeypatch):
    """A permutation hashes its key once, when it is made.  ``eval_many``
    then runs the mixer once per round over the whole batch, and
    inverting every output runs no round at all."""
    key, width = b"count-the-hashes", 12
    xs = [5, 4095, 5, 64, 65, 128, 3000, 64, 7]
    want = [_feistel_reference(key, width, x) for x in xs]
    hashes, mixes = [], []
    shake_256, fmix64 = hashlib.shake_256, oracles._fmix64

    def counted_hash(data=b""):
        hashes.append(data)
        return shake_256(data)

    def counted_mix(words):
        mixes.append(len(words))
        return fmix64(words)

    monkeypatch.setattr(oracles.hashlib, "shake_256", counted_hash)
    monkeypatch.setattr(oracles, "_fmix64", counted_mix)
    perm = KeyedPermutation(key, width)
    assert hashes == [key]
    assert perm.eval_many(xs) == want
    assert mixes == [len(set(xs))] * oracles.FEISTEL_ROUNDS
    assert [perm.invert(y) for y in want] == xs
    assert len(mixes) == oracles.FEISTEL_ROUNDS and hashes == [key]


@pytest.mark.parametrize("bad", [-1, 1 << 5, 1 << 70])
def test_eval_many_rejects_out_of_range_inputs(bad):
    perm = KeyedPermutation(bytes(range(16)), 5)
    with pytest.raises(QDepthError):
        perm.eval_many([3, bad, 4])
    assert perm._fwd_cache == {}


def test_eval_many_fills_the_memo_up_to_its_cap(monkeypatch):
    monkeypatch.setattr(KeyedPermutation, "_CACHE_CAP", 5)
    perm = KeyedPermutation(bytes(range(16)), 4)
    assert perm.eval_many(range(16)) == [FEISTEL_KNOWN[4][x] for x in range(16)]
    assert list(perm._fwd_cache) == [0, 1, 2, 3, 4]
    assert list(perm._inv_cache) == [FEISTEL_KNOWN[4][x] for x in range(5)]


@settings(max_examples=60, deadline=None)
@given(width=hst.integers(2, 128),
       keys=hst.lists(hst.binary(min_size=16, max_size=16), min_size=1, max_size=4),
       inverse=hst.booleans(), cap=hst.sampled_from([3, 8, 1 << 18]), data=hst.data())
@example(width=128, keys=[bytes(range(16)), b"k" * 16], inverse=False, cap=1 << 18,
         data=None)
def test_feistel_pass_is_one_eval_many_per_permutation(width, keys, inverse, cap, data):
    """One pass over several same-width permutations gives, for each, what
    its own ``eval_many`` (or ``invert`` one output at a time) gives and the
    per-input reference confirms, duplicates and partly warm memos
    included, and leaves each permutation's forward and inverse memos
    equal, entry order included, to those of its one-permutation twin."""
    top = (1 << width) - 1
    if data is None:
        batches = [[0, top, 0, 5], [top, 7, 7]]
        warm = [[5], []]
    else:
        draws = [data.draw(hst.lists(hst.integers(0, top), max_size=10)) for _ in keys]
        batches = [xs + xs[::2] for xs in draws]
        warm = [data.draw(hst.lists(hst.sampled_from(xs), max_size=3)) if xs else []
                for xs in draws]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KeyedPermutation, "_CACHE_CAP", cap)
        batched = [KeyedPermutation(key, width) for key in keys]
        single = [KeyedPermutation(key, width) for key in keys]
        for perms in (batched, single):
            for perm, xs in zip(perms, warm):
                perm.eval_many(xs)
        got = feistel_pass(batched, batches, inverse=inverse)
        for key, perm, twin, xs, ys in zip(keys, batched, single, batches, got):
            if inverse:
                assert ys == [twin.invert(x) for x in xs]
                assert [_feistel_reference(key, width, y) for y in ys] == xs
            else:
                assert ys == twin.eval_many(xs)
                assert ys == [_feistel_reference(key, width, x) for x in xs]
            assert list(perm._fwd_cache.items()) == list(twin._fwd_cache.items())
            assert list(perm._inv_cache.items()) == list(twin._inv_cache.items())


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("bad_at", [0, 1, 2])
def test_feistel_pass_checks_every_batch_before_any_round(monkeypatch, bad_at, inverse):
    """An out-of-range input in any batch, or a permutation of another
    width, is refused before a round runs, and no memo fills."""
    def never(words):
        raise AssertionError("a Feistel round ran")

    perms = [KeyedPermutation(bytes([i]) * 16, 5) for i in range(3)]
    batches = [[1, 2], [3], [4, 31]]
    batches[bad_at] = batches[bad_at] + [32]
    monkeypatch.setattr(oracles, "_fmix64", never)
    with pytest.raises(QDepthError, match="does not fit"):
        feistel_pass(perms, batches, inverse=inverse)
    wide = perms[:bad_at] + [KeyedPermutation(b"w" * 16, 6)] + perms[bad_at + 1:]
    with pytest.raises(QDepthError, match="one width"):
        feistel_pass(wide, [[1]] * 3, inverse=inverse)
    assert all(p._fwd_cache == p._inv_cache == {} for p in perms + wide)


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
    images = {emb.project(x) for x in members}
    assert len(images) == len(members)


def test_smallest_simon_case(rng):
    """At n=2 every shift is drawn, 0b11 among them, and each function
    pairs x with x^s onto two values."""
    shifts = set()
    for _ in range(30):
        f = sample_simon(2, rng)
        shifts.add(f.s)
        values = f.evaluate([0b00, f.s, 0b11, 0b11 ^ f.s])
        assert values[0] == values[1] and values[2] == values[3]
        assert len(set(f.evaluate(list(range(4))))) == 2
    assert shifts == {0b01, 0b10, 0b11}


def test_sample_simon_exhaustive(rng):
    for n in (3, 5, 8):
        f = sample_simon(n, rng)
        assert f.check_two_to_one()


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
    def eval_many(self, xs):
        return list(xs)


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
    values = g.evaluate([x for x in range(8) if emb.in_h(x)])
    assert len(set(values)) == len(values)


def test_pseudorandom_simon_identity_perm_formula():
    """With the identity permutation, g reduces to the drop-and-pad map."""
    n, s = 4, 0b0101
    f = oracles.SimonFunction(n=n, s=s, prp=_IdentityPerm())
    emb = SubgroupEmbedding(n, s)
    assert f.evaluate(list(range(16))) == [emb.project(emb.collapse(x)) for x in range(16)]


# -- shuffling oracles ---------------------------------------------------------


def test_shuffling_composition_d0(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 0, rng, mode="exact")
    assert [sh.compose(x) for x in range(8)] == f.evaluate(list(range(8)))


@pytest.mark.parametrize("mode", ["exact", "prp"])
def test_shuffling_composition(rng, mode):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode=mode)
    assert [sh.compose(x) for x in range(8)] == f.evaluate(list(range(8)))
    assert len(sh.s_d) == 8


def test_final_eval_refuses_points_off_hidden_set(rng):
    """f_d gives the hidden function's value on S_d and raises
    ``QDepthError`` naming any other point."""
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    assert sh.final_eval(list(sh.s_d)) == f.evaluate(list(sh.s_d.values()))
    outside = next(y for y in range(1 << sh.big_width) if y not in sh.s_d)
    with pytest.raises(QDepthError, match=f"at {outside}, off S_d"):
        sh.final_eval([outside])
    with pytest.raises(QDepthError, match=f"at {outside}, off S_d"):
        sh.final_eval([*sh.s_d, outside])


def test_build_inplace_returns_the_chain_after_its_key_draw():
    """In-place access is the chain itself; building it draws 16 key bytes
    and nothing else, so the trial stream continues as a twin generator's
    does after that one draw."""
    rng, twin = np.random.default_rng(2223), np.random.default_rng(2223)
    sh = sample_shuffling(sample_simon(3, rng), 2, rng, mode="exact")
    sample_shuffling(sample_simon(3, twin), 2, twin, mode="exact")
    assert build_inplace(sh, rng) is sh
    twin.integers(0, 256, size=16, dtype=np.uint8)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_exact_mode_width_policy(rng):
    """Exact mode samples domains up to the widest Generator.choice takes:
    a 63-bit chain is refused; a 62-bit one, and n=9, d=2 (36 bits, refused
    while exact mode drew whole tables), build and hide the Simon function
    on every input."""
    assert oracles.EXACT_WIDTH_LIMIT == 62
    with pytest.raises(CapacityError):
        sample_shuffling(sample_simon(3, rng), 19, rng, mode="exact")
    for n, d, width in [(2, 29, 62), (9, 2, 36)]:
        f = sample_simon(n, rng)
        sh = sample_shuffling(f, d, rng, mode="exact")
        assert sh.big_width == width
        assert [sh.compose(x) for x in range(1 << n)] == f.evaluate(list(range(1 << n)))


def test_prp_mode_width_policy(rng):
    """Prp chains go up to the 128-bit Feistel cap: n=3, d=40 (126 bits) and
    n=4, d=30 (128 bits) build in place and hide the Simon function on every
    input, and the final map refuses a point off its valid set.  n=3, d=41
    (129 bits) and n=4, d=31 (132 bits) are refused."""
    for n, d, width in [(3, 40, 126), (4, 30, 128)]:
        f = sample_simon(n, rng)
        sh = build_inplace(sample_shuffling(f, d, rng, mode="prp"), rng)
        assert sh.big_width == width
        assert 0 not in sh.s_d
        with pytest.raises(QDepthError, match="evaluated at 0,"):
            sh.final_unitary([0])
        assert [sh.compose(x) for x in range(1 << n)] == f.evaluate(list(range(1 << n)))
    for n, d in [(3, 41), (4, 31)]:
        with pytest.raises(CapacityError):
            sample_shuffling(sample_simon(n, rng), d, rng, mode="prp")


def _narrow_exact(seed):
    """The one middle map of an exact n=2, d=1 chain: a map of the 6-bit
    strings held on its chain points 0..3."""
    rng = np.random.default_rng(seed)
    return sample_shuffling(sample_simon(2, rng), 1, rng, mode="exact").middle[0]


def test_exact_permutation_images_are_uniform():
    """The image of a fixed chain point is uniform over the 64 values."""
    trials = 3200
    counts = np.zeros(64)
    for t in range(trials):
        counts[_narrow_exact((2217, t)).eval(0)] += 1
    expected = trials / 64
    assert ((counts - expected) ** 2 / expected).sum() < CHI2_99_DOF63


def test_exact_permutation_is_injective_and_stable():
    """Over 200 narrow chains the chain points' images are pairwise distinct
    (each draw of 4 of 64 values with replacement misses a collision with
    probability about 0.91), and repeat evaluations agree."""
    for t in range(200):
        perm = _narrow_exact((2218, t))
        images = perm.eval_many(range(4))
        assert len(set(images)) == 4 and all(0 <= y < 64 for y in images)
        xs = np.random.default_rng((2219, t)).integers(0, 4, size=12).tolist()
        assert [perm.eval(x) for x in xs] == [images[x] for x in xs]
        assert perm.eval_many(range(4)) == images


def test_exact_permutation_batches_like_single_evaluations():
    """eval_many(xs) is [eval(x) for x in xs] over the chain points, also
    across twin permutations: batching evaluations does not change the
    images drawn."""
    for t in range(20):
        batched, single = _narrow_exact((2220, t)), _narrow_exact((2220, t))
        xs = np.random.default_rng((2221, t)).integers(0, 4, size=40).tolist()
        xs += [3, 0, 2, 1]
        assert batched.eval_many(xs) == [single.eval(x) for x in xs]
        assert batched.eval_many(xs) == [batched.eval(x) for x in xs]


def test_exact_off_chain_evaluations_leave_the_trial_stream():
    """An exact middle map, the in-place final map and the standard final
    map each raise ``QDepthError`` naming a point off their valid set, and
    draw nothing from the trial generator."""
    rng = np.random.default_rng(2222)
    sh = build_inplace(sample_shuffling(sample_simon(3, rng), 2, rng, mode="exact"), rng)
    state = rng.bit_generator.state
    off_chain = next(z for z in range(1 << sh.big_width) if z not in sh.middle[1])
    with pytest.raises(QDepthError, match=f"at {off_chain},"):
        sh.middle[1].eval(off_chain)
    with pytest.raises(QDepthError, match=f"at {off_chain},"):
        sh.middle[1].eval_many([*sh.middle[1], off_chain])
    off_field = next(z for z in range(1 << (sh.big_width + 1)) if z >> 1 not in sh.s_d)
    with pytest.raises(QDepthError, match=f"at {off_field},"):
        sh.final_unitary([off_field])
    # the standard schedule's final query, on a workspace holding a point off S_d
    steps, total = oracles.standard_steps(sh)
    off_end = next(y for y in range(1 << sh.big_width) if y not in sh.s_d)
    layout = [0] * (sh.n + (sh.d - 1) * sh.big_width) \
        + [int(b) for b in format(off_end, f"0{sh.big_width}b")] + [0] * sh.n
    with pytest.raises(QDepthError, match=f"at {off_end},"):
        steps[sh.d + 1](SparseState.from_bits(layout))
    assert len(layout) == total
    assert rng.bit_generator.state == state


def test_oracle_descriptor_withholds_shift(rng):
    schema = json.loads((SCHEMAS / "oracle_descriptor.v1.schema.json").read_text())
    for mode in ("exact", "prp"):
        f = sample_simon(3, rng)
        sh = sample_shuffling(f, 1, rng, mode=mode)
        desc = json.loads(sh.descriptor())
        assert desc["n"] == 3 and desc["d"] == 1
        assert desc["mode"] == mode
        # neither the shift nor a seed that would regenerate the oracle
        assert set(desc) == {"n", "d", "mode", "width_factor", "shift_commitment"}
        assert len(desc["shift_commitment"]) == 64
        jsonschema.Draft202012Validator(schema).validate(desc)


# -- in-place oracle ------------------------------------------------------------


@pytest.fixture
def inplace_oracle(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    return build_inplace(sh, rng)


def test_final_bijection_exhaustive(inplace_oracle):
    """Over the whole (value, flag) field, the final map is injective on
    S_d x {0,1} and raises everywhere else."""
    sh = inplace_oracle
    valid = {(y << 1) | b for y in sh.s_d for b in (0, 1)}
    outs = set(sh.final_unitary(list(valid)))
    for z in range(1 << (sh.big_width + 1)):
        if z not in valid:
            with pytest.raises(QDepthError, match=f"at {z}, off S_d x"):
                sh.final_unitary([z])
    assert len(valid) == len(outs) == 2 << sh.n


def test_middle_unitary_is_injective(inplace_oracle):
    """The middle map the in-place schedule applies to the value register
    maps the distinct chain points it meets to distinct points."""
    sh = inplace_oracle
    pts = sh.middle[0].eval_many(range(1 << sh.n))
    assert len(set(pts)) == 1 << sh.n
    assert len({sh.middle[1].eval(z) for z in pts}) == len(pts)


def test_flag_flips_by_coset_membership(inplace_oracle):
    """On S_d with incoming flag 0, the flag output is 1 iff the hidden
    function's preimage lies in the subgroup H."""
    sh = inplace_oracle
    emb = sh.simon.embedding
    ys, pres = list(sh.s_d), list(sh.s_d.values())
    outs0 = sh.final_unitary([y << 1 for y in ys])
    outs1 = sh.final_unitary([(y << 1) | 1 for y in ys])
    for x_pre, value, out0, out1 in zip(pres, sh.simon.evaluate(pres), outs0, outs1):
        v, fl = divmod(out0, 2)
        assert fl == int(emb.in_h(x_pre))
        assert v & ((1 << sh.n) - 1) == value
        v1, fl1 = divmod(out1, 2)
        assert fl1 == 1 ^ int(emb.in_h(x_pre))


def test_erasing_chain_reaches_tagged_state(inplace_oracle, rng):
    """The query chain ends in sum_x |x>|f(x)>|b(x)> exactly."""
    sh = inplace_oracle
    n, W = sh.n, sh.big_width
    total = n + W + 1
    st = SparseState.from_bits([0] * total)
    for q in range(n):
        st.apply_gate(Gate("H", (q,)))
    apply_standard_oracle(st, sh.middle[0].eval_many, (0, n), (n, W))
    for lvl in range(1, sh.d):
        apply_inplace_perm(st, sh.middle[lvl].eval_many, (n, W))
    apply_inplace_perm(st, sh.final_unitary, (n, W + 1))
    emb = sh.simon.embedding
    want = {}
    amp = 2.0 ** (-n / 2)
    for x, value in enumerate(sh.simon.evaluate(list(range(1 << n)))):
        idx = (x << (W + 1)) | (value << 1) | int(emb.in_h(x))
        want[idx] = amp
    assert set(st.support) == set(want)
    for k, v in want.items():
        assert abs(st.support[k] - v) < 1e-9


def test_standard_oracle_semantics(rng):
    st = SparseState.from_bits([0] * 8)
    for q in range(4):
        st.apply_gate(Gate("H", (q,)))
    f = lambda x: (x * 7 + 3) % 16
    fn = lambda xs: [f(x) for x in xs]
    apply_standard_oracle(st, fn, (0, 4), (4, 4))
    for idx in st.support:
        x, y = idx >> 4, idx & 15
        assert y == f(x)
    # applying twice is the identity
    apply_standard_oracle(st, fn, (0, 4), (4, 4))
    for idx in st.support:
        assert idx & 15 == 0
    assert abs(st.norm() - 1.0) < 1e-9


def test_standard_oracle_register_overlap():
    st = SparseState.from_bits([0] * 4)
    with pytest.raises(QDepthError):
        apply_standard_oracle(st, lambda xs: xs, (0, 3), (2, 2))


# -- GF(2) solving and the dSSP solvers -------------------------------------------


def test_solve_hidden_shift_spanning_property(rng):
    """Recovery succeeds whenever the samples span the orthogonal space."""
    for n in (3, 5, 7):
        for _ in range(20):
            s = int(rng.integers(1, 1 << n))
            space = [y for y in range(1 << n) if dot_bits(y, s) == 0]
            samples = [space[i] for i in rng.integers(0, len(space), size=4 * n)]
            rank = len(oracles._echelon(samples, n))
            got = solve_hidden_shift(samples, n)
            if rank == n - 1:
                assert got == s
            else:
                assert got is None


def test_solve_hidden_shift_rejects_full_rank(rng):
    samples = [1, 2, 4]
    assert solve_hidden_shift(samples, 3) is None


@settings(max_examples=100, deadline=None)
@given(bits=hst.lists(hst.integers(0, 1), min_size=1, max_size=24),
       n=hst.integers(1, 24))
def test_measured_bits_round_trip_into_samples(bits, n):
    """A basis state built from bits holds the one index bits_to_int(bits)
    (first bit most significant) and measures back to that index; a shift
    sample is its first n bits, and only the in-place flag (the last bit)
    reading 1 drops it."""
    assert bits_to_int(bits) == int("".join(map(str, bits)), 2)
    state = SparseState.from_bits(bits)
    assert list(state.support) == [bits_to_int(bits)]
    got, _ = measure(state, range(len(bits)), np.random.default_rng(0))
    assert got == bits_to_int(bits)
    n, total = min(n, len(bits)), len(bits)
    want = bits_to_int(bits[:n])
    assert shift_sample(got, total, n, inplace=False) == want
    assert shift_sample(got, total, n, inplace=True) == (None if bits[-1] else want)


def test_inplace_solver_recovers_and_audits(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    ipo = build_inplace(sh, rng)
    s_hat, trace, stats = solve_inplace_dssp(ipo, rng)
    assert s_hat == f.s
    assert audited_depth(trace) == 2 + 3
    assert trace.scheme_kind == "dCQ"
    trace.validate()


def test_standard_solver_depth(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 2, rng, mode="exact")
    s_hat, trace, _ = solve_standard_dssp(sh, rng)
    assert s_hat == f.s
    assert audited_depth(trace) == 2 * 2 + 3


def _rebuild_every_invocation(session, circuit, shots, note):
    """Reference ``HybridSession.invoke``: re-run every step from |0...0>
    on each shot and draw it by its own ``rng.random()``, then log its
    classical step."""
    if circuit.depth > session.budget:
        raise DepthBudgetExceeded("over budget")
    indices = []
    for _ in range(shots):
        state = SparseState.from_bits([0] * circuit.num_qubits)
        for step in circuit.steps:
            state = step(state)
        session.trace.steps.append(
            TraceStep("quantum", layers=circuit.depth, full_measurement=True))
        support, cdf = state.born_distribution()
        indices.append(support[born_draw(session.rng, cdf)])
        session.classical(note)
    return indices


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
@pytest.mark.parametrize("target,max_runs", [(30, 7), (6, 10), (6, 40)])
def test_collect_samples_batches_draw_what_single_shots_draw(access, target, max_runs):
    """Shot batches collect the samples, and leave the generator where, one
    shot at a time stopping at ``target`` or ``max_runs`` would, also with
    ``max_runs`` below ``target`` (a cap the solvers' own settings never
    reach), where exactly ``max_runs`` shots are drawn."""
    rng = np.random.default_rng(2224)
    sh = build_inplace(sample_shuffling(sample_simon(3, rng), 2, rng, mode="exact"), rng)
    inplace = access == "inplace"
    schedule = (oracles.inplace_steps if inplace else oracles.standard_steps)(sh)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    session = HybridSession(DCQ, 2 * sh.d + 3, got_rng)
    samples, runs = oracles._collect_samples(session, schedule, sh.n, inplace,
                                             target, max_runs)
    indices, cdf = StepCircuit(*schedule).born_table()
    want, want_runs = [], 0
    while len(want) < target and want_runs < max_runs:
        y = shift_sample(indices[born_draw(want_rng, cdf)], schedule[1], sh.n, inplace)
        want_runs += 1
        if y is not None:
            want.append(y)
    assert (samples, runs) == (want, want_runs)
    if max_runs < target:
        assert runs == max_runs
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert [step.kind for step in session.trace.steps] == ["quantum", "classical"] * runs


@pytest.mark.parametrize("access", ["inplace", "standard"])
def test_solver_runs_each_step_once_per_solve(monkeypatch, rng, access):
    calls = []

    def counted(schedule):
        def steps(oracle):
            steps, total = schedule(oracle)

            def wrap(k, step):
                def run(state):
                    calls.append(k)
                    return step(state)
                return run
            return [wrap(k, step) for k, step in enumerate(steps)], total
        return steps

    for name in ("inplace_steps", "standard_steps"):
        monkeypatch.setattr(oracles, name, counted(getattr(oracles, name)))
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


@pytest.mark.parametrize("access", ["inplace", "standard"])
def test_solver_builds_one_born_table_per_solve(monkeypatch, rng, access):
    """Every invocation of a solve draws from one Born table, built once for
    its step circuit."""
    circuits, builds = [], []
    born = SparseState.born_distribution
    init = StepCircuit.__init__

    def counted_init(self, *args):
        circuits.append(self)
        init(self, *args)

    def counted_born(self):
        builds.append(self)
        return born(self)

    monkeypatch.setattr(StepCircuit, "__init__", counted_init)
    monkeypatch.setattr(SparseState, "born_distribution", counted_born)
    sh = sample_shuffling(sample_simon(3, rng), 2, rng, mode="exact")
    if access == "inplace":
        _, _, stats = solve_inplace_dssp(build_inplace(sh, rng), rng)
    else:
        _, _, stats = solve_standard_dssp(sh, rng)
    assert stats["runs"] > 1
    assert len(circuits) == 1
    assert builds == [circuits[0].prepared_state()]


def test_step_circuit_budget_checked_before_any_layer(rng):
    calls = []

    def step(state):
        calls.append(1)
        return state

    circuit = StepCircuit([step] * 3, 2)
    with pytest.raises(DepthBudgetExceeded):
        HybridSession(DCQ, 2, rng).invoke(circuit, 1, "sample")
    assert calls == []


def test_flag_statistic_near_half(rng):
    f = sample_simon(3, rng)
    sh = sample_shuffling(f, 1, rng, mode="exact")
    ipo = build_inplace(sh, rng)
    _, _, stats = solve_inplace_dssp(ipo, rng, accepted_target=400)
    assert abs(stats["accepted"] / stats["runs"] - 0.5) < 0.06


def test_prp_mode_solver(rng):
    f = sample_simon(4, rng)
    sh = sample_shuffling(f, 2, rng, mode="prp")
    ipo = build_inplace(sh, rng)
    s_hat, _, _ = solve_inplace_dssp(ipo, rng)
    assert s_hat == f.s
