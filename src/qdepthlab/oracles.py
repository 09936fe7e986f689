"""Hidden-shift oracles and their quantum access models.

Builds Simon's functions (exact tables or keyed-permutation backed), the
shuffling-chain oracles that hide one behind d layers of permutations over an
enlarged domain, and the solvers that recover the hidden shift under an
audited depth budget.  One chain serves both access models: standard access
queries its final map f_d (``ShufflingOracle.final_eval``), in-place
(erasing) access its unitary U_{f_d} (``ShufflingOracle.final_unitary``),
which is injective on the (value, flag) points the chain reaches.

The maps an oracle step applies to a sparse state take a list of points and
return the list of their images (``eval_many``, ``final_eval``,
``final_unitary``, ``SimonFunction.evaluate``), so each step is one call
over the state's support.

An exact middle map and both final maps are defined only on the points the
honest schedule reaches; evaluating one anywhere else is a lab error
(``QDepthError``), not an image.

Bit conventions: an n-bit string is an int whose index-1 coordinate is the
most significant bit.  The total order over bitstrings is plain integer
comparison under this convention.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, QDepthError
from .hybrid import DCQ, HybridSession, StepCircuit
from .qsim import SparseState, dot_bits
# unused here; kept because bench/tracer.py patches ``oracles.qsim_measure``
from .qsim import measure as qsim_measure  # noqa: F401

# the widest 2^width domain Generator.choice samples: its population is an int64
EXACT_WIDTH_LIMIT = 62
FEISTEL_ROUNDS = 10
# the widest Feistel map whose halves fit the round function's 64-bit words
PRP_WIDTH_LIMIT = 128
# the widest (d+2)n-bit shuffling chain of each mode
CHAIN_WIDTH_LIMITS = {"exact": EXACT_WIDTH_LIMIT, "prp": PRP_WIDTH_LIMIT}
# the widest n of sample_simon, whose table holds 2^n entries
SIMON_TABLE_LIMIT = 20
# murmur3's fmix64 constants, as 0-d uint64 arrays: no operand is ever
# promoted, and numpy applies an array operand faster than a scalar one
_FMIX_SHIFT = np.array(33, dtype=np.uint64)
_FMIX_MULS = (np.array(0xFF51AFD7ED558CCD, dtype=np.uint64),
              np.array(0xC4CEB9FE1A85EC53, dtype=np.uint64))


def bit_at(x, i, n):
    """Coordinate x_i for i in [1, n], index 1 most significant."""
    return (x >> (n - i)) & 1


# ---------------------------------------------------------------------------
# Keyed small-domain permutation (Feistel network)
# ---------------------------------------------------------------------------


def _fmix64(words):
    """murmur3's 64-bit finaliser on a uint64 array: a bijective mixer in
    which every output bit depends on every input bit."""
    for mul in _FMIX_MULS:
        words = (words ^ (words >> _FMIX_SHIFT)) * mul
    return words ^ (words >> _FMIX_SHIFT)


@dataclass(frozen=True)
class KeyedPermutation:
    """Feistel-network bijection on ``width``-bit strings, 2 to
    ``PRP_WIDTH_LIMIT`` bits.

    ``FEISTEL_ROUNDS`` alternating-half rounds keep odd widths invertible
    without swaps.  Round r xors fmix64(half ^ K_r), masked to the other
    half's width, into the other half; the 64-bit round keys K_r are one
    SHAKE-256 output of the key.  This stands in for a keyed pseudorandom
    permutation; no cryptographic strength is claimed.

    Inputs are split and joined as Python ints and each round is a few
    numpy operations over the whole batch (``feistel_pass``, which runs
    several permutations of one width together).  Every output is memoised
    both ways: a forward result fills the forward and the inverse memo, and
    so does an inverse result, each memo up to ``_CACHE_CAP`` entries.
    """

    key: bytes
    width: int

    _CACHE_CAP = 1 << 18

    def __post_init__(self):
        if self.width < 2:
            raise QDepthError("permutation width must be at least 2 bits")
        if self.width > PRP_WIDTH_LIMIT:
            raise CapacityError(f"Feistel maps are limited to {PRP_WIDTH_LIMIT} "
                                f"bits, where each round still mixes every bit")
        object.__setattr__(self, "_fwd_cache", {})
        object.__setattr__(self, "_inv_cache", {})
        # one row per round and one column, which feistel_pass stacks
        digest = hashlib.shake_256(self.key).digest(8 * FEISTEL_ROUNDS)
        object.__setattr__(self, "_round_keys",
                           np.frombuffer(digest, dtype=">u8").astype(np.uint64)[:, None])

    def eval(self, x) -> int:
        out = self._fwd_cache.get(x)
        return self.eval_many((x,))[0] if out is None else out

    def eval_many(self, xs) -> list:
        """``[self.eval(x) for x in xs]``, one round at a time over all of
        them."""
        return feistel_pass((self,), (xs,))[0]

    def invert(self, y) -> int:
        out = self._inv_cache.get(y)
        return feistel_pass((self,), ((y,),), inverse=True)[0][0] if out is None else out


def feistel_pass(perms, batches, inverse=False) -> list:
    """``[perm.eval_many(xs) for perm, xs in zip(perms, batches)]``, or
    with ``inverse`` the inverse images, from one run of the rounds.

    The permutations share one width and each keeps its own round keys.
    The distinct inputs a permutation's memo lacks are its columns, and
    each round is a few numpy operations over every column, ``_fmix64``
    once.  The width and every input's range are checked before the first
    round.  Each new output is kept in its permutation's memo and, keyed by
    the output, in the mirror memo, in order of first appearance while each
    has room.
    """
    if len({perm.width for perm in perms}) > 1:
        raise QDepthError("one Feistel pass runs permutations of one width")
    jobs = []
    for perm, xs in zip(perms, batches):
        memo, mirror = ((perm._inv_cache, perm._fwd_cache) if inverse
                        else (perm._fwd_cache, perm._inv_cache))
        todo = [x for x in dict.fromkeys(xs) if x not in memo]
        jobs.append((perm, xs, memo, mirror, todo))
    todo = [x for *_, job_todo in jobs for x in job_todo]
    outs = iter(())
    if todo:
        width = perms[0].width
        if any(not 0 <= x < (1 << width) for x in todo):
            raise QDepthError("input does not fit the permutation width")
        l_bits = width // 2
        r_bits = width - l_bits
        r_mask = (1 << r_bits) - 1
        halves = [np.array([x >> r_bits for x in todo], dtype=np.uint64),
                  np.array([x & r_mask for x in todo], dtype=np.uint64)]
        masks = [np.array((1 << l_bits) - 1, dtype=np.uint64),
                 np.array(r_mask, dtype=np.uint64)]
        # one row per round and one column per input, under its permutation's key
        keys = np.repeat(np.hstack([perm._round_keys for perm in perms]),
                         [len(job[4]) for job in jobs], axis=1)
        rounds = range(FEISTEL_ROUNDS)
        for rnd in reversed(rounds) if inverse else rounds:
            # even rounds key on the right half and change the left
            side = rnd % 2
            mixed = _fmix64(halves[1 - side] ^ keys[rnd])
            halves[side] = halves[side] ^ (mixed & masks[side])
        outs = iter([(left << r_bits) | right
                     for left, right in zip(*(half.tolist() for half in halves))])
    results = []
    for perm, xs, memo, mirror, job_todo in jobs:
        # zip ends at the end of job_todo without taking from outs
        new = dict(zip(job_todo, outs))
        for x, out in new.items():
            if len(memo) < perm._CACHE_CAP:
                memo[x] = out
            if len(mirror) < perm._CACHE_CAP:
                mirror[out] = x
        results.append([new[x] if x in new else memo[x] for x in xs])
    return results


def random_keyed_permutation(width, rng) -> KeyedPermutation:
    return KeyedPermutation(bytes(rng.integers(0, 256, size=16, dtype=np.uint8)), width)


# ---------------------------------------------------------------------------
# Simon's functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupEmbedding:
    """Index-2 subgroup H = {x : x < x^s} and the maps collapsing onto it."""

    n: int
    s: int

    def __post_init__(self):
        if self.s == 0 or not (0 < self.s < (1 << self.n)):
            raise QDepthError("shift must be a nonzero n-bit string")

    @property
    def pivot(self) -> int:
        """Smallest index i with s_i = 1 (index 1 most significant)."""
        return self.n - self.s.bit_length() + 1

    def in_h(self, x) -> bool:
        return bit_at(x, self.pivot, self.n) == 0

    def collapse(self, x) -> int:
        """T_s: identity on H, shift-by-s on the other coset."""
        return x if self.in_h(x) else x ^ self.s

    def project(self, x) -> int:
        """W_s: drop coordinate ``pivot`` and zero-pad back to n bits."""
        i = self.pivot
        hi = x >> (self.n - i + 1)
        lo = x & ((1 << (self.n - i)) - 1)
        return ((hi << (self.n - i)) | lo) << 1


@dataclass
class SimonFunction:
    """2-to-1 function on n-bit strings, n bits to n bits, with
    f(x) = f(x^s), backed by a table or a keyed PRP."""

    n: int
    s: int
    table: np.ndarray | None = None
    prp: KeyedPermutation | None = None

    def __post_init__(self):
        if self.s == 0:
            raise QDepthError("Simon shift must be nonzero")
        if (self.table is None) == (self.prp is None):
            raise QDepthError("exactly one backing (table or prp) required")

    @cached_property
    def embedding(self) -> SubgroupEmbedding:
        return SubgroupEmbedding(self.n, self.s)

    def evaluate(self, xs) -> list:
        """The function's values at the n-bit strings ``xs``: one table
        lookup, or one ``eval_many`` of the prp."""
        if xs and (min(xs) < 0 or max(xs) >> self.n):
            raise QDepthError("input outside the function domain")
        if self.table is not None:
            return self.table[xs].tolist()
        emb = self.embedding
        return self.prp.eval_many([emb.project(emb.collapse(x)) for x in xs])

    def check_two_to_one(self):
        """Exhaustive 2-to-1/shift validation (small n only), the whole
        domain in one ``evaluate``."""
        if self.n > 16:
            raise CapacityError("exhaustive check limited to n <= 16")
        xs = list(range(1 << self.n))
        values = self.evaluate(xs)
        seen = {}
        for x, v in zip(xs, values):
            seen.setdefault(v, []).append(x)
        for v, pre in seen.items():
            if len(pre) != 2 or pre[0] ^ pre[1] != self.s:
                raise QDepthError(f"not a Simon function at value {v}: {pre}")
        return True


def sample_simon(n, rng) -> SimonFunction:
    """Uniform Simon's function on n bits: a uniform nonzero shift plus a
    uniform injection of H into the n-bit strings."""
    if n < 2:
        raise QDepthError("need n >= 2")
    if n > SIMON_TABLE_LIMIT:
        raise CapacityError(f"table-backed sampling limited to n <= {SIMON_TABLE_LIMIT}")
    s = int(rng.integers(1, 1 << n))
    values = rng.permutation(1 << n)[: 1 << (n - 1)]
    table = np.empty(1 << n, dtype=np.int64)
    emb = SubgroupEmbedding(n, s)
    rep_index = {}
    for x in range(1 << n):
        rep = emb.collapse(x)
        if rep not in rep_index:
            rep_index[rep] = len(rep_index)
        table[x] = values[rep_index[rep]]
    return SimonFunction(n=n, s=s, table=table)


def pseudorandom_simon(key, s, n) -> SimonFunction:
    """g = F_k o W_s o T_s over a keyed permutation F_k on n bits."""
    key = key if isinstance(key, bytes) else bytes(key)
    return SimonFunction(n=n, s=int(s), prp=KeyedPermutation(key, n))


# ---------------------------------------------------------------------------
# Shuffling oracles
# ---------------------------------------------------------------------------


class _ChainMap(dict):
    """An exact middle map, held as its images on the chain points only.
    ``eval`` of any other point raises ``QDepthError`` naming it."""

    def __missing__(self, x):
        raise QDepthError(f"middle map evaluated at {x}, off the shuffling chain")

    eval = dict.__getitem__

    def eval_many(self, xs) -> list:
        return [self[x] for x in xs]


@dataclass
class ShufflingOracle:
    """Chain (f_0, ..., f_d) hiding a Simon function on the set S_d.

    f_0..f_{d-1} are permutations of the enlarged domain; f_d maps S_d to the
    hidden function's values and is undefined elsewhere.  In exact mode each
    f_i is held only on the chain points, with the images a uniform
    permutation gives them.
    """

    n: int
    d: int
    simon: SimonFunction
    middle: list
    mode: str
    s_d: dict = field(default_factory=dict)   # chain endpoint -> n-bit preimage

    @property
    def big_width(self) -> int:
        return (self.d + 2) * self.n

    def chain_point(self, x) -> int:
        """f_{d-1} o ... o f_0 applied to the input, an n-bit string
        zero-padded into the low bits of the enlarged domain."""
        for perm in self.middle:
            x = perm.eval(x)
        return x

    def _preimages(self, ys, points, refusal):
        """The Simon preimages of the S_d points ``ys``; at the first y off
        S_d, ``QDepthError(refusal.format(point))`` names its point, the
        final map's input it came from."""
        pres = [self.s_d.get(y) for y in ys]
        if None in pres:
            raise QDepthError(refusal.format(points[pres.index(None)]))
        return pres

    def final_eval(self, ys) -> list:
        """f_d: the hidden function's values at points of S_d."""
        return self.simon.evaluate(
            self._preimages(ys, ys, "final map evaluated at {}, off S_d"))

    def final_unitary(self, vfs) -> list:
        """U_{f_d} on packed basis indices (value << 1) | flag of the
        (value register, flag qubit) field, each for a value in S_d.

        The value register becomes the hidden function's n-bit output
        zero-padded, with the pad bit above it carrying the incoming flag so
        the map stays injective (the (d+2)n-bit register always has room for
        it), and the flag flips by the coset bit b' of the Simon preimage.
        A flag of 0 therefore reproduces |f(x'), b'(x')> exactly.
        """
        pres = self._preimages([vf >> 1 for vf in vfs], vfs,
                               "in-place final map evaluated at {}, off S_d x {{0,1}}")
        emb = self.simon.embedding
        # b'(y) = 1 iff the Simon preimage of y lies in H
        return [(((vf & 1) << self.n | value) << 1) | (vf & 1 ^ emb.in_h(pre))
                for vf, pre, value in zip(vfs, pres, self.simon.evaluate(pres))]

    def compose(self, x):
        return self.final_eval([self.chain_point(x)])[0]

    def descriptor(self) -> str:
        commit = hashlib.sha256(
            f"{self.n}:{self.simon.s}".encode()
        ).hexdigest()
        return json.dumps(
            {
                "n": self.n,
                "d": self.d,
                "mode": self.mode,
                "width_factor": self.d + 2,
                "shift_commitment": commit,
            },
            sort_keys=True,
        )


def sample_shuffling(simon: SimonFunction, d, rng, mode="exact") -> ShufflingOracle:
    """Draw the middle permutations and assemble the chain for ``simon``,
    over the (d+2)n-bit enlarged domain.

    Exact mode holds each middle map only on the 2^n points the chain
    reaches: their images are one ``rng.choice(..., replace=False)``, since
    a uniform permutation restricted to a set drawn independently of it is
    a uniform injection.  It is limited to ``EXACT_WIDTH_LIMIT``-bit
    domains.  Prp mode draws a key per map and is limited to
    ``PRP_WIDTH_LIMIT``-bit domains.
    """
    n = simon.n
    big = (d + 2) * n
    if mode not in CHAIN_WIDTH_LIMITS:
        raise QDepthError(f"unknown shuffling mode {mode!r}")
    if big > CHAIN_WIDTH_LIMITS[mode]:
        raise CapacityError(f"{mode} mode limited to {CHAIN_WIDTH_LIMITS[mode]}-bit "
                            f"domains" + ("; use prp mode" if mode == "exact" else ""))
    # every input's chain point, one permutation at a time over all of them
    ends = list(range(1 << n))
    middle = []
    for _ in range(d):
        if mode == "exact":
            images = rng.choice(1 << big, size=len(ends), replace=False).tolist()
            perm = _ChainMap(zip(ends, images))
        else:
            perm = random_keyed_permutation(big, rng)
        middle.append(perm)
        ends = perm.eval_many(ends)
    oracle = ShufflingOracle(n=n, d=d, simon=simon, middle=middle, mode=mode)
    oracle.s_d = {y: x for x, y in enumerate(ends)}
    if len(oracle.s_d) != len(ends):
        raise QDepthError("chain endpoints collide; permutations corrupt")
    return oracle


def build_inplace(shuffling: ShufflingOracle, rng) -> ShufflingOracle:
    """In-place access to ``shuffling``: the chain itself, whose
    ``final_unitary`` is the erasing final map.

    16 key bytes are drawn and dropped, as if to key a completion of the
    final map off S_d x {0,1} (none is held): the draw keeps every later
    draw of the trial stream, and so every recorded seeded output, in place.
    """
    rng.integers(0, 256, size=16, dtype=np.uint8)
    return shuffling


# ---------------------------------------------------------------------------
# Oracle application on sparse states
# ---------------------------------------------------------------------------


def _field(total, reg):
    """(shift, mask) of the register ``reg`` = (start_qubit, width) in a
    basis index on ``total`` qubits: its value is (idx >> shift) & mask."""
    start, width = reg
    return total - start - width, (1 << width) - 1


def apply_standard_oracle(state: SparseState, fn, in_reg, out_reg) -> SparseState:
    """XOR-oracle semantics |x, y> -> |x, y ^ f(x)> on register ranges.

    Registers are (start_qubit, width) pairs and must not overlap.  ``fn``
    maps the list of the support's x values to the list of their images,
    each of them ``out_reg``'s width, in one call.
    """
    (a0, w0), (a1, w1) = in_reg, out_reg
    if not (a0 + w0 <= a1 or a1 + w1 <= a0):
        raise QDepthError("oracle registers overlap")
    x_shift, x_mask = _field(state.num_qubits, in_reg)
    y_shift, _ = _field(state.num_qubits, out_reg)

    def relabel(idxs):
        images = fn([(idx >> x_shift) & x_mask for idx in idxs])
        return [idx ^ (fx << y_shift) for idx, fx in zip(idxs, images)]

    return state.map_basis(relabel)


def apply_inplace_perm(state: SparseState, fn, reg) -> SparseState:
    """In-place oracle |x> -> |P(x)> on one register range; ``fn`` maps the
    list of the support's x values to the list of their images in one
    call."""
    shift, mask = _field(state.num_qubits, reg)
    rest = ~(mask << shift)

    def relabel(idxs):
        images = fn([(idx >> shift) & mask for idx in idxs])
        return [(idx & rest) | (px << shift) for idx, px in zip(idxs, images)]

    return state.map_basis(relabel)


# ---------------------------------------------------------------------------
# GF(2) post-processing and the hidden-shift solvers
# ---------------------------------------------------------------------------


def _echelon(vectors, n):
    """Row-reduce n-bit vectors over GF(2): one row per leading bit,
    largest first."""
    rows = []
    for v in vectors:
        v &= (1 << n) - 1
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return rows


def solve_hidden_shift(samples, n):
    """Recover s from vectors satisfying y . s = 0.

    Returns the unique nonzero solution when the samples span an
    (n-1)-dimensional space, else None.
    """
    rows = _echelon(samples, n)
    if len(rows) != n - 1:
        return None
    # full reduction: each pivot bit appears in exactly one row
    for i in range(len(rows)):
        p = rows[i].bit_length() - 1
        for j in range(len(rows)):
            if j != i and (rows[j] >> p) & 1:
                rows[j] ^= rows[i]
    pivots = {r.bit_length() - 1 for r in rows}
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    c = free[0]
    s = 1 << c
    for r in rows:
        if (r >> c) & 1:
            s |= 1 << (r.bit_length() - 1)
    for v in samples:
        if dot_bits(v, s):
            return None
    return s


def shift_sample(index, total, n, inplace):
    """The hidden-shift sample a measured solver register holds, given its
    basis index on ``total`` qubits (qubit 0 most significant): its first n
    qubits, or None where the in-place flag (the last qubit) reads 1."""
    if inplace and index & 1:
        return None
    return index >> (total - n)


# register layout, in-place: [input n][workspace big][flag 1]
def inplace_steps(oracle: ShufflingOracle):
    """The erasing-access schedule of one sample: (steps, register width).
    U_{f_0} writes into the workspace; later maps act on it in place."""
    n, big = oracle.n, oracle.big_width
    total = n + big + 1

    if oracle.d < 1:
        raise QDepthError("in-place access needs d >= 1")

    def h_in(state):
        return state.apply_hadamard_wall(range(n))

    def u0(state):
        return apply_standard_oracle(state, oracle.middle[0].eval_many, (0, n), (n, big))

    def mid(i):
        def step(state):
            return apply_inplace_perm(state, oracle.middle[i].eval_many, (n, big))
        return step

    def u_final(state):
        return apply_inplace_perm(state, oracle.final_unitary, (n, big + 1))

    def h_out(state):
        return state.apply_hadamard_wall(list(range(n)) + [total - 1])

    steps = [h_in, u0]
    steps += [mid(i) for i in range(1, oracle.d)]
    steps += [u_final, h_out]
    return steps, total


# register layout, standard: [input n][w_1 big]...[w_d big][out n]
def standard_steps(oracle: ShufflingOracle):
    """The compute/uncompute schedule of one sample: (steps, register width)."""
    n, big, d = oracle.n, oracle.big_width, oracle.d
    total = n + d * big + n

    def reg(i):  # workspace i in [1, d]
        return (n + (i - 1) * big, big)

    out_reg = (n + d * big, n)

    def h_in(state):
        return state.apply_hadamard_wall(range(n))

    def q_first(state):
        return apply_standard_oracle(state, oracle.middle[0].eval_many, (0, n), reg(1))

    def q_mid(i):
        def step(state):
            return apply_standard_oracle(state, oracle.middle[i].eval_many,
                                         reg(i), reg(i + 1))
        return step

    def q_final(state):
        return apply_standard_oracle(state, oracle.final_eval, reg(d), out_reg)

    def h_out(state):
        return state.apply_hadamard_wall(range(n))

    forward = [q_first] + [q_mid(i) for i in range(1, d)] + [q_final]
    backward = [q_mid(i) for i in reversed(range(1, d))] + [q_first]
    steps = [h_in] + forward + backward + [h_out]
    return steps, total


def _collect_samples(session, schedule, n, inplace, target, max_runs):
    """Invoke one step circuit until ``target`` samples are in hand or
    ``max_runs`` invocations are spent; returns (samples, runs).

    Each batch asks for as many shots as samples are missing, within the
    runs left: a shot yields at most one sample, so every shot of a batch is
    one that drawing shot by shot, stopping at the target, would draw too.
    """
    circuit = StepCircuit(*schedule)
    samples, runs = [], 0
    while len(samples) < target and runs < max_runs:
        shots = min(target - len(samples), max_runs - runs)
        for index in session.invoke(circuit, shots, "collect_sample"):
            y = shift_sample(index, circuit.num_qubits, n, inplace)
            if y is not None:
                samples.append(y)
        runs += shots
    return samples, runs


def solve_inplace_dssp(oracle: ShufflingOracle, rng, accepted_target=None):
    """Recover the hidden shift with the depth-(d+3) erasing-access algorithm.

    Runs as a dCQ scheme with per-invocation depth d+3, collecting samples
    whose flag qubit measured 0 after the closing Hadamard layer, until
    ``accepted_target`` samples (3n by default) are in hand or 20 times that
    many invocations are spent, then solves the GF(2) system.

    Returns (s_hat_or_None, trace, stats).
    """
    n, d = oracle.n, oracle.d
    accepted_target = 3 * n if accepted_target is None else accepted_target
    session = HybridSession(DCQ, d + 3, rng)
    samples, runs = _collect_samples(session, inplace_steps(oracle), n, True,
                                     accepted_target, 20 * accepted_target)
    s_hat = solve_hidden_shift(samples, n)
    trace = session.finish()
    return s_hat, trace, {"runs": runs, "accepted": len(samples), "samples": samples}


def solve_standard_dssp(oracle: ShufflingOracle, rng):
    """Recover the hidden shift with the (2d+3)-depth compute/uncompute chain:
    3n samples, or 30n invocations if fewer."""
    n, d = oracle.n, oracle.d
    session = HybridSession(DCQ, 2 * d + 3, rng)
    samples, runs = _collect_samples(session, standard_steps(oracle), n, False,
                                     3 * n, 30 * n)
    s_hat = solve_hidden_shift(samples, n)
    trace = session.finish()
    return s_hat, trace, {"runs": runs, "samples": samples}
