"""Hidden-shift oracles and their quantum access models.

Builds Simon's functions (exact tables or keyed-permutation backed), the
shuffling-chain oracles that hide one behind d layers of permutations over an
enlarged domain, in-place (erasing) variants whose final map is extended to a
bijection, shadow oracles for resampling experiments, and the solvers that
recover the hidden shift under an audited depth budget.

Bit conventions: an n-bit string is an int whose index-1 coordinate is the
most significant bit.  The total order over bitstrings is plain integer
comparison under this convention.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, QDepthError
from .hybrid import DCQ, DQC, HybridSession, StepCircuit
from .qsim import SparseState
from .qsim import measure as qsim_measure

EXACT_TABLE_WIDTH_LIMIT = 24
FEISTEL_ROUNDS = 10


def bit_at(x, i, n):
    """Coordinate x_i for i in [1, n], index 1 most significant."""
    return (x >> (n - i)) & 1


# ---------------------------------------------------------------------------
# Keyed small-domain permutation (Feistel network)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyedPermutation:
    """Feistel-network bijection on m-bit strings.

    Alternating-half rounds keep odd widths invertible without swaps; the
    round function is SHA-256 over (key, round, half).  This stands in for a
    keyed pseudorandom permutation; no cryptographic strength is claimed.
    """

    key: bytes
    width: int
    rounds: int = FEISTEL_ROUNDS

    _CACHE_CAP = 1 << 18

    def __post_init__(self):
        if self.width < 2:
            raise QDepthError("permutation width must be at least 2 bits")
        object.__setattr__(self, "_fwd_cache", {})
        object.__setattr__(self, "_inv_cache", {})

    def _round_value(self, rnd, half, out_bits) -> int:
        h = hashlib.sha256(
            self.key + rnd.to_bytes(2, "big") + half.to_bytes(16, "big")
        ).digest()
        return int.from_bytes(h[:8], "big") & ((1 << out_bits) - 1)

    def _split(self):
        l_bits = self.width // 2
        return l_bits, self.width - l_bits

    def eval(self, x) -> int:
        cached = self._fwd_cache.get(x)
        if cached is not None:
            return cached
        if not (0 <= x < (1 << self.width)):
            raise QDepthError("input does not fit the permutation width")
        l_bits, r_bits = self._split()
        left, right = x >> r_bits, x & ((1 << r_bits) - 1)
        for rnd in range(self.rounds):
            if rnd % 2 == 0:
                left ^= self._round_value(rnd, right, l_bits)
            else:
                right ^= self._round_value(rnd, left, r_bits)
        out = (left << r_bits) | right
        if len(self._fwd_cache) < self._CACHE_CAP:
            self._fwd_cache[x] = out
        return out

    def invert(self, y) -> int:
        cached = self._inv_cache.get(y)
        if cached is not None:
            return cached
        if not (0 <= y < (1 << self.width)):
            raise QDepthError("input does not fit the permutation width")
        l_bits, r_bits = self._split()
        left, right = y >> r_bits, y & ((1 << r_bits) - 1)
        for rnd in reversed(range(self.rounds)):
            if rnd % 2 == 0:
                left ^= self._round_value(rnd, right, l_bits)
            else:
                right ^= self._round_value(rnd, left, r_bits)
        out = (left << r_bits) | right
        if len(self._inv_cache) < self._CACHE_CAP:
            self._inv_cache[y] = out
        return out


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

    def project(self, x, m) -> int:
        """W_s: drop coordinate ``pivot`` and zero-pad to m bits."""
        if m < self.n - 1:
            raise QDepthError("codomain narrower than n-1 bits")
        i = self.pivot
        hi = x >> (self.n - i + 1)
        lo = x & ((1 << (self.n - i)) - 1)
        packed = (hi << (self.n - i)) | lo
        return packed << (m - (self.n - 1))


@dataclass
class SimonFunction:
    """2-to-1 function with f(x) = f(x^s), backed by a table or a keyed PRP."""

    n: int
    m: int
    s: int
    table: np.ndarray | None = None
    prp: KeyedPermutation | None = None

    def __post_init__(self):
        if self.s == 0:
            raise QDepthError("Simon shift must be nonzero")
        if self.m < self.n - 1:
            raise QDepthError("codomain must have at least n-1 bits")
        if (self.table is None) == (self.prp is None):
            raise QDepthError("exactly one backing (table or prp) required")

    @property
    def embedding(self) -> SubgroupEmbedding:
        return SubgroupEmbedding(self.n, self.s)

    def evaluate(self, x) -> int:
        if not (0 <= x < (1 << self.n)):
            raise QDepthError("input outside the function domain")
        if self.table is not None:
            return int(self.table[x])
        emb = self.embedding
        return self.prp.eval(emb.project(emb.collapse(x), self.m))

    def image(self):
        return sorted({self.evaluate(x) for x in range(1 << self.n)})

    def check_two_to_one(self):
        """Exhaustive 2-to-1/shift validation (small n only)."""
        if self.n > 16:
            raise CapacityError("exhaustive check limited to n <= 16")
        seen = {}
        for x in range(1 << self.n):
            v = self.evaluate(x)
            seen.setdefault(v, []).append(x)
        for v, pre in seen.items():
            if len(pre) != 2 or pre[0] ^ pre[1] != self.s:
                raise QDepthError(f"not a Simon function at value {v}: {pre}")
        return True


def sample_simon(n, rng, forced_shift=None, m=None) -> SimonFunction:
    """Uniform Simon's function: uniform shift plus a uniform injection on H."""
    if n < 2:
        raise QDepthError("need n >= 2")
    m = n if m is None else m
    if forced_shift is not None:
        if forced_shift == 0:
            raise QDepthError("forced shift must be nonzero")
        s = int(forced_shift)
    else:
        s = int(rng.integers(1, 1 << n))
    if n > 20 or m > 22:
        raise CapacityError("table-backed sampling limited to small n, m")
    values = rng.permutation(1 << m)[: 1 << (n - 1)]
    table = np.empty(1 << n, dtype=np.int64)
    emb = SubgroupEmbedding(n, s)
    rep_index = {}
    for x in range(1 << n):
        rep = emb.collapse(x)
        if rep not in rep_index:
            rep_index[rep] = len(rep_index)
        table[x] = values[rep_index[rep]]
    return SimonFunction(n=n, m=m, s=s, table=table)


def pseudorandom_simon(key, s, n, m=None) -> SimonFunction:
    """g = F_k o W_s o T_s over a keyed permutation F_k on m bits."""
    m = n if m is None else m
    if m < n - 1:
        raise QDepthError("codomain must have at least n-1 bits")
    if s == 0:
        raise QDepthError("shift must be nonzero")
    key = key if isinstance(key, bytes) else bytes(key)
    return SimonFunction(n=n, m=m, s=int(s), prp=KeyedPermutation(key, m))


# ---------------------------------------------------------------------------
# Shuffling oracles
# ---------------------------------------------------------------------------


class _TablePerm:
    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.int64)
        self.inverse_table = np.argsort(self.table)

    def eval(self, x):
        return int(self.table[x])

    def invert(self, y):
        return int(self.inverse_table[y])


@dataclass
class ShufflingOracle:
    """Chain (f_0, ..., f_d) hiding a Simon function on the set S_d.

    f_0..f_{d-1} are permutations of the enlarged domain; f_d maps S_d to the
    hidden function's values and is undefined (None) elsewhere.
    """

    n: int
    d: int
    simon: SimonFunction
    middle: list
    mode: str
    width_factor: int
    seed: int | None = None
    s_d: dict = field(default_factory=dict)   # chain endpoint -> n-bit preimage

    @property
    def big_width(self) -> int:
        return self.width_factor * self.n

    def embed(self, x) -> int:
        return x  # n-bit input zero-padded into the low bits of the big domain

    def middle_eval(self, i, x) -> int:
        return self.middle[i].eval(x)

    def middle_invert(self, i, y) -> int:
        return self.middle[i].invert(y)

    def chain_point(self, x, upto=None) -> int:
        """f_{upto-1} o ... o f_0 applied to the embedded input."""
        upto = self.d if upto is None else upto
        y = self.embed(x)
        for i in range(upto):
            y = self.middle_eval(i, y)
        return y

    def final_eval(self, y):
        """f_d: the hidden function's value on S_d, None (bottom) elsewhere."""
        pre = self.s_d.get(y)
        if pre is None:
            return None
        return self.simon.evaluate(pre)

    def junk_value(self, y) -> int:
        """Deterministic keyed filler standing in for bottom in XOR oracles."""
        h = hashlib.sha256(b"junk" + y.to_bytes(16, "big")).digest()
        return int.from_bytes(h[:4], "big") & ((1 << self.simon.m) - 1)

    def compose(self, x):
        return self.final_eval(self.chain_point(x))

    def descriptor(self) -> str:
        commit = hashlib.sha256(
            f"{self.n}:{self.simon.s}".encode()
        ).hexdigest()
        return json.dumps(
            {
                "n": self.n,
                "d": self.d,
                "mode": self.mode,
                "seed": self.seed,
                "width_factor": self.width_factor,
                "shift_commitment": commit,
            },
            sort_keys=True,
        )


def sample_shuffling(
    simon: SimonFunction, d, rng, mode="exact", width_factor=None, seed=None
) -> ShufflingOracle:
    """Draw the middle permutations and assemble the chain for ``simon``.

    ``width_factor`` below d+2 shrinks the enlarged domain for desk-scale
    runs; the deviation is recorded in the oracle descriptor.
    """
    n = simon.n
    width_factor = (d + 2) if width_factor is None else width_factor
    big = width_factor * n
    if big < n:
        raise QDepthError("enlarged domain must fit the inputs")
    middle = []
    if mode == "exact":
        if big > EXACT_TABLE_WIDTH_LIMIT:
            raise CapacityError(
                f"exact tables limited to {EXACT_TABLE_WIDTH_LIMIT}-bit domains; "
                "use prp mode"
            )
        for _ in range(d):
            middle.append(_TablePerm(rng.permutation(1 << big)))
    elif mode == "prp":
        for _ in range(d):
            middle.append(random_keyed_permutation(big, rng))
    else:
        raise QDepthError(f"unknown shuffling mode {mode!r}")
    oracle = ShufflingOracle(
        n=n, d=d, simon=simon, middle=middle, mode=mode,
        width_factor=width_factor, seed=seed,
    )
    for x in range(1 << n):
        y = oracle.chain_point(x)
        if y in oracle.s_d:
            raise QDepthError("chain endpoints collide; permutations corrupt")
        oracle.s_d[y] = x
    return oracle


# ---------------------------------------------------------------------------
# In-place access: bijective final map and unitary wrappers
# ---------------------------------------------------------------------------


class _ComplementPermutation:
    """Keyed bijection between the complements of two small sets.

    Ranks the input within the complement of ``valid_in``, permutes ranks by a
    cycle-walked Feistel network, and unranks into the complement of
    ``valid_out``.
    """

    def __init__(self, width, valid_in, valid_out, key):
        self.width = width
        self.size = (1 << width) - len(valid_in)
        if len(valid_in) != len(valid_out):
            raise QDepthError("complement sizes differ")
        if self.size <= 0:
            raise QDepthError("no room left to extend: hidden set is the full domain")
        self.v_in = np.sort(np.asarray(sorted(valid_in), dtype=np.int64))
        self.v_out = np.sort(np.asarray(sorted(valid_out), dtype=np.int64))
        self.feistel = KeyedPermutation(key, max(width, 2))

    def _rank(self, z, valid) -> int:
        return int(z - np.searchsorted(valid, z, side="right"))

    def _unrank(self, r, valid) -> int:
        z = r
        for v in valid:
            if z >= v:
                z += 1
            else:
                break
        return int(z)

    def _walk(self, r) -> int:
        w = self.feistel.eval(r)
        while w >= self.size:
            w = self.feistel.eval(w)
        return w

    def _walk_back(self, w) -> int:
        r = self.feistel.invert(w)
        while r >= self.size:
            r = self.feistel.invert(r)
        return r

    def eval(self, z) -> int:
        return self._unrank(self._walk(self._rank(z, self.v_in)), self.v_out)

    def invert(self, z) -> int:
        return self._unrank(self._walk_back(self._rank(z, self.v_out)), self.v_in)


class FinalBijection:
    """Bijective extension F_d over the (big_width+1)-bit space (value, flag).

    On S_d x {0,1} the value register becomes the hidden function's output
    zero-padded, with one designated pad bit carrying the incoming flag so the
    map stays injective, and the flag flips by the coset bit b' of the Simon
    preimage.  A flag of 0 therefore reproduces |f(x'), b'(x')> exactly.  Off
    the valid set the map is a keyed permutation of the complement.
    """

    def __init__(self, oracle: ShufflingOracle, simon: SimonFunction, key):
        self.big = oracle.big_width
        self.n_val = simon.m
        if self.big < self.n_val + 1:
            raise CapacityError("enlarged domain too narrow for the pad bit")
        self.simon = simon
        self.oracle = oracle
        emb = simon.embedding
        # b'(y) = 1 iff the Simon preimage of y lies in H
        self.coset_bit = {y: int(emb.in_h(x)) for y, x in oracle.s_d.items()}
        valid_in, valid_out, self.forward = [], [], {}
        for y, x in oracle.s_d.items():
            v = simon.evaluate(x)
            for b in (0, 1):
                z_in = (y << 1) | b
                z_out = (((b << self.n_val) | v) << 1) | (b ^ self.coset_bit[y])
                valid_in.append(z_in)
                valid_out.append(z_out)
                self.forward[z_in] = z_out
        if len(set(valid_out)) != len(valid_out):
            raise QDepthError("bijective extension collides; construction bug")
        self.backward = {o: i for i, o in self.forward.items()}
        self.off_domain = _ComplementPermutation(
            self.big + 1, valid_in, valid_out, key
        )

    def eval(self, value, flag):
        z = (value << 1) | flag
        out = self.forward.get(z)
        if out is None:
            out = self.off_domain.eval(z)
        return out >> 1, out & 1

    def invert(self, value, flag):
        z = (value << 1) | flag
        src = self.backward.get(z)
        if src is None:
            src = self.off_domain.invert(z)
        return src >> 1, src & 1


@dataclass
class InPlaceShufflingOracle:
    """Unitary (erasing) access to a shuffling chain.

    U_{f_0} keeps the input and writes f_0 into a fresh register; the middle
    maps act in place; the final map acts on (value register, flag qubit)
    through the bijective extension.
    """

    base: ShufflingOracle
    final: FinalBijection

    @property
    def n(self):
        return self.base.n

    @property
    def d(self):
        return self.base.d

    @property
    def big_width(self):
        return self.base.big_width

    def coset_bit(self, y) -> int:
        b = self.final.coset_bit.get(y)
        if b is None:
            raise QDepthError("coset bit only defined on the hidden set")
        return b

    def unitary_fn(self, level):
        """Basis-index bijection for U_{f_level} on the (value, flag) field."""
        if 1 <= level <= self.d - 1:
            perm = self.base.middle[level]
            return lambda vf: (perm.eval(vf >> 1) << 1) | (vf & 1)
        if level == self.d:
            def fd(vf):
                v, fl = self.final.eval(vf >> 1, vf & 1)
                return (v << 1) | fl
            return fd
        raise QDepthError("level must be in [1, d]")

    def unitary_inv_fn(self, level):
        if 1 <= level <= self.d - 1:
            perm = self.base.middle[level]
            return lambda vf: (perm.invert(vf >> 1) << 1) | (vf & 1)
        if level == self.d:
            def fd_inv(vf):
                v, fl = self.final.invert(vf >> 1, vf & 1)
                return (v << 1) | fl
            return fd_inv
        raise QDepthError("level must be in [1, d]")


def build_inplace(shuffling: ShufflingOracle, rng) -> InPlaceShufflingOracle:
    key = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
    final = FinalBijection(shuffling, shuffling.simon, key)
    return InPlaceShufflingOracle(base=shuffling, final=final)


# ---------------------------------------------------------------------------
# Oracle application on sparse states
# ---------------------------------------------------------------------------


def _field(idx, total, start, width):
    return (idx >> (total - start - width)) & ((1 << width) - 1)


def _with_field(idx, total, start, width, value):
    shift = total - start - width
    mask = ((1 << width) - 1) << shift
    return (idx & ~mask) | (value << shift)


def apply_standard_oracle(state: SparseState, fn, in_reg, out_reg) -> SparseState:
    """XOR-oracle semantics |x, y> -> |x, y ^ f(x)> on register ranges.

    Registers are (start_qubit, width) pairs and must not overlap.
    """
    (a0, w0), (a1, w1) = in_reg, out_reg
    if not (a0 + w0 <= a1 or a1 + w1 <= a0):
        raise QDepthError("oracle registers overlap")
    total = state.num_qubits

    def relabel(idx):
        x = _field(idx, total, a0, w0)
        y = _field(idx, total, a1, w1)
        return _with_field(idx, total, a1, w1, y ^ fn(x))

    return state.map_basis(relabel)


def apply_inplace_perm(state: SparseState, fn, reg) -> SparseState:
    """In-place oracle |x> -> |P(x)> on one register range."""
    a, w = reg
    total = state.num_qubits

    def relabel(idx):
        x = _field(idx, total, a, w)
        return _with_field(idx, total, a, w, fn(x))

    return state.map_basis(relabel)


def inplace_from_standard(state: SparseState, perm: KeyedPermutation, reg, scratch_reg):
    """|x> -> |P(x)> realized literally with two standard-oracle queries.

    Query O_P into the scratch register, erase the input with O_{P^-1}, then
    swap the registers.  The scratch register must start (and ends) all zero.
    """
    apply_standard_oracle(state, perm.eval, reg, scratch_reg)
    apply_standard_oracle(state, perm.invert, scratch_reg, reg)
    (a0, w0), (a1, w1) = reg, scratch_reg
    if w0 != w1:
        raise QDepthError("register widths differ")
    total = state.num_qubits

    def swap(idx):
        x = _field(idx, total, a0, w0)
        y = _field(idx, total, a1, w1)
        return _with_field(_with_field(idx, total, a0, w0, y), total, a1, w1, x)

    return state.map_basis(swap)


# ---------------------------------------------------------------------------
# Shadow oracles
# ---------------------------------------------------------------------------


def shadow_oracle(oracle: InPlaceShufflingOracle, hidden_sets, rng) -> InPlaceShufflingOracle:
    """Resample the oracle inside per-level hidden sets, staying unitary.

    ``hidden_sets`` maps a level k to hidden points of the enlarged domain.
    Levels 0..d-1 get their permutation re-drawn on the hidden points (onto
    the same image set).  At level d the hidden set must cover S_d and the
    hidden function is replaced by a fresh one with a different shift, so the
    shadow carries no information about the original shift.
    """
    base = oracle.base
    hidden_sets = {int(k): set(v) for k, v in (hidden_sets or {}).items()}
    if not hidden_sets:
        return oracle

    new_middle = list(base.middle)
    for k, pts in hidden_sets.items():
        if k < 0 or k > base.d:
            raise QDepthError("hidden-set level outside [0, d]")
        if k == base.d or not pts:
            continue
        src = base.middle[k]
        pts = sorted(pts)
        images = [src.eval(p) for p in pts]
        shuffled = list(rng.permutation(len(images)))
        overlay = {p: images[j] for p, j in zip(pts, shuffled)}
        new_middle[k] = _OverlayPerm(src, overlay)

    new_simon = base.simon
    if base.d in hidden_sets and hidden_sets[base.d]:
        if not set(base.s_d).issubset(hidden_sets[base.d]):
            raise QDepthError("final-level hidden set must cover the hidden set S_d")
        if (1 << base.n) - 1 < 2:
            raise QDepthError("no alternative shift exists to resample toward")
        while True:
            s_new = int(rng.integers(1, 1 << base.n))
            if s_new != base.simon.s:
                break
        new_simon = sample_simon(base.n, rng, forced_shift=s_new, m=base.simon.m)

    shadow_base = ShufflingOracle(
        n=base.n, d=base.d, simon=new_simon, middle=new_middle,
        mode=base.mode, width_factor=base.width_factor, seed=base.seed,
    )
    for x in range(1 << base.n):
        y = shadow_base.chain_point(x)
        if y in shadow_base.s_d:
            raise QDepthError("shadow chain endpoints collide")
        shadow_base.s_d[y] = x
    key = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
    return InPlaceShufflingOracle(
        base=shadow_base, final=FinalBijection(shadow_base, new_simon, key)
    )


class _OverlayPerm:
    """A permutation patched on finitely many points."""

    def __init__(self, src, overlay):
        self.src = src
        self.overlay = dict(overlay)
        self.inverse_overlay = {v: k for k, v in overlay.items()}
        if len(self.inverse_overlay) != len(self.overlay):
            raise QDepthError("overlay is not injective")

    def eval(self, x):
        if x in self.overlay:
            return self.overlay[x]
        return self.src.eval(x)

    def invert(self, y):
        if y in self.inverse_overlay:
            return self.inverse_overlay[y]
        return self.src.invert(y)


# ---------------------------------------------------------------------------
# GF(2) post-processing and the hidden-shift solvers
# ---------------------------------------------------------------------------


def gf2_rank(vectors, n) -> int:
    rank = 0
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            rank += 1
    return rank


def solve_hidden_shift(samples, n):
    """Recover s from vectors satisfying y . s = 0.

    Returns the unique nonzero solution when the samples span an
    (n-1)-dimensional space, else None.
    """
    rows = []
    for v in samples:
        v &= (1 << n) - 1
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
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
        if bin(v & s).count("1") & 1:
            return None
    return s


def dot_bits(a, b) -> int:
    return bin(a & b).count("1") & 1


class SolverRun:
    """One oracle-access schedule producing a single hidden-shift sample."""

    def __init__(self, oracle, inplace):
        self.oracle = oracle
        self.inplace = inplace

    # register layout, in-place: [input n][workspace big][flag 1]
    def inplace_steps(self):
        ipo = self.oracle
        base = ipo.base
        n, big = base.n, base.big_width
        total = n + big + 1

        if base.d < 1:
            raise QDepthError("in-place access needs d >= 1")

        def h_in(state):
            return state.apply_hadamard_wall(range(n))

        def u0(state):
            return apply_standard_oracle(
                state, lambda x: base.middle_eval(0, base.embed(x)), (0, n), (n, big)
            )

        def mid(i):
            def step(state):
                return apply_inplace_perm(
                    state, lambda v: base.middle_eval(i, v), (n, big)
                )
            return step

        def u_final(state):
            fn = ipo.unitary_fn(base.d)
            return apply_inplace_perm(state, fn, (n, big + 1))

        def h_out(state):
            return state.apply_hadamard_wall(list(range(n)) + [total - 1])

        steps = [h_in, u0]
        steps += [mid(i) for i in range(1, base.d)]
        steps += [u_final, h_out]
        return steps, total

    # register layout, standard: [input n][w_1 big]...[w_d big][out m]
    def standard_steps(self):
        base = self.oracle if isinstance(self.oracle, ShufflingOracle) else self.oracle.base
        n, big, d, m = base.n, base.big_width, base.d, base.simon.m
        total = n + d * big + m

        def reg(i):  # workspace i in [1, d]
            return (n + (i - 1) * big, big)

        out_reg = (n + d * big, m)

        def h_in(state):
            return state.apply_hadamard_wall(range(n))

        def q_first(state):
            return apply_standard_oracle(
                state, lambda x: base.middle_eval(0, base.embed(x)), (0, n), reg(1)
            )

        def q_mid(i):
            def step(state):
                return apply_standard_oracle(
                    state, lambda v: base.middle_eval(i, v), reg(i), reg(i + 1)
                )
            return step

        def q_final(state):
            def fd(v):
                val = base.final_eval(v)
                return base.junk_value(v) if val is None else val
            return apply_standard_oracle(state, fd, reg(d), out_reg)

        def h_out(state):
            return state.apply_hadamard_wall(range(n))

        forward = [q_first] + [q_mid(i) for i in range(1, d)] + [q_final]
        backward = [q_mid(i) for i in reversed(range(1, d))] + [q_first]
        steps = [h_in] + forward + backward + [h_out]
        return steps, total


def solve_inplace_dssp(
    oracle: InPlaceShufflingOracle, rng, accepted_target=None, max_runs=None
):
    """Recover the hidden shift with the depth-(d+3) erasing-access algorithm.

    Runs as a dCQ scheme with per-invocation depth d+3, collecting samples
    whose flag qubit measured 0 after the closing Hadamard layer, until
    ``accepted_target`` samples are in hand, then solves the GF(2) system.

    Returns (s_hat_or_None, trace, stats).
    """
    n, d = oracle.n, oracle.d
    budget = d + 3
    accepted_target = 3 * n if accepted_target is None else accepted_target
    max_runs = 20 * accepted_target if max_runs is None else max_runs
    session = HybridSession(DCQ, budget, rng)
    steps, total = SolverRun(oracle, True).inplace_steps()
    circuit = StepCircuit(steps, total)
    samples, runs, accepted = [], 0, 0
    while accepted < accepted_target and runs < max_runs:
        bits = session.invoke(circuit)
        runs += 1
        flag = bits[-1]
        if flag == 0:
            y = 0
            for b in bits[:n]:
                y = (y << 1) | b
            samples.append(y)
            accepted += 1
        session.classical("collect_sample")
    s_hat = solve_hidden_shift(samples, n)
    trace = session.finish()
    return s_hat, trace, {"runs": runs, "accepted": accepted, "samples": samples}


def solve_inplace_dssp_parallel(oracle: InPlaceShufflingOracle, rng,
                                t_parallel=None, budget=None):
    """The same depth-(d+3) algorithm as one dQC execution.

    All samples run as parallel instances inside a single coherent schedule
    of d+3 layers, so the cumulative dQC depth equals d+3; declaring a
    smaller budget aborts at the first over-budget layer.  Returns
    (s_hat_or_None, trace, stats).
    """
    n, d = oracle.n, oracle.d
    if d < 1:
        raise QDepthError("in-place access needs d >= 1")
    t = 6 * n if t_parallel is None else t_parallel
    budget = d + 3 if budget is None else budget
    session = HybridSession(DQC, budget, rng)
    steps, total = SolverRun(oracle, True).inplace_steps()
    states = [SparseState.from_bits([0] * total) for _ in range(t)]
    for step in steps:
        session.layer(states, step)
    samples = []
    accepted = 0
    for st in states:
        bits, _ = qsim_measure(st, range(total), "standard", rng)
        if bits[-1] == 0:
            accepted += 1
            y = 0
            for b in bits[:n]:
                y = (y << 1) | b
            samples.append(y)
    session.classical("solve_gf2")
    s_hat = solve_hidden_shift(samples, n)
    trace = session.finish()
    return s_hat, trace, {"instances": t, "accepted": accepted, "samples": samples}


def solve_standard_dssp(oracle, rng, samples_target=None, max_runs=None):
    """Recover the hidden shift with the (2d+3)-depth compute/uncompute chain."""
    base = oracle.base if isinstance(oracle, InPlaceShufflingOracle) else oracle
    n, d = base.n, base.d
    budget = 2 * d + 3
    samples_target = 3 * n if samples_target is None else samples_target
    max_runs = 10 * samples_target if max_runs is None else max_runs
    session = HybridSession(DCQ, budget, rng)
    steps, total = SolverRun(base, False).standard_steps()
    circuit = StepCircuit(steps, total)
    samples, runs = [], 0
    while len(samples) < samples_target and runs < max_runs:
        bits = session.invoke(circuit)
        runs += 1
        y = 0
        for b in bits[:n]:
            y = (y << 1) | b
        samples.append(y)
        session.classical("collect_sample")
    s_hat = solve_hidden_shift(samples, n)
    trace = session.finish()
    return s_hat, trace, {"runs": runs, "samples": samples}
