"""Single-prover depth certification from claw-free functions.

A toy trapdoor claw-free family stands in for the lattice-based one:
f_{k,b}(x) = Pi_k(x ^ (b * s_k)) over a keyed small-domain permutation Pi_k,
so the claws are exactly the pairs (x, x ^ s_k) and the trapdoor is s_k plus
the permutation key.  The family is noise-free and NOT cryptographically
claw-free; the protocol and extractor mechanics are what is exercised here,
not computational hardness.

The verifier hands out d+1 keys, collects the image values, then reveals the
challenge bits strictly one at a time: each answer requires a basis choice
that depends on the previous exchange, which is what forces an honest prover
to keep quantum coherence for d extra layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ProtocolOrderError, QDepthError
from .hybrid import DQC, HybridSession, audited_depth
from .oracles import KeyedPermutation, dot_bits, random_keyed_permutation
from .qsim import SPARSE_SUPPORT_CAP, SparseState, bits_to_int, run_streams
from .qsim import measure as qsim_measure

# the claw block d0: the layers that prepare every claw state and measure
# its image register, the same for every prover and every run
D0_DEFAULT = 14


@dataclass(frozen=True)
class ToyNTCFKey:
    """Public key of one toy claw-free function; doubles as the trapdoor."""

    n: int
    perm: KeyedPermutation
    shift: int

    def __post_init__(self):
        if self.shift == 0 or not (0 < self.shift < (1 << self.n)):
            raise QDepthError("claw shift must be a nonzero n-bit string")

    def eval(self, b, x) -> int:
        return self.perm.eval(x ^ (b * self.shift))

    def preimages(self, y):
        x0 = self.perm.invert(y)
        return x0, x0 ^ self.shift


def gen(n, rng):
    """Sample (key, trapdoor); the toy trapdoor equals the key."""
    if n < 2:
        raise QDepthError("need n >= 2")
    key = ToyNTCFKey(
        n=n,
        perm=random_keyed_permutation(n, rng),
        shift=int(rng.integers(1, 1 << n)),
    )
    return key, key


def chk(k: ToyNTCFKey, b, x, y) -> int:
    """Public preimage check: 1 iff f_{k,b}(x) = y (no trapdoor needed)."""
    if b not in (0, 1):
        raise QDepthError("preimage bit b must be 0 or 1")
    if not (0 <= x < (1 << k.n)) or not (0 <= y < (1 << k.n)):
        raise QDepthError("widths do not match the key")
    return int(k.eval(b, x) == y)


def samp_state(k: ToyNTCFKey) -> SparseState:
    """Uniform claw superposition sum_{b,x} |b>|x>|f_k(b,x)> on 1+2n qubits."""
    n = k.n
    if (2 << n) > SPARSE_SUPPORT_CAP:
        raise CapacityError(
            f"claw state support {2 << n} exceeds cap {SPARSE_SUPPORT_CAP}")
    amp = 1.0 / np.sqrt(2 << n)
    pairs = [(b, x) for b in (0, 1) for x in range(1 << n)]
    images = k.perm.eval_many([x ^ (b * k.shift) for b, x in pairs])
    support = {(((b << n) | x) << n) | y: amp for (b, x), y in zip(pairs, images)}
    return SparseState(1 + 2 * n, support)


def verify_v(t: ToyNTCFKey, y, c, w) -> int:
    """The round predicate: preimage check for c=0, equation check for c=1.

    For c=1 the answer is (u, e), a bit and an n-bit string; every e is
    admissible in the toy family (a documented deviation: e = 0 with u = 0
    passes), and the equation reads e . (x0 ^ x1) = u, which the trapdoor
    reduces to e . shift = u.  Answers outside that space raise QDepthError.
    """
    if c == 0:
        try:
            b, x = w
        except (TypeError, ValueError):
            raise QDepthError("malformed preimage answer")
        return chk(t, b, x, y)
    if c == 1:
        try:
            u, e = w
        except (TypeError, ValueError):
            raise QDepthError("malformed equation answer")
        if u not in (0, 1) or not (0 <= e < (1 << t.n)):
            raise QDepthError("equation answer needs a bit u and an n-bit e")
        x0, x1 = t.preimages(y)
        return int(dot_bits(e, x0 ^ x1) == u)
    raise QDepthError("challenge bit must be 0 or 1")


@dataclass
class CvqdRun:
    """A finished run of ``run_cvqd``: what was committed, asked and
    answered, the verdict and the depth audited from the prover's trace."""

    d: int
    keys: list
    images: list
    challenges: list
    responses: list
    verdict: str
    audited_depth: int

    def to_json(self):
        return {
            "d": self.d,
            "d0": D0_DEFAULT,
            "images": self.images,
            "challenges": self.challenges,
            "verdict": self.verdict,
            "audited_depth": self.audited_depth,
        }


# ---------------------------------------------------------------------------
# Provers
# ---------------------------------------------------------------------------


class HonestProver:
    """Keeps all claw registers coherent; one adaptive layer per round.

    Depth accounting: preparing every claw superposition and measuring the
    image registers is charged as the constant block ``D0_DEFAULT`` (the
    first round's basis slot is folded into it); every later round charges
    one layer, so a full run audits exactly d0 + d.
    """

    def _budget(self, d):
        return D0_DEFAULT + d

    def begin(self, keys, d, rng):
        """Prepare every claw state and commit to its measured image."""
        self.keys = keys
        self.rng = rng
        self.session = HybridSession(DQC, self._budget(d), rng)
        self.states = [samp_state(k) for k in keys]
        self.session.charge_layers(
            D0_DEFAULT, "prepare_claws: samp_state builds the claw states whole")
        images = []
        for st, k in zip(self.states, keys):
            n = k.n
            bits, _ = qsim_measure(st, range(1 + n, 1 + 2 * n), "standard", self.rng)
            images.append(bits_to_int(bits))
        self.images = images
        return images

    def answer(self, i, c):
        """Measure claw register i in the standard (c=0) or Hadamard basis."""
        n = self.keys[i - 1].n
        if i >= 2:
            self.session.charge_layers(
                1, f"round_{i}_basis: applied by the measurement that reads it")
        basis = "standard" if c == 0 else "hadamard"
        bits, _ = qsim_measure(self.states[i - 1], range(0, 1 + n), basis, self.rng)
        return _head_rest(bits)

    def trace(self):
        return self.session.finish()


def _head_rest(bits):
    """Split measured (b, x) bits into the answer pair (b, x as an integer)."""
    return (bits[0], bits_to_int(bits[1:]))


class PreimageOnlyProver:
    """Classical prover that prepares preimages and nothing else.

    It answers every c=0 challenge perfectly and every c=1 challenge with a
    deliberately unsatisfiable placeholder, so it is accepted exactly when
    all d+1 challenge bits are zero.
    """

    def begin(self, keys, d, rng):
        self.keys = keys
        self.rng = rng
        self.session = HybridSession(DQC, 0, rng)
        self.pre = []
        images = []
        for k in keys:
            b = int(rng.integers(2))
            x = int(rng.integers(0, 1 << k.n))
            self.pre.append((b, x))
            images.append(k.eval(b, x))
        return images

    def answer(self, i, c):
        if c == 0:
            return self.pre[i - 1]
        return (1, 0)  # 0 . anything is never 1

    def trace(self):
        return self.session.finish()


class ResetProver(HonestProver):
    """Honest until round j, then collapses to classical information.

    On receiving c_j the prover measures every remaining register in the
    standard basis; sigma_j (its classical residue) holds the preimages, so
    later c=0 rounds still pass while c=1 rounds use ``equation_mode``:
    "guess" answers a random equation, "planted" uses the claw shift (an
    experiment-only power standing in for a prover that breaks the hardcore
    bit).
    """

    def __init__(self, j, equation_mode="guess"):
        self.j = j
        self.equation_mode = equation_mode

    def _budget(self, d):
        return D0_DEFAULT + max(0, self.j - 1)

    def begin(self, keys, d, rng):
        self.d = d
        self.sigma = None
        return super().begin(keys, d, rng)

    def _reset(self):
        """Standard-basis measurement of everything still coherent."""
        sigma = {}
        for i in range(self.j, self.d + 2):
            k = self.keys[i - 1]
            st = self.states[i - 1]
            bits, _ = qsim_measure(st, range(0, 1 + k.n), "standard", self.rng)
            sigma[i] = _head_rest(bits)
        self.sigma = dict(sigma)
        return sigma

    def answer(self, i, c):
        if i < self.j:
            return super().answer(i, c)
        if self.sigma is None:
            self._reset()
        return self.answer_from_sigma(self.sigma, i, c)

    def answer_from_sigma(self, sigma, i, c):
        """Classical post-reset answering; replayable by the extractor."""
        if c == 0:
            return sigma[i]
        k = self.keys[i - 1]
        if self.equation_mode == "planted":
            e = int(self.rng.integers(0, 1 << k.n))
            return (dot_bits(e, k.shift), e)
        e = int(self.rng.integers(0, 1 << k.n))
        u = int(self.rng.integers(2))
        return (u, e)


PROVERS = {
    "honest": HonestProver,
    "preimage-only": PreimageOnlyProver,
    "reset-guess": lambda: ResetProver(j=1, equation_mode="guess"),
    "reset-planted": lambda: ResetProver(j=1, equation_mode="planted"),
}


# ---------------------------------------------------------------------------
# Protocol runner and extractor
# ---------------------------------------------------------------------------


def run_cvqd(d, prover, rng, n=4):
    """One protocol execution: d+1 keys, sequential challenges.

    The verdict is reject as soon as any round's predicate fails; each
    challenge bit is sampled only after the previous answer arrived.  The
    audited depth comes from the prover's finished trace; an error there is
    a lab bug and reaches the caller.
    """
    keys = [gen(n, rng)[0] for _ in range(d + 1)]
    images = prover.begin(keys, d, rng)
    if len(images) != d + 1:
        raise ProtocolOrderError("prover must commit d+1 images first")
    images = [int(y) for y in images]
    challenges, responses = [], []
    verdict = "accept"
    for i in range(1, d + 2):
        c = int(rng.integers(2))
        challenges.append(c)
        w = prover.answer(i, c)
        responses.append(tuple(int(v) for v in w))
        if not verify_v(keys[i - 1], images[i - 1], c, w):
            verdict = "reject"
            break
    run = CvqdRun(d, keys, images, challenges, responses, verdict,
                  audited_depth(prover.trace()))
    return verdict, run


def rewind_extract(prover: ResetProver, rng, n=4, d=2):
    """Replay a reset-style prover's last round under both challenges.

    Drives the protocol up to the final round, forces the classical residue
    sigma_j into existence, then asks for both a preimage and an equation
    for the same image.  Returns (y, w0, w1, both_valid, (v0, v1)).
    """
    keys = [gen(n, rng)[0] for _ in range(d + 1)]
    images = prover.begin(keys, d, rng)
    target = d + 1
    for i in range(1, target):
        c = int(rng.integers(2))
        prover.answer(i, c)
    if prover.sigma is None:
        if prover.j > target:
            raise ProtocolOrderError(
                "prover never resets; rewinding needs a classical residue"
            )
        prover._reset()
    sigma = dict(prover.sigma)
    w0 = prover.answer_from_sigma(sigma, target, 0)
    w1 = prover.answer_from_sigma(sigma, target, 1)
    y = images[target - 1]
    v0 = verify_v(keys[target - 1], y, 0, w0)
    v1 = verify_v(keys[target - 1], y, 1, w1)
    return y, w0, w1, int(v0 and v1), (v0, v1)


def extractor_replay(rng, d, n, mode):
    """One extractor trial: ``rewind_extract`` on a ``ResetProver`` that
    resets in round 1 with ``mode`` equations; returns its (v0, v1)."""
    return rewind_extract(ResetProver(j=1, equation_mode=mode), rng, n=n, d=d)[4]


def extractor_rates(valid):
    """The extractor's report over the (v0, v1) of its replays: trials, p0,
    p1 and both_valid_rate; the construction guarantees both_valid_rate >=
    p0 + p1 - 1 up to sampling noise."""
    trials = len(valid)
    return {
        "trials": trials,
        "p0": sum(v0 for v0, _ in valid) / trials,
        "p1": sum(v1 for _, v1 in valid) / trials,
        "both_valid_rate": sum(v0 and v1 for v0, v1 in valid) / trials,
    }


def extractor_experiment(d, trials, rng_seed=0, n=4, mode="guess"):
    """Monte-Carlo check of the rewinding inequality: ``extractor_rates``
    over one ``extractor_replay`` on each of ``trials`` streams of
    ``rng_seed``.  ``ntcf-run --extract`` does not call it; its replays
    continue the streams of its protocol trials."""
    def play(rng, stream):
        return True, None, extractor_replay(rng, d, n, mode)
    return extractor_rates(run_streams(play, rng_seed, trials, 1, 1)[2])
