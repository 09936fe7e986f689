"""Minimal quantum simulator: dense and sparse statevectors, gates,
measurements, and the Pauli twirl with its channel references.

Qubit 0 is the most significant bit of a basis index.  All state-returning
operations preserve the L2 norm to within 1e-9; state equality is always
taken up to a global phase.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, QDepthError

# a dense register operator on 8 qubits takes 1 MiB
DENSE_LIMIT = 8
SPARSE_SUPPORT_CAP = 1 << 20
# twirl's dense process arithmetic is exponential in n; callers check this
# before drawing a channel
TWIRL_MAX_QUBITS = 3
_PRUNE = 1e-14
ATOL = 1e-9

SQ2 = 1.0 / math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2
S = np.diag([1.0, 1j]).astype(complex)
SDG = S.conj().T
T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
TDG = T.conj().T
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

GATE_MATRICES = {
    "I": I2, "X": X, "Y": Y, "Z": Z, "H": H,
    "S": S, "SDG": SDG, "T": T, "TDG": TDG, "CNOT": CNOT,
}


@dataclass(frozen=True)
class Gate:
    """One gate application: a named gate or a generic unitary."""

    name: str
    targets: tuple
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.matrix is None and self.name not in GATE_MATRICES:
            raise QDepthError(f"unknown gate {self.name!r} without explicit matrix")

    def unitary(self) -> np.ndarray:
        m = self.matrix if self.matrix is not None else GATE_MATRICES[self.name]
        dim = 1 << len(self.targets)
        if m.shape != (dim, dim):
            raise QDepthError(
                f"gate {self.name}: matrix shape {m.shape} does not fit "
                f"{len(self.targets)} target(s)"
            )
        return m


def bits_to_int(bits):
    """The basis index a bit sequence spells, its first bit most significant."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


def dot_bits(a, b) -> int:
    """The GF(2) inner product of two bit strings held as ints."""
    return (a & b).bit_count() & 1


def _check_targets(n, targets):
    """Gate targets or measured qubits must be distinct, in an n-qubit register."""
    if len(set(targets)) != len(targets) or not all(0 <= t < n for t in targets):
        raise QDepthError(f"qubits {targets} invalid on {n} qubits")


def embed_operator(u, targets, n) -> np.ndarray:
    """The 2^n x 2^n matrix of the 2^k x 2^k matrix ``u`` acting on the k
    ``targets`` of an n-qubit register, its first target most significant
    in ``u``'s index.  Checks the targets and the shape."""
    _check_targets(n, targets)
    k = len(targets)
    if u.shape != (1 << k, 1 << k):
        raise QDepthError(f"matrix shape {u.shape} does not fit {k} target(s)")
    order = list(targets) + [q for q in range(n) if q not in targets]
    # kron(u, I) acts on the qubit order targets + rest; each register
    # qubit's row and column axes are then moved to its own place
    axes = np.argsort(order).tolist()
    full = np.kron(u, np.eye(1 << (n - k))).reshape([2] * (2 * n))
    return full.transpose(axes + [n + a for a in axes]).reshape(1 << n, 1 << n)


def read_only(array) -> np.ndarray:
    """``array``, marked read-only: for operators every caller shares."""
    array.flags.writeable = False
    return array


@functools.cache
def named_operator(n, name, targets) -> np.ndarray:
    """The register operator of the named gate ``name`` on ``targets`` of an
    n-qubit register, built on first use; shared, so read-only."""
    return read_only(embed_operator(GATE_MATRICES[name], targets, n))


@functools.cache
def _wall_spread(n, qubits) -> np.ndarray:
    """Per sub-index of a Hadamard wall on ``qubits`` (its first qubit most
    significant), the basis bits it sets.  Python ints, so registers wider
    than 63 qubits work; the qubits are checked here, so only the first
    wall on each (n, qubits) pays for it."""
    _check_targets(n, qubits)
    spread = [0]
    for q in qubits:
        m = 1 << (n - 1 - q)
        spread = [s | b for s in spread for b in (0, m)]
    return read_only(np.array(spread, dtype=object))


class StateVector:
    """Dense complex statevector on up to ``DENSE_LIMIT`` qubits: the
    game's 2-wire stand-in and the 1-wire gadget check.

    Every operation on it is one product of a 2^n x 2^n register operator
    with ``amplitudes``, which gives a new array: a named gate's operator is
    built once per (n, name, targets) and shared read-only, an explicit
    matrix is embedded on each call.  The pad (``gadgets``) and a gadget's
    first half (``game``) keep cached operators of their own.  No operation
    writes the array a caller handed in.
    """

    def __init__(self, num_qubits, amplitudes=None):
        if num_qubits > DENSE_LIMIT:
            raise CapacityError(
                f"{num_qubits} qubits exceeds dense limit {DENSE_LIMIT}"
            )
        self.num_qubits = num_qubits
        if amplitudes is None:
            amplitudes = np.zeros(1 << num_qubits, dtype=complex)
            amplitudes[0] = 1.0
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << num_qubits,):
            raise QDepthError("amplitude vector has wrong length")

    @classmethod
    def from_bits(cls, bits):
        amps = np.zeros(1 << len(bits), dtype=complex)
        amps[bits_to_int(bits)] = 1.0
        return cls(len(bits), amps)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def apply_gate(self, gate: Gate):
        n = self.num_qubits
        if gate.matrix is None:
            op = named_operator(n, gate.name, gate.targets)
        else:
            op = embed_operator(gate.matrix, gate.targets, n)
        self.amplitudes = op @ self.amplitudes
        return self


class SparseState:
    """Statevector stored as a map basis-index -> amplitude, at most
    ``SPARSE_SUPPORT_CAP`` entries."""

    def __init__(self, num_qubits, support=None):
        self.num_qubits = num_qubits
        self.support = dict(support) if support is not None else {0: 1.0 + 0j}
        self._check_cap()

    def _check_cap(self):
        if len(self.support) > SPARSE_SUPPORT_CAP:
            raise CapacityError(
                f"sparse support {len(self.support)} exceeds cap {SPARSE_SUPPORT_CAP}"
            )

    @classmethod
    def from_bits(cls, bits):
        return cls(len(bits), {bits_to_int(bits): 1.0 + 0j})

    def copy(self) -> "SparseState":
        return SparseState(self.num_qubits, self.support)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.support.values()))

    def _mask(self, qubit) -> int:
        return 1 << (self.num_qubits - 1 - qubit)

    def apply_gate(self, gate: Gate):
        u = gate.unitary()
        targets = gate.targets
        _check_targets(self.num_qubits, targets)
        masks = [self._mask(t) for t in targets]
        combined = 0
        for m in masks:
            combined |= m
        k = len(targets)
        dim = 1 << k
        new = {}
        seen = set()
        for basis in self.support:
            base = basis & ~combined
            if base in seen:
                continue
            seen.add(base)
            idxs = []
            for i in range(dim):
                s = base
                for j, m in enumerate(masks):
                    if (i >> (k - 1 - j)) & 1:
                        s |= m
                idxs.append(s)
            amps = np.array([self.support.get(s, 0j) for s in idxs])
            amps = u @ amps
            for s, a in zip(idxs, amps):
                if abs(a) > _PRUNE:
                    new[s] = new.get(s, 0j) + a
        self.support = new
        self._check_cap()
        return self

    def map_basis(self, fn):
        """Relabel basis states through a bijection on indices."""
        new = {}
        for k, a in self.support.items():
            j = fn(k)
            if j in new:
                raise QDepthError("basis map is not injective on the support")
            new[j] = a
        self.support = new
        return self

    def apply_hadamard_wall(self, qubits):
        """One parallel layer of H gates on distinct ``qubits``.

        Equivalent to applying H to each qubit in turn, but one pass over the
        support and one matrix product instead of k doubling passes.  The new
        support lists the groups of entries that share their bits outside the
        wall in order of first appearance, each by ascending sub-index (the
        wall's bits, its first qubit most significant).
        """
        qubits = tuple(qubits)
        spread = _wall_spread(self.num_qubits, qubits)
        masks = [self._mask(q) for q in qubits]
        comb = sum(masks)
        k = len(qubits)
        rows, pos = {}, []
        for idx in self.support:
            sub = 0
            for m in masks:
                sub = (sub << 1) | (idx & m != 0)
            pos.append(rows.setdefault(idx & ~comb, len(rows)) << k | sub)
        vecs = np.zeros((len(rows), 1 << k), dtype=complex)
        vecs.put(pos, list(self.support.values()))
        out = vecs @ _hadamard_tensor(k).T
        keep = np.abs(out) > _PRUNE
        r, c = np.nonzero(keep)
        bases = np.array(list(rows), dtype=object)
        self.support = dict(zip((bases[r] | spread[c]).tolist(), out[keep].tolist()))
        self._check_cap()
        return self

    def born_distribution(self):
        """The Born rule of a full measurement: the basis indices in support
        order and the ``born_cdf`` of their normalised probabilities."""
        indices = list(self.support)
        # Python's abs(a) ** 2, not np.abs(...) ** 2: the two differ in the
        # last bit for some amplitudes, which would move seeded draws
        probs = np.fromiter((abs(a) ** 2 for a in self.support.values()),
                            dtype=float, count=len(indices))
        return indices, born_cdf(probs / probs.sum())

    def sample_index(self, rng, born=None) -> int:
        """Draw one basis index by the Born rule (a full measurement).

        ``born`` is this state's ``born_distribution()`` if the caller keeps
        it, as a dCQ circuit does for the state it samples on every
        invocation; otherwise it is built here.
        """
        indices, cdf = self.born_distribution() if born is None else born
        return indices[born_draw(rng, cdf)]


@functools.cache
def _hadamard_tensor(k) -> np.ndarray:
    """H tensored k times; shared by every wall on k qubits, so read-only."""
    hk = np.array([[1.0]], dtype=complex)
    for _ in range(k):
        hk = np.kron(hk, H)
    return read_only(hk)


# numpy's tolerance on the sum of ``Generator.choice``'s p, for float64 p
_BORN_ATOL = math.sqrt(np.finfo(np.float64).eps)


def born_cdf(probs) -> np.ndarray:
    """The table ``Generator.choice(len(probs), p=probs)`` draws from: the
    cumulative sum of ``probs``, divided by its last entry.

    Raises ``QDepthError`` where ``choice`` raises on ``p``: NaN or negative
    entries, or a sum more than numpy's tolerance away from 1.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cdf = probs.cumsum()
    total = cdf[-1] if cdf.size else math.nan
    if not abs(total - 1.0) <= _BORN_ATOL or probs.min() < 0:
        raise QDepthError(f"Born probabilities must be nonnegative and sum "
                          f"to 1, not {total}")
    cdf /= total
    return cdf


def born_draw(rng, cdf) -> int:
    """One draw from a ``born_cdf`` table: the same index, and the same one
    ``rng.random()`` taken, as ``Generator.choice`` with that ``p``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def born_pick(rng, probs) -> int:
    """``born_draw(rng, born_cdf(probs / probs.sum()))`` for nonnegative
    weights ``probs``.

    Two weights take a path in Python floats that builds the table
    ``born_cdf`` builds, bit for bit: its first entry is a / (a + b), its
    last 1.0, so the index is whether the one ``rng.random()`` reaches the
    first.  Weights ``born_cdf`` refuses, all-zero ones included, raise
    ``QDepthError`` as it does.
    """
    if len(probs) == 2:
        p0, p1 = float(probs[0]), float(probs[1])
        s = p0 + p1
        if s:
            a, b = p0 / s, p1 / s
            total = a + b
            if abs(total - 1.0) <= _BORN_ATOL and min(a, b) >= 0:
                return int(rng.random() >= a / total)
    return born_draw(rng, born_cdf(probs / probs.sum()))


def trial_rng(seed, trial):
    """Generator for trial ``trial`` of a run seeded with ``seed``.

    Randomness is always injected as a ``numpy.random.Generator``; per-trial
    streams are spawned from the run seed, so any one trial replays alone.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


def _stream_chunk(play, seed, repeat, t0, t1):
    """Logical trials ``[t0, t1)`` of ``run_streams``."""
    accepted, depths, kept = 0, set(), []
    for t in range(t0, t1):
        for stream in range(t * repeat, (t + 1) * repeat):
            ok, depth, keep = play(trial_rng(seed, stream), stream)
            depths.add(depth)
            if keep is not None:
                kept.append(keep)
            if not ok:
                break
        else:
            accepted += 1
    return accepted, depths - {None}, kept


def run_streams(play, seed, trials, repeat, jobs):
    """The seeded Monte-Carlo loop.  Logical trial t of ``trials`` plays
    streams ``t*repeat + r`` as ``play(trial_rng(seed, stream), stream) ->
    (accepted, audited depth, kept)`` and stops at the first stream not
    accepted.  ``jobs`` > 1 cuts ``jobs`` contiguous chunks for at most one
    spawned worker per CPU, so ``play`` must pickle.  Returns the accepted
    trials, the audited depths and the kept values in stream order, less
    any None; none depends on ``jobs``."""
    if trials < 1 or repeat < 1 or jobs < 1:
        raise ConfigError([f"need trials, repeat and jobs >= 1, got "
                           f"{trials}, {repeat} and {jobs}"])
    if jobs == 1:
        return _stream_chunk(play, seed, repeat, 0, trials)
    # imported here: at module level they would slow every import of qsim
    import concurrent.futures
    import multiprocessing
    bounds = np.linspace(0, trials, jobs + 1, dtype=int).tolist()
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, os.cpu_count() or 1),
            mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(_stream_chunk, play, seed, repeat, a, b)
                   for a, b in itertools.pairwise(bounds) if b > a]
        parts = [f.result() for f in futures]
    return (sum(part[0] for part in parts), set().union(*(part[1] for part in parts)),
            [keep for part in parts for keep in part[2]])


def measure(state: SparseState, qubits, basis="standard", rng=None):
    """Measure a subset of qubits of a sparse state; returns (outcome,
    post-measurement state).

    ``outcome`` is the basis index of the measured qubits, the first of
    ``qubits`` most significant (``bits_to_int`` of their bits in order).

    ``hadamard`` basis applies one Hadamard wall to the measured qubits
    first.  The state is collapsed and renormalized in place.
    """
    qubits = list(qubits)
    if state.num_qubits == 0 or not qubits:
        raise QDepthError("measurement needs a nonempty register")
    if rng is None:
        raise QDepthError("measurement requires an injected rng")
    # the qubits are checked before the state is touched
    _check_targets(state.num_qubits, qubits)
    if basis == "hadamard":
        state.apply_hadamard_wall(qubits)
    elif basis != "standard":
        raise QDepthError(f"unknown measurement basis {basis!r}")

    k = len(qubits)
    # each entry's outcome as one int, the first measured qubit most
    # significant: ints sort as the tuples of bits they spell
    if qubits == list(range(qubits[0], qubits[-1] + 1)):
        shift, low = state.num_qubits - 1 - qubits[-1], (1 << k) - 1
        keys = [(idx >> shift) & low for idx in state.support]
    else:
        masks = [state._mask(q) for q in qubits]
        keys = [bits_to_int([idx & m != 0 for m in masks]) for idx in state.support]
    patterns, members = {}, {}
    # Python's abs(a) ** 2, as in ``SparseState.born_distribution``
    for key, (idx, a) in zip(keys, state.support.items()):
        patterns[key] = patterns.get(key, 0.0) + abs(a) ** 2
        members.setdefault(key, {})[idx] = a
    outcomes = sorted(patterns)
    pick = outcomes[born_pick(rng, np.array([patterns[o] for o in outcomes]))]
    keep = members[pick]
    nrm = math.sqrt(sum(abs(a) ** 2 for a in keep.values()))
    state.support = {i: v / nrm for i, v in keep.items()}
    return pick, state


def states_equal_up_to_phase(u, v, tol=ATOL) -> bool:
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.shape != v.shape:
        return False
    i = int(np.argmax(np.abs(u)))
    if abs(v[i]) < 1e-12:
        return False
    phase = u[i] / v[i]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(u, phase * v, atol=tol))


def fidelity(u, v) -> float:
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    return abs(np.vdot(u, v)) ** 2 / (np.vdot(u, u).real * np.vdot(v, v).real)


# ---------------------------------------------------------------------------
# Pauli operators, distributions, and channel twirling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class PauliOp:
    """n-qubit Pauli X^x Z^z given by per-wire bit masks (qubit 0 = MSB)."""

    width: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if not (0 <= self.x_bits < (1 << self.width)) or not (
            0 <= self.z_bits < (1 << self.width)
        ):
            raise QDepthError("Pauli bitstrings do not fit the register width")

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def matrix(self) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for q in range(self.width):
            m = I2
            xb = (self.x_bits >> (self.width - 1 - q)) & 1
            zb = (self.z_bits >> (self.width - 1 - q)) & 1
            single = np.linalg.matrix_power(X, xb) @ np.linalg.matrix_power(Z, zb)
            out = np.kron(out, single if (xb or zb) else m)
        return out

    def label(self) -> str:
        names = []
        for q in range(self.width):
            xb = (self.x_bits >> (self.width - 1 - q)) & 1
            zb = (self.z_bits >> (self.width - 1 - q)) & 1
            names.append({(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}[(xb, zb)])
        return ".".join(names)


def all_paulis(n):
    for xb in range(1 << n):
        for zb in range(1 << n):
            yield PauliOp(n, xb, zb)


@dataclass
class PauliDistribution:
    weights: dict

    def __post_init__(self):
        total = sum(self.weights.values())
        if any(w < -ATOL for w in self.weights.values()):
            raise QDepthError("Pauli weights must be nonnegative")
        if abs(total - 1.0) > ATOL:
            raise QDepthError(f"Pauli weights sum to {total}, not 1")

    @property
    def width(self) -> int:
        return next(iter(self.weights)).width

    def identity_weight(self) -> float:
        for op, w in self.weights.items():
            if op.is_identity:
                return w
        return 0.0

    def sample(self, rng) -> PauliOp:
        ops = sorted(self.weights)
        return ops[born_pick(rng, np.array([max(self.weights[o], 0.0) for o in ops]))]

    def marginal_weight(self, predicate) -> float:
        return sum(w for op, w in self.weights.items() if predicate(op))


def apply_kraus(kraus, rho) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def kraus_is_trace_preserving(kraus, tol=ATOL) -> bool:
    dim = kraus[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    return bool(np.allclose(acc, np.eye(dim), atol=tol))


def twirl(kraus, n) -> PauliDistribution:
    """Pauli-twirl an n-qubit CPTP map given as a Kraus list.

    Returns the distribution r with
    avg_a P_a^dag Phi(P_a rho P_a^dag) P_a = sum_a r_a P_a rho P_a^dag.
    """
    if n > TWIRL_MAX_QUBITS:
        raise CapacityError(f"twirl uses dense process arithmetic; n must be "
                            f"<= {TWIRL_MAX_QUBITS}")
    dim = 1 << n
    if kraus[0].shape != (dim, dim):
        raise QDepthError("Kraus operators do not act on n qubits")
    if not kraus_is_trace_preserving(kraus):
        raise QDepthError("channel is not trace preserving within 1e-9")
    weights = {}
    for op in all_paulis(n):
        p = op.matrix()
        weights[op] = float(
            sum(abs(np.trace(p.conj().T @ k)) ** 2 for k in kraus) / (dim * dim)
        )
    total = sum(weights.values())
    weights = {op: w / total for op, w in weights.items()}
    return PauliDistribution(weights)


def _twirl_probe_states(n):
    """The 4^n product states of |0>, |1>, |+> and |+i> on n qubits, the
    first qubit's factor outermost."""
    single = (
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
        np.full((2, 2), 0.5, dtype=complex),
        np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    )
    return [functools.reduce(np.kron, combo)
            for combo in itertools.product(single, repeat=n)]


def twirl_max_deviation(n, trials, rng):
    """Largest entry gap between the twirl of ``trials`` random n-qubit
    channels (``random_cptp``) and their Pauli channels, over the product
    probe states."""
    probes = _twirl_probe_states(n)
    worst = 0.0
    for _ in range(trials):
        kraus = random_cptp(n, rng)
        r = twirl(kraus, n)
        for rho in probes:
            lhs = twirled_channel_apply(kraus, n, rho)
            rhs = pauli_channel_apply(r, rho)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def twirled_channel_apply(kraus, n, rho) -> np.ndarray:
    """Brute-force average of P^dag Phi(P rho P^dag) P over all Paulis."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for op in all_paulis(n):
        p = op.matrix()
        out += p.conj().T @ apply_kraus(kraus, p @ rho @ p.conj().T) @ p
    return out / (4.0 ** n)


def pauli_channel_apply(r: PauliDistribution, rho) -> np.ndarray:
    out = np.zeros_like(rho)
    for op, w in r.weights.items():
        p = op.matrix()
        out += w * (p @ rho @ p.conj().T)
    return out


def haar_unitary(dim, rng) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_cptp(n, rng):
    """Random CPTP map on n qubits via a Haar isometry into a four-level
    environment: four Kraus operators."""
    dim, env_dim = 1 << n, 4
    u = haar_unitary(dim * env_dim, rng)
    iso = u[:, :dim]
    return [iso[e * dim:(e + 1) * dim, :] for e in range(env_dim)]


def random_state(n, rng) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)
