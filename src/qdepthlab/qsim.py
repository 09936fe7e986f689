"""Minimal quantum simulator: dense and sparse statevectors, gate layers,
measurements, EPR pairs, teleportation, and Pauli-channel utilities.

Qubit 0 is the most significant bit of a basis index.  All state-returning
operations preserve the L2 norm to within 1e-9; state equality is always
taken up to a global phase.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, QDepthError

DENSE_LIMIT_DEFAULT = 22
SPARSE_SUPPORT_CAP = 1 << 20
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


def layer_targets(layer) -> list:
    out = []
    for g in layer:
        out.extend(g.targets)
    return out


class StateVector:
    """Dense complex statevector on up to ``dense_limit`` qubits."""

    def __init__(self, num_qubits, amplitudes=None, dense_limit=DENSE_LIMIT_DEFAULT):
        if num_qubits > dense_limit:
            raise CapacityError(
                f"{num_qubits} qubits exceeds dense limit {dense_limit}"
            )
        self.num_qubits = num_qubits
        self.dense_limit = dense_limit
        if amplitudes is None:
            amplitudes = np.zeros(1 << num_qubits, dtype=complex)
            amplitudes[0] = 1.0
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << num_qubits,):
            raise QDepthError("amplitude vector has wrong length")

    @classmethod
    def from_bits(cls, bits, **kw):
        n = len(bits)
        idx = 0
        for b in bits:
            idx = (idx << 1) | (b & 1)
        amps = np.zeros(1 << n, dtype=complex)
        amps[idx] = 1.0
        return cls(n, amps, **kw)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy(), self.dense_limit)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def _mask(self, qubit) -> int:
        return 1 << (self.num_qubits - 1 - qubit)

    def apply_gate(self, gate: Gate):
        u = gate.unitary()
        targets = gate.targets
        if any(t >= self.num_qubits for t in targets):
            raise QDepthError("gate target out of range")
        k = len(targets)
        n = self.num_qubits
        perm = list(targets) + [q for q in range(n) if q not in targets]
        psi = self.amplitudes.reshape([2] * n)
        psi = np.transpose(psi, perm)
        psi = psi.reshape(1 << k, -1)
        psi = u @ psi
        psi = psi.reshape([2] * n)
        inv = np.argsort(perm)
        self.amplitudes = np.transpose(psi, inv).reshape(-1)
        return self

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def remove_qubit(self, qubit, bit):
        """Drop a qubit known to be in the computational state |bit>."""
        n = self.num_qubits
        psi = self.amplitudes.reshape([2] * n)
        psi = np.take(psi, bit, axis=qubit)
        other = np.take(self.amplitudes.reshape([2] * n), 1 - bit, axis=qubit)
        if np.linalg.norm(other) > 1e-7:
            raise QDepthError("qubit is not in a definite computational state")
        self.num_qubits = n - 1
        self.amplitudes = psi.reshape(-1)
        return self

    def move_qubit(self, src, dst):
        """Reorder the register so qubit ``src`` sits at position ``dst``."""
        n = self.num_qubits
        order = [q for q in range(n) if q != src]
        order.insert(dst, src)
        psi = self.amplitudes.reshape([2] * n)
        self.amplitudes = np.transpose(psi, order).reshape(-1)
        return self

    def dump_json(self) -> str:
        amps = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return json.dumps({"n": self.num_qubits, "amps": amps})


class SparseState:
    """Statevector stored as a map basis-index -> amplitude."""

    def __init__(self, num_qubits, support=None, support_cap=SPARSE_SUPPORT_CAP):
        self.num_qubits = num_qubits
        self.support_cap = support_cap
        self.support = dict(support) if support is not None else {0: 1.0 + 0j}
        self._check_cap()

    def _check_cap(self):
        if len(self.support) > self.support_cap:
            raise CapacityError(
                f"sparse support {len(self.support)} exceeds cap {self.support_cap}"
            )

    @classmethod
    def from_bits(cls, bits, **kw):
        idx = 0
        for b in bits:
            idx = (idx << 1) | (b & 1)
        return cls(len(bits), {idx: 1.0 + 0j}, **kw)

    def copy(self) -> "SparseState":
        return SparseState(self.num_qubits, self.support, self.support_cap)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.support.values()))

    def _mask(self, qubit) -> int:
        return 1 << (self.num_qubits - 1 - qubit)

    def apply_gate(self, gate: Gate):
        u = gate.unitary()
        targets = gate.targets
        if any(t >= self.num_qubits for t in targets):
            raise QDepthError("gate target out of range")
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
        """One parallel layer of H gates, applied as a grouped transform.

        Equivalent to applying H to each qubit in turn, but one pass over the
        support instead of k doubling passes.
        """
        qubits = list(qubits)
        k = len(qubits)
        if k == 0:
            return self
        masks = [self._mask(q) for q in qubits]
        comb = 0
        for m in masks:
            comb |= m
        groups = {}
        for idx, a in self.support.items():
            sub = 0
            for j, m in enumerate(masks):
                if idx & m:
                    sub |= 1 << (k - 1 - j)
            groups.setdefault(idx & ~comb, {})[sub] = a
        hk = _hadamard_tensor(k)
        new = {}
        for base, subamps in groups.items():
            vec = np.zeros(1 << k, dtype=complex)
            for sub, a in subamps.items():
                vec[sub] = a
            vec = hk @ vec
            for sub in np.flatnonzero(np.abs(vec) > _PRUNE):
                sub = int(sub)
                idx = base
                for j, m in enumerate(masks):
                    if (sub >> (k - 1 - j)) & 1:
                        idx |= m
                new[idx] = vec[sub]
        self.support = new
        self._check_cap()
        return self

    def sample_index(self, rng) -> int:
        """Draw one basis index by the Born rule (a full measurement)."""
        items = list(self.support.items())
        probs = np.fromiter((abs(a) ** 2 for _, a in items), dtype=float,
                            count=len(items))
        probs = probs / probs.sum()
        return items[int(rng.choice(len(items), p=probs))][0]

    def to_dense(self, dense_limit=DENSE_LIMIT_DEFAULT) -> StateVector:
        if self.num_qubits > dense_limit:
            raise CapacityError("state too wide for dense conversion")
        amps = np.zeros(1 << self.num_qubits, dtype=complex)
        for k, a in self.support.items():
            amps[k] = a
        return StateVector(self.num_qubits, amps)


_HADAMARD_TENSORS = {}


def _hadamard_tensor(k) -> np.ndarray:
    hk = _HADAMARD_TENSORS.get(k)
    if hk is None:
        hk = np.array([[1.0]], dtype=complex)
        for _ in range(k):
            hk = np.kron(hk, H)
        _HADAMARD_TENSORS[k] = hk
    return hk


def apply_layer(state, layer):
    """Apply one gate layer (disjoint targets) to a dense or sparse state."""
    targs = layer_targets(layer)
    if len(set(targs)) != len(targs):
        raise QDepthError("overlapping targets within one layer")
    for g in layer:
        state.apply_gate(g)
    return state


def trial_rng(seed, trial):
    """Generator for trial ``trial`` of a run seeded with ``seed``.

    Randomness is always injected as a ``numpy.random.Generator``; per-trial
    streams are spawned from the run seed, so any one trial replays alone.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


def measure(state, qubits, basis="standard", rng=None):
    """Measure a subset of qubits; returns (bits, post-measurement state).

    ``hadamard`` basis applies H to each measured qubit first.  The state is
    collapsed and renormalized in place.
    """
    qubits = list(qubits)
    if state.num_qubits == 0 or not qubits:
        raise QDepthError("measurement needs a nonempty register")
    if rng is None:
        raise QDepthError("measurement requires an injected rng")
    if basis == "hadamard":
        for q in qubits:
            state.apply_gate(Gate("H", (q,)))
    elif basis != "standard":
        raise QDepthError(f"unknown measurement basis {basis!r}")

    masks = [state._mask(q) for q in qubits]
    if isinstance(state, SparseState):
        patterns = {}
        for idx, a in state.support.items():
            key = tuple((idx & m) != 0 for m in masks)
            patterns[key] = patterns.get(key, 0.0) + abs(a) ** 2
        keys = sorted(patterns)
        probs = np.array([patterns[k] for k in keys])
        probs = probs / probs.sum()
        choice = keys[rng.choice(len(keys), p=probs)]
        keep = {
            idx: a
            for idx, a in state.support.items()
            if tuple((idx & m) != 0 for m in masks) == choice
        }
        nrm = math.sqrt(sum(abs(a) ** 2 for a in keep.values()))
        state.support = {k: v / nrm for k, v in keep.items()}
        bits = tuple(int(b) for b in choice)
    else:
        probs = state.probabilities()
        dim = len(probs)
        idxs = np.arange(dim)
        bit_cols = [(idxs & m) != 0 for m in masks]
        outcome_ids = np.zeros(dim, dtype=np.int64)
        for col in bit_cols:
            outcome_ids = (outcome_ids << 1) | col
        totals = np.bincount(outcome_ids, weights=probs, minlength=1 << len(qubits))
        totals = totals / totals.sum()
        pick = rng.choice(len(totals), p=totals)
        sel = outcome_ids == pick
        amps = np.where(sel, state.amplitudes, 0.0)
        state.amplitudes = amps / np.linalg.norm(amps)
        bits = tuple((pick >> (len(qubits) - 1 - i)) & 1 for i in range(len(qubits)))
    return bits, state


def make_epr(m, dense_limit=DENSE_LIMIT_DEFAULT) -> StateVector:
    """m EPR pairs on 2m qubits, pairing qubit i with qubit i+m."""
    if 2 * m > dense_limit:
        raise CapacityError(f"{2 * m} qubits exceeds dense limit {dense_limit}")
    amps = np.zeros(1 << (2 * m), dtype=complex)
    scale = 2.0 ** (-m / 2.0)
    for k in range(1 << m):
        amps[(k << m) | k] = scale
    return StateVector(2 * m, amps, dense_limit)


def teleport(state, source_qubit, epr_pair, rng):
    """Teleport ``source_qubit`` through the EPR pair (sender, receiver).

    Returns ((a, b), state): the receiver qubit now holds X^a Z^b |psi> and
    the source and sender qubits have been measured out of the register.
    """
    qa, qb = epr_pair
    if len({source_qubit, qa, qb}) != 3:
        raise QDepthError("teleport qubit indices collide")
    state.apply_gate(Gate("CNOT", (source_qubit, qa)))
    state.apply_gate(Gate("H", (source_qubit,)))
    (b,), state = measure(state, [source_qubit], "standard", rng)
    (a,), state = measure(state, [qa], "standard", rng)
    hi, lo = max(source_qubit, qa), min(source_qubit, qa)
    state.remove_qubit(hi, a if hi == qa else b)
    state.remove_qubit(lo, a if lo == qa else b)
    return (a, b), state


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
        probs = np.array([max(self.weights[o], 0.0) for o in ops])
        probs = probs / probs.sum()
        return ops[rng.choice(len(ops), p=probs)]

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
    if n > 3:
        raise CapacityError("twirl uses dense process arithmetic; n must be <= 3")
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


def pauli_deviation(r: PauliDistribution) -> float:
    """Weight off the identity; 2*(1 - r_0) upper-bounds the diamond deviation."""
    return 1.0 - r.identity_weight()


def choi_matrix(apply_fn, n) -> np.ndarray:
    """Choi (process) matrix sum_ij |i><j| (x) Phi(|i><j|)."""
    dim = 1 << n
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            out[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = apply_fn(e)
    return out


def haar_unitary(dim, rng) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_cptp(n, rng, env_dim=4):
    """Random CPTP map on n qubits via a Haar isometry into an environment."""
    dim = 1 << n
    u = haar_unitary(dim * env_dim, rng)
    iso = u[:, :dim]
    return [iso[e * dim:(e + 1) * dim, :] for e in range(env_dim)]


def random_state(n, rng) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)
