"""Two-prover protocol for classically verifying quantum depth.

A classical verifier referees a target prover (A) and an oracle prover (O)
who share EPR pairs and cannot communicate.  Prover A runs the hidden-shift
query algorithm under an audited depth budget; prover O applies the oracle
between queries.  With probability alpha no check runs and the verifier
grades A's final answer; otherwise one random query is turned into an X test,
a Z test, or a rigidity test on A's basis measurements, all indistinguishable
from a computation round to the prover being checked.

The delegated circuit has two parts: the oracle unitary itself, applied as a
sparse permutation map in ``abstract`` fidelity mode, and a small stand-in
Clifford+T circuit whose teleportation gadgets generate the full message
traffic (measurement outcomes, z bits, key updates) of the delegation layer.
In ``gadget`` mode the stand-in circuit is the whole delegated computation.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ConfigError, DepthBudgetExceeded, ProtocolOrderError, QDepthError
from .gadgets import (
    RoundType, compile_ops, decrypt_state, encrypt_state, gadget_parity, update_keys,
)
from .hybrid import DQC, HybridSession, audited_depth
from .oracles import (
    CHAIN_WIDTH_LIMITS,
    InPlaceShufflingOracle,
    build_inplace,
    inplace_steps,
    sample_shuffling,
    sample_simon,
    shift_sample,
    solve_hidden_shift,
    standard_steps,
)
from .qsim import (
    GATE_MATRICES, H, I2, S, SDG, T, X, Z, Gate, PauliDistribution, PauliOp,
    SparseState, StateVector, born_cdf, born_draw, born_pick, embed_operator,
    fidelity, read_only, run_streams, states_equal_up_to_phase, trial_rng,
)
# unused here; kept because bench/tracer.py patches ``game.qsim_measure``
from .qsim import measure as qsim_measure  # noqa: F401

SIGMA = ("X", "Y", "Z", "F", "G")
# basis labels travel as int codes into SIGMA; F and G are the two top codes
X_ID, Y_ID, Z_ID, F_ID, G_ID = range(len(SIGMA))
_SIGMA_NAMES = np.array(SIGMA)     # codes -> names for transcript payloads

# Honest measurement of basis label L = apply ROT[L], then measure.  X, Y, Z
# are the straight Pauli observables; the F and G labels measure the
# conjugate observables (X-Y)/sqrt2 and -(X+Y)/sqrt2, the pair the T-gadget
# algebra certifies (a strategy and its conjugate are indistinguishable).
ROT = {
    "Z": I2,
    "X": H,
    "Y": H @ SDG,
    "G": H @ T,
    "F": H @ S @ T,
}

MSG_SETUP = "SetupSets"
MSG_BASIS = "BasisList"
MSG_TPC = "TeleportCorrections"
MSG_MEAS = "MeasureOutcomes"
MSG_TSUB = "TSubset"
MSG_GADGET = "GadgetOutcome"
MSG_ZBITS = "ZBits"
MSG_KEYS = "KeyReveal"
MSG_FINAL = "FinalAnswer"
MSG_VERDICT = "Verdict"


def collapse_vector(label, e) -> np.ndarray:
    """Partner state of an EPR half whose twin measured ``label`` -> e."""
    r = ROT[label]
    v = r.conj().T @ np.array([1 - e, e], dtype=complex)  # projector vector
    return v.conj() / np.linalg.norm(v)


def outcome_prob0(label_a, e, label_o) -> float:
    """P[prover O reads 0 measuring ``label_o`` on the collapsed partner]."""
    psi = collapse_vector(label_a, e)
    v = ROT[label_o] @ psi
    return float(abs(v[0]) ** 2)


def ideal_correlator(label_a, label_o) -> float:
    """Expected (+-1) product for a basis pair on an ideal EPR pair."""
    out = 0.0
    for e in (0, 1):
        for o in (0, 1):
            p_o = outcome_prob0(label_a, e, label_o)
            p = 0.5 * (p_o if o == 0 else 1.0 - p_o)
            out += p * (1 - 2 * e) * (1 - 2 * o)
    return out


# CHSH-style combination over the F/G labels against X/Y partners; the signs
# are the ideal correlator signs, so the honest value is 2*sqrt(2).
CHSH_PAIRS = [("G", "X"), ("G", "Y"), ("F", "X"), ("F", "Y")]
CHSH_SIGNS = [1.0 if ideal_correlator(a, o) > 0 else -1.0 for a, o in CHSH_PAIRS]
# ideal correlators of the matched-basis classes the rigidity test checks
MATCHED_CORRELATORS = {w: ideal_correlator(w, w) for w in ("X", "Y", "Z")}


def rigid_verdict(labels, requests, e_rep, outcomes) -> str:
    """Correlator-threshold rigidity decision.

    ``labels`` (A's bases) and ``requests`` (O's bases) are int codes into
    ``SIGMA``.  Accepts iff every matched-basis class (X,X), (Y,Y), (Z,Z)
    sits within ``RIGID_EXACT_TOL`` of its ideal EPR correlator and the
    pooled CHSH value over the F/G classes reaches ``RIGID_CHSH_MIN``
    (honest value 2*sqrt(2)).
    """
    k = len(SIGMA)
    cls = np.asarray(labels, dtype=np.int64) * k + np.asarray(requests)
    prods = (1 - 2 * np.asarray(e_rep)) * (1 - 2 * np.asarray(outcomes))
    counts = np.bincount(cls, minlength=k * k)
    # the products are +-1, so these sums are exact and sum/count is the mean
    sums = np.bincount(cls, weights=prods, minlength=k * k)
    for w, ideal in MATCHED_CORRELATORS.items():
        c = SIGMA.index(w) * (k + 1)        # the class (w, w)
        if counts[c] < RIGID_MIN_SAMPLES:
            continue
        if abs(sums[c] / counts[c] - ideal) > RIGID_EXACT_TOL:
            return "reject"
    s_val = 0.0
    for (wa, wo), sign in zip(CHSH_PAIRS, CHSH_SIGNS):
        c = SIGMA.index(wa) * k + SIGMA.index(wo)
        if counts[c] < RIGID_MIN_SAMPLES:
            return "reject"
        s_val += sign * float(sums[c] / counts[c])
    if s_val < RIGID_CHSH_MIN:
        return "reject"
    return "accept"


def choose_alpha(q, p, c) -> float:
    """Weight of the no-test branch: alpha = 1 / (1 + 2 q c / p)."""
    if q < 1 or not (0 < p < 0.5) or c <= 0:
        raise QDepthError("need q >= 1, p in (0, 1/2), c > 0")
    return 1.0 / (1.0 + 2.0 * q * c / p)


def wilson_interval(successes, trials):
    """Wilson score 95% interval for a binomial proportion."""
    z = 1.96  # the two-sided 95% normal quantile
    if trials == 0:
        return 0.0, 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return phat, max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# A game's fixed settings.  Once a test runs, each of the X and Z tests has
# chance P_TEST (p of the paper) and the rigidity test the rest, 1 - 2p.
P_TEST = 1.0 / 3.0
# free constant in alpha = 1/(1 + 2qc/p); 1/2 keeps the no-test branch heavy
# enough that answer-only cheats sit well below honest acceptance
ALPHA_C = 0.5
# a matched-basis rigidity class may sit RIGID_EXACT_TOL from its ideal
# correlator and counts from RIGID_MIN_SAMPLES samples on; the pooled CHSH
# value must reach RIGID_CHSH_MIN
RIGID_EXACT_TOL = 0.25
RIGID_CHSH_MIN = 1.8
RIGID_MIN_SAMPLES = 4
# the stand-in circuit: d identical layers, each this compiled op list, on
# STANDIN_WIRES wires that start in STANDIN_INPUT (|00>).  The layout, the
# round engine and the reference state all read the stand-in from here.
STANDIN_WIRES = 2
STANDIN_LAYER = tuple(compile_ops([("CNOT", 0, 1), ("T", 0)]))
STANDIN_INPUT = read_only(StateVector.from_bits([0] * STANDIN_WIRES).amplitudes)
# smallest layer block, and smallest measured pool per query: the floor keeps
# the rigidity correlator classes populated even for tiny gadget-mode games
BLOCK_MARGIN = 20
RIGID_POOL_FLOOR = 240
# draws of the basis labels before a query's partition is given up
PARTITION_TRIES = 1000


class _FilledAlpha(float):
    """An alpha that ``ProtocolConfig`` filled in, not one a caller set."""


class _FilledInt(int):
    """A t_parallel that ``ProtocolConfig`` filled in, not one a caller set."""


@dataclass(frozen=True)
class ProtocolConfig:
    """The settable values of a game; the fixed ones are the constants above.
    Every field except ``alpha`` is a ``game-run`` flag, and a ``--config``
    file may set any field.

    A config is checked when it is built: ``ConfigError`` names every value
    the game cannot run with.  An unset ``alpha`` or ``t_parallel`` is then
    filled in, so a built config is complete and never changes."""

    n: int = 3
    d: int = 2
    q: int = 3
    alpha: float | None = None
    t_parallel: int | None = None
    trials: int = 100
    seed: int = 0
    oracle_mode: str = "exact"
    fidelity: str = "abstract"
    target: str = "inplace"          # or "standard": oracle access model

    def __post_init__(self):
        violations = []
        if self.alpha is not None and not (0 < self.alpha < 1):
            violations.append(f"alpha={self.alpha} outside (0, 1)")
        for name, low in (("q", 1), ("n", 2), ("d", 1), ("t_parallel", 1), ("trials", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                violations.append(f"{name} must be >= {low}")
        if self.oracle_mode not in ("exact", "prp"):
            violations.append(f"unknown oracle mode {self.oracle_mode!r}")
        if self.fidelity not in ("abstract", "gadget"):
            violations.append(f"unknown fidelity mode {self.fidelity!r}")
        if self.target not in ("inplace", "standard"):
            violations.append(f"unknown target {self.target!r}")
        if self.fidelity == "abstract" and self.q > query_count(self):
            # query k applies step k of the solver's schedule
            violations.append(f"q={self.q} above the {query_count(self)} oracle "
                              f"queries of {self.target} access at d={self.d}")
        if self.fidelity == "abstract" and self.oracle_mode in CHAIN_WIDTH_LIMITS:
            # the oracle's shuffling chain runs over (d+2)n bits
            cap = CHAIN_WIDTH_LIMITS[self.oracle_mode]
            if (self.d + 2) * self.n > cap:
                violations.append(f"(d+2)n = {(self.d + 2) * self.n} bits above the "
                                  f"{cap}-bit {self.oracle_mode} oracle chain limit")
        if violations:
            raise ConfigError(violations)
        # dataclasses.replace passes every field on, a filled-in value too;
        # its type tells this config to fill it in again from its own q or n
        if self.alpha is None or type(self.alpha) is _FilledAlpha:
            object.__setattr__(self, "alpha",
                               _FilledAlpha(choose_alpha(self.q, P_TEST, ALPHA_C)))
        if self.t_parallel is None or type(self.t_parallel) is _FilledInt:
            # the shift-recovery failure rate is about (2^(n-1)-1)(3/4)^t,
            # so two dozen parallel instances keep it under 1% at any n
            object.__setattr__(self, "t_parallel", _FilledInt(max(24, 6 * self.n)))

    def resolved(self) -> "ProtocolConfig":
        """``self``, since a built config is already complete; kept for
        callers that still resolve a config before they run it."""
        return self

    def to_json(self):
        out = dict(vars(self), alpha=float(self.alpha), t_parallel=int(self.t_parallel))
        # the fixed settings, at the values the game runs with: every report
        # and transcript records them
        out.update(p=P_TEST, m=game_layout(self).pool_need,
                   standin_wires=STANDIN_WIRES, width_factor=self.d + 2)
        return out


def query_count(cfg: ProtocolConfig) -> int:
    """Oracle queries of the hidden-shift schedule: d+1 in-place, 2d+1 standard."""
    return cfg.d + 1 if cfg.target == "inplace" else 2 * cfg.d + 1


@functools.cache
def _gate(name, wires) -> Gate:
    """The ``Gate`` of ``name`` on the stand-in ``wires``, built once per pair."""
    return Gate(name, wires)


def expected_standin_state(cfg: ProtocolConfig) -> StateVector:
    """q honest applications of the stand-in circuit's d layers to its input:
    each ``cnot`` and ``t`` of ``STANDIN_LAYER`` as its gate."""
    sv = StateVector(STANDIN_WIRES, STANDIN_INPUT)
    for _ in range(cfg.q * cfg.d):
        for op in STANDIN_LAYER:
            if op[0] == "cnot":
                sv.apply_gate(_gate("CNOT", op[1:]))
            elif op[0] == "t":
                sv.apply_gate(_gate("T", op[1:2]))
            else:
                raise QDepthError(f"the reference state runs no stand-in op {op[0]!r}")
    return sv


# by label code (X, Y, Z, F, G), the group the feasibility check counts it
# in: 0 for Z, 1 for X/Y and 2 for F/G, the order of ``GameLayout.block_need``
_LABEL_GROUP = np.array([1, 1, 0, 2, 2])
# by T-gadget parity, the label group its ancilla comes from: Z for even,
# X/Y for odd gadgets, F/G in computation rounds
_PARITY_GROUP = {"even": 0, "odd": 1, "computation": 2}
# the ancilla bases a gadget of each parity may consume, as masks over codes
_ANCILLA_BASES = {parity: _LABEL_GROUP == group for parity, group in _PARITY_GROUP.items()}


class GameLayout:
    """Wire and EPR-pool geometry derived from a config."""

    def __init__(self, cfg: ProtocolConfig):
        n, d = cfg.n, cfg.d
        # the (d+2)n-bit enlarged domain of the shuffling oracle
        self.big_width = (d + 2) * n
        if cfg.target == "inplace":
            self.inst_width = n + self.big_width + 1
        else:
            self.inst_width = n + d * self.big_width + n
        if cfg.fidelity == "abstract":
            self.n_tot = cfg.t_parallel * self.inst_width + STANDIN_WIRES
        else:
            self.n_tot = STANDIN_WIRES
        # the amplitudes q honest applications of the stand-in leave, which
        # the gadget-fidelity final check compares against
        self.expected_standin = expected_standin_state(cfg).amplitudes
        # by label group, the most ancillas a round type's gadgets take from
        # it in one stand-in layer
        gadgets = [op for op in STANDIN_LAYER if op[0] == "t"]
        layer_need = [max(sum(_PARITY_GROUP[gadget_parity(rt, op[2])] == group
                              for op in gadgets) for rt in RoundType)
                      for group in range(len(_PARITY_GROUP))]
        self.block_size = max(5 * sum(layer_need), BLOCK_MARGIN)
        self.m_size = max(6 * self.n_tot + cfg.d * self.block_size, RIGID_POOL_FLOOR)
        # EPR ids per query (data, return, pool) and per trial
        self.query_need = 2 * self.n_tot + self.m_size
        self.pool_need = cfg.q * self.query_need
        # the d layer blocks of a partition: the pool less the two test sets,
        # cut where np.array_split cuts it
        size, extra = divmod(self.m_size - 2 * self.n_tot, d)
        ends = list(accumulate((size + (i < extra) for i in range(d)), initial=0))
        self.block_bounds = list(zip(ends, ends[1:]))
        # the feasibility check counts (block, label group) codes: each block
        # position's code base, and the count each code needs
        self.block_code_base = np.repeat(np.arange(0, 3 * d, 3), np.diff(ends))
        self.block_need = tuple(layer_need) * d


# the config fields GameLayout reads
_LAYOUT_FIELDS = ("n", "d", "q", "t_parallel", "target", "fidelity")
_LAYOUTS = {}


def game_layout(cfg: ProtocolConfig) -> GameLayout:
    """The layout of ``cfg``, built once per distinct value of the fields it
    reads, so configs that differ only in alpha, trials or seed share it."""
    key = tuple(getattr(cfg, name) for name in _LAYOUT_FIELDS)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = GameLayout(cfg)
    return layout


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


def _payload_json(value):
    """``json.dumps`` hook: a numpy payload value is written as the list or
    scalar its ``tolist`` gives."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


@dataclass
class Transcript:
    """The messages of one protocol run, in order.

    Payload values may be numpy arrays, kept as the engine made them and
    marked read-only as they are logged, so no later write can change what
    was sent.  ``to_json`` is the wire format: it writes arrays as lists.
    """

    config: dict
    seed: int
    messages: list = field(default_factory=list)
    verdict: str | None = None
    depth_audit: dict = field(default_factory=dict)

    def log(self, step, frm, to, kind, payload=None):
        payload = payload if payload is not None else {}
        for value in payload.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.messages.append(
            {"step": step, "from": frm, "to": to, "kind": kind, "payload": payload}
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "seed": self.seed,
                "messages": self.messages,
                "verdict": self.verdict,
                "depth_audit": self.depth_audit,
            },
            sort_keys=True,
            default=_payload_json,
        )


# ---------------------------------------------------------------------------
# Partition drawing
# ---------------------------------------------------------------------------


@dataclass
class SetupPartition:
    """Per-query EPR allocation: data in, return, measured pool with bases."""

    data_block: np.ndarray
    return_block: np.ndarray
    pool: np.ndarray
    w_labels: np.ndarray            # index into SIGMA, aligned with pool
    n_x: np.ndarray                 # pool positions reserved for the X test
    n_z: np.ndarray
    blocks: list                    # pool positions per layer block


def draw_epr_order(layout: GameLayout, rounds, rng):
    """The EPR ids of a trial's first ``rounds`` queries, in one secret
    uniform order: a uniform ordered sample of ``rounds * query_need`` of the
    ids ``[0, pool_need)``.  Query k takes the k-th run of ``query_need`` of
    them, so each query's ids are distributed as a fresh uniform sample from
    the ids the earlier queries left."""
    return rng.choice(layout.pool_need, size=rounds * layout.query_need, replace=False)


def draw_partition(layout: GameLayout, free_indices, rng):
    """Sample one query's allocation from the unused ids ``free_indices``,
    which the caller keeps in a secret uniform order (``draw_epr_order``):
    the first ``query_need`` of them are the data block, the return block
    and the pool, in that order, and the rest come back as a view, for the
    next query.  The basis labels W are resampled until every block supports
    every round type (the feasibility predicate is round-independent, so
    conditioning preserves blindness).  Returns (partition, rest)."""
    need, n_tot = layout.query_need, layout.n_tot
    if len(free_indices) < need:
        raise QDepthError("EPR pool exhausted")
    data_block = free_indices[:n_tot]
    return_block = free_indices[n_tot:2 * n_tot]
    pool = free_indices[2 * n_tot:need]

    for _ in range(PARTITION_TRIES):
        w = rng.integers(0, len(SIGMA), size=len(pool))
        z_pos = (w == Z_ID).nonzero()[0]
        x_pos = (w == X_ID).nonzero()[0]
        if len(z_pos) < n_tot or len(x_pos) < n_tot:
            continue
        n_x = z_pos[rng.choice(len(z_pos), size=n_tot, replace=False)]
        n_z = x_pos[rng.choice(len(x_pos), size=n_tot, replace=False)]
        free = np.ones(len(pool), dtype=bool)
        free[n_x] = free[n_z] = False
        rest = free.nonzero()[0]
        rest = rest[rng.permutation(len(rest))]
        counts = np.bincount(layout.block_code_base + _LABEL_GROUP[w[rest]],
                             minlength=len(layout.block_need))
        if (counts >= layout.block_need).all():
            part = SetupPartition(
                data_block=data_block, return_block=return_block, pool=pool,
                w_labels=w, n_x=n_x, n_z=n_z,
                blocks=[rest[a:b] for a, b in layout.block_bounds],
            )
            return part, free_indices[need:]
    raise QDepthError("could not draw a feasible partition")

# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------

# P[O reads 0], indexed by the code of A's observable, A's outcome and the
# code of O's observable
_P0_TABLE = np.array([[[outcome_prob0(wa, e, wo) for wo in SIGMA] for e in (0, 1)]
                      for wa in SIGMA])
# The partner state of an EPR half, coded 2*label + e by the code of A's
# observable and A's outcome: a gadget's ancilla, and what a test round's wires
# hold.  The tables push this family through the qsim gates a computation
# round applies to its stand-in; two wires' product is coded 10*hi + lo, an
# image off the family -1.
_FAMILY = np.array([collapse_vector(w, e) for w in SIGMA for e in (0, 1)])
_PAIRS = np.einsum("ai,bj->abij", _FAMILY, _FAMILY).reshape(-1, 4)


def _codes_of(vecs, family):
    """Per row of ``vecs``: the code of the family member it is a multiple of, or -1."""
    norms = np.linalg.norm(vecs, axis=1)[:, None]
    hit = (abs(vecs @ family.conj().T) > (1 - 1e-9) * norms) & (norms > 1e-9)
    return np.where(hit.any(1), hit.argmax(1), -1)


_GATE_CODES = {name: _codes_of(fam @ GATE_MATRICES[name].T, fam)
               for name, fam in (("X", _FAMILY), ("Z", _FAMILY),
                                 ("SDG", _FAMILY), ("CNOT", _PAIRS))}
# a gadget's first half: CNOT from O's ancilla (control) onto the wire, then
# the wire read as c, the ancilla left in the wire's place.  By [ancilla code,
# c], the 2x2 Kraus operator this applies to the wire (unnormalised: its
# squared norm on a state is P[c]); both round kinds run the gadget through it
_GADGET_KRAUS = np.einsum("xcaw,ka->kcxw",
                          GATE_MATRICES["CNOT"].reshape(2, 2, 2, 2), _FAMILY)
# on the family: by [wire code, ancilla code], P[c = 1] and, by c, the code
# the ancilla is left in (-1 where c cannot occur)
_GADGET_OUT = np.einsum("acxw,kw->kacx", _GADGET_KRAUS, _FAMILY)
_GADGET_P1 = np.round(np.sum(abs(_GADGET_OUT[:, :, 1]) ** 2, axis=-1), 9)
_GADGET_AFTER = _codes_of(_GADGET_OUT.reshape(-1, 2), _FAMILY).reshape(10, 10, 2)
# P[1] of a wire read in a basis, by [wire code, basis label code]
_READ_P1 = np.round(1 - _P0_TABLE.reshape(-1, len(SIGMA)), 9)


# -- the T-gadget kernel ----------------------------------------------------
# A gadget's ancilla is coded 2*label + e: O's EPR half, collapsed by A's
# outcome e in the basis ``label``.  ``GameRun.run_round`` runs each gadget of
# a layer through a first half, then through ``gadget_second_half``;
# ``t_gadget_exhaustion`` runs the same functions on every branch.


@functools.cache
def _gadget_operator(n, wire, ancilla) -> np.ndarray:
    """Both Kraus branches of a gadget first half on ``wire`` of an n-qubit
    stand-in, its ancilla of code ``ancilla``: a (2, 2^n, 2^n) register
    operator by c, built once and shared, so read-only."""
    return read_only(np.array([embed_operator(k, (wire,), n)
                               for k in _GADGET_KRAUS[ancilla]]))


def gadget_first_half(sv: StateVector, wire, ancilla, rng) -> int:
    """A computation round's gadget first half on the live stand-in ``sv``:
    CNOT from the ancilla onto ``wire``, the wire read as c, the ancilla left
    in its place.  One product with the cached operator of both Kraus
    branches gives each branch and its P[c]; c is drawn by the Born rule
    through ``born_pick``, and ``sv`` moves to that branch, normalised, on a
    new array.  Returns c."""
    branches = _gadget_operator(sv.num_qubits, wire, ancilla) @ sv.amplitudes
    probs = (abs(branches) ** 2).sum(axis=1)
    c = born_pick(rng, probs)
    sv.amplitudes = branches[c] / math.sqrt(probs[c])
    return c


def gadget_first_half_codes(codes, wire, ancilla, rng) -> int:
    """A test round's gadget first half on the wire codes ``codes``, looked
    up in the tables derived from the same Kraus operators: c is drawn only
    where it is a fair coin.  Returns c."""
    w = codes[wire]
    p1 = _GADGET_P1[w, ancilla]   # on the family always 0, 1/2 or 1
    c = int(rng.integers(2)) if p1 == 0.5 else int(p1)
    codes[wire] = int(_GADGET_AFTER[w, ancilla, c])
    return c


def gadget_second_half(apply_gate, keys, wire, label, c, e, parity, rng) -> int:
    """A gadget's second half once its first half read c: the verifier's z
    bit, the prover's correction and the key update.  ``keys`` holds the
    stand-in's [a, b] rows, ``label`` and ``e`` are the ancilla's basis code
    and A's reported outcome, and ``apply_gate(name, wires)`` runs a gate on
    the stand-in.  Returns z.

    z is a + [label is F] + c mod 2 in a computation round, with a the
    wire's X key before the gadget; a fair coin for an even gadget and
    [label is Y] for an odd one.  The correction is S^-1 where z is set."""
    if parity == "computation":
        z = (keys[wire][0] + int(label == F_ID) + c) % 2
    elif parity == "even":
        z = int(rng.integers(2))
    else:
        z = int(label == Y_ID)
    if z:
        apply_gate("SDG", (wire,))
    update_keys("T", keys, {"wire": wire, "c": c, "e": e, "z": z, "parity": parity})
    return z


def apply_code_gate(codes, name, wires):
    """Gate ``name`` on the test-round wires ``wires`` of ``codes``, through
    the gate's code map."""
    index = 0
    for w in wires:
        index = 10 * index + codes[w]
    code = int(_GATE_CODES[name][index])
    if code < 0:
        raise QDepthError(f"{name} takes test-round wires {wires} off the family")
    for w in reversed(wires):
        code, codes[w] = divmod(code, 10)


class _ForcedDraw:
    """Stands in for the generator on one branch of the kernel, which draws
    at most once: ``integers(2)``, or a Born draw of c through ``random()``,
    comes out ``bit`` wherever that outcome can occur."""

    def __init__(self, bit):
        self.bit = bit

    def integers(self, high):
        return self.bit

    def random(self):
        # a Born draw picks c = 0 below P[c = 0], c = 1 at or above it
        return 0.0 if self.bit == 0 else math.nextafter(1.0, 0.0)


def t_gadget_exhaustion(psis):
    """Every branch of the referee's T-gadget kernel, against the key table.

    Computation rows run each one-wire state of ``psis`` under every pad
    X^a Z^b through ``gadget_first_half`` and ``gadget_second_half``, for
    both F/G ancilla labels, both outcomes e and both c: the stand-in must
    end as X^a' Z^b' T|psi> under the updated keys [a', b'].  X-test even
    rows start the wire at |a> with a Z ancilla and both z coins, Z-test odd
    rows at Z^b|+> with an X or a Y ancilla; both run
    ``gadget_first_half_codes`` and the same second half, and the wire must
    end as |a'> or Z^b'|+>.

    Returns (computation branches per state, X-test branches, Z-test
    branches, least fidelity to the wanted state).
    """
    def pad(a, b):
        return np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)

    def test_row(parity, code, label, a, b, e, c, draw):
        """One test-round branch from wire code ``code``: None where c
        cannot occur, else the wire's end state and its keys."""
        codes, keys = [code], [[a, b]]
        if gadget_first_half_codes(codes, 0, 2 * label + e, draw) != c:
            return None
        gadget_second_half(lambda name, wires: apply_code_gate(codes, name, wires),
                           keys, 0, label, c, e, parity, draw)
        return _FAMILY[codes[0]], keys[0]

    worst = 1.0
    comp = []
    for psi in psis:
        count = 0
        for a, b, v, e, c in itertools.product((0, 1), repeat=5):
            sv = StateVector(1, pad(a, b) @ psi)
            keys, label = [[a, b]], (F_ID, G_ID)[v]
            if gadget_first_half(sv, 0, 2 * label + e, _ForcedDraw(c)) != c:
                continue
            gadget_second_half(lambda name, wires: sv.apply_gate(_gate(name, wires)),
                               keys, 0, label, c, e, "computation", None)
            count += 1
            worst = min(worst, fidelity(sv.amplitudes, pad(*keys[0]) @ T @ psi))
        comp.append(count)
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    n_x = n_z = 0
    for a, b, v, e, c in itertools.product((0, 1), repeat=5):
        # an even gadget's one draw is its z coin v; an odd gadget draws c,
        # and v picks its X or Y ancilla
        got = test_row("even", 2 * Z_ID + a, Z_ID, a, b, e, c, _ForcedDraw(v))
        if got is not None:
            n_x += 1
            out, (a2, _) = got
            worst = min(worst, fidelity(out, np.eye(2)[a2]))
        got = test_row("odd", 2 * X_ID + b, (X_ID, Y_ID)[v], a, b, e, c, _ForcedDraw(c))
        if got is not None:
            n_z += 1
            out, (_, b2) = got
            worst = min(worst, fidelity(out, pad(0, b2) @ plus))
    return comp, n_x, n_z, worst


def _full_measurement_table(state: SparseState):
    """The outcomes of measuring every qubit of ``state``, in the sorted
    order ``qsim.measure`` draws them from, and their ``born_cdf``."""
    outcomes = sorted(state.support)
    # Python's abs(a) ** 2, not np.abs(...) ** 2: the two differ in the last
    # bit for some amplitudes, which would move seeded draws
    probs = np.array([abs(state.support[o]) ** 2 for o in outcomes])
    return outcomes, born_cdf(probs / probs.sum())


def rigid_exchange(labels, act_label, e_act, measured, rng):
    """The verifier's requests to O in a rigidity round, and O's outcomes.

    ``labels`` and ``act_label`` are int codes into ``SIGMA``.  Requests
    repeat the X, Y, Z labels and draw X or Y for each F/G label, in pool
    order; O then measures its EPR half, collapsed by A's outcome ``e_act``
    in the observable ``act_label`` A really used, or reads fair coins when A
    never measured.  Returns (requests, outcomes), requests as int codes.
    """
    requests = np.array(labels, dtype=np.int64)
    fg = requests >= F_ID
    requests[fg] = rng.integers(2, size=int(fg.sum()))   # 0 -> X, 1 -> Y
    p0 = _P0_TABLE[act_label, e_act, requests] if measured else 0.5
    outcomes = (rng.random(len(requests)) >= p0).astype(np.int64)
    return requests, outcomes


class ProverA:
    """Target prover: runs the query algorithm under a depth budget.

    The honest schedule charges one layer for the opening Hadamard wall, one
    per query (the Bell measurements of the teleport and the pool basis
    rotations act on disjoint qubits, hence a single depth), and one for the
    closing Hadamard wall: q + 2 layers in total.  In abstract fidelity both
    walls run on the instances through ``HybridSession.layer``; the query
    layers, and the opening layer in gadget fidelity, are declared through
    ``charge_layers``, since the lab does not simulate them.  When a charge
    would exceed the declared budget the prover resets: it abandons coherence
    and fabricates every later quantum outcome classically.  ``query_round``
    charges a query's layer before it touches the pool, so the pool is
    measured only once that layer is paid: a prover that runs out of depth
    in a round fabricates that round's pool outcomes too.

    The ``t_parallel`` instances receive the same walls and oracle steps, so
    ``instances`` lists one shared ``SparseState`` t times, and each wall or
    oracle step runs once per distinct state.  Only a planted attack sets
    instance 0 apart: ``GameRun._apply_attack`` gives it its own copy on the
    first write.  The final measurement draws each instance, in order, from
    its state's outcome table, built once per distinct state; afterwards
    ``instances`` holds the t post-measurement basis states.
    """

    def __init__(self, budget=None, lie_outcomes=False, random_answer=False,
                 swap_half_z=False):
        self.declared_budget = budget
        self.lie_outcomes = lie_outcomes
        self.random_answer = random_answer
        self.swap_half_z = swap_half_z

    def begin(self, cfg, layout, rng):
        budget = self.declared_budget
        if budget is None:
            budget = cfg.q + 2
        self.session = HybridSession(DQC, budget, rng)
        self.fabricating = False
        self.cfg, self.layout = cfg, layout
        self.instances = None
        self.standin = None
        if cfg.fidelity == "abstract":
            state = SparseState.from_bits([0] * layout.inst_width)
            ready = self._charge("prepare", [state],
                                 lambda st: st.apply_hadamard_wall(range(cfg.n)))
            if ready:
                self.instances = [state] * cfg.t_parallel
        else:
            ready = self._charge("prepare: gadget fidelity simulates no instances")
        if ready:
            self.standin = StateVector(STANDIN_WIRES, STANDIN_INPUT)

    def _charge(self, note, states=None, op=None) -> bool:
        """Spend one layer of the budget; False once the prover fabricates.

        With ``op`` the layer runs on ``states`` through
        ``HybridSession.layer``; without, it is declared through
        ``charge_layers`` and ``note`` says why it is not simulated.  Only an
        exceeded budget turns the prover to fabrication: any other error is
        a lab bug and reaches the caller.
        """
        if self.fabricating:
            return False
        try:
            if op is None:
                self.session.charge_layers(1, note)
            else:
                self.session.layer(states, op, note)
            return True
        except DepthBudgetExceeded:
            self.fabricating = True
            return False

    def query_round(self, labels, rng):
        """Pay a query's layer, then measure the pool and teleport.

        ``labels`` are the requested bases as int codes into ``SIGMA``.
        Returns (coherent, reported, actual, actual_label, a_bits, b_bits).
        ``coherent`` says the layer was paid; without it the pool outcomes
        are fabricated and ``actual`` and ``actual_label`` (the observables
        really used, as codes: basis cheats) are None.
        """
        coherent = self._charge("query_round: pool rotations and Bell "
                                "measurements drawn as coins")
        # the pool outcomes and both teleport corrections, in one bit draw
        k, n_tot = len(labels), self.layout.n_tot
        bits = rng.integers(0, 2, size=k + 2 * n_tot)
        pool, a_bits, b_bits = bits[:k], bits[k:k + n_tot], bits[k + n_tot:]
        if coherent:
            actual = pool
            actual_label = np.array(labels)
            if self.swap_half_z:
                actual_label[np.flatnonzero(actual_label == Z_ID)[::2]] = X_ID
            reported = (1 - actual) if self.lie_outcomes else actual.copy()
        else:
            reported, actual, actual_label = pool, None, None
        return coherent, reported, actual, actual_label, a_bits, b_bits

    def final_answer(self, rng):
        cfg = self.cfg
        total = self.layout.inst_width
        inplace = cfg.target == "inplace"
        # the solver's h_out: the input register, plus the flag in-place
        wall = list(range(cfg.n)) + ([total - 1] if inplace else [])
        if self.random_answer:
            # declared rather than run: the seeded digests of A's final
            # supports record this strategy's instances without the wall
            self._charge("final_hadamard: the random answer never measures "
                         "its instances")
        elif self.instances is not None and self._charge(
                "final_hadamard", list({id(st): st for st in self.instances}.values()),
                lambda st: st.apply_hadamard_wall(wall)):
            # one outcome table per distinct state, then one draw per
            # instance in instance order: the draws and collapses
            # qsim.measure of each instance's own copy would make
            tables, collapsed, samples = {}, [], []
            for st in self.instances:
                if id(st) not in tables:
                    tables[id(st)] = _full_measurement_table(st)
                outcomes, cdf = tables[id(st)]
                pick = outcomes[born_draw(rng, cdf)]
                a = st.support[pick]
                collapsed.append(SparseState(total, {pick: a / math.sqrt(abs(a) ** 2)}))
                bits = [(pick >> (total - 1 - i)) & 1 for i in range(total)]
                samples.append(shift_sample(bits, cfg.n, inplace))
            self.instances = collapsed
            s_hat = solve_hidden_shift([y for y in samples if y is not None], cfg.n)
            if s_hat is not None:
                return s_hat
        return int(rng.integers(0, 1 << cfg.n))

    def finish_trace(self):
        return self.session.finish()


class ProverO:
    """Oracle prover: applies the oracle between queries and runs gadgets.

    ``attack`` is None or a ``PauliOp`` X^x Z^z that O plants on the first
    ``attack.width`` wires of the register after each round's gadgets: on
    instance 0 in a computation round, on the test wires in a test round.
    """

    def __init__(self, skip_oracle=False, attack: PauliOp | None = None):
        self.skip_oracle = skip_oracle
        self.attack = attack


STRATEGIES_A = {
    "honest": lambda cfg: ProverA(),
    "lying": lambda cfg: ProverA(lie_outcomes=True),
    "classical": lambda cfg: ProverA(budget=0),
    "reset": lambda cfg: ProverA(budget=cfg.d),
    "random-answer": lambda cfg: ProverA(random_answer=True),
    "basis-swap": lambda cfg: ProverA(swap_half_z=True),
}

STRATEGIES_O = {
    "honest": lambda cfg: ProverO(),
    "skip-oracle": lambda cfg: ProverO(skip_oracle=True),
    "pauli-x": lambda cfg: ProverO(attack=PauliOp(1, 1, 0)),
    "pauli-z": lambda cfg: ProverO(attack=PauliOp(1, 0, 1)),
}


# ---------------------------------------------------------------------------
# Game engine
# ---------------------------------------------------------------------------


# the round kinds ``GameRun.play_round`` plays through ``run_round``
_ROUND_KINDS = {"comp": RoundType.COMPUTATION, "xtest": RoundType.XTEST,
                "ztest": RoundType.ZTEST}


@dataclass
class _Round:
    """One query round: its partition, what prover A did with it, and the
    physical contents of prover O's side while it runs."""

    part: SetupPartition
    free: np.ndarray                        # the trial's EPR ids after this round's
    coherent: bool                          # A paid the layer and measured its pool
    e_rep: np.ndarray                       # A's reported pool outcomes
    e_act: np.ndarray                       # outcomes O's halves collapsed to
    act_label: np.ndarray                   # observables A really measured, as codes
    a_rep: np.ndarray                       # A's teleport corrections
    b_rep: np.ndarray
    codes: list | None = None               # test round: each wire's code
    standin_sv: StateVector | None = None   # computation round: live stand-in


class GameRun:
    def __init__(self, cfg: ProtocolConfig, prover_a: ProverA, prover_o: ProverO,
                 oracle, rng):
        self.cfg = cfg
        self.layout = game_layout(cfg)
        self.a = prover_a
        self.o = prover_o
        self.oracle = oracle
        self.rng = rng
        self.transcript = Transcript(config=cfg.to_json(), seed=cfg.seed)
        self._step = 0
        # the solver's schedule: step 0 is its opening H wall, step k <= q
        # the map of query k, the last step its closing H wall
        self.steps = None
        if cfg.fidelity == "abstract":
            schedule = inplace_steps if cfg.target == "inplace" else standard_steps
            self.steps, _ = schedule(oracle)

    def log(self, frm, to, kind, payload=None):
        self._step += 1
        self.transcript.log(self._step, frm, to, kind, payload)

    def play_round(self, query_idx, kind, free):
        """Play query ``query_idx`` as a round of ``kind``: "comp", "xtest",
        "ztest" or "rigid".  Returns (verdict, free); a computation round's
        verdict is None."""
        if kind == "rigid":
            return self.run_rigid(query_idx, free)
        if kind not in _ROUND_KINDS:
            raise QDepthError(f"unknown round kind {kind!r}")
        return self.run_round(query_idx, _ROUND_KINDS[kind], free)

    # -- shared per-round setup ----------------------------------------------

    def _round_setup(self, query_idx, free) -> _Round:
        part, free = draw_partition(self.layout, free, self.rng)
        self.log("V", "A", MSG_SETUP, {
            "query": query_idx,
            "data": part.data_block,
            "ret": part.return_block,
            "pool": part.pool,
        })
        labels = part.w_labels
        self.log("V", "A", MSG_BASIS, {"labels": _SIGMA_NAMES[labels]})
        coherent, e_rep, e_act, act_label, a_rep, b_rep = self.a.query_round(
            labels, self.rng)
        self.log("A", "V", MSG_TPC, {"a": a_rep, "b": b_rep})
        self.log("A", "V", MSG_MEAS, {"e": e_rep})
        if not coherent:
            # A measured no pool half, so each of O's halves reads as a fair coin
            e_act = self.rng.integers(0, 2, size=len(labels))
            act_label = labels
        return _Round(part, free, coherent, e_rep, e_act, act_label, a_rep, b_rep)

    # -- rigidity round -------------------------------------------------------

    def run_rigid(self, query_idx, free):
        rnd = self._round_setup(query_idx, free)
        labels = rnd.part.w_labels
        requests, outcomes = rigid_exchange(labels, rnd.act_label, rnd.e_act,
                                            rnd.coherent, self.rng)
        self.log("V", "O", MSG_BASIS, {"labels": _SIGMA_NAMES[requests]})
        self.log("O", "V", MSG_MEAS, {"o": outcomes})
        verdict = rigid_verdict(labels, requests, rnd.e_rep, outcomes)
        return verdict, rnd.free

    # -- computation / X-test / Z-test round ----------------------------------

    def run_round(self, query_idx, round_type, free):
        layout, rng = self.layout, self.rng
        rnd = self._round_setup(query_idx, free)
        part, labels = rnd.part, rnd.part.w_labels
        comp = round_type == RoundType.COMPUTATION
        x_test = round_type == RoundType.XTEST

        si_base = layout.n_tot - STANDIN_WIRES
        # every wire's keys, as (a, b) rows; only the stand-in wires' keys
        # change during the round, so only they go through the key updates,
        # as Python lists (cheaper to update one at a time than numpy rows)
        keys = np.zeros((layout.n_tot, 2), dtype=np.int64)
        if comp:
            keys[:, 0], keys[:, 1] = rnd.a_rep, rnd.b_rep
            si_keys = keys[si_base:].tolist()
            if rnd.coherent:
                rnd.standin_sv = encrypt_state(self.a.standin, si_keys)
            else:
                rnd.standin_sv = StateVector.from_bits(list(rng.integers(0, 2, size=STANDIN_WIRES)))
        else:
            positions = part.n_x if x_test else part.n_z
            keys[:, 0 if x_test else 1] = rnd.e_rep[positions]
            si_keys = keys[si_base:].tolist()
            # a test wire is an eigenstate of the basis its test reads (Z or X),
            # of A's outcome where A measured that basis, else of a fair coin
            value = rnd.e_act[positions].copy()
            coin = ((rnd.act_label[positions] != (Z_ID if x_test else X_ID))
                    | (not rnd.coherent))
            value[coin] = rng.integers(2, size=int(coin.sum()))
            rnd.codes = (2 * (Z_ID if x_test else X_ID) + value).tolist()

        self.log("V", "O", MSG_SETUP, {"N": part.data_block, "ret": part.return_block})

        def apply_gate(name, wires):
            self._apply_gate(rnd, name, wires, si_base)

        # each layer walks STANDIN_LAYER: a cnot is its gate and key update, a
        # t a gadget whose ancilla is drawn from the layer's block among the
        # bases its parity may consume
        for ell, avail in enumerate(part.blocks):
            t_pos, c_list, z_list = [], [], []
            for op in STANDIN_LAYER:
                if op[0] == "cnot":
                    apply_gate("CNOT", op[1:])
                    update_keys("CNOT", si_keys, {"control": op[1], "target": op[2]})
                elif op[0] == "t":
                    parity = gadget_parity(round_type, op[2])
                    cand = avail[_ANCILLA_BASES[parity][labels[avail]]]
                    pos = int(cand[rng.integers(len(cand))])
                    avail = avail[avail != pos]
                    c = self._gadget_first_half(rnd, si_base + op[1], si_base, pos)
                    t_pos.append(pos)
                    c_list.append(c)
                    z_list.append(gadget_second_half(apply_gate, si_keys, op[1], labels[pos],
                                                     c, int(rnd.e_rep[pos]), parity, rng))
                else:
                    raise QDepthError(f"the round engine runs no stand-in op {op[0]!r}")
            self.log("V", "O", MSG_TSUB, {"layer": ell + 1, "T": t_pos})
            self.log("O", "V", MSG_GADGET, {"c": c_list})
            self.log("V", "O", MSG_ZBITS, {"z": z_list})

        # oracle action on the data wires, then any planted attack
        if comp and rnd.coherent and not self.o.skip_oracle \
                and self.a.instances is not None:
            for st in {id(st): st for st in self.a.instances}.values():
                self.steps[query_idx](st)
        if self.o.attack is not None:
            self._apply_attack(rnd, self.o.attack)

        back = rng.integers(0, 2, size=2 * layout.n_tot)
        a_back, b_back = back[:layout.n_tot], back[layout.n_tot:]
        self.log("O", "V", MSG_TPC, {"a": a_back, "b": b_back})
        keys[si_base:] = si_keys

        if comp:
            self.log("V", "A", MSG_KEYS, {"a": (a_back + keys[:, 0]) % 2,
                                          "b": (b_back + keys[:, 1]) % 2})
            if rnd.coherent:
                self.a.standin = decrypt_state(rnd.standin_sv, si_keys)
            return None, rnd.free

        # test verdict: the X test reads the bit keys, the Z test the phase keys
        back, col = (a_back, 0) if x_test else (b_back, 1)
        basis = "standard" if x_test else "hadamard"
        self.log("V", "A", MSG_MEAS, {"request": basis})
        if rnd.coherent:
            p1 = _READ_P1[rnd.codes, Z_ID if x_test else X_ID]
            if (p1 % 0.5).any():    # neither certain nor a fair coin: a lab error
                raise QDepthError(f"test-round wires read with P[1] = {p1[p1 % 0.5 > 0]}")
            fair = p1 == 0.5
            d_rep = (back + (p1 == 1)) % 2
            d_rep[fair] = rng.integers(2, size=int(fair.sum()))
        else:
            d_rep = rng.integers(0, 2, size=layout.n_tot)
        self.log("A", "V", MSG_MEAS, {"d": d_rep})
        ok = not np.any((d_rep + back + keys[:, col]) % 2)
        return ("accept" if ok else "reject"), rnd.free

    # -- gadget physics -------------------------------------------------------

    def _apply_gate(self, rnd: _Round, name, wires, base):
        """Gate ``name`` on ``wires``: on the live stand-in statevector in a
        computation round; in a test round through the gate's code map, on
        register wires ``base + w``."""
        if rnd.codes is None:
            rnd.standin_sv.apply_gate(_gate(name, wires))
        else:
            apply_code_gate(rnd.codes, name, [base + w for w in wires])

    def _gadget_first_half(self, rnd: _Round, wire, si_base, pos):
        """A gadget's first half on register wire ``wire``, its ancilla O's
        half at pool position ``pos``, collapsed by A's outcome
        ``rnd.e_act[pos]`` in the observable ``rnd.act_label[pos]``: through
        the Kraus operators on the live stand-in in a computation round,
        through the tables in a test round.  Returns c."""
        a = 2 * int(rnd.act_label[pos]) + int(rnd.e_act[pos])
        if rnd.codes is None:
            return gadget_first_half(rnd.standin_sv, wire - si_base, a, self.rng)
        return gadget_first_half_codes(rnd.codes, wire, a, self.rng)

    def _apply_attack(self, rnd: _Round, attack: PauliOp):
        """X^x Z^z on the register's first ``attack.width`` wires: in an
        abstract-fidelity computation round on instance 0, as one Z mask and
        then one X mask; otherwise wire by wire, Z then X, on the live
        stand-in (a gadget-fidelity computation round) or through the code
        maps (a test round)."""
        on_instance = rnd.codes is None and self.cfg.fidelity == "abstract"
        width = self.layout.inst_width if on_instance else self.layout.n_tot
        if attack.width > width:
            raise QDepthError(f"a {attack.width}-wire attack on {width} wires")
        if on_instance:
            inst = self.a.instances
            if inst:
                if len(inst) > 1 and inst[0] is inst[1]:
                    inst[0] = inst[0].copy()  # the others keep the shared state
                st = inst[0]
                shift = width - attack.width
                z_mask, x_mask = attack.z_bits << shift, attack.x_bits << shift
                if z_mask:
                    st.support = {k: (-v if (k & z_mask).bit_count() & 1 else v)
                                  for k, v in st.support.items()}
                if x_mask:
                    st.map_basis(lambda idx: idx ^ x_mask)
            return
        for w in range(attack.width):
            bit = attack.width - 1 - w
            if (attack.z_bits >> bit) & 1:
                self._apply_gate(rnd, "Z", (w,), 0)
            if (attack.x_bits >> bit) & 1:
                self._apply_gate(rnd, "X", (w,), 0)

    # -- full protocol ---------------------------------------------------------

    def run(self):
        cfg, rng = self.cfg, self.rng
        self.a.begin(cfg, self.layout, rng)
        gamma_zero = rng.random() < cfg.alpha
        test_round = None
        ell = None
        if not gamma_zero:
            ell = 1 + int(rng.integers(cfg.q))
            u = rng.random()
            if u < P_TEST:
                test_round = "xtest"
            elif u < 2 * P_TEST:
                test_round = "ztest"
            else:
                test_round = "rigid"
        # computation rounds up to the test round at query ell, or all q,
        # each taking the next ids of one secret order
        rounds = cfg.q if gamma_zero else ell
        free = draw_epr_order(self.layout, rounds, rng)
        for i in range(1, rounds + 1):
            verdict, free = self.play_round(i, test_round if i == ell else "comp", free)
        if gamma_zero:
            if cfg.fidelity == "gadget":
                verdict = self._gadget_mode_final_check()
            else:
                w = self.a.final_answer(rng)
                self.log("A", "V", MSG_FINAL, {"w": int(w)})
                base = (self.oracle.base
                        if isinstance(self.oracle, InPlaceShufflingOracle)
                        else self.oracle)
                verdict = "accept" if w == base.simon.s else "reject"
        self.log("V", "A", MSG_VERDICT, {"verdict": verdict})
        trace = self.a.finish_trace()
        self.transcript.verdict = verdict
        self.transcript.depth_audit = {
            "scheme": trace.scheme_kind,
            "budget": trace.budget,
            "quantum_layers": trace.total_quantum_layers(),
            "audited_depth": audited_depth(trace),
            "branch": "no-test" if gamma_zero else test_round,
            "test_at": ell,
        }
        return verdict, self.transcript

    def _gadget_mode_final_check(self):
        """Gadget fidelity mode has no oracle task; the verifier instead
        checks that the decrypted stand-in state matches q applications of
        the delegated circuit (a simulation-lab completeness check)."""
        if self.a.standin is None:
            return "reject"
        ok = states_equal_up_to_phase(self.a.standin.amplitudes,
                                      self.layout.expected_standin, tol=1e-7)
        return "accept" if ok else "reject"


def _play_single_round(cfg: ProtocolConfig, round_kind, prover_a, prover_o,
                       oracle, rng):
    """Build a run of ``cfg`` drawing from ``rng``, with a fresh oracle in
    abstract fidelity unless one is given, begin prover A and play query 1
    as a round of ``round_kind``.  Returns (verdict_or_None, run)."""
    if oracle is None and cfg.fidelity == "abstract":
        oracle = make_oracle(cfg, rng)
    run = GameRun(cfg, prover_a, prover_o, oracle, rng)
    run.a.begin(run.cfg, run.layout, rng)
    verdict, _ = run.play_round(1, round_kind, draw_epr_order(run.layout, 1, rng))
    return verdict, run


def run_single_round(cfg: ProtocolConfig, round_kind, strat_a="honest",
                     strat_o="honest", oracle=None, seed=0):
    """Execute one isolated protocol round; returns (verdict_or_None, run).

    ``round_kind`` is "comp", "xtest", "ztest" or "rigid".  Used by tests to
    exercise the delegation machinery without the surrounding query loop.
    """
    return _play_single_round(cfg, round_kind, STRATEGIES_A[strat_a](cfg),
                              STRATEGIES_O[strat_o](cfg), oracle, trial_rng(seed, 0))


def attack_failure_rates(cfg: ProtocolConfig, attack: PauliDistribution, trials, seed):
    """Monte-Carlo rejection rates (eps_X, eps_Z) of the X and Z tests.

    Plays ``2*trials`` streams of ``seed`` through ``qsim.run_streams``:
    streams ``[0, trials)`` are X-test rounds and ``[trials, 2*trials)``
    Z-test rounds, each against an honest prover A and a prover O whose
    planted attack is one Pauli drawn from ``attack`` on that stream.
    """
    def play(rng, stream):
        kind = "xtest" if stream < trials else "ztest"
        prover_o = ProverO(attack=attack.sample(rng))
        verdict, _ = _play_single_round(cfg, kind, ProverA(), prover_o, None, rng)
        return True, None, (kind, verdict == "reject")
    _, _, rounds = run_streams(play, seed, 2 * trials, 1, 1)
    return tuple(sum(rejected for k, rejected in rounds if k == kind) / trials
                 for kind in ("xtest", "ztest"))


# ---------------------------------------------------------------------------
# Top-level operations
# ---------------------------------------------------------------------------


def make_oracle(cfg: ProtocolConfig, rng):
    """Sample a fresh hidden-shift oracle matching the config."""
    simon = sample_simon(cfg.n, rng)
    shuffling = sample_shuffling(simon, cfg.d, rng, mode=cfg.oracle_mode)
    if cfg.target == "inplace":
        return build_inplace(shuffling, rng)
    return shuffling


def run_query_protocol(cfg: ProtocolConfig, prover_a, prover_o, oracle, rng):
    """One full protocol execution; returns (verdict, transcript)."""
    try:
        run = GameRun(cfg, prover_a, prover_o, oracle, rng)
        return run.run()
    except ProtocolOrderError as exc:
        t = Transcript(config=cfg.to_json(), seed=cfg.seed)
        t.verdict = "reject"
        t.depth_audit = {"error": str(exc)}
        return "reject", t


def _play_stream(cfg: ProtocolConfig, strat_a, strat_o, rng, stream):
    """One stream of ``run_trials``: a fresh oracle (abstract fidelity only) and
    fresh provers, all drawing from ``rng``; keeps the JSON of streams 0-2."""
    oracle = make_oracle(cfg, rng) if cfg.fidelity == "abstract" else None
    verdict, transcript = run_query_protocol(cfg, STRATEGIES_A[strat_a](cfg),
                                             STRATEGIES_O[strat_o](cfg), oracle, rng)
    return (verdict == "accept", transcript.depth_audit.get("audited_depth"),
            transcript.to_json() if stream < 3 else None)


def run_trials(cfg: ProtocolConfig, strat_a, strat_o, repeat=1, jobs=1):
    """Monte-Carlo acceptance of the named strategies with a Wilson 95% interval.

    Plays ``cfg.trials`` logical trials from ``cfg.seed`` through
    ``qsim.run_streams``, each of ``repeat`` sequential repetitions that must
    all accept, over ``jobs`` worker processes.  Returns (report,
    transcripts), the latter the JSON of streams 0-2, less any that an
    earlier reject in their trial skipped.
    """
    accepted, depths, transcripts = run_streams(
        functools.partial(_play_stream, cfg, strat_a, strat_o),
        cfg.seed, cfg.trials, repeat, jobs)
    phat, lo, hi = wilson_interval(accepted, cfg.trials)
    report = {
        "config": cfg.to_json(),
        "strategy_a": strat_a, "strategy_o": strat_o,
        "trials": cfg.trials, "repeat": repeat, "accepted": accepted,
        "p_hat": phat, "ci95": [lo, hi],
        "audited_depths": sorted(depths),
        # gadget fidelity grades no answer, so it runs no closing H wall
        "expected_honest_depth": cfg.q + (2 if cfg.fidelity == "abstract" else 1),
    }
    return report, transcripts
