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

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DepthBudgetExceeded, ProtocolOrderError, QDepthError
from .gadgets import KeyLedger, RoundType, compile_ops, gadget_parity, update_keys
from .hybrid import DQC, HybridSession, audited_depth
from .oracles import (
    InPlaceShufflingOracle,
    SolverRun,
    build_inplace,
    sample_shuffling,
    sample_simon,
    solve_hidden_shift,
)
from .qsim import (
    H, I2, S, SDG, T, Gate, SparseState, StateVector, states_equal_up_to_phase,
    trial_rng,
)
from .qsim import measure as qsim_measure

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


def rigid_verdict(labels, requests, e_rep, outcomes, cfg) -> str:
    """Correlator-threshold rigidity decision.

    ``labels`` (A's bases) and ``requests`` (O's bases) are int codes into
    ``SIGMA``.  Accepts iff every matched-basis class (X,X), (Y,Y), (Z,Z)
    sits within ``rigid_exact_tol`` of its ideal EPR correlator and the
    pooled CHSH value over the F/G classes reaches ``rigid_chsh_min``
    (honest value 2*sqrt(2)).
    """
    k = len(SIGMA)
    cls = np.asarray(labels, dtype=np.int64) * k + np.asarray(requests)
    prods = (1 - 2 * np.asarray(e_rep)) * (1 - 2 * np.asarray(outcomes))
    counts = np.bincount(cls, minlength=k * k)
    # the products are +-1, so these sums are exact and sum/count is the mean
    sums = np.bincount(cls, weights=prods, minlength=k * k)
    for w in ("X", "Y", "Z"):
        c = SIGMA.index(w) * (k + 1)        # the class (w, w)
        if counts[c] < cfg.rigid_min_samples:
            continue
        if abs(sums[c] / counts[c] - ideal_correlator(w, w)) > cfg.rigid_exact_tol:
            return "reject"
    s_val = 0.0
    for (wa, wo), sign in zip(CHSH_PAIRS, CHSH_SIGNS):
        c = SIGMA.index(wa) * k + SIGMA.index(wo)
        if counts[c] < cfg.rigid_min_samples:
            return "reject"
        s_val += sign * float(sums[c] / counts[c])
    if s_val < cfg.rigid_chsh_min:
        return "reject"
    return "accept"


def choose_alpha(q, p=1.0 / 3.0, c=1.0) -> float:
    """Weight of the no-test branch: alpha = 1 / (1 + 2 q c / p)."""
    if q < 1 or not (0 < p < 0.5) or c <= 0:
        raise QDepthError("need q >= 1, p in (0, 1/2), c > 0")
    return 1.0 / (1.0 + 2.0 * q * c / p)


def wilson_interval(successes, trials, z=1.96):
    """Wilson score interval for a binomial proportion."""
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


@dataclass
class ProtocolConfig:
    n: int = 3
    d: int = 2
    q: int = 3
    p: float = 1.0 / 3.0
    alpha: float | None = None
    # free constant in alpha = 1/(1 + 2qc/p); 1/2 keeps the no-test branch
    # heavy enough that answer-only cheats sit well below honest acceptance
    alpha_c: float = 0.5
    t_parallel: int | None = None
    m: int | None = None
    trials: int = 100
    seed: int = 0
    oracle_mode: str = "exact"
    fidelity: str = "abstract"
    target: str = "inplace"          # or "standard": oracle access model
    standin_wires: int = 2
    block_margin: int = 20
    rigid_exact_tol: float = 0.25
    rigid_chsh_min: float = 1.8
    rigid_min_samples: int = 4
    rigid_pool_floor: int = 240
    width_factor: int | None = None

    def resolved(self) -> "ProtocolConfig":
        """This config with alpha, t_parallel and m filled in; ``self`` when
        they already are, since nothing mutates a resolved config."""
        if None not in (self.alpha, self.t_parallel, self.m):
            return self
        cfg = replace(self)
        if cfg.alpha is None:
            cfg.alpha = choose_alpha(cfg.q, cfg.p, cfg.alpha_c)
        if cfg.t_parallel is None:
            # the shift-recovery failure rate is about (2^(n-1)-1)(3/4)^t,
            # so two dozen parallel instances keep it under 1% at any n
            cfg.t_parallel = max(24, 6 * cfg.n)
        if cfg.m is None:
            layout = GameLayout(cfg)
            cfg.m = layout.pool_need
        return cfg

    def validate(self):
        violations = []
        if not (0 < self.p < 0.5):
            violations.append(f"p={self.p} outside (0, 1/2)")
        if self.alpha is not None and not (0 < self.alpha < 1):
            violations.append(f"alpha={self.alpha} outside (0, 1)")
        if self.q < 1:
            violations.append("q must be >= 1")
        if self.n < 2:
            violations.append("n must be >= 2")
        if self.d < 1:
            violations.append("d must be >= 1")
        if self.oracle_mode not in ("exact", "prp"):
            violations.append(f"unknown oracle mode {self.oracle_mode!r}")
        if self.fidelity not in ("abstract", "gadget"):
            violations.append(f"unknown fidelity mode {self.fidelity!r}")
        if self.target not in ("inplace", "standard"):
            violations.append(f"unknown target {self.target!r}")
        violations += schedule_violations(self)
        if violations:
            raise ConfigError(violations)
        cfg = self.resolved()
        t_gates = sum(len(tw) for _, tw in standin_layers(self))
        floor = cfg.n + t_gates * cfg.q + 2 * cfg.n
        pool_need = GameLayout(cfg).pool_need
        if cfg.m < max(pool_need, floor):
            violations.append(f"m={cfg.m} below required pool {pool_need}")
        if violations:
            raise ConfigError(violations)
        return cfg

    def to_json(self):
        cfg = self.resolved()
        out = {k: getattr(cfg, k) for k in (
            "n", "d", "q", "p", "alpha", "t_parallel", "m", "trials", "seed",
            "oracle_mode", "fidelity", "target", "standin_wires",
        )}
        # a shrunken enlarged-domain factor is a deliberate deviation from the
        # (d+2)n construction and must be visible in every transcript
        out["width_factor"] = (cfg.width_factor if cfg.width_factor is not None
                               else cfg.d + 2)
        return out


def query_count(cfg: ProtocolConfig) -> int:
    """Oracle queries of the hidden-shift schedule: d+1 in-place, 2d+1 standard."""
    return cfg.d + 1 if cfg.target == "inplace" else 2 * cfg.d + 1


def schedule_violations(cfg: ProtocolConfig) -> list:
    """In abstract fidelity query k applies step k of the solver's schedule,
    so q may not run past the schedule's last query."""
    if cfg.fidelity == "abstract" and cfg.q > query_count(cfg):
        return [f"q={cfg.q} above the {query_count(cfg)} oracle queries of "
                f"{cfg.target} access at d={cfg.d}"]
    return []


def standin_layers(cfg: ProtocolConfig):
    """Stand-in circuit as d layers of (clifford ops, T wires)."""
    layers = []
    for _ in range(cfg.d):
        cliffords = [("CNOT", 0, 1)] if cfg.standin_wires >= 2 else []
        layers.append((cliffords, [0]))
    return layers


class GameLayout:
    """Wire and EPR-pool geometry derived from a config."""

    def __init__(self, cfg: ProtocolConfig):
        cfg = cfg if cfg.alpha is not None and cfg.t_parallel is not None else cfg.resolved()
        self.cfg = cfg
        n, d = cfg.n, cfg.d
        wf = cfg.width_factor if cfg.width_factor is not None else d + 2
        self.big_width = wf * n
        if cfg.target == "inplace":
            self.inst_width = n + self.big_width + 1
        else:
            self.inst_width = n + d * self.big_width + n
        self.n_si = cfg.standin_wires
        if cfg.fidelity == "abstract":
            self.n_tot = cfg.t_parallel * self.inst_width + self.n_si
        else:
            self.n_tot = self.n_si
        # the compiled stand-in's T gadgets per layer, which every round
        # reuses, and each layer's gadget counts by parity class
        self.layer_gadgets = []
        self.layer_needs = []
        for cliffords, t_wires in standin_layers(cfg):
            ops = [("T", w) for w in t_wires]
            compiled, _ = compile_ops(ops)
            self.layer_gadgets.append([op for op in compiled if op[0] == "t"])
            even_x = sum(1 for op in compiled if op[0] == "t"
                         and gadget_parity(RoundType.XTEST, op[2]) == "even")
            odd_x = sum(1 for op in compiled if op[0] == "t"
                        and gadget_parity(RoundType.XTEST, op[2]) == "odd")
            even_z = sum(1 for op in compiled if op[0] == "t"
                         and gadget_parity(RoundType.ZTEST, op[2]) == "even")
            odd_z = sum(1 for op in compiled if op[0] == "t"
                        and gadget_parity(RoundType.ZTEST, op[2]) == "odd")
            t_total = sum(1 for op in compiled if op[0] == "t")
            self.layer_needs.append({
                "z_basis": max(even_x, even_z),
                "xy_basis": max(odd_x, odd_z),
                "gf_basis": t_total,
            })
        self.block_size = max(
            5 * max((sum(nd.values()) for nd in self.layer_needs), default=1),
            cfg.block_margin,
        )
        # pool floor keeps the rigidity correlator classes populated even for
        # tiny gadget-mode games
        self.m_size = max(6 * self.n_tot + cfg.d * self.block_size,
                          cfg.rigid_pool_floor)
        self.pool_need = cfg.q * (2 * self.n_tot + self.m_size)


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


@dataclass
class Transcript:
    config: dict
    seed: int
    messages: list = field(default_factory=list)
    verdict: str | None = None
    depth_audit: dict = field(default_factory=dict)

    def log(self, step, frm, to, kind, payload=None):
        self.messages.append(
            {"step": step, "from": frm, "to": to, "kind": kind,
             "payload": payload if payload is not None else {}}
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


def draw_partition(layout: GameLayout, free_indices, rng, max_tries=1000):
    """Sample one query's allocation; resample W until every block supports
    every round type (the feasibility predicate is round-independent, so
    conditioning preserves blindness)."""
    cfg = layout.cfg
    need = 2 * layout.n_tot + layout.m_size
    if len(free_indices) < need:
        raise QDepthError("EPR pool exhausted")
    take = rng.choice(len(free_indices), size=need, replace=False)
    chosen = free_indices[take]
    left = np.ones(len(free_indices), dtype=bool)
    left[take] = False
    remaining = free_indices[left]
    data_block = chosen[: layout.n_tot]
    return_block = chosen[layout.n_tot: 2 * layout.n_tot]
    pool = chosen[2 * layout.n_tot:]

    for _ in range(max_tries):
        w = rng.integers(0, len(SIGMA), size=len(pool))
        z_pos = np.flatnonzero(w == Z_ID)
        x_pos = np.flatnonzero(w == X_ID)
        if len(z_pos) < layout.n_tot or len(x_pos) < layout.n_tot:
            continue
        n_x = z_pos[rng.choice(len(z_pos), size=layout.n_tot, replace=False)]
        n_z = x_pos[rng.choice(len(x_pos), size=layout.n_tot, replace=False)]
        free = np.ones(len(pool), dtype=bool)
        free[n_x] = free[n_z] = False
        rest = np.flatnonzero(free)
        rest = rest[rng.permutation(len(rest))]
        blocks = np.array_split(rest, cfg.d)
        counts = (np.bincount(w[blk], minlength=len(SIGMA)) for blk in blocks)
        if all(c[Z_ID] >= nd["z_basis"] and c[X_ID] + c[Y_ID] >= nd["xy_basis"]
               and c[F_ID] + c[G_ID] >= nd["gf_basis"]
               for c, nd in zip(counts, layout.layer_needs)):
            part = SetupPartition(
                data_block=data_block, return_block=return_block, pool=pool,
                w_labels=w, n_x=n_x, n_z=n_z, blocks=blocks,
            )
            return part, remaining
    raise QDepthError("could not draw a feasible partition")

# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------

# P[O reads 0], indexed by the code of A's observable, A's outcome and the
# code of O's observable
_P0_TABLE = np.array([[[outcome_prob0(wa, e, wo) for wo in SIGMA] for e in (0, 1)]
                      for wa in SIGMA])
# partner state of an EPR half, by the code of A's observable and A's outcome
_COLLAPSED = [[collapse_vector(w, e) for e in (0, 1)] for w in SIGMA]


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
    and fabricates every later quantum outcome classically.
    """

    def __init__(self, budget=None, lie_outcomes=False, random_answer=False,
                 swap_half_z=False, name="honest"):
        self.declared_budget = budget
        self.lie_outcomes = lie_outcomes
        self.random_answer = random_answer
        self.swap_half_z = swap_half_z
        self.name = name

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
            states = [SparseState.from_bits([0] * layout.inst_width)
                      for _ in range(cfg.t_parallel)]
            ready = self._charge("prepare", states,
                                 lambda st: st.apply_hadamard_wall(range(cfg.n)))
            if ready:
                self.instances = states
        else:
            ready = self._charge("prepare: gadget fidelity simulates no instances")
        if ready:
            self.standin = StateVector.from_bits([0] * layout.n_si)

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

    def pool_measurement(self, labels, rng):
        """Measure the pool halves; returns (reported, actual, actual_label).

        ``labels`` are the requested bases as int codes into ``SIGMA``;
        ``actual`` is None when the halves were never measured (fabrication);
        ``actual_label`` records, as codes, the observable really used
        (basis cheats).
        """
        k = len(labels)
        if self.fabricating:
            return rng.integers(0, 2, size=k), None, None
        actual = rng.integers(0, 2, size=k)
        actual_label = np.array(labels)
        if self.swap_half_z:
            actual_label[np.flatnonzero(actual_label == Z_ID)[::2]] = X_ID
        reported = (1 - actual) if self.lie_outcomes else actual.copy()
        return reported, actual, actual_label

    def teleport_query(self, rng):
        """Charge the per-query layer; returns (a_bits, b_bits, real)."""
        real = self._charge("teleport_query: Bell measurements drawn as coins")
        n_tot = self.layout.n_tot
        return rng.integers(0, 2, size=n_tot), rng.integers(0, 2, size=n_tot), real

    def report_measurement(self, d_actual, rng):
        if self.fabricating or d_actual is None:
            return rng.integers(0, 2, size=self.layout.n_tot)
        return d_actual

    def final_answer(self, rng):
        cfg = self.cfg
        total = self.layout.inst_width
        # the solver's h_out: the input register, plus the flag in-place
        wall = list(range(cfg.n)) + ([total - 1] if cfg.target == "inplace" else [])
        if self.random_answer:
            # declared rather than run: the seeded digests of A's final
            # supports record this strategy's instances without the wall
            self._charge("final_hadamard: the random answer never measures "
                         "its instances")
        elif self.instances is not None and self._charge(
                "final_hadamard", self.instances,
                lambda st: st.apply_hadamard_wall(wall)):
            samples = []
            for st in self.instances:
                bits, _ = qsim_measure(st, range(total), "standard", rng)
                if cfg.target == "inplace" and bits[-1] != 0:
                    continue
                y = 0
                for b in bits[: cfg.n]:
                    y = (y << 1) | b
                samples.append(y)
            s_hat = solve_hidden_shift(samples, cfg.n)
            if s_hat is not None:
                return s_hat
        return int(rng.integers(0, 1 << cfg.n))

    def finish_trace(self):
        return self.session.finish()


class ProverO:
    """Oracle prover: applies the oracle between queries and runs gadgets."""

    def __init__(self, skip_oracle=False, attack=None, name="honest"):
        self.skip_oracle = skip_oracle
        self.attack = attack     # None or ("X"|"Z", wire_position)
        self.name = name


STRATEGIES_A = {
    "honest": lambda cfg: ProverA(name="honest"),
    "lying": lambda cfg: ProverA(lie_outcomes=True, name="lying"),
    "classical": lambda cfg: ProverA(budget=0, name="classical"),
    "reset": lambda cfg: ProverA(budget=cfg.d, name="reset"),
    "random-answer": lambda cfg: ProverA(random_answer=True, name="random-answer"),
    "basis-swap": lambda cfg: ProverA(swap_half_z=True, name="basis-swap"),
}

STRATEGIES_O = {
    "honest": lambda cfg: ProverO(name="honest"),
    "skip-oracle": lambda cfg: ProverO(skip_oracle=True, name="skip-oracle"),
    "pauli-x": lambda cfg: ProverO(attack=("X", 0), name="pauli-x"),
    "pauli-z": lambda cfg: ProverO(attack=("Z", 0), name="pauli-z"),
}


# ---------------------------------------------------------------------------
# Game engine
# ---------------------------------------------------------------------------


# ancilla bases a T gadget may consume, as masks over label codes, by the
# gadget's parity: F/G in computation rounds, Z for even, X/Y for odd gadgets
_ANCILLA_BASES = {
    parity: np.isin(np.arange(len(SIGMA)), codes)
    for parity, codes in (("computation", (F_ID, G_ID)), ("even", (Z_ID,)),
                          ("odd", (X_ID, Y_ID)))
}


class _RoundState:
    """Physical contents of prover O's side during one query round."""

    def __init__(self, round_type):
        self.round_type = round_type
        self.test_kind = None        # "bit" (|0>-type wires) or "phase"
        self.test_value = None       # per wire: the bit, or the Z exponent on |+>
        self.standin_sv = None       # live stand-in statevector (comp rounds)
        self.garbage = False
        self.pending = {}            # wire -> odd-gadget intermediate


class GameRun:
    def __init__(self, cfg: ProtocolConfig, prover_a: ProverA, prover_o: ProverO,
                 oracle, rng):
        self.cfg = cfg.resolved()
        self.layout = GameLayout(self.cfg)
        self.a = prover_a
        self.o = prover_o
        self.oracle = oracle
        self.rng = rng
        self.transcript = Transcript(config=self.cfg.to_json(), seed=self.cfg.seed)
        self._step = 0
        # the solver's schedule: step 0 is its opening H wall, step k <= q
        # the map of query k, the last step its closing H wall
        self.steps = None
        if self.cfg.fidelity == "abstract":
            violations = schedule_violations(self.cfg)
            if violations:
                raise ConfigError(violations)
            solver = SolverRun(oracle, self.cfg.target == "inplace")
            self.steps, _ = (solver.inplace_steps() if solver.inplace
                             else solver.standard_steps())

    def log(self, frm, to, kind, payload=None):
        self._step += 1
        self.transcript.log(self._step, frm, to, kind, payload)

    # -- shared per-round setup ----------------------------------------------

    def _round_setup(self, query_idx, free):
        part, free = draw_partition(self.layout, free, self.rng)
        self.log("V", "A", MSG_SETUP, {
            "query": query_idx,
            "data": part.data_block.tolist(),
            "ret": part.return_block.tolist(),
            "pool": part.pool.tolist(),
        })
        labels = part.w_labels
        self.log("V", "A", MSG_BASIS, {"labels": _SIGMA_NAMES[labels].tolist()})
        e_rep, e_act, act_label = self.a.pool_measurement(labels, self.rng)
        e_rep = np.asarray(e_rep)
        a_rep, b_rep, real_tp = self.a.teleport_query(self.rng)
        self.log("A", "V", MSG_TPC, {"a": a_rep.tolist(), "b": b_rep.tolist()})
        self.log("A", "V", MSG_MEAS, {"e": e_rep.tolist()})
        measured = e_act is not None
        if not measured:
            e_act = self.rng.integers(0, 2, size=len(labels))
            act_label = labels
        return part, free, e_rep, e_act, act_label, measured, a_rep, b_rep, real_tp

    # -- rigidity round -------------------------------------------------------

    def run_rigid(self, query_idx, free):
        (part, free, e_rep, e_act, act_label,
         measured, _, _, _) = self._round_setup(query_idx, free)
        requests, outcomes = rigid_exchange(part.w_labels, act_label, e_act,
                                            measured, self.rng)
        self.log("V", "O", MSG_BASIS, {"labels": _SIGMA_NAMES[requests].tolist()})
        self.log("O", "V", MSG_MEAS, {"o": outcomes.tolist()})
        verdict = rigid_verdict(part.w_labels, requests, e_rep, outcomes, self.cfg)
        return verdict, free

    # -- computation / X-test / Z-test round ----------------------------------

    def run_round(self, query_idx, round_type, free):
        cfg, layout, rng = self.cfg, self.layout, self.rng
        (part, free, e_rep, e_act, act_label,
         measured, a_rep, b_rep, real_tp) = self._round_setup(query_idx, free)
        labels = part.w_labels
        comp = round_type == RoundType.COMPUTATION
        x_test = round_type == RoundType.XTEST

        si_base = layout.n_tot - layout.n_si
        rs = _RoundState(round_type)
        if comp:
            ledger = KeyLedger.with_keys(np.stack([a_rep, b_rep], 1).tolist())
            rs.garbage = not real_tp
            if not rs.garbage and self.a.standin is not None:
                sv = self.a.standin.copy()
                for w in range(layout.n_si):
                    a_k, b_k = ledger.keys[si_base + w]
                    if b_k:
                        sv.apply_gate(Gate("Z", (w,)))
                    if a_k:
                        sv.apply_gate(Gate("X", (w,)))
                rs.standin_sv = sv
            else:
                rs.standin_sv = StateVector.from_bits(
                    list(rng.integers(0, 2, size=layout.n_si))
                )
        else:
            positions = part.n_x if x_test else part.n_z
            e_test = e_rep[positions]
            zero = np.zeros_like(e_test)
            ledger = KeyLedger.with_keys(
                np.stack([e_test, zero] if x_test else [zero, e_test], 1).tolist())
            # a test wire carries A's outcome where A measured the wanted
            # basis (Z for the X test, X for the Z test), else a fair coin
            value = e_act[positions].copy()
            coin = (act_label[positions] != (Z_ID if x_test else X_ID)) | (not measured)
            value[coin] = rng.integers(2, size=int(coin.sum()))
            rs.test_kind = "bit" if x_test else "phase"
            rs.test_value = value.tolist()

        self.log("V", "O", MSG_SETUP, {"N": part.data_block.tolist(),
                                       "ret": part.return_block.tolist()})

        for ell, (cliffords, _) in enumerate(standin_layers(cfg)):
            avail = part.blocks[ell]
            chosen = []
            for op in layout.layer_gadgets[ell]:
                parity = gadget_parity(round_type, op[2])
                cand = avail[_ANCILLA_BASES[parity][labels[avail]]]
                pos = int(cand[rng.integers(len(cand))])
                avail = avail[avail != pos]
                chosen.append((op, pos, parity))
            self.log("V", "O", MSG_TSUB,
                     {"layer": ell + 1, "T": [pos for _, pos, _ in chosen]})

            for cl in cliffords:
                if cl[0] == "CNOT":
                    ctl, tgt = si_base + cl[1], si_base + cl[2]
                    self._apply_cnot(rs, ctl, tgt, si_base)
                    update_keys("CNOT", ledger, {"control": ctl, "target": tgt})

            c_list = [self._gadget_first_half(rs, si_base + op[1], si_base,
                                              int(act_label[pos]), int(e_act[pos]))
                      for op, pos, _ in chosen]
            self.log("O", "V", MSG_GADGET, {"c": c_list})

            z_list = []
            for (op, pos, parity), c_val in zip(chosen, c_list):
                wire = si_base + op[1]
                if parity == "computation":
                    z = (ledger.keys[wire][0] + int(labels[pos] == F_ID) + c_val) % 2
                elif parity == "even":
                    z = int(rng.integers(2))
                else:
                    z = int(labels[pos] == Y_ID)
                z_list.append(z)
                self._gadget_second_half(rs, wire, si_base, z)
                update_keys("T", ledger, {
                    "wire": wire, "c": c_val, "e": int(e_rep[pos]), "z": z,
                    "parity": parity,
                })
            self.log("V", "O", MSG_ZBITS, {"z": z_list})

        # oracle action on the data wires, then any planted attack
        if comp and not self.o.skip_oracle \
                and self.a.instances is not None and not rs.garbage:
            step = self.steps[query_idx]
            for st in self.a.instances:
                step(st)
        if self.o.attack is not None:
            self._apply_attack(rs, self.o.attack)

        a_back = rng.integers(0, 2, size=layout.n_tot)
        b_back = rng.integers(0, 2, size=layout.n_tot)
        self.log("O", "V", MSG_TPC, {"a": a_back.tolist(), "b": b_back.tolist()})
        keys = np.array(ledger.keys)

        if comp:
            self.log("V", "A", MSG_KEYS, {"a": ((a_back + keys[:, 0]) % 2).tolist(),
                                          "b": ((b_back + keys[:, 1]) % 2).tolist()})
            if rs.standin_sv is not None and not rs.garbage:
                sv = rs.standin_sv
                for w in range(layout.n_si):
                    a_k, b_k = ledger.keys[si_base + w]
                    if a_k:
                        sv.apply_gate(Gate("X", (w,)))
                    if b_k:
                        sv.apply_gate(Gate("Z", (w,)))
                self.a.standin = sv
            return None, free

        # test verdict: the X test reads the bit keys, the Z test the phase keys
        back, col = (a_back, 0) if x_test else (b_back, 1)
        d_actual = None
        if not self.a.fabricating:
            lost = np.array([v is None for v in rs.test_value])
            d_actual = (back + [0 if v is None else v for v in rs.test_value]) % 2
            d_actual[lost] = rng.integers(2, size=int(lost.sum()))
        basis = "standard" if x_test else "hadamard"
        self.log("V", "A", MSG_MEAS, {"request": basis})
        d_rep = np.asarray(self.a.report_measurement(d_actual, rng))
        self.log("A", "V", MSG_MEAS, {"d": d_rep.tolist()})
        ok = not np.any((d_rep + back + keys[:, col]) % 2)
        return ("accept" if ok else "reject"), free

    # -- gadget physics -------------------------------------------------------

    def _apply_cnot(self, rs: _RoundState, ctl, tgt, si_base):
        if rs.round_type == RoundType.COMPUTATION:
            rs.standin_sv.apply_gate(Gate("CNOT", (ctl - si_base, tgt - si_base)))
            return
        if rs.test_kind == "bit":
            rs.test_value[tgt] ^= rs.test_value[ctl]
        else:
            rs.test_value[ctl] ^= rs.test_value[tgt]

    def _gadget_first_half(self, rs, wire, si_base, act_lbl, e_act):
        """CNOT from the collapsed ancilla onto the wire, measure it: outcome c.

        ``act_lbl`` is the int code of the observable A measured the ancilla's
        EPR twin in."""
        rng = self.rng
        if rs.round_type == RoundType.COMPUTATION:
            sv = rs.standin_sv
            psi = _COLLAPSED[act_lbl][e_act]
            d_wire = wire - si_base
            merged = StateVector(sv.num_qubits + 1, np.kron(sv.amplitudes, psi))
            a_wire = merged.num_qubits - 1
            merged.apply_gate(Gate("CNOT", (a_wire, d_wire)))
            (c_val,), merged = qsim_measure(merged, [d_wire], "standard", rng)
            merged.remove_qubit(d_wire, c_val)
            merged.move_qubit(merged.num_qubits - 1, d_wire)
            rs.standin_sv = merged
            return int(c_val)
        if rs.test_kind == "bit":
            if act_lbl == Z_ID:
                anc_bit = e_act
                c_val = rs.test_value[wire] ^ anc_bit
            else:
                c_val = int(rng.integers(2))
                anc_bit = rs.test_value[wire] ^ c_val
            rs.test_value[wire] = anc_bit
            return int(c_val)
        # phase-type wire: odd gadget; c is uniform and independent
        if act_lbl in (X_ID, Y_ID):
            z_anc = int(act_lbl == Y_ID)
            rs.pending[wire] = (rs.test_value[wire] ^ e_act, z_anc, True)
        else:
            rs.pending[wire] = (0, 0, False)
        return int(rng.integers(2))

    def _gadget_second_half(self, rs, wire, si_base, z_sent):
        """Inverse-phase correction S^-z on the surviving ancilla wire."""
        if rs.round_type == RoundType.COMPUTATION:
            if z_sent:
                rs.standin_sv.apply_gate(Gate("SDG", (wire - si_base,)))
            return
        if rs.test_kind == "bit":
            return  # phase gates are invisible on computational wires
        pend = rs.pending.pop(wire, None)
        if pend is None:
            return
        p_mid, z_anc, coherent = pend
        total = z_anc + z_sent
        if not coherent or total % 2 == 1:
            rs.test_value[wire] = None  # wire left the |+>/|-> family
        else:
            rs.test_value[wire] = p_mid ^ (total // 2)

    def _apply_attack(self, rs: _RoundState, attack):
        kind, pos = attack
        if rs.round_type == RoundType.COMPUTATION:
            if self.a.instances:
                st = self.a.instances[0]
                mask = 1 << (st.num_qubits - 1 - pos)
                if kind == "X":
                    st.map_basis(lambda idx: idx ^ mask)
                else:
                    st.support = {k: (-v if (k & mask) else v)
                                  for k, v in st.support.items()}
            return
        if pos >= len(rs.test_value) or rs.test_value[pos] is None:
            return
        # X flips a |0>-type wire, Z a |+>-type one
        if kind == ("X" if rs.test_kind == "bit" else "Z"):
            rs.test_value[pos] ^= 1

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
            if u < cfg.p:
                test_round = "xtest"
            elif u < 2 * cfg.p:
                test_round = "ztest"
            else:
                test_round = "rigid"
        free = np.arange(cfg.m, dtype=np.int64)
        verdict = None
        for i in range(1, cfg.q + 1):
            if gamma_zero or i < ell:
                _, free = self.run_round(i, RoundType.COMPUTATION, free)
                continue
            if test_round == "rigid":
                verdict, free = self.run_rigid(i, free)
            else:
                verdict, free = self.run_round(i, RoundType(test_round), free)
            break
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
        expected = expected_standin_state(self.cfg)
        ok = states_equal_up_to_phase(
            self.a.standin.amplitudes, expected.amplitudes, tol=1e-7
        )
        return "accept" if ok else "reject"


def expected_standin_state(cfg: ProtocolConfig) -> StateVector:
    """q honest applications of the stand-in circuit on the zero state."""
    cfg = cfg.resolved()
    sv = StateVector.from_bits([0] * cfg.standin_wires)
    for _ in range(cfg.q):
        for cliffords, t_wires in standin_layers(cfg):
            for cl in cliffords:
                if cl[0] == "CNOT":
                    sv.apply_gate(Gate("CNOT", (cl[1], cl[2])))
            for w in t_wires:
                sv.apply_gate(Gate("T", (w,)))
    return sv


def run_single_round(cfg: ProtocolConfig, round_kind, strat_a="honest",
                     strat_o="honest", oracle=None, seed=0):
    """Execute one isolated protocol round; returns (verdict_or_None, run).

    ``round_kind`` is "comp", "xtest", "ztest" or "rigid".  Used by tests to
    exercise the delegation machinery without the surrounding query loop.
    """
    cfg = cfg.resolved()
    rng = trial_rng(seed, 0)
    orc = oracle
    if orc is None and cfg.fidelity == "abstract":
        orc = make_oracle(cfg, rng)
    a = STRATEGIES_A[strat_a](cfg)
    o = STRATEGIES_O[strat_o](cfg)
    run = GameRun(cfg, a, o, orc, rng)
    run.a.begin(run.cfg, run.layout, rng)
    free = np.arange(run.cfg.m, dtype=np.int64)
    if round_kind == "comp":
        verdict, _ = run.run_round(1, RoundType.COMPUTATION, free)
    elif round_kind == "xtest":
        verdict, _ = run.run_round(1, RoundType.XTEST, free)
    elif round_kind == "ztest":
        verdict, _ = run.run_round(1, RoundType.ZTEST, free)
    elif round_kind == "rigid":
        verdict, _ = run.run_rigid(1, free)
    else:
        raise QDepthError(f"unknown round kind {round_kind!r}")
    return verdict, run


# ---------------------------------------------------------------------------
# Top-level operations
# ---------------------------------------------------------------------------


def run_rigid_standalone(m, rng, cfg=None, prover_a="honest"):
    """One standalone rigidity test over m EPR pairs; returns "accept"/"reject".

    ``prover_a`` is "honest" (measures the requested bases), "random"
    (reports coin flips without measuring), or "basis-swap" (measures X on
    every other index whose requested basis is Z).
    """
    cfg = (cfg or ProtocolConfig()).resolved()
    labels = rng.integers(0, len(SIGMA), size=m)
    e_act = rng.integers(0, 2, size=m)
    act_label = labels.copy()
    measured = True
    if prover_a == "random":
        measured = False
        e_rep = rng.integers(0, 2, size=m)
    elif prover_a == "basis-swap":
        act_label[np.flatnonzero(labels == Z_ID)[::2]] = X_ID
        e_rep = e_act.copy()
    elif prover_a == "honest":
        e_rep = e_act.copy()
    else:
        raise QDepthError(f"unknown rigid strategy {prover_a!r}")
    requests, outcomes = rigid_exchange(labels, act_label, e_act, measured, rng)
    return rigid_verdict(labels, requests, e_rep, outcomes, cfg)


def make_oracle(cfg: ProtocolConfig, rng):
    """Sample a fresh hidden-shift oracle matching the config."""
    cfg = cfg.resolved()
    simon = sample_simon(cfg.n, rng)
    shuffling = sample_shuffling(
        simon, cfg.d, rng, mode=cfg.oracle_mode, width_factor=cfg.width_factor
    )
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


def play_trial(cfg: ProtocolConfig, strat_a, strat_o, seed, t):
    """Trial ``t`` of a seeded run: a fresh oracle (abstract fidelity only)
    and fresh provers from the named strategies, all drawing from
    ``trial_rng(seed, t)``.  Returns (verdict, transcript)."""
    rng = trial_rng(seed, t)
    oracle = make_oracle(cfg, rng) if cfg.fidelity == "abstract" else None
    return run_query_protocol(cfg, STRATEGIES_A[strat_a](cfg),
                              STRATEGIES_O[strat_o](cfg), oracle, rng)


def _trial_chunk(cfg, strat_a, strat_o, seed, repeat, t0, t1):
    """Logical trials ``[t0, t1)`` of a run: trial t plays streams
    ``t*repeat + r`` and stops at the first reject.  Returns (accepted,
    audited depths, the JSON of the streams below 3 that were played)."""
    accepted = 0
    depths = set()
    transcripts = []
    for t in range(t0, t1):
        for stream in range(t * repeat, (t + 1) * repeat):
            verdict, transcript = play_trial(cfg, strat_a, strat_o, seed, stream)
            depths.add(transcript.depth_audit.get("audited_depth"))
            if stream < 3:
                transcripts.append(transcript.to_json())
            if verdict != "accept":
                break
        else:
            accepted += 1
    return accepted, depths, transcripts


def run_trials(cfg: ProtocolConfig, strat_a, strat_o, trials=None, seed=None,
               repeat=1, jobs=1):
    """Monte-Carlo acceptance of the named strategies with a Wilson 95% interval.

    ``repeat`` > 1 applies sequential repetition: one logical trial accepts
    only if all its repetitions accept.  ``jobs`` > 1 splits the logical
    trials into contiguous chunks over worker processes; the results do not
    depend on it.  Returns (report, transcripts), the latter the JSON of
    streams 0-2, less any that an earlier reject in their trial skipped.
    """
    cfg = cfg.resolved()
    trials = cfg.trials if trials is None else trials
    if trials < 1 or repeat < 1 or jobs < 1:
        raise ConfigError([f"need trials, repeat and jobs >= 1, got "
                           f"{trials}, {repeat} and {jobs}"])
    seed = cfg.seed if seed is None else seed
    bounds = np.linspace(0, trials, jobs + 1, dtype=int)
    chunks = [(cfg, strat_a, strat_o, seed, repeat, int(a), int(b))
              for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if jobs == 1:
        parts = [_trial_chunk(*chunk) for chunk in chunks]
    else:
        # imported here: at module level they would slow every import of game
        import concurrent.futures
        import multiprocessing
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = [pool.submit(_trial_chunk, *chunk) for chunk in chunks]
            parts = [f.result() for f in futures]
    accepted = sum(part[0] for part in parts)
    depths = set().union(*(part[1] for part in parts))
    phat, lo, hi = wilson_interval(accepted, trials)
    report = {
        "config": cfg.to_json(),
        "strategy_a": strat_a, "strategy_o": strat_o,
        "trials": trials, "repeat": repeat, "accepted": accepted,
        "p_hat": phat, "ci95": [lo, hi],
        "audited_depths": sorted(x for x in depths if x is not None),
        # gadget fidelity grades no answer, so it runs no closing H wall
        "expected_honest_depth": cfg.q + (2 if cfg.fidelity == "abstract" else 1),
    }
    return report, [tr for part in parts for tr in part[2]]
