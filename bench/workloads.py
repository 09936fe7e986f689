"""The three benchmark workloads, as fixed round-robins of cells.

A cell is one kind of trial.  Trial ``t`` of a workload runs cell
``t % len(cells)`` with the generator ``game.trial_rng(seed, t)``, so a seed
fixes every input.  Each cell calls the library's public per-trial functions
directly, checks the output invariants that hold exactly at any seed, and
returns a record for the output digest.

The caller passes a tracer; the spans opened here (``oracles.build``,
``oracles.solve``, ``ntcf.run``, ``ntcf.extract``) wrap calls the benchmark
makes itself.  Spans inside the library come from ``tracer.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from qdepthlab import game, ntcf, oracles
from qdepthlab.hybrid import audited_depth


@dataclass
class Outcome:
    """What one trial produced."""

    record: list          # ordered fields hashed into the output digest
    success: bool         # counts towards the cell's acceptance rate
    problems: list        # broken output invariants; empty when correct
    artefact: object = None   # transcript or trace with a ``to_json`` method
    schema: str | None = None  # its schema file under docs/schemas


@dataclass(frozen=True)
class Cell:
    name: str
    run: Callable        # (seed, trial, tracer) -> Outcome


# ---------------------------------------------------------------------------
# Referee game cells
# ---------------------------------------------------------------------------


def _game_cell(cfg, strat_a, strat_o):
    honest_pair = (strat_a, strat_o) == ("honest", "honest")
    gadget = cfg.fidelity == "gadget"
    # Honest A charges the opening Hadamard wall and one layer per query,
    # plus the closing wall of final_answer in abstract fidelity.  Gadget
    # fidelity replaces the final answer by the stand-in state check, which
    # charges nothing, so its no-test audit is q+1.
    no_test_depth = cfg.q + 1 if gadget else cfg.q + 2

    def run(seed, t, tracer):
        rng = game.trial_rng(seed, t)
        oracle = None
        if cfg.fidelity == "abstract":
            with tracer.span("oracles.build"):
                oracle = game.make_oracle(cfg, rng)
        prover_a = game.STRATEGIES_A[strat_a](cfg)
        prover_o = game.STRATEGIES_O[strat_o](cfg)
        verdict, transcript = game.run_query_protocol(
            cfg, prover_a, prover_o, oracle, rng)
        audit = transcript.depth_audit
        branch = audit.get("branch")
        problems = []
        if "error" in audit:
            problems.append(f"protocol-order error: {audit['error']}")
        if verdict not in ("accept", "reject"):
            problems.append(f"verdict {verdict!r}")
        # A fabricating honest prover means a lab exception was swallowed by
        # the budget check in ProverA._charge.
        if strat_a == "honest" and prover_a.fabricating:
            problems.append("honest prover A ended up fabricating")
        if honest_pair and branch in ("xtest", "ztest") and verdict != "accept":
            problems.append(f"honest {branch} round rejected")
        if honest_pair and branch == "no-test" \
                and audit.get("audited_depth") != no_test_depth:
            problems.append(f"honest no-test audit {audit.get('audited_depth')}"
                            f" != {no_test_depth}")
        # the gadget-mode final check compares states exactly (tol 1e-7)
        if honest_pair and gadget and branch == "no-test" and verdict != "accept":
            problems.append("honest gadget-mode final check rejected")
        record = [verdict, branch, audit.get("test_at"),
                  audit.get("audited_depth")]
        return Outcome(record, verdict == "accept", problems,
                       transcript, "transcript.v1.schema.json")

    kind = "gadget" if gadget else cfg.target
    return Cell(f"{kind}:{strat_a}/{strat_o}", run)


CRITERION_08_PAIRS = [
    ("honest", "honest"), ("honest", "skip-oracle"), ("honest", "pauli-x"),
    ("lying", "honest"), ("classical", "honest"), ("reset", "honest"),
]

GADGET_PAIRS = [
    ("honest", "honest"), ("honest", "pauli-x"), ("honest", "pauli-z"),
    ("lying", "honest"), ("reset", "honest"),
]


def game_abstract_cells():
    inplace = game.ProtocolConfig(n=3, d=2, q=3, t_parallel=12).resolved()
    standard = game.ProtocolConfig(n=3, d=2, q=5, t_parallel=12,
                                   target="standard").resolved()
    cells = [_game_cell(inplace, a, o) for a, o in CRITERION_08_PAIRS]
    cells.append(_game_cell(standard, "honest", "honest"))
    return cells


def game_gadget_cells():
    cfg = game.ProtocolConfig(n=3, d=2, q=3, fidelity="gadget").resolved()
    return [_game_cell(cfg, a, o) for a, o in GADGET_PAIRS]


# ---------------------------------------------------------------------------
# Solver and single-prover cells
# ---------------------------------------------------------------------------

SOLVE_D = 2
NTCF_D = 3
NTCF_N = 4


def _solve_cell(n, mode, target):
    inplace = target == "inplace"
    expected_depth = SOLVE_D + 3 if inplace else 2 * SOLVE_D + 3

    def run(seed, t, tracer):
        rng = game.trial_rng(seed, t)
        with tracer.span("oracles.build"):
            simon = oracles.sample_simon(n, rng)
            oracle = oracles.sample_shuffling(simon, SOLVE_D, rng, mode=mode)
            if inplace:
                oracle = oracles.build_inplace(oracle, rng)
        with tracer.span("oracles.solve"):
            if inplace:
                s_hat, trace, stats = oracles.solve_inplace_dssp(
                    oracle, rng, accepted_target=3 * n)
            else:
                s_hat, trace, stats = oracles.solve_standard_dssp(oracle, rng)
        tracer.count("oracles.solve.invocations", stats["runs"])
        tracer.count("oracles.solve.samples", len(stats["samples"]))
        problems = []
        depth = audited_depth(trace)
        if depth != expected_depth:
            problems.append(f"{target} solve audit {depth} != {expected_depth}")
        # genuine samples are all orthogonal to s, so the GF(2) solve can
        # only fail to decide, never return a wrong shift
        if s_hat is not None and s_hat != simon.s:
            problems.append(f"solver returned wrong shift {s_hat} != {simon.s}")
        return Outcome([s_hat, stats["runs"]], s_hat == simon.s, problems,
                       trace, "hybrid_trace.v1.schema.json")

    return Cell(f"solve:{target}:n{n}:{mode}", run)


def _ntcf_cell(prover_name):
    def run(seed, t, tracer):
        rng = game.trial_rng(seed, t)
        prover = ntcf.PROVERS[prover_name]()
        with tracer.span("ntcf.run"):
            verdict, run_ = ntcf.run_cvqd(NTCF_D, prover, rng, n=NTCF_N)
        problems = []
        if run_.audited_depth is None:
            problems.append("ntcf run left no valid depth audit")
        if prover_name == "honest":
            if verdict != "accept":
                problems.append("honest ntcf run rejected")
            if run_.audited_depth != ntcf.D0_DEFAULT + NTCF_D:
                problems.append(f"honest ntcf audit {run_.audited_depth} != "
                                f"d0+d = {ntcf.D0_DEFAULT + NTCF_D}")
        return Outcome([verdict, run_.audited_depth], verdict == "accept",
                       problems)

    return Cell(f"ntcf:{prover_name}", run)


def _extract_cell():
    def run(seed, t, tracer):
        rng = game.trial_rng(seed, t)
        prover = ntcf.ResetProver(j=1, equation_mode="guess")
        with tracer.span("ntcf.extract"):
            _, _, _, both, (v0, v1) = ntcf.rewind_extract(
                prover, rng, n=NTCF_N, d=NTCF_D)
        problems = []
        # the residue sigma holds measured preimages, so c=0 always verifies
        if not v0:
            problems.append("extractor preimage answer failed the check")
        return Outcome([int(v0), int(v1)], bool(both), problems)

    return Cell("ntcf:extract", run)


def solver_cells():
    # Criterion 07's solves with the cheap trials interleaved between them.
    # Two of the ten cells are honest ntcf runs, so the median trial falls
    # in the middle of that step rather than on an edge; the 95th percentile
    # falls inside the n=6 prp solves.
    return [
        _solve_cell(3, "exact", "inplace"),
        _ntcf_cell("honest"),
        _solve_cell(4, "exact", "inplace"),
        _ntcf_cell("reset-guess"),
        _solve_cell(5, "prp", "inplace"),
        _ntcf_cell("preimage-only"),
        _solve_cell(6, "prp", "inplace"),
        _ntcf_cell("honest"),
        _extract_cell(),
        _solve_cell(3, "exact", "standard"),
    ]


# Each workload: (cell factory, trials per block, speed exponent).  A run
# repeats one fixed block of trials.  Every block holds at least 200 trials,
# so the 95th percentile has ten samples beyond it, and takes six to ten
# seconds at the seed commit on a 2-core x86-64 host, so a 35-second run fits
# three rounds or more.  The solver block's cost is set by its 30 n=6 prp
# solves, whose dCQ invocation count varies by about 17% from one solve to
# the next.
#
# The speed exponent is the log-log slope of the workload's trial time
# against the speed probe's time in run.py, fitted over the same trials
# repeated through spells of a shared 2-core x86-64 host whose speed varied
# by up to half; run.py divides trial times by the probe's slowdown to this
# power.  Fits in separate spells gave 0.96 and 0.98 (game-abstract), 1.04
# and 0.90 (solvers), and 0.66, 0.82 and 0.97 (game-gadget, whose slope
# depends most on what else loads the host); each exponent is the mean of
# its fits.
WORKLOADS = {
    "game-abstract": (game_abstract_cells, 560, 0.97),
    "game-gadget": (game_gadget_cells, 2000, 0.82),
    "solvers": (solver_cells, 300, 0.97),
}
