"""Golden-output guard: SHA-256 digests of seeded runs.

Every case below replays a fixed set of seeded runs and hashes what they
produce: transcripts, verdicts, depth audits, prover A's final instance
supports, the summary dicts of the Monte-Carlo runners and the reports
``ntcf-run`` and ``dssp-run`` print.  A refactor that
changes no seeded output leaves every digest as it is; a change that alters
an RNG draw order on purpose must say so and record the new digest here.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from qdepthlab import game, ntcf, oracles
from qdepthlab.cli import main

PAIRS = [(a, o) for a in game.STRATEGIES_A for o in game.STRATEGIES_O]

GAME_CONFIGS = {
    "inplace": dict(n=3, d=2, q=3, t_parallel=6, seed=101),
    "inplace-answer": dict(n=3, d=2, q=3, t_parallel=6, alpha=0.9, seed=102),
    "inplace-prp": dict(n=3, d=2, q=3, t_parallel=6, alpha=0.5, seed=103,
                        oracle_mode="prp"),
    "standard": dict(n=3, d=2, q=5, t_parallel=6, alpha=0.5, seed=104,
                     target="standard"),
    "gadget": dict(n=3, d=2, q=3, fidelity="gadget", seed=105),
    "gadget-answer": dict(n=3, d=2, q=3, fidelity="gadget", alpha=0.9, seed=106),
}


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _instances(prover_a):
    """Support of each of A's sparse instances, in order."""
    if prover_a.instances is None:
        return "none"
    return json.dumps([sorted(st.support) for st in prover_a.instances])


def _protocol_case(name):
    cfg = game.ProtocolConfig(**GAME_CONFIGS[name])
    parts = []
    for k, (sa, so) in enumerate(PAIRS):
        for r in range(2):
            rng = game.trial_rng(cfg.seed, 2 * k + r)
            oracle = game.make_oracle(cfg, rng) if cfg.fidelity == "abstract" else None
            a = game.STRATEGIES_A[sa](cfg)
            o = game.STRATEGIES_O[so](cfg)
            verdict, tr = game.run_query_protocol(cfg, a, o, oracle, rng)
            parts += [sa, so, verdict, tr.to_json(), _instances(a)]
    return _digest(parts)


def _single_round_case(name):
    cfg = game.ProtocolConfig(**GAME_CONFIGS[name])
    parts = []
    for kind in ("comp", "xtest", "ztest", "rigid"):
        for sa, so in [("honest", "honest"), ("lying", "honest"),
                       ("classical", "honest"), ("basis-swap", "honest"),
                       ("honest", "pauli-x"), ("honest", "pauli-z")]:
            for seed in range(2):
                verdict, run = game.run_single_round(cfg, kind, sa, so, seed=seed)
                parts += [kind, sa, so, str(verdict), run.transcript.to_json(),
                          _instances(run.a)]
    return _digest(parts)


def _estimate_case():
    parts = []
    for kw, (sa, so) in [
        (dict(n=2, d=1, q=2, t_parallel=4, seed=31), ("honest", "honest")),
        (dict(n=2, d=1, q=2, t_parallel=4, alpha=0.9, seed=32), ("lying", "honest")),
        (dict(n=2, d=1, q=2, fidelity="gadget", seed=33), ("honest", "pauli-x")),
    ]:
        cfg = game.ProtocolConfig(**kw, trials=100)
        rep, _ = game.run_trials(cfg, sa, so)
        # the key set of the retired single-shot estimator
        res = {k: rep[k] for k in ("strategy_a", "strategy_o", "trials",
                                   "accepted", "p_hat", "ci95")}
        res["max_audited_depth"] = max(rep["audited_depths"])
        parts.append(json.dumps(res, sort_keys=True))
    return _digest(parts)


def _cvqd2_case():
    parts = []
    for target in ("inplace", "standard"):
        for sa in ("honest", "lying", "reset"):
            for repeat in (1, 2):
                # q is the access model's query count at d=1
                cfg = game.ProtocolConfig(n=2, d=1, q=2 if target == "inplace" else 3,
                                          target=target, trials=12, seed=41,
                                          t_parallel=4, alpha=0.5)
                rep, _ = game.run_trials(cfg, sa, "honest", repeat=repeat)
                # the key set of the retired repetition runner
                res = {k: rep[k] for k in (
                    "repeat", "strategy_a", "strategy_o", "trials", "accepted",
                    "p_hat", "ci95", "audited_depths", "expected_honest_depth")}
                res.update({k: rep["config"][k] for k in ("n", "d", "q", "target")})
                parts.append(json.dumps(res, sort_keys=True))
    return _digest(parts)


def _ntcf_case():
    parts = []
    for name in sorted(ntcf.PROVERS):
        for t in range(25):
            verdict, run = ntcf.run_cvqd(2, ntcf.PROVERS[name](), game.trial_rng(9, t),
                                         n=3)
            parts += [name, verdict, json.dumps(run.to_json(), sort_keys=True),
                      json.dumps(run.responses)]
    for mode in ("guess", "planted"):
        parts.append(json.dumps(
            ntcf.extractor_experiment(2, 60, rng_seed=11, n=3, mode=mode),
            sort_keys=True))
    return _digest(parts)


def _dssp_case():
    parts = []
    for n, mode, access in [(3, "exact", "inplace"), (5, "prp", "inplace"),
                            (3, "exact", "standard")]:
        for t in range(4):
            rng = game.trial_rng(51, t)
            simon = oracles.sample_simon(n, rng)
            oracle = oracles.sample_shuffling(simon, 2, rng, mode=mode)
            if access == "inplace":
                s_hat, trace, stats = oracles.solve_inplace_dssp(
                    oracles.build_inplace(oracle, rng), rng)
            else:
                s_hat, trace, stats = oracles.solve_standard_dssp(oracle, rng)
            parts += [access, json.dumps(s_hat), json.dumps(stats, sort_keys=True),
                      trace.to_json()]
    return _digest(parts)


def _cli_case(commands):
    """What ``main`` prints for each command, aggregation included."""
    parts = []
    for command in commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(command.split()) == 0
        parts.append(buf.getvalue())
    return _digest(parts)


CLI_COMMANDS = {
    "ntcf-run": ["ntcf-run --trials 40 --seed 3 --extract",
                 "ntcf-run --trials 40 --seed 3 --extract --prover reset-planted",
                 "ntcf-run --trials 40 --seed 5 --prover preimage-only --n 3 --d 2"],
    "dssp-run": ["dssp-run --runs 6 --seed 2",
                 "dssp-run --runs 6 --seed 2 --access standard --mode prp"],
}

CASES = {
    **{f"protocol:{name}": (lambda name=name: _protocol_case(name))
       for name in GAME_CONFIGS},
    **{f"single-round:{name}": (lambda name=name: _single_round_case(name))
       for name in ("inplace", "standard", "gadget")},
    "estimate-acceptance": _estimate_case,
    "run-cvqd2": _cvqd2_case,
    "ntcf": _ntcf_case,
    "dssp": _dssp_case,
    **{f"cli:{name}": (lambda name=name: _cli_case(CLI_COMMANDS[name]))
       for name in CLI_COMMANDS},
}

GOLDEN = {
    "cli:dssp-run": "ba1ac648981ce763acad291f01c277d799bc7d0d18fbdcdfdc1e4033aa0f40c3",
    "cli:ntcf-run": "25d8626387dddaf1aa7b5d554e1270449ebf4775f026ceccc8b12ae4afedbcdc",
    "dssp": "649a6db50da6bc388f0c1a5da2204e79d886a9dd12918dd0c786e47ea502d24e",
    "estimate-acceptance": "68d5b51023a5be67ce6d582fb6ff5050e9d0673d7523fe8b32149b5558f3d111",
    "ntcf": "b593c529f4eaff331972569fda176ce310c02f825c1855ea3a55061b79d4799a",
    "protocol:gadget": "4ea08d44cbe42351b464622ffdfa024d78f2540c20db1a971f21e62c6f82122e",
    "protocol:gadget-answer": "0008143231c8da5ae546e332c3fb64cd597401ce5b34e9f20b3706332343ac07",
    "protocol:inplace": "009ee46054744874f4adf49e1b3a1a27b32a826978c8ae9e29f8d58507805d63",
    "protocol:inplace-answer": "7408d6cb66e43f6e4ace4124caa781573a9b1a13aee25b768c98e6b356cd0b04",
    "protocol:inplace-prp": "7b7be4f64d22007b02486d872f4909fdb630e0e7f0e24aac098ad929f55490f2",
    "protocol:standard": "fa9c7a81c717a8e42c4a4e58a71dbdf18c6d6e6bb3e46220dee485652d7d802a",
    "run-cvqd2": "637627bf0ef71f7b2ff4d70728ca8103005cda429e74ae91d0c27f0bc4b189c3",
    "single-round:gadget": "d4e569a4bae77f37503348c3f3a3895e054ff5afa59460a41bfec6bc97ce7f93",
    "single-round:inplace": "c20c28d069ebb153986490787cbc5b7a39d9c36b457d6483878b4b9b1491a9ff",
    "single-round:standard": "0b64c5d6041a435fb324a8fd41fa4a8265a76553227ac8360fcfb84e635d8983",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert CASES[case]() == GOLDEN[case]
