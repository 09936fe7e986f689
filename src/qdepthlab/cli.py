"""Command-line harness: experiment runners with reproducible seeds.

Configuration comes from an optional flat key=value file plus CLI flags
(flags win).  All outputs are JSON on stdout; transcripts and manifests go
to --outdir when given.  Exit codes: 0 success, 2 assertion or acceptance
failure, 3 configuration error, 4 capacity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import typing

import numpy as np

from .errors import CapacityError, ConfigError, QDepthError
from . import gadgets, game, ntcf, oracles, qsim
from .gadgets import RoundType
from .hybrid import audited_depth


def load_config_file(path):
    """Flat key=value lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError([f"bad config line: {line!r}"])
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def _config_field_types():
    """Each ProtocolConfig field's value type, ``int`` for ``int | None``."""
    hints = typing.get_type_hints(game.ProtocolConfig)
    out = {}
    for f in dataclasses.fields(game.ProtocolConfig):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        out[f.name] = args[0] if args else hints[f.name]
    return out


def build_protocol_config(args):
    """ProtocolConfig from the --config file's keys, overridden by the flags."""
    base = {}
    if getattr(args, "config", None):
        base = load_config_file(args.config)
    types = _config_field_types()
    violations = [f"unknown config key {key!r}" for key in base if key not in types]
    kw = {}
    for name, kind in types.items():
        if name in base:
            try:
                kw[name] = kind(base[name])
            except ValueError:
                violations.append(
                    f"config key {name!r}: {base[name]!r} is not {kind.__name__}")
        flag = getattr(args, name, None)
        if flag is not None:
            kw[name] = flag
    if violations:
        raise ConfigError(violations)
    return game.ProtocolConfig(**kw)


def require_at_least(args, **minimums):
    """ConfigError naming every numeric flag below its minimum."""
    violations = [f"need {name} >= {low}, got {getattr(args, name)}"
                  for name, low in minimums.items() if getattr(args, name) < low]
    if violations:
        raise ConfigError(violations)


def emit(result, args=None):
    print(json.dumps(result, indent=2, sort_keys=True))
    outdir = getattr(args, "outdir", None) if args else None
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)


def write_manifest(args, cfg_json, oracle_descriptor=None):
    outdir = getattr(args, "outdir", None)
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": cfg_json,
        "seed": cfg_json.get("seed"),
        "oracle_descriptor_hash": (
            hashlib.sha256(oracle_descriptor.encode()).hexdigest()
            if oracle_descriptor else None
        ),
        "output": os.path.join(outdir, "report.json"),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# gadget-check
# ---------------------------------------------------------------------------


def cmd_gadget_check(args):
    require_at_least(args, trials=1)
    rng = np.random.default_rng(args.seed)
    report = {"checks": []}
    failures = 0

    m = gadgets.h_sequence_matrix()
    ok = np.allclose(m, np.exp(1j * np.pi / 4) * qsim.H, atol=1e-12)
    report["checks"].append({"name": "h_compile_identity", "pass": bool(ok)})
    failures += not ok

    ok = True
    for trial in range(3):
        psi = qsim.random_state(1, rng)
        for a, b, z in itertools.product((0, 1), repeat=3):
            for c, e in itertools.product((0, 1), repeat=2):
                st = qsim.StateVector(1, np.linalg.matrix_power(qsim.X, a)
                                      @ np.linalg.matrix_power(qsim.Z, b) @ psi)
                ledger = gadgets.KeyLedger.with_keys([[a, b]])
                try:
                    _, _, out, ledger = gadgets.run_t_gadget(
                        st, 0, RoundType.COMPUTATION, "computation", z, rng,
                        ledger=ledger, force=(c, e))
                except QDepthError:
                    continue
                a2, b2 = ledger.keys[0]
                want = (np.linalg.matrix_power(qsim.X, a2)
                        @ np.linalg.matrix_power(qsim.Z, b2) @ qsim.T @ psi)
                if not qsim.states_equal_up_to_phase(out.amplitudes, want):
                    ok = False
    report["checks"].append({"name": "t_gadget_exhaustive", "pass": bool(ok)})
    failures += not ok

    if args.planted_attack:
        pauli, wire = args.planted_attack.split(":")
        wire = int(wire)
        n_wires = 2
        op = qsim.PauliOp(
            n_wires,
            (1 << (n_wires - 1 - wire)) if pauli.upper() == "X" else 0,
            (1 << (n_wires - 1 - wire)) if pauli.upper() == "Z" else 0,
        )
        ex, ez = gadgets.measure_test_failure_rates(
            [("T", 0)], n_wires, op, args.trials, rng)
        report["checks"].append({
            "name": f"planted_attack_{pauli}:{wire}",
            "xtest_rejection": ex, "ztest_rejection": ez,
            "pass": True,
        })

    if args.twirl:
        worst = _twirl_max_deviation(args.twirl, args.trials, rng)
        ok = worst < 1e-9
        report["checks"].append({
            "name": f"twirl_n{args.twirl}", "max_deviation": worst,
            "pass": bool(ok)})
        failures += not ok

    report["pass"] = failures == 0
    emit(report, args)
    return 0 if failures == 0 else 2


def _twirl_probe_states(n):
    single = [
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
        np.full((2, 2), 0.5, dtype=complex),
        np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    ]
    if n == 1:
        return single
    out = []
    for combo in itertools.product(single, repeat=n):
        rho = combo[0]
        for extra in combo[1:]:
            rho = np.kron(rho, extra)
        out.append(rho)
    return out


def _twirl_max_deviation(n, trials, rng):
    """Largest entry gap between the twirl of ``trials`` random n-qubit
    channels and their Pauli channels, over product probe states."""
    worst = 0.0
    for _ in range(trials):
        kraus = qsim.random_cptp(n, rng)
        r = qsim.twirl(kraus, n)
        for basis in _twirl_probe_states(n):
            lhs = qsim.twirled_channel_apply(kraus, n, basis)
            rhs = qsim.pauli_channel_apply(r, basis)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def cmd_twirl_check(args):
    require_at_least(args, n=1, trials=1)
    worst = _twirl_max_deviation(args.n, args.trials,
                                 np.random.default_rng(args.seed))
    result = {"n": args.n, "trials": args.trials, "max_deviation": worst,
              "pass": worst < 1e-9}
    emit(result, args)
    return 0 if result["pass"] else 2


# ---------------------------------------------------------------------------
# simon / dssp-run
# ---------------------------------------------------------------------------


def cmd_simon(args):
    require_at_least(args, n=2, samples=1)
    rng = np.random.default_rng(args.seed)
    shifts = {}
    for _ in range(args.samples):
        f = oracles.sample_simon(args.n, rng)
        if args.verify:
            f.check_two_to_one()
        shifts[f.s] = shifts.get(f.s, 0) + 1
    k = (1 << args.n) - 1
    expected = args.samples / k
    chi2 = sum((shifts.get(s, 0) - expected) ** 2 / expected
               for s in range(1, 1 << args.n))
    result = {"n": args.n, "samples": args.samples, "distinct_shifts": len(shifts),
              "chi2": chi2, "dof": k - 1, "verified": bool(args.verify)}
    emit(result, args)
    return 0


def cmd_dssp_run(args):
    require_at_least(args, n=2, d=1, runs=1)
    rng = np.random.default_rng(args.seed)
    simon = oracles.sample_simon(args.n, rng)
    shuffling = oracles.sample_shuffling(simon, args.d, rng, mode=args.mode)
    recovered = 0
    depths = set()
    accepted_frac = []
    for run_idx in range(args.runs):
        run_rng = qsim.trial_rng(args.seed, run_idx)
        if args.access == "inplace":
            ipo = oracles.build_inplace(shuffling, run_rng)
            s_hat, trace, stats = oracles.solve_inplace_dssp(ipo, run_rng)
            accepted_frac.append(stats["accepted"] / max(1, stats["runs"]))
        else:
            s_hat, trace, stats = oracles.solve_standard_dssp(shuffling, run_rng)
        recovered += s_hat == simon.s
        depths.add(audited_depth(trace))
    result = {
        "n": args.n, "d": args.d, "mode": args.mode, "access": args.access,
        "runs": args.runs, "recovery_rate": recovered / args.runs,
        "audited_depth": sorted(depths),
        "expected_depth": args.d + 3 if args.access == "inplace" else 2 * args.d + 3,
    }
    if accepted_frac:
        result["flag_accept_fraction"] = float(np.mean(accepted_frac))
    write_manifest(args, {k: getattr(args, k) for k in (
        "n", "d", "mode", "access", "runs", "seed")}, shuffling.descriptor())
    emit(result, args)
    ok = result["recovery_rate"] >= args.min_rate
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# game-run / ntcf-run
# ---------------------------------------------------------------------------


def cmd_game_run(args):
    violations = []
    if args.strategy_a not in game.STRATEGIES_A:
        violations.append(f"unknown strategy-a {args.strategy_a!r}")
    if args.strategy_o not in game.STRATEGIES_O:
        violations.append(f"unknown strategy-o {args.strategy_o!r}")
    if violations:
        raise ConfigError(violations)
    cfg = build_protocol_config(args).validate()
    result, transcripts = game.run_trials(
        cfg, args.strategy_a, args.strategy_o, trials=args.trials,
        seed=args.seed, repeat=args.repeat, jobs=args.jobs)
    write_manifest(args, result["config"])
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for i, tr in enumerate(transcripts):
            with open(os.path.join(args.outdir, f"transcript_{i}.json"), "w") as fh:
                fh.write(tr)
    emit(result, args)
    return 0


def cmd_ntcf_run(args):
    require_at_least(args, n=2, trials=1)
    accepted = 0
    depths = set()
    for t in range(args.trials):
        rng = qsim.trial_rng(args.seed, t)
        prover = ntcf.PROVERS[args.prover]()
        verdict, run = ntcf.run_cvqd(args.d, prover, rng, n=args.n)
        accepted += verdict == "accept"
        if run.audited_depth is not None:
            depths.add(run.audited_depth)
    result = {
        "d": args.d, "d0": ntcf.D0_DEFAULT, "n": args.n, "prover": args.prover,
        "trials": args.trials, "accept_rate": accepted / args.trials,
        "audited_depths": sorted(depths),
    }
    if args.extract:
        result["extractor"] = ntcf.extractor_experiment(
            args.d, args.trials, rng_seed=args.seed, n=args.n,
            mode="planted" if args.prover == "reset-planted" else "guess")
    emit(result, args)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdepthlab",
        description="Desk-scale experiments for verifying quantum circuit depth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gadget-check", help="exhaustive gadget/key-table checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--planted-attack", default=None, metavar="P:WIRE")
    p.add_argument("--twirl", type=int, default=None, metavar="N")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_gadget_check)

    p = sub.add_parser("twirl-check", help="twirled channel vs Pauli channel")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_twirl_check)

    p = sub.add_parser("simon", help="sample and verify hidden-shift functions")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_simon)

    p = sub.add_parser("dssp-run", help="run the depth-budgeted solvers")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--mode", choices=("exact", "prp"), default="exact")
    p.add_argument("--access", choices=("inplace", "standard"), default="inplace")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--min-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_dssp_run)

    p = sub.add_parser("game-run", help="two-prover protocol Monte Carlo")
    p.add_argument("--config", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--target", choices=("inplace", "standard"), default=None)
    p.add_argument("--fidelity", choices=("abstract", "gadget"), default=None)
    p.add_argument("--oracle-mode", dest="oracle_mode",
                   choices=("exact", "prp"), default=None)
    p.add_argument("--strategy-a", default="honest")
    p.add_argument("--strategy-o", default="honest")
    p.add_argument("--t-parallel", dest="t_parallel", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_game_run)

    p = sub.add_parser("ntcf-run", help="single-prover claw-free protocol")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--prover", default="honest", choices=sorted(ntcf.PROVERS))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--extract", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_ntcf_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "violations": exc.violations}),
              file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(json.dumps({"error": "capacity", "detail": str(exc)}),
              file=sys.stderr)
        return 4
    except QDepthError as exc:
        print(json.dumps({"error": "failure", "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
