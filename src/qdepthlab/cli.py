"""Command-line harness: experiment runners with reproducible seeds.

Configuration comes from an optional flat key=value file plus CLI flags
(flags win).  All outputs are JSON on stdout; transcripts and manifests go
to --outdir when given.  Exit codes: 0 success, 2 assertion or acceptance
failure, 3 configuration error (a usage error included), 4 capacity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import typing

# Keep numpy's BLAS to one thread unless the user set otherwise: the
# simulator's many small matrix products run erratic and far slower on a
# thread pool.  Set before numpy is imported (the package __init__ does not
# import it); run_streams' worker processes inherit the settings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

from .errors import CapacityError, ConfigError, QDepthError
from . import gadgets, game, ntcf, oracles, qsim
from .hybrid import audited_depth


def load_config_file(path):
    """The (key, value) pairs of flat key=value lines, in file order; '#'
    starts a comment.  A file that cannot be read as UTF-8 text is a
    ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc.strerror}"]) from None
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config file {path!r} is not UTF-8: {exc.reason}"]) from None
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"bad config line: {line!r}"])
        out.append(tuple(part.strip() for part in line.split("=", 1)))
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
    pairs = load_config_file(args.config) if getattr(args, "config", None) else []
    base = dict(pairs)
    types = _config_field_types()
    violations = [f"unknown config key {key!r}" for key in base if key not in types]
    keys = [key for key, _ in pairs]
    violations += [f"config key {key!r} set more than once"
                   for key in base if keys.count(key) > 1]
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


def emit(result, args):
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.outdir:
        with open(os.path.join(args.outdir, "report.json"), "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)


def write_manifest(args, cfg_json, oracle_descriptor=None):
    outdir = args.outdir
    if not outdir:
        return
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
    require_at_least(args, trials=1, seed=0)
    n_wires = game.STANDIN_WIRES
    attack = (None if args.planted_attack is None
              else _planted_attack(args.planted_attack, n_wires))
    rng = np.random.default_rng(args.seed)
    report = {"checks": []}
    failures = 0

    m = gadgets.h_sequence_matrix()
    ok = np.allclose(m, np.exp(1j * np.pi / 4) * qsim.H, atol=1e-12)
    report["checks"].append({"name": "h_compile_identity", "pass": bool(ok)})
    failures += not ok

    # the referee's T-gadget kernel on every branch of three random states:
    # all 32 computation branches of each can occur, 16 X-test even and
    # 32 Z-test odd ones
    comp, n_x, n_z, worst = game.t_gadget_exhaustion(
        [qsim.random_state(1, rng) for _ in range(3)])
    ok = comp == [32] * 3 and (n_x, n_z) == (16, 32) and worst >= 1 - 1e-9
    report["checks"].append({"name": "t_gadget_exhaustive", "pass": bool(ok)})
    failures += not ok

    if attack:
        pauli, wire = attack
        bit = 1 << (n_wires - 1 - wire)
        op = qsim.PauliOp(n_wires, bit if pauli == "X" else 0, bit if pauli == "Z" else 0)
        cfg = game.ProtocolConfig(fidelity="gadget")
        ex, ez = game.attack_failure_rates(cfg, qsim.PauliDistribution({op: 1.0}),
                                           args.trials, args.seed)
        # a bit flip on a wire fails every X test and no Z test; a phase
        # flip the other way round
        ok = (ex, ez) == ((1.0, 0.0) if pauli == "X" else (0.0, 1.0))
        report["checks"].append({
            "name": f"planted_attack_{pauli}:{wire}",
            "xtest_rejection": ex, "ztest_rejection": ez,
            "pass": ok,
        })
        failures += not ok

    report["pass"] = failures == 0
    emit(report, args)
    return 0 if failures == 0 else 2


def _planted_attack(spec, n_wires):
    """Parse a ``P:WIRE`` spec: P is X or Z, WIRE a wire in [0, n_wires)."""
    pauli, sep, wire = spec.partition(":")
    if (not sep or pauli.upper() not in ("X", "Z")
            or not wire.isdecimal() or int(wire) >= n_wires):
        raise ConfigError([f"--planted-attack needs X:WIRE or Z:WIRE with WIRE in "
                           f"[0, {n_wires}), got {spec!r}"])
    return pauli.upper(), int(wire)


def cmd_twirl_check(args):
    require_at_least(args, n=1, trials=1, seed=0)
    if args.n > qsim.TWIRL_MAX_QUBITS:
        raise CapacityError(f"twirl-check needs --n <= {qsim.TWIRL_MAX_QUBITS}")
    worst = qsim.twirl_max_deviation(args.n, args.trials,
                                     np.random.default_rng(args.seed))
    result = {"n": args.n, "trials": args.trials, "max_deviation": worst,
              "pass": worst < 1e-9}
    emit(result, args)
    return 0 if result["pass"] else 2


# ---------------------------------------------------------------------------
# simon / dssp-run
# ---------------------------------------------------------------------------


def cmd_simon(args):
    require_at_least(args, n=2, samples=1, seed=0)
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
    require_at_least(args, n=2, d=1, runs=1, seed=0)
    if not 0 <= args.min_rate <= 1:
        raise ConfigError([f"need 0 <= min_rate <= 1, got {args.min_rate}"])
    rng = np.random.default_rng(args.seed)
    simon = oracles.sample_simon(args.n, rng)
    shuffling = oracles.sample_shuffling(simon, args.d, rng, mode=args.mode)

    def play(rng, stream):
        if args.access == "inplace":
            s_hat, trace, stats = oracles.solve_inplace_dssp(
                oracles.build_inplace(shuffling, rng), rng)
            accepted_frac = stats["accepted"] / max(1, stats["runs"])
        else:
            s_hat, trace, _ = oracles.solve_standard_dssp(shuffling, rng)
            accepted_frac = None
        return s_hat == simon.s, audited_depth(trace), accepted_frac
    recovered, depths, accepted_fracs = qsim.run_streams(play, args.seed, args.runs, 1, 1)
    result = {
        "n": args.n, "d": args.d, "mode": args.mode, "access": args.access,
        "runs": args.runs, "recovery_rate": recovered / args.runs,
        "audited_depth": sorted(depths),
        "expected_depth": args.d + 3 if args.access == "inplace" else 2 * args.d + 3,
    }
    if accepted_fracs:
        result["flag_accept_fraction"] = float(np.mean(accepted_fracs))
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
    cfg = build_protocol_config(args)
    result, transcripts = game.run_trials(
        cfg, args.strategy_a, args.strategy_o, repeat=args.repeat, jobs=args.jobs)
    write_manifest(args, result["config"])
    if args.outdir:
        for i, tr in enumerate(transcripts):
            with open(os.path.join(args.outdir, f"transcript_{i}.json"), "w") as fh:
                fh.write(tr)
    emit(result, args)
    return 0


def cmd_ntcf_run(args):
    require_at_least(args, n=2, d=1, trials=1, seed=0)
    mode = "planted" if args.prover == "reset-planted" else "guess"

    def play(rng, stream):
        """Protocol trial ``stream``; with --extract, the extractor's replay
        then continues the same stream, so it grades fresh keys."""
        verdict, run = ntcf.run_cvqd(args.d, ntcf.PROVERS[args.prover](), rng, n=args.n)
        replay = ntcf.extractor_replay(rng, args.d, args.n, mode) if args.extract else None
        return verdict == "accept", run.audited_depth, replay
    accepted, depths, replays = qsim.run_streams(play, args.seed, args.trials, 1, 1)
    result = {
        "d": args.d, "d0": ntcf.D0_DEFAULT, "n": args.n, "prover": args.prover,
        "trials": args.trials, "accept_rate": accepted / args.trials,
        "audited_depths": sorted(depths),
    }
    if args.extract:
        result["extractor"] = ntcf.extractor_rates(replays)
    emit(result, args)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors (exit 3), not
    argparse's exit 2, which the harness keeps for failed checks."""

    def error(self, message):
        raise ConfigError([f"{self.prog}: {message}"])


def build_parser():
    parser = _Parser(
        prog="qdepthlab",
        description="Desk-scale experiments for verifying quantum circuit depth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gadget-check", help="H compilation and every branch of the "
                                            "referee's T-gadget kernel")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--planted-attack", default=None, metavar="P:WIRE")
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
    try:
        args = build_parser().parse_args(argv)
        # made before the command runs, so a path it cannot take costs no run
        if args.outdir:
            try:
                os.makedirs(args.outdir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(
                    [f"cannot make --outdir {args.outdir!r}: {exc.strerror}"]) from None
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
