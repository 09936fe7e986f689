"""Command-line harness: exit codes, determinism, config handling."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdepthlab import game, ntcf, qsim
from qdepthlab.cli import main

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


def validate(doc, schema_name):
    """Check a JSON artefact against its schema under docs/schemas."""
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.Draft202012Validator(schema).validate(doc)


def run_cli(args):
    """Invoke the CLI in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_gadget_check_passes():
    code, out = run_cli(["gadget-check", "--trials", "5"])
    assert code == 0
    report = json.loads(out)
    validate(report, "gadget_check_report.v1.schema.json")
    assert report["pass"] is True


def test_gadget_check_fails_without_the_kernels_correction(monkeypatch):
    """The check runs the referee's own gadget: with its S^-1 correction
    taken out, the exhaustive check fails."""
    second_half = game.gadget_second_half
    monkeypatch.setattr(game, "gadget_second_half",
                        lambda apply_gate, *args: second_half(lambda *gate: None, *args))
    code, out = run_cli(["gadget-check", "--trials", "1"])
    assert code == 2
    report = json.loads(out)
    validate(report, "gadget_check_report.v1.schema.json")
    check = next(c for c in report["checks"] if c["name"] == "t_gadget_exhaustive")
    assert check["pass"] is False and report["pass"] is False


def test_gadget_check_planted_attack_rates():
    code, out = run_cli(["gadget-check", "--planted-attack", "X:1",
                         "--trials", "60"])
    assert code == 0
    report = json.loads(out)
    validate(report, "gadget_check_report.v1.schema.json")
    attack = next(c for c in report["checks"]
                  if c["name"].startswith("planted_attack"))
    assert attack["xtest_rejection"] == 1.0
    assert attack["ztest_rejection"] == 0.0


@pytest.mark.parametrize("spec", ["X:0", "X:1", "Z:0", "Z:1"])
def test_gadget_check_planted_attack_passes_on_exact_rates(spec):
    """An X attack fails every X test and no Z test, a Z attack the reverse."""
    code, out = run_cli(["gadget-check", "--planted-attack", spec, "--trials", "20"])
    assert code == 0
    report = json.loads(out)
    validate(report, "gadget_check_report.v1.schema.json")
    attack = next(c for c in report["checks"]
                  if c["name"].startswith("planted_attack"))
    rates = (1.0, 0.0) if spec[0] == "X" else (0.0, 1.0)
    assert (attack["xtest_rejection"], attack["ztest_rejection"]) == rates
    assert report["pass"] is True


@pytest.mark.parametrize("spec, rates", [
    ("X:0", (0.95, 0.0)), ("X:1", (1.0, 0.05)), ("Z:0", (0.0, 0.9)),
    ("Z:1", (1.0, 0.0)),
])
def test_gadget_check_planted_attack_fails_on_other_rates(spec, rates, monkeypatch):
    """Rates other than the exact ones an attack gives fail the check."""
    monkeypatch.setattr(game, "attack_failure_rates", lambda *args: rates)
    code, out = run_cli(["gadget-check", "--planted-attack", spec, "--trials", "5"])
    assert code == 2
    report = json.loads(out)
    validate(report, "gadget_check_report.v1.schema.json")
    attack = next(c for c in report["checks"]
                  if c["name"].startswith("planted_attack"))
    assert attack["pass"] is False and report["pass"] is False


@pytest.mark.parametrize("spec", ["Q:1", "Y:0", "X:99", "X", "X:\u00b2", ""])
def test_gadget_check_bad_planted_attack_is_config_error(spec, capsys):
    """Only X or Z on a wire in [0, 2) is an attack the check can plant; a
    superscript digit is a digit to ``str.isdigit`` but not a number, and an
    empty spec plants nothing rather than skipping the check."""
    assert main(["gadget-check", "--planted-attack", spec, "--trials", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_twirl_check_within_tolerance():
    code, out = run_cli(["twirl-check", "--n", "1", "--trials", "10"])
    assert code == 0
    report = json.loads(out)
    validate(report, "twirl_check_report.v1.schema.json")
    assert report["max_deviation"] < 1e-9 and report["pass"] is True


def test_simon_command():
    code, out = run_cli(["simon", "--n", "4", "--samples", "60", "--verify"])
    assert code == 0
    report = json.loads(out)
    validate(report, "simon_report.v1.schema.json")
    assert report["verified"] and report["distinct_shifts"] <= 15


def test_dssp_run_reports_depth():
    code, out = run_cli(["dssp-run", "--n", "3", "--d", "2", "--runs", "4",
                         "--min-rate", "0.5"])
    assert code == 0
    report = json.loads(out)
    validate(report, "dssp_report.v1.schema.json")
    assert report["audited_depth"] == [5]
    assert report["recovery_rate"] >= 0.5


def test_dssp_run_manifest_records_config(tmp_path):
    outdir = tmp_path / "runs"
    code, out = run_cli(["dssp-run", "--n", "3", "--d", "1", "--access", "standard",
                         "--runs", "2", "--seed", "6", "--outdir", str(outdir)])
    assert code == 0
    validate(json.loads(out), "dssp_report.v1.schema.json")
    manifest = json.loads((outdir / "manifest.json").read_text())
    validate(manifest, "manifest.v1.schema.json")
    assert manifest["config"] == {"n": 3, "d": 1, "mode": "exact",
                                  "access": "standard", "runs": 2, "seed": 6}


def test_dssp_run_runs_below_one_is_config_error():
    """--runs 0 has no recovery rate to report."""
    assert main(["dssp-run", "--runs", "0"]) == 3


@pytest.mark.parametrize("argv", [
    ["ntcf-run", "--trials", "0"],
    ["ntcf-run", "--n", "1"],
    ["ntcf-run", "--d", "0"],
    ["ntcf-run", "--d", "-1"],
    ["simon", "--samples", "0"],
    ["simon", "--n", "1"],
    ["twirl-check", "--trials", "0"],
    ["twirl-check", "--n", "0"],
    ["gadget-check", "--trials", "0"],
    ["game-run", "--trials", "0"],
    ["dssp-run", "--d", "0"],
    ["dssp-run", "--n", "1"],
    # a recovery-rate bound below 0 passes vacuously, above 1 or nan never
    *(["dssp-run", "--min-rate", rate] for rate in ("-5", "7", "nan")),
    *([cmd, "--seed", "-1"] for cmd in ("gadget-check", "twirl-check", "simon",
                                        "dssp-run", "game-run", "ntcf-run")),
], ids=lambda argv: "_".join(arg.removeprefix("--") for arg in argv))
def test_count_below_minimum_is_config_error(argv, capsys):
    """A run over nothing, or over a range the solvers cannot take, is a
    config error (exit 3), not a crash, a vacuous pass or a lab failure."""
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_game_run_names_every_floor_in_one_config_error(capsys):
    """--trials 0 with --q 0 reports both floors, not q alone."""
    assert main(["game-run", "--trials", "0", "--q", "0"]) == 3
    assert json.loads(capsys.readouterr().err)["violations"] == [
        "q must be >= 1", "trials must be >= 1"]


def test_game_run_and_determinism(tmp_path):
    args = ["game-run", "--n", "3", "--d", "2", "--q", "3", "--trials", "60",
            "--seed", "5", "--t-parallel", "8"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports from identical (config, seed)


def test_game_run_jobs_invariance(tmp_path):
    """The report and the three transcripts are the same at any --jobs."""
    base = ["game-run", "--n", "3", "--d", "2", "--q", "3", "--trials", "40",
            "--seed", "11", "--t-parallel", "8"]
    runs = []
    for jobs in ("1", "2"):
        outdir = tmp_path / jobs
        code, out = run_cli(base + ["--jobs", jobs, "--outdir", str(outdir)])
        assert code == 0
        runs.append([out] + [(outdir / f"transcript_{i}.json").read_text()
                             for i in range(3)])
    assert runs[0] == runs[1]


# small passing runs of every subcommand
_OUTDIR_RUNS = {
    "gadget-check": ["--trials", "1"],
    "twirl-check": ["--n", "1", "--trials", "2"],
    "simon": ["--n", "2", "--samples", "2"],
    "ntcf-run": ["--n", "2", "--d", "1", "--trials", "1"],
    "dssp-run": ["--n", "2", "--d", "1", "--runs", "1"],
    "game-run": ["--n", "2", "--d", "1", "--q", "2", "--trials", "2", "--t-parallel", "2"],
}


@pytest.mark.parametrize("command", sorted(_OUTDIR_RUNS))
def test_outdir_holds_exactly_the_command_artefacts(command, tmp_path):
    """Every command writes report.json to --outdir; only dssp-run and
    game-run add a run manifest, and only game-run its transcripts."""
    code, _ = run_cli([command, *_OUTDIR_RUNS[command], "--outdir", str(tmp_path)])
    assert code == 0
    want = {"report.json"}
    if command in ("dssp-run", "game-run"):
        want.add("manifest.json")
    if command == "game-run":
        want |= {"transcript_0.json", "transcript_1.json"}
    assert {p.name for p in tmp_path.iterdir()} == want


def test_game_run_writes_manifest_and_transcripts(tmp_path):
    outdir = tmp_path / "runs"
    code, out = run_cli(["game-run", "--n", "3", "--d", "2", "--q", "3",
                         "--trials", "3", "--seed", "2", "--t-parallel", "8",
                         "--outdir", str(outdir)])
    assert code == 0
    validate(json.loads(out), "game_report.v1.schema.json")
    manifest = json.loads((outdir / "manifest.json").read_text())
    validate(manifest, "manifest.v1.schema.json")
    assert manifest["command"] == "game-run"
    t0 = json.loads((outdir / "transcript_0.json").read_text())
    assert t0["verdict"] in ("accept", "reject")
    assert {m["kind"] for m in t0["messages"]} >= {"SetupSets", "BasisList"}
    for i in range(3):
        validate(json.loads((outdir / f"transcript_{i}.json").read_text()),
                 "transcript.v1.schema.json")


def test_game_run_repeat_keeps_config(tmp_path):
    """With --repeat the report runs the user's q, as the manifest records."""
    outdir = tmp_path / "runs"
    code, out = run_cli(["game-run", "--n", "2", "--d", "1", "--q", "1",
                         "--repeat", "2", "--trials", "20",
                         "--outdir", str(outdir)])
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert json.loads(out)["config"]["q"] == manifest["config"]["q"] == 1


def test_game_run_repeat_honours_jobs_and_outdir(tmp_path):
    """--repeat runs the same report at any --jobs and writes transcripts."""
    base = ["game-run", "--n", "2", "--d", "1", "--q", "2", "--repeat", "2",
            "--trials", "30", "--seed", "3"]
    outdir = tmp_path / "runs"
    code1, out1 = run_cli(base + ["--jobs", "1"])
    code2, out2 = run_cli(base + ["--jobs", "2", "--outdir", str(outdir)])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out2)
    assert report["repeat"] == 2
    validate(report, "game_report.v1.schema.json")
    for i in range(3):
        validate(json.loads((outdir / f"transcript_{i}.json").read_text()),
                 "transcript.v1.schema.json")


def test_invalid_strategy_name_is_config_error(capsys):
    code = main(["game-run", "--strategy-a", "nope", "--trials", "100"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["ntcf-run", "--prover", "nope"],
    ["dssp-run", "--mode", "nope"],
    ["game-run", "--target", "nope"],
    ["game-run", "--n", "x"],
    ["simon", "--bogus", "1"],
], ids=lambda argv: "_".join(arg.removeprefix("--") for arg in argv))
def test_usage_error_is_config_error(argv, capsys):
    """A flag the parser refuses is a config error (exit 3) with the usual
    JSON on stderr and nothing on stdout, not argparse's exit 2."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "config"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["game-run", "--help"])
    assert exc.value.code == 0
    assert "--strategy-a" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--d", "20"], ["--d", "41", "--oracle-mode", "prp"]])
def test_game_run_over_wide_oracle_chain_is_config_error(argv, capsys):
    """A 66-bit exact or 129-bit prp chain (n=3) is refused (exit 3) when
    the config is built, not by the first trial's oracle."""
    assert main(["game-run", "--n", "3", "--q", "3", "--trials", "2", *argv]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_game_run_repeat_below_one_is_config_error():
    """--repeat 0 would play no stream and accept every trial."""
    assert main(["game-run", "--repeat", "0", "--trials", "5"]) == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 3\nd = 2\nq = 3\ntrials = 30\n# comment\nseed = 4\n")
    code, out = run_cli(["game-run", "--config", str(cfg), "--trials", "25",
                         "--t-parallel", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["trials"] == 25          # flag wins
    assert report["config"]["n"] == 3      # file supplies the rest


def test_config_file_sets_every_config_field(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 2\nd = 1\nq = 2\nt_parallel = 5\nalpha = 0.5\n"
                   "oracle_mode = prp\n")
    code, out = run_cli(["game-run", "--config", str(cfg), "--trials", "4"])
    assert code == 0
    report = json.loads(out)["config"]
    assert (report["t_parallel"], report["alpha"], report["oracle_mode"]) == (5, 0.5, "prp")


# settings that are constants of the game module, not config keys, each at
# the value a game of the file's config runs with
RETIRED_KEYS = ["p = 0.3333333333333333", "alpha_c = 0.5", "m = 3528",
                "standin_wires = 2", "block_margin = 20", "rigid_exact_tol = 0.25",
                "rigid_chsh_min = 1.8", "rigid_min_samples = 4",
                "rigid_pool_floor = 240", "width_factor = 3"]


@pytest.mark.parametrize("line", ["trails = 7", "n = three", "n = 4", *RETIRED_KEYS])
def test_config_file_bad_key_or_value_is_config_error(tmp_path, line, capsys):
    """An unknown key, a value of the wrong type or a key the file sets a
    second time exits 3 naming the key."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n = 2\nd = 1\nq = 2\n{line}\n")
    assert main(["game-run", "--config", str(cfg), "--trials", "4"]) == 3
    key = line.split(" = ")[0]
    assert any(repr(key) in v for v in json.loads(capsys.readouterr().err)["violations"])


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_is_config_error(tmp_path, kind, capsys):
    """A --config path that is missing, a directory or not UTF-8 text exits
    3 naming the path, before anything runs."""
    path = tmp_path / "exp.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"n = 2\n# \xff\xfe\n")
    code, out = run_cli(["game-run", "--config", str(path), "--trials", "4"])
    assert (code, out) == (3, "")
    [violation] = json.loads(capsys.readouterr().err)["violations"]
    assert repr(str(path)) in violation


def test_outdir_naming_a_file_is_config_error(tmp_path, capsys):
    """An --outdir that names an existing file exits 3 before the command
    runs: nothing on stdout, and the file is left as it was."""
    path = tmp_path / "taken"
    path.write_text("kept")
    code, out = run_cli(["simon", "--n", "2", "--samples", "2", "--outdir", str(path)])
    assert (code, out) == (3, "")
    [violation] = json.loads(capsys.readouterr().err)["violations"]
    assert repr(str(path)) in violation
    assert path.read_text() == "kept"


def test_config_file_negative_seed_is_config_error(tmp_path, capsys):
    """A seed below 0 from a --config file exits 3 naming it, as --seed -1
    does."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 2\nd = 1\nq = 2\nseed = -3\n")
    assert main(["game-run", "--config", str(cfg), "--trials", "4"]) == 3
    assert json.loads(capsys.readouterr().err)["violations"] == ["seed must be >= 0"]


@pytest.mark.parametrize("line", ["t_parallel = -1", "t_parallel = 0"])
def test_config_file_without_standin_wire_or_instance_is_config_error(tmp_path, line):
    """Below one instance of prover A a game cannot run: exit 3, not a crash
    or a run that answers at chance."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n = 2\nd = 1\nq = 2\n{line}\n")
    assert main(["game-run", "--config", str(cfg), "--trials", "4"]) == 3


def test_gadget_game_runs_at_any_n():
    """Gadget fidelity simulates no instances, so a large n leaves its
    pool as small as at n = 2."""
    code, out = run_cli(["game-run", "--n", "100", "--d", "1", "--q", "1",
                         "--fidelity", "gadget", "--trials", "2"])
    assert code == 0
    report = json.loads(out)
    validate(report, "game_report.v1.schema.json")
    assert report["config"]["m"] == 244


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    code = main(["game-run", "--config", str(cfg)])
    assert code == 3


def test_ntcf_run_with_extractor():
    code, out = run_cli(["ntcf-run", "--d", "2", "--trials", "120",
                         "--prover", "honest", "--extract"])
    assert code == 0
    report = json.loads(out)
    validate(report, "ntcf_report.v1.schema.json")
    assert report["accept_rate"] == 1.0
    assert report["audited_depths"] == [16]
    ex = report["extractor"]
    assert ex["both_valid_rate"] >= ex["p0"] + ex["p1"] - 1 - 3 * 0.05


def _graded_keys(monkeypatch):
    """Per trial of ``ntcf-run --extract`` at seed 3, d=3, n=4: the Feistel
    keys of the protocol run and of the extractor's replay."""
    protocol, extractor = [], []
    run_cvqd, rewind_extract = ntcf.run_cvqd, ntcf.rewind_extract

    def record_run(*args, **kw):
        verdict, run = run_cvqd(*args, **kw)
        protocol.append([k.perm.key for k in run.keys])
        return verdict, run

    def record_replay(prover, *args, **kw):
        out = rewind_extract(prover, *args, **kw)
        extractor.append([k.perm.key for k in prover.keys])
        return out
    monkeypatch.setattr(ntcf, "run_cvqd", record_run)
    monkeypatch.setattr(ntcf, "rewind_extract", record_replay)
    code, _ = run_cli(["ntcf-run", "--trials", "20", "--seed", "3", "--d", "3",
                       "--n", "4", "--extract"])
    assert code == 0 and len(protocol) == len(extractor) == 20
    return list(zip(protocol, extractor))


def _fresh_keys(pairs):
    """No key the extractor grades in a trial is a protocol key of it."""
    return all(not set(ext) & set(prot) for prot, ext in pairs)


def test_ntcf_run_extractor_grades_fresh_keys(monkeypatch):
    """The extractor's replay of trial t continues stream t after the
    protocol run, so its d+1 keys are not the protocol's."""
    assert _fresh_keys(_graded_keys(monkeypatch))


def test_ntcf_run_extractor_key_check_fails_on_shared_streams(monkeypatch):
    """Planted: replaying trial t from a fresh ``trial_rng(seed, t)``, as a
    second loop over the protocol's streams would, regrades the protocol's
    keys, and the check above fails."""
    replay, trial = ntcf.extractor_replay, iter(range(20))
    monkeypatch.setattr(ntcf, "extractor_replay",
                        lambda rng, *args: replay(qsim.trial_rng(3, next(trial)), *args))
    assert not _fresh_keys(_graded_keys(monkeypatch))


def test_ntcf_run_over_cap_claw_state_is_capacity_error(capsys):
    """An honest prover at n = 30 would need 2^31 claw entries: refused
    (exit 4) before any is built.  The preimage-only prover builds no claw
    state, so the same size runs."""
    assert main(["ntcf-run", "--n", "30", "--trials", "1"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "capacity"
    code, out = run_cli(["ntcf-run", "--n", "30", "--trials", "1",
                         "--prover", "preimage-only"])
    assert code == 0
    validate(json.loads(out), "ntcf_report.v1.schema.json")


@pytest.mark.parametrize("prover", sorted(ntcf.PROVERS))
@pytest.mark.parametrize("n", ["64", "100", "128", "129"])
def test_ntcf_run_over_63_bit_keys_is_capacity_error(n, prover, capsys):
    """Claw-free keys stop at 63 bits, the widest shift the generator
    draws: every prover is refused (exit 4) with nothing on stdout."""
    assert main(["ntcf-run", "--n", n, "--trials", "1", "--prover", prover]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "capacity"


def test_dssp_run_over_wide_prp_chain_is_capacity_error(capsys):
    """A 129-bit prp chain (n=3, d=41) is refused (exit 4) before a trial
    runs: its Feistel halves would outgrow the round values."""
    assert main(["dssp-run", "--mode", "prp", "--n", "3", "--d", "41",
                 "--runs", "1"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "capacity"


@pytest.mark.parametrize("command", ["simon", "dssp-run"])
@pytest.mark.parametrize("n", ["64", "100"])
def test_simon_tables_over_20_bits_are_capacity_error(n, command, capsys):
    """Hidden-shift tables stop at n = 20; wider ones are refused (exit 4)
    with nothing on stdout before a shift is drawn, also where the shift
    would not fit numpy's int64."""
    assert main([command, "--n", n]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "capacity"


def test_prp_chain_runs_at_the_128_bit_cap():
    """At n=4 a prp chain of d=30 fills the 128-bit Feistel cap and both
    commands run on it; d=31 is refused by dssp-run's oracle (exit 4) and by
    game-run's config check (exit 3)."""
    dssp = ["dssp-run", "--mode", "prp", "--n", "4", "--runs", "1"]
    game_run = ["game-run", "--oracle-mode", "prp", "--n", "4", "--q", "3",
                "--trials", "2"]
    for argv, over_code in [(dssp, 4), (game_run, 3)]:
        code, out = run_cli(argv + ["--d", "30"])
        assert code == 0
        validate(json.loads(out), _REPORT_SCHEMAS[argv[0]])
        assert run_cli(argv + ["--d", "31"]) == (over_code, "")


@pytest.mark.parametrize("n", ["4", "20"])
def test_twirl_check_over_cap_is_capacity_error(n, capsys):
    """The dense twirl stops at three qubits; a larger --n is refused (exit
    4) before any channel is drawn, however large it is."""
    assert main(["twirl-check", "--n", n, "--trials", "1"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "capacity"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qdepthlab.cli", "twirl-check", "--trials", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_pins_blas_threads_unless_the_user_set_them():
    """Importing the CLI sets each BLAS thread variable to 1 where it is
    unset, before anything imports numpy; a value the user set wins."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["OMP_NUM_THREADS"] = "3"
    code = ("import os, sys, qdepthlab; numpy_early = 'numpy' in sys.modules; "
            "import qdepthlab.cli; "
            f"print(numpy_early, *(os.environ.get(v) for v in {names!r}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "1", "3", "1"]


# -- the exit-code and schema contract over edge values ------------------------

_COUNTS = st.sampled_from([-1, 0, 1, 2])
_D = st.sampled_from([-1, 0, 1, 2, 11])     # d = 11 widens exact tables past the cap
_REPORT_SCHEMAS = {
    "gadget-check": "gadget_check_report.v1.schema.json",
    "twirl-check": "twirl_check_report.v1.schema.json",
    "simon": "simon_report.v1.schema.json",
    "dssp-run": "dssp_report.v1.schema.json",
    "game-run": "game_report.v1.schema.json",
    "ntcf-run": "ntcf_report.v1.schema.json",
}


def _sizes(over_cap):
    """Edge values of an n, and one past the command's capacity cap (20 for
    hidden-shift tables, 19 for claw states), refused before it allocates."""
    return st.sampled_from([-1, 0, 1, 2, 3, over_cap])


def _command(name, required, optional):
    """argv for ``name``: every required flag and any of the optional ones,
    each with a drawn value; a value of True is a bare switch."""
    def argv(flags):
        out = [name]
        for flag, value in flags.items():
            out += [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
        return out
    return st.fixed_dictionaries(required, optional=optional).map(argv)


_SEEDS = st.sampled_from([-1, 0, 1])

# counts of work are always drawn, so that no example runs a default-sized
# run; --jobs above 1 would spawn worker processes and is left out
_ARGV = st.one_of(
    _command("gadget-check", {"trials": _COUNTS},
             {"planted-attack": st.sampled_from(["X:0", "Z:1", "X:2", "Y:0"]),
              "seed": _SEEDS}),
    _command("twirl-check", {"trials": _COUNTS},
             {"n": st.sampled_from([-1, 0, 1, 2, qsim.TWIRL_MAX_QUBITS + 1]),
              "seed": _SEEDS}),
    _command("simon", {"samples": _COUNTS},
             {"n": _sizes(21), "verify": st.just(True), "seed": _SEEDS}),
    _command("dssp-run", {"runs": _COUNTS},
             {"n": _sizes(21), "d": _D, "mode": st.sampled_from(["exact", "prp"]),
              "access": st.sampled_from(["inplace", "standard"]),
              "min-rate": st.sampled_from([0.0, 1.0]), "seed": _SEEDS}),
    _command("game-run", {"trials": _COUNTS},
             {"n": _sizes(21), "d": _D, "q": st.sampled_from([-1, 0, 1, 2, 3]),
              "target": st.sampled_from(["inplace", "standard"]),
              "fidelity": st.sampled_from(["abstract", "gadget"]),
              "oracle-mode": st.sampled_from(["exact", "prp"]),
              "strategy-a": st.sampled_from([*game.STRATEGIES_A, "nope"]),
              "strategy-o": st.sampled_from([*game.STRATEGIES_O, "nope"]),
              "t-parallel": _COUNTS, "repeat": _COUNTS, "seed": _SEEDS}),
    _command("ntcf-run", {"trials": _COUNTS},
             {"n": _sizes(20), "d": st.sampled_from([-1, 0, 1, 2]),
              "prover": st.sampled_from(sorted(ntcf.PROVERS)),
              "extract": st.just(True), "seed": _SEEDS}),
)


@settings(max_examples=100, deadline=None)
@given(argv=_ARGV)
@example(argv=["simon", "--samples", "1", "--n", "64"])
@example(argv=["dssp-run", "--runs", "1", "--n", "64"])
@example(argv=["gadget-check", "--trials", "1", "--planted-attack", "X:\u00b2"])
def test_cli_exit_codes_and_artefacts_over_edge_values(argv):
    """Over 0, 1, negative and over-capacity values of every subcommand's
    flags, ``main`` exits 0, 2, 3 or 4, never with a traceback; what it
    prints and every file it writes validates against its schema."""
    with tempfile.TemporaryDirectory() as outdir:
        code, out = run_cli(argv + ["--outdir", outdir])
        assert code in (0, 2, 3, 4)
        if code == 0 or out:
            validate(json.loads(out), _REPORT_SCHEMAS[argv[0]])
        for path in pathlib.Path(outdir).iterdir():
            kind = path.stem.split("_")[0]      # report, manifest or transcript_<i>
            validate(json.loads(path.read_text()),
                     _REPORT_SCHEMAS[argv[0]] if kind == "report"
                     else f"{kind}.v1.schema.json")
