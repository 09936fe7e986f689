"""Command-line harness: exit codes, determinism, config handling."""

import json
import pathlib
import subprocess
import sys

import jsonschema
import pytest

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
    assert report["pass"] is True


def test_gadget_check_planted_attack_rates():
    code, out = run_cli(["gadget-check", "--planted-attack", "X:1",
                         "--trials", "60"])
    assert code == 0
    report = json.loads(out)
    attack = next(c for c in report["checks"]
                  if c["name"].startswith("planted_attack"))
    assert attack["xtest_rejection"] == 1.0
    assert attack["ztest_rejection"] == 0.0


def test_gadget_check_twirl():
    code, out = run_cli(["gadget-check", "--twirl", "1", "--trials", "5"])
    assert code == 0
    report = json.loads(out)
    twirl = next(c for c in report["checks"] if c["name"] == "twirl_n1")
    assert twirl["pass"] is True and twirl["max_deviation"] < 1e-9
    assert report["pass"] is True


def test_twirl_check_within_tolerance():
    code, out = run_cli(["twirl-check", "--n", "1", "--trials", "10"])
    assert code == 0
    assert json.loads(out)["max_deviation"] < 1e-9


def test_simon_command():
    code, out = run_cli(["simon", "--n", "4", "--samples", "60", "--verify"])
    assert code == 0
    report = json.loads(out)
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
    assert manifest["config"] == {"n": 3, "d": 1, "mode": "exact",
                                  "access": "standard", "runs": 2, "seed": 6}


def test_dssp_run_runs_below_one_is_config_error():
    """--runs 0 has no recovery rate to report."""
    assert main(["dssp-run", "--runs", "0"]) == 3


@pytest.mark.parametrize("argv", [
    ["ntcf-run", "--trials", "0"],
    ["ntcf-run", "--n", "1"],
    ["simon", "--samples", "0"],
    ["simon", "--n", "1"],
    ["twirl-check", "--trials", "0"],
    ["twirl-check", "--n", "0"],
    ["gadget-check", "--trials", "0"],
    ["game-run", "--trials", "0"],
    ["dssp-run", "--d", "0"],
    ["dssp-run", "--n", "1"],
], ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_count_below_minimum_is_config_error(argv, capsys):
    """A run over nothing, or over a range the solvers cannot take, is a
    config error (exit 3), not a crash, a vacuous pass or a lab failure."""
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_game_run_and_determinism(tmp_path):
    args = ["game-run", "--n", "3", "--d", "2", "--q", "3", "--trials", "60",
            "--seed", "5", "--t-parallel", "8"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports from identical (config, seed)


def test_game_run_jobs_invariance():
    base = ["game-run", "--n", "3", "--d", "2", "--q", "3", "--trials", "40",
            "--seed", "11", "--t-parallel", "8"]
    _, out1 = run_cli(base + ["--jobs", "1"])
    _, out2 = run_cli(base + ["--jobs", "2"])
    assert json.loads(out1)["accepted"] == json.loads(out2)["accepted"]


def test_game_run_writes_manifest_and_transcripts(tmp_path):
    outdir = tmp_path / "runs"
    code, out = run_cli(["game-run", "--n", "3", "--d", "2", "--q", "3",
                         "--trials", "3", "--seed", "2", "--t-parallel", "8",
                         "--outdir", str(outdir)])
    assert code == 0
    validate(json.loads(out), "game_report.v1.schema.json")
    manifest = json.loads((outdir / "manifest.json").read_text())
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
                   "width_factor = 3\n")
    code, out = run_cli(["game-run", "--config", str(cfg), "--trials", "4"])
    assert code == 0
    report = json.loads(out)["config"]
    assert (report["t_parallel"], report["alpha"], report["width_factor"]) == (5, 0.5, 3)


@pytest.mark.parametrize("line", ["trails = 7", "n = three"])
def test_config_file_bad_key_or_value_is_config_error(tmp_path, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"n = 2\nd = 1\nq = 2\n{line}\n")
    assert main(["game-run", "--config", str(cfg), "--trials", "4"]) == 3


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


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qdepthlab.cli", "twirl-check", "--trials", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
