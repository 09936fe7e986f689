"""Referee benchmark for qdepthlab.

Usage, from the root of a checkout:

    python3 bench/run.py --workload game-abstract --seed 1 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``; metric names, units and bounds
are read from ``BENCHMARK.json``, and ``design.json`` records which
end-to-end metric each per-layer metric should move.
One process runs one workload, single-threaded, with ``--jobs 1`` semantics.
A run repeats one fixed block of trials (trials ``0 .. block-1`` of the seed,
round-robin over the workload's cells) in rounds until ``--seconds`` is used
up, at least three times; every round must reproduce the same outputs.

Trial times are reported at a reference host speed.  A fixed speed probe,
sharing no code with qdepthlab, runs before every trial.  The host slowdown
is the probe time of the trials around it over REFERENCE_PROBE_S, and each
trial's time is divided by ``slowdown ** e``, where ``e`` is the workload's
speed exponent: the log-log slope of its trial time against the probe time,
measured on a host whose speed varied (``workloads.py``).  This keeps figures
comparable on a shared host whose speed drifts by a third or more for tens
of seconds at a time.  So ``trials_per_s`` is not completed trials per
wall-clock second; the report gives that as ``wall_trials_per_s``, next to
the raw figures.

``--trace 0`` measures the end-to-end metrics.  Set-up is timed first, as
raw wall time of fresh processes.  Each trial is then timed by its median
round, which does not drift with the number of rounds that fit; the latency
percentiles are Harrell-Davis estimates over those times.

``--trace 1`` measures the per-layer metrics instead.  Rounds alternate
untraced and traced.  Counts come from the block; ``*.ms`` is the median
over traced rounds of the summed self time.  The tracing overhead is the
traced over the untraced summed trial time.  The first traced round's spans
are written to ``.bench_out/``.

Every trial's outputs are checked.  The second-to-last stdout line is a
report (all metrics with units, error rate, output digest, per-cell
acceptance with Wilson intervals, provenance); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Keep numpy's BLAS to one thread: the benchmark measures one single-threaded
# process, and a thread pool would compete with it for the same cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
ROUNDS_MIN = 3
FAILURES_SHOWN = 5
# Host speed is read from a fixed probe run before every trial.  Timings are
# reported at the reference speed, on which the probe takes REFERENCE_PROBE_S
# (the probe's typical time on the 2-core x86-64 host of the first baseline).
REFERENCE_PROBE_S = 5e-4
PROBE_WINDOW = 15
# Latency percentiles are those of a 199-trial sample, in which the 95th
# percentile has ten trials beyond it.
QUANTILE_SAMPLE = 199


_PROBE_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def speed_probe():
    """Time a fixed mix of small numpy gate applications, a dict rebuild and
    an integer loop: the kinds of work a trial does.

    It shares no code with qdepthlab, so a change to the library cannot move
    it, while the host's speed (a busy sibling hyperthread, frequency steps)
    moves both.  How much a slowdown of the probe slows a trial differs by
    workload; ``workloads.WORKLOADS`` holds each workload's exponent.
    """
    start = time.perf_counter()
    psi = np.ones(8, dtype=complex)
    for _ in range(25):
        psi = np.transpose(psi.reshape(2, 2, 2), (1, 0, 2)).reshape(2, -1)
        psi = (_PROBE_GATE @ psi).reshape(-1)
    support = {(i * 37) % 1021: 0.5 + 0j for i in range(400)}
    for _ in range(3):
        support = {k ^ 5: v for k, v in support.items()}
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    return time.perf_counter() - start


def slowdowns(probes):
    """Per trial: the median probe time of the trials around it over the
    reference probe time (above 1 when the host ran slower)."""
    half = PROBE_WINDOW // 2
    return [statistics.median(probes[max(0, i - half): i + half + 1])
            / REFERENCE_PROBE_S for i in range(len(probes))]


def hd_quantile(values, p, size=QUANTILE_SAMPLE):
    """Harrell-Davis quantile ``p`` at sample size ``size``: the expected
    ``p``-quantile of ``size`` trials drawn from ``values``, a beta-weighted
    mean of the order statistics.

    Latencies form steps (a test at round 1, 2 or 3; a rigidity or a Pauli
    test), and in game-gadget a step edge sits at the median by construction.
    The plain median jumps across it as the branch mix of a seed shifts by a
    percent; this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (size + 1), (1 - p) * (size + 1)
    mid = (np.arange(n) + 0.5) / n       # midpoint rule for the beta weights
    log_w = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    w = np.exp(log_w - log_w.max())
    return float(w @ x / w.sum())


def import_library():
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    package = SRC / "qdepthlab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no qdepthlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdepthlab

    if Path(qdepthlab.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported qdepthlab from {qdepthlab.__file__}, "
                 f"not from {package}")


# ---------------------------------------------------------------------------
# Running trials
# ---------------------------------------------------------------------------


class Rounds:
    """Repeated passes over one fixed block of trials.

    Every round runs trials ``0 .. block-1`` of the seed, so every round
    must produce the same records; the latencies of a trial across rounds
    differ only by the host's speed at the time, which the speed probe
    before each trial measures.  A trial's time at the reference speed is
    its time over ``slowdown ** exponent``.
    """

    def __init__(self, cells, seed, block, exponent):
        self.cells, self.seed, self.block = cells, seed, block
        self.exponent = exponent
        self.latency_s = []       # per round: per-trial latencies
        self.slowdown = []        # per round: per-trial host slowdown
        self.round_s = []         # per round: wall time
        self.digests = []         # per round: digest of the trial records
        self.records = None       # first round's records
        self.failures = []
        self.failed = 0
        self.artefacts = {}       # cell name -> (artefact, schema), first trial

    @property
    def attempted(self):
        return self.block * len(self.round_s)

    def run(self, tracer):
        records, latency, probes = [], [], []
        start = time.perf_counter()
        for t in range(self.block):
            probes.append(speed_probe())
            latency.append(self._trial(t, tracer, records))
        self.round_s.append(time.perf_counter() - start)
        self.latency_s.append(latency)
        self.slowdown.append(slowdowns(probes))
        h = hashlib.sha256()
        for rec in records:
            h.update(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
        self.digests.append(h.hexdigest())
        if self.records is None:
            self.records = records
        return self.round_s[-1]

    def _trial(self, t, tracer, records):
        cell = self.cells[t % len(self.cells)]
        tracer.trial = t
        start = time.perf_counter()
        try:
            out = cell.run(self.seed, t, tracer)
        except Exception as exc:  # a lab bug shows as a failed trial
            elapsed = time.perf_counter() - start
            self._fail(t, cell, f"{type(exc).__name__}: {exc}")
            records.append([cell.name, "raised", type(exc).__name__, False])
            return elapsed
        elapsed = time.perf_counter() - start
        records.append([cell.name, *out.record, bool(out.success)])
        if out.problems:
            self._fail(t, cell, "; ".join(out.problems))
        if out.artefact is not None and cell.name not in self.artefacts:
            self.artefacts[cell.name] = (out.artefact, out.schema)
        return elapsed

    def _fail(self, t, cell, message):
        self.failed += 1
        if len(self.failures) < FAILURES_SHOWN:
            self.failures.append(f"trial {t} ({cell.name}): {message}")

    def round_slowdown(self, i):
        return statistics.median(self.slowdown[i])

    def at_reference(self, i):
        """Round ``i``'s trial times at the reference speed."""
        return [lat / slow ** self.exponent
                for lat, slow in zip(self.latency_s[i], self.slowdown[i])]

    def trial_s(self, i):
        """Summed trial time of round ``i`` at the reference speed."""
        return sum(self.at_reference(i))

    def trial_latency_s(self, normalized=True):
        """Each trial's median time over the rounds, by default at the
        reference speed."""
        per_round = self.latency_s
        if normalized:
            per_round = [self.at_reference(i) for i in range(len(per_round))]
        return [statistics.median(runs) for runs in zip(*per_round)]

    def acceptance(self):
        """Per-cell success rate over the block, with a Wilson 95% interval."""
        from qdepthlab.game import wilson_interval

        out = {}
        for name in dict.fromkeys(cell.name for cell in self.cells):
            flags = [rec[-1] for rec in self.records if rec[0] == name]
            phat, lo, hi = wilson_interval(sum(flags), len(flags))
            out[name] = {"trials": len(flags), "accepted": sum(flags),
                         "p_hat": phat, "ci95": [lo, hi]}
        return out


def run_rounds(seconds, one_round):
    """Call ``one_round`` at least ROUNDS_MIN times, then while another call
    of the mean length still fits in ``seconds``; returns the time taken."""
    start = time.perf_counter()
    done = 0
    while True:
        one_round()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= ROUNDS_MIN and elapsed * (done + 1) / done > seconds:
            return elapsed


# ---------------------------------------------------------------------------
# Set-up, provenance and schema checks
# ---------------------------------------------------------------------------


def measure_setup(workload):
    """Wall time from spawning a fresh process to it being ready to run,
    for each of SETUP_PROBES processes."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--setup-only"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        out.append(elapsed)
    return out


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_head():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    h = hashlib.sha256()
    for path in sorted((SRC / "qdepthlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_head(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def validate_artefacts(artefacts):
    """Validate the first transcript or trace of each cell against its schema.

    Without jsonschema the check cannot run, and the run counts as wrong.
    """
    try:
        import jsonschema
    except ImportError:
        problem = "schema check not run: jsonschema is not installed"
        return {"validated": [], "problems": [problem]}, [problem]
    problems = []
    schemas = {}
    for cell, (artefact, schema_name) in artefacts.items():
        if schema_name not in schemas:
            schema = json.loads((SCHEMAS / schema_name).read_text())
            schemas[schema_name] = jsonschema.Draft202012Validator(schema)
        errors = list(schemas[schema_name].iter_errors(
            json.loads(artefact.to_json())))
        if errors:
            problems.append(f"{cell}: {schema_name}: {errors[0].message}")
    return {"validated": sorted(artefacts), "problems": problems}, problems


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, cells, block, exponent):
    from tracer import NullTracer

    setup = measure_setup(args.workload)
    load_start = loadavg()
    rounds = Rounds(cells, args.seed, block, exponent)
    tracer = NullTracer()
    elapsed = run_rounds(args.seconds, lambda: rounds.run(tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    load_end = loadavg()

    def timings(latency_s):
        ms = [x * 1e3 for x in latency_s]
        p95 = hd_quantile(ms, 0.95)
        return {
            "trials_per_s": metric(len(ms) / (sum(ms) / 1e3), "1/s"),
            "trial_ms_p50": metric(hd_quantile(ms, 0.5), "ms"),
            "trial_ms_p95": metric(p95, "ms"),
        }, sum(1 for x in ms if x > p95)

    # The host's speed drifts by up to a half for tens of seconds at a time,
    # so each trial is timed at the reference speed.
    metrics, tail = timings(rounds.trial_latency_s())
    metrics["setup_s"] = metric(statistics.median(setup), "s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    raw, _ = timings(rounds.trial_latency_s(normalized=False))
    schema_report, schema_problems = validate_artefacts(rounds.artefacts)
    problems = schema_problems + determinism_problems(rounds)
    report = {
        "workload": args.workload,
        "mode": "untraced",
        "metrics": metrics,
        "error_rate": metric(rounds.failed / rounds.attempted, "ratio"),
        "attempted": rounds.attempted,
        "block_trials": block,
        "rounds": len(rounds.round_s),
        "round_s": rounds.round_s,
        "wall_trials_per_s": rounds.attempted / elapsed,
        "host_slowdown": [rounds.round_slowdown(i) for i in range(len(rounds.round_s))],
        "speed_exponent": exponent,
        "raw_metrics": raw,
        "latency_samples": block,
        "p95_tail_samples": tail,
        "setup_probes_s": setup,
        "outputs_sha256": rounds.digests[0],
        "acceptance": rounds.acceptance(),
        "failures": (rounds.failures + problems)[:FAILURES_SHOWN],
        "schema_validation": schema_report,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "provenance": provenance(args.seed),
    }
    correct = rounds.failed == 0 and not problems
    return report, correct, rounds.attempted, rounds.failed, metrics


def determinism_problems(rounds):
    if len(set(rounds.digests)) == 1:
        return []
    return ["repeated rounds of the same trials gave different outputs"]


def layer_value(name, tracer, divisor):
    if name == "oracles.solve.flag_accept_ratio":
        runs = tracer.counters["oracles.solve.invocations"]
        return tracer.counters["oracles.solve.samples"] / runs if runs else 0.0
    base, _, kind = name.rpartition(".")
    if kind == "calls":
        return tracer.calls[base]
    if kind == "ms":
        return tracer.self_ns[base] / 1e6 / divisor
    return tracer.counters[name]


def run_traced(args, cells, block, exponent):
    from tracer import NullTracer, Tracer

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_defs = [m for m in benchmark["per_layer"] if m["name"] != "trace.overhead"]
    load_start = loadavg()
    rounds = Rounds(cells, args.seed, block, exponent)
    tracer = Tracer()
    untraced_s, traced_s, per_round = [], [], []
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"

    def pair():
        # an untraced and a traced round of the same trials, back to back
        rounds.run(NullTracer())
        untraced_s.append(rounds.trial_s(-1))
        tracer.reset()
        with tracer.installed():
            rounds.run(tracer)
        traced_s.append(rounds.trial_s(-1))
        divisor = rounds.round_slowdown(-1) ** exponent
        per_round.append({m["name"]: layer_value(m["name"], tracer, divisor)
                          for m in layer_defs})
        if len(traced_s) == 1:
            tracer.write(trace_file)
            first_calls.update(sorted(tracer.calls.items()))

    first_calls = {}
    run_rounds(args.seconds, pair)
    problems = determinism_problems(rounds)
    metrics = {}
    for m in layer_defs:
        values = [r[m["name"]] for r in per_round]
        if m["unit"] == "ms":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"{m['name']} differs between identical rounds")
        metrics[m["name"]] = metric(value, m["unit"])
    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics["trace.overhead"] = metric(overhead, "x")
    report = {
        "workload": args.workload,
        "mode": "traced",
        "metrics": metrics,
        "error_rate": metric(rounds.failed / rounds.attempted, "ratio"),
        "attempted": rounds.attempted,
        "block_trials": block,
        "traced_rounds": len(traced_s),
        "untraced_trial_s": untraced_s,
        "traced_trial_s": traced_s,
        "speed_exponent": exponent,
        "span_calls": first_calls,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "outputs_sha256": rounds.digests[0],
        "failures": (rounds.failures + problems)[:FAILURES_SHOWN],
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "provenance": provenance(args.seed),
    }
    correct = rounds.failed == 0 and not problems
    return report, correct, rounds.attempted, rounds.failed, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="block size instead of the workload's own; for quick "
                        "checks of the benchmark itself")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    factory, block, exponent = workloads.WORKLOADS[args.workload]
    cells = factory()
    block = args.trials or block
    if args.setup_only:
        print("ready", flush=True)
        return 0
    run = run_traced if args.trace else run_untraced
    report, correct, attempted, failed, metrics = run(args, cells, block, exponent)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
