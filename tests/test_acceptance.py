"""Acceptance criteria for the whole lab, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s to see them
live).  Tolerances are the contract; the seeds only freeze the Monte Carlo
draws for reproducibility.
"""

import itertools
import time
from collections import defaultdict

import numpy as np
import pytest

from qdepthlab import gadgets, game, ntcf, oracles, qsim
from qdepthlab.errors import DepthBudgetExceeded
from qdepthlab.gadgets import KeyLedger, RoundType
from qdepthlab.hybrid import DQC, HybridSession, audited_depth
from qdepthlab.qsim import PauliDistribution, SparseState, StateVector


def report(number, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def seeded(tag, t=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=tag,
                                                        spawn_key=(t,)))


def test_criterion_01_h_compilation_identity():
    t0 = time.perf_counter()
    m = gadgets.h_sequence_matrix()
    ok = np.allclose(m, np.exp(1j * np.pi / 4) * qsim.H, atol=1e-12)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    report(1, ok and elapsed_ms < 50,
           f"HTTHTTHTTH = e^(i pi/4) H within 1e-12 ({elapsed_ms:.3f} ms)")


def test_criterion_02_t_gadget_exhaustion():
    rng = seeded(2)
    t0 = time.perf_counter()
    worst = 1.0
    for _ in range(10):
        psi = qsim.random_state(1, rng)
        for a, b, z in itertools.product((0, 1), repeat=3):
            for c, e in itertools.product((0, 1), repeat=2):
                st = StateVector(1, np.linalg.matrix_power(qsim.X, a)
                                 @ np.linalg.matrix_power(qsim.Z, b) @ psi)
                ledger = KeyLedger.with_keys([[a, b]])
                try:
                    _, _, out, ledger = gadgets.run_t_gadget(
                        st, 0, RoundType.COMPUTATION, "computation", z, rng,
                        ledger=ledger, force=(c, e))
                except Exception:
                    continue
                a2, b2 = ledger.keys[0]
                want = (np.linalg.matrix_power(qsim.X, a2)
                        @ np.linalg.matrix_power(qsim.Z, b2) @ qsim.T @ psi)
                worst = min(worst, qsim.fidelity(out.amplitudes, want))
    # X-test even and Z-test odd rows act as the identity up to keys
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    for a, b, z in itertools.product((0, 1), repeat=3):
        for c, e in itertools.product((0, 1), repeat=2):
            st = StateVector.from_bits([a])
            ledger = KeyLedger.with_keys([[a, b]])
            try:
                _, _, out, ledger = gadgets.run_t_gadget(
                    st, 0, RoundType.XTEST, "even", z, rng,
                    ledger=ledger, force=(c, e))
            except Exception:
                continue
            want = np.zeros(2, dtype=complex)
            want[ledger.keys[0][0]] = 1
            worst = min(worst, qsim.fidelity(out.amplitudes, want))
            st = StateVector(1, np.linalg.matrix_power(qsim.X, a)
                             @ np.linalg.matrix_power(qsim.Z, b) @ plus)
            ledger2 = KeyLedger.with_keys([[a, b]])
            try:
                _, _, out, ledger2 = gadgets.run_t_gadget(
                    st, 0, RoundType.ZTEST, "odd", z, rng,
                    ledger=ledger2, force=(c, e))
            except Exception:
                continue
            want = (np.linalg.matrix_power(qsim.Z, ledger2.keys[0][1]) @ plus)
            worst = min(worst, qsim.fidelity(out.amplitudes, want))
    elapsed = time.perf_counter() - t0
    report(2, worst >= 1 - 1e-9 and elapsed < 5,
           f"gadget outputs match the key table, min fidelity {worst:.2e} "
           f"({elapsed:.1f} s)")


def test_criterion_03_pauli_twirl():
    rng = seeded(3)
    t0 = time.perf_counter()
    probes1 = [np.diag([1.0, 0.0]).astype(complex),
               np.diag([0.0, 1.0]).astype(complex),
               np.full((2, 2), 0.5, dtype=complex),
               np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)]
    probes2 = [np.kron(a, b) for a, b in itertools.product(probes1, repeat=2)]
    worst = 0.0
    for n, probes, count in ((1, probes1, 25), (2, probes2, 25)):
        for _ in range(count):
            kraus = qsim.random_cptp(n, rng)
            r = qsim.twirl(kraus, n)
            for rho in probes:
                lhs = qsim.twirled_channel_apply(kraus, n, rho)
                rhs = qsim.pauli_channel_apply(r, rho)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-9 and elapsed < 30,
           f"50 random CPTP maps twirl to Pauli channels, max dev {worst:.2e} "
           f"({elapsed:.1f} s)")


def test_criterion_04_test_round_pauli_relations():
    rng = seeded(4)
    t0 = time.perf_counter()
    ops = {op.label(): op for op in qsim.all_paulis(2)}
    r = PauliDistribution({
        ops["I.I"]: 0.70, ops["X.I"]: 0.10, ops["I.Z"]: 0.12, ops["X.Z"]: 0.08,
    })
    trials = 5000
    eps_x, eps_z = gadgets.measure_test_failure_rates(
        [("T", 0)], 2, r, trials, rng)
    x_clean = r.marginal_weight(lambda op: op.x_bits == 0)   # = 1 - eps_X
    z_clean = r.marginal_weight(lambda op: op.z_bits == 0)
    sig_x = ((1 - x_clean) * x_clean / trials) ** 0.5
    sig_z = ((1 - z_clean) * z_clean / trials) ** 0.5
    ok_x = abs((1 - eps_x) - x_clean) <= 3 * sig_x
    ok_z = abs((1 - eps_z) - z_clean) <= 3 * sig_z
    r0 = r.identity_weight()
    ok_bound = r0 >= 1 - 2 * eps_x - 2 * eps_z
    elapsed = time.perf_counter() - t0
    report(4, ok_x and ok_z and ok_bound and elapsed < 120,
           f"eps_X={eps_x:.4f} vs {1 - x_clean:.4f}, eps_Z={eps_z:.4f} vs "
           f"{1 - z_clean:.4f} within 3 sigma; r0={r0} >= "
           f"{1 - 2 * eps_x - 2 * eps_z:.4f} ({elapsed:.1f} s)")


def test_criterion_05_two_prover_honest_completeness():
    t0 = time.perf_counter()
    cfg = game.ProtocolConfig(n=3, d=2, q=3, p=1 / 3, target="inplace",
                              seed=505, t_parallel=12).resolved()
    trials = 5000
    branch = defaultdict(lambda: [0, 0])
    for t in range(trials):
        rng = game.trial_rng(505, t)
        orc = game.make_oracle(cfg, rng)
        a = game.STRATEGIES_A["honest"](cfg)
        o = game.STRATEGIES_O["honest"](cfg)
        verdict, tr = game.run_query_protocol(cfg, a, o, orc, rng)
        br = tr.depth_audit["branch"]
        branch[br][0] += verdict == "accept"
        branch[br][1] += 1
    accepted = sum(v[0] for v in branch.values())
    rate = accepted / trials
    bound = 1 - cfg.alpha / 3 - 0.02
    x_rate = branch["xtest"][0] / max(1, branch["xtest"][1])
    z_rate = branch["ztest"][0] / max(1, branch["ztest"][1])
    elapsed = time.perf_counter() - t0
    report(5, rate >= bound and x_rate == 1.0 and z_rate == 1.0 and elapsed < 600,
           f"acceptance {rate:.4f} >= {bound:.4f} over {trials} trials; "
           f"X-test pass {x_rate}, Z-test pass {z_rate} ({elapsed:.0f} s)")


def test_criterion_06_depth_audit():
    rng = seeded(6)
    t0 = time.perf_counter()
    f = oracles.sample_simon(3, rng)
    sh = oracles.sample_shuffling(f, 2, rng, mode="exact")
    ipo = oracles.build_inplace(sh, rng)
    _, trace_in, _ = oracles.solve_inplace_dssp(ipo, rng)
    _, trace_std, _ = oracles.solve_standard_dssp(sh, rng)
    ok_in = audited_depth(trace_in) == 2 + 3
    ok_std = audited_depth(trace_std) == 2 * 2 + 3
    # declaring budget d and attempting a (d+1)-th layer aborts, before the
    # layer acts
    session = HybridSession(DQC, 2, rng)
    states = [SparseState.from_bits([0])]
    session.layer(states, lambda st: st.apply_hadamard_wall([0]))
    session.layer(states, lambda st: st.apply_hadamard_wall([0]))
    before = dict(states[0].support)
    aborted = False
    try:
        session.layer(states, lambda st: st.map_basis(lambda idx: idx ^ 1))
    except DepthBudgetExceeded:
        aborted = states[0].support == before
    elapsed = time.perf_counter() - t0
    report(6, ok_in and ok_std and aborted and elapsed < 60,
           f"in-place depth {audited_depth(trace_in)} = d+3, standard "
           f"{audited_depth(trace_std)} = 2d+3, over-budget layer aborts "
           f"({elapsed:.1f} s)")


def test_criterion_07_branch_statistic_and_solver():
    t0 = time.perf_counter()
    total_runs, total_accepted = 0, 0
    rates = {}
    plan = {3: ("exact", 400), 4: ("exact", 250), 5: ("prp", 120), 6: ("prp", 120)}
    for n, (mode, solves) in plan.items():
        hits = 0
        for t in range(solves):
            rng = seeded(700 + n, t)
            f = oracles.sample_simon(n, rng)
            sh = oracles.sample_shuffling(f, 2, rng, mode=mode)
            ipo = oracles.build_inplace(sh, rng)
            s_hat, _, stats = oracles.solve_inplace_dssp(
                ipo, rng, accepted_target=3 * n)
            hits += s_hat == f.s
            total_runs += stats["runs"]
            total_accepted += stats["accepted"]
        rates[n] = hits / solves
    flag_rate = total_accepted / total_runs
    ok_flag = abs(flag_rate - 0.5) <= 0.05 and total_runs >= 2000
    ok_rates = all(r >= 0.99 for r in rates.values())
    elapsed = time.perf_counter() - t0
    report(7, ok_flag and ok_rates and elapsed < 300,
           f"flag rate {flag_rate:.3f} over {total_runs} samples; recovery "
           f"{ {k: round(v, 4) for k, v in rates.items()} } ({elapsed:.0f} s)")


def test_criterion_08_cheat_detection():
    t0 = time.perf_counter()
    cfg = game.ProtocolConfig(n=3, d=2, q=3, seed=808, t_parallel=12,
                              trials=3000)
    results = {}
    pairs = [("honest", "honest"), ("honest", "skip-oracle"),
             ("honest", "pauli-x"), ("lying", "honest"),
             ("classical", "honest"), ("reset", "honest")]
    for sa, so in pairs:
        results[(sa, so)] = game.run_trials(cfg, sa, so)[0]
    honest = results[("honest", "honest")]
    lines = [f"honest {honest['p_hat']:.4f}"]
    ok = True
    for key, res in results.items():
        if key == ("honest", "honest"):
            continue
        gap = honest["p_hat"] - res["p_hat"]
        separated = res["ci95"][1] < honest["ci95"][0]
        ok = ok and gap >= 0.05 and separated
        lines.append(f"{key[0]}/{key[1]} {res['p_hat']:.4f} (gap {gap:.3f})")
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 900,
           "; ".join(lines) + f" ({elapsed:.0f} s)")


def test_criterion_09_rigidity_statistical_test():
    t0 = time.perf_counter()
    m, trials = 200, 500
    honest = sum(game.run_rigid_standalone(m, seeded(90, t)) == "accept"
                 for t in range(trials)) / trials
    random_rej = sum(
        game.run_rigid_standalone(m, seeded(91, t), prover_a="random") == "reject"
        for t in range(trials)) / trials
    swap_rej = sum(
        game.run_rigid_standalone(m, seeded(92, t), prover_a="basis-swap")
        == "reject" for t in range(trials)) / trials
    elapsed = time.perf_counter() - t0
    report(9, honest >= 0.99 and random_rej >= 0.99 and swap_rej >= 0.95
           and elapsed < 120,
           f"honest accept {honest:.3f}, random reject {random_rej:.3f}, "
           f"basis-swap reject {swap_rej:.3f} at m={m} ({elapsed:.1f} s)")


def test_criterion_10_ntcf_protocol():
    t0 = time.perf_counter()
    ok_honest = True
    for d in range(1, 7):
        accepted, depths = 0, set()
        for t in range(40):
            verdict, run = ntcf.run_cvqd(d, ntcf.HonestProver(), seeded(100 + d, t))
            accepted += verdict == "accept"
            depths.add(run.audited_depth)
        ok_honest = ok_honest and accepted == 40 and depths == {ntcf.D0_DEFAULT + d}
    d = 3
    trials = 2500
    acc = sum(
        ntcf.run_cvqd(d, ntcf.PreimageOnlyProver(), seeded(1010, t))[0] == "accept"
        for t in range(trials)) / trials
    ok_preimage = abs(acc - 2.0 ** -(d + 1)) <= 0.02
    ex = ntcf.extractor_experiment(2, 2000, rng_seed=1011, mode="guess")
    sigma = (ex["both_valid_rate"] * (1 - ex["both_valid_rate"]) / 2000) ** 0.5
    ok_extract = ex["both_valid_rate"] >= ex["p0"] + ex["p1"] - 1 - 3 * sigma
    elapsed = time.perf_counter() - t0
    report(10, ok_honest and ok_preimage and ok_extract and elapsed < 300,
           f"honest 1.0 at depth d0+d for d in 1..6; preimage-only {acc:.4f} "
           f"vs {2.0 ** -(d + 1):.4f}; extractor both={ex['both_valid_rate']:.3f} "
           f">= p0+p1-1={ex['p0'] + ex['p1'] - 1:.3f} ({elapsed:.0f} s)")


def test_criterion_11_pseudorandom_simon_construction():
    rng = seeded(11)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in (4, 7, 10):
        for _ in (range(40) if n < 10 else range(20)):
            key = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
            s = int(rng.integers(1, 1 << n))
            g = oracles.pseudorandom_simon(key, s, n)
            try:
                g.check_two_to_one()
                ok = ok and g.s == s
            except Exception:
                ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    report(11, ok and checked == 100 and elapsed < 60,
           f"{checked} keyed constructions are exact hidden-shift functions "
           f"({elapsed:.1f} s)")
