"""Two-prover protocol: partitions, rounds, blindness, verdicts, audits."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdepthlab import game, oracles
from qdepthlab.errors import ConfigError, ProtocolOrderError, SchemeViolation
from qdepthlab.game import (
    GameLayout,
    ProtocolConfig,
    choose_alpha,
    draw_partition,
    expected_standin_state,
    ideal_correlator,
    make_oracle,
    query_count,
    run_query_protocol,
    run_rigid_standalone,
    run_single_round,
    run_trials,
    trial_rng,
    wilson_interval,
    STRATEGIES_A,
    STRATEGIES_O,
)
from qdepthlab.qsim import SparseState, fidelity


@pytest.fixture
def rng():
    return np.random.default_rng(31)


SMALL = dict(n=3, d=2, q=3, t_parallel=10)


# -- alpha and intervals ---------------------------------------------------------


def test_choose_alpha_paper_values():
    assert abs(choose_alpha(1, 1 / 3, 1.0) - 1 / 7) < 1e-12
    assert abs(choose_alpha(3, 1 / 3, 1.0) - 1 / 19) < 1e-12


def test_choose_alpha_monotone_in_q():
    vals = [choose_alpha(q, 1 / 3, 1.0) for q in range(1, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.005


def test_wilson_interval_sane():
    p, lo, hi = wilson_interval(95, 100)
    assert lo < 0.95 < hi and 0 <= lo and hi <= 1


# -- config and partitions ----------------------------------------------------------


def test_config_validation_reports_all_violations():
    cfg = ProtocolConfig(n=1, d=0, q=0, p=0.7)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert len(err.value.violations) >= 3


def test_config_pool_floor():
    cfg = ProtocolConfig(**SMALL, m=10)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("target, q", [("inplace", 4), ("standard", 6)])
def test_q_beyond_oracle_schedule_is_config_error(target, q):
    """d=2 has d+1 = 3 in-place and 2d+1 = 5 standard oracle queries."""
    cfg = ProtocolConfig(n=3, d=2, q=q, target=target, t_parallel=4)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = cfg.resolved()
    rng = trial_rng(0, 0)
    orc = make_oracle(cfg, rng)
    with pytest.raises(ConfigError):
        run_query_protocol(cfg, STRATEGIES_A["honest"](cfg),
                           STRATEGIES_O["honest"](cfg), orc, rng)
    ProtocolConfig(n=3, d=2, q=q, target=target, fidelity="gadget").validate()


def test_partition_invariants(rng):
    cfg = ProtocolConfig(**SMALL).resolved()
    layout = GameLayout(cfg)
    free = np.arange(cfg.m, dtype=np.int64)
    part, rest = draw_partition(layout, free, rng)
    # disjoint allocation
    everything = (set(part.data_block.tolist()) | set(part.return_block.tolist())
                  | set(part.pool.tolist()))
    assert len(everything) == 2 * layout.n_tot + layout.m_size
    assert everything.isdisjoint(set(rest.tolist()))
    # reserved test sets sit on the right basis labels and do not overlap
    assert (part.w_labels[part.n_x] == game.Z_ID).all()
    assert (part.w_labels[part.n_z] == game.X_ID).all()
    assert set(part.n_x.tolist()).isdisjoint(part.n_z.tolist())
    # blocks partition the remainder into d pieces
    rest_positions = set(range(len(part.pool))) - set(part.n_x.tolist()) \
        - set(part.n_z.tolist())
    covered = set()
    for blk in part.blocks:
        covered |= set(int(b) for b in blk)
    assert covered == rest_positions
    assert len(part.blocks) == cfg.d


@pytest.mark.parametrize("fidelity", ["abstract", "gadget"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_draw_partition_invariants_over_seeds(fidelity, seed, d):
    cfg = ProtocolConfig(n=3, d=d, q=2, t_parallel=4, fidelity=fidelity).resolved()
    layout = GameLayout(cfg)
    free = np.arange(cfg.m, dtype=np.int64)
    part, rest = draw_partition(layout, free, np.random.default_rng(seed))
    taken = np.concatenate([part.data_block, part.return_block, part.pool])
    assert len(set(taken.tolist())) == len(taken) == len(free) - len(rest)
    assert set(taken.tolist()).isdisjoint(rest.tolist())
    labels = [game.SIGMA[i] for i in part.w_labels.tolist()]
    assert all(labels[p] == "Z" for p in part.n_x)
    assert all(labels[p] == "X" for p in part.n_z)
    # n_x, n_z and the d blocks split the pool positions without overlap
    pieces = [part.n_x, part.n_z] + list(part.blocks)
    flat = [int(p) for piece in pieces for p in piece]
    assert sorted(flat) == list(range(len(part.pool)))
    assert len(part.blocks) == d
    for blk, needs in zip(part.blocks, layout.layer_needs):
        got = [labels[p] for p in blk]
        assert got.count("Z") >= needs["z_basis"]
        assert got.count("X") + got.count("Y") >= needs["xy_basis"]
        assert got.count("F") + got.count("G") >= needs["gf_basis"]


# -- rigidity exchange and verdict against the per-element reference -------------------

_REF_P0 = {(wa, e, wo): game.outcome_prob0(wa, e, wo)
           for wa in game.SIGMA for e in (0, 1) for wo in ("X", "Y", "Z")}


def _ref_rigid_exchange(labels, act_label, e_act, measured, rng):
    """Per-element rigidity exchange on string labels, one draw at a time."""
    requests = [w if w in ("X", "Y", "Z")
                else ("X" if rng.integers(2) == 0 else "Y")
                for w in labels]
    outcomes = np.zeros(len(labels), dtype=np.int64)
    for i in range(len(labels)):
        p0 = (_REF_P0[(act_label[i], int(e_act[i]), requests[i])]
              if measured else 0.5)
        outcomes[i] = 0 if rng.random() < p0 else 1
    return requests, outcomes


def _ref_rigid_verdict(labels, requests, e_rep, outcomes, cfg):
    """Per-class rigidity decision on string labels."""
    prods = (1 - 2 * np.asarray(e_rep)) * (1 - 2 * np.asarray(outcomes))
    for w in ("X", "Y", "Z"):
        sel = [i for i, l in enumerate(labels) if l == w and requests[i] == w]
        if len(sel) < cfg.rigid_min_samples:
            continue
        if abs(float(np.mean(prods[sel])) - ideal_correlator(w, w)) > cfg.rigid_exact_tol:
            return "reject"
    s_val = 0.0
    for (wa, wo), sign in zip(game.CHSH_PAIRS, game.CHSH_SIGNS):
        sel = [i for i, l in enumerate(labels) if l == wa and requests[i] == wo]
        if len(sel) < cfg.rigid_min_samples:
            return "reject"
        s_val += sign * float(np.mean(prods[sel]))
    return "reject" if s_val < cfg.rigid_chsh_min else "accept"


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 400), top=st.sampled_from([2, 4]),
       cheat=st.sampled_from(["honest", "swap", "any", "lie"]),
       measured=st.booleans(), seed=st.integers(0, 2**32 - 2),
       min_samples=st.integers(1, 40))
def test_rigid_codes_match_scalar_reference(m, top, cheat, measured, seed,
                                            min_samples):
    """Random label codes below ``top`` (2 draws no F/G label); small m or
    large ``min_samples`` leave classes below the sample floor."""
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, top + 1, size=m)
    act = labels.copy()
    if cheat == "swap":
        act[np.flatnonzero(labels == game.Z_ID)[::2]] = game.X_ID
    elif cheat == "any":
        act = gen.integers(0, len(game.SIGMA), size=m)
    e_act = gen.integers(0, 2, size=m)
    e_rep = 1 - e_act if cheat == "lie" else e_act
    cfg = replace(ProtocolConfig(), rigid_min_samples=min_samples)

    rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    req, out = game.rigid_exchange(labels, act, e_act, measured, rng_new)
    s_labels = [game.SIGMA[i] for i in labels]
    s_act = [game.SIGMA[i] for i in act]
    ref_req, ref_out = _ref_rigid_exchange(s_labels, s_act, e_act, measured, rng_ref)
    assert [game.SIGMA[i] for i in req] == ref_req
    assert out.tolist() == ref_out.tolist()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert (game.rigid_verdict(labels, req, e_rep, out, cfg)
            == _ref_rigid_verdict(s_labels, ref_req, e_rep, ref_out, cfg))


# -- single rounds -------------------------------------------------------------------


def test_comp_round_gadget_mode_decrypts_to_circuit_output():
    cfg = ProtocolConfig(n=2, d=2, q=1, fidelity="gadget")
    verdict, run = run_single_round(cfg, "comp", seed=11)
    assert verdict is None
    want = expected_standin_state(ProtocolConfig(n=2, d=2, q=1, fidelity="gadget"))
    assert fidelity(run.a.standin.amplitudes, want.amplitudes) > 1 - 1e-9


def test_comp_round_abstract_mode_applies_oracle():
    """After one computation round, prover A's decrypted instance equals the
    first oracle map applied to the prepared superposition."""
    cfg = ProtocolConfig(**SMALL, seed=4).resolved()
    rng = trial_rng(4, 0)
    orc = make_oracle(cfg, rng)
    verdict, run = run_single_round(cfg, "comp", oracle=orc, seed=4)
    layout = run.layout
    base = orc.base
    want = SparseState.from_bits([0] * layout.inst_width)
    from qdepthlab.qsim import Gate

    for q in range(cfg.n):
        want.apply_gate(Gate("H", (q,)))
    oracles.apply_standard_oracle(
        want, lambda x: base.middle_eval(0, base.embed(x)),
        (0, cfg.n), (cfg.n, layout.big_width))
    got = run.a.instances[0]
    assert set(got.support) == set(want.support)


def test_z_rule_arithmetic():
    """z = a + [W=F] + c mod 2, cross-checked against boolean logic."""
    for a in (0, 1):
        for c in (0, 1):
            for w in ("F", "G"):
                z = (a + (1 if w == "F" else 0) + c) % 2
                assert z == (a ^ (w == "F") ^ c)


@pytest.mark.parametrize("kind", ["xtest", "ztest"])
def test_honest_test_rounds_accept(kind):
    cfg = ProtocolConfig(**SMALL)
    for seed in range(25):
        verdict, _ = run_single_round(cfg, kind, seed=seed)
        assert verdict == "accept"


def test_po_x_attack_fails_xtest_passes_ztest():
    cfg = ProtocolConfig(**SMALL)
    for seed in range(15):
        vx, _ = run_single_round(cfg, "xtest", strat_o="pauli-x", seed=seed)
        assert vx == "reject"
        vz, _ = run_single_round(cfg, "ztest", strat_o="pauli-x", seed=seed)
        assert vz == "accept"


def test_po_z_attack_mirrored():
    cfg = ProtocolConfig(**SMALL)
    for seed in range(15):
        assert run_single_round(cfg, "ztest", strat_o="pauli-z", seed=seed)[0] == "reject"
        assert run_single_round(cfg, "xtest", strat_o="pauli-z", seed=seed)[0] == "accept"


def test_rigid_round_in_game():
    cfg = ProtocolConfig(**SMALL)
    verdicts = [run_single_round(cfg, "rigid", seed=s)[0] for s in range(20)]
    assert all(v == "accept" for v in verdicts)
    verdicts = [run_single_round(cfg, "rigid", strat_a="lying", seed=s)[0]
                for s in range(10)]
    assert all(v == "reject" for v in verdicts)


# -- standalone rigidity test -----------------------------------------------------------


def test_rigid_standalone_rates():
    m = 200
    accept_honest = sum(
        run_rigid_standalone(m, trial_rng(50, t)) == "accept" for t in range(200))
    reject_random = sum(
        run_rigid_standalone(m, trial_rng(51, t), prover_a="random") == "reject"
        for t in range(200))
    reject_swap = sum(
        run_rigid_standalone(m, trial_rng(52, t), prover_a="basis-swap") == "reject"
        for t in range(200))
    assert accept_honest / 200 >= 0.99
    assert reject_random / 200 >= 0.99
    assert reject_swap / 200 >= 0.95


def test_ideal_correlators():
    assert abs(ideal_correlator("X", "X") - 1) < 1e-12
    assert abs(ideal_correlator("Y", "Y") + 1) < 1e-12
    assert abs(ideal_correlator("Z", "Z") - 1) < 1e-12
    s = sum(sign * ideal_correlator(a, o)
            for (a, o), sign in zip(game.CHSH_PAIRS, game.CHSH_SIGNS))
    assert abs(s - 2 * np.sqrt(2)) < 1e-12


# -- full protocol -----------------------------------------------------------------------


def test_full_honest_run_accepts_and_audits():
    cfg = ProtocolConfig(**SMALL, seed=8).resolved()
    rng = trial_rng(8, 0)
    orc = make_oracle(cfg, rng)
    a = STRATEGIES_A["honest"](cfg)
    o = STRATEGIES_O["honest"](cfg)
    verdict, tr = run_query_protocol(cfg, a, o, orc, rng)
    assert verdict in ("accept", "reject")
    assert tr.depth_audit["budget"] == cfg.q + 2


def test_transcript_replays_deterministically():
    cfg = ProtocolConfig(**SMALL, seed=21)
    outs = []
    for _ in range(2):
        rng = trial_rng(21, 0)
        orc = make_oracle(cfg.resolved(), rng)
        a = STRATEGIES_A["honest"](cfg.resolved())
        o = STRATEGIES_O["honest"](cfg.resolved())
        verdict, tr = run_query_protocol(cfg.resolved(), a, o, orc, rng)
        outs.append(tr.to_json())
    assert outs[0] == outs[1]


def test_message_count_bound():
    cfg = ProtocolConfig(**SMALL, seed=13).resolved()
    rng = trial_rng(13, 0)
    orc = make_oracle(cfg, rng)
    a = STRATEGIES_A["honest"](cfg)
    o = STRATEGIES_O["honest"](cfg)
    _, tr = run_query_protocol(cfg, a, o, orc, rng)
    assert len(tr.messages) <= cfg.q * (7 + 3 * cfg.d) + 3


def _prover_a_prefix(tr):
    """Messages prover A sees before the divergence point, as (kind, shape)."""
    out = []
    for msg in tr.messages:
        if msg["to"] != "A":
            continue
        kind = msg["kind"]
        if kind in (game.MSG_KEYS, game.MSG_MEAS, game.MSG_VERDICT):
            break  # first post-oracle message to A diverges by design
        shape = tuple(sorted((k, len(v) if isinstance(v, list) else 0)
                             for k, v in msg["payload"].items()))
        out.append((kind, shape))
    return tuple(out)


def test_round_blindness_for_prover_a():
    """Prefix of prover A's view (kinds and payload shapes) is identical
    across the four round types; basis labels stay marginally uniform."""
    cfg = ProtocolConfig(**SMALL)
    sigs = {}
    label_counts = {}
    for kind in ("comp", "xtest", "ztest", "rigid"):
        counts = {w: 0 for w in game.SIGMA}
        prefixes = set()
        for seed in range(12):
            _, run = run_single_round(cfg, kind, seed=seed)
            prefixes.add(_prover_a_prefix(run.transcript))
            basis_msgs = [m for m in run.transcript.messages
                          if m["kind"] == game.MSG_BASIS and m["to"] == "A"]
            for w in basis_msgs[0]["payload"]["labels"]:
                counts[w] += 1
        sigs[kind] = prefixes
        total = sum(counts.values())
        label_counts[kind] = {w: c / total for w, c in counts.items()}
    assert sigs["comp"] == sigs["xtest"] == sigs["ztest"] == sigs["rigid"]
    base = label_counts["comp"]
    for kind, dist in label_counts.items():
        tv = 0.5 * sum(abs(dist[w] - base[w]) for w in game.SIGMA)
        assert tv < 0.02


def test_protocol_order_violation_rejects():
    cfg = ProtocolConfig(**SMALL, seed=3).resolved()
    rng = trial_rng(3, 0)
    orc = make_oracle(cfg, rng)

    class Rude(game.ProverA):
        def pool_measurement(self, labels, rng):
            raise ProtocolOrderError("answers before the question")

    verdict, tr = run_query_protocol(cfg, Rude(), STRATEGIES_O["honest"](cfg),
                                     orc, rng)
    assert verdict == "reject"
    assert "error" in tr.depth_audit


@pytest.mark.parametrize("call", ["charge_layers", "layer"])
def test_lab_error_in_depth_charge_is_not_fabrication(monkeypatch, call):
    """Only an exceeded budget makes prover A fabricate; any other error
    raised while charging a layer, declared or executed, is a lab bug and
    reaches the caller."""

    def broken(self, *args, **kwargs):
        raise SchemeViolation("lab bug")

    monkeypatch.setattr(game.HybridSession, call, broken)
    cfg = ProtocolConfig(**SMALL, seed=3).resolved()
    rng = trial_rng(3, 0)
    orc = make_oracle(cfg, rng)
    with pytest.raises(SchemeViolation, match="lab bug"):
        run_query_protocol(cfg, STRATEGIES_A["honest"](cfg),
                           STRATEGIES_O["honest"](cfg), orc, rng)


def _spy_session(monkeypatch):
    """Count ``HybridSession.layer`` calls and the runs of their ops, and
    ``charge_layers`` calls and the layers they declare."""
    seen = {"layer": 0, "ops": 0, "charge_layers": 0, "declared": 0}
    layer = game.HybridSession.layer
    charge_layers = game.HybridSession.charge_layers

    def spy_layer(self, states, op, note=""):
        seen["layer"] += 1

        def counted(st):
            seen["ops"] += 1
            return op(st)
        return layer(self, states, counted, note)

    def spy_charge_layers(self, layers, note=""):
        seen["charge_layers"] += 1
        seen["declared"] += layers
        return charge_layers(self, layers, note)

    monkeypatch.setattr(game.HybridSession, "layer", spy_layer)
    monkeypatch.setattr(game.HybridSession, "charge_layers", spy_charge_layers)
    return seen


def _no_test_trial(strategy, seed=3):
    cfg = ProtocolConfig(**SMALL, alpha=0.99, seed=seed).resolved()
    rng = trial_rng(seed, 0)
    orc = make_oracle(cfg, rng)
    prover = STRATEGIES_A[strategy](cfg)
    verdict, tr = run_query_protocol(cfg, prover, STRATEGIES_O["honest"](cfg),
                                     orc, rng)
    assert tr.depth_audit["branch"] == "no-test"
    return cfg, prover, verdict, tr


def test_honest_abstract_audit_comes_from_executed_layers(monkeypatch):
    """Both Hadamard walls run on every instance; only the q teleport
    layers are declared, and the audit reads q + 2."""
    seen = _spy_session(monkeypatch)
    cfg, _, verdict, tr = _no_test_trial("honest")
    assert verdict == "accept"
    assert seen["layer"] == 2
    assert seen["ops"] == 2 * cfg.t_parallel
    assert seen["charge_layers"] == seen["declared"] == cfg.q
    assert tr.depth_audit["audited_depth"] == cfg.q + 2


def test_classical_prover_runs_no_layer(monkeypatch):
    """At budget 0 the opening wall is refused before it touches a state."""
    seen = _spy_session(monkeypatch)
    _, prover, _, tr = _no_test_trial("classical")
    assert prover.instances is None
    assert seen["ops"] == 0 and seen["declared"] == 0
    assert tr.depth_audit["audited_depth"] == 0


def test_run_trials_interface():
    cfg = ProtocolConfig(**SMALL, seed=17, trials=120)
    res, transcripts = run_trials(cfg, "honest", "honest")
    assert res["trials"] == 120 and res["repeat"] == 1
    assert res["ci95"][0] <= res["p_hat"] <= res["ci95"][1]
    assert [json.loads(tr)["seed"] for tr in transcripts] == [17, 17, 17]


def _cvqd2_config(n, d, **kw):
    """The assembled run's config: q is the access model's query count."""
    cfg = ProtocolConfig(n=n, d=d, **kw)
    return replace(cfg, q=query_count(cfg))


def test_run_trials_depth_audit_both_targets():
    cfg = _cvqd2_config(3, 2, target="inplace", t_parallel=8)
    res, _ = run_trials(cfg, "honest", "honest", trials=40, seed=5)
    assert res["config"]["q"] == 3
    assert max(res["audited_depths"]) == 5
    cfg = _cvqd2_config(3, 2, target="standard", t_parallel=8)
    res, _ = run_trials(cfg, "honest", "honest", trials=40, seed=5)
    assert res["config"]["q"] == 5
    assert max(res["audited_depths"]) == 7


def test_run_trials_gadget_expected_depth_matches_honest_audit():
    """Gadget fidelity grades no final answer, so the honest audit is q+1."""
    cfg = _cvqd2_config(3, 2, fidelity="gadget")
    res, _ = run_trials(cfg, "honest", "honest", trials=100, seed=3)
    assert res["expected_honest_depth"] == res["config"]["q"] + 1
    assert max(res["audited_depths"]) == res["expected_honest_depth"]


def test_sequential_repetition_widens_gap():
    """Accept-all-repetitions amplifies honest-vs-cheat separation."""
    cfg = _cvqd2_config(3, 2, t_parallel=8, oracle_mode="exact")
    gaps = []
    for repeat in (1, 3):
        h, _ = run_trials(cfg, "honest", "honest", trials=60, seed=23,
                          repeat=repeat)
        c, _ = run_trials(cfg, "lying", "honest", trials=60, seed=23,
                          repeat=repeat)
        gaps.append(h["p_hat"] - c["p_hat"])
    assert gaps[1] > gaps[0]


def test_gadget_fidelity_full_protocol():
    cfg = ProtocolConfig(n=2, d=2, q=3, fidelity="gadget", seed=29, trials=150)
    res, _ = run_trials(cfg, "honest", "honest")
    assert res["p_hat"] >= 0.97


def test_answer_branch_rates_when_no_test_runs():
    """Forcing the no-test branch: honest answers recover the shift at a
    >= 0.99 rate while uniformly random answers sit at chance level."""
    cfg = ProtocolConfig(n=3, d=2, q=3, alpha=0.999, seed=61, trials=300)
    honest, _ = run_trials(cfg, "honest", "honest", trials=300)
    rand, _ = run_trials(cfg, "random-answer", "honest", trials=300)
    assert honest["p_hat"] >= 0.99
    chance = 1.0 / (2 ** cfg.n - 1)
    assert abs(rand["p_hat"] - chance) < 0.06
