"""Two-prover protocol: partitions, rounds, blindness, verdicts, audits."""

import json
from collections.abc import Sized
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdepthlab import game, oracles, qsim
from qdepthlab.errors import ConfigError, ProtocolOrderError, QDepthError, SchemeViolation
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


def _honest_stream(cfg, stream):
    """Transcript of stream ``stream`` of an honest ``run_trials`` run of
    ``cfg``, replayed alone."""
    rng = trial_rng(cfg.seed, stream)
    oracle = make_oracle(cfg, rng) if cfg.fidelity == "abstract" else None
    return run_query_protocol(cfg, STRATEGIES_A["honest"](cfg),
                              STRATEGIES_O["honest"](cfg), oracle, rng)[1]


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
    """A config is checked when it is built, and the error names every
    value the game cannot run with."""
    with pytest.raises(ConfigError) as err:
        ProtocolConfig(n=1, d=0, q=0, t_parallel=0, trials=0, alpha=1.0, seed=-1,
                       oracle_mode="quantum")
    assert err.value.violations == [
        "alpha=1.0 outside (0, 1)", "q must be >= 1", "n must be >= 2",
        "d must be >= 1", "t_parallel must be >= 1", "trials must be >= 1",
        "seed must be >= 0", "unknown oracle mode 'quantum'"]
    with pytest.raises(ConfigError) as err:
        ProtocolConfig(alpha=0.0, fidelity="dense", target="random")
    assert err.value.violations == [
        "alpha=0.0 outside (0, 1)", "unknown fidelity mode 'dense'",
        "unknown target 'random'"]


def test_config_is_frozen_and_complete_when_built():
    """A built config fills in alpha and t_parallel and never changes."""
    cfg = ProtocolConfig(n=5, q=3)
    assert cfg.alpha == choose_alpha(3, game.P_TEST, game.ALPHA_C) == 0.1
    assert cfg.t_parallel == 30
    assert cfg.resolved() is cfg
    with pytest.raises(FrozenInstanceError):
        cfg.d = 3
    assert ProtocolConfig(q=1, alpha=0.5, t_parallel=2).alpha == 0.5


def test_replaced_config_fills_in_what_its_caller_did_not_set():
    """``dataclasses.replace`` gives the alpha and t_parallel a fresh build
    gives, and keeps the ones a caller set; the JSON holds plain numbers."""
    assert replace(ProtocolConfig(q=3), q=1) == ProtocolConfig(q=1)
    assert replace(ProtocolConfig(q=3), q=1).alpha == 0.25
    assert replace(ProtocolConfig(n=3), n=5).t_parallel == 30
    assert replace(ProtocolConfig(q=3, alpha=0.2), q=1).alpha == 0.2
    assert replace(ProtocolConfig(n=3, t_parallel=7), n=5).t_parallel == 7
    assert replace(ProtocolConfig(q=1), alpha=None, q=3).alpha == 0.1
    out = replace(ProtocolConfig(q=3), q=1).to_json()
    assert (type(out["alpha"]), type(out["t_parallel"])) == (float, int)


@pytest.mark.parametrize("name, value", [("t_parallel", -1), ("t_parallel", 0)])
def test_config_needs_a_standin_wire_and_an_instance(name, value):
    """Prover A answers from its instances' samples: below one instance,
    building the config reports it."""
    with pytest.raises(ConfigError) as err:
        ProtocolConfig(**{**SMALL, name: value})
    assert err.value.violations == [f"{name} must be >= 1"]


@pytest.mark.parametrize("target, q", [("inplace", 4), ("standard", 6)])
def test_q_beyond_oracle_schedule_is_config_error(target, q):
    """d=2 has d+1 = 3 in-place and 2d+1 = 5 standard oracle queries; gadget
    fidelity runs no oracle schedule, so any q builds there."""
    with pytest.raises(ConfigError) as err:
        ProtocolConfig(n=3, d=2, q=q, target=target, t_parallel=4)
    assert err.value.violations == [
        f"q={q} above the {q - 1} oracle queries of {target} access at d=2"]
    ProtocolConfig(n=3, d=2, q=q, target=target, fidelity="gadget")


@pytest.mark.parametrize("mode, widest_d, cap", [("exact", 18, 62), ("prp", 40, 127)])
def test_over_wide_oracle_chain_is_config_error(mode, widest_d, cap):
    """The oracle's chain runs over (d+2)n bits: at n=3 exact mode takes
    d=18 (60 bits) and prp mode d=40 (126 bits), one bit short of the
    128-bit Feistel cap for the in-place complement map.  One more layer
    is refused when the config is built; gadget fidelity builds no oracle,
    so the same size builds there."""
    d = widest_d + 1
    ProtocolConfig(n=3, d=widest_d, q=3, oracle_mode=mode)
    with pytest.raises(ConfigError) as err:
        ProtocolConfig(n=3, d=d, q=3, oracle_mode=mode)
    assert err.value.violations == [
        f"(d+2)n = {(d + 2) * 3} bits above the {cap}-bit {mode} oracle chain limit"]
    ProtocolConfig(n=3, d=d, q=3, oracle_mode=mode, fidelity="gadget")


def test_partition_invariants(rng):
    cfg = ProtocolConfig(**SMALL)
    layout = GameLayout(cfg)
    free = rng.permutation(layout.pool_need)
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


def test_game_layout_memo_keys_on_values():
    """One layout per value of the fields GameLayout reads: configs that
    differ elsewhere share it, and one with another d gets its own."""
    cfg = ProtocolConfig(**SMALL)
    layout = game.game_layout(cfg)
    assert game.game_layout(ProtocolConfig(**SMALL)) is layout
    assert game.game_layout(replace(cfg, seed=9, trials=5, alpha=0.3)) is layout
    moved = game.game_layout(replace(cfg, d=3))
    assert moved is not layout and len(moved.block_bounds) == 3
    assert moved.block_bounds == GameLayout(replace(cfg, d=3)).block_bounds


@pytest.mark.parametrize("fidelity", ["abstract", "gadget"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_draw_partition_invariants_over_seeds(fidelity, seed, d):
    cfg = ProtocolConfig(n=3, d=d, q=2, t_parallel=4, fidelity=fidelity)
    layout = GameLayout(cfg)
    rng = np.random.default_rng(seed)
    free = rng.permutation(layout.pool_need)
    part, rest = draw_partition(layout, free, rng)
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
    # the blocks are cut where np.array_split cuts the remainder
    rest = np.concatenate(part.blocks)
    assert all(np.array_equal(blk, want)
               for blk, want in zip(part.blocks, np.array_split(rest, d)))
    # block_need is one layer's (Z, X/Y, F/G) need, tiled once per block
    assert layout.block_need == layout.block_need[:3] * d
    for ell, blk in enumerate(part.blocks):
        z_need, xy_need, gf_need = layout.block_need[3 * ell:3 * ell + 3]
        got = [labels[p] for p in blk]
        assert got.count("Z") >= z_need
        assert got.count("X") + got.count("Y") >= xy_need
        assert got.count("F") + got.count("G") >= gf_need


def test_draw_partition_takes_the_prefix_and_returns_the_suffix():
    """The first query_need ids are the data block, the return block and the
    pool, in order; the rest come back as a view, in order, and the ids
    themselves draw nothing from the generator."""
    layout = GameLayout(ProtocolConfig(**SMALL))
    ids = np.random.default_rng(5).permutation(layout.pool_need)
    free = ids.copy()
    rng = np.random.default_rng(6)
    part, rest = draw_partition(layout, free, rng)
    n_tot, need = layout.n_tot, layout.query_need
    assert np.array_equal(part.data_block, ids[:n_tot])
    assert np.array_equal(part.return_block, ids[n_tot:2 * n_tot])
    assert np.array_equal(part.pool, ids[2 * n_tot:need])
    assert np.array_equal(rest, ids[need:]) and np.shares_memory(rest, free)
    # the same labels, test sets and blocks from any ids: only W and the
    # positions are drawn
    again, _ = draw_partition(layout, np.arange(layout.pool_need),
                              np.random.default_rng(6))
    assert np.array_equal(again.w_labels, part.w_labels)
    assert all(np.array_equal(a, b) for a, b in zip(again.blocks, part.blocks))
    with pytest.raises(QDepthError, match="exhausted"):
        draw_partition(layout, ids[:need - 1], rng)


def _setup_ids(transcript):
    """Per V->A SetupSets message: its data, return and pool ids."""
    return [np.concatenate([m["payload"][key] for key in ("data", "ret", "pool")])
            for m in transcript.messages
            if m["kind"] == game.MSG_SETUP and m["to"] == "A"]


@pytest.mark.parametrize("fidelity, target", [
    ("abstract", "inplace"), ("abstract", "standard"),
    ("gadget", "inplace"), ("gadget", "standard"),
])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 50),
       alpha=st.sampled_from([None, 0.9]))
def test_trial_setup_ids_are_disjoint_and_in_range(fidelity, target, seed, trial,
                                                   alpha):
    """Every round of a full trial gets ids no earlier round got, all inside
    [0, pool_need)."""
    cfg = ProtocolConfig(n=2, d=2, q=3, t_parallel=4, alpha=alpha, seed=seed,
                         fidelity=fidelity, target=target)
    layout = game.game_layout(cfg)
    tr = _honest_stream(cfg, trial)
    rounds = _setup_ids(tr)
    audit = tr.depth_audit
    assert len(rounds) == (cfg.q if audit["branch"] == "no-test" else audit["test_at"])
    ids = np.concatenate(rounds)
    assert all(len(r) == layout.query_need for r in rounds)
    assert len(np.unique(ids)) == len(ids)
    assert ids.min() >= 0 and ids.max() < layout.pool_need


def test_second_round_data_ids_are_uniform():
    """The data ids of a trial's second round spread evenly over
    [0, pool_need): a chi-square over 10 equal bins, 2,000 gadget-fidelity
    trials, must stay below 27.88, the 0.999 quantile at 9 degrees of
    freedom."""
    cfg = ProtocolConfig(n=3, d=2, q=3, fidelity="gadget", alpha=0.99,
                         seed=1919)
    layout = game.game_layout(cfg)
    ids = []
    for t in range(2000):
        tr = _honest_stream(cfg, t)
        rounds = [m["payload"]["data"] for m in tr.messages
                  if m["kind"] == game.MSG_SETUP and m["to"] == "A"]
        if len(rounds) >= 2:
            ids.extend(rounds[1].tolist())
    counts = np.bincount(np.asarray(ids) * 10 // layout.pool_need, minlength=10)
    expected = len(ids) / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert len(ids) >= 3000 and chi2 < 27.88


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


def _ref_rigid_verdict(labels, requests, e_rep, outcomes):
    """Per-class rigidity decision on string labels."""
    prods = (1 - 2 * np.asarray(e_rep)) * (1 - 2 * np.asarray(outcomes))
    for w in ("X", "Y", "Z"):
        sel = [i for i, l in enumerate(labels) if l == w and requests[i] == w]
        if len(sel) < game.RIGID_MIN_SAMPLES:
            continue
        if abs(float(np.mean(prods[sel])) - ideal_correlator(w, w)) > game.RIGID_EXACT_TOL:
            return "reject"
    s_val = 0.0
    for (wa, wo), sign in zip(game.CHSH_PAIRS, game.CHSH_SIGNS):
        sel = [i for i, l in enumerate(labels) if l == wa and requests[i] == wo]
        if len(sel) < game.RIGID_MIN_SAMPLES:
            return "reject"
        s_val += sign * float(np.mean(prods[sel]))
    return "reject" if s_val < game.RIGID_CHSH_MIN else "accept"


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 400), top=st.sampled_from([2, 4]),
       cheat=st.sampled_from(["honest", "swap", "any", "lie"]),
       measured=st.booleans(), seed=st.integers(0, 2**32 - 2))
def test_rigid_codes_match_scalar_reference(m, top, cheat, measured, seed):
    """Random label codes below ``top`` (2 draws no F/G label); a small m
    leaves classes below the sample floor."""
    gen = np.random.default_rng(seed)
    labels = gen.integers(0, top + 1, size=m)
    act = labels.copy()
    if cheat == "swap":
        act[np.flatnonzero(labels == game.Z_ID)[::2]] = game.X_ID
    elif cheat == "any":
        act = gen.integers(0, len(game.SIGMA), size=m)
    e_act = gen.integers(0, 2, size=m)
    e_rep = 1 - e_act if cheat == "lie" else e_act

    rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    req, out = game.rigid_exchange(labels, act, e_act, measured, rng_new)
    s_labels = [game.SIGMA[i] for i in labels]
    s_act = [game.SIGMA[i] for i in act]
    ref_req, ref_out = _ref_rigid_exchange(s_labels, s_act, e_act, measured, rng_ref)
    assert [game.SIGMA[i] for i in req] == ref_req
    assert out.tolist() == ref_out.tolist()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert (game.rigid_verdict(labels, req, e_rep, out)
            == _ref_rigid_verdict(s_labels, ref_req, e_rep, ref_out))


# -- single rounds -------------------------------------------------------------------


def test_comp_round_gadget_mode_decrypts_to_circuit_output():
    cfg = ProtocolConfig(n=2, d=2, q=1, fidelity="gadget")
    verdict, run = run_single_round(cfg, "comp", seed=11)
    assert verdict is None
    want = expected_standin_state(ProtocolConfig(n=2, d=2, q=1, fidelity="gadget"))
    assert fidelity(run.a.standin.amplitudes, want.amplitudes) > 1 - 1e-9


@pytest.mark.parametrize("fidelity", ["abstract", "gadget"])
def test_standin_walks_refuse_an_op_they_do_not_run(monkeypatch, fidelity):
    """An op added to ``STANDIN_LAYER`` that a walk has no branch for is an
    error in the reference state and in a computation and a test round, not
    a gate skipped.  The layout is cached before the edit, so the rounds
    reach the round engine's own walk."""
    cfg = ProtocolConfig(**SMALL, fidelity=fidelity)
    game.game_layout(cfg)
    monkeypatch.setattr(game, "STANDIN_LAYER", game.STANDIN_LAYER + (("h", 0),))
    with pytest.raises(QDepthError, match="reference state runs no stand-in op 'h'"):
        expected_standin_state(cfg)
    for kind in ("comp", "xtest"):
        with pytest.raises(QDepthError, match="round engine runs no stand-in op 'h'"):
            run_single_round(cfg, kind, seed=0)


def test_comp_round_abstract_mode_applies_oracle():
    """After one computation round, prover A's decrypted instance equals the
    first oracle map applied to the prepared superposition."""
    cfg = ProtocolConfig(**SMALL, seed=4)
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
        want, base.middle[0].eval, (0, cfg.n), (cfg.n, layout.big_width))
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


# -- test-round tables ------------------------------------------------------------


def _family_code(vec, family):
    """The one family member ``vec`` equals up to phase, else -1."""
    hits = [i for i, f in enumerate(family) if qsim.states_equal_up_to_phase(vec, f)]
    assert len(hits) <= 1
    return hits[0] if hits else -1


def test_gadget_first_half_table_matches_dense_simulation():
    """Every (wire, ancilla) entry: CNOT from the ancilla onto the wire on a
    two-qubit StateVector, the wire postselected on c."""
    for w, wire in enumerate(game._FAMILY):
        for a, anc in enumerate(game._FAMILY):
            p1 = game._GADGET_P1[w, a]
            assert p1 in (0, 0.5, 1)    # the round draws c only where p1 is 1/2
            sv = qsim.StateVector(2, np.kron(wire, anc))
            sv.apply_gate(qsim.Gate("CNOT", (1, 0)))
            rows = sv.amplitudes.reshape(2, 2)      # [wire bit, ancilla]
            for c, p_c in ((0, 1 - p1), (1, p1)):
                p = float(np.vdot(rows[c], rows[c]).real)
                assert abs(p - p_c) < 1e-9
                left = rows[c] / np.sqrt(p) if p_c > 0 else np.zeros(2)
                assert game._GADGET_AFTER[w, a, c] == _family_code(left, game._FAMILY)


def test_gate_code_maps_match_gate_matrices():
    fam = game._FAMILY
    for name in ("X", "Z", "SDG"):
        want = [_family_code(qsim.GATE_MATRICES[name] @ v, fam) for v in fam]
        assert game._GATE_CODES[name].tolist() == want
    pairs = [np.kron(u, v) for u in fam for v in fam]
    want = []
    for pair in pairs:
        sv = qsim.StateVector(2, pair.copy())
        sv.apply_gate(qsim.Gate("CNOT", (0, 1)))
        want.append(_family_code(sv.amplitudes, pairs))
    assert game._GATE_CODES["CNOT"].tolist() == want


def test_read_table_is_p1_in_each_basis():
    """The X test reads its wires in the Z basis, the Z test in the X basis."""
    assert np.allclose(game.ROT["Z"], qsim.I2) and np.allclose(game.ROT["X"], qsim.H)
    for code, v in enumerate(game._FAMILY):
        for label, name in enumerate(game.SIGMA):
            p1 = abs((game.ROT[name] @ v)[1]) ** 2
            assert abs(game._READ_P1[code, label] - p1) < 1e-9


def _textbook_t_gadget(psi, w_matrix, z, c, e):
    """The textbook T gadget on one wire, in plain numpy: |psi> next to an
    EPR pair, CNOT from the prover's half onto the wire, the wire read as c,
    the verifier's half rotated by ``w_matrix`` and read as e, then S^-z on
    the prover's half.  Returns (P[c, e], that half's state)."""
    st = np.einsum("d,av->dav", psi, np.eye(2) / np.sqrt(2))   # [wire, prover, verifier]
    st[:, 1] = st[::-1, 1].copy()           # the CNOT flips the wire where the half is 1
    half = (st[c] @ w_matrix.T)[:, e]
    half = np.linalg.matrix_power(qsim.SDG, z) @ half
    p = float(np.vdot(half, half).real)
    return p, half / np.sqrt(p) if p > 0 else half


@pytest.mark.parametrize("parity, wire_label, anc_label, z", [
    ("even", game.Z_ID, game.Z_ID, 0), ("even", game.Z_ID, game.Z_ID, 1),
    ("odd", game.X_ID, game.X_ID, 0), ("odd", game.X_ID, game.Y_ID, 1)])
def test_tables_follow_the_dense_t_gadget_in_honest_cases(parity, wire_label,
                                                          anc_label, z):
    """An even gadget runs on an X-test wire with a Z ancilla, an odd one on
    a Z-test wire with an X (z=0) or Y (z=1) ancilla: first half, then S^-z,
    must leave the state the textbook gadget leaves in that branch, whose
    verifier reads its half in Z (even) or through H S^-z (odd)."""
    w_matrix = np.eye(2) if parity == "even" else qsim.H @ np.linalg.matrix_power(qsim.SDG, z)
    for value in (0, 1):
        w = 2 * wire_label + value
        for c in (0, 1):
            for e in (0, 1):
                a = 2 * anc_label + e
                p_c = game._GADGET_P1[w, a] if c else 1 - game._GADGET_P1[w, a]
                p_ref, out = _textbook_t_gadget(game._FAMILY[w], w_matrix, z, c, e)
                if p_c == 0:
                    assert p_ref < 1e-12
                    continue
                code = game._GADGET_AFTER[w, a, c]
                if z:
                    code = game._GATE_CODES["SDG"][code]
                assert qsim.states_equal_up_to_phase(out, game._FAMILY[code])


def test_biased_test_round_outcome_is_a_lab_error(monkeypatch):
    """An F/G-coded wire read in the Z test is no fair coin (P[1] = 0.854 or
    0.146): a lab error, not a verdict.  Odd gadgets fed F/G ancillas leave
    the Z test's stand-in wire F/G-coded (one layer: a second F/G ancilla
    can turn it back)."""
    assert 0.1 < game._READ_P1[2 * game.F_ID, game.X_ID] < 0.9
    cfg = ProtocolConfig(**{**SMALL, "d": 1}, fidelity="gadget")
    assert run_single_round(cfg, "ztest", seed=0)[0] == "accept"
    monkeypatch.setitem(game._ANCILLA_BASES, "odd", game._ANCILLA_BASES["computation"])
    with pytest.raises(QDepthError, match="P\\[1\\]"):
        run_single_round(cfg, "ztest", seed=0)


def test_rigid_round_in_game():
    cfg = ProtocolConfig(**SMALL)
    verdicts = [run_single_round(cfg, "rigid", seed=s)[0] for s in range(20)]
    assert all(v == "accept" for v in verdicts)
    verdicts = [run_single_round(cfg, "rigid", strat_a="lying", seed=s)[0]
                for s in range(10)]
    assert all(v == "reject" for v in verdicts)


@pytest.mark.parametrize("fidelity", ["abstract", "gadget"])
def test_prover_out_of_depth_fabricates_the_pool_of_that_round(fidelity):
    """At d=1 the reset prover's budget of 1 goes on its opening layer, so it
    cannot pay for query 1 and must not measure that round's pool: the
    rigidity test sees fabricated outcomes and rejects."""
    cfg = ProtocolConfig(**{**SMALL, "d": 1, "q": 2}, fidelity=fidelity)
    assert STRATEGIES_A["reset"](cfg).declared_budget == 1
    verdicts = [run_single_round(cfg, "rigid", strat_a="reset", seed=s)[0]
                for s in range(20)]
    assert verdicts == ["reject"] * 20


# -- rigidity round played alone --------------------------------------------------------


def test_rigid_standalone_rates():
    """One rigidity round over the 240-pair pool floor, played alone: honest
    passes, a classical prover A and a basis swapper are rejected."""
    cfg = ProtocolConfig(fidelity="gadget")
    assert game.game_layout(cfg).m_size == game.RIGID_POOL_FLOOR == 240

    def count(strat_a, verdict, seed0):
        return sum(run_single_round(cfg, "rigid", strat_a, seed=seed0 + t)[0] == verdict
                   for t in range(200))

    assert count("honest", "accept", 50_000) / 200 >= 0.99
    assert count("classical", "reject", 51_000) / 200 >= 0.99
    assert count("basis-swap", "reject", 52_000) / 200 >= 0.95


def test_ideal_correlators():
    assert abs(ideal_correlator("X", "X") - 1) < 1e-12
    assert abs(ideal_correlator("Y", "Y") + 1) < 1e-12
    assert abs(ideal_correlator("Z", "Z") - 1) < 1e-12
    s = sum(sign * ideal_correlator(a, o)
            for (a, o), sign in zip(game.CHSH_PAIRS, game.CHSH_SIGNS))
    assert abs(s - 2 * np.sqrt(2)) < 1e-12


# -- full protocol -----------------------------------------------------------------------


def test_full_honest_run_accepts_and_audits():
    cfg = ProtocolConfig(**SMALL, seed=8)
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
        orc = make_oracle(cfg, rng)
        a = STRATEGIES_A["honest"](cfg)
        o = STRATEGIES_O["honest"](cfg)
        verdict, tr = run_query_protocol(cfg, a, o, orc, rng)
        outs.append(tr.to_json())
    assert outs[0] == outs[1]


def test_message_count_bound():
    cfg = ProtocolConfig(**SMALL, seed=13)
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
        shape = tuple(sorted((k, len(v) if isinstance(v, Sized) else 0)
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


def test_blindness_prefix_reads_payload_lengths():
    """The prefix holds every array payload's length, so a round kind whose
    payload to A differed in length would fail the blindness test."""
    _, run = run_single_round(ProtocolConfig(**SMALL), "comp", seed=0)
    prefix = _prover_a_prefix(run.transcript)
    lengths = dict(shape for kind, shapes in prefix for shape in shapes)
    assert lengths["pool"] > 0 and lengths["labels"] == lengths["pool"]
    setup = next(m for m in run.transcript.messages
                 if m["kind"] == game.MSG_SETUP and m["to"] == "A")
    setup["payload"] = {**setup["payload"], "pool": setup["payload"]["pool"][:-1]}
    assert _prover_a_prefix(run.transcript) != prefix


def test_transcript_log_freezes_arrays():
    """A logged array is read-only, and ``to_json`` writes it as a list."""
    tr = game.Transcript(config={}, seed=0)
    sent = np.arange(3)
    tr.log(1, "V", "A", game.MSG_MEAS, {"e": sent, "c": [1, 0]})
    with pytest.raises(ValueError):
        sent[0] = 1
    assert json.loads(tr.to_json())["messages"][0]["payload"] == {"e": [0, 1, 2],
                                                                  "c": [1, 0]}


def test_round_payload_arrays_are_read_only():
    _, run = run_single_round(ProtocolConfig(**SMALL), "xtest", seed=1)
    arrays = [v for m in run.transcript.messages for v in m["payload"].values()
              if isinstance(v, np.ndarray)]
    assert arrays and not any(v.flags.writeable for v in arrays)


# -- the T gadget's first half ------------------------------------------------


def _reference_first_half(sv, wire, psi, c):
    """The dense first half in plain numpy: the stand-in with the ancilla
    ``psi`` as its last qubit, CNOT from the ancilla onto ``wire``, the wire
    projected onto |c> and the ancilla put in its place.  Returns (P[c],
    post-state); P[c] > 0 on a state without zero amplitudes."""
    merged = np.multiply.outer(sv.amplitudes.reshape([2] * sv.num_qubits), psi)
    merged[..., 1] = np.flip(merged[..., 1], axis=wire).copy()
    branch = np.moveaxis(np.take(merged, c, axis=wire), -1, wire).reshape(-1)
    p = float(np.vdot(branch, branch).real)
    return p, branch / np.sqrt(p)


class _PickOutcome:
    """A stand-in for ``qsim.born_pick`` that returns a fixed outcome,
    recording the normalised probabilities of the weights it was offered."""

    def __init__(self, c):
        self.c, self.p = c, None

    def __call__(self, rng, probs):
        self.p = probs / probs.sum()
        return self.c


def _first_half(sv, wire, code, rng):
    """Run ``game.gadget_first_half`` on a copy of ``sv`` with the ancilla of
    family code ``code``."""
    sv = sv.copy()
    c = game.gadget_first_half(sv, wire, code, rng)
    return c, sv.amplitudes


def test_gadget_kraus_matches_dense_reference(monkeypatch):
    """Over random 1-3 qubit stand-ins, every wire, all ten ancilla codes
    and both outcomes, the Kraus kernel gives the dense path's P[c] and
    post-state to 1e-12."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(4):
            sv = qsim.StateVector(n, qsim.random_state(n, rng))
            for wire in range(n):
                for code in range(10):
                    psi = game._FAMILY[code]
                    for c in (0, 1):
                        p_ref, post_ref = _reference_first_half(sv, wire, psi, c)
                        pick = _PickOutcome(c)
                        monkeypatch.setattr(game, "born_pick", pick)
                        got_c, post = _first_half(sv, wire, code, None)
                        assert got_c == c
                        assert abs(pick.p[c] - p_ref) < 1e-12
                        assert np.allclose(post, post_ref, rtol=0, atol=1e-12)


def test_gadget_kraus_makes_the_draw_the_dense_measurement_made():
    """With a real generator, the kernel draws c as the dense measurement
    did, ``Generator.choice`` on the Born probabilities of the wire: the
    same outcome and the generator left in the same state."""
    src = np.random.default_rng(8)
    for trial in range(40):
        n = 1 + trial % 3
        sv = qsim.StateVector(n, qsim.random_state(n, src))
        wire, code = trial % n, trial % 10
        rng_new, rng_ref = (np.random.default_rng(trial) for _ in range(2))
        c, _ = _first_half(sv, wire, code, rng_new)
        probs = np.array([_reference_first_half(sv, wire, game._FAMILY[code], c)[0]
                          for c in (0, 1)])
        c_ref = rng_ref.choice(2, p=probs / probs.sum())
        assert c == c_ref
        assert rng_new.random() == rng_ref.random()


# The golden digests depend on this numpy property: int64 ``integers`` calls
# with ranges below 2^32 each take one 32-bit word per value (two from each
# 64-bit output, the spare one kept in the bit generator's state between
# calls), so draws that follow each other can be made as one call and split.
# ``ProverA.query_round`` and ``GameRun.run_round`` draw their bits that way.
@pytest.mark.parametrize("earlier", [0, 1, 3])
def test_merged_integer_draws_equal_separate_draws(earlier):
    for seed in range(10):
        sep, merged = np.random.default_rng(seed), np.random.default_rng(seed)
        for r in (sep, merged):     # an odd count leaves a spare word behind
            r.integers(0, 2, size=earlier)
        want = np.concatenate([sep.integers(0, 2, size=5), sep.integers(0, 2, size=3),
                               sep.integers(0, 2, size=3)])
        got = merged.integers(0, 2, size=11)
        assert np.array_equal(got, want)
        assert sep.bit_generator.state == merged.bit_generator.state
        # mixed ranges, merged through array bounds
        want = np.concatenate([sep.integers(0, 2, size=3), [sep.integers(64)],
                               sep.integers(0, 5, size=2), [sep.integers(1, 1 << 31)]])
        got = merged.integers([0, 0, 0, 0, 0, 0, 1], [2, 2, 2, 64, 5, 5, 1 << 31])
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert sep.bit_generator.state == merged.bit_generator.state


def test_gadget_tables_match_the_pair_derivation():
    """``_GADGET_P1`` and ``_GADGET_AFTER``, derived from the Kraus table,
    equal the tables the CNOT on two-wire family products gives."""
    out = np.einsum("awxc->wacx", (game._PAIRS @ qsim.GATE_MATRICES["CNOT"].T)
                    .reshape(10, 10, 2, 2))
    p1 = np.round(np.sum(abs(out[:, :, 1]) ** 2, axis=-1), 9)
    after = game._codes_of(out.reshape(-1, 2), game._FAMILY).reshape(10, 10, 2)
    assert np.array_equal(game._GADGET_P1, p1)
    assert np.array_equal(game._GADGET_AFTER, after)
    # a Z-eigenstate wire meets a Z-eigenstate ancilla with a certain c; every
    # other pair reads c as a fair coin
    want = np.full((10, 10), 0.5)
    want[4:6, 4:6] = [[0, 1], [1, 0]]
    assert np.array_equal(game._GADGET_P1, want)


def test_inplace_game_never_builds_the_off_domain_permutation():
    """Prover A's queries stay on the valid set of the final bijection, so a
    whole in-place game leaves its off-domain permutation unbuilt."""
    cfg = ProtocolConfig(**SMALL, alpha=0.9)
    for seed in range(4):
        rng = trial_rng(seed, 0)
        orc = make_oracle(cfg, rng)
        run_query_protocol(cfg, STRATEGIES_A["honest"](cfg), STRATEGIES_O["honest"](cfg),
                           orc, rng)
        assert "off_domain" not in vars(orc.final)


def test_protocol_order_violation_rejects():
    cfg = ProtocolConfig(**SMALL, seed=3)
    rng = trial_rng(3, 0)
    orc = make_oracle(cfg, rng)

    class Rude(game.ProverA):
        def query_round(self, labels, rng):
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
    cfg = ProtocolConfig(**SMALL, seed=3)
    rng = trial_rng(3, 0)
    orc = make_oracle(cfg, rng)
    with pytest.raises(SchemeViolation, match="lab bug"):
        run_query_protocol(cfg, STRATEGIES_A["honest"](cfg),
                           STRATEGIES_O["honest"](cfg), orc, rng)


def _spy_session(monkeypatch):
    """Count ``HybridSession.layer`` calls and the runs of their ops, every
    ``charge_layers`` call (``layer`` charges through it too), and the
    layers declared by calls made outside ``layer``."""
    seen = {"layer": 0, "ops": 0, "charge_layers": 0, "declared": 0}
    in_layer = []
    layer = game.HybridSession.layer
    charge_layers = game.HybridSession.charge_layers

    def spy_layer(self, states, op, note=""):
        seen["layer"] += 1

        def counted(st):
            seen["ops"] += 1
            return op(st)
        in_layer.append(True)
        try:
            return layer(self, states, counted, note)
        finally:
            in_layer.pop()

    def spy_charge_layers(self, layers, note=""):
        seen["charge_layers"] += 1
        if not in_layer:
            seen["declared"] += layers
        return charge_layers(self, layers, note)

    monkeypatch.setattr(game.HybridSession, "layer", spy_layer)
    monkeypatch.setattr(game.HybridSession, "charge_layers", spy_charge_layers)
    return seen


def _no_test_trial(strategy, seed=3, strat_o="honest", **kw):
    cfg = ProtocolConfig(**{**SMALL, **kw}, alpha=0.99, seed=seed)
    rng = trial_rng(seed, 0)
    orc = make_oracle(cfg, rng)
    prover = STRATEGIES_A[strategy](cfg)
    verdict, tr = run_query_protocol(cfg, prover, STRATEGIES_O[strat_o](cfg),
                                     orc, rng)
    assert tr.depth_audit["branch"] == "no-test"
    return cfg, prover, verdict, tr


def test_honest_abstract_audit_comes_from_executed_layers(monkeypatch):
    """Both Hadamard walls run once, on the one state the instances share,
    whatever t_parallel is; only the q teleport layers are declared, every
    layer run or declared is charged through ``charge_layers``, and the
    audit reads q + 2.  The verdict holds at any seed: A's GF(2) solve
    finds s or gives up, A answers what it found, and V accepts s only."""
    seen = _spy_session(monkeypatch)
    solved = []

    def spy_solve(samples, n):
        solved.append(oracles.solve_hidden_shift(samples, n))
        return solved[-1]

    monkeypatch.setattr(game, "solve_hidden_shift", spy_solve)
    ops = {}
    for t_parallel in (2, SMALL["t_parallel"], 12):
        for key in seen:
            seen[key] = 0
        solved.clear()
        cfg, _, verdict, tr = _no_test_trial("honest", t_parallel=t_parallel)
        s = make_oracle(cfg, trial_rng(cfg.seed, 0)).base.simon.s
        (w,) = [m["payload"]["w"] for m in tr.messages if m["kind"] == game.MSG_FINAL]
        assert solved in ([s], [None])
        assert w == s or solved == [None]
        assert (verdict == "accept") == (w == s)
        assert seen["layer"] == 2
        assert seen["ops"] == 2          # one register per wall
        assert seen["declared"] == cfg.q
        assert seen["charge_layers"] == cfg.q + 2
        assert tr.depth_audit["audited_depth"] == cfg.q + 2
        ops[t_parallel] = seen["ops"]
    assert ops[2] == ops[12]


def test_attack_copies_instance_zero_off_the_shared_state():
    """A planted attack writes to a copy of instance 0; the other instances
    stay one object whose support is the attack-free one."""
    cfg = ProtocolConfig(**SMALL)
    for seed in range(3):
        _, attacked = run_single_round(cfg, "comp", "honest", "pauli-x", seed=seed)
        _, clean = run_single_round(cfg, "comp", "honest", "honest", seed=seed)
        inst = attacked.a.instances
        assert len(inst) == cfg.t_parallel
        assert inst[0] is not inst[1]
        assert set(inst[0].support) != set(inst[1].support)
        assert all(st is inst[1] for st in inst[1:])
        assert inst[1].support == clean.a.instances[1].support
        assert all(st is clean.a.instances[0] for st in clean.a.instances)


def test_pauli_attack_is_one_mask_per_kind_on_instance_zero():
    """A two-wire attack X on wire 0 and Z on wire 1 leaves instance 0 the
    attack-free support under those two masks: Z signs, then X flips."""
    cfg = ProtocolConfig(**SMALL)
    attack = qsim.PauliOp(2, 0b10, 0b01)
    for seed in range(3):
        _, clean = run_single_round(cfg, "comp", seed=seed)
        _, attacked = game._play_single_round(
            cfg, "comp", game.ProverA(), game.ProverO(attack=attack), None,
            trial_rng(seed, 0))
        width = clean.layout.inst_width
        x_mask, z_mask = 1 << (width - 1), 1 << (width - 2)
        want = {k ^ x_mask: (-v if k & z_mask else v)
                for k, v in clean.a.instances[0].support.items()}
        assert attacked.a.instances[0].support == want
        assert attacked.a.instances[1].support == clean.a.instances[1].support


@pytest.mark.parametrize("x_bits, z_bits, verdicts", [
    (0b11, 0, ("reject", "accept")), (0, 0b11, ("accept", "reject")),
    (0b01, 0b10, ("reject", "reject")), (0, 0, ("accept", "accept")),
])
def test_pauli_attack_on_test_wires(x_bits, z_bits, verdicts):
    """In test rounds the attack runs through the X and Z code maps of every
    wire it names: an X part fails the X test, a Z part the Z test."""
    cfg = ProtocolConfig(n=3, d=2, q=3, fidelity="gadget")
    for seed in range(4):
        got = tuple(game._play_single_round(
            cfg, kind, game.ProverA(), game.ProverO(attack=qsim.PauliOp(2, x_bits, z_bits)),
            None, trial_rng(seed, 0))[0] for kind in ("xtest", "ztest"))
        assert got == verdicts


def test_attack_wider_than_the_register_is_a_lab_error():
    cfg = ProtocolConfig(n=3, d=2, q=3, fidelity="gadget")
    with pytest.raises(QDepthError):
        game._play_single_round(cfg, "xtest", game.ProverA(),
                                game.ProverO(attack=qsim.PauliOp(3, 0b100, 0)),
                                None, trial_rng(0, 0))


def test_final_answer_draws_instance_zero_from_its_own_state(monkeypatch):
    """Under attack the closing measurement builds instance 0's outcome table
    first, from its own copy, then one table for the other t-1 instances'
    shared state, which holds the attack-free support."""
    def spy_on(tables):
        def spy(state):
            tables.append(dict(state.support))
            return full_table(state)
        return spy

    full_table = game._full_measurement_table
    attacked, clean = [], []
    monkeypatch.setattr(game, "_full_measurement_table", spy_on(attacked))
    cfg, prover, _, _ = _no_test_trial("honest", strat_o="pauli-x")
    monkeypatch.setattr(game, "_full_measurement_table", spy_on(clean))
    _no_test_trial("honest")
    assert len(attacked) == 2 and len(clean) == 1
    assert attacked[0] != attacked[1] == clean[0]
    assert set(prover.instances[0].support) <= set(attacked[0])
    assert all(len(st.support) == 1 for st in prover.instances)
    assert len(prover.instances) == cfg.t_parallel


def _measured_final_answer(self, rng):
    """Honest prover A's final answer drawn by ``qsim.measure`` of each
    instance's own copy, one outcome table per instance."""
    cfg, total = self.cfg, self.layout.inst_width
    inplace = cfg.target == "inplace"
    wall = list(range(cfg.n)) + ([total - 1] if inplace else [])
    if self.instances is not None and self._charge(
            "final_hadamard", list({id(st): st for st in self.instances}.values()),
            lambda st: st.apply_hadamard_wall(wall)):
        drawn = [qsim.measure(st.copy(), range(total), "standard", rng)
                 for st in self.instances]
        self.instances = [st for _, st in drawn]
        samples = [oracles.shift_sample(bits, cfg.n, inplace) for bits, _ in drawn]
        s_hat = oracles.solve_hidden_shift([y for y in samples if y is not None], cfg.n)
        if s_hat is not None:
            return s_hat
    return int(rng.integers(0, 1 << cfg.n))


@pytest.mark.parametrize("target", ["inplace", "standard"])
@pytest.mark.parametrize("strat_o", ["honest", "pauli-x", "pauli-z"])
def test_final_answer_draws_what_measuring_each_copy_draws(monkeypatch, target,
                                                           strat_o):
    """One table per distinct state gives each instance the outcome and the
    collapsed state, and leaves the generator where, ``qsim.measure`` of the
    instance's own copy does."""
    def recorded(final_answer, out):
        def answer(self, rng):
            w = final_answer(self, rng)
            out.append((w, [st.support for st in self.instances],
                        rng.bit_generator.state))
            return w
        return answer

    for seed in range(3):
        got = {}
        for name, final_answer in (("table", game.ProverA.final_answer),
                                   ("measure", _measured_final_answer)):
            out = got[name] = []
            with monkeypatch.context() as patch:
                patch.setattr(game.ProverA, "final_answer", recorded(final_answer, out))
                _, _, _, tr = _no_test_trial("honest", seed=seed, strat_o=strat_o,
                                             target=target)
            out.append(tr.to_json())
        assert got["table"] == got["measure"]


def test_classical_prover_runs_no_layer(monkeypatch):
    """At budget 0 the opening wall is refused before it touches a state."""
    seen = _spy_session(monkeypatch)
    _, prover, _, tr = _no_test_trial("classical")
    assert prover.instances is None
    assert seen["ops"] == 0 and seen["declared"] == 0
    # the wall's one charge is the refused one
    assert seen["layer"] == seen["charge_layers"] == 1
    assert tr.depth_audit["audited_depth"] == 0


def test_run_trials_interface():
    cfg = ProtocolConfig(**SMALL, seed=17, trials=120)
    res, transcripts = run_trials(cfg, "honest", "honest")
    assert res["trials"] == 120 and res["repeat"] == 1
    assert res["ci95"][0] <= res["p_hat"] <= res["ci95"][1]
    assert [json.loads(tr)["seed"] for tr in transcripts] == [17, 17, 17]


def test_run_trials_transcripts_replay_from_the_config_seed():
    """Each transcript records the seed its trial ran from, and replaying
    its stream alone reproduces it."""
    cfg = replace(ProtocolConfig(**SMALL, trials=3), seed=5)
    _, transcripts = run_trials(cfg, "honest", "honest")
    assert len(transcripts) == 3
    for stream, tr in enumerate(transcripts):
        assert json.loads(tr)["seed"] == 5
        assert tr == _honest_stream(cfg, stream).to_json()


def _cvqd2_config(n, d, **kw):
    """The assembled run's config: q is the access model's query count, d+1
    in-place and 2d+1 standard, set when the config is built so that alpha
    is chosen for it."""
    q = d + 1 if kw.get("target", "inplace") == "inplace" else 2 * d + 1
    cfg = ProtocolConfig(n=n, d=d, q=q, **kw)
    assert q == query_count(cfg)
    return cfg


def test_run_trials_depth_audit_both_targets():
    cfg = _cvqd2_config(3, 2, target="inplace", t_parallel=8, trials=40, seed=5)
    res, _ = run_trials(cfg, "honest", "honest")
    assert res["config"]["q"] == 3
    assert max(res["audited_depths"]) == 5
    cfg = _cvqd2_config(3, 2, target="standard", t_parallel=8, trials=40, seed=5)
    res, _ = run_trials(cfg, "honest", "honest")
    assert res["config"]["q"] == 5
    assert max(res["audited_depths"]) == 7


def test_run_trials_gadget_expected_depth_matches_honest_audit():
    """Gadget fidelity grades no final answer, so the honest audit is q+1."""
    cfg = _cvqd2_config(3, 2, fidelity="gadget", trials=100, seed=3)
    res, _ = run_trials(cfg, "honest", "honest")
    assert res["expected_honest_depth"] == res["config"]["q"] + 1
    assert max(res["audited_depths"]) == res["expected_honest_depth"]


def test_sequential_repetition_widens_gap():
    """Accept-all-repetitions amplifies honest-vs-cheat separation.

    Honest acceptance is about 0.98 here and lying about 0.08, so the gap is
    expected to grow by about 0.04 from one repetition to three.  At 60
    trials that held at only about 3 seeds in 4; 480 make it a 2.5-sigma
    margin."""
    cfg = _cvqd2_config(3, 2, t_parallel=8, oracle_mode="exact", trials=480, seed=23)
    gaps = []
    for repeat in (1, 3):
        h, _ = run_trials(cfg, "honest", "honest", repeat=repeat)
        c, _ = run_trials(cfg, "lying", "honest", repeat=repeat)
        gaps.append(h["p_hat"] - c["p_hat"])
    assert gaps[1] > gaps[0]


def test_gadget_fidelity_full_protocol():
    cfg = ProtocolConfig(n=2, d=2, q=3, fidelity="gadget", seed=29, trials=150)
    res, _ = run_trials(cfg, "honest", "honest")
    assert res["p_hat"] >= 0.97


def test_gadget_fidelity_attack_reaches_the_stand_in():
    """In gadget fidelity prover O's attack acts on the live stand-in of a
    computation round, so A decrypts the honest state under the Pauli, and
    the no-test branch's final check rejects a bit flip.  (A phase flip is
    only a global phase on the stand-in's basis state.)"""
    cfg = ProtocolConfig(n=3, d=2, q=3, fidelity="gadget", alpha=0.999, seed=11,
                         trials=200)
    for seed in range(3):
        _, clean = run_single_round(cfg, "comp", seed=seed)
        _, attacked = run_single_round(cfg, "comp", "honest", "pauli-x", seed=seed)
        want = clean.a.standin.copy()
        want.apply_gate(qsim.Gate("X", (0,)))
        assert qsim.states_equal_up_to_phase(attacked.a.standin.amplitudes,
                                             want.amplitudes)
    honest, _ = run_trials(cfg, "honest", "honest")
    flipped, _ = run_trials(cfg, "honest", "pauli-x")
    assert (honest["p_hat"], flipped["p_hat"]) == (1.0, 0.0)


def test_answer_branch_rates_when_no_test_runs():
    """Forcing the no-test branch: honest answers recover the shift at a
    >= 0.99 rate while uniformly random answers sit at chance level."""
    cfg = ProtocolConfig(n=3, d=2, q=3, alpha=0.999, seed=61, trials=300)
    honest, _ = run_trials(cfg, "honest", "honest")
    rand, _ = run_trials(cfg, "random-answer", "honest")
    assert honest["p_hat"] >= 0.99
    chance = 1.0 / (2 ** cfg.n - 1)
    assert abs(rand["p_hat"] - chance) < 0.06
