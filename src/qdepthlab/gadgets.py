"""Delegated computation on one-time-padded data via teleportation gadgets.

A delegated circuit over {CNOT, H, T} runs on data encrypted with a quantum
one-time pad X^a Z^b.  Every T gate is executed as a three-wire gadget that
consumes a fresh EPR pair; every H gate is pre-compiled into the ten-gate
sequence HTTHTTHTTH (equal to H up to the global phase e^{i pi/4}), whose six
T gates run as gadgets too.  Test rounds run the same gadget traffic on
encrypted |0^n> or |+^n> so that the whole computation acts as the identity
up to a key update, exposing bit-flip or phase-flip tampering.

This module holds the pieces both round kinds share: the pad
(``encrypt_state``, ``decrypt_state``), the key-update rules
(``update_keys``), the H compilation and the gadget parity rule
(``compile_ops``, ``gadget_parity``), and ``run_t_gadget``, a dense
reference simulation of one gadget with its verifier measurement
``choose_W``.  Rounds themselves, X and Z tests included, are played only by
``game.GameRun``, whose gadget tables are tested against ``run_t_gadget``.

Phase conventions (fixed by requiring the key-update rules to hold exactly,
branch by branch): the computation-round measurement is H P^w T with
P = diag(1, i) and w = (a + c + z) mod 2; the odd-parity measurement and the
correction on the surviving wire use the inverse phase gate diag(1, -i).
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import QDepthError
from .qsim import (
    GATE_MATRICES,
    Gate,
    H,
    I2,
    S,
    SDG,
    StateVector,
    T,
    make_epr,
    measure,
)


class RoundType(enum.Enum):
    COMPUTATION = "computation"
    XTEST = "xtest"
    ZTEST = "ztest"


H_COMPILE_SEQUENCE = ("H", "T", "T", "H", "T", "T", "H", "T", "T", "H")


def h_sequence_matrix() -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for name in H_COMPILE_SEQUENCE:
        m = m @ GATE_MATRICES[name]
    return m


def gadget_parity(round_type: RoundType, h_count) -> str:
    """Parity of a T gadget from the H count inside its enclosing H gadget.

    ``h_count`` is None for a bare T gate.  In an X-test a gadget is even
    when an even number of H gates precede it inside the H gadget (a bare T
    acts on a |0>-type wire and is even); in a Z-test the rule mirrors.
    """
    h = 0 if h_count is None else h_count
    if round_type == RoundType.XTEST:
        return "even" if h % 2 == 0 else "odd"
    if round_type == RoundType.ZTEST:
        return "odd" if h % 2 == 0 else "even"
    return "computation"


def choose_W(round_type: RoundType, parity, a_key, c, z) -> np.ndarray:
    """Measurement unitary for the gadget's verifier wire, as a 2x2 matrix.

    Computation rounds use H P^{a'+c+z} T with the exponent mod 2, where a'
    is the X key of the data wire entering the gadget.
    """
    if round_type == RoundType.COMPUTATION:
        w = (a_key + c + z) % 2
        return H @ np.linalg.matrix_power(S, w) @ T
    if parity == "even":
        return I2.copy()
    if parity == "odd":
        return H @ np.linalg.matrix_power(SDG, z)
    raise QDepthError(f"unknown parity {parity!r}")


def update_keys(gate, keys, outcomes):
    """Apply one key-update rule in place to ``keys``, the per-wire pad keys
    as [a, b] rows for X^a Z^b, and return them.

    ``outcomes`` carries the wires plus whichever of c, e, z, parity the rule
    needs.  All arithmetic is mod 2.
    """
    if gate == "H":
        w = outcomes["wire"]
        a, b = keys[w]
        keys[w] = [b, a]
    elif gate == "CNOT":
        ctl, tgt = outcomes["control"], outcomes["target"]
        a, b = keys[ctl]
        a2, b2 = keys[tgt]
        keys[ctl] = [a, (b + b2) % 2]
        keys[tgt] = [(a + a2) % 2, b2]
    elif gate == "T":
        w = outcomes["wire"]
        c, e, z = outcomes["c"], outcomes["e"], outcomes["z"]
        parity = outcomes["parity"]
        a, b = keys[w]
        if parity == "computation":
            a2 = (a + c) % 2
            keys[w] = [a2, (b + e + a + c + a2 * z) % 2]
        elif parity == "even":
            keys[w] = [e, 0]
        elif parity == "odd":
            keys[w] = [0, (b + e + z) % 2]
        else:
            raise QDepthError(f"unknown parity {parity!r}")
    else:
        raise QDepthError(f"no key-update rule for gate {gate!r}")
    return keys


def compile_ops(ops):
    """Expand H gates into H gadgets; annotate T gadgets with their H count.

    ``ops`` is a sequence of ("T", w), ("H", w), ("CNOT", c, t).  Returns
    the compiled op list, whose entries are ("h", w), ("cnot", c, t) and
    ("t", w, h_count_or_None).
    """
    compiled = []
    for op in ops:
        kind = op[0].upper()
        if kind == "CNOT":
            compiled.append(("cnot", op[1], op[2]))
        elif kind == "T":
            compiled.append(("t", op[1], None))
        elif kind == "H":
            w = op[1]
            h_seen = 0
            for name in H_COMPILE_SEQUENCE:
                if name == "H":
                    compiled.append(("h", w))
                    h_seen += 1
                else:
                    compiled.append(("t", w, h_seen))
        else:
            raise QDepthError(f"cannot compile gate {kind!r}")
    return compiled


def _postselect(state: StateVector, qubit, bit):
    """Project a qubit onto |bit>; returns branch probability (state mutated)."""
    mask = state._mask(qubit)
    idx = np.arange(len(state.amplitudes))
    sel = ((idx & mask) != 0) == bool(bit)
    amps = np.where(sel, state.amplitudes, 0.0)
    p = float(np.vdot(amps, amps).real)
    if p > 1e-12:
        state.amplitudes = amps / np.sqrt(p)
    return p


def run_t_gadget(state, data_wire, round_type, parity, z, rng,
                 keys=None, force=None):
    """Run one T gadget on ``data_wire`` using a fresh EPR pair.

    The pair is appended to the register; the verifier wire is measured with
    choose_W after the prover's data-wire measurement produced c; the
    surviving half takes the data wire's place after the inverse-phase-gate
    correction.  ``keys``, [a, b] rows as ``update_keys`` takes them, are
    updated in place when given.  Returns (c, e, state, keys).

    ``force=(c, e)`` postselects both outcomes (used by exhaustive tests); a
    forced branch of probability zero raises.
    """
    n = state.num_qubits
    epr = make_epr(1)
    state = StateVector(n + 2, np.kron(state.amplitudes, epr.amplitudes),
                        state.dense_limit)
    a_wire, v_wire = n, n + 1

    # prover: CNOT from its EPR half onto the data wire, then measure it
    state.apply_gate(Gate("CNOT", (a_wire, data_wire)))
    if force is None:
        (c,), state = measure(state, [data_wire], "standard", rng)
    else:
        c = force[0]
        if _postselect(state, data_wire, c) < 1e-12:
            raise QDepthError("forced c branch has probability 0")

    a_key = keys[data_wire][0] if keys is not None else 0
    w_matrix = choose_W(round_type, parity, a_key, c, z)

    # verifier: rotate its half by W and measure
    state.apply_gate(Gate("W", (v_wire,), matrix=w_matrix))
    if force is None:
        (e,), state = measure(state, [v_wire], "standard", rng)
    else:
        e = force[1]
        if _postselect(state, v_wire, e) < 1e-12:
            raise QDepthError("forced e branch has probability 0")

    # prover: inverse phase correction on the surviving wire
    state.apply_gate(Gate("PZC", (a_wire,), matrix=np.linalg.matrix_power(SDG, z)))

    state.remove_qubit(v_wire, e)
    state.remove_qubit(data_wire, c)
    # the surviving EPR half is now the last qubit; put it where the data was
    state.move_qubit(state.num_qubits - 1, data_wire)

    if keys is not None:
        update_keys("T", keys, {"wire": data_wire, "c": c, "e": e, "z": z,
                                "parity": parity})
    return c, e, state, keys


@functools.lru_cache(maxsize=None)
def _index_parities(n) -> np.ndarray:
    """Per basis index of an n-qubit register, the parity of its set bits."""
    par = np.arange(1 << n)
    for shift in (32, 16, 8, 4, 2, 1):
        par = par ^ (par >> shift)
    par = (par & 1).astype(bool)
    par.flags.writeable = False
    return par


def _apply_pad(state: StateVector, keys, z_first) -> StateVector:
    """A copy of ``state`` under X^a Z^b on every wire, by the [a, b] rows
    ``keys``, Z applied first when ``z_first``, else X.  Paulis only permute and negate amplitudes, so this
    is one gather and one sign flip, exact as gate-by-gate application."""
    n = state.num_qubits
    if len(keys) < n:
        raise QDepthError(f"{len(keys)} pad keys for {n} wires")
    a_mask = b_mask = 0
    for a, b in keys[:n]:
        a_mask = (a_mask << 1) | a
        b_mask = (b_mask << 1) | b
    idx = np.arange(1 << n)
    src = idx ^ a_mask
    amps = state.amplitudes[src]
    # Z^b applied first reads its sign on the source index, applied last on
    # the output index
    amps[_index_parities(n)[(src if z_first else idx) & b_mask]] *= -1
    return StateVector(n, amps, state.dense_limit)


def encrypt_state(state: StateVector, keys) -> StateVector:
    """A copy of ``state`` under the one-time pad X^a Z^b of the [a, b] rows
    ``keys``, wire by wire: Z where b is set, then X where a is set."""
    return _apply_pad(state, keys, z_first=True)


def decrypt_state(state: StateVector, keys) -> StateVector:
    """A copy of ``state`` with the pad of ``encrypt_state`` removed:
    X where a is set, then Z where b is set."""
    return _apply_pad(state, keys, z_first=False)
