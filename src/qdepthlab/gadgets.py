"""Delegated computation on one-time-padded data via teleportation gadgets.

A delegated circuit over {CNOT, H, T} runs on data encrypted with a quantum
one-time pad X^a Z^b.  Every T gate is executed as a gadget that consumes a
fresh EPR pair; every H gate is pre-compiled into the ten-gate sequence
HTTHTTHTTH (equal to H up to the global phase e^{i pi/4}), whose six T gates
run as gadgets too.  Test rounds run the same gadget traffic on encrypted
|0^n> or |+^n> so that the whole computation acts as the identity up to a
key update, exposing bit-flip or phase-flip tampering.

This module holds the pieces both round kinds share: the pad
(``encrypt_state``, ``decrypt_state``), the key-update rules
(``update_keys``), and the H compilation and the gadget parity rule
(``compile_ops``, ``gadget_parity``).  The gadget itself is the referee's
kernel in ``game`` (``gadget_first_half``, ``gadget_second_half``), which
``game.t_gadget_exhaustion`` checks branch by branch against these rules.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .errors import QDepthError
from .qsim import GATE_MATRICES, StateVector, dot_bits, read_only
# unused here; kept because bench/tracer.py patches ``gadgets.measure``
from .qsim import measure  # noqa: F401


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


@functools.cache
def _pad_operator(n, a_mask, b_mask, z_first) -> np.ndarray:
    """X^a Z^b on every wire of an n-qubit register, a and b the wire's bits
    of ``a_mask`` and ``b_mask`` (wire 0 most significant), Z applied first
    when ``z_first``, else X: a signed permutation, built once per
    (n, a_mask, b_mask, z_first) and shared, so read-only."""
    a_mask, b_mask = int(a_mask), int(b_mask)
    op = np.zeros((1 << n, 1 << n), dtype=complex)
    for out in range(1 << n):
        src = out ^ a_mask
        # Z^b applied first reads its sign on the source index, applied
        # last on the output index
        op[out, src] = -1.0 if dot_bits(src if z_first else out, b_mask) else 1.0
    return read_only(op)


def _apply_pad(state: StateVector, keys, z_first) -> StateVector:
    """A copy of ``state`` under X^a Z^b on every wire, by the [a, b] rows
    ``keys``, Z applied first when ``z_first``, else X.  One product with
    the pad's cached signed permutation: each amplitude is moved and
    negated or not, so this is exact as gate-by-gate application, and the
    caller's array is not written."""
    n = state.num_qubits
    if len(keys) < n:
        raise QDepthError(f"{len(keys)} pad keys for {n} wires")
    a_mask = b_mask = 0
    for a, b in keys[:n]:
        a_mask = (a_mask << 1) | a
        b_mask = (b_mask << 1) | b
    return StateVector(n, _pad_operator(n, a_mask, b_mask, z_first) @ state.amplitudes)


def encrypt_state(state: StateVector, keys) -> StateVector:
    """A copy of ``state`` under the one-time pad X^a Z^b of the [a, b] rows
    ``keys``, wire by wire: Z where b is set, then X where a is set."""
    return _apply_pad(state, keys, z_first=True)


def decrypt_state(state: StateVector, keys) -> StateVector:
    """A copy of ``state`` with the pad of ``encrypt_state`` removed:
    X where a is set, then Z where b is set."""
    return _apply_pad(state, keys, z_first=False)
