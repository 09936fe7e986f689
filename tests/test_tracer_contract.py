"""The library attributes the benchmark tracer patches, and the spans it
records.

``bench/tracer.py`` looks each patched attribute up as
``owner.__dict__[attr]``, so a refactor that renames or drops one (or moves a
method to a base class) breaks only the traced benchmark run.  This guard
loads the tracer module and checks every entry without installing it; one
test installs it around a trial.
"""

import importlib.util
import pathlib

import pytest

from qdepthlab.game import (
    STRATEGIES_A, STRATEGIES_O, ProtocolConfig, make_oracle, run_query_protocol, trial_rng,
)

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _load_tracer()
PATCHES = TRACER_MODULE.PATCHES


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, _, _ in PATCHES],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in PATCHES])
def test_every_patched_attribute_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])


def test_closing_measurement_is_a_measure_span_of_final_answer():
    """Prover A's closing read-out draws through ``SparseState.sample_index``,
    which the tracer records as ``qsim.measure``: in an honest abstract
    no-test trial such a span sits directly under ``game.final_answer``."""
    cfg = ProtocolConfig(n=3, d=2, q=3, t_parallel=10, alpha=0.99, seed=3)
    rng = trial_rng(cfg.seed, 0)
    tracer = TRACER_MODULE.Tracer()
    with tracer.installed():
        oracle = make_oracle(cfg, rng)
        _, tr = run_query_protocol(cfg, STRATEGIES_A["honest"](cfg),
                                   STRATEGIES_O["honest"](cfg), oracle, rng)
    assert tr.depth_audit["branch"] == "no-test"
    spans = tracer.spans
    assert any(name == "qsim.measure" and parent >= 0
               and spans[parent][0] == "game.final_answer"
               for name, _, _, parent, _ in spans)
