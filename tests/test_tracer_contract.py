"""The library attributes the benchmark tracer patches.

``bench/tracer.py`` looks each patched attribute up as
``owner.__dict__[attr]``, so a refactor that renames or drops one (or moves a
method to a base class) breaks only the traced benchmark run.  This guard
loads the tracer module without installing it and checks every entry.
"""

import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHES = _load_tracer().PATCHES


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, _, _ in PATCHES],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in PATCHES])
def test_every_patched_attribute_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])
