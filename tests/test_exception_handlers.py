"""Guard: no broad exception handler in the package or its tests.

A handler that catches every exception turns a lab bug into whatever its
branch stands for (a zero-probability branch, a failed trial, a cheating
prover).  Handlers must name the package's own error types or the specific
library errors they expect.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BROAD = {"Exception", "BaseException"}


def _caught_names(handler):
    """The names an ``except`` clause catches; None for a bare ``except:``."""
    if handler.type is None:
        return None
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in types}


def broad_handlers(source, filename="<source>"):
    """(line, what) for each bare or Exception/BaseException handler."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ExceptHandler):
            names = _caught_names(node)
            if names is None:
                found.append((node.lineno, "bare except"))
            elif names & BROAD:
                found.append((node.lineno, "except " + "/".join(sorted(names & BROAD))))
    return found


@pytest.mark.parametrize("snippet, hits", [
    ("try:\n    f()\nexcept:\n    pass\n", 1),
    ("try:\n    f()\nexcept Exception:\n    pass\n", 1),
    ("try:\n    f()\nexcept (ValueError, BaseException) as e:\n    pass\n", 1),
    ("try:\n    f()\nexcept builtins.Exception:\n    pass\n", 1),
    ("try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n", 0),
    ("try:\n    f()\nexcept errors.QDepthError:\n    pass\n", 0),
], ids=["bare", "exception", "tuple-with-base", "attribute", "narrow-tuple",
        "package-error"])
def test_detector_flags_broad_handlers(snippet, hits):
    assert len(broad_handlers(snippet)) == hits


def test_no_broad_exception_handlers():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    offences = [f"{path.relative_to(ROOT)}:{line}: {what}"
                for path in files
                for line, what in broad_handlers(path.read_text(), str(path))]
    assert not offences, "broad exception handlers:\n" + "\n".join(offences)
