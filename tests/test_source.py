"""Source conventions of the package and its tests: Python 3.10 syntax, lines of at most 100
characters."""

import ast
from pathlib import Path

import pytest

import epband

SOURCES = sorted(Path(epband.__file__).parent.glob("**/*.py"))
TESTS = sorted(Path(__file__).parent.glob("**/*.py"))
MAX_LINE = 100


def _id(path):
    return path.name if path in SOURCES else f"tests/{path.relative_to(Path(__file__).parent)}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "btp.py", "cli.py"}
    assert {p.name for p in TESTS} >= {"test_source.py", "test_btp.py", "test_cli.py"}


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=_id)
def test_source_parses_as_python_3_10(path):
    # pyproject promises requires-python >= 3.10; the parser rejects newer syntax
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=_id)
def test_source_lines_fit(path):
    long = [
        f"{path.name}:{n}: {len(line)} characters"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == []


# btp.face alone picks the merger levels by t, snaps gamma onto 0 and places each branch level
_FACE_RULES = ("_T_ZERO", "merger_level(", "(-2.0, 2.0)", "(-1.0, 0.0, 1.0)")


@pytest.mark.parametrize("path", SOURCES, ids=_id)
def test_only_btp_places_a_point_among_the_lines(path):
    text = path.read_text(encoding="utf-8")
    found = [rule for rule in _FACE_RULES if rule in text]
    assert found == (list(_FACE_RULES) if path.name == "btp.py" else [])
