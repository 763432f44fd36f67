"""Every document of the golden corpus, byte for byte.

The corpus (``tests/golden``, written by ``make_golden.py``) pins the
objective, both transfer points, the covered pairs and every counter of the
solve statistics, so a change meant to keep every answer shows any drift.
Its ``preprocess`` and ``curves`` documents pin the distances, segments,
route forms and traced curves the same way.
"""

import json

import pytest

from conftest import GOLDEN_DIR, command_document, golden_commands, golden_docs, solve_document

DOCS = golden_docs()
COMMANDS = golden_commands()
# about a second each to solve: run with -m slow
SLOW = {"grid8-30-200"}


def test_corpus_holds_exactly_the_golden_instances():
    files = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert files == set(DOCS) | set(COMMANDS) | {"versions"}


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n for n in sorted(DOCS)]
)
def test_solve_document_matches_the_corpus(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    made_with = json.loads((GOLDEN_DIR / "versions.json").read_text())
    assert solve_document(DOCS[name], tmp_path) == expected, f"corpus written with {made_with}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_document_matches_the_corpus(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    made_with = json.loads((GOLDEN_DIR / "versions.json").read_text())
    doc, command = COMMANDS[name]
    assert command_document(doc, tmp_path, command) == expected, f"corpus written with {made_with}"
