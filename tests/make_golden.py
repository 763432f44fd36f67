"""Regenerate the golden ``tripcover`` corpus in ``tests/golden``.

    PYTHONPATH=src python tests/make_golden.py

Writes ``<name>.json`` for every instance of ``conftest.golden_docs``, the
document ``tripcover solve`` writes at its defaults without ``--timing``, for
every entry of ``conftest.golden_commands``, the ``preprocess`` or ``curves``
document it names, and ``versions.json``, the numpy and Python versions that
produced them.  ``test_golden.py`` compares every document byte for byte, so
regenerate only when an answer is meant to change, and say which one changed
and why.
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import GOLDEN_DIR, command_document, golden_commands, golden_docs, solve_document


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, doc in golden_docs().items():
            text = solve_document(doc, Path(scratch))
            (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        for name, (doc, command) in golden_commands().items():
            text = command_document(doc, Path(scratch), command)
            (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
    versions = {"numpy": np.__version__, "python": platform.python_version()}
    (GOLDEN_DIR / "versions.json").write_text(json.dumps(versions, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
