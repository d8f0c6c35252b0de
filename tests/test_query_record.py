"""``query`` in search and replay modes against recorded output.

Every canonical statement over each statement or graph fixture is queried
in both modes at 3 moves and 8 graphs, and each call's exit code and stdout
digest must equal the line recorded in ``query_record.txt``.  A change to
either mode's output, however small, fails here.

After a deliberate change to that output, re-record from the repository
root with::

    PYTHONPATH=src python tests/test_query_record.py
"""

import hashlib
import io
import os

from mugci.cli import main
from mugci.model import enumerate_canonical
from mugci.modelfile import parse_model

HERE = os.path.dirname(__file__)
RECORD = os.path.join(HERE, "query_record.txt")
FIXTURES = ("chaining", "chains", "intersection", "mixing")


def _lines() -> list[str]:
    """One line per call: fixture, mode, exit code, stdout digest, statement."""
    lines = []
    for name in FIXTURES:
        path = os.path.join(HERE, "fixtures", f"{name}.mug")
        with open(path, encoding="utf-8") as f:
            universe = parse_model(f.read()).universe
        for s in enumerate_canonical(universe):
            for mode in ("search", "replay"):
                out = io.StringIO()
                argv = ["query", path, "--stmt", str(s), "--mode", mode]
                code = main(argv + ["--max-moves", "3", "--max-graphs", "8"], out=out)
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                lines.append(f"{name} {mode} {code} {digest} {s}")
    return lines


def test_query_output_matches_the_record():
    with open(RECORD, encoding="utf-8") as f:
        recorded = f.read().splitlines()
    got = _lines()
    assert len(got) == 348
    assert got == recorded


if __name__ == "__main__":
    with open(RECORD, "w", encoding="utf-8") as f:
        f.write("\n".join(_lines()) + "\n")
