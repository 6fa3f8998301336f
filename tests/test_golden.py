"""Golden CLI reports: every report must match its recorded JSON exactly,
apart from ``timing_ms``.

The files under ``tests/golden/`` pin the observable behaviour of the
engine (dimensions, bases, statuses, certificate sizes).  To record them
again after an intended change of behaviour, run

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib
import sys

import pytest

from ncdef.cli import render_json, run_command

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "zoo-laufer-n1": ["zoo", "laufer", "--n", "1", "--lambda", "0,0"],
    "zoo-laufer-n2": ["zoo", "laufer", "--n", "2", "--lambda", "0,0,1,0"],
    "zoo-laufer-n1-sym": ["zoo", "laufer", "--n", "1", "--lambda", "sym"],
    "zoo-laufer-n3": ["zoo", "laufer", "--n", "3", "--lambda", "0,0,0,0,0,0"],
    "zoo-laufer-n3-e4": ["zoo", "laufer", "--n", "3", "--lambda", "0,0,0,1,0,0"],
    "zoo-length2": ["zoo", "length2"],
    **{
        f"zoo-karmazyn-{l}-verify": [
            "zoo", "karmazyn", "--length", str(l), "--verify",
            "--max-degree", "8",
        ]
        for l in (3, 4, 5, 6)
    },
    "matfac-verify-all": ["matfac", "verify-all"],
    "bundle-length4": ["bundle", "--length", "4"],
    "identities-n1": ["identities", "--n", "1"],
}


def report(argv):
    """The JSON text of one CLI run, without its ``timing_ms``."""
    _, doc = run_command(argv)
    assert doc is not None, argv
    doc.pop("timing_ms")
    return render_json(doc)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch, capsys):
    monkeypatch.delenv("NCDEF_MAX_DEGREE", raising=False)
    got = report(CASES[name])
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        text = report(argv)
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {name}", file=sys.stderr)
