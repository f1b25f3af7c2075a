"""The answer ledger: the CLI gives the recorded stdout and exit code.

Each entry of `tests/ledger/answers.json` holds an invocation, the SHA-256
of its stdout and its exit code. A change that moves an answer fails here;
if it moves it on purpose, `python tests/make_ledger.py` rewrites the
ledger (see that script).
"""
import json

import pytest

from make_ledger import ANSWERS, INVOCATIONS, answer

LEDGER = json.loads(ANSWERS.read_text())


def test_ledger_covers_every_invocation():
    assert [tuple(entry["argv"]) for entry in LEDGER] == INVOCATIONS
    assert len(LEDGER) >= 12


@pytest.mark.parametrize("entry", LEDGER, ids=[" ".join(e["argv"]) for e in LEDGER])
def test_answer_matches_the_ledger(entry):
    assert answer(tuple(entry["argv"])) == entry
