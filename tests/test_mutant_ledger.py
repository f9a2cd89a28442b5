"""The seeded-bug ledger stays applicable (``tests/mutants/ledger.py``).

The table is data; ``tests/mutants/drive.py`` applies it to a scratch
copy of the tree outside tier-1.  Here only the table is imported: every
row must still name text that occurs exactly once in its file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_ledger():
    spec = importlib.util.spec_from_file_location(
        "mutant_ledger", ROOT / "tests" / "mutants" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


LEDGER = _load_ledger()


@pytest.mark.parametrize("row", LEDGER.ROWS, ids=lambda row: row.id)
def test_row_applies_exactly_once(row):
    text = (ROOT / row.path).read_text()
    assert text.count(row.old) == 1, f"{row.id}: old text in {row.path}"
    assert row.new != row.old
    assert row.contract in LEDGER.CONTRACTS
    # a row that changes nothing observable says why
    assert (row.contract == "none") == bool(row.why)


def test_ids_are_unique():
    ids = [row.id for row in LEDGER.ROWS]
    assert len(ids) == len(set(ids))
