"""The mutant catalogue (`tests/mutants.py`) still applies to today's source."""

import pytest

from mutants import MUTANTS, source


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_old_snippet_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert source(mutant).count(mutant.old) == 1
