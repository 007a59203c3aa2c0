"""The standing mutation list (tests/mutants.py) cannot rot silently: each
mutant's old text occurs exactly once in its file, and each test it lists
exists.  Running the mutants themselves takes minutes and stays outside
tier-1."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_listed_test_exists(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        name = name.partition("[")[0]
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.MULTILINE), test


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
