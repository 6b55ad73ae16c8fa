"""The hand-run tools stay runnable.

A refactor that moves a mutant's line of ``tests/mutants.py`` fails here, and
so does a ``tests/code_lines.py`` whose total is not the sum of its modules.
"""

import subprocess
import sys

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_one_line_of_its_file(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_code_line_total_is_the_sum_of_the_modules():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "code_lines.py")],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    *modules, total = (line.split() for line in out.splitlines())
    assert [name for name, _ in modules] == sorted(p.name for p in (ROOT / "src/qkad").glob("*.py"))
    assert total[0] == "total"
    assert int(total[1].replace(",", "")) == sum(int(n.replace(",", "")) for _, n in modules)
