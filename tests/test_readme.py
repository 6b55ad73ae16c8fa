import re
from pathlib import Path

import numpy as np

from qkad import cli
from test_cli import METHOD_OPTIONS, reads

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["scores"].shape == (10,)
    assert set(np.unique(namespace["labels"])) <= {0, 1}
    assert namespace["train_scores"].shape == (60,)


def test_readme_table_of_method_options_matches_the_code():
    # | `--option ...` | `method`, `method`, ... |; an escaped \| stays inside its cell
    rows = [line[2:-2].split(" | ") for line in README.read_text().splitlines()
            if line.startswith("| `--")]
    readme = {re.match(r"`(--[a-z-]+)", option).group(1): re.findall(r"`([a-z-]+)`", methods)
              for option, methods in rows}
    code = {option: [m for m in cli.METHODS if reads(m, option)] for option in METHOD_OPTIONS}
    # the table's options are the code's table's, but for the dataset's fraud_csv
    assert {field for field, _ in METHOD_OPTIONS.values()} == set(cli._READ_BY) - {"fraud_csv"}
    assert len(rows) == len(readme) == 7
    assert readme == code
