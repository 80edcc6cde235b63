"""The README's Quick start block runs against the current library API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    # it prints the mass defect of the default heisenberg heat kernel
    assert 0 <= float(capsys.readouterr().out) < 1e-3
