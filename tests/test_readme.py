"""The README's Quick start block runs, and the library names it cites exist."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import gradecalc
from gradecalc.suite import ANCHORS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    # it prints the mass defect of the default heisenberg heat kernel
    assert 0 <= float(capsys.readouterr().out) < 1e-3


def test_readme_names_resolve():
    # a backticked dotted name headed by a gradecalc module or class, such as
    # `geometry.resample_dilated` or `HeatKernelSource.ladder_sum`, must exist;
    # check ids such as `sobolev.embedding` name rows of the check table
    names = [m.name for m in pkgutil.iter_modules(gradecalc.__path__)]
    modules = {name: importlib.import_module(f"gradecalc.{name}") for name in names}
    heads = {"gradecalc": gradecalc, **modules}
    for module in modules.values():
        heads.update(
            (name, obj)
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__.startswith("gradecalc")
        )
    tokens = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text()))
    cited = sorted(t for t in tokens if t not in ANCHORS and t.split(".")[0] in heads)
    missing = []
    for token in cited:
        head, *attrs = token.split(".")
        obj = heads[head]
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(token)
                break
            obj = getattr(obj, attr)
    assert cited and not missing, missing
