"""The library names the benchmark's tracer wraps must keep existing.

``perfbench/tracer.py`` patches each ``(module, name)`` in ``TRACED`` and
fails on a missing one, so a rename or deletion here would break every
traced benchmark run; this test fails first.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library only
    return tracer.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"gradecalc.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_cli_entry_point_exists():
    from gradecalc import cli

    assert callable(cli.main)
