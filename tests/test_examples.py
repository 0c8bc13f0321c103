"""Every example script must run to completion (they self-verify)."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
#: Every script in examples/, so a new example cannot be left out.
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()  # examples assert their own correctness internally
    out = capsys.readouterr().out
    assert "done." in out
