"""The island audit's static half: which defs it expects a call to.

``tools/audit_islands.py`` subtracts the functions one process entered
from this walk; CI ratchets the difference.  A def is named by class
path, keyed by the line its code object starts on (the first decorator),
and a body of only a docstring, ``...`` or ``pass`` is an interface
declaration with nothing to call.
"""

import ast
import importlib.util
from pathlib import Path

SOURCE = '''
class Base:
    def hook(self):
        """Declared only."""

    @property
    @staticmethod
    def size():
        return 1

    def outer(self):
        def inner():
            return 2
        return inner
'''


def test_defs_walk_names_decorated_nested_and_skips_stubs():
    path = Path(__file__).resolve().parent.parent / "tools" / "audit_islands.py"
    spec = importlib.util.spec_from_file_location("audit_islands", path)
    audit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(audit)
    assert list(audit.defs(ast.parse(SOURCE))) == [
        (6, "Base.size"), (11, "Base.outer"), (12, "Base.outer.inner")]
