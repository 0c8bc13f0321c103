#!/usr/bin/env python
"""Island audit: the defs under ``src/repro`` no supported entry point calls.

One process runs ``repro run all --csv``, ``repro list``, two ``repro sql``
statements, every example, the four ``perfbench`` workloads and
``bench_perf.py --check`` under a ``sys.setprofile`` hook; an ``ast`` walk
of every ``def`` minus the functions entered is the island list.  Prints
its length, then one ``path:line name`` per island (about 30 s).
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SQL = ("SELECT DISTINCT a FROM demo", "SELECT c, rate FROM demo JOIN dim "
       "ON demo.c = dim.id WHERE dim.rate < 2.0")


def run_script(path: Path, *argv: str) -> None:
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exit_:
        if exit_.code:
            raise


def drive() -> None:
    from repro import cli
    with tempfile.TemporaryDirectory() as tmp:
        cli.main(["run", "all", "--csv", os.path.join(tmp, "all.csv")])
    cli.main(["list"])
    for statement in SQL:
        cli.main(["sql", statement])
    for example in sorted((REPO / "examples").glob("*.py")):
        run_script(example)
    for workload in ("scan_stream", "pool_scatter", "sql_join", "write_views"):
        run_script(REPO / "perfbench" / "run.py", "--workload", workload,
                   "--seconds", "0", "--trace", "0")
    run_script(REPO / "benchmarks" / "bench_perf.py", "--check")


def defs(node: ast.AST, prefix: str = ""):
    """``(first line, qualified name)`` of each def below ``node`` with a
    body to run (not only a docstring, ``...`` or ``pass``); a decorated
    def's code starts at its first decorator."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from defs(child, prefix)
            continue
        if isinstance(child, ast.FunctionDef) and not all(
                isinstance(s, ast.Pass) or isinstance(s, ast.Expr)
                and isinstance(s.value, ast.Constant) for s in child.body):
            yield min([d.lineno for d in child.decorator_list]
                      + [child.lineno]), prefix + child.name
        yield from defs(child, prefix + child.name + ".")


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    entered = set()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        sys.setprofile(lambda frame, event, _arg: event == "call"
                       and entered.add(frame.f_code))
        try:
            drive()
        finally:
            sys.setprofile(None)
    called = {(os.path.realpath(code.co_filename), code.co_firstlineno)
              for code in entered}
    uncovered = [f"{path.relative_to(REPO)}:{line} {name}"
                 for path in sorted((REPO / "src" / "repro").rglob("*.py"))
                 for line, name in defs(ast.parse(path.read_text()))
                 if (os.path.realpath(path), line) not in called]
    print(len(uncovered), *uncovered, sep="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
