"""Statement-deletion pass over whdpd's sources.

Replaces, one at a time, each assignment, call statement, ``raise`` and
else-less ``if`` of the named modules by ``pass`` and runs the test suite on
the result. A deletion that fails no test is a statement that no test needs:
either code that no caller needs, or a behaviour that no test pins. Each
such survivor is printed as ``file:first-last`` followed by its source.

    python tools/deletion_pass.py experiment cli model kernels
    python tools/deletion_pass.py learn dsp txsim __init__

The pass works on a temporary copy of src/, tests/, pyproject.toml and
README.md (which a test reads), never on the checkout. For each deletion it
runs ``python -m pytest -x -q -p no:cacheprovider tests`` with
PYTHONPATH=src and PYTHONDONTWRITEBYTECODE=1 in that copy. A run that takes
more than ten times the unmodified suite's time counts as failed. Over all
of src/whdpd it takes most of an hour; two processes over disjoint module
lists take about half that on two cores.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p",
          "no:cacheprovider", "tests")


def deletable(stmt):
    """Assignments, call statements, raises and ifs without an else."""
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Call)
    if isinstance(stmt, ast.If):
        return not stmt.orelse
    return isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.Raise))


def deletions(tree):
    """(statement list, index) of every deletable statement, in source
    order."""
    found = []
    for node in ast.walk(tree):
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if isinstance(block, list):
                found += [(block, i) for i, stmt in enumerate(block)
                          if deletable(stmt)]
    return sorted(found, key=lambda f: (f[0][f[1]].lineno,
                                        f[0][f[1]].col_offset))


def run_tests(workdir, timeout):
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(PYTEST, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("modules", nargs="+", metavar="MODULE",
                   help="module of src/whdpd, such as learn or cli")
    args = p.parse_args(argv)
    paths = [ROOT / "src" / "whdpd" / f"{m.removesuffix('.py')}.py"
             for m in args.modules]
    for path in paths:
        if not path.is_file():
            p.error(f"no module {path.relative_to(ROOT)}")

    with tempfile.TemporaryDirectory(prefix="deletion_pass_") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)
        start = time.perf_counter()
        if not run_tests(work, None):
            sys.exit("the unmodified test suite fails; no pass is possible")
        timeout = 10 * (time.perf_counter() - start)

        total = survived = 0
        for path in paths:
            rel = path.relative_to(ROOT)
            target = work / rel
            source = target.read_text()
            tree = ast.parse(source)
            for block, i in deletions(tree):
                stmt = block[i]
                block[i] = ast.Pass()
                target.write_text(ast.unparse(tree) + "\n")
                block[i] = stmt
                total += 1
                if run_tests(work, timeout):
                    survived += 1
                    print(f"{rel}:{stmt.lineno}-{stmt.end_lineno}")
                    segment = ast.get_source_segment(source, stmt,
                                                     padded=True)
                    print(textwrap.indent(textwrap.dedent(segment), "    "),
                          flush=True)
            target.write_text(source)
    print(f"{survived} of {total} deletions failed no test")


if __name__ == "__main__":
    main()
