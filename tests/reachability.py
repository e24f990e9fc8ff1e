"""Every function defined in src/ncthick is entered by the CLI or by `verify`.

Runs, in one process under cProfile, one command per subcommand and
output format, two requests refused past their caps, one usage error and
`verify --suite all`, and checks each exit code.  Then it reads every
function definition in src/ncthick (nested ones too) and lists those the
profile never entered, apart from ALLOWED.  A function that only the tests
reach belongs in the tests.  Exits 1 on a listed function or a wrong exit
code; takes a few seconds.

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import pstats
import sys
from pathlib import Path

from ncthick import cli

SRC = Path(cli.__file__).resolve().parent

# (argv, expected exit code)
COMMANDS = [
    (["nc", "--type", "A3"], 0),
    (["nc", "--type", "B3", "--format", "dot"], 0),
    (["nc", "--type", "KRONECKER", "--bound", "2", "--format", "count"], 0),
    (["braid", "orbit", "--type", "A3"], 0),
    (["braid", "orbit", "--type", "B3", "--count"], 0),
    (["arq", "knit", "--type", "D4", "--check-mesh"], 0),
    (["arq", "knit", "--type", "A3", "--window", "-3:3", "--format", "dot"], 0),
    (["thick", "lattice", "--type", "A3", "--oracle"], 0),
    (["thick", "lattice", "--type", "D4", "--format", "dot"], 0),
    (["kronecker", "--bound", "1", "--points", "2"], 0),
    (["kronecker", "--bound", "0", "--points", "1", "--format", "dot"], 0),
    (["nc", "--type", "KRONECKER", "--bound", "4097"], 2),
    (["thick", "lattice", "--type", "E8", "--oracle"], 2),
    (["nc", "--type", "A3", "--format", "svg"], 2),
    (["verify", "--suite", "all"], 0),
]

# never entered on purpose: the guards that make a value read-only, the
# abstract key, the reprs, and the console entry point around `cli.run`
ALLOWED = {
    ("cartan.py", "_Value.__setattr__"),
    ("cartan.py", "_Value.__delattr__"),
    ("cartan.py", "_Value._key"),
    ("cli.py", "main"),
}


def definitions(path: Path) -> dict[int, str]:
    """First line (the first decorator's, as in the code object) -> qualified
    name, for every function defined in the module."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = name
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return found


def main() -> int:
    profile = cProfile.Profile()
    failures = []
    for argv, want in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = profile.runcall(cli.run, argv)
        if code != want:
            failures.append(f"ncthick {' '.join(argv)} exited {code}, not {want}")
    entered = {
        (Path(filename).name, line)
        for filename, line, _ in pstats.Stats(profile).stats
        if Path(filename).resolve().parent == SRC
    }
    for path in sorted(SRC.glob("*.py")):
        for line, name in sorted(definitions(path).items()):
            if (path.name, line) in entered or (path.name, name) in ALLOWED:
                continue
            if name.endswith("__repr__"):
                continue
            failures.append(f"{path.name}:{line}: {name} is never entered")
    print("\n".join(failures) or f"every function in {SRC.name} was entered")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
