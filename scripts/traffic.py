#!/usr/bin/env python3
"""List the functions of `src/permlab` that no run enters, with their line counts.

Under a `sys.setprofile` hook on function entry, runs in this process the README's `permlab`
examples (`suite` among them), `bench_e2e.EXTRA_COMMANDS` and the three experiment scripts,
or only each `--command`: python3 scripts/traffic.py [--command "relation --V 6" ...]
"""

import argparse
import ast
import contextlib
import io
import runpy
import shlex
import sys
from pathlib import Path
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
import bench_e2e  # noqa: E402
from permlab import harness  # noqa: E402

SCRIPTS = ("soundness_scan.py", "crossover_curves.py", "dilation_demo.py")


def functions(node: ast.AST, path: str, scope: str):
    """((file, first line), (qualified name, lines)) of each def under `node`."""
    for sub in ast.iter_child_nodes(node):
        name = f"{scope}{sub.name}." if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) else scope
        if isinstance(sub, ast.FunctionDef):
            first = min([sub.lineno] + [d.lineno for d in sub.decorator_list])
            yield (path, first), (name[:-1], sub.end_lineno - first + 1)
        yield from functions(sub, path, name)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--command", action="append", help="permlab arguments (repeatable)")
    args = parser.parse_args(argv)
    default = [*bench_e2e.readme_commands(ROOT / "README.md"), *bench_e2e.EXTRA_COMMANDS]
    entered = set()
    sys.setprofile(lambda frame, event, _: event == "call" and entered.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for command in args.command or default:
                harness.main(bench_e2e.without_out(shlex.split(command)))
            for script in () if args.command else SCRIPTS:
                sys.argv = [str(ROOT / "scripts" / script)]  # what the script parses
                runpy.run_path(sys.argv[0], run_name="__main__")
    finally:
        sys.setprofile(None)
    seen = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in entered}
    found = dict(item for path in sorted((ROOT / "src" / "permlab").glob("*.py"))
                 for item in functions(ast.parse(path.read_text()), str(path), f"{path.stem}."))
    missed = [found[key] for key in sorted(found) if key not in seen]
    print(*(f"{name} {lines}" for name, lines in missed), sep="\n")
    print(f"{len(missed)} of {len(found)} never entered, {sum(n for _, n in missed)} lines")


if __name__ == "__main__":
    main()
