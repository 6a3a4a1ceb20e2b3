"""List the lines of src/anick/ that the tests never run.

    python3 tools/linetrace.py [pytest arguments]

Runs pytest in this interpreter, on tests/ unless other arguments are
given, with a sys.settrace hook that records the lines run in the files of
src/anick/, and prints `file:line: source` for every line there that holds
code and never ran, then one summary line. The default arguments fix
--hypothesis-seed=0, so the property tests draw the same examples on
every run and the listings of two checkouts compare. The hook sees this
process only, so a line that runs only in a child, such as the CLI's
`sys.exit(main())` under `python -m anick.cli`, is listed too. The tests
run several times slower under the hook, so the tests marked `timed`,
which assert a wall-clock bound in the process, run apart: on the same
arguments, in a second pytest in a child without the hook, and the lines
they run do not count. Either run failing fails the tool. Uses only the
stdlib, pytest and the hypothesis plugin the tests already need.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "anick"


def code_lines(path):
    """The numbers of the lines that hold code in one source file: the
    lines of the instructions of its code objects, nested ones included."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_pytest(args):
    """Run pytest on args under the hook; returns its exit code and
    {source file: set of line numbers run} over the package's files."""
    hits = {}
    tracers = {}  # code filename -> the local tracer of its file, or None

    def tracer_for(filename):
        path = Path(os.path.realpath(filename))
        if path.parent != PACKAGE:
            return None
        add = hits.setdefault(path, set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = tracers[filename]
        except KeyError:
            local = tracers[filename] = tracer_for(filename)
        return local and local(frame, event, arg)

    import pytest

    sys.settrace(hook)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, hits


def main(argv):
    # as the tier-1 command: the package from src/, here and in children
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    args = argv or ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                    str(ROOT / "tests")]
    code, hits = traced_pytest([*args, "-m", "not timed"])
    timed = subprocess.run([sys.executable, "-m", "pytest", *args,
                            "-m", "timed"]).returncode
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        source = path.read_text().splitlines()
        never = sorted(lines - hits.get(path, set()))
        total += len(lines)
        missed += len(never)
        for n in never:
            print("%s:%d: %s" % (path.relative_to(ROOT).as_posix(), n,
                                 source[n - 1].strip()))
    print("# %d of %d code lines never ran; pytest exit codes %d traced, "
          "%d timed" % (missed, total, code, timed))
    # 5: the arguments select no test on one side of the timed marker
    return 0 if {code, timed} <= {0, 5} and {code, timed} != {5} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
