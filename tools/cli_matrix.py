"""Run a fixed matrix of CLI commands and print one digest line for each.

    python3 tools/cli_matrix.py > matrix.txt

Every subcommand runs, in text and in json, on every JSON file in
presentations/ and perfbench/inputs/, with the options listed in MATRIX.
Each command runs in a fresh interpreter from the src/ of the checkout
that holds this file. Its line gives the exit code, the sha256 of stdout,
the sha256 of stderr without the `# elapsed` line, and the sha256 of the
file that --dot wrote ("-" when there is none). Two checkouts whose
outputs are identical behave the same on the whole matrix, so diffing
the output of two checkouts compares their CLIs. Uses only the stdlib.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120

# subcommand -> the option lists it runs with, each in text and json
_DEGREES = [["--degree", d] for d in ("0", "1", "3", "6", "12", "40")]
# completion cut at a weight too low for the lift: on xyz.json the lift
# finds no obstruction occurrence and the command exits 4
_LIFT_FAILURE = ["--complete", "--max-degree", "5", "--degree", "4"]
MATRIX = {
    "gb-check": [[], ["--max-degree", "3"]],
    "gb-complete": [["--max-degree", "4"], ["--max-degree", "8"]],
    "normal-words": [["--max-length", n] for n in ("-1", "0", "4", "30")]
    + [["--complete", "--max-length", "4"]],
    "obstructions": [[], ["--complete"]],
    "chain-graph": [[], ["--dot", "{dot}"], ["--complete", "--dot", "{dot}"],
                    ["--complete", "--max-degree", "8"]],
    "chains": _DEGREES + [["--complete", "--degree", "3"]],
    "resolve": _DEGREES + [["--degree", "3", "--show-homotopy"],
                           ["--complete", "--degree", "3"], _LIFT_FAILURE],
    "verify": _DEGREES + [["--complete", "--degree", "3"], _LIFT_FAILURE],
    "diagnose": _DEGREES + [["--complete", "--degree", "3"], _LIFT_FAILURE],
}


def presentations():
    for folder in ("presentations", "perfbench/inputs"):
        for path in sorted((ROOT / folder).glob("*.json")):
            yield path.relative_to(ROOT).as_posix()


def digest(data):
    return hashlib.sha256(data.encode()).hexdigest()


def run(argv, tmp):
    """The digest line of one command; a --dot FILE goes into tmp."""
    dot = os.path.join(tmp, "graph.dot")
    if os.path.exists(dot):
        os.remove(dot)
    args = [a.replace("{dot}", dot) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "anick.cli", *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "%s timeout" % " ".join(argv)
    stdout = proc.stdout.replace(tmp, "$TMP")
    stderr = "".join(line for line in proc.stderr.splitlines(True)
                     if not line.startswith("# elapsed"))
    dot_digest = "-"
    if os.path.exists(dot):
        with open(dot) as fh:
            dot_digest = digest(fh.read())
    return "%s exit=%d stdout=%s stderr=%s dot=%s" % (
        " ".join(argv), proc.returncode, digest(stdout), digest(stderr),
        dot_digest)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for path in presentations():
            for command, option_lists in MATRIX.items():
                for options in option_lists:
                    for fmt in ("text", "json"):
                        print(run([command, path, *options, "--format", fmt],
                                  tmp), flush=True)


if __name__ == "__main__":
    main()
