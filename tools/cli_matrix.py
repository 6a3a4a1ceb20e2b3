"""Run a fixed matrix of CLI commands and print one digest line for each.

    python3 tools/cli_matrix.py > matrix.txt

Every subcommand runs, in text and in json, on every JSON file in
presentations/ and perfbench/inputs/, with the options listed in MATRIX.
Each command runs in a fresh interpreter from the src/ of the checkout
that holds this file. Its line gives the exit code, the sha256 of stdout,
the sha256 of stderr without the `# elapsed` line, and the sha256 of the
file that --dot wrote ("-" when there is none). Then `gb-check` and
`resolve --degree 2` run, in text and json, on each malformed document
of MALFORMED, written to a temporary file; their lines name the case
(`malformed:NAME`) in place of the path. Two checkouts whose outputs are
identical behave the same on the whole matrix, so diffing the output of
two checkouts compares their CLIs. Uses only the stdlib.
"""

import hashlib
import json
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
# building a differential stops, and the command exits 2
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

# case -> a presentation that every command refuses, each broken in one way
_XY = {"generators": ["x", "y"], "relations": ["x*y - y*x"]}
MALFORMED = {
    "augmentation-list": dict(_XY, augmentation=[0, 0]),
    "augmentation-unknown-key": dict(_XY, augmentation={"q": 1}),
    "augmentation-bool": dict(_XY, augmentation={"x": True}),
    "augmentation-float": dict(_XY, augmentation={"x": 1.0}),
    "augmentation-null": dict(_XY, augmentation={"x": None}),
    "augmentation-zero-denominator": dict(_XY, augmentation={"x": "1/0"}),
    "augmentation-exponent": dict(_XY, augmentation={"x": "1e5"}),
    "relation-dangling-factor": dict(_XY, relations=["x*"]),
    "relation-zero-denominator": dict(_XY, relations=["1/0*x*x"]),
    "relation-misplaced-plus": dict(_XY, relations=["x - + y"]),
    "relation-dangling-operator": dict(_XY, relations=["x*x -"]),
    "relation-unknown-letter": dict(_XY, relations=["x*z"]),
    "relation-zero": dict(_XY, relations=["x*y - x*y"]),
    "relation-not-vanishing": dict(_XY, relations=["x*y - 1"]),
    "relations-string": dict(_XY, relations="x*y - y*x"),
    "relations-int-item": dict(_XY, relations=["x*y - y*x", 5]),
    "relations-missing": {"generators": ["x", "y"]},
    "field-modulus-6": dict(_XY, field={"type": "prime", "p": 6}),
    "weights-unknown-letter": dict(_XY, weights={"z": 2}),
    "relation-short-leading-word": dict(_XY, relations=["x - y"]),
}
MALFORMED_COMMANDS = [["gb-check"], ["resolve", "--degree", "2"]]


def presentations():
    for folder in ("presentations", "perfbench/inputs"):
        for path in sorted((ROOT / folder).glob("*.json")):
            yield path.relative_to(ROOT).as_posix()


def digest(data):
    return hashlib.sha256(data.encode()).hexdigest()


def run(argv, tmp, label=None):
    """The digest line of one command; a --dot FILE goes into tmp. With a
    label, the line names it in place of the command's second argument."""
    dot = os.path.join(tmp, "graph.dot")
    if os.path.exists(dot):
        os.remove(dot)
    args = [a.replace("{dot}", dot) for a in argv]
    if label is not None:
        argv = [argv[0], label, *argv[2:]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "anick.cli", *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "%s timeout" % " ".join(argv)
    stdout = proc.stdout.replace(tmp, "$TMP")
    stderr = "".join(line for line in proc.stderr.splitlines(True)
                     if not line.startswith("# elapsed")).replace(tmp, "$TMP")
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
        for name, document in MALFORMED.items():
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                json.dump(document, fh)
            for command, *options in MALFORMED_COMMANDS:
                for fmt in ("text", "json"):
                    print(run([command, path, *options, "--format", fmt],
                              tmp, "malformed:" + name), flush=True)


if __name__ == "__main__":
    main()
