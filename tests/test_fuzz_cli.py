"""Fuzz the command line with random and malformed presentation JSON.

Every run must end in a documented exit code (0 success, 2 counterexample,
3 bound exceeded, 4 input error) with no escaping exception, no traceback
on stderr and no hang.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anick.cli import main

LETTERS = ("x", "y", "z")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)

garbage_text = st.text(alphabet="xyz1234567890*+-/ ", max_size=12)


def rarely(draw, good, bad):
    """Draw from bad about one time in five, else from good."""
    return draw(bad if draw(st.integers(0, 4)) == 0 else good)


@st.composite
def relations(draw, letters):
    """Mostly binomials u - v with a leading word of length 2 to 4, else
    signed terms with optional coefficients, else text."""
    word = st.lists(st.sampled_from(letters), max_size=4).map(
        lambda w: "*".join(w) or "1")
    coeff = st.sampled_from(["", "2*", "1/2*"])
    binomial = st.builds(
        lambda c, uv: "%s%s - %s%s" % (c, uv[0], c, uv[1]), coeff,
        st.tuples(st.lists(st.sampled_from(letters), min_size=2,
                           max_size=4).map("*".join),
                  word).filter(lambda uv: uv[0] != uv[1]))
    terms = st.lists(st.tuples(st.sampled_from(["+ ", "- "]),
                               coeff | st.sampled_from(["0*", "1/0*"]), word),
                     min_size=1, max_size=3).map(
        lambda ts: " ".join(sign + c + w for sign, c, w in ts))
    return rarely(draw, binomial, terms | garbage_text)


@st.composite
def presentations(draw):
    letters = draw(st.lists(st.sampled_from(LETTERS), min_size=1,
                            max_size=3, unique=True))
    data = {"generators": letters,
            "relations": draw(st.lists(relations(letters), max_size=3))}
    if draw(st.booleans()):
        data["weights"] = rarely(draw, st.dictionaries(
            st.sampled_from(letters), st.integers(1, 3), max_size=3),
            st.dictionaries(st.sampled_from(LETTERS),
                            st.integers(-1, 3) | json_values, max_size=3)
            | json_values)
    if draw(st.booleans()):
        data["field"] = rarely(draw, st.sampled_from([
            {"type": "rational"}, {"type": "prime", "p": 2},
            {"type": "prime", "p": 3}, {"type": "prime", "p": 7}]),
            st.sampled_from([{"type": "prime", "p": 4}, {"type": "prime"},
                             {"type": "real"}]) | json_values)
    if draw(st.booleans()):
        data["augmentation"] = rarely(draw, st.dictionaries(
            st.sampled_from(letters), st.sampled_from(["0", "1", 0, 1]),
            max_size=3),
            st.dictionaries(st.sampled_from(LETTERS),
                            st.sampled_from(["2", "1/2", "1/0"])
                            | json_values, max_size=3) | json_values)
    if draw(st.integers(0, 9)) == 0:
        key = draw(st.sampled_from(sorted(data)))
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(json_values)
    return json.dumps(data)


@st.composite
def documents(draw):
    """Mostly presentations, sometimes any JSON value or any text."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return json.dumps(draw(json_values))
    if kind == 1:
        return draw(st.text(max_size=20))
    return draw(presentations())


GATED = [["normal-words", "--max-length", "4"], ["obstructions"],
         ["chain-graph"], ["chains", "--degree", "3"],
         ["resolve", "--degree", "3", "--show-homotopy"],
         ["verify", "--degree", "3"], ["diagnose", "--degree", "3"]]

commands = st.one_of(
    st.sampled_from([["gb-check"], ["gb-complete"]]),
    st.builds(list.__add__, st.sampled_from(GATED),
              st.sampled_from([[], ["--complete"]])))


@pytest.mark.timed
@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(text=documents(), command=commands,
       max_degree=st.integers(-1, 6), fmt=st.sampled_from(["text", "json"]))
def test_cli_survives_any_presentation(tmp_path_factory, text, command,
                                       max_degree, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    argv = [command[0], str(path), *command[1:],
            "--max-degree", str(max_degree), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code in (3, 4):
        assert not out.getvalue()
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
