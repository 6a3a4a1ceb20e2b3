"""Scalar types: rationals are native ints unless they are not integral,
GF(p) scalars are ints in range(p), and field.inv is the only division,
so no coefficient is ever a float."""

import pathlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anick
from anick import (Alphabet, FreeAlgebra, Presentation, ResolutionEngine,
                   RewriteSystem, complete)
from anick.fields import field_from_json

PRESENTATIONS = pathlib.Path(__file__).resolve().parents[1] / "presentations"


def _exact_rational(c):
    return type(c) in (int, Fraction)


@pytest.mark.parametrize("field, cases", [
    (anick.QQ, [(2, Fraction(1, 2)), (-1, -1), (Fraction(2, 3), Fraction(3, 2)),
                (Fraction(-1, 5), -5)]),
    (anick.GF(7), [(1, 1), (3, 5), (6, 6), ("1/2", 2)]),
])
def test_inv(field, cases):
    for x, want in cases:
        got = field.inv(field(x))
        assert got == field(want)
        assert field(got * field(x)) == field.one
    for zero in (0, field.zero):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
    # fields compare by value, also after a round trip through JSON
    assert field == field_from_json(field.to_json())
    assert field != anick.GF(5) and field != field.to_json()


@pytest.mark.timed
def test_coefficient_strings_outside_the_grammar_raise_at_once():
    # Fraction alone would expand "1e400000" into a 1.3-million-bit int;
    # a field takes an integer or p/q with an optional sign, and nothing else
    t0 = time.perf_counter()
    for field in (anick.QQ, anick.GF(2)):
        assert field("+3") == field(3) and field("-3/5") == field(Fraction(-3, 5))
        for text in ("1e400000", "1.5", " 1", "1/-2", "+", ""):
            with pytest.raises(ValueError, match="not an integer or p/q"):
                field(text)
    algebra = FreeAlgebra(Alphabet(["x"]), field=anick.GF(2))
    with pytest.raises(anick.InvalidPresentation,
                       match="^augmentation of x is not an integer or p/q: "
                             "'1e400000'$"):
        Presentation(algebra, ["x*x"], {"x": "1e400000"})
    assert time.perf_counter() - t0 < 1.0


def _residue_mod_3(c):
    return type(c) is int and c in range(3)


def test_s3_differential_coefficients_are_exact():
    for name, exact in (("s3_group.json", _exact_rational),
                        ("s3_group_gf3.json", _residue_mod_3)):
        eng = ResolutionEngine.from_presentation(
            Presentation.load(PRESENTATIONS / name))
        for n in range(1, 9):
            for c in eng.chains(n):
                coeffs = eng.differential(c).terms.values()
                assert all(exact(v) for v in coeffs), (name, n, c.word)


def test_completion_with_fractions_keeps_exact_coefficients():
    algebra = FreeAlgebra(Alphabet(["x", "y"]))
    pres = Presentation(algebra, ["x*y - 1/2*y*y", "y*x - 2/3*x*x"])
    done = complete(RewriteSystem.from_presentation(pres), 7)
    coeffs = [c for rule in done.rules for c in rule.terms.values()]
    assert all(_exact_rational(c) for c in coeffs)
    # an integral value is an int, never a Fraction with denominator 1
    assert not any(type(c) is Fraction and c.denominator == 1
                   for c in coeffs)
    # the completed rules need a non-integral coefficient, so both kinds
    # of scalar are exercised
    assert Fraction(-3, 2) in coeffs
    assert any(type(c) is int for c in coeffs)


_WORDS = ["1", "x", "y", "xy", "yx", "xx", "xyy"]


@st.composite
def _residue_case(draw):
    """A prime p, two polynomials over Q whose coefficients have
    denominators prime to p, and an integer scale factor."""
    p = draw(st.sampled_from([2, 3, 7]))
    coeff = st.builds(Fraction, st.integers(-20, 20),
                      st.integers(1, 30).filter(lambda d: d % p))
    poly = st.dictionaries(st.sampled_from(_WORDS), coeff, max_size=5)
    return p, draw(poly), draw(poly), draw(st.integers(-10, 10))


@settings(max_examples=300, deadline=None)
@given(_residue_case())
def test_residue_arithmetic_matches_rationals(case):
    # reduction mod p is a ring map on the rationals with denominators prime
    # to p, so each operation over Q, mapped into GF(p), must equal the
    # same operation over GF(p)
    p, a, b, k = case
    alphabet = Alphabet(["x", "y"])
    AQ, AP = FreeAlgebra(alphabet), FreeAlgebra(alphabet, field=anick.GF(p))

    def residues(poly):
        return AP.poly(poly.terms)

    aq, bq = AQ.poly(a), AQ.poly(b)
    ap, bp = residues(aq), residues(bq)
    assert ap == AP.poly(a) and bp == AP.poly(b)
    pairs = [(aq + bq, ap + bp), (aq - bq, ap - bp), (aq * bq, ap * bp),
             (-aq, -ap), (aq.scale(k), ap.scale(k))]
    if ap and ap.lm() == aq.lm():
        pairs.append((aq.monic(), ap.monic()))
    for over_q, over_p in pairs:
        assert residues(over_q) == over_p
        assert all(type(c) is int and c in range(1, p)
                   for c in over_p.terms.values())
