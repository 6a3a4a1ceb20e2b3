"""Scalar types: rationals are native ints unless they are not integral,
and field.inv is the only division, so no coefficient is ever a float."""

import pathlib
from fractions import Fraction

import pytest

import anick
from anick import (Alphabet, FreeAlgebra, Presentation, ResolutionEngine,
                   RewriteSystem, complete)

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
        assert got * field(x) == field.one
    for zero in (0, field.zero):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)


def test_s3_differential_coefficients_are_exact():
    pres = Presentation.load(PRESENTATIONS / "s3_group.json")
    eng = ResolutionEngine.from_presentation(pres)
    for n in range(1, 9):
        for c in eng.chains(n):
            coeffs = eng.differential(c).terms.values()
            assert all(_exact_rational(v) for v in coeffs), (n, c.word)


def test_completion_with_fractions_keeps_exact_coefficients():
    algebra = FreeAlgebra(Alphabet(["x", "y"]))
    pres = Presentation(algebra, ["x*y - 1/2*y*y", "y*x - 2/3*x*x"])
    done = complete(RewriteSystem.from_presentation(pres), 7)
    coeffs = [c for rule in done.rules for c in rule.terms.values()]
    assert all(_exact_rational(c) for c in coeffs)
    # the completed rules need a non-integral coefficient, so both kinds
    # of scalar are exercised
    assert Fraction(-3, 2) in coeffs
    assert any(type(c) is int for c in coeffs)
