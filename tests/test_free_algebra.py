"""Words, the graded order, and exact polynomial arithmetic."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anick
from anick import Alphabet, FreeAlgebra, MonomialOrder, ZeroPolynomial, words_up_to_weight
from anick.fields import COEFFICIENT, _is_prime
from anick.free_algebra import Polynomial

XYZ = Alphabet(["x", "y", "z"])
XY = Alphabet(["x", "y"])


def test_alphabet_word_parsing():
    assert XYZ.word("x*y*x") == (0, 1, 0)
    assert XYZ.word("xyx") == (0, 1, 0)
    assert XYZ.word("1") == ()
    assert XYZ.word_str((0, 1, 0)) == "xyx"
    assert XYZ.word_str(()) == "1"
    with pytest.raises(ValueError):
        XYZ.word("x*w")


def test_word_reads_factors_as_parse_does():
    # each * separated factor is a letter or juxtaposed letters, in a word
    # as in a term of a polynomial
    A = FreeAlgebra(XYZ)
    for text in ["xy*z", "x*yz", "xyz"]:
        assert XYZ.word(text) == (0, 1, 2)
        assert A.parse(text).terms == {XYZ.word(text): 1}
    assert XYZ.word("x*1*yz") == A.parse("x*1*yz").lm() == (0, 1, 2)
    for bad in ["x**y", "x*w", "xw*y"]:
        with pytest.raises(ValueError):
            XYZ.word(bad)


def test_alphabet_multichar_names():
    ab = Alphabet(["alpha", "beta"])
    assert ab.word("alpha*beta") == (0, 1)
    assert ab.word_str((0, 1), sep="*") == "alpha*beta"
    with pytest.raises(ValueError):
        Alphabet(["x", "x"])
    with pytest.raises(ValueError):
        Alphabet(["2x"])


def test_order_letters_descend():
    o = MonomialOrder(XYZ)
    x, y, z = (0,), (1,), (2,)
    assert o.key(x) > o.key(y) > o.key(z)


def test_order_degree_dominates():
    o = MonomialOrder(XYZ)
    # any length-3 word beats any length-2 word
    assert o.key((2, 2, 2)) > o.key((0, 0))


def test_order_weighted():
    o = MonomialOrder(XY, weights=[1, 2])
    # weight(yy) = 4 > weight(xxx) = 3
    assert o.key((1, 1)) > o.key((0, 0, 0))
    assert o.weight((0, 1, 0)) == 4
    with pytest.raises(ValueError):
        MonomialOrder(XY, weights=[1, 0])
    # orders and alphabets compare by value
    assert o == MonomialOrder(Alphabet(["x", "y"]), weights=[1, 2])
    assert o != MonomialOrder(XY) and o != XY
    assert hash(XY) == hash(Alphabet(["x", "y"])) and XY != ("x", "y")


@st.composite
def orders_and_words(draw):
    """A MonomialOrder on 1 to 4 letters, its weights all 1 or each drawn
    from 1..3, and a list of words on its letters."""
    n = draw(st.integers(1, 4))
    alphabet = Alphabet(["a", "b", "c", "d"][:n])
    if draw(st.booleans()):
        weights = [1] * n
    else:
        weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    words = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6)
                          .map(tuple), max_size=30))
    return MonomialOrder(alphabet, weights), weights, words


@settings(max_examples=200, deadline=None)
@given(orders_and_words())
def test_order_weight_and_keys(case):
    order, weights, words = case
    for w in words:
        assert order.weight(w) == sum(weights[a] for a in w)
    assert sorted(words, key=order.key) == \
        sorted(words, key=order.descending_key)[::-1]


def all_words(n_letters, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(range(n_letters), repeat=n)


def test_order_is_total_and_transitive():
    o = MonomialOrder(XY)
    words = list(all_words(2, 3))
    keys = [o.key(w) for w in words]
    # keys injective => antisymmetric total order
    assert len(set(keys)) == len(keys)
    ranked = sorted(words, key=o.key)
    for a, b, c in zip(ranked, ranked[1:], ranked[2:]):
        assert o.key(a) < o.key(b) < o.key(c)


def test_order_multiplicative():
    o = MonomialOrder(XY)
    rng = random.Random(5)
    words = list(all_words(2, 3))
    for _ in range(400):
        u, v, w = (rng.choice(words) for _ in range(3))
        if o.key(u) < o.key(v):
            assert o.key(w + u) < o.key(w + v)
            assert o.key(u + w) < o.key(v + w)


def test_order_one_is_least():
    o = MonomialOrder(XYZ)
    for w in all_words(3, 2):
        if w:
            assert o.key(w) > o.key(())


def test_words_up_to_weight():
    o = MonomialOrder(XY)
    ws = words_up_to_weight(XY, o, 3)
    assert len(ws) == 1 + 2 + 4 + 8
    assert ws[0] == ()
    keys = [o.key(w) for w in ws]
    assert keys == sorted(keys)
    # weighted variant prunes the heavy letter
    ow = MonomialOrder(XY, weights=[1, 3])
    ws = words_up_to_weight(XY, ow, 3)
    assert set(ws) == {(), (0,), (0, 0), (0, 0, 0), (1,)}
    assert words_up_to_weight(XY, o, 0) == [()]
    # the empty word weighs 0, so no word weighs -1 or less
    with pytest.raises(ValueError, match="max_weight must be nonnegative"):
        words_up_to_weight(XY, o, -1)


def test_polynomial_arithmetic():
    A = FreeAlgebra(XY)
    x = A.from_word((0,))
    y = A.from_word((1,))
    p = (x + y) * (x - y)
    assert A.format(p) == "x*x - x*y + y*x - y*y"
    assert p - p == A.zero()
    assert not A.zero()
    assert A.format(-p) == "-x*x + x*y - y*x + y*y"
    assert A.format(p.scale(Fraction(1, 2))) == "1/2*x*x - 1/2*x*y + 1/2*y*x - 1/2*y*y"
    assert (x * A.one()) == x
    assert A.from_word("y*x", 2) == A.from_word("yx").scale(2) == y * x.scale(2)
    with pytest.raises(TypeError):  # scale is the one scalar product
        x * 2
    assert A.format(x * x * x) == "x*x*x"


def test_polynomial_lm_lc_monic():
    A = FreeAlgebra(XY)
    p = A.parse("2*y*x + 4*x*y")
    assert p.lm() == (0, 1)
    assert p.lc() == 4
    assert A.format(p.monic()) == "x*y + 1/2*y*x"
    with pytest.raises(ZeroPolynomial):
        A.zero().lm()
    with pytest.raises(ZeroPolynomial):
        A.zero().lc()


def test_parse_format_round_trip():
    A = FreeAlgebra(XYZ)
    canonical = [
        "x*x*x - x*x",
        "x*x*y*x",
        "y*x*z - y*x",
        "2*x*y + 1/2*z",
        "-x + 1",
        "x*y - y*x",
        "1",
        "0",
    ]
    for s in canonical:
        assert A.format(A.parse(s)) == s


def test_parse_random_round_trip():
    A = FreeAlgebra(XY)
    rng = random.Random(17)
    words = list(all_words(2, 4))
    for _ in range(100):
        p = A.zero()
        for _ in range(rng.randrange(5)):
            c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            p = p + A.from_word(rng.choice(words)).scale(c)
        assert A.parse(A.format(p)) == p


def reference_parse(A, text):
    """The character-loop parser that parse replaced, kept as its oracle:
    it adds each term to the sum so far, so it is quadratic in the terms."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    chunks = []
    sign = 1
    buf = []
    pending = False
    for ch in s:
        if ch in "+-":
            if buf and "".join(buf).strip():
                chunks.append((sign, "".join(buf).strip()))
                buf = []
                sign = 1
                pending = False
            if pending and ch == "+":
                raise ValueError("misplaced + in %r" % (text,))
            if ch == "-":
                sign = -sign
            pending = True
        else:
            buf.append(ch)
    if buf and "".join(buf).strip():
        chunks.append((sign, "".join(buf).strip()))
    elif pending:
        raise ValueError("dangling operator in %r" % (text,))
    result = A.zero()
    for sign, term in chunks:
        coeff = A.field.one
        parts = [p.strip() for p in term.split("*")]
        if not all(parts):
            raise ValueError("empty factor in term %r" % (term,))
        if COEFFICIENT.fullmatch(parts[0]):
            coeff = A.field(parts[0])
            parts = parts[1:]
        word = []
        for p in parts:
            if p == "1":
                continue
            word.extend(A.alphabet.word(p))
        if sign < 0:
            coeff = A.field(-coeff)
        result = result + Polynomial(A, {tuple(word): coeff} if coeff else {})
    return result


def _parse_outcome(parse, text):
    """The terms parse gives, each coefficient with its type, or the type
    and message of the exception it raises."""
    try:
        return {w: (c, type(c)) for w, c in parse(text).terms.items()}
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", [anick.QQ, anick.GF(3)], ids=str)
def test_parse_matches_reference(field):
    # every string of up to 5 characters over x, space, tab, + - * 1 /
    A = FreeAlgebra(Alphabet(["x"]), field=field)
    for n in range(6):
        for chars in itertools.product("x +-*1/\t", repeat=n):
            text = "".join(chars)
            assert _parse_outcome(A.parse, text) == \
                _parse_outcome(lambda t: reference_parse(A, t), text), text


@pytest.mark.timed
def test_parse_is_linear():
    # 64,000 distinct terms, 1.3 MB: quadratic when each term copies the sum
    A = FreeAlgebra(Alphabet(["w", "x", "y", "z"]))
    words = itertools.islice(itertools.product("wxyz", repeat=8), 64000)
    text = " - ".join("%d*%s" % (i % 5 + 1, "*".join(w))
                      for i, w in enumerate(words))
    t0 = time.perf_counter()
    p = A.parse(text)
    assert time.perf_counter() - t0 < 3.0
    assert len(p.terms) == 64000
    assert p.terms[A.word("wwwwwwww")] == 1
    assert p.terms[A.word("wwwwwwwx")] == -2


def test_parse_rejects_garbage():
    A = FreeAlgebra(XY)
    for bad in ["x +", "x ** y", "w", "x*", ""]:
        with pytest.raises(ValueError):
            A.parse(bad)


def test_finite_field_elements():
    # GF(p) scalars are plain ints in range(p); GF(p)(value) reduces an
    # int, a Fraction or a "num/den" string to its residue
    F = anick.GF(7)
    assert F(10) == 3 and F(-3) == 4 and F("1/3") == 5
    assert F(Fraction(-1, 2)) == 3
    assert all(type(F(v)) is int for v in (10, -3, "1/3", Fraction(5, 2)))
    assert (F.zero, F.one, F.characteristic) == (0, 1, 7)
    assert anick.QQ.characteristic == 0
    assert F.inv(3) == 5
    for bad in (lambda: F.inv(0), lambda: F.inv(7), lambda: F("1/7")):
        with pytest.raises(ZeroDivisionError):
            bad()
    with pytest.raises(ValueError):
        anick.GF(6)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_prime_test_matches_trial_division():
    assert [n for n in range(10 ** 4) if _is_prime(n)] == \
        [n for n in range(10 ** 4) if _trial_division_is_prime(n)]


@pytest.mark.timed
def test_prime_modulus_check_is_fast_and_exact():
    t0 = time.perf_counter()
    assert anick.GF(1000000000000000003).p == 1000000000000000003
    assert time.perf_counter() - t0 < 1.0
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7,
    # and a product of two large primes
    for composite in (561, 3215031751, 1000000007 * 998244353):
        with pytest.raises(ValueError):
            anick.GF(composite)


def test_finite_field_polynomials():
    B = FreeAlgebra(Alphabet(["a", "b"]), field=anick.GF(7))
    p = B.parse("3*a + 5*b")
    assert B.format(p) == "3*a + 5*b"
    assert B.format(-p) == "4*a + 2*b"
    assert B.format(p.scale(B.field(3))) == "2*a + b"
    q = B.parse("7*a")
    assert q == B.zero()


def test_rational_field_parsing():
    QQ = anick.QQ
    assert QQ("3/4") == Fraction(3, 4)
    assert QQ(2) == Fraction(2)
    assert QQ.zero == 0 and QQ.one == 1
    # integral values are native ints, never bools; the rest are Fractions
    for value in (2, "4/2", Fraction(-6, 3), True):
        assert type(QQ(value)) is int
    assert type(QQ("3/4")) is Fraction
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.inv(-1)) is int
