"""Words over a finite alphabet, graded monomial orders, and polynomials
in the free associative algebra with exact coefficients.

Words are stored as tuples of letter indices into an Alphabet; the empty
tuple is the unit word and prints as "1".
"""

import re
from collections import defaultdict
from operator import itemgetter, neg

from .errors import ZeroPolynomial
from .fields import COEFFICIENT, QQ

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
# a term of parse: characters other than signs, with no space at either end
_TERM = re.compile(r"([^-+\s](?:[^-+]*[^-+\s])?)")


class Alphabet:
    """Ordered set of generator names; listing order is precedence, highest first."""

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must be non-empty")
        for name in letters:
            if not _NAME_RE.match(name) or name == "1":
                raise ValueError("bad letter name %r" % (name,))
        if len(set(letters)) != len(letters):
            raise ValueError("duplicate letter names")
        self.letters = letters
        self._index = {name: i for i, name in enumerate(letters)}
        self._compact = all(len(name) == 1 for name in letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and other.letters == self.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Alphabet(%r)" % (list(self.letters),)

    def word(self, text):
        """Parse a word: "1" or "" is empty; otherwise * separated factors,
        each "1", a letter name, or juxtaposed letters when every letter is
        a single character ("xy*z" is "x*y*z")."""
        text = text.strip()
        if text == "1" or text == "":
            return ()
        index = self._index
        out = []
        for factor in text.split("*"):
            factor = factor.strip()
            if factor in index:
                out.append(index[factor])
            elif factor != "1":
                for name in factor if self._compact and factor else [factor]:
                    if name not in index:
                        raise ValueError("unknown letter %r" % (name,))
                    out.append(index[name])
        return tuple(out)

    def word_str(self, w, sep=None):
        """Render a word; the empty word renders as "1"."""
        if not w:
            return "1"
        if sep is None:
            sep = "" if self._compact else "*"
        return sep.join(self.letters[i] for i in w)


class MonomialOrder:
    """Weight-graded order on words: compare total weight, then left-to-right
    by letter precedence (earlier alphabet letters are greater).

    weight(w) is the total weight of the word w, the sum of its letters'
    weights. It is bound once, to the cheapest exact rule: len when every
    letter weighs 1, since a sum of ones is the number of letters, and
    the sum over the letters otherwise.

    Words of one weight are never prefixes of one another, so among them
    ascending key is descending tuple order. The listings build or walk
    each weight in tuple order and join the weights in turn, with no sort.
    """

    def __init__(self, alphabet, weights=None):
        self.alphabet = alphabet
        if weights is None:
            wt = (1,) * len(alphabet)
        elif isinstance(weights, dict):
            unknown = set(weights) - set(alphabet.letters)
            if unknown:
                raise ValueError("weights for unknown letters %s"
                                 % (sorted(unknown),))
            wt = tuple(weights.get(name, 1) for name in alphabet.letters)
        elif isinstance(weights, (list, tuple)):
            wt = tuple(weights)
        else:
            raise ValueError("weights must be an object or a list")
        if len(wt) != len(alphabet) or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 1
                for e in wt):
            raise ValueError("weights must assign an integer >= 1 to each letter")
        self.weights = wt
        if all(e == 1 for e in wt):
            self.weight = len
        else:
            self.weight = lambda w: sum(map(wt.__getitem__, w))

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and other.alphabet == self.alphabet
                and other.weights == self.weights)

    def __repr__(self):
        return "MonomialOrder(%r, weights=%r)" % (self.alphabet, list(self.weights))

    def key(self, w):
        # equal-weight words are never prefixes of one another, so plain
        # tuple comparison on negated indices realizes the precedence
        return (self.weight(w), tuple(map(neg, w)))

    def descending_key(self, w):
        """Key that sorts words from greatest to least: negated weight,
        then the word itself. This reverses key, since equal-weight words
        are never prefixes of one another."""
        return (-self.weight(w), w)


def weight_runs(items, weights):
    """The items split stably into runs of equal weight, listed by
    ascending weight; weights gives the weight of each item in turn."""
    runs = defaultdict(list)
    for item, wt in zip(items, weights):
        runs[wt].append(item)
    return [runs[wt] for wt in sorted(runs)]


def words_up_to_weight(alphabet, order, max_weight):
    """All words of weight <= max_weight, ascending by the order key, built
    one weight level at a time. Level k lists, for each letter a of
    weight at most k in descending index, a followed by every word of
    level k - wt(a). Each level then comes out in descending tuple order,
    which is ascending key among words of one weight, so the levels need
    only be joined in turn, with no sort. A negative max_weight raises
    ValueError: the empty word weighs 0."""
    if alphabet != order.alphabet:
        raise ValueError("order alphabet mismatch")
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    heads = [((a,), e) for a, e in enumerate(order.weights)][::-1]
    levels = [[()]]
    for k in range(1, max_weight + 1):
        level = []
        for head, e in heads:
            if e <= k:
                level += map(head.__add__, levels[k - e])
        levels.append(level)
    return [w for level in levels for w in level]


def axpy(acc, items, c, p):
    """acc += c * items, in place: add c times each (key, coeff) pair of
    items into the dict acc, dropping keys whose coefficient becomes zero.
    p is the characteristic, without a default: over GF(p) each stored
    value is reduced into range(p), so its scalars stay plain ints.

    The coefficients in items must be nonzero (mod p). Returns acc.
    """
    if p:
        c %= p
    if not c:
        return acc
    get = acc.get
    for k, v in items:
        v = c * v
        old = get(k)
        if old is not None:
            v = old + v
            if p:
                v %= p
            if not v:
                del acc[k]
                continue
        elif p:
            v %= p
        acc[k] = v
    return acc


def format_signed_sum(terms, body):
    """Render (key, coeff) pairs, in the given order, as "a - b + c": each
    term is body(key, magnitude), with the sign of a negative coefficient
    pulled out in front. An empty sum renders as "0"."""
    pieces = []
    for k, c in terms:
        neg = c < 0
        text = body(k, -c if neg else c)
        if pieces:
            pieces.append(("- " if neg else "+ ") + text)
        else:
            pieces.append("-" + text if neg else text)
    return " ".join(pieces) if pieces else "0"


class LinearCombination:
    """Finite map key -> nonzero coefficient in a field, with the one copy
    of the sparse arithmetic. A subclass has a field and builds an element
    of its own kind from a terms dict with _new. Every scalar passes
    through the field, so it is stored reduced."""

    __slots__ = ("terms",)

    def __bool__(self):
        return bool(self.terms)

    def _plus(self, other, c):
        return self._new(axpy(dict(self.terms), other.terms.items(), c,
                              self.field.characteristic))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        field = self.field
        return self._new(axpy({}, self.terms.items(), field(c),
                              field.characteristic))


class Polynomial(LinearCombination):
    """Finite coefficient map word -> nonzero scalar."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    @property
    def field(self):
        return self.algebra.field

    def _new(self, terms):
        return Polynomial(self.algebra, terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        p = self.field.characteristic
        terms = {}
        for w1, c1 in self.terms.items():
            axpy(terms, ((w1 + w2, c2) for w2, c2 in other.terms.items()),
                 c1, p)
        return Polynomial(self.algebra, terms)

    def lm(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return max(self.terms, key=self.algebra.order.key)

    def lc(self):
        return self.terms[self.lm()]

    def monic(self):
        if not self.terms:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        field = self.algebra.field
        inv = field.inv(self.lc())
        return Polynomial(self.algebra, {w: field(c * inv)
                                         for w, c in self.terms.items()})

    def __repr__(self):
        return "<poly %s>" % (self.algebra.format(self),)

    def __str__(self):
        return self.algebra.format(self)


class FreeAlgebra:
    """Context object tying together alphabet, monomial order and field."""

    def __init__(self, alphabet, order=None, field=QQ):
        self.alphabet = alphabet
        self.order = order if order is not None else MonomialOrder(alphabet)
        if self.order.alphabet != alphabet:
            raise ValueError("order alphabet mismatch")
        self.field = field

    def __repr__(self):
        return "FreeAlgebra(%r, field=%r)" % (self.alphabet, self.field)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(): self.field.one})

    def word(self, text):
        return self.alphabet.word(text)

    def word_str(self, w):
        return self.alphabet.word_str(w)

    def poly(self, mapping):
        """Build a polynomial from {word: coeff}; words may be strings."""
        items = []
        for w, c in mapping.items():
            if isinstance(w, str):
                w = self.alphabet.word(w)
            c = self.field(c)
            if c:
                items.append((w, c))
        return Polynomial(self, axpy({}, items, 1,
                                     self.field.characteristic))

    def from_word(self, w, coeff=1):
        if isinstance(w, str):
            w = self.alphabet.word(w)
        c = self.field(coeff)
        return Polynomial(self, {w: c} if c else {})

    def parse(self, text):
        """Parse "c*x*y - z": terms, each an optional integer or p/q and *
        separated letters, joined by at most one + and then -s, which negate
        the next term. One regex split and one axpy: linear time."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        pieces = _TERM.split(s)  # signs, term, signs, ..., term, signs
        signs = ["".join(run.split()) for run in pieces[::2]]
        if any("+" in run[1:] for run in signs):
            raise ValueError("misplaced + in %r" % (text,))
        if signs[-1]:
            raise ValueError("dangling operator in %r" % (text,))
        terms = map(self._term, signs, pieces[1::2])
        # axpy takes nonzero coefficients: drop a term like 3*x over GF(3)
        return Polynomial(self, axpy({}, filter(itemgetter(1), terms), 1,
                                     self.field.characteristic))

    def _term(self, signs, term):
        """(word, coefficient) of one term, negated by an odd count of -."""
        parts = list(map(str.strip, term.split("*")))
        if not all(parts):
            raise ValueError("empty factor in term %r" % (term,))
        coeff = self.field.one
        if COEFFICIENT.fullmatch(parts[0]):
            coeff = self.field(parts.pop(0))
        word = tuple(i for p in parts for i in self.alphabet.word(p))
        return word, -coeff if signs.count("-") % 2 else coeff

    def format(self, p):
        """Canonical text form: terms descending in the order, * separated."""
        one = self.field.one
        word_str = self.alphabet.word_str

        def body(w, mag):
            if not w:
                return str(mag)
            if mag == one:
                return word_str(w, sep="*")
            return "%s*%s" % (mag, word_str(w, sep="*"))
        terms = sorted(p.terms.items(), key=lambda kv: self.order.key(kv[0]),
                       reverse=True)
        return format_signed_sum(terms, body)
