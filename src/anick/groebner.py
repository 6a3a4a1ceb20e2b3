"""Rewriting with a set of relations: normal forms, overlap analysis,
bounded completion, and normal-word enumeration and counting."""

import json
import math
from fractions import Fraction
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, groupby, takewhile

from .errors import BoundExceeded, InvalidPresentation, require_listable
from .fields import field_from_json
from .free_algebra import (Alphabet, FreeAlgebra, MonomialOrder, Polynomial,
                           axpy, weight_runs, words_up_to_weight)
from .wordops import NormalWordAutomaton


def require_long_leading_word(algebra, rule, lm):
    """Raise InvalidPresentation when lm, the leading word of rule, is
    shorter than 2: the rule expresses a generator through lower terms."""
    if len(lm) < 2:
        raise InvalidPresentation(
            "relation %s has leading monomial of length %d; eliminate "
            "the generator instead of relating it to lower terms"
            % (algebra.format(rule), len(lm)))


class Presentation:
    """Augmented algebra presentation: generators, graded order, relations,
    and an augmentation mapping generator names to scalars (0 if absent).

    The constructor checks a presentation for library callers and
    from_json alike, raising InvalidPresentation unless, in this order:
    augmentation is None or a dict of generators to ints, Fractions or
    coefficient strings (no bools or floats) the field reads with no zero
    denominator; relations is a list or tuple of strings, parsed, and
    polynomials of algebra, none zero; each relation leads with a word of
    length 2 or more and vanishes at the augmentation.
    """

    def __init__(self, algebra, relations, augmentation=None):
        self.algebra = algebra
        if augmentation is None:
            augmentation = {}
        elif not isinstance(augmentation, dict):
            raise InvalidPresentation("augmentation must be an object")
        unknown = set(augmentation) - set(algebra.alphabet.letters)
        if unknown:
            raise InvalidPresentation("augmentation for unknown letters %s"
                                      % (sorted(unknown, key=str),))
        if any(isinstance(v, bool) or not isinstance(v, (int, Fraction, str))
               for v in augmentation.values()):
            raise InvalidPresentation(
                "augmentation values must be integers or strings")
        try:
            aug = []
            for name in algebra.alphabet.letters:
                try:
                    aug.append(algebra.field(augmentation.get(name, 0)))
                except ValueError:
                    raise InvalidPresentation(
                        "augmentation of %s is not an integer or p/q: %r"
                        % (name, augmentation[name])) from None
            self.augmentation = tuple(aug)
            if not isinstance(relations, (list, tuple)):
                raise InvalidPresentation(
                    "relations must be a list of strings")
            self.relations = tuple(map(self._relation, relations))
        except ZeroDivisionError as exc:
            raise InvalidPresentation("zero denominator in a coefficient: %s"
                                      % (exc,)) from None
        for r in self.relations:
            require_long_leading_word(algebra, r, r.lm())
            if self.augmentation_eval(r):
                raise InvalidPresentation(
                    "relation %s does not vanish at the augmentation point"
                    % (algebra.format(r),))

    def _relation(self, r):
        """A nonzero polynomial of the algebra, parsed if r is a string and
        copied if it is a Polynomial."""
        if isinstance(r, str):
            try:
                r = self.algebra.parse(r)
            except ValueError as exc:
                raise InvalidPresentation(str(exc)) from None
        elif not isinstance(r, Polynomial):
            raise InvalidPresentation("relations must be a list of strings")
        elif r.algebra is not self.algebra:
            raise InvalidPresentation("relation over another algebra")
        else:
            r = Polynomial(self.algebra, dict(r.terms))
        if not r:
            raise InvalidPresentation("zero relation")
        return r

    def augmentation_eval(self, p):
        """Evaluate a polynomial at the augmentation point."""
        return self.algebra.field(sum(c * self.word_eval(w)
                                      for w, c in p.terms.items()))

    def word_eval(self, w):
        """Augmentation value of a single word."""
        field = self.algebra.field
        aug = self.augmentation
        v = field.one
        for i in w:
            v = v * aug[i]
            if not v:
                break
        return field(v)

    def to_json(self):
        alg = self.algebra
        return {
            "generators": list(alg.alphabet.letters),
            "weights": {name: alg.order.weights[i]
                        for i, name in enumerate(alg.alphabet.letters)},
            "field": alg.field.to_json(),
            "relations": [alg.format(r) for r in self.relations],
            "augmentation": {name: str(self.augmentation[i])
                             for i, name in enumerate(alg.alphabet.letters)},
        }

    def digest(self):
        import hashlib  # loaded only for the one caller, json output
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise InvalidPresentation("presentation must be a JSON object")
        try:
            generators = data["generators"]
            relations = data["relations"]
        except KeyError as exc:
            raise InvalidPresentation("missing key %s" % (exc,)) from None
        if not (isinstance(generators, list)
                and all(isinstance(g, str) for g in generators)):
            raise InvalidPresentation("generators must be a list of strings")
        try:
            alphabet = Alphabet(generators)
            order = MonomialOrder(alphabet, data.get("weights"))
            field = field_from_json(data.get("field"))
        except (TypeError, ValueError) as exc:
            raise InvalidPresentation(str(exc)) from None
        return cls(FreeAlgebra(alphabet, order, field), relations,
                   data.get("augmentation"))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise InvalidPresentation("bad JSON: %s" % (exc,)) from None
        return cls.from_json(data)


class RewriteSystem:
    """Monic rules sorted by leading monomial, descending.

    Construction prepares, sorts and indexes the rules, and stores the
    rewrites: rewrites[i] pairs each other word of rules[i] with its
    coefficient negated in the field, the polynomial leading_words[i]
    rewrites to. minimal and reduced are derived on first use.
    """

    def __init__(self, algebra, rules):
        self.algebra = algebra
        keyf = algebra.order.key
        pairs = sorted(((r.lm(), r) for r in map(Polynomial.monic, rules)),
                       key=lambda pair: keyf(pair[0]), reverse=True)
        self.leading_words = tuple(lm for lm, _ in pairs)
        self.rules = tuple(r for _, r in pairs)
        self.rewrites = tuple(tuple((w, algebra.field(-c))
                                    for w, c in r.terms.items() if w != lm)
                              for lm, r in pairs)
        self._nf_cache = {}
        self._automaton = None

    @cached_property
    def minimal(self):
        """True when no leading word is a subword of another: the
        automaton's anti-chain flag."""
        return self.automaton().antichain

    @cached_property
    def reduced(self):
        """True when minimal and no tail word contains a leading word."""
        accepts = self.automaton().accepts
        return self.minimal and all(
            accepts(w) for rewrite in self.rewrites for w, _ in rewrite)

    def max_rule_weight(self):
        weight = self.algebra.order.weight
        return max((weight(w) for w in self.leading_words), default=0)

    def max_ambiguity_weight(self):
        """2 * max_rule_weight() - 1 (0 without rules): no ambiguity weighs
        more, since a proper overlap of two leading words shares at least
        one letter, of weight at least 1, and a containment weighs one
        rule. A confluence check to this bound covers every ambiguity."""
        return max(0, 2 * self.max_rule_weight() - 1)

    def one_step(self, word, pos, rule_index):
        """Rewrite the rule occurrence at pos in word once."""
        prefix = word[:pos]
        suffix = word[pos + len(self.leading_words[rule_index]):]
        # distinct rewrite words stay distinct under one prefix and suffix
        return Polynomial(self.algebra, {
            prefix + w + suffix: c for w, c in self.rewrites[rule_index]})

    def normal_form_word(self, w):
        """Normal form of a single word, cached, with every word met on
        the way.

        The normal form is the linear map F with F(u) = u for a normal
        word u and F(u) = sum of c * F(v) over the terms c * v of
        one_step on u: at the leftmost occurrence of a leading word, by
        the first such rule in stored order. This is the greatest-first
        reduction, on systems that are not confluent too, since a word is
        always rewritten the same way.
        Each word of a rewrite is smaller than the word rewritten, so the
        recursion ends; it runs on an explicit stack, and a long chain of
        rewrites raises no RecursionError. A word leaves the stack once
        the forms of all its rewrite words are cached, and its own form is
        cached then, so the cache holds F for every word met, not only for
        w.

        When the rewrite is one word with coefficient one, both words
        share one Polynomial. Every cached form may be shared, so callers
        must treat the result as read-only.

        The price is memory: each word of a long rewrite chain stays in
        the cache. The form of x^3000 under x*x -> x keeps 3000 words of
        up to 3000 letters, about 35 MiB.
        """
        cache = self._nf_cache
        cached = cache.get(w)
        if cached is not None:
            return cached
        algebra = self.algebra
        one_step = self.one_step
        first_match = self.automaton().first_match
        p = algebra.field.characteristic
        one = algebra.field.one
        # (word, its rewrite as (word, coefficient) pairs once known)
        stack = [(w, None)]
        while stack:
            u, step = stack[-1]
            if step is None:
                if u in cache:
                    stack.pop()
                    continue
                pos, ridx = first_match(u)
                if pos < 0:
                    cache[u] = Polynomial(algebra, {u: one})
                    stack.pop()
                    continue
                step = list(one_step(u, pos, ridx).terms.items())
                missing = [(v, None) for v, _ in step if v not in cache]
                if missing:
                    stack[-1] = (u, step)
                    stack.extend(missing)
                    continue
            stack.pop()
            if len(step) == 1 and step[0][1] == 1:
                cache[u] = cache[step[0][0]]
                continue
            acc = {}
            for v, c in step:
                axpy(acc, cache[v].terms.items(), c, p)
            cache[u] = Polynomial(algebra, acc)
        return cache[w]

    def normal_form(self, p):
        """Normal form of a polynomial: reduce the largest reducible support
        word first, leftmost occurrence, rules in stored order."""
        char = self.algebra.field.characteristic
        acc = {}
        for w, c in p.terms.items():
            axpy(acc, self.normal_form_word(w).terms.items(), c, char)
        return Polynomial(self.algebra, acc)

    def automaton(self):
        if self._automaton is None:
            self._automaton = NormalWordAutomaton(self.leading_words)
        return self._automaton

    def normal_words(self, max_length):
        """All normal words of length <= max_length, sorted by weight and
        then alphabetically, by construction: the automaton lists them in
        ascending tuple order and weight_runs joins them by weight. Before
        any listing, BoundExceeded names the least n <= max_length with
        more than MAX_ITEMS normal words of length at most n. Counting
        stops at the first length with no normal words: a normal word's
        prefixes are normal, so no longer one exists."""
        if max_length < 0:
            raise ValueError("max_length must be nonnegative")
        counts = self.automaton().iter_counts(len(self.algebra.alphabet))
        for n, total in zip(range(max_length + 1),
                            accumulate(takewhile(bool, counts))):
            require_listable(total, "normal words of length at most %d" % n)
        out = self.automaton().language(max_length,
                                        len(self.algebra.alphabet))
        runs = weight_runs(out, map(self.algebra.order.weight, out))
        return [w for run in runs for w in run]

    def count_normal_words(self, max_length):
        """Number of normal words of each length 0..max_length."""
        if max_length < 0:
            raise ValueError("max_length must be nonnegative")
        return self.automaton().counts(max_length,
                                       len(self.algebra.alphabet))

    @classmethod
    def from_presentation(cls, pres):
        return cls(pres.algebra, pres.relations)


Overlap = namedtuple("Overlap", "i j word offset_i")


def overlaps(rs):
    """All proper overlap and containment ambiguities between rule pairs.

    Each entry records the two rule indices, the ambiguity word, and the
    offset of rule i's leading monomial inside it; rule j's leading
    monomial always starts the word. Sorted by
    weight, then alphabetically, matching the word listing convention, so
    bounded scans proceed in ascending weight.
    """
    return _ambiguities(rs, math.inf)


def _ambiguities(rs, max_weight):
    """The overlaps of rs whose word weighs at most max_weight, sorted as
    overlaps() sorts them: the matches of each leading word t, and the
    overlaps of t past its first letter, skipped by weight before their
    word is built. The key (weight, word, i, j, offset_i) names each once.
    """
    lms = rs.leading_words
    weight = rs.algebra.order.weight
    automaton = rs.automaton()
    wts = [weight(t) for t in lms]
    out = [Overlap(i, j, t, p)
           for j, t in enumerate(lms) if wts[j] <= max_weight
           for p, i in automaton.all_matches(t) if i != j]
    out += [Overlap(i, j, t + rest, pos)
            for j, t in enumerate(lms)
            for pos, i, rest in automaton.overlaps(t)
            if pos and wts[j] + weight(rest) <= max_weight]
    out.sort(key=lambda ov: (weight(ov.word), ov.word, ov.i, ov.j, ov.offset_i))
    return out


class CheckReport:
    """The outcome of check_groebner; a failure names the first ambiguity
    word whose branches differ, their normal forms and the difference."""

    def __init__(self, ok, verified_to_degree, counterexample=None,
                 branches=None, spoly_normal_form=None):
        self.ok = ok
        self.verified_to_degree = verified_to_degree
        self.counterexample = counterexample
        self.branches = branches
        self.spoly_normal_form = spoly_normal_form


def _branches(rs, ov):
    """The normal forms of the two ways of rewriting an overlap's word."""
    return (rs.normal_form(rs.one_step(ov.word, 0, ov.j)),
            rs.normal_form(rs.one_step(ov.word, ov.offset_i, ov.i)))


def check_groebner(rs, max_degree):
    """Confluence check on every ambiguity word of weight <= max_degree.

    On failure reports the first ambiguity word (in the order) whose two
    branch normal forms differ.
    """
    if max_degree < rs.max_rule_weight():
        raise ValueError("max_degree %d is below the largest rule weight %d"
                         % (max_degree, rs.max_rule_weight()))
    for ov in _ambiguities(rs, max_degree):
        a, b = _branches(rs, ov)
        if a != b:
            # ambiguities arrive in ascending weight, so everything strictly
            # below the failing word has already passed
            return CheckReport(False, rs.algebra.order.weight(ov.word) - 1,
                               counterexample=ov.word, branches=(a, b),
                               spoly_normal_form=a - b)
    return CheckReport(True, max_degree)


def _interreduce(algebra, rules):
    """Interreduce rules: the RewriteSystem of the nonzero rules, each
    rule's leading word free of every other leading word and its other
    words normal.

    A pass builds one system and takes its rules in ascending order of
    leading word, rules with the same leading word in list order. A rule's
    leading word is rewritten once, at the leftmost occurrence of another
    leading word, ties toward the lowest index; the rest is reduced by the
    whole system. The rule cannot fire on its own remainder: every word of
    it is smaller, and under a graded order a smaller word containing the
    leading word would weigh more. The first rule that changes is replaced
    by its reduction, or dropped when that is zero, and a new pass starts.
    The last pass's system is returned, with its automaton and its cache of
    normal forms.
    """
    keyf = algebra.order.key
    rules = [r for r in rules if r]
    while True:
        rs = RewriteSystem(algebra, rules)
        lws = rs.leading_words
        matches = rs.automaton().all_matches
        # the system sorts descending and stably, so among equal leading
        # words its order is the list order
        for i in sorted(range(len(lws)), key=lambda k: (keyf(lws[k]), k)):
            lw = lws[i]
            rewrite = rs.one_step(lw, 0, i)
            head = next(((pos, k) for pos, k in matches(lw) if k != i), None)
            if head is not None:
                nf = rs.normal_form(rs.one_step(lw, *head) - rewrite)
            else:
                nf = rs.normal_form(rewrite)
                if nf == rewrite:
                    continue
                nf = algebra.from_word(lw) - nf
            rules = list(rs.rules)
            if nf:
                rules[i] = nf
            else:
                del rules[i]
            break
        else:
            return rs


def _echelon(algebra, rows):
    """Echelon form of the span of rows, each a {word: coefficient} map:
    a dict from leading word to the monic row that leads with it. Each
    row in turn is cleared, greatest word first, by the row already kept
    for that word, and kept once its greatest word has none; zero rows
    drop out. The rank is the length of the result."""
    field = algebra.field
    char = field.characteristic
    keyf = algebra.order.key
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lw = max(row, key=keyf)
            piv = pivots.get(lw)
            if piv is None:
                pivots[lw] = axpy({}, row.items(), field.inv(row[lw]), char)
                break
            axpy(row, piv.items(), -row[lw], char)
    return pivots


def complete(rs, max_degree):
    """Bounded completion: resolve the ambiguities of weight <= max_degree
    one weight at a time, in ascending order.

    At the least weight d with an ambiguity that does not resolve, both
    branches of every ambiguity of weight d are reduced by the current
    system, and one echelon step brings the nonzero differences to
    distinct leading words. All of those rows are added as rules at once,
    and the system is interreduced. That can change other rules too, and
    give one a lighter leading word when its old one reduces. An
    ambiguity of a rule weighs more than the rule's leading word, so the
    scan goes on at weight e + 1, e the least weight of a leading word
    whose rule was added or changed. The ambiguities below, of unchanged
    rules, still resolve, since later rules only add to the ideal below
    their word (Bergman's diamond lemma, Adv. Math. 29, 1978). Completion
    ends when every ambiguity of weight <= max_degree resolves.

    The result is independent of the input rule order. Raises BoundExceeded
    when an input rule already outweighs the bound.
    """
    algebra = rs.algebra
    weight = algebra.order.weight
    for w in rs.leading_words:
        if weight(w) > max_degree:
            raise BoundExceeded(
                "rule leading monomial %s has weight %d > bound %d"
                % (algebra.word_str(w), weight(w), max_degree))
    current = _interreduce(algebra, rs.rules)
    done = -1  # every ambiguity of weight <= done resolves
    while True:
        rows = []
        for d, group in groupby(_ambiguities(current, max_degree),
                                key=lambda ov: weight(ov.word)):
            if d <= done:
                continue
            for ov in group:
                a, b = _branches(current, ov)
                if a != b:
                    rows.append((a - b).terms)
            if rows:
                break
        else:
            return current
        before = dict(zip(current.leading_words, current.rules))
        current = _interreduce(algebra, current.rules + tuple(
            Polynomial(algebra, r) for r in _echelon(algebra, rows).values()))
        done = min(weight(lw) for lw, r in zip(current.leading_words,
                                               current.rules)
                   if before.get(lw) != r)


def leading_monomials_oracle(pres, max_degree):
    """Leading monomials of the relation ideal up to the weight bound,
    by row reduction of the span of all products u * g * v.

    Independent of the rewriting machinery; intended for cross-validation.
    Every word returned does lead some ideal element. The list is complete
    when the relations form a Groebner basis up to the bound; otherwise
    ideal elements whose derivation passes through weights above the bound
    can be missed.
    """
    order = pres.algebra.order
    weight = order.weight

    def rows():
        for g in pres.relations:
            rem = max_degree - weight(g.lm())
            if rem < 0:
                continue
            smalls = words_up_to_weight(pres.algebra.alphabet, order, rem)
            for u in smalls:
                wu = weight(u)
                for v in smalls:
                    if wu + weight(v) <= rem:
                        yield {u + w + v: c for w, c in g.terms.items()}
    return set(_echelon(pres.algebra, rows()))
