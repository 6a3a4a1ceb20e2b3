"""Rewriting systems: normal forms, confluence checking, completion,
and normal-word enumeration."""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anick
from anick import (Alphabet, BoundExceeded, FreeAlgebra, InvalidPresentation,
                   MonomialOrder, Polynomial, Presentation, RewriteSystem,
                   check_groebner, complete, leading_monomials_oracle,
                   overlaps, words_up_to_weight)
from anick.fields import field_from_json
from anick.free_algebra import axpy
from anick.groebner import Overlap, _ambiguities, _echelon

PRESENTATIONS = pathlib.Path(__file__).resolve().parents[1] / "presentations"


def make_presentation(letters, relations, augmentation=None, field=anick.QQ):
    algebra = FreeAlgebra(Alphabet(letters), field=field)
    return Presentation(algebra, relations, augmentation)


# ---- presentation validation ----

def test_presentation_rejects_zero_relation():
    with pytest.raises(InvalidPresentation):
        make_presentation(["x", "y"], ["x*y - x*y"])


def test_presentation_copies_polynomial_relations():
    A = FreeAlgebra(Alphabet(["x", "y"]))
    p = A.parse("x*x")
    pres = Presentation(A, [p])
    p.terms[(1,)] = 1
    assert A.format(pres.relations[0]) == "x*x"
    assert A.format(p) == "x*x + y"


def test_presentation_rejects_short_leading_monomial():
    with pytest.raises(InvalidPresentation, match="eliminate the generator"):
        make_presentation(["x", "y"], ["x - y"])


def test_presentation_rejects_nonvanishing_relation():
    with pytest.raises(InvalidPresentation):
        make_presentation(["x"], ["x*x - x"], augmentation={"x": 2})
    # x*x - x vanishes at both 0 and 1
    make_presentation(["x"], ["x*x - x"], augmentation={"x": 1})
    make_presentation(["x"], ["x*x - x"])


def test_presentation_json_round_trip(running_presentation):
    data = running_presentation.to_json()
    again = Presentation.from_json(json.loads(json.dumps(data)))
    assert again.to_json() == data
    assert again.digest() == running_presentation.digest()


def test_presentation_digest_frozen(running_presentation):
    assert running_presentation.digest() == \
        "e1740aff080022bdacdf64632f3fd5a6325cb4250b1a877efeb1c8198d8d7381"


def test_presentation_from_json_errors():
    with pytest.raises(InvalidPresentation):
        Presentation.from_json([1, 2])
    with pytest.raises(InvalidPresentation):
        Presentation.from_json({"generators": ["x"]})
    with pytest.raises(InvalidPresentation):
        Presentation.from_json({"generators": ["x"],
                                "relations": ["x*x"],
                                "augmentation": {"q": 1}})


def _on_x(relations, augmentation=None):
    return make_presentation(["x"], relations, augmentation)


# case -> (relations, augmentation, message): inputs that JSON can express,
# refused by the constructor and by from_json with the same message
GATE_CASES = {
    "unknown augmentation key": (["x*x"], {"q": 5, "x": 0},
                                 "augmentation for unknown letters ['q']"),
    "bool augmentation": (["x*x"], {"x": True},
                          "augmentation values must be integers or strings"),
    "float augmentation": (["x*x"], {"x": 1.0},
                           "augmentation values must be integers or strings"),
    "zero denominator in the augmentation": (
        ["x*x"], {"x": "1/0"},
        "zero denominator in a coefficient: Fraction(1, 0)"),
    "dangling factor": (["x*"], None, "empty factor in term 'x*'"),
    "zero denominator in a relation": (
        ["1/0*x*x"], None,
        "zero denominator in a coefficient: Fraction(1, 0)"),
    "relation not a string": ([5], None, "relations must be a list of strings"),
    "relations a string": ("x*x", None, "relations must be a list of strings"),
    "augmentation a list": (["x*x"], ["x"], "augmentation must be an object"),
}


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_from_json_refuses_as_the_constructor(case):
    relations, augmentation, message = GATE_CASES[case]
    data = {"generators": ["x"], "relations": relations}
    if augmentation is not None:
        data["augmentation"] = augmentation
    for build in (lambda: _on_x(relations, augmentation),
                  lambda: Presentation.from_json(json.loads(json.dumps(data)))):
        with pytest.raises(InvalidPresentation) as info:
            build()
        assert str(info.value) == message


def _empty_pattern_listing():
    # the empty word is a subword of every word, so none is normal
    automaton = anick.NormalWordAutomaton([()])
    return automaton.language(3, 2), automaton.counts(3, 2)


# case -> (call, exception and message pattern), or (call, None, value)
INPUT_CHECKS = {
    "empty alphabet": (lambda: Alphabet([]), ValueError, "non-empty"),
    "unknown letter": (lambda: Alphabet(["ab", "c"]).word("abc"),
                       ValueError, "unknown letter 'abc'"),
    "order of another alphabet": (
        lambda: FreeAlgebra(Alphabet(["x"]), MonomialOrder(Alphabet(["y"]))),
        ValueError, "order alphabet mismatch"),
    "monic zero": (lambda: FreeAlgebra(Alphabet(["x"])).zero().monic(),
                   anick.ZeroPolynomial, "cannot normalize"),
    "misplaced +": (lambda: FreeAlgebra(Alphabet(["x", "y"])).parse(
        "x - + y"), ValueError, r"misplaced \+"),
    "generators not a list": (
        lambda: Presentation.from_json({"generators": "xy",
                                        "relations": ["x*y"]}),
        InvalidPresentation, "generators must be a list of strings"),
    "augmentation not a mapping": (
        lambda: make_presentation(["x"], ["x*x"], ["x"]),
        InvalidPresentation, "augmentation must be an object"),
    "prime modulus a string": (
        lambda: field_from_json({"type": "prime", "p": "7"}),
        ValueError, "modulus p must be an integer, got '7'"),
    "unknown field type": (lambda: field_from_json({"type": "real"}),
                           ValueError, "unknown field type 'real'"),
    "negative length": (
        lambda: RewriteSystem.from_presentation(make_presentation(
            ["x"], ["x*x"])).count_normal_words(-1),
        ValueError, "nonnegative"),
    "empty pattern": (_empty_pattern_listing, None, ([], [0, 0, 0, 0])),
    # a polynomial relation must belong to the presentation's algebra
    "relation with a letter the algebra lacks": (
        lambda: _on_x([FreeAlgebra(Alphabet(["x", "y"])).parse("x*y")]),
        InvalidPresentation, "relation over another algebra"),
    "relation over another field": (
        lambda: _on_x([FreeAlgebra(Alphabet(["x"]),
                                   field=anick.GF(2)).parse("x*x")]),
        InvalidPresentation, "relation over another algebra"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, exc, expected = INPUT_CHECKS[case]
    if exc is None:
        assert call() == expected
    else:
        with pytest.raises(exc, match=expected):
            call()


def test_augmentation_eval(running_presentation, idempotent_presentation):
    pres = running_presentation
    A = pres.algebra
    assert pres.augmentation_eval(A.one()) == 1
    assert pres.augmentation_eval(A.parse("x + 3")) == 3
    assert pres.word_eval(A.alphabet.word("xy")) == 0
    ip = idempotent_presentation
    assert ip.word_eval(ip.algebra.alphabet.word("xx")) == 1
    assert ip.augmentation_eval(ip.algebra.parse("x*x - x")) == 0


# ---- rewrite systems and normal forms ----

@pytest.fixture(scope="module")
def running_rs(running_presentation):
    return RewriteSystem.from_presentation(running_presentation)


def test_rules_sorted_and_monic(running_rs):
    assert [str(r) for r in running_rs.rules] == \
        ["x*x*y*x", "x*x*x - x*x", "y*x*z - y*x"]
    assert running_rs.minimal
    assert running_rs.reduced


def test_normal_form_words(running_rs, running_presentation):
    A = running_presentation.algebra
    nf = running_rs.normal_form

    def nfs(s):
        return A.format(nf(A.parse(s)))

    assert nfs("x*x*x") == "x*x"
    assert nfs("x*x*x*x") == "x*x"
    assert nfs("x*x*y*x") == "0"
    assert nfs("y*x*z") == "y*x"
    assert nfs("x*y*x*z") == "x*y*x"
    assert nfs("x*x*x*y*x") == "0"
    assert nfs("z*y*x") == "z*y*x"


def test_normal_form_idempotent_and_linear(running_rs, running_presentation):
    A = running_presentation.algebra
    nf = running_rs.normal_form
    rng = random.Random(3)
    words = [tuple(rng.randrange(3) for _ in range(rng.randrange(7)))
             for _ in range(40)]
    polys = [A.from_word(w).scale(anick.QQ(rng.randrange(-3, 4)))
             for w in words]
    for p, q in zip(polys, polys[1:]):
        assert nf(nf(p)) == nf(p)
        assert nf(p + q) == nf(p) + nf(q)


def test_normal_form_is_congruent(running_rs, running_presentation):
    # p - nf(p) must lie in the ideal: reducing any multiple stays consistent
    A = running_presentation.algebra
    nf = running_rs.normal_form
    x = A.from_word((0,))
    for rel in running_presentation.relations:
        assert not nf(rel)
        assert not nf(x * rel)
        assert not nf(rel * x)


def test_minimal_but_not_reduced():
    # the tail x*y of the second rule is the leading word of the first
    pres = make_presentation(["x", "y"], ["x*y - y*y", "y*y*y - x*y"])
    rs = RewriteSystem.from_presentation(pres)
    assert rs.minimal
    assert not rs.reduced


def test_nonminimal_rules_flagged(running_presentation):
    A = running_presentation.algebra
    rs = RewriteSystem(A, [A.parse("x*x*x - x*x"), A.parse("x*x*x*x - x*x")])
    assert not rs.minimal
    with pytest.raises(anick.NotMinimal):
        anick.obstructions(rs)
    # the leftmost start is rewritten first, not the first occurrence to end
    rs = RewriteSystem(A, [A.parse("x*y*z*x - z*z*z*z"), A.parse("y*z - z*z")])
    assert not rs.minimal
    assert A.format(rs.normal_form_word(A.alphabet.word("xyzx"))) == "z*z*z*z"


# ---- overlaps ----

def test_overlap_words(running_rs, running_presentation):
    ws = running_presentation.algebra.word_str
    got = [(ws(o.word), o.i, o.j, o.offset_i)
           for o in overlaps(running_rs)]
    assert got == [
        ("xxxx", 1, 1, 1),
        ("xxxxx", 1, 1, 2),
        ("xxxyx", 0, 1, 1),
        ("xxyxz", 2, 0, 2),
        ("xxxxyx", 0, 1, 2),
        ("xxyxxx", 1, 0, 3),
        ("xxyxxyx", 0, 0, 3),
    ]


def test_overlap_includes_containment():
    # yx sits inside xyxz, a containment ambiguity rather than a proper overlap
    pres = make_presentation(["x", "y", "z"], ["x*y*x*z - z*z", "y*x - x"])
    rs = RewriteSystem.from_presentation(pres)
    words = {pres.algebra.word_str(o.word) for o in overlaps(rs)}
    assert "xyxz" in words


def test_check_groebner_running_example(running_rs):
    report = check_groebner(running_rs, 7)
    assert report.ok
    assert report.counterexample is None
    assert report.verified_to_degree == 7


def test_check_groebner_counterexample():
    pres = make_presentation(["x", "y"], ["x*y - y", "y*x - x"])
    rs = RewriteSystem.from_presentation(pres)
    report = check_groebner(rs, 7)
    assert not report.ok
    assert pres.algebra.word_str(report.counterexample) == "xyx"
    assert [str(b) for b in report.branches] == ["x", "x*x"]
    assert str(report.spoly_normal_form) == "-x*x + x"
    assert report.verified_to_degree == 2


def test_check_groebner_bound_too_small(running_rs):
    with pytest.raises(ValueError):
        check_groebner(running_rs, 3)


# ---- completion ----

def test_complete_two_projections():
    pres = make_presentation(["x", "y"], ["x*y - y", "y*x - x"])
    rs = RewriteSystem.from_presentation(pres)
    done = complete(rs, 7)
    assert [str(r) for r in done.rules] == \
        ["x*x - x", "x*y - y", "y*x - x", "y*y - y"]
    assert done.minimal and done.reduced
    assert check_groebner(done, 7).ok


def test_complete_input_order_independent():
    variants = [
        ["x*y - y", "y*x - x"],
        ["y*x - x", "x*y - y"],
        ["2*x*y - 2*y", "y*x - x"],
    ]
    results = []
    for rels in variants:
        rs = RewriteSystem.from_presentation(make_presentation(["x", "y"], rels))
        results.append(tuple(str(r) for r in complete(rs, 7).rules))
    assert len(set(results)) == 1


def test_complete_already_closed(running_rs):
    done = complete(running_rs, 7)
    assert [str(r) for r in done.rules] == [str(r) for r in running_rs.rules]


def test_complete_bound_exceeded():
    pres = make_presentation(["x", "y"], ["x*y - y", "y*x - x"])
    rs = RewriteSystem.from_presentation(pres)
    with pytest.raises(BoundExceeded):
        complete(rs, 1)


def test_completed_system_rewrites_confluently():
    pres = make_presentation(["x", "y"], ["x*y - y", "y*x - x"])
    done = complete(RewriteSystem.from_presentation(pres), 7)
    A = pres.algebra
    # with all four projections, every word of positive length collapses
    for n in range(1, 5):
        for w in itertools.product(range(2), repeat=n):
            nf = done.normal_form(A.from_word(w))
            assert len(nf.lm()) == 1


# ---- normal words ----

def test_normal_words_listing(running_rs, running_presentation):
    ws = running_presentation.algebra.word_str
    got = [ws(w) for w in running_rs.normal_words(2)]
    assert got == ["1", "x", "y", "z", "xx", "xy", "xz", "yx", "yy", "yz",
                   "zx", "zy", "zz"]


def test_normal_word_counts(running_rs):
    assert running_rs.count_normal_words(3) == [1, 3, 9, 25]
    # one normal word per element of S3: a finite language, so the count
    # vector dies out
    s3 = RewriteSystem.from_presentation(
        Presentation.load(PRESENTATIONS / "s3_group.json"))
    assert s3.count_normal_words(6) == [1, 2, 2, 1, 0, 0, 0]


def test_counts_match_enumeration(running_rs):
    counts = running_rs.count_normal_words(6)
    by_len = {}
    for w in running_rs.normal_words(6):
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert counts == [by_len.get(n, 0) for n in range(7)]


def test_automaton_agrees_with_brute_force(running_rs):
    aut = running_rs.automaton()
    pats = running_rs.leading_words
    for n in range(7):
        expected = [w for w in itertools.product(range(3), repeat=n)
                    if not any(w[i:i + len(u)] == u for u in pats
                               for i in range(n - len(u) + 1))]
        assert aut.counts(n, 3)[n] == len(expected)
        for w in expected:
            assert aut.accepts(w)


def test_automaton_rejects_ideal_words(running_rs):
    aut = running_rs.automaton()
    for s in ["xxx", "xxyx", "yxz", "xxxx", "zxxyxz"]:
        assert not aut.accepts(running_rs.algebra.alphabet.word(s))


# ---- independent characterization of the leading-word set ----

def test_oracle_complement_equals_normal_words(running_presentation, running_rs):
    # at bound 3 the relation x*x*y*x is heavier than the bound: no rows
    A = running_presentation.algebra
    for bound in (5, 3):
        lead = leading_monomials_oracle(running_presentation, bound)
        normal = set(running_rs.normal_words(bound))
        universe = set(anick.words_up_to_weight(A.alphabet, A.order, bound))
        assert normal == universe - lead
        assert lead <= universe


def test_oracle_on_completed_system():
    pres = make_presentation(["x", "y"], ["x*y - y", "y*x - x"])
    done = complete(RewriteSystem.from_presentation(pres), 7)
    # the oracle is exact once the relations form a Groebner basis, so feed
    # it the completed rules
    done_pres = Presentation(pres.algebra, list(done.rules))
    lead = leading_monomials_oracle(done_pres, 4)
    normal = set(done.normal_words(4))
    universe = set(anick.words_up_to_weight(pres.algebra.alphabet,
                                            pres.algebra.order, 4))
    assert normal == universe - lead
    A = pres.algebra.alphabet
    assert normal == {A.word(s) for s in ["1", "x", "y"]}
    # on the raw input the oracle only under-approximates the leading words
    raw = leading_monomials_oracle(pres, 4)
    assert raw <= lead


def test_finite_field_rewriting():
    pres = make_presentation(["x", "y"], ["x*x - 3*y*y", "x*y - y*x"],
                             field=anick.GF(7))
    rs = RewriteSystem.from_presentation(pres)
    A = pres.algebra
    nf = rs.normal_form(A.parse("x*x*x"))
    assert A.format(nf) == "3*y*y*x"
    for c in nf.terms.values():
        assert type(c) is int and 0 < c < 7
    assert check_groebner(rs, 6).ok


# ---- completion and normal forms against the straightforward versions ----

def reference_interreduce(algebra, rules):
    """Interreduction that tests each rule against a fresh system of all
    the others and starts over after every change."""
    rules = [r.monic() for r in rules if r]
    changed = True
    while changed:
        changed = False
        rules.sort(key=lambda r: algebra.order.key(r.lm()))
        for idx in range(len(rules)):
            others = rules[:idx] + rules[idx + 1:]
            if not others:
                continue
            sub = RewriteSystem(algebra, others)
            nf = sub.normal_form(rules[idx])
            if nf != rules[idx]:
                changed = True
                if nf:
                    rules[idx] = nf.monic()
                else:
                    del rules[idx]
                break
    rules.sort(key=lambda r: algebra.order.key(r.lm()))
    return rules


def reference_complete(rs, max_degree):
    """Completion that rebuilds the system and recomputes the normal forms
    of every ambiguity in each round."""
    algebra = rs.algebra
    keyf = algebra.order.key
    weight = algebra.order.weight
    for w in rs.leading_words:
        if weight(w) > max_degree:
            raise BoundExceeded(
                "rule leading monomial %s has weight %d > bound %d"
                % (algebra.word_str(w), weight(w), max_degree))
    rules = reference_interreduce(algebra, list(rs.rules))
    while True:
        current = RewriteSystem(algebra, rules)
        candidates = []
        for ov in overlaps(current):
            if weight(ov.word) > max_degree:
                break
            a = current.normal_form(
                current.one_step(ov.word, 0, ov.j))
            b = current.normal_form(
                current.one_step(ov.word, ov.offset_i, ov.i))
            if a != b:
                candidates.append((a - b).monic())
        if not candidates:
            return current
        candidates.sort(key=lambda p: (keyf(p.lm()), algebra.format(p)))
        rules.append(candidates[0])
        rules = reference_interreduce(algebra, rules)


def reference_normal_form_word(rs, w):
    """Normal form of a word that keys every pending word at each step."""
    keyf = rs.algebra.order.key
    pending = {w: rs.algebra.field.one}
    normal = {}
    while pending:
        u = max(pending, key=keyf)
        c = pending.pop(u)
        pos, ridx = rs.automaton().first_match(u)
        if pos < 0:
            normal[u] = c
            continue
        lm = rs.leading_words[ridx]
        axpy(pending, ((u[:pos] + w2 + u[pos + len(lm):], c2)
                       for w2, c2 in rs.rules[ridx].terms.items() if w2 != lm),
             -c, rs.algebra.field.characteristic)
    return Polynomial(rs.algebra, normal)


FIELDS = [anick.QQ, anick.GF(2), anick.GF(3), anick.GF(7)]


@st.composite
def random_systems(draw, max_terms=4, fields=FIELDS):
    """An algebra on 2 or 3 letters over one of fields and a shuffled list
    of relations, each homogeneous or not, with 1 to max_terms terms of
    words of length up to 4."""
    n = draw(st.integers(2, 3))
    weights = draw(st.sampled_from([(1, 1, 1), (2, 1, 3), (1, 2, 1),
                                    (2, 1, 1)]))[:n]
    field = draw(st.sampled_from(fields))
    letters = ["x", "y", "z"][:n]
    algebra = FreeAlgebra(Alphabet(letters),
                          MonomialOrder(Alphabet(letters), weights),
                          field)
    weight = algebra.order.weight
    words = st.lists(st.integers(0, n - 1), max_size=4).map(tuple)
    coeffs = st.sampled_from([1, -1, 2, -3, "1/2"] if field.characteristic != 2
                             else [1])
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.lists(st.integers(0, n - 1), min_size=2,
                             max_size=4).map(tuple))
        tails = draw(st.lists(words, max_size=max_terms - 1))
        if draw(st.booleans()):
            tails = [w for w in tails if weight(w) == weight(lead)]
        terms = {w: draw(coeffs) for w in tails}
        terms[lead] = draw(coeffs)
        p = algebra.poly(terms)
        if p:
            relations.append(p)
    return algebra, draw(st.permutations(relations))


def reference_ambiguities(rs, max_weight):
    """The ambiguities of weight <= max_weight, by a loop over every pair
    of leading words: containments of i in j, and proper overlaps where a
    suffix of j starts i."""
    lms = rs.leading_words
    weight = rs.algebra.order.weight
    out = []
    for j, t in enumerate(lms):
        for i, s in enumerate(lms):
            if i != j and weight(t) <= max_weight:
                out += [Overlap(i, j, t, p)
                        for p in range(len(t) - len(s) + 1)
                        if t[p:p + len(s)] == s]
            for k in range(1, len(t)):
                shared = len(t) - k
                word = t + s[shared:]
                if (shared < len(s) and t[k:] == s[:shared]
                        and weight(word) <= max_weight):
                    out.append(Overlap(i, j, word, k))
    return sorted(out, key=lambda ov: (weight(ov.word), ov.word, ov.i, ov.j,
                                       ov.offset_i))


@settings(max_examples=150, deadline=None)
@given(random_systems(max_terms=2), st.data())
def test_ambiguities_match_reference(system, data):
    algebra, relations = system
    # the rules as given: duplicate and nested leading words included
    rs = RewriteSystem(algebra, relations)
    max_weight = data.draw(st.integers(0, 12))
    assert _ambiguities(rs, max_weight) == \
        reference_ambiguities(rs, max_weight)


def _completion(fn, algebra, relations, bound):
    try:
        done = fn(RewriteSystem(algebra, relations), bound)
    except Exception as exc:  # both sides must raise the same type
        return type(exc)
    return done


@settings(max_examples=150, deadline=None)
@given(random_systems(), st.integers(3, 8))
def test_complete_matches_reference(system, bound):
    _check_complete(system, bound)


# over GF(2), x of weight 2: interreducing after weight 5, where x*y*x is
# added, turns the first rule into y*y*y + y, whose ambiguity x*y*y*y of
# weight 5 is new and yields x*y
LIGHTER_RULE_CASE = ["y*y*y + y*x*y*x + x*x*x*y + y", "y*x*y*y + y*x*x",
                     "x*x", "x*y*y"]


@st.composite
def near_lighter_rule_case(draw):
    """The relations of LIGHTER_RULE_CASE, one of them with a word of
    length up to 3 added, and at most one more relation of up to 4 words,
    shuffled. Random systems of this shape seldom reach a step whose
    interreduction gives a rule a lighter leading word with an ambiguity
    that fails below the step's weight (at most 4 in 1,000 in a sweep);
    with one word added to one relation, 63 in 300 still do."""
    alphabet = Alphabet(["x", "y"])
    algebra = FreeAlgebra(alphabet, MonomialOrder(alphabet, (2, 1)),
                          anick.GF(2))
    relations = list(map(algebra.parse, LIGHTER_RULE_CASE))
    words = st.lists(st.integers(0, 1), max_size=4).map(tuple)
    i = draw(st.integers(0, len(relations) - 1))
    relations[i] = relations[i] + algebra.from_word(
        draw(st.lists(st.integers(0, 1), max_size=3).map(tuple)))
    relations += [algebra.poly(dict.fromkeys(extra, 1)) for extra in draw(
        st.lists(st.lists(words, min_size=1, max_size=4), max_size=1))]
    return algebra, draw(st.permutations([r for r in relations if r]))


@settings(max_examples=100, deadline=None)
@given(near_lighter_rule_case(), st.integers(7, 10))
def test_complete_matches_reference_near_a_lighter_rule(system, bound):
    _check_complete(system, bound)


def _check_complete(system, bound):
    algebra, relations = system
    done = _completion(complete, algebra, relations, bound)
    want = _completion(reference_complete, algebra, relations, bound)
    if isinstance(want, type):
        assert done is want
    else:
        assert done.rules == want.rules
        assert check_groebner(done, bound).ok


@settings(max_examples=100, deadline=None)
@given(random_systems(max_terms=3))
def test_normal_form_word_matches_reference(system):
    algebra, relations = system
    # the rules as given: neither minimal nor reduced, in general
    rs = RewriteSystem(algebra, relations)
    for w in words_up_to_weight(algebra.alphabet, algebra.order, 6):
        assert rs.normal_form_word(w) == reference_normal_form_word(rs, w)


@settings(max_examples=100, deadline=None)
@given(random_systems(), st.data())
def test_normal_form_word_cache_order(system, data):
    algebra, relations = system
    rs = RewriteSystem(algebra, relations)
    words = words_up_to_weight(algebra.alphabet, algebra.order, 6)
    # warming the cache in any order leaves every normal form as it was,
    # also where the system is not confluent
    for w in data.draw(st.permutations(words)):
        rs.normal_form_word(w)
    for w in words:
        assert rs.normal_form_word(w) == reference_normal_form_word(rs, w)


@settings(max_examples=100, deadline=None)
@given(random_systems(fields=[anick.QQ, anick.GF(7)]), st.data())
def test_normal_form_cache_holds_every_word_met(system, data):
    algebra, relations = system
    rs = RewriteSystem(algebra, relations)
    words = words_up_to_weight(algebra.alphabet, algebra.order, 6)
    for w in data.draw(st.permutations(words)):
        rs.normal_form_word(w)
    # the words asked for and every word met on the way; over GF(7) a
    # rewrite to one word with coefficient -1 is stored as 6
    assert set(words) <= set(rs._nf_cache)
    for u, nf in rs._nf_cache.items():
        assert nf == reference_normal_form_word(rs, u)


@pytest.mark.timed
def test_long_rewrite_chain(idempotent_presentation):
    rs = RewriteSystem.from_presentation(idempotent_presentation)
    x = idempotent_presentation.algebra.word("x")
    t0 = time.perf_counter()
    # x^2000 -> x^1999 -> ... -> x: deeper than the recursion limit
    nf = rs.normal_form_word(x * 2000)
    assert time.perf_counter() - t0 < 30
    assert nf.terms == {x: 1}
    assert len(rs._nf_cache) == 2000


def test_descending_key_reverses_key():
    alphabet = Alphabet(["x", "y", "z"])
    order = MonomialOrder(alphabet, (2, 1, 3))
    words = words_up_to_weight(alphabet, order, 6)
    # equal weights, different lengths: the case the tie-break must handle
    assert order.weight((0, 0)) == order.weight((1, 2))
    assert sorted(words, key=order.descending_key) == \
        sorted(words, key=order.key, reverse=True)


def test_completion_returns_to_the_weight_of_a_lighter_rule():
    pres = Presentation.from_json({
        "generators": ["x", "y"], "weights": {"x": 2, "y": 1},
        "field": {"type": "prime", "p": 2}, "relations": LIGHTER_RULE_CASE})
    rs = RewriteSystem.from_presentation(pres)
    done = complete(rs, 9)
    assert [pres.algebra.format(r) for r in done.rules] == \
        ["x*x", "x*y", "y*y*y + y"]
    assert done.rules == reference_complete(rs, 9).rules
    assert check_groebner(done, 9).ok


def reference_echelon(field, columns, rows):
    """The pivot columns of rows, each a {column: value} map, by dense
    Gauss-Jordan elimination over Fraction, or over the ints mod p, with
    the columns taken in the given order."""
    p = field.characteristic
    matrix = [[Fraction(row.get(c, 0)) if not p else row.get(c, 0) % p
               for c in columns] for row in rows]
    pivots = []
    for k, column in enumerate(columns):
        r = len(pivots)
        found = next((i for i in range(r, len(matrix)) if matrix[i][k]), None)
        if found is None:
            continue
        matrix[r], matrix[found] = matrix[found], matrix[r]
        inv = pow(matrix[r][k], -1, p) if p else 1 / matrix[r][k]
        matrix[r] = [v * inv % p if p else v * inv for v in matrix[r]]
        for i, other in enumerate(matrix):
            f = other[k]
            if i != r and f:
                matrix[i] = [(a - f * b) % p if p else a - f * b
                             for a, b in zip(other, matrix[r])]
        pivots.append(column)
    return pivots


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_echelon_matches_dense_reference(field, data):
    algebra = FreeAlgebra(Alphabet(["x", "y"]), field=field)
    # greatest first: the dense pivot columns are the leading words
    words = sorted(words_up_to_weight(algebra.alphabet, algebra.order, 3),
                   key=algebra.order.key, reverse=True)
    scalars = (["1", "-1", "2", "-3", "1/2"] if not field.characteristic
               else range(1, field.characteristic))
    row = st.dictionaries(st.sampled_from(words),
                          st.sampled_from(scalars).map(field), max_size=5)
    rows = data.draw(st.lists(row, max_size=12))
    pivots = _echelon(algebra, rows)
    lead = reference_echelon(field, words, rows)
    assert set(pivots) == set(lead)
    for lw, piv in pivots.items():
        assert piv[lw] == 1
        assert max(piv, key=algebra.order.key) == lw
        # each kept row lies in the span of the input
        assert len(reference_echelon(field, words, rows + [piv])) == len(lead)


def test_completion_builds_few_systems(monkeypatch):
    built = {"automata": 0, "systems": 0, "normal_form": 0}

    def counting(cls, name, counter):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            built[counter] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(anick.NormalWordAutomaton, "__init__", "automata")
    counting(RewriteSystem, "__init__", "systems")
    counting(RewriteSystem, "normal_form", "normal_form")
    pres = Presentation.load(PRESENTATIONS.parent / "perfbench" / "inputs"
                             / "xyz.json")
    done = complete(RewriteSystem.from_presentation(pres), 8)
    assert len(done.rules) == 31
    # rebuilding a system for every rule tested and every round made 523
    # automata and 3,063 normal-form calls; one rule added per round, with
    # a queue of the pairs that resolved, 29 automata and 1,169 calls
    assert built["automata"] == 6
    assert built["systems"] == 7
    assert built["normal_form"] == 192
