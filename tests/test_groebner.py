"""Rewriting systems: normal forms, confluence checking, completion,
and normal-word enumeration."""

import itertools
import json
import pathlib
import random

import pytest

import anick
from anick import (Alphabet, BoundExceeded, FreeAlgebra, InvalidPresentation,
                   Presentation, RewriteSystem, check_groebner, complete,
                   leading_monomials_oracle, overlaps)

PRESENTATIONS = pathlib.Path(__file__).resolve().parents[1] / "presentations"


def make_presentation(letters, relations, augmentation=None, field=anick.QQ):
    algebra = FreeAlgebra(Alphabet(letters), field=field)
    return Presentation(algebra, relations, augmentation)


# ---- presentation validation ----

def test_presentation_rejects_zero_relation():
    with pytest.raises(InvalidPresentation):
        make_presentation(["x", "y"], ["x*y - x*y"])


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
    got = [(ws(o.word), o.i, o.j, o.offset_i, o.offset_j)
           for o in overlaps(running_rs)]
    assert got == [
        ("xxxx", 1, 1, 1, 0),
        ("xxxxx", 1, 1, 2, 0),
        ("xxxyx", 0, 1, 1, 0),
        ("xxyxz", 2, 0, 2, 0),
        ("xxxxyx", 0, 1, 2, 0),
        ("xxyxxx", 1, 0, 3, 0),
        ("xxyxxyx", 0, 0, 3, 0),
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
    lead = leading_monomials_oracle(running_presentation, 5)
    normal = set(running_rs.normal_words(5))
    universe = set(anick.words_up_to_weight(running_presentation.algebra.alphabet,
                                            running_presentation.algebra.order, 5))
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
