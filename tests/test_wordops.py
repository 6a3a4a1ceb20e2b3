"""The subword kernels agree with a brute-force slicing reference."""

import random

from anick import wordops


def ref_occurrences(w, patterns):
    """Every (pos, pattern_index) with w[pos:pos + len(u)] == u, sorted."""
    return sorted((i, k) for k, u in enumerate(patterns)
                  for i in range(len(w) - len(u) + 1)
                  if w[i:i + len(u)] == u)


def ref_find_subword(w, u):
    return next((i for i in range(len(w) - len(u) + 1)
                 if w[i:i + len(u)] == u), -1)


def check_against_reference(w, pats):
    occ = ref_occurrences(w, pats)
    for u in pats or ((),):
        assert wordops.find_subword(w, u) == ref_find_subword(w, u)
    assert wordops.first_match(w, pats) == (occ[0] if occ else (-1, -1))
    assert wordops.all_matches(w, pats) == occ
    assert wordops.is_normal(w, pats) == (not occ)


def test_find_subword_basics():
    f = wordops.find_subword
    assert f((0, 1, 0), (1, 0)) == 1
    assert f((0, 1, 0), (0,)) == 0
    assert f((0, 1, 0), (2,)) == -1
    assert f((0, 1, 0), ()) == 0
    assert f((), ()) == 0
    assert f((), (0,)) == -1
    assert f((0, 0), (0, 0, 0)) == -1
    # leftmost occurrence wins
    assert f((1, 0, 0, 0), (0, 0)) == 1


def test_first_match_basics():
    g = wordops.first_match
    pats = ((0, 0), (1, 0))
    assert g((0, 1, 0, 0), pats) == (1, 1)
    assert g((0, 0, 1, 0), pats) == (0, 0)
    assert g((1, 1, 1), pats) == (-1, -1)
    # same position: lowest pattern index
    assert g((0, 0), ((0, 0), (0,))) == (0, 0)
    assert g((0, 0), ((0,), (0, 0))) == (0, 0)


def test_all_matches_basics():
    h = wordops.all_matches
    pats = ((0, 0),)
    assert h((0, 0, 0), pats) == [(0, 0), (1, 0)]
    assert h((1, 1), pats) == []
    pats = ((0, 1), (1,))
    assert h((0, 1, 1), pats) == [(0, 0), (1, 1), (2, 1)]


def test_is_normal_basics():
    pats = ((0, 0), (1, 2))
    assert wordops.is_normal((0, 1, 0), pats)
    assert not wordops.is_normal((0, 0, 1), pats)
    assert not wordops.is_normal((1, 2), pats)
    assert wordops.is_normal((), pats)


def random_word(rng, n_letters, max_len):
    return tuple(rng.randrange(n_letters) for _ in range(rng.randrange(max_len + 1)))


def test_random_words_match_reference():
    rng = random.Random(11)
    for _ in range(2000):
        n_letters = rng.choice([1, 2, 3, 5])
        w = random_word(rng, n_letters, 14)
        pats = tuple(random_word(rng, n_letters, 5) for _ in range(rng.randrange(4)))
        check_against_reference(w, pats)


def test_edge_cases_match_reference():
    cases = [
        ((), ()),
        ((), ((0,),)),
        ((0,), ()),
        ((0,), ((),)),
        ((0, 1, 0, 1, 0), ((0, 1), (1, 0))),
        (tuple([0] * 50), ((0, 0, 0),)),
        (tuple(i % 3 for i in range(500)), ((2, 0, 1), (1, 2, 0, 1))),
    ]
    for w, pats in cases:
        check_against_reference(w, pats)
