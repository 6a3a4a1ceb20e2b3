"""The subword matchers agree with a brute-force slicing reference."""

import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from anick import NormalWordAutomaton


def ref_occurrences(w, patterns):
    """Every (pos, pattern_index) with w[pos:pos + len(u)] == u, sorted."""
    return sorted((i, k) for k, u in enumerate(patterns)
                  for i in range(len(w) - len(u) + 1)
                  if w[i:i + len(u)] == u)


def ref_find_subword(w, u):
    return next((i for i in range(len(w) - len(u) + 1)
                 if w[i:i + len(u)] == u), None)


def ref_overlaps(w, patterns):
    """Every (pos, k, rest) with w[pos:] + rest == patterns[k], both parts
    nonempty, sorted."""
    return sorted((pos, k, u[len(w) - pos:]) for k, u in enumerate(patterns)
                  for pos in range(len(w))
                  if len(w) - pos < len(u) and u[:len(w) - pos] == w[pos:])


def is_antichain(words):
    """No word of words occurs inside another one."""
    return all(ref_find_subword(w, u) is None
               for u in words for w in words if u != w)


def check_against_reference(w, pats):
    occ = ref_occurrences(w, pats)
    aut = NormalWordAutomaton(pats)
    assert aut.first_match(w) == (occ[0] if occ else (-1, -1))
    assert aut.all_matches(w) == occ
    assert aut.accepts(w) == (not occ)
    assert sorted(aut.overlaps(w)) == ref_overlaps(w, pats)
    assert aut.nested_pairs() == [
        (i, j) for i, u in enumerate(pats) for j, v in enumerate(pats)
        if i != j and ref_find_subword(v, u) is not None]


def test_first_match_basics():
    def g(w, pats):
        return NormalWordAutomaton(pats).first_match(w)

    pats = ((0, 0), (1, 0))
    assert g((0, 1, 0, 0), pats) == (1, 1)
    assert g((0, 0, 1, 0), pats) == (0, 0)
    assert g((1, 1, 1), pats) == (-1, -1)
    # same position: lowest pattern index
    assert g((0, 0), ((0, 0), (0,))) == (0, 0)
    assert g((0, 0), ((0,), (0, 0))) == (0, 0)
    # leftmost start, not the first occurrence to end
    assert g((0, 1, 2, 0), ((1, 2), (0, 1, 2, 0))) == (0, 1)
    # letters no pattern uses lead back to the root
    assert g((0, 7, 1, 0, 9), pats) == (2, 1)


def test_all_matches_basics():
    def h(w, pats):
        return NormalWordAutomaton(pats).all_matches(w)

    pats = ((0, 0),)
    assert h((0, 0, 0), pats) == [(0, 0), (1, 0)]
    assert h((1, 1), pats) == []
    assert h((0, 4, 0, 0), pats) == [(2, 0)]
    pats = ((0, 1), (1,))
    assert h((0, 1, 1), pats) == [(0, 0), (1, 1), (2, 1)]


def test_overlaps_basics():
    aut = NormalWordAutomaton(((0, 0, 0), (1, 0, 2), (0, 0, 1, 0)))
    assert sorted(aut.overlaps((0, 0))) == [
        (0, 0, (0,)), (0, 2, (1, 0)), (1, 0, (0, 0)), (1, 2, (0, 1, 0))]
    # a whole pattern is no overlap: the rest would be empty
    assert aut.overlaps((1, 0, 2)) == []
    assert aut.overlaps(()) == []
    assert aut.overlaps((2, 1)) == [(1, 1, (0, 2))]


def test_overlaps_of_a_long_pattern_allocate_little():
    # the automaton lists the patterns through each trie state, one entry
    # per pattern letter, and keeps no table keyed by pattern prefixes
    pattern = (0,) * 3999 + (1,)
    tracemalloc.start()
    try:
        aut = NormalWordAutomaton([pattern])
        assert aut.overlaps((0, 0)) == [(0, 0, pattern[2:]),
                                        (1, 0, pattern[1:])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_is_normal_basics():
    aut = NormalWordAutomaton(((0, 0), (1, 2)))
    assert aut.accepts((0, 1, 0))
    assert not aut.accepts((0, 0, 1))
    assert not aut.accepts((1, 2))
    assert aut.accepts(())
    assert aut.accepts((3, 0, 3, 0))


def random_word(rng, n_letters, max_len):
    return tuple(rng.randrange(n_letters) for _ in range(rng.randrange(max_len + 1)))


def test_random_words_match_reference():
    rng = random.Random(11)
    for _ in range(2000):
        n_letters = rng.choice([1, 2, 3, 5])
        # the word may use letters that no pattern does
        w = random_word(rng, n_letters + rng.randrange(3), 14)
        pats = tuple(random_word(rng, n_letters, 5) for _ in range(rng.randrange(4)))
        check_against_reference(w, pats)


def test_edge_cases_match_reference():
    cases = [
        ((), ()),
        ((), ((0,),)),
        ((0,), ()),
        ((0,), ((),)),
        ((0, 1, 0, 1, 0), ((0, 1), (1, 0))),
        ((0, 1, 0, 1, 0), ((0, 1), (0, 1), (1,), ())),
        ((2, 0, 1, 3, 0, 1, 2), ((0, 1), (1, 0), (0, 1, 0))),
        (tuple([0] * 50), ((0, 0, 0),)),
        (tuple(i % 3 for i in range(500)), ((2, 0, 1), (1, 2, 0, 1))),
    ]
    for w, pats in cases:
        check_against_reference(w, pats)


@st.composite
def nested_pattern_lists(draw):
    """Pattern lists over three letters, half of them anti-chains and half
    with patterns inside others, duplicates or the empty pattern, and a
    word made from them."""
    letters = st.integers(0, 2)
    pats = draw(st.lists(st.lists(letters, min_size=1, max_size=4).map(tuple),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        # the shortest patterns first, each kept unless one kept is in it
        kept = []
        for u in sorted(set(pats), key=len):
            if all(ref_find_subword(u, v) is None for v in kept):
                kept.append(u)
        return draw(st.permutations(kept)), draw(words_from(kept))
    base = list(pats)
    for _ in range(draw(st.integers(1, 3))):
        # a subword of a pattern, the pattern itself included, or the
        # empty pattern
        u = draw(st.sampled_from(base))
        i = draw(st.integers(0, len(u) - 1))
        j = draw(st.integers(i + 1, len(u)))
        if draw(st.integers(0, 3)) == 0:
            i = j
        pats.insert(draw(st.integers(0, len(pats))), u[i:j])
    return pats, draw(words_from(pats))


def words_from(pats):
    """Words joined from patterns and short runs of letters."""
    pieces = st.one_of(st.sampled_from(pats),
                       st.lists(st.integers(0, 2), max_size=3).map(tuple))
    return st.lists(pieces, max_size=4).map(
        lambda ps: tuple(a for p in ps for a in p))


@settings(max_examples=300, deadline=None)
@given(nested_pattern_lists())
def test_antichain_flag_and_first_match(case):
    # the flag read off the trie is the pairwise test, and on either side
    # of it first_match is the leftmost, lowest-index occurrence
    pats, w = case
    aut = NormalWordAutomaton(pats)
    assert aut.antichain == (not aut.nested_pairs())
    occ = ref_occurrences(w, pats)
    assert aut.first_match(w) == (occ[0] if occ else (-1, -1))
