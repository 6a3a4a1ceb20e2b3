"""Obstructions, the chain graph, and the two equivalent chain
characterizations."""

import ast
import collections
import copy
import itertools
import pathlib
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anick
from anick import (Alphabet, Chain, FreeAlgebra, MonomialOrder,
                   ObstructionSet, Presentation, ResolutionEngine,
                   RewriteSystem, antichain_from_oim, bracket_prefix,
                   bracket_tail, build_chain_graph, complete, enumerate_chains,
                   enumerate_prechains, identity_chain, is_chain_top_down,
                   is_prechain, obstructions, oim_from_antichain,
                   words_up_to_weight)
from test_wordops import is_antichain, ref_find_subword

ROOT = pathlib.Path(__file__).resolve().parents[1]
XYZ = ROOT / "perfbench" / "inputs" / "xyz.json"

XY = Alphabet(["x", "y"])


@pytest.fixture(scope="module")
def running(running_presentation):
    rs = RewriteSystem.from_presentation(running_presentation)
    obs = obstructions(rs)
    graph = build_chain_graph(obs, running_presentation.algebra.alphabet)
    return running_presentation, obs, graph


# ---- obstruction sets ----

def test_obstruction_words(running):
    pres, obs, _ = running
    assert [pres.algebra.word_str(w) for w in obs.words] == ["xxx", "yxz", "xxyx"]


def test_obstruction_set_validation():
    with pytest.raises(ValueError):
        ObstructionSet([(0,)])
    with pytest.raises(anick.NotAnAntichain):
        ObstructionSet([(0, 1), (0, 1, 1)])
    obs = ObstructionSet([(1, 0), (0, 1), (0, 1)])
    assert obs == ObstructionSet([(0, 1), (1, 0)])
    assert obs != ObstructionSet([(0, 1)]) and obs != [(0, 1), (1, 0)]
    assert repr(obs) == "ObstructionSet([(0, 1), (1, 0)])"


# ---- ideal/anti-chain bijection ----

def poset_words(max_len):
    out = []
    for n in range(max_len + 1):
        out.extend(itertools.product(range(2), repeat=n))
    return out


def is_closed(poset, subset):
    sub = set(subset)
    for w in sub:
        for i in range(len(w) + 1):
            for j in range(i, len(w) + 1):
                if w[i:j] != w and w[i:j] not in sub:
                    return False
    return True


def test_bijection_exhaustive_two_letters():
    poset = poset_words(3)
    nonempty = [w for w in poset]
    antichains = []
    for bits in range(1 << len(nonempty)):
        sub = [w for k, w in enumerate(nonempty) if bits >> k & 1]
        if is_antichain(sub):
            antichains.append(frozenset(sub))
    ideals = [frozenset(s) for bits in range(1 << len(nonempty))
              for s in [[w for k, w in enumerate(nonempty) if bits >> k & 1]]
              if is_closed(poset, s)]
    assert len(antichains) == len(ideals)
    seen = set()
    for a in antichains:
        ideal = oim_from_antichain(poset, a)
        assert is_closed(poset, ideal)
        assert antichain_from_oim(poset, ideal) == a
        seen.add(ideal)
    assert seen == set(ideals)


def test_bijection_validation():
    poset = poset_words(2)
    with pytest.raises(anick.NotAnAntichain):
        oim_from_antichain(poset, [(0,), (0, 0)])
    with pytest.raises(anick.NotAnOim):
        antichain_from_oim(poset, [(0, 0)])  # xx without its subwords
    bad = [(), (0,), (0, 1)]  # xy without y
    with pytest.raises(anick.NotAnOim) as info:
        antichain_from_oim(poset, bad)
    w, u = map(ast.literal_eval, re.fullmatch(
        r"(.*) in the set but its subword (.*) is not",
        str(info.value)).groups())
    # the reported subword occurs in the reported word and is missing
    assert w in bad and u in poset and u not in bad
    assert ref_find_subword(w, u) is not None
    with pytest.raises(ValueError):
        oim_from_antichain(poset, [(0, 0, 0)])
    with pytest.raises(ValueError):
        antichain_from_oim(poset, [(1, 1, 1)])


def test_bijection_running_example(running):
    pres, obs, _ = running
    order = pres.algebra.order
    poset = anick.words_up_to_weight(pres.algebra.alphabet, order, 4)
    # the o.i.m. attached to the obstruction anti-chain is the normal-word set
    oim = oim_from_antichain(poset, obs.words)
    assert antichain_from_oim(poset, oim) == frozenset(obs.words)
    rs = RewriteSystem.from_presentation(pres)
    assert oim == set(rs.normal_words(4))


# ---- chain graph ----

def test_graph_nodes(running):
    pres, _, graph = running
    ws = pres.algebra.word_str
    assert [ws(n) for n in graph.nodes] == \
        ["1", "x", "y", "z", "xx", "xz", "yx", "xyx"]


def test_graph_edges(running):
    pres, _, graph = running
    ws = pres.algebra.word_str
    got = sorted((ws(s), ws(t), ws(wit) if wit else "")
                 for s in graph.nodes for t, wit in graph.edges[s])
    assert got == sorted([
        ("1", "x", ""), ("1", "y", ""), ("1", "z", ""),
        ("x", "xx", "xxx"), ("x", "xyx", "xxyx"),
        ("y", "xz", "yxz"),
        ("xx", "x", "xxx"), ("xx", "yx", "xxyx"),
        ("yx", "z", "yxz"), ("yx", "xx", "xxx"), ("yx", "xyx", "xxyx"),
        ("xyx", "z", "yxz"), ("xyx", "xx", "xxx"), ("xyx", "xyx", "xxyx"),
    ])


def test_graph_all_reachable(running):
    _, _, graph = running
    assert graph.reachable() == set(graph.nodes)


def test_graph_dot_output(running):
    _, _, graph = running
    dot = graph.to_dot()
    assert dot.startswith("digraph chain_graph {")
    assert '"x" -> "xyx" [label="xxyx"];' in dot
    assert dot.strip().endswith("}")


def test_graph_pruning():
    obs = ObstructionSet([XY.word("xxyy")])
    graph = build_chain_graph(obs, XY)
    assert [XY.word_str(n) for n in graph.nodes] == ["1", "x", "y", "yy", "xyy"]
    assert XY.word("yy") not in graph.reachable()
    assert '"yy"' not in graph.to_dot()
    assert [c.word for c in enumerate_chains(graph, 3, MonomialOrder(XY))] \
        == []


# ---- chain enumeration ----

def test_chain_census(running):
    pres, _, graph = running
    order = pres.algebra.order
    assert [len(enumerate_chains(graph, n, order)) for n in range(7)] == \
        [1, 3, 3, 5, 10, 20, 40]


def test_chain_words_golden(running):
    pres, _, graph = running
    ws = pres.algebra.word_str

    def words(n):
        return [ws(c.word) for c in enumerate_chains(graph, n,
                                                     pres.algebra.order)]

    assert words(0) == ["1"]
    assert words(1) == ["z", "y", "x"]
    assert words(2) == ["yxz", "xxx", "xxyx"]
    assert words(3) == ["xxxx", "xxyxz", "xxxyx", "xxyxxx", "xxyxxyx"]
    assert words(4) == ["xxxyxz", "xxxxxx", "xxyxxxx", "xxxyxxx", "xxxxxyx",
                        "xxyxxyxz", "xxyxxxyx", "xxxyxxyx", "xxyxxyxxx",
                        "xxyxxyxxyx"]


def test_chains_sorted_ascending(running):
    pres, _, graph = running
    key = pres.algebra.order.key
    for n in range(6):
        keys = [key(c.word)
                for c in enumerate_chains(graph, n, pres.algebra.order)]
        assert keys == sorted(keys)


def test_chain_structure(running):
    pres, obs, graph = running
    ws = pres.algebra.word_str
    order = pres.algebra.order
    by_word = {ws(c.word): c for c in enumerate_chains(graph, 3, order)}
    c = by_word["xxyxz"]
    assert c.degree == 3
    assert c.node == (2,)
    assert is_chain_top_down(c.word, 3, obs) == ((1, 3), (4, 5))
    # the node is the word after the previous span, spans are obstruction
    # occurrences, and the last span ends the word
    for c in enumerate_chains(graph, 4, order):
        starts, ends = is_chain_top_down(c.word, 4, obs)
        assert c.word[ends[-2]:] == c.node
        assert ends[-1] == len(c.word)
        for a, b in zip(starts, ends):
            assert c.word[a - 1:b] in {w for w in graph.obstructions.words}


def test_chain_has_no_dict():
    # slotted: tens of thousands of chains per degree stay small
    assert not hasattr(identity_chain(), "__dict__")


def test_identity_chain():
    c = identity_chain()
    assert c.degree == 0 and c.word == () and c.node == ()
    # the spans are not stored: is_chain_top_down reads them off the word
    assert Chain.__slots__ == ("degree", "word", "node")
    # chains compare field by field, are unhashable, and print their fields
    assert c == Chain(0, (), ()) and c != Chain(1, (0,), (0,))
    assert Chain(2, (0, 0), (0,)) != Chain(2, (0, 0), (0, 0))
    assert c != (0, (), ())
    with pytest.raises(TypeError):
        hash(c)
    assert repr(Chain(1, (0,), (0,))) == \
        "Chain(degree=1, word=(0,), node=(0,))"


# ---- bracket decomposition ----

def test_split_chain(running):
    # the largest proper prefix of a chain and the tail word after it
    pres, obs, graph = running
    ws = pres.algebra.word_str
    by_word = {ws(c.word): c
               for c in enumerate_chains(graph, 3, pres.algebra.order)}
    c = by_word["xxxyx"]
    prefix, tail = bracket_prefix(c, 2, obs), bracket_tail(c, 2, obs)
    assert ws(prefix.word) == "xxx" and prefix.degree == 2
    assert ws(tail) == "yx"
    c = by_word["xxxx"]
    prefix, tail = bracket_prefix(c, 2, obs), bracket_tail(c, 2, obs)
    assert ws(prefix.word) == "xxx" and ws(tail) == "x"


def test_bracket_prefixes(running):
    pres, obs, graph = running
    ws = pres.algebra.word_str
    c = {ws(ch.word): ch for ch in enumerate_chains(
        graph, 3, pres.algebra.order)}["xxyxz"]
    assert ws(bracket_prefix(c, 1, obs).word) == "x"
    assert ws(bracket_tail(c, 1, obs)) == "xyxz"
    assert bracket_prefix(c, 0, obs) == identity_chain()
    assert ws(bracket_tail(c, 0, obs)) == "xxyxz"
    assert bracket_prefix(c, 3, obs) == c
    assert bracket_tail(c, 3, obs) == ()
    with pytest.raises(ValueError):
        bracket_prefix(c, 4, obs)
    with pytest.raises(ValueError):
        bracket_prefix(identity_chain(), -1, obs)
    # a record whose word is not a chain of its degree has no spans
    with pytest.raises(ValueError, match="not a degree-3 chain"):
        bracket_prefix(Chain(3, c.word + (0,), c.node + (0,)), 2, obs)


def test_bracket_prefix_is_chain(running):
    # every prefix of a chain is itself a chain of lower degree
    pres, obs, graph = running
    order = pres.algebra.order
    by_word = [{c.word: c for c in enumerate_chains(graph, m, order)}
               for m in range(5)]
    for c in enumerate_chains(graph, 4, order):
        starts, ends = is_chain_top_down(c.word, 4, obs)
        for m in range(5):
            sub = bracket_prefix(c, m, obs)
            # the prefix's spans are the first m - 1 spans of the chain
            k = max(m - 1, 0)
            assert is_chain_top_down(sub.word, m, obs) == (starts[:k],
                                                            ends[:k])
            assert sub == by_word[m][sub.word]


# ---- top-down characterization ----

def test_prechain_degree_bounds(running):
    _, obs, _ = running
    assert is_prechain((), 0, obs)
    assert not is_prechain((0,), 0, obs)
    assert is_prechain((2,), 1, obs)
    assert not is_prechain((), 1, obs)
    assert not is_prechain((0, 0), 1, obs)
    assert not is_prechain((0,), -1, obs)


def test_prechain_not_chain(running):
    pres, obs, _ = running
    W = pres.algebra.alphabet.word
    # both admit placements, but not ones with minimal ends
    for s in ["xxxxx", "xxxxyx"]:
        assert is_prechain(W(s), 3, obs)
        assert is_chain_top_down(W(s), 3, obs) is None
    assert is_prechain(W("xxxx"), 3, obs)
    assert is_chain_top_down(W("xxxx"), 3, obs) == ((1, 2), (3, 4))
    # xxxxxy over {xxx, xy} has the spans 1-3, 3-5, 5-6, but the spans of
    # least end, 1-3 and 2-4, leave xy starting past the second's end
    xy = ObstructionSet([(0, 0, 0), (0, 1)])
    assert is_prechain((0, 0, 0, 0, 0, 1), 4, xy)
    assert is_chain_top_down((0, 0, 0, 0, 0, 1), 4, xy) is None


def test_top_down_placements(running):
    pres, obs, _ = running
    W = pres.algebra.alphabet.word
    assert is_chain_top_down(W("xxyxxyxz"), 4, obs) == ((1, 4, 6), (4, 7, 8))
    assert is_chain_top_down(W("xyz"), 2, obs) is None
    assert is_chain_top_down(W("x"), 1, obs) == ((), ())
    assert is_chain_top_down((), 0, obs) == ((), ())
    assert is_chain_top_down(W("x"), 0, obs) is None
    # an ObstructionSet merges duplicate words and refuses a list that is
    # not an anti-chain
    assert is_chain_top_down(
        (0, 0), 2, ObstructionSet([(0, 0), (0, 0)])) == ((1,), (2,))
    with pytest.raises(anick.NotAnAntichain):
        is_chain_top_down((0, 0, 1), 2, ObstructionSet([(0, 0), (0, 0, 1)]))


@pytest.mark.timed
def test_top_down_is_polynomial_in_the_degree():
    # xxx over one letter has one chain per degree, but its words hold
    # exponentially many full placements of the spans; the top-down check
    # reads the one placement off the level walk instead of listing them
    x = Alphabet(["x"])
    graph = build_chain_graph(ObstructionSet([(0, 0, 0)]), x)
    (c,) = enumerate_chains(graph, 40, MonomialOrder(x))
    t0 = time.perf_counter()
    placed = is_chain_top_down(c.word, 40, graph.obstructions)
    assert time.perf_counter() - t0 < 1.0
    # span m ends the m+1-chain, the one chain of that degree, and an
    # occurrence of xxx starts two letters before its end
    ends = tuple(len(enumerate_chains(graph, m, MonomialOrder(x))[0].word)
                 for m in range(2, 41))
    assert placed == (tuple(e - 2 for e in ends), ends)


def test_definitions_agree_small(running):
    pres, obs, graph = running
    for n in range(5):
        # each chain's node, against the part of its word past the
        # previous span of the top-down placement
        graph_side = {c.word: c.node
                      for c in enumerate_chains(graph, n, pres.algebra.order)
                      if len(c.word) <= 5}
        scan_side = {}
        for length in range(6):
            for w in itertools.product(range(3), repeat=length):
                placed = is_chain_top_down(w, n, obs)
                if placed is not None:
                    scan_side[w] = w[((0, 1) + placed[1])[-2]:]
        assert graph_side == scan_side


def test_enumerate_prechains(running):
    pres, obs, _ = running
    ws = pres.algebra.word_str
    got = sorted(ws(w) for w in enumerate_prechains(obs, 3))
    # degree-3 prechains are exactly the overlap ambiguity words
    assert got == ["xxxx", "xxxxx", "xxxxyx", "xxxyx", "xxyxxx", "xxyxxyx",
                   "xxyxz"]
    with pytest.raises(ValueError):
        enumerate_prechains(obs, 1)


def test_enumerate_prechains_matches_scan(running):
    _, obs, _ = running
    for n in (2, 3, 4):
        gen = {w for w in enumerate_prechains(obs, n) if len(w) <= 7}
        scan = {w for length in range(8)
                for w in itertools.product(range(3), repeat=length)
                if is_prechain(w, n, obs)}
        assert gen == scan


def test_chains_are_prechains(running):
    pres, obs, graph = running
    for n in range(2, 6):
        words = {c.word
                 for c in enumerate_chains(graph, n, pres.algebra.order)}
        assert words <= enumerate_prechains(obs, n)


# ---- Anick's Euler identity ----

def euler_product(graph, order, automaton, n_letters, max_weight):
    """N(t) * sum_n (-1)^n C_n(t) mod t^(max_weight + 1), as coefficients.

    N counts the normal words and C_n the degree-n chain words, both by
    weight, which is the length here: every letter weighs 1. The Anick
    resolution is exact, so the product is 1 (Anick 1986, Trans. AMS 296).
    """
    normal = automaton.counts(max_weight, n_letters)
    alternating = [0] * (max_weight + 1)
    for n in range(max_weight + 1):
        lengths = [len(c.word) for c in enumerate_chains(graph, n, order)]
        for k in lengths:
            if k <= max_weight:
                alternating[k] += (-1) ** n
        # an edge adds a nonempty node, so each degree outweighs the last
        if not lengths or min(lengths) >= max_weight:
            break
    return [sum(normal[i] * alternating[k - i] for i in range(k + 1))
            for k in range(max_weight + 1)]


@st.composite
def random_antichains(draw):
    """2 or 3 letters and an anti-chain of 1 to 4 words of length 2 to 4:
    the minimal words of a random list."""
    n = draw(st.integers(2, 3))
    words = set(draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=4).map(tuple),
        min_size=1, max_size=4)))
    return n, [w for w in words
               if not any(u != w and ref_find_subword(w, u) is not None
                          for u in words)]


@settings(max_examples=100, deadline=None)
@given(random_antichains(), st.integers(0, 8))
def test_euler_identity_random_antichains(system, max_weight):
    n, words = system
    obs = ObstructionSet(words)
    alphabet = Alphabet(["x", "y", "z"][:n])
    graph = build_chain_graph(obs, alphabet)
    assert euler_product(graph, MonomialOrder(alphabet), obs.automaton, n,
                         max_weight) == \
        [1] + [0] * max_weight


def test_euler_identity_xyz():
    pres = Presentation.load(XYZ)
    done = complete(RewriteSystem.from_presentation(pres), 8)
    graph = build_chain_graph(obstructions(done), pres.algebra.alphabet)
    assert euler_product(graph, pres.algebra.order, done.automaton(), 3,
                         6) == [1] + [0] * 6


@pytest.mark.parametrize("name", sorted(
    p.name for p in (ROOT / "presentations" / "groups").glob("*.json")))
def test_euler_identity_group_algebras(name):
    # the group files are confluent as written, with every letter of
    # weight 1; their normal words are finitely many, their chains are not
    pres = Presentation.load(ROOT / "presentations" / "groups" / name)
    rs = RewriteSystem.from_presentation(pres)
    assert set(pres.algebra.order.weights) == {1}
    graph = build_chain_graph(obstructions(rs), pres.algebra.alphabet)
    assert euler_product(graph, pres.algebra.order, rs.automaton(),
                         len(pres.algebra.alphabet), 8) == [1] + [0] * 8


# ---- weight runs give the order of key, on weighted alphabets too ----

@settings(max_examples=100, deadline=None)
@given(random_antichains(), st.data())
def test_weight_runs_sort_by_key(system, data):
    n, words = system
    alphabet = Alphabet(["x", "y", "z"][:n])
    order = MonomialOrder(alphabet, data.draw(
        st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    bound = data.draw(st.integers(0, 7))
    brute = [w for k in range(bound + 1)
             for w in itertools.product(range(n), repeat=k)
             if order.weight(w) <= bound]
    assert words_up_to_weight(alphabet, order, bound) == \
        sorted(brute, key=order.key)
    graph = build_chain_graph(ObstructionSet(words), alphabet)
    for degree in range(5):
        keys = [order.key(c.word)
                for c in enumerate_chains(graph, degree, order)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


@settings(max_examples=100, deadline=None)
@given(random_antichains(), st.data())
def test_normal_words_sort_by_weight_then_word(system, data):
    # a monomial system: its normal words are the words avoiding its
    # leading words, listed by weight and then alphabetically
    n, words = system
    alphabet = Alphabet(["x", "y", "z"][:n])
    weights = data.draw(st.sampled_from([(1, 1, 1), (2, 1, 3), (1, 2, 1)]))
    order = MonomialOrder(alphabet, weights[:n])
    algebra = FreeAlgebra(alphabet, order, anick.QQ)
    rs = RewriteSystem.from_presentation(
        Presentation(algebra, [algebra.poly({w: 1}) for w in words]))
    bound = data.draw(st.integers(0, 5))
    brute = [w for k in range(bound + 1)
             for w in itertools.product(range(n), repeat=k)
             if all(ref_find_subword(w, u) is None for u in words)]
    assert rs.normal_words(bound) == \
        sorted(brute, key=lambda w: (order.weight(w), w))


# ---- the overlap rule against the loops it replaced ----

def reference_edges(obs, nodes):
    """Edge s -> t, with its witness, for every pair of non-root nodes
    where st holds exactly one occurrence and that one is a suffix."""
    edges = {}
    for s in nodes[1:]:
        targets = []
        for t in nodes[1:]:
            ms = obs.automaton.all_matches(s + t)
            if len(ms) == 1:
                pos, k = ms[0]
                if pos + len(obs.words[k]) == len(s + t):
                    targets.append((t, obs.words[k]))
        edges[s] = tuple(targets)
    return edges


def reference_prechains(obs, n):
    """Degree-n prechain words by recursion over every placement: the
    next obstruction starts past the previous span's end, within the
    current span, and ends past it."""
    out = set()

    def rec(word, prev_b, cur_b, m):
        if m == n - 1:
            out.add(word)
            return
        for s in obs.words:
            for a in range(prev_b + 1, cur_b + 1):
                shared = cur_b - a + 1
                if shared < len(s) and word[a - 1:] == s[:shared]:
                    rec(word + s[shared:], cur_b, cur_b + len(s) - shared,
                        m + 1)

    for s in obs.words:
        rec(s, 1, len(s), 1)
    return out


@settings(max_examples=150, deadline=None)
@given(random_antichains())
# most rests extend a shorter rest of the same node and must be dropped:
# node x^k has the k rests x^j, j >= 30 - k, and keeps only the first;
# (xy)^3 and (yx)^3 keep 10 of their 30 rests
@example((1, [(0,) * 30]))
@example((2, [(0, 1) * 3, (1, 0) * 3]))
def test_graph_edges_match_reference(system):
    n, words = system
    obs = ObstructionSet(words)
    graph = build_chain_graph(obs, Alphabet(["x", "y", "z"][:n]))
    edges = reference_edges(obs, graph.nodes)
    assert {s: es for s, es in graph.edges.items() if s} == edges


@settings(max_examples=150, deadline=None)
@given(random_antichains(), st.integers(2, 6))
def test_prechains_match_reference(system, degree):
    _, words = system
    obs = ObstructionSet(words)
    assert enumerate_prechains(obs, degree) == reference_prechains(obs, degree)


@pytest.mark.timed
def test_prechains_are_polynomial_in_the_degree():
    # xxx has exponentially many placements of its 59 spans in degree 60,
    # but only 30 prechain words: a span adds one letter or two, and one
    # that adds one is followed by one that adds two
    obs = ObstructionSet([(0, 0, 0)])
    t0 = time.perf_counter()
    words = enumerate_prechains(obs, 60)
    assert time.perf_counter() - t0 < 1.0
    assert sorted(map(len, words)) == list(range(90, 120))


@pytest.mark.timed
def test_long_relation_builds_quickly():
    # one relation x^399 y: 401 graph nodes, each asking the automaton for
    # its overlaps instead of matching every pair of nodes
    pres = Presentation.from_json({"generators": ["x", "y"],
                                   "relations": ["x*" * 399 + "y"]})
    t0 = time.perf_counter()
    eng = ResolutionEngine.from_presentation(pres)
    assert len(eng.graph.nodes) == 401
    assert time.perf_counter() - t0 < 1.0


def test_graph_is_built_on_first_use():
    # normal words and the obstructions never read the chain graph
    pres = Presentation.load(XYZ)
    eng = ResolutionEngine.from_presentation(pres, complete_to=8)
    eng.rs.normal_words(3)
    assert len(eng.obstruction_set.words) == 31
    assert "graph" not in vars(eng) and "_walks" not in vars(eng)
    assert len(eng.chains(2)) == 31
    assert "graph" in vars(eng)


def test_graph_edges_match_reference_on_xyz():
    # larger than the anti-chains the strategy draws: 80 nodes, 837 edges
    pres = Presentation.load(XYZ)
    obs = obstructions(complete(RewriteSystem.from_presentation(pres), 8))
    graph = build_chain_graph(obs, pres.algebra.alphabet)
    assert len(graph.nodes) == 80
    assert sum(map(len, graph.edges.values())) == 837
    edges = reference_edges(obs, graph.nodes)
    assert {s: es for s, es in graph.edges.items() if s} == edges


# ---- what resolution terms keyed by chain position rely on ----

@settings(max_examples=100, deadline=None)
@given(random_antichains(), st.integers(1, 5))
def test_same_degree_chain_words_are_prefix_free(system, degree):
    # a resolution term (i, w) stands for the word chain word + w, so two
    # terms of one degree could share a word only if one chain word were a
    # proper prefix of another of the same degree
    n, words = system
    alphabet = Alphabet(["x", "y", "z"][:n])
    graph = build_chain_graph(ObstructionSet(words), alphabet)
    chain_words = {c.word for c in enumerate_chains(graph, degree,
                                                    MonomialOrder(alphabet))}
    for w in chain_words:
        assert not any(w[:k] in chain_words for k in range(len(w)))


@settings(max_examples=100, deadline=None)
@given(random_antichains())
def test_node_targets_are_prefix_free(system):
    # the targets of a node are its shortest overlap rests; enumerate_chains
    # walks them in descending order and relies on this to stay in order
    n, words = system
    graph = build_chain_graph(ObstructionSet(words),
                              Alphabet(["x", "y", "z"][:n]))
    for s, edges in graph.edges.items():
        targets = {t for t, _ in edges}
        for t in targets:
            assert not any(t[:k] in targets for k in range(len(t))), (s, t)


@settings(max_examples=100, deadline=None)
@given(random_antichains())
def test_chain_counts_match_enumeration(system):
    # the one walk counter behind both: chains as paths in the chain
    # graph, normal words as walks in the automaton
    n, words = system
    alphabet = Alphabet(["x", "y", "z"][:n])
    obs = ObstructionSet(words)
    graph = build_chain_graph(obs, alphabet)
    order = MonomialOrder(alphabet)
    assert graph.chain_counts(6) == [len(enumerate_chains(graph, d, order))
                                     for d in range(7)]
    lengths = collections.Counter(map(len, obs.automaton.language(6, n)))
    assert obs.automaton.counts(6, n) == [lengths[k] for k in range(7)]


@settings(max_examples=100, deadline=None)
@given(random_antichains(), st.data())
def test_engine_chains_grow_from_the_degree_below(system, data):
    # the engine grows each degree from the highest one it holds below;
    # asked in any order, it lists what a walk from the root lists, and
    # holds only the degrees asked for. A monomial system is confluent,
    # and its leading words are any anti-chain.
    n, words = system
    alphabet = Alphabet(["x", "y", "z"][:n])
    weights = data.draw(st.sampled_from([(1, 1, 1), (2, 1, 3), (1, 2, 1)]))
    order = MonomialOrder(alphabet, weights[:n])
    algebra = FreeAlgebra(alphabet, order, anick.QQ)
    eng = ResolutionEngine.from_presentation(
        Presentation(algebra, [algebra.poly({w: 1}) for w in words]))
    graph, obs = eng.graph, eng.obstruction_set
    assert_targets_in_walk_order(graph)
    asked = data.draw(st.permutations(range(7)))
    for k, degree in enumerate(asked):
        chains = eng.chains(degree)
        assert chains == enumerate_chains(graph, degree, order)
        assert len(chains) == graph.chain_counts(degree)[degree]
        for c in chains:
            assert is_chain_top_down(c.word, degree, obs) is not None
        assert set(eng._chains) == {-1, 0, *asked[:k + 1]}


def assert_targets_in_walk_order(graph):
    # every walk reads graph.targets: the targets of each node's edges, in
    # descending tuple order
    assert graph.targets.keys() == graph.edges.keys() == set(graph.nodes)
    for s, es in graph.edges.items():
        assert graph.targets[s] == tuple(sorted((t for t, _ in es),
                                                reverse=True)), s


@pytest.mark.parametrize("name", sorted(
    str(p.relative_to(ROOT / "presentations"))
    for p in (ROOT / "presentations").rglob("*.json")))
def test_targets_are_the_edges_in_walk_order(name):
    pres = Presentation.load(ROOT / "presentations" / name)
    rs = RewriteSystem.from_presentation(pres)
    if not rs.minimal or not anick.check_groebner(
            rs, rs.max_ambiguity_weight()).ok:
        rs = complete(rs, 8)
    assert_targets_in_walk_order(
        build_chain_graph(obstructions(rs), pres.algebra.alphabet))


def test_below_holds_chains_of_one_lower_degree():
    eng = ResolutionEngine.from_presentation(
        Presentation.load(ROOT / "presentations" / "s3_group.json"))
    graph, order = eng.graph, eng.order
    # below at the degree asked, above it, or of mixed degrees
    for degree, below in [(0, [identity_chain()]), (2, eng.chains(2)),
                          (2, eng.chains(3)),
                          (3, eng.chains(1) + eng.chains(2)),
                          (1, [Chain(1, (0,), (0,)), identity_chain()])]:
        with pytest.raises(ValueError, match="not of one degree under %d"
                           % degree):
            enumerate_chains(graph, degree, order, below)
    # chains of one lower degree, or none, are what below may hold
    assert enumerate_chains(graph, 3, order, eng.chains(1)) == eng.chains(3)
    assert enumerate_chains(graph, 3, order, eng.chains(1)[:1]) == \
        [c for c in eng.chains(3) if c.word[:1] == eng.chains(1)[0].word]
    assert enumerate_chains(graph, 1, order, []) == []
    assert enumerate_chains(graph, 4, order, []) == []


def test_chains_end_at_the_first_degree_without_any():
    # poly4 has chains in degrees 0..4 only; a chain's prefixes are
    # chains, so counting stops at degree 5 and every walk past it ends
    # there, however high the degree asked for
    eng = ResolutionEngine.from_presentation(
        Presentation.load(ROOT / "presentations" / "poly4.json"))
    assert eng.chains(10 ** 9) == []
    assert eng._counts == [1, 4, 6, 4, 1, 0]
    assert eng.chains(7) == [] and eng.chains(5) == []
    assert len(eng.chains(4)) == 1
    assert eng.chains(10 ** 8) == []
    assert enumerate_chains(eng.graph, 10 ** 9, eng.order) == []
    assert set(eng._chains) == {-1, 0, 4, 5, 7, 10 ** 8, 10 ** 9}


def test_chain_counts_far_out():
    # S3 has 2^(n-1) + 1 chains in degree n; the monomial algebra two
    s3 = ResolutionEngine.from_presentation(
        Presentation.load(ROOT / "presentations" / "s3_group.json"))
    assert s3.graph.chain_counts(40)[40] == 2 ** 39 + 1
    mono = ResolutionEngine.from_presentation(
        Presentation.load(ROOT / "presentations" / "monomial.json"))
    assert mono.graph.chain_counts(20000)[-3:] == [2, 2, 2]
    with pytest.raises(ValueError, match="negative degree"):
        mono.graph.chain_counts(-1)


def test_repeated_chain_word_is_caught(running):
    pres, _, graph = running
    order = MonomialOrder(pres.algebra.alphabet, [1, 2, 1])
    doctored = copy.copy(graph)
    # one target of x twice in a row: two degree-2 chains spell the same
    # word
    doctored.targets = dict(graph.targets)
    x = (0,)
    doctored.targets[x] = graph.targets[x][:1] + graph.targets[x]
    assert enumerate_chains(graph, 2, order)
    with pytest.raises(AssertionError, match="must be distinct"):
        enumerate_chains(doctored, 2, order)


def test_chain_walk_out_of_order_is_caught(running):
    pres, _, graph = running
    order = MonomialOrder(pres.algebra.alphabet, [1, 1, 2])
    doctored = copy.copy(graph)
    # xx also steps to y, a prefix of its target yx: its targets, still
    # in descending tuple order, are no longer a prefix code. No degree-4
    # run then holds one word twice in a row, so only the order of the
    # runs shows it
    doctored.targets = dict(graph.targets)
    xx = (0, 0)
    doctored.targets[xx] = tuple(sorted(graph.targets[xx] + ((1,),),
                                        reverse=True))
    assert enumerate_chains(graph, 4, order)
    with pytest.raises(AssertionError, match="must be distinct"):
        enumerate_chains(doctored, 4, order)
