"""Obstruction anti-chains, the order-ideal/anti-chain correspondence,
the chain graph, and chain enumeration along its paths."""

from itertools import islice
from operator import attrgetter, gt, itemgetter

from .errors import NotAnAntichain, NotAnOim, NotMinimal
from .free_algebra import weight_runs
from .groebner import require_long_leading_word
from .wordops import NormalWordAutomaton, walk_counts


class ObstructionSet:
    """Anti-chain of words under the subword order, each of length >= 2,
    with the automaton that finds their occurrences."""

    def __init__(self, words):
        ws = sorted({tuple(w) for w in words}, key=lambda w: (len(w), w))
        for w in ws:
            if len(w) < 2:
                raise ValueError("obstruction %r shorter than 2" % (w,))
        self.automaton = NormalWordAutomaton(ws)
        _check_antichain(self.automaton)
        self.words = self.automaton.patterns

    def __eq__(self, other):
        return isinstance(other, ObstructionSet) and other.words == self.words

    def __repr__(self):
        return "ObstructionSet(%r)" % (list(self.words),)


def _check_antichain(automaton):
    """Raise NotAnAntichain, naming the first nested pair, unless the
    automaton's patterns form an anti-chain."""
    if not automaton.antichain:
        i, j = automaton.nested_pairs()[0]
        words = automaton.patterns
        raise NotAnAntichain("%r is a subword of %r" % (words[i], words[j]))


def obstructions(rs):
    """Leading monomials of a minimal rewrite system as an ObstructionSet;
    InvalidPresentation names a rule, say one completion derived, whose
    leading word is shorter than 2."""
    for rule, lm in zip(rs.rules, rs.leading_words):
        require_long_leading_word(rs.algebra, rule, lm)
    if not rs.minimal:
        raise NotMinimal("rule leading monomials are not an anti-chain")
    return ObstructionSet(rs.leading_words)


def oim_from_antichain(poset, antichain):
    """Elements of the poset smaller than or incomparable to the anti-chain.

    The poset is a finite collection of words ordered by the subword
    relation. The result is the downward-closed set of words avoiding
    every anti-chain element.
    """
    universe = {tuple(w) for w in poset}
    front = {tuple(w) for w in antichain}
    if not front <= universe:
        raise ValueError("anti-chain not contained in the poset")
    automaton = NormalWordAutomaton(sorted(front, key=lambda w: (len(w), w)))
    _check_antichain(automaton)
    return frozenset(y for y in universe if automaton.accepts(y))


def antichain_from_oim(poset, oim):
    """Minimal elements of the complement of a downward-closed set."""
    universe = {tuple(w) for w in poset}
    ideal = {tuple(w) for w in oim}
    if not ideal <= universe:
        raise ValueError("set not contained in the poset")
    comp = NormalWordAutomaton(universe - ideal)
    for w in ideal:
        _, k = comp.first_match(w)
        if k >= 0:
            raise NotAnOim("%r in the set but its subword %r is not"
                           % (w, comp.patterns[k]))
    above = {j for _, j in comp.nested_pairs()}
    return frozenset(y for j, y in enumerate(comp.patterns) if j not in above)


class Chain:
    """A degree-n chain, as plain data.

    degree is n and word the chain word. node is the last node of the
    chain's path in the chain graph: the part of word after the previous
    obstruction span, the empty root for degree 0 and the letter itself
    for degree 1. d_n of the chain leads with [(n-1)-prefix | node]. The
    obstruction spans are not stored: is_chain_top_down reads them off
    the word. Chains compare field by field and are not hashable.
    """

    __slots__ = ("degree", "word", "node")

    def __init__(self, degree, word, node):
        self.degree = degree
        self.word = word
        self.node = node

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.degree, self.word, self.node)
                == (other.degree, other.word, other.node))

    def __repr__(self):
        return "Chain(degree=%r, word=%r, node=%r)" % (
            self.degree, self.word, self.node)


def identity_chain():
    return Chain(0, (), ())


def prefix_length(chain, m, obstruction_set):
    """Length of the word of the m-chain prefix of a chain of degree >= m:
    0, 1, or the end of the chain's obstruction span m - 1, read off
    is_chain_top_down."""
    n = chain.degree
    if not 0 <= m <= n:
        raise ValueError("no %d-chain prefix of a degree-%d chain" % (m, n))
    placed = is_chain_top_down(chain.word, n, obstruction_set)
    if placed is None:
        raise ValueError("%r is not a degree-%d chain" % (chain.word, n))
    return ((0, 1) + placed[1])[m]


def bracket_prefix(chain, m, obstruction_set):
    """The m-chain prefix of a chain of degree >= m."""
    end = prefix_length(chain, m, obstruction_set)
    start = prefix_length(chain, m - 1, obstruction_set) if m else 0
    return Chain(m, chain.word[:end], chain.word[start:end])


def bracket_tail(chain, m, obstruction_set):
    """The leftover word after the m-chain prefix."""
    return chain.word[prefix_length(chain, m, obstruction_set):]


class ChainGraph:
    """Directed graph whose length-n paths from the root spell the
    degree-n chains, built from an ObstructionSet and the alphabet.

    Nodes: the root (empty word), the letters, and every proper suffix of
    an obstruction. Edge s -> t exists when st contains exactly one
    obstruction occurrence and that occurrence is a suffix of st; the
    occurrence is stored as the edge witness. Equivalently, t is a
    shortest overlap rest of s: no other overlap rest of s is a proper
    prefix of t. No node holds an obstruction, and no two occurrences
    end at one position, so a second one in st starts in s and ends
    inside t, at a shorter rest. Prechains follow every overlap rest and
    chains the shortest ones.

    One sorted scan finds them. In tuple order a rest comes after its
    prefixes, and every rest between a prefix p and a rest that extends
    p starts with p too. So a rest has a proper prefix among the rests
    exactly when the last rest kept before it is one, and the scan keeps
    a rest unless that kept rest is its prefix.

    edges maps each node to its (target, witness) pairs, sorted as the
    nodes are; the witness of a root edge is None. targets maps each node
    to its targets alone, in walk order, descending tuple order: every
    walk over the graph reads them, and only listings of the edges read
    edges. Both come from the one kept list, targets reversed and edges
    stably sorted by length.
    """

    def __init__(self, obstruction_set, alphabet):
        self.obstructions = obstruction_set
        self.alphabet = alphabet
        automaton = obstruction_set.automaton
        obs = obstruction_set.words
        letters = tuple((i,) for i in range(len(alphabet)))
        nodes = set(letters)
        nodes.update(w[k:] for w in obs for k in range(1, len(w)))
        self.nodes = ((),) + tuple(sorted(nodes, key=lambda w: (len(w), w)))
        self.edges = {(): tuple((t, None) for t in letters)}
        self.targets = {(): letters[::-1]}
        for s in self.nodes[1:]:
            kept = []
            for _, k, t in sorted(automaton.overlaps(s), key=itemgetter(2)):
                if not kept or t[:len(kept[-1][0])] != kept[-1][0]:
                    kept.append((t, obs[k]))
            self.targets[s] = tuple(t for t, _ in reversed(kept))
            self.edges[s] = tuple(sorted(kept, key=lambda e: len(e[0])))

    def chain_counts(self, degree):
        """The number of chains of each degree 0..degree."""
        if degree < 0:
            raise ValueError("negative degree")
        return list(islice(self.iter_chain_counts(), degree + 1))

    def iter_chain_counts(self):
        """The number of chains of each degree 0, 1, 2, ..., lazily: the
        paths from the root, counted without listing them."""
        return walk_counts(self.targets, ())

    def reachable(self):
        """Nodes reachable from the root."""
        seen = {()}
        stack = [()]
        while stack:
            s = stack.pop()
            for t in self.targets[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def to_dot(self):
        """GraphViz text of the nodes reachable from the root and the
        edges between them."""
        seen = self.reachable()
        keep = [v for v in self.nodes if v in seen]
        label = self.alphabet.word_str
        lines = ["digraph chain_graph {"]
        lines += ['  "%s";' % label(v) for v in keep]
        # every target of a reachable node is reachable
        for v in keep:
            for t, wit in self.edges[v]:
                attr = "" if wit is None else ' [label="%s"]' % label(wit)
                lines.append('  "%s" -> "%s"%s;' % (label(v), label(t), attr))
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_chain_graph(obstruction_set, alphabet):
    return ChainGraph(obstruction_set, alphabet)


def enumerate_chains(graph, degree, order, below=None):
    """The chains of the given degree, ascending by order, the monomial
    order of the presentation the graph was built from: the paths of that
    length from the root, or all extensions of below, chains of one degree
    m < degree; ValueError otherwise. A walk over (word, node) pairs,
    where the edge node -> t extends word by t, along graph.targets; only
    its last step builds Chain records. A chain's prefixes are chains, so
    a walk whose level empties has no chains in any later degree either,
    and it returns [] at once.

    The result needs no sort. The chain words of a degree form a prefix
    code, and so do the targets of a node, so extending the words of a
    descending level in turn, each by its node's targets in descending
    order, keeps the level descending; weight_runs joins its weight runs."""
    if degree < 0:
        raise ValueError("negative degree")
    if below is None:
        below = [identity_chain()]
        if degree == 0:
            return below
    degrees = {c.degree for c in below}
    if len(degrees) > 1 or max(degrees, default=-1) >= degree:
        raise ValueError("below holds chains of degrees %s, not of one "
                         "degree under %d" % (sorted(degrees), degree))
    targets = graph.targets
    word_of = attrgetter("word")
    # below ascends by order: its weight runs each descend, so this merges
    level = [(c.word, c.node)
             for c in sorted(below, key=word_of, reverse=True)]
    # an empty below has no degree, and any will do: its walk ends at once
    for _ in range(degree - 1 - max(degrees, default=0)):
        if not level:
            return []
        level = [(word + t, t) for word, node in level
                 for t in targets[node]]
    out = [Chain(degree, word + t, t) for word, node in level
           for t in targets[node]]
    chains = []
    for run in weight_runs(out, map(order.weight, map(word_of, out))):
        # fails on a repeated word, and on a walk that left its order
        assert all(map(gt, map(word_of, run), map(word_of, run[1:]))), \
            "chain words of one weight must be distinct and descending"
        chains += run
    return chains


def _occurrences(word, obstruction_set):
    """1-indexed (start, end) spans of obstruction occurrences, in order."""
    automaton = obstruction_set.automaton
    return [(pos + 1, pos + automaton.lengths[k])
            for pos, k in automaton.all_matches(word)]


def _placement_pairs(occs, n):
    """Reachable (previous end, current end) pairs after placing m = 1..n
    overlapping obstructions, first one anchored at position 1."""
    levels = []
    cur = {(1, b) for a, b in occs if a == 1}
    levels.append(cur)
    for _ in range(1, n):
        nxt = set()
        for prev_b, b in cur:
            for a2, b2 in occs:
                if prev_b < a2 <= b and b2 > b:
                    nxt.add((b, b2))
        levels.append(nxt)
        cur = nxt
    return levels


def is_prechain(word, n, obstruction_set):
    """True when word is a degree-n prechain of an ObstructionSet.

    Degree 0 is the empty word and degree 1 a single letter; for n >= 2
    the word must be covered by n - 1 overlapping obstruction placements
    satisfying the prechain inequalities.
    """
    if n < 0:
        return False
    word = tuple(word)
    if n <= 1:
        return len(word) == n
    occs = _occurrences(word, obstruction_set)
    levels = _placement_pairs(occs, n - 1)
    return any(b == len(word) for _, b in levels[n - 2])


def is_chain_top_down(word, n, obstruction_set):
    """Validate the chain property of a degree-n word over an
    ObstructionSet directly from the definition, without the graph.

    Returns the (starts, ends) obstruction placement when word is an
    n-chain (empty tuples for n <= 1), else None. No span of a chain
    could have ended earlier, so span m ends at the least end that level
    m of is_prechain's level walk reaches, and starts where the one
    occurrence ending there does; the spans must then meet the prechain
    inequalities, and the last one must end the word.
    """
    if n < 0:
        raise ValueError("chain degree must be nonnegative")
    word = tuple(word)
    if n <= 1:
        return ((), ()) if len(word) == n else None
    occs = _occurrences(word, obstruction_set)
    # in an anti-chain no two occurrences end at one position
    start_of = {b: a for a, b in occs}
    starts, ends = [], [0, 1]  # sentinels: span 1 starts at 1, span 2 past 1
    for level in _placement_pairs(occs, n - 1):
        if not level:
            return None
        end = min(b for _, b in level)
        start = start_of[end]
        if not ends[-2] < start <= ends[-1] < end:
            return None
        starts.append(start)
        ends.append(end)
    if ends[-1] != len(word):
        return None
    return tuple(starts), tuple(ends[2:])


def enumerate_prechains(obstruction_set, n):
    """Degree-n prechain words of an ObstructionSet: a level walk over
    (word, node) states, node the part of word past the previous span,
    stepping over each overlap of the node to (word + rest, rest).
    Superset of the degree-n chain words. Needs n >= 2; lower degrees do
    not involve obstructions at all."""
    if n < 2:
        raise ValueError("prechain generation needs degree >= 2")
    overlaps = obstruction_set.automaton.overlaps
    level = {(o, o[1:]) for o in obstruction_set.words}
    for _ in range(n - 2):
        level = {(word + t, t) for word, node in level
                 for _, _, t in overlaps(node)}
    return {word for word, _ in level}
