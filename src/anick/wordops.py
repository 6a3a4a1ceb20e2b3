"""Subword matching.

Words are tuples of letter indices. NormalWordAutomaton is the one
multi-pattern matcher: normal forms, the chain graph (which the lift
walks), the ambiguity scan and the anti-chain checks all find pattern
occurrences through it. It also finds the overlaps of a word with the
patterns, the one rule behind the ambiguities, the chain-graph edges and
the prechains. walk_counts counts both accepted words and chains.
"""

from collections import defaultdict
from itertools import islice, repeat


def walk_counts(successors, start):
    """The number of walks from start of each length 0, 1, 2, ..., lazily,
    where successors[s] lists the targets of the edges out of s. Each
    length steps the count of walks ending at each state along its edges,
    so reading through length n costs n steps, whatever comes after."""
    ends = {start: 1}
    while True:
        yield sum(ends.values())
        nxt = defaultdict(int)
        for s, k in ends.items():
            for t in successors[s]:
                nxt[t] += k
        ends = nxt


class NormalWordAutomaton:
    """Aho-Corasick automaton (Aho and Corasick, CACM 18(6), 1975) over a
    list of patterns. It finds every pattern occurrence in a word in one
    pass, and accepts exactly the words that avoid every pattern.

    Pattern indices follow the list; duplicated and empty patterns keep
    their own indices. A letter that no pattern uses leads back to the
    root, so only language and the counts need the alphabet size.

    antichain is True when no pattern is a subword of a pattern at
    another index, a duplicate included: exactly when every state where
    a pattern ends is a leaf of the trie and only that one pattern ends
    there. A pattern inside another ends at a state on the other's trie
    path, before its leaf or at it, so the test reads each state once
    and needs no pairwise comparison. On an anti-chain, first_match
    stops at the first occurrence it completes.
    """

    def __init__(self, patterns):
        self.patterns = tuple(tuple(p) for p in patterns)
        self.lengths = tuple(map(len, self.patterns))
        self.longest = max(self.lengths, default=0)
        children = [{}]
        ends = [[]]
        through = [[]]  # (pattern, depth of s) for patterns going past s
        for k, pat in enumerate(self.patterns):
            s = 0
            for d, a in enumerate(pat):
                through[s].append((k, d))
                t = children[s].get(a)
                if t is None:
                    t = children[s][a] = len(children)
                    children.append({})
                    ends.append([])
                    through.append([])
                s = t
            ends[s].append(k)
        # goto[s] holds only the transitions not back to the root; out[s]
        # lists, sorted, the patterns ending at s or along its fail links;
        # fail[s] is the longest proper suffix of s that is a state.
        # Breadth-first order completes each fail target before its use.
        goto = [children[0]] + [None] * (len(children) - 1)
        out = [tuple(ends[0])] + [None] * (len(children) - 1)
        fail = [0] * len(children)
        queue = [(t, 0) for t in children[0].values()]
        for s, f in queue:
            fail[s] = f
            row = dict(goto[f])
            row.update(children[s])
            goto[s] = row
            out[s] = tuple(sorted(ends[s] + list(out[f])))
            queue.extend((t, goto[f].get(a, 0))
                         for a, t in children[s].items())
        self.goto = goto
        self.out = out
        self.fail = fail
        self.through = through
        self.antichain = all(not ks or (len(ks) == 1 and not kids)
                             for ks, kids in zip(out, children))

    def first_match(self, w):
        """Leftmost occurrence in w as (pos, pattern_index), ties toward the
        lowest index; (-1, -1) when nothing matches.

        On an anti-chain the first occurrence the scan completes is the
        answer, and the scan stops there: an occurrence that started
        earlier would end at or after it and so contain it. Otherwise the
        scan goes on while a later-ending occurrence could still start at
        or before the best one found."""
        goto, out = self.goto, self.out
        s = 0
        j = 0
        n = len(w)
        while not out[s]:
            if j == n:
                return (-1, -1)
            s = goto[s].get(w[j], 0)
            j += 1
        lengths = self.lengths
        if self.antichain:
            k = out[s][0]
            return (j - lengths[k], k)
        best = min((j - lengths[k], k) for k in out[s])
        # a later-ending occurrence can start at or before best only while
        # it ends within the longest pattern's length of that start
        stop = min(n, best[0] + self.longest)
        while j < stop:
            s = goto[s].get(w[j], 0)
            j += 1
            for k in out[s]:
                best = min(best, (j - lengths[k], k))
        return best

    def all_matches(self, w):
        """Every occurrence in w as (pos, pattern_index), sorted."""
        goto, out, lengths = self.goto, self.out, self.lengths
        found = [(0, k) for k in out[0]]
        s = 0
        for j, a in enumerate(w, 1):
            s = goto[s].get(a, 0)
            for k in out[s]:
                found.append((j - lengths[k], k))
        found.sort()
        return found

    def overlaps(self, w):
        """Every (pos, k, rest) with w[pos:] + rest == patterns[k], both
        parts nonempty. The state w leads to is its longest suffix that
        starts a pattern, and its fail links lead to the shorter ones."""
        s = 0
        for a in w:
            s = self.goto[s].get(a, 0)
        found = []
        while s:
            found += [(len(w) - d, k, self.patterns[k][d:])
                      for k, d in self.through[s]]
            s = self.fail[s]
        return found

    def accepts(self, w):
        """True when w contains no pattern."""
        return self.first_match(w)[0] < 0

    def nested_pairs(self):
        """Sorted (i, j) with i != j and pattern i a subword of pattern j.
        Empty exactly when antichain is True."""
        return sorted({(i, j) for j, w in enumerate(self.patterns)
                       for _, i in self.all_matches(w) if i != j})

    def _live_rows(self, n_letters):
        """Successor of each state on each letter, or -1 into a state where
        a pattern ends."""
        out = self.out
        return [[-1 if out[t] else t
                 for t in (row.get(a, 0) for a in range(n_letters))]
                for row in self.goto]

    def language(self, max_length, n_letters):
        """All accepted words over n_letters letters of length <= max_length,
        in ascending tuple order: a depth-first walk that pops the lowest
        letter first, each word before its extensions."""
        if self.out[0]:
            return []
        rows = self._live_rows(n_letters)
        out = []
        stack = [((), 0)]
        while stack:
            w, s = stack.pop()
            out.append(w)
            if len(w) < max_length:
                row = rows[s]
                for a in reversed(range(n_letters)):
                    t = row[a]
                    if t >= 0:
                        stack.append((w + (a,), t))
        return out

    def counts(self, max_length, n_letters):
        """Number of accepted words over n_letters letters of each length
        0..max_length."""
        return list(islice(self.iter_counts(n_letters), max_length + 1))

    def iter_counts(self, n_letters):
        """Number of accepted words over n_letters letters of each length
        0, 1, 2, ..., lazily: the walks from the root through states where
        no pattern ends."""
        if self.out[0]:
            return repeat(0)
        return walk_counts([[t for t in row if t >= 0]
                            for row in self._live_rows(n_letters)], 0)
