"""Subword matching.

Words are tuples of letter indices. NormalWordAutomaton is the one
multi-pattern matcher: normal forms, the lift, the chain graph, the
ambiguity scan and the anti-chain checks all find pattern occurrences
through it.
"""


class NormalWordAutomaton:
    """Aho-Corasick automaton (Aho and Corasick, CACM 18(6), 1975) over a
    list of patterns. It finds every pattern occurrence in a word in one
    pass, and accepts exactly the words that avoid every pattern.

    Pattern indices follow the list; duplicated and empty patterns keep
    their own indices. A letter that no pattern uses leads back to the
    root, so only language and counts need the alphabet size.
    """

    def __init__(self, patterns):
        self.patterns = tuple(tuple(p) for p in patterns)
        self.lengths = tuple(map(len, self.patterns))
        self.longest = max(self.lengths, default=0)
        children = [{}]
        ends = [[]]
        for k, pat in enumerate(self.patterns):
            s = 0
            for a in pat:
                t = children[s].get(a)
                if t is None:
                    t = children[s][a] = len(children)
                    children.append({})
                    ends.append([])
                s = t
            ends[s].append(k)
        # goto[s] holds only the transitions not back to the root; out[s]
        # lists, sorted, the patterns ending at s or along its fail links.
        # Breadth-first order completes each fail target before its use.
        goto = [children[0]] + [None] * (len(children) - 1)
        out = [tuple(ends[0])] + [None] * (len(children) - 1)
        queue = [(t, 0) for t in children[0].values()]
        for s, fail in queue:
            row = dict(goto[fail])
            row.update(children[s])
            goto[s] = row
            out[s] = tuple(sorted(ends[s] + list(out[fail])))
            queue.extend((t, goto[fail].get(a, 0))
                         for a, t in children[s].items())
        self.goto = goto
        self.out = out

    def first_match(self, w):
        """Leftmost occurrence in w as (pos, pattern_index), ties toward the
        lowest index; (-1, -1) when nothing matches."""
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

    def accepts(self, w):
        """True when w contains no pattern."""
        return self.first_match(w)[0] < 0

    def nested_pairs(self):
        """Sorted (i, j) with i != j and pattern i a subword of pattern j.
        Empty exactly when the patterns form an anti-chain."""
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
        """All accepted words over n_letters letters of length <= max_length."""
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
                for a in range(n_letters):
                    t = row[a]
                    if t >= 0:
                        stack.append((w + (a,), t))
        return out

    def counts(self, max_length, n_letters):
        """Number of accepted words over n_letters letters of each length
        0..max_length, computed by stepping the count vector from the start
        state along the transitions."""
        if self.out[0]:
            return [0] * (max_length + 1)
        rows = self._live_rows(n_letters)
        vec = [0] * len(rows)
        vec[0] = 1
        out = [1]
        for _ in range(max_length):
            nxt = [0] * len(rows)
            for s, c in enumerate(vec):
                if c:
                    for t in rows[s]:
                        if t >= 0:
                            nxt[t] += c
            vec = nxt
            out.append(sum(vec))
        return out
