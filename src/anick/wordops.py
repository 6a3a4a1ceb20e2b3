"""Word matching kernels.

Words are tuples of letter indices. These functions are the inner loops of
normal-form reduction and chain-graph construction.
"""


def find_subword(w, u):
    """Leftmost start index of u inside w, or -1. The empty word matches at 0."""
    m = len(u)
    if m == 0:
        return 0
    n = len(w)
    for i in range(n - m + 1):
        if w[i:i + m] == u:
            return i
    return -1


def subword_pair(words):
    """First (i, j) with i != j and words[i] a subword of words[j], or None.

    Entries are compared by index, so a word listed twice is a subword of
    its copy and the list is not an anti-chain.
    """
    for i, u in enumerate(words):
        for j, w in enumerate(words):
            if i != j and find_subword(w, u) >= 0:
                return (i, j)
    return None


def first_match(w, patterns):
    """Leftmost occurrence of any pattern in w as (pos, pattern_index).

    Ties at the same position break toward the lowest pattern index.
    Returns (-1, -1) when nothing matches.
    """
    n = len(w)
    for i in range(n + 1):
        for k, u in enumerate(patterns):
            m = len(u)
            if i + m <= n and w[i:i + m] == u:
                return (i, k)
    return (-1, -1)


def all_matches(w, patterns):
    """Every occurrence of every pattern in w as (pos, pattern_index) pairs.

    Sorted by position, then pattern index.
    """
    n = len(w)
    out = []
    for i in range(n + 1):
        for k, u in enumerate(patterns):
            m = len(u)
            if i + m <= n and w[i:i + m] == u:
                out.append((i, k))
    return out


def is_normal(w, patterns):
    """True when w contains no pattern as a subword."""
    return first_match(w, patterns) == (-1, -1)
