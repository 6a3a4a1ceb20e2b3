"""Free right-module elements over the chain bases, the differentials of
the resolution, and the contracting homotopy that defines them."""

import time
from functools import cached_property

from .chains import ChainGraph, enumerate_chains, identity_chain, obstructions
from .errors import (NonTermination, NotGroebner, NotInKernel, ZeroElement,
                     require_listable)
from .free_algebra import LinearCombination, axpy, format_signed_sum
from .groebner import RewriteSystem, check_groebner, complete


class ModuleElement(LinearCombination):
    """Finite combination of basis elements chain (x) normal word of one
    homological degree.

    terms maps the pair (i, normal word) to a nonzero coefficient, where i
    is the position of the chain in engine.chains(degree); k in degree -1
    has the one term (0, ()). field is the engine's field, without a
    default so that no element over GF(p) falls back to the rationals.
    """

    __slots__ = ("degree", "field")

    def __init__(self, degree, terms, field):
        self.degree = degree
        self.terms = terms
        self.field = field

    def _new(self, terms):
        return ModuleElement(self.degree, terms, self.field)

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def _plus(self, other, c):
        if self.degree != other.degree:
            raise ValueError("degree mismatch %d vs %d"
                             % (self.degree, other.degree))
        return super()._plus(other, c)

    def __repr__(self):
        return "<module element deg %d, %d terms>" % (self.degree,
                                                      len(self.terms))


class _KeyMemo(dict):
    """term -> keyf(term), computed on first lookup."""

    __slots__ = ("keyf",)

    def __init__(self, keyf):
        super().__init__()
        self.keyf = keyf

    def __missing__(self, term):
        k = self[term] = self.keyf(term)
        return k


class DegreeReport:
    """One row of verify_complex: whether d_{n-1} d_n vanished on all the
    chains of a degree, and how long the check took."""

    def __init__(self, degree, chains, ok, seconds):
        self.degree = degree
        self.chains = chains
        self.ok = ok
        self.seconds = seconds


class ResolutionEngine:
    """Computes differentials d_n and contracting homotopies i_n over the
    chain bases of a verified minimal rewrite system. Each lift step
    follows one edge of the chain graph, the edges enumerate_chains walks.

    Differentials are cached one whole degree at a time, in ascending
    degree order. The lifts that build one degree share one step table
    and no other memo: each term's order key and lift step are worked out
    once per degree build, the same keys check each tail against its
    chain word, and the table is dropped when the degree is built. The
    homotopy is recomputed on every call, with a fresh table, so it
    works out each key and step again. Repeated runs produce identical
    orderings and cache contents.
    """

    def __init__(self, presentation, rewrite_system):
        self.presentation = presentation
        self.rs = rewrite_system
        self.algebra = presentation.algebra
        self.order = self.algebra.order
        self.field = self.algebra.field
        self.p = self.field.characteristic
        self.obstruction_set = obstructions(rewrite_system)
        # degree -> _basis(degree); k in degree -1 has the identity chain
        self._chains = {-1: [identity_chain()], 0: [identity_chain()]}
        self._counts = []  # chain counts of degrees 0, 1, ... read so far
        self._positions = {}  # degree -> {chain word: position}
        # _d[n] lists d_n over chains(n); d_0 sends [1 | 1] to k's unit
        self._d = [[ModuleElement(-1, {(0, ()): self.field.one}, self.field)]]

    @classmethod
    def from_presentation(cls, pres, complete_to=None):
        """Build the engine after verifying (or completing) the relations.

        With complete_to None the relations are checked for confluence to
        rs.max_ambiguity_weight(), which no ambiguity outweighs, so the
        check covers every ambiguity. With an int they are completed to
        max(complete_to, rs.max_rule_weight()) instead.
        """
        rs = RewriteSystem.from_presentation(pres)
        if complete_to is not None:
            rs = complete(rs, max(complete_to, rs.max_rule_weight()))
        else:
            report = check_groebner(rs, rs.max_ambiguity_weight())
            if not report.ok:
                word = pres.algebra.word_str(report.counterexample)
                raise NotGroebner(
                    "relations are not confluent: ambiguity %s reduces to "
                    "%s and %s" % (word,
                                   pres.algebra.format(report.branches[0]),
                                   pres.algebra.format(report.branches[1])))
        return cls(pres, rs)

    # ---- chain bookkeeping ----

    @cached_property
    def graph(self):
        """The chain graph, built on first use."""
        return ChainGraph(self.obstruction_set, self.algebra.alphabet)

    @cached_property
    def _walks(self):
        return self.graph.iter_chain_counts()

    def chains(self, degree):
        """The chains of degree n >= 0, ascending; _basis lists them."""
        if degree < 0:
            raise ValueError("negative degree")
        return self._basis(degree)

    def _basis(self, degree):
        """The chains a term's position indexes in any degree >= -1:
        chains(degree), and the identity chain for k in degree -1. Only
        the degrees asked for are cached; each grows from the highest one
        cached below, once _require_listable passes."""
        cs = self._chains.get(degree)
        if cs is None:
            if degree < -1:
                raise ValueError("negative degree")
            self._require_listable(degree)
            below = degree - 1
            while below not in self._chains:
                below -= 1
            cs = self._chains[degree] = enumerate_chains(
                self.graph, degree, self.order, self._chains[below])
        return cs

    def _require_listable(self, degree):
        """Raise BoundExceeded, before any listing, for the first degree up
        to this one with more chains than the cap. One lazy counter serves
        every call, and no degree past one over the cap is counted."""
        counts = self._counts
        while len(counts) <= degree:
            if counts:
                require_listable(counts[-1],
                                 "degree-%d chains" % (len(counts) - 1))
            counts.append(next(self._walks))
        require_listable(counts[degree], "degree-%d chains" % degree)

    def _position(self, degree):
        """{chain word: position in _basis(degree)} over one degree."""
        pos = self._positions.get(degree)
        if pos is None:
            pos = self._positions[degree] = {
                c.word: i for i, c in enumerate(self._basis(degree))}
        return pos

    def _chain_position(self, degree, word):
        """Position of a chain word in _basis(degree); ValueError if none."""
        i = self._position(degree).get(word)
        if i is None:
            raise ValueError("%s is not a degree-%d chain"
                             % (self.algebra.word_str(word), degree))
        return i

    def chain_with_word(self, degree, word):
        i = self._position(degree).get(tuple(word))
        return None if i is None else self._basis(degree)[i]

    # ---- element constructors ----

    def zero(self, degree):
        return ModuleElement(degree, {}, self.field)

    def _word(self, word):
        """A word argument as letter indices; a string is parsed."""
        return self.algebra.word(word) if isinstance(word, str) else tuple(word)

    def element(self, degree, items):
        """Build from (chain, word, coeff) triples; words may be strings.

        Each triple is coeff * [chain | 1] acted on by word, as act does;
        the empty identity chain names k's one term in degree -1. A chain
        that is not of that degree raises ValueError.
        """
        out = {}
        for chain, word, coeff in items:
            i = self._chain_position(degree, chain.word)
            unit = ModuleElement(degree, {(i, ()): self.field.one}, self.field)
            self._act_into(out, unit, self._word(word), self.field(coeff))
        return ModuleElement(degree, out, self.field)

    def basis_element(self, degree, chain_word, word="1", coeff=1):
        i = self._chain_position(degree, self._word(chain_word))
        return self.element(degree, [(self._basis(degree)[i], word, coeff)])

    # ---- order on the tensor basis ----

    def basis_key(self, degree, term):
        """The order key of the word of a degree term: its chain word
        followed by its normal word."""
        i, word = term
        return self.order.key(self._basis(degree)[i].word + word)

    def _descending_key(self, degree):
        """term -> the descending key of its word, chain word + normal
        word, over the terms of one degree: the least sorts first and
        leads. No two terms of one degree share a word, since no chain
        word of a degree is a proper prefix of another."""
        cs = self._basis(degree)
        dk = self.order.descending_key
        return lambda term: dk(cs[term[0]].word + term[1])

    def module_lm(self, elem):
        """Leading (word, term, coeff) of a nonzero element; word is the
        chain word followed by the normal word of term."""
        if not elem.terms:
            raise ZeroElement("zero element has no leading term")
        keyf = self._descending_key(elem.degree)
        best = min(elem.terms, key=keyf)
        return keyf(best)[1], best, elem.terms[best]

    # ---- scalars ----

    def epsilon(self, elem):
        """Augmentation of a degree-0 element."""
        if elem.degree != 0:
            raise ValueError("epsilon applies to degree-0 elements")
        return self.field(sum(c * self.presentation.word_eval(w)
                              for (_, w), c in elem.terms.items()))

    # ---- module structure ----

    def act(self, elem, word):
        """Right action by word, a word string or letter indices: every
        normal-word factor is multiplied by word and renormalized, and k in
        degree -1 is scaled by the augmentation of word."""
        acc = self._act_into({}, elem, self._word(word), 1)
        return ModuleElement(elem.degree, acc, self.field)

    def _act_into(self, acc, elem, word, c):
        """acc += c * (elem acted on by word), in place; returns acc.

        The one right action: on [chain | w] by the normal form of w *
        word, on k in degree -1 by the augmentation of word. The loop body
        of axpy, run inline over the normal form of each term: the lift
        spends most of its time here. Through axpy it was slower (Python
        3.11, 2-core VM): one call per term took S3/Q d1-d11 from 0.094 to
        0.119 s and S3/GF(3) from 0.258 to 0.307 s, and one call on a
        flattened generator lost 5-13%, S3/Q d1-d13 going from 0.702 to
        0.797 s.
        """
        p = self.p
        if elem.degree == -1:
            c = c * self.presentation.word_eval(word)
            word = ()
        if not word:
            return axpy(acc, elem.terms.items(), c, p)
        if p:
            c %= p
        if not c:
            return acc
        nf = self.rs.normal_form_word
        get = acc.get
        for (i, w), m in elem.terms.items():
            cm = c * m
            for v, k in nf(w + word).terms.items():
                t = (i, v)
                k = cm * k
                old = get(t)
                if old is not None:
                    k = old + k
                    if p:
                        k %= p
                    if not k:
                        del acc[t]
                        continue
                elif p:
                    k %= p
                acc[t] = k
        return acc

    # ---- differentials ----

    def differential(self, chain):
        """d_n(chain (x) 1) for a degree-n chain of this engine, n >= 1,
        built with every other differential of its degree."""
        n = chain.degree
        if n < 1:
            raise ValueError("no differential below degree 1")
        i = self._chain_position(n, chain.word)
        return self._differentials(n)[i]

    def _differentials(self, n):
        """d_n over chains(n), position by position, n >= 0; every missing
        degree up to n is built whole, ascending, so that building d_n only
        reads the differentials of lower degrees and the call depth stays
        flat. Building one degree shares one step table, dropped once that
        degree is built."""
        ds = self._d
        while len(ds) <= n:
            table = self._lift_table(len(ds) - 2)
            ds.append([self._build_differential(c, table)
                       for c in self.chains(len(ds))])
        return ds[n]

    def _build_differential(self, chain, table):
        """d_n(c) = p (x) t - i_{n-2}(d_{n-1}(p (x) t)), where p (x) t splits c
        into its (n-1)-chain prefix and its node, the last node of its path
        in the chain graph; for n = 1 the prefix is the empty 0-chain, the
        node the letter, d_0 is the augmentation and i_{-1} the unit.
        table is the degree's lift step table. A tail term not below the
        chain word fails the lift's decrease guard, started at that word.
        """
        n = chain.degree
        cut = len(chain.word) - len(chain.node)
        lead = (self._position(n - 1)[chain.word[:cut]], chain.node)
        base = ModuleElement(n - 1, {lead: self.field.one}, self.field)
        try:
            lifted = self._lift(n - 2, self.apply_differential(base), table,
                                self.order.descending_key(chain.word))
        except NotInKernel as exc:  # d(base) is a boundary on confluent rules
            raise NotGroebner("rules are not confluent: the lift building "
                              "d%d(%s) stopped at %s" % (
                                  n, self.algebra.word_str(chain.word),
                                  exc.word)) from None
        result = base - lifted
        assert result.terms.get(lead) == self.field.one, \
            "leading coefficient drifted"
        return result

    def apply_differential(self, elem):
        """Extend d over a whole element by right-linearity. d_0 sends
        [1 | 1] to the unit of k, on which a word acts by its augmentation:
        so d_0 is the augmentation, into k in degree -1."""
        if elem.degree < 0:
            raise ValueError("no differential below degree 0")
        ds = self._differentials(elem.degree)
        out = {}
        for (i, w), c in elem.terms.items():
            self._act_into(out, ds[i], w, c)
        return ModuleElement(elem.degree - 1, out, self.field)

    # ---- contracting homotopy ----

    def homotopy(self, n, elem):
        """i_n: a right inverse of d_{n+1} on the kernel of d_n, n >= 0.

        The lift is the kernel test: it raises NotInKernel, naming the
        word where it stopped, when elem is not a d_n cycle.
        """
        if n < 0:
            raise ValueError("no homotopy below degree 0")
        if elem.degree != n:
            raise ValueError("degree mismatch")
        return self._lift(n, elem)

    def _lift_table(self, n):
        """A fresh step table for lifts from degree n: term -> its
        descending key, and term -> the out-term of the step that term
        leads. Both depend only on n and the term."""
        return _KeyMemo(self._descending_key(n)), {}

    def _lift(self, n, elem, table=None, prev_key=None):
        """i_n for n >= -1: x with d_{n+1}(x) = elem, when elem is a cycle.

        i_{-1} is the unit, 1 -> [1 | 1]. Otherwise peels the leading
        term, the one with the least descending key (the greatest word
        chain word + normal word), emits the out-term of its step along
        the chain graph, and subtracts that chain's image from the rest;
        the leading word strictly decreases, so its descending key
        strictly increases, and every term of the result is emitted once,
        with the word of its lead, so a prev_key the first lead must
        exceed bounds every word of the result. It finishes only on a
        boundary, and a step that finds no edge raises NotInKernel; only a
        broken differential trips the decrease guard or the 100,000-step
        cap (NonTermination).

        table is a _lift_table(n). Each term's key and step are worked out
        once per table and reused by every lift through it, so the terms
        of the results share the table's out-term tuples; without a table
        the call makes a fresh one.
        """
        if n == -1:
            return ModuleElement(0, dict(elem.terms), self.field)
        keys, steps = self._lift_table(n) if table is None else table
        keyf = keys.__getitem__
        d_upper = self._differentials(n + 1)
        out = {}
        work = dict(elem.terms)
        guard = 0
        while work:
            lead = min(work, key=keyf)
            lk = keyf(lead)
            coeff = work[lead]
            if prev_key is not None and not lk > prev_key:
                raise NonTermination(
                    "leading word %s failed to decrease"
                    % self.algebra.word_str(lk[1]))
            prev_key = lk
            step = steps.get(lead)
            if step is None:
                step = steps[lead] = self._lift_step(n, lead)
            out[step] = coeff
            j, tword = step
            self._act_into(work, d_upper[j], tword, -coeff)
            guard += 1
            if guard > 100000:
                raise NonTermination("iteration cap reached at degree %d" % n)
        return ModuleElement(n + 1, out, self.field)

    def _lift_step(self, n, term):
        """The out-term (j, tail) of the lift step led by the degree-n term
        (i, w): the out-edge of chain i's node in the chain graph whose
        target t starts w, an edge enumerate_chains walks, extends chain i
        to the degree n+1 chain j, and the tail is the rest of w; for n = 0
        it is the root's edge to the first letter. At most one edge fits:
        the targets are the node's shortest overlap rests (ChainGraph), so
        none is a proper prefix of another. Raises NotInKernel when none
        fits: on a cycle every leading term has a step."""
        i, w = term
        chain = self._basis(n)[i]
        for t, _ in self.graph.edges[chain.node]:
            if w[:len(t)] == t:
                return self._position(n + 1)[chain.word + t], w[len(t):]
        raise NotInKernel(self.algebra.word_str(chain.word + w))

    # ---- reports ----

    def verify_complex(self, max_degree):
        """Check d_{n-1} d_n = 0 on every basis chain up to max_degree."""
        if max_degree < 1:
            raise ValueError("nothing to verify below degree 1")
        self._require_listable(max_degree)
        rows = []
        for n in range(1, max_degree + 1):
            t0 = time.perf_counter()
            ok = True
            ds = self._differentials(n)
            for d in ds:
                if self.apply_differential(d):
                    ok = False
            rows.append(DegreeReport(n, len(ds), ok,
                                     time.perf_counter() - t0))
        return rows

    def minimality_diagnostic(self, max_degree):
        """Apply the augmentation to the module coordinates of each d_n.

        A nonzero entry at degree n certifies the resolution is not minimal
        there. Returns {degree: {"rows", "cols", "entries", "nonzero"}}:
        rows and cols are the words of the (n-1)- and n-chains, entries
        maps (row index, column index) to each nonzero value of eps(d_n),
        keyed in row-major order, and nonzero is bool(entries). The row
        index is the position i of each term (i, w) of d_n, the column
        index the position of the n-chain.
        """
        if max_degree < 1:
            raise ValueError("nothing to diagnose below degree 1")
        self._require_listable(max_degree)
        word_eval = self.presentation.word_eval
        out = {}
        for n in range(1, max_degree + 1):
            rows = self.chains(n - 1)
            cols = self.chains(n)
            entries = {}
            for j, d in enumerate(self._differentials(n)):
                vals = ((i, coeff * word_eval(w))
                        for (i, w), coeff in d.terms.items())
                axpy(entries, (((i, j), v) for i, v in vals if v), 1, self.p)
            out[n] = {"rows": [c.word for c in rows],
                      "cols": [c.word for c in cols],
                      "entries": dict(sorted(entries.items())),
                      "nonzero": bool(entries)}
        return out

    # ---- rendering ----

    def format_element(self, elem):
        """Render with terms descending: coeff·[chainword | normalword]."""
        ws = self.algebra.word_str
        one = self.field.one
        cs = self._basis(elem.degree)
        keyf = self._descending_key(elem.degree)

        def body(term, mag):
            text = "[%s | %s]" % (ws(cs[term[0]].word), ws(term[1]))
            return text if mag == one else "%s·%s" % (mag, text)
        terms = sorted(elem.terms.items(), key=lambda kv: keyf(kv[0]))
        return format_signed_sum(terms, body)
