"""Differentials, the contracting homotopy, and the complex itself."""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anick
from anick import (BoundExceeded, NonTermination, NotInKernel, Presentation,
                   ResolutionEngine, ZeroElement, bracket_prefix, bracket_tail,
                   enumerate_chains, identity_chain, is_chain_top_down)
from anick.chains import prefix_length
from anick.errors import MAX_ITEMS, require_listable
from anick.free_algebra import axpy
from anick.resolution import ModuleElement

PRESENTATIONS = pathlib.Path(__file__).resolve().parents[1] / "presentations"

D1_GOLDEN = {
    "z": "[1 | z]",
    "y": "[1 | y]",
    "x": "[1 | x]",
}

D2_GOLDEN = {
    "yxz": "[y | xz] - [y | x]",
    "xxx": "[x | xx] - [x | x]",
    "xxyx": "[x | xyx]",
}

D3_GOLDEN = {
    "xxxx": "[xxx | x]",
    "xxyxz": "[xxyx | z] - [xxyx | 1]",
    "xxxyx": "[xxx | yx] + [xxyx | 1]",
    "xxyxxx": "[xxyx | xx] - [xxyx | x]",
    "xxyxxyx": "[xxyx | xyx]",
}

D4_GOLDEN = {
    "xxxyxz": "[xxxyx | z] - [xxxyx | 1] - [xxyxz | 1]",
    "xxxxxx": "[xxxx | xx] - [xxxx | x]",
    "xxyxxxx": "[xxyxxx | x]",
    "xxxyxxx": "[xxxyx | xx] - [xxxyx | x] - [xxyxxx | 1]",
    "xxxxxyx": "[xxxx | xyx]",
    "xxyxxyxz": "[xxyxxyx | z] - [xxyxxyx | 1]",
    "xxyxxxyx": "[xxyxxx | yx] + [xxyxxyx | 1]",
    "xxxyxxyx": "[xxxyx | xyx] - [xxyxxyx | 1]",
    "xxyxxyxxx": "[xxyxxyx | xx] - [xxyxxyx | x]",
    "xxyxxyxxyx": "[xxyxxyx | xyx]",
}


def differentials(engine, degree):
    ws = engine.algebra.word_str
    return {ws(c.word): engine.format_element(engine.differential(c))
            for c in engine.chains(degree)}


def test_d1(running_engine):
    assert differentials(running_engine, 1) == D1_GOLDEN


def test_d2(running_engine):
    assert differentials(running_engine, 2) == D2_GOLDEN


def test_d3(running_engine):
    assert differentials(running_engine, 3) == D3_GOLDEN


def test_d4(running_engine):
    assert differentials(running_engine, 4) == D4_GOLDEN


def test_differential_shape(running_engine):
    # lead term is the bracket split with coefficient one, the rest smaller;
    # a term names its chain by position in the chains of its degree
    eng = running_engine
    for n in range(1, 6):
        for c in eng.chains(n):
            val = eng.differential(c)
            word, term, coeff = eng.module_lm(val)
            assert word == c.word
            assert coeff == eng.field.one
            obs = eng.obstruction_set
            prefix = bracket_prefix(c, n - 1, obs)
            tail = bracket_tail(c, n - 1, obs)
            assert term == (eng.chains(n - 1).index(prefix), tail)
            ckey = eng.order.key(c.word)
            for t in val.terms:
                assert t == term or eng.basis_key(n - 1, t) < ckey


def test_complex_is_exact_at_squares(running_engine):
    for report in running_engine.verify_complex(6):
        assert report.ok


def test_chain_census_via_engine(running_engine):
    assert [len(running_engine.chains(n)) for n in range(7)] == \
        [1, 3, 3, 5, 10, 20, 40]


# ---- element plumbing ----

def test_element_arithmetic(running_engine):
    eng = running_engine
    a = eng.basis_element(2, "xxx", "xx", 2)
    b = eng.basis_element(2, "yxz")
    z = a - b
    assert eng.format_element(z) == "2·[xxx | xx] - [yxz | 1]"
    assert z + b == a
    assert not (z - z)
    # the zero element is falsy, but it is no int
    assert eng.zero(2) != 0 and z - z == eng.zero(2)
    assert eng.format_element(eng.zero(2)) == "0"
    with pytest.raises(ZeroElement):
        eng.module_lm(eng.zero(2))
    with pytest.raises(ValueError):
        eng.basis_element(2, "xxxx")


def test_scale_takes_any_field_scalar(kernel_engines):
    # the scalar passes through the field: stored reduced, an int when it
    # is one, over Q and over GF(3)
    eng = kernel_engines["s3_group.json"]
    d = eng.differential(eng.chains(2)[0])
    assert d.scale("1/2") == d.scale(Fraction(1, 2))
    assert all(type(c) is int for c in d.scale(Fraction(4, 2)).terms.values())
    eng = kernel_engines["s3_group_gf3.json"]
    d = eng.differential(eng.chains(2)[0])
    half = d.scale(Fraction(1, 2))
    assert half == d.scale(2)
    assert all(type(c) is int and c in range(3) for c in half.terms.values())


def test_basis_order(running_engine):
    eng = running_engine
    a = eng.module_lm(eng.basis_element(2, "xxx", "x")
                      + eng.basis_element(2, "xxx", "1"))
    assert a[0] == eng.algebra.word("xxxx")
    t1 = next(iter(eng.basis_element(2, "xxx", "yx").terms))
    t2 = next(iter(eng.basis_element(2, "xxyx", "1").terms))
    words = [c.word for c in eng.chains(2)]
    assert t1 == (words.index(eng.algebra.word("xxx")), eng.algebra.word("yx"))
    assert t2 == (words.index(eng.algebra.word("xxyx")), ())
    # same weight, deglex on the concatenated word decides
    assert eng.basis_key(2, t1) > eng.basis_key(2, t2)


def test_act_renormalizes(running_engine):
    eng = running_engine
    e = eng.basis_element(1, "x", "xx")
    acted = eng.act(e, eng.algebra.word("x"))
    # xx * x reduces to xx in the quotient
    assert acted == eng.basis_element(1, "x", "xx")
    assert eng.act(e, ()) == e
    gone = eng.act(eng.basis_element(1, "x", "xxy"), eng.algebra.word("x"))
    assert not gone
    # a word string acts as its letter indices, as eng.element reads it
    d = eng.differential(eng.chains(2)[0])
    assert eng.act(d, "x") == eng.act(d, (0,))


def test_epsilon(running_engine, idempotent_presentation):
    eng = running_engine
    one = eng.chains(0)[0]
    z = eng.element(0, [(one, "1", 3), (one, "xy", 5)])
    assert eng.epsilon(z) == 3
    eng2 = ResolutionEngine.from_presentation(idempotent_presentation)
    z2 = eng2.element(0, [(eng2.chains(0)[0], "xx", 1)])
    assert eng2.epsilon(z2) == 1
    with pytest.raises(ValueError):
        eng.epsilon(eng.basis_element(1, "x"))


def test_element_needs_a_chain_of_its_degree(running_engine):
    eng = running_engine
    with pytest.raises(ValueError, match="not a degree-1 chain"):
        eng.element(1, [(eng.chains(2)[0], "1", 1)])
    with pytest.raises(ValueError, match="not a degree-2 chain"):
        eng.differential(anick.Chain(2, (0, 0), (0,)))


# ---- the splitting maps ----

@pytest.mark.parametrize("name", ["running_example.json",
                                  "s3_group_gf3.json", "skew_poly3.json"])
def test_d0_is_augmentation(name):
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / name))
    one = eng.chains(0)[0]
    z = eng.element(0, [(one, "1", 3)]
                    + [(one, w, 5) for w in eng.rs.normal_words(2)])
    assert eng.epsilon(z)
    assert eng.apply_differential(z) == eng.element(
        -1, [(one, "1", eng.epsilon(z))])
    with pytest.raises(ValueError, match="below degree 0"):
        eng.apply_differential(eng.apply_differential(z))


def test_element_takes_normal_forms(kernel_engines):
    # a triple is coeff * [chain | 1] acted on by its word: ss = 1 in S3,
    # and repeated terms combine
    eng = kernel_engines["s3_group.json"]
    c = eng.chains(1)[0]
    assert eng.element(1, [(c, "ss", 1)]) == eng.element(1, [(c, "1", 1)])
    assert eng.element(1, [(c, "t", 1), (c, "sst", 1)]) == \
        eng.element(1, [(c, "t", 2)])


def test_homotopy_of_zero_written_reducibly(kernel_engines):
    # [1 | ss] - [1 | 1] is the zero element, so its lift is zero
    eng = kernel_engines["s3_group.json"]
    one = eng.chains(0)[0]
    z = eng.element(0, [(one, "ss", 1), (one, "1", -1)])
    assert not z
    assert eng.homotopy(0, z) == eng.zero(1)


@pytest.mark.parametrize("name,word,eps", [("s3_group.json", "s", 1),
                                            ("s3_group.json", "tst", 1),
                                            ("running_example.json", "x", 0),
                                            ("running_example.json", "yx", 0)])
def test_words_act_on_k_by_augmentation(kernel_engines, name, word, eps):
    # k in degree -1 has the one basis term [1 | 1]; a word scales it
    eng = kernel_engines[name]
    unit = eng.element(-1, [(eng.chains(0)[0], "1", 1)])
    assert eng.act(unit.scale(3), word) == unit.scale(3 * eps)


def test_k_is_the_basis_of_degree_minus_one():
    # the identity chain is k's one basis element in degree -1: the chain
    # lookups take it, chains lists degrees >= 0, and below -1 is no basis
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / "s3_group.json"))
    one = identity_chain()
    assert eng.chain_with_word(-1, ()) == one
    k = eng.basis_element(-1, "1", "s", 3)
    assert k == eng.element(-1, [(one, "s", 3)])
    assert eng.format_element(k) == "3·[1 | 1]"
    for call in (lambda: eng.chains(-1),
                 lambda: eng.element(-2, [(one, "1", 1)]),
                 lambda: eng.basis_element(-2, "1")):
        with pytest.raises(ValueError, match="negative degree"):
            call()
    st = eng.algebra.word("st")
    for call, message in (
            (lambda: eng.element(1, [(eng.chains(2)[0], "1", 1)]),
             "tt is not a degree-1 chain"),
            (lambda: eng.basis_element(2, "s"), "s is not a degree-2 chain"),
            (lambda: eng.differential(anick.Chain(2, st, st[1:])),
             "st is not a degree-2 chain"),
            (lambda: eng.basis_element(-1, "s"),
             "s is not a degree -1 chain")):
        with pytest.raises(ValueError, match="^%s$" % message):
            call()
    assert len(eng._d) == 1  # differential looked up before building d_1


def test_i0(running_engine):
    eng = running_engine
    one = eng.chains(0)[0]
    z = eng.element(0, [(one, "x", 1)])
    assert eng.format_element(eng.homotopy(0, z)) == "[x | 1]"
    z = eng.element(0, [(one, "xy", 1)])
    assert eng.format_element(eng.homotopy(0, z)) == "[x | y]"
    with pytest.raises(NotInKernel):
        eng.homotopy(0, eng.element(0, [(one, "1", 1)]))


def test_i0_splits_d1(running_engine, idempotent_presentation):
    engines = [running_engine,
               ResolutionEngine.from_presentation(idempotent_presentation)]
    for eng in engines:
        one = eng.chains(0)[0]
        words = eng.rs.normal_words(4)
        for w in words:
            val = eng.presentation.word_eval(w)
            z = eng.element(0, [(one, w, 1), (one, (), -val)])
            if not z:
                continue
            assert eng.apply_differential(eng.homotopy(0, z)) == z


def test_homotopy_sections_image(running_engine):
    eng = running_engine
    for n in (2, 3, 4):
        for c in eng.chains(n):
            z = eng.differential(c)
            assert eng.homotopy(n - 1, z) == eng.element(n, [(c, "1", 1)])


def test_homotopy_golden(running_engine):
    eng = running_engine
    z = eng.basis_element(1, "x", "xx") - eng.basis_element(1, "x", "x")
    assert eng.format_element(eng.homotopy(1, z)) == "[xxx | 1]"
    z2 = eng.apply_differential(eng.basis_element(3, "xxyxz")
                                + eng.basis_element(3, "xxxx", "y", 3))
    assert eng.format_element(z2) == "3·[xxx | xy] + [xxyx | z] - [xxyx | 1]"
    lifted = eng.homotopy(2, z2)
    assert eng.format_element(lifted) == "3·[xxxx | y] + [xxyxz | 1]"
    assert eng.apply_differential(lifted) == z2


def test_homotopy_rejects_noncycles(running_engine):
    with pytest.raises(NotInKernel):
        running_engine.homotopy(1, running_engine.basis_element(1, "x", "x"))


@pytest.mark.parametrize("name", ["running_example.json",
                                  "s3_group_gf3.json"])
def test_homotopy_random_kernel(name):
    # over GF(3) this also exercises ModuleElement +, - and scale on
    # residues
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / name))
    rng = random.Random(23)
    for n in (1, 2, 3):
        upstairs = eng.chains(n + 1)
        normal = eng.rs.normal_words(3)
        for _ in range(30):
            z = eng.zero(n)
            for _ in range(rng.randrange(1, 4)):
                c = rng.choice(upstairs)
                w = rng.choice(normal)
                k = rng.randrange(-2, 3)
                z = z + eng.act(eng.differential(c), w).scale(eng.field(k))
            if not z:
                continue
            lifted = eng.homotopy(n, z)
            assert eng.apply_differential(lifted) == z
            # the lift preserves the leading word
            assert eng.module_lm(lifted)[0] == eng.module_lm(z)[0]


# ---- reference kernel: largest basis_key first, one axpy call per term ----

def reference_leading_term(terms, keyf):
    """The term of terms with the largest keyf, and that key."""
    best = best_key = None
    tie = False
    for t in terms:
        k = keyf(t)
        if best_key is None or k > best_key:
            best, best_key, tie = t, k, False
        elif k == best_key:
            tie = True
    assert not tie, "distinct basis terms share a word; basis order broken"
    return best, best_key


def reference_act_into(eng, acc, elem, word, c):
    """acc += c * (elem acted on by word), one axpy call per term."""
    if not word:
        return axpy(acc, elem.terms.items(), c, eng.p)
    nf = eng.rs.normal_form_word
    for (i, w), m in elem.terms.items():
        axpy(acc, (((i, v), k) for v, k in nf(w + word).terms.items()),
             c * m, eng.p)
    return acc


def reference_act(eng, elem, word):
    return ModuleElement(elem.degree,
                         reference_act_into(eng, {}, elem, tuple(word), 1),
                         eng.field)


def reference_step(eng, n, i, w):
    """The out-term (j, tail) of the lift step led by the degree-n term
    (i, w), found with the obstruction automaton: the first occurrence
    past the (n-1)-chain prefix of chain i must straddle the chain
    boundary, and the word up to its end is the degree n+1 chain j; for
    n = 0 that chain is the first letter."""
    chain = eng.chains(n)[i]
    word = chain.word + w
    if n == 0:
        end = 1  # the 1-chains are the letters
    else:
        automaton = eng.obstruction_set.automaton
        cut = prefix_length(chain, n - 1, eng.obstruction_set)
        pos, idx = automaton.first_match(word[cut:])
        if pos < 0:  # no obstruction occurrence
            raise NotInKernel(eng.algebra.word_str(word))
        start = cut + pos
        end = start + automaton.lengths[idx]
        if not (start < len(chain.word) < end):  # no straddle
            raise NotInKernel(eng.algebra.word_str(word))
    upper = {c.word: j for j, c in enumerate(eng.chains(n + 1))}
    j = upper.get(word[:end])
    if j is None:  # not a chain word
        raise NotInKernel(eng.algebra.word_str(word))
    return j, word[end:]


def reference_lift(eng, n, elem):
    """i_n on a cycle, n >= 0: the term with the largest basis_key first."""
    out = {}
    work = dict(elem.terms)
    prev_key = None
    guard = 0
    while work:
        (i, w), lk = reference_leading_term(
            work, lambda t: eng.basis_key(n, t))
        coeff = work[(i, w)]
        if prev_key is not None and not lk < prev_key:
            raise NonTermination("leading word failed to decrease")
        prev_key = lk
        j, tword = reference_step(eng, n, i, w)
        out[(j, tword)] = coeff
        reference_act_into(eng, work, eng.differential(eng.chains(n + 1)[j]),
                           tword, -coeff)
        guard += 1
        if guard > 100000:
            raise NonTermination("iteration cap reached")
    return ModuleElement(n + 1, out, eng.field)


KERNEL_FILES = ["s3_group.json", "s3_group_gf3.json", "running_example.json",
                "skew_poly3.json"]


@pytest.fixture(scope="module")
def kernel_engines():
    return {name: ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / name)) for name in KERNEL_FILES}


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def random_cycle(eng, n, data):
    """A random d_n cycle, built as in test_homotopy_random_kernel: a sum
    of up to three differentials of degree n+1 chains, each acted on by a
    normal word and scaled."""
    normal = eng.rs.normal_words(3)
    z = eng.zero(n)
    for _ in range(data.draw(st.integers(1, 3))):
        c = data.draw(st.sampled_from(eng.chains(n + 1)))
        w = data.draw(st.sampled_from(normal))
        k = data.draw(st.integers(-2, 2))
        z = z + reference_act(eng, eng.differential(c), w).scale(
            eng.field(k))
    return z


@pytest.mark.parametrize("name", KERNEL_FILES)
def test_lift_steps_match_reference(kernel_engines, name):
    # every step a lift from degrees 0..4 can take on a normal word of
    # length <= 3, along the chain graph against the automaton rule; the
    # steps outside the kernel must fail alike
    eng = kernel_engines[name]
    normal = eng.rs.normal_words(3)
    for n in range(5):
        for i in range(len(eng.chains(n))):
            for w in normal:
                assert outcome(eng._lift_step, n, (i, w)) == \
                    outcome(reference_step, eng, n, i, w)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(KERNEL_FILES), st.data())
def test_kernel_matches_reference(kernel_engines, name, data):
    eng = kernel_engines[name]
    n = data.draw(st.sampled_from([k for k in (1, 2, 3)
                                   if eng.chains(k + 1)]))
    normal = eng.rs.normal_words(3)
    z = random_cycle(eng, n, data)
    assert outcome(eng._lift, n, z) == outcome(reference_lift, eng, n, z)
    # one more basis term makes it, in general, no cycle; both lifts must
    # then fail alike
    extra = eng.element(n, [(data.draw(st.sampled_from(eng.chains(n))),
                             data.draw(st.sampled_from(normal)),
                             data.draw(st.integers(1, 2)))])
    broken = z + extra
    if eng.apply_differential(broken):
        got = outcome(eng._lift, n, broken)
        assert isinstance(got, type)
        assert got is outcome(reference_lift, eng, n, broken)
    # the right action, alone and accumulating into a nonzero element
    word = tuple(data.draw(st.lists(
        st.integers(0, len(eng.algebra.alphabet) - 1), max_size=3)))
    assert eng.act(broken, word) == reference_act(eng, broken, word)
    c = eng.field(data.draw(st.sampled_from([1, -1, 2, -3, 3])))
    assert eng._act_into(dict(z.terms), broken, word, c) == \
        reference_act_into(eng, dict(z.terms), broken, word, c)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(KERNEL_FILES), st.data())
def test_homotopy_is_the_kernel_test(kernel_engines, name, data):
    # homotopy runs no cycle check before its lift: the lift must refuse
    # exactly the non-cycles and lift every cycle to a preimage; for n = 0
    # the empty word of the extra term gives the [1 | 1] term of k
    eng = kernel_engines[name]
    n = data.draw(st.sampled_from([k for k in (0, 1, 2, 3)
                                   if eng.chains(k + 1)]))
    z = random_cycle(eng, n, data)
    if data.draw(st.booleans()):
        z = z + eng.element(n, [(
            data.draw(st.sampled_from(eng.chains(n))),
            data.draw(st.one_of(st.just(()),
                                st.sampled_from(eng.rs.normal_words(3)))),
            data.draw(st.integers(1, 2)))])
    if eng.apply_differential(z):
        with pytest.raises(NotInKernel):
            eng.homotopy(n, z)
    else:
        assert eng.apply_differential(eng.homotopy(n, z)) == z


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FILES), st.data())
def test_shared_lift_table_matches_reference(kernel_engines, name, data):
    # lifts through one table reuse the steps earlier lifts worked out, as
    # the lifts of one degree build do; a failed lift in between must
    # leave no step behind that a later lift would reuse
    eng = kernel_engines[name]
    n = data.draw(st.sampled_from([k for k in (1, 2, 3)
                                   if eng.chains(k + 1)]))
    table = eng._lift_table(n)
    cycles = [random_cycle(eng, n, data)
              for _ in range(data.draw(st.integers(2, 3)))]
    broken = cycles[0] + eng.element(
        n, [(data.draw(st.sampled_from(eng.chains(n))),
             data.draw(st.sampled_from(eng.rs.normal_words(3))), 1)])
    for k, z in enumerate(cycles):
        assert eng._lift(n, z, table) == reference_lift(eng, n, z)
        if k == 0 and eng.apply_differential(broken):
            got = outcome(eng._lift, n, broken, table)
            assert isinstance(got, type)
            assert got is outcome(reference_lift, eng, n, broken)
    for (i, w), (j, tword) in table[1].items():
        assert eng.chains(n + 1)[j].word + tword == eng.chains(n)[i].word + w


@pytest.mark.parametrize("name", KERNEL_FILES)
def test_degree_builds_match_reference(kernel_engines, name):
    # every differential of a degree, built whole through one shared step
    # table, against p (x) t - i_{n-2}(d_{n-1}(p) t) with the reference
    # lift; the lower differentials it reads were checked the same way
    eng = kernel_engines[name]
    for n in range(1, 6):
        for chain in eng.chains(n):
            cut = prefix_length(chain, n - 1, eng.obstruction_set)
            base = eng.basis_element(n - 1, chain.word[:cut],
                                     chain.word[cut:])
            if n == 1:
                # i_{-1} is the unit and d_0 the augmentation
                lifted = ModuleElement(
                    0, dict(eng.apply_differential(base).terms), eng.field)
            else:
                prefix = eng.chain_with_word(n - 1, chain.word[:cut])
                lifted = reference_lift(eng, n - 2, reference_act(
                    eng, eng.differential(prefix), chain.word[cut:]))
            assert eng.differential(chain) == base - lifted


def random_word(eng, data):
    """A random word of length <= 4, reducible ones included."""
    letters = range(len(eng.algebra.alphabet.letters))
    return tuple(data.draw(st.lists(st.sampled_from(letters), max_size=4)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_FILES), st.data())
def test_element_is_the_action_on_a_unit(kernel_engines, name, data):
    # element reads (c, w, a) as a * [c | 1] acted on by w, k included;
    # against the axpy reference above k, whose action is the normal form
    eng = kernel_engines[name]
    n = data.draw(st.integers(-1, 3))
    c = data.draw(st.sampled_from(eng._basis(n)))
    w = random_word(eng, data)
    a = data.draw(st.integers(-2, 2))
    unit = eng.element(n, [(c, "1", a)])
    got = eng.element(n, [(c, w, a)])
    assert got == eng.act(unit, w)
    if n >= 0:
        assert got == reference_act(eng, unit, w)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_FILES), st.data())
def test_d0_is_epsilon_times_unit(kernel_engines, name, data):
    # d_0 runs through the stored unit of k and the action on k
    eng = kernel_engines[name]
    one = eng.chains(0)[0]
    z = eng.element(0, [(one, random_word(eng, data),
                         data.draw(st.integers(-2, 2)))
                        for _ in range(data.draw(st.integers(0, 4)))])
    unit = ModuleElement(-1, {(0, ()): eng.field.one}, eng.field)
    assert eng.apply_differential(z) == unit.scale(eng.epsilon(z))


def doctored_engine(presentation, chain_word, extra, degree=2):
    """An engine whose cached d_degree of chain_word carries one extra
    term, extra = (chain word, normal word) of degree - 1."""
    eng = ResolutionEngine.from_presentation(presentation)
    chain = eng.chain_with_word(degree, eng.algebra.word(chain_word))
    cycle = eng.differential(chain)
    i = eng.chains(degree).index(chain)
    eng._differentials(degree)[i] = cycle + eng.basis_element(
        degree - 1, *extra)
    return eng, cycle


def test_lift_guards(running_presentation):
    # a term above the leading word left behind by the subtraction
    eng, cycle = doctored_engine(running_presentation, "xxx",
                                 ("x", "xxxxxx"))
    with pytest.raises(NonTermination, match="failed to decrease"):
        eng._lift(1, cycle)
    # a leading word with no obstruction past its chain
    with pytest.raises(NotInKernel, match="no obstruction occurrence"):
        eng._lift(1, eng.basis_element(1, "x", "x"))


def test_degree_build_guards_the_tail(running_presentation):
    # d_2(yxz)·xxyyx is a boundary, so the doctored d_2(xxx) stays a cycle,
    # but d_3(xxxx) would then lead with yxzxxyyxx, above the chain word
    eng = ResolutionEngine.from_presentation(running_presentation)
    chain = eng.chain_with_word(2, eng.algebra.word("xxx"))
    i = eng.chains(2).index(chain)
    boundary = eng.act(eng.differential(
        eng.chain_with_word(2, eng.algebra.word("yxz"))),
        eng.algebra.word("xxyyx"))
    eng._differentials(2)[i] = eng.differential(chain) + boundary
    with pytest.raises(NonTermination,
                       match="leading word yxzxxyyxx failed to decrease"):
        eng.differential(eng.chain_with_word(3, eng.algebra.word("xxxx")))


# ---- determinism ----

def test_two_engines_agree(running_presentation):
    a = ResolutionEngine.from_presentation(running_presentation)
    b = ResolutionEngine.from_presentation(running_presentation)
    for n in range(1, 5):
        assert differentials(a, n) == differentials(b, n)


def test_verify_complex_reports_failures(running_presentation):
    # [z | 1] added to d_2(xxx) is no cycle: d_1 d_2 != 0 at degree 2
    eng, _ = doctored_engine(running_presentation, "xxx", ("z", "1"))
    assert [(r.degree, r.chains, r.ok) for r in eng.verify_complex(2)] == [
        (1, 3, True), (2, 3, False)]
    # [1 | 1] added to d_1(x) survives the augmentation
    eng, _ = doctored_engine(running_presentation, "x", ("1", "1"), degree=1)
    assert [(r.degree, r.chains, r.ok) for r in eng.verify_complex(1)] == [
        (1, 3, False)]


def test_reports_need_degree_one(running_engine):
    with pytest.raises(ValueError, match="below degree 1"):
        running_engine.verify_complex(0)
    with pytest.raises(ValueError, match="below degree 1"):
        running_engine.minimality_diagnostic(-2)


# case -> (exception, message pattern, call on the running engine)
LIBRARY_ERRORS = {
    "chains(-1)": (ValueError, "negative degree", lambda eng: eng.chains(-1)),
    "enumerate_chains(-1)": (ValueError, "negative degree",
                             lambda eng: enumerate_chains(eng.graph, -1,
                                                          eng.order)),
    "is_chain_top_down(-1)": (ValueError, "nonnegative",
                              lambda eng: is_chain_top_down(
                                  eng.algebra.word("xxx"), -1,
                                  eng.obstruction_set)),
    "sum across degrees": (ValueError, "degree mismatch 1 vs 2",
                           lambda eng: eng.basis_element(1, "x")
                           + eng.basis_element(2, "xxx")),
    "homotopy of another degree": (ValueError, "degree mismatch",
                                   lambda eng: eng.homotopy(
                                       1, eng.basis_element(2, "xxx"))),
    "differential of the identity chain": (
        ValueError, "below degree 1",
        lambda eng: eng.differential(identity_chain())),
    "words_up_to_weight over another alphabet": (
        ValueError, "order alphabet mismatch",
        lambda eng: anick.words_up_to_weight(anick.Alphabet(["q"]),
                                             eng.order, 1)),
    "listing over the cap": (BoundExceeded, "exceed the cap",
                             lambda eng: require_listable(MAX_ITEMS + 1,
                                                          "items")),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_errors(running_engine, case):
    exc, pattern, call = LIBRARY_ERRORS[case]
    with pytest.raises(exc, match=pattern):
        call(running_engine)


def test_homotopy_needs_degree_zero(running_engine):
    # i_{-1}, the unit k -> C_0, is internal to the lift
    with pytest.raises(ValueError, match="below degree 0"):
        running_engine.homotopy(-1, ModuleElement(-1, {(0, ()): 1}, anick.QQ))


# ---- diagnostics ----

def test_minimality_diagnostic(running_engine):
    eng = running_engine
    diag = eng.minimality_diagnostic(4)
    assert not diag[1]["nonzero"]
    assert not diag[2]["nonzero"]
    assert diag[3]["nonzero"]
    assert diag[4]["nonzero"]
    assert all(set(d) == {"rows", "cols", "entries", "nonzero"}
               for d in diag.values())
    ws = eng.algebra.word_str
    entries = {}
    for n, d in diag.items():
        assert d["nonzero"] == bool(d["entries"])
        assert list(d["entries"]) == sorted(d["entries"])
        for (i, j), v in d["entries"].items():
            assert v
            entries[(n, ws(d["rows"][i]), ws(d["cols"][j]))] = v
    assert entries == {
        (3, "xxyx", "xxyxz"): -1,
        (3, "xxyx", "xxxyx"): 1,
        (4, "xxyxz", "xxxyxz"): -1,
        (4, "xxxyx", "xxxyxz"): -1,
        (4, "xxyxxx", "xxxyxxx"): -1,
        (4, "xxyxxyx", "xxyxxyxz"): -1,
        (4, "xxyxxyx", "xxyxxxyx"): 1,
        (4, "xxyxxyx", "xxxyxxyx"): -1,
    }


@pytest.mark.parametrize("path", ["s3_group_gf3.json", "running_example.json",
                                  "groups/klein4_gf2.json",
                                  "skew_poly3.json"])
def test_minimality_diagnostic_is_eps_term_by_term(path):
    # eps(d_n) summed one term at a time, each word evaluated afresh
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / path))
    word_eval = eng.presentation.word_eval
    diag = eng.minimality_diagnostic(6)
    assert sorted(diag) == list(range(1, 7))
    for n, d in diag.items():
        entries = {}
        for j, chain in enumerate(eng.chains(n)):
            for (i, w), c in eng.differential(chain).terms.items():
                entries[i, j] = eng.field(entries.get((i, j), 0)
                                          + c * word_eval(w))
        assert d["entries"] == {k: v for k, v in sorted(entries.items()) if v}
        assert d["nonzero"] == any(entries.values())
        assert d["rows"] == [c.word for c in eng.chains(n - 1)]
        assert d["cols"] == [c.word for c in eng.chains(n)]


def test_monomial_algebra_is_minimal():
    algebra = anick.FreeAlgebra(anick.Alphabet(["x", "y"]))
    pres = Presentation(algebra, ["x*x", "x*y*y"])
    eng = ResolutionEngine.from_presentation(pres)
    diag = eng.minimality_diagnostic(4)
    assert not any(d["nonzero"] for d in diag.values())
    for r in eng.verify_complex(5):
        assert r.ok


# ---- one idempotent generator ----

def test_idempotent_letter_pattern(idempotent_presentation):
    eng = ResolutionEngine.from_presentation(idempotent_presentation)
    ws = eng.algebra.word_str
    expect = {
        1: {"x": "[1 | x] - [1 | 1]"},
        2: {"xx": "[x | x]"},
        3: {"xxx": "[xx | x] - [xx | 1]"},
        4: {"xxxx": "[xxx | x]"},
        5: {"xxxxx": "[xxxx | x] - [xxxx | 1]"},
    }
    for n, vals in expect.items():
        assert differentials(eng, n) == vals
    for r in eng.verify_complex(5):
        assert r.ok
    assert [len(eng.chains(n)) for n in range(6)] == [1] * 6


def test_finite_field_resolution(running_presentation):
    data = running_presentation.to_json()
    data["field"] = {"type": "prime", "p": 7}
    pres = Presentation.from_json(data)
    eng = ResolutionEngine.from_presentation(pres)
    got = differentials(eng, 3)
    assert got["xxyxz"] == "[xxyx | z] + 6·[xxyx | 1]"
    assert got["xxxyx"] == "[xxx | yx] + [xxyx | 1]"
    for r in eng.verify_complex(5):
        assert r.ok
    for n in (2, 3):
        for c in eng.chains(n):
            z = eng.differential(c)
            assert eng.homotopy(n - 1, z) == eng.element(n, [(c, "1", 1)])


# ---- group algebras over GF(2) ----

# file -> (group order, normal words by length, dim H^n(G; GF(2)) for
# n = 0..6, the degrees diagnose reports non-minimal, and the chain counts
# of degrees 0..6 as goldens where the resolution is not minimal). The
# normal words span the group algebra, so they count the group. H^n is
# Tor_n(k, k), which the ranks of the eps(d_n) give, an oracle apart from
# the homotopy: a minimal resolution has as many chains as H^n has
# dimensions. Q8 is periodic of period 4; A4 has the series
# (1 + t^3)/((1 - t^2)(1 - t^3)) and S4 (1 + t^2)/((1 - t)(1 - t^3))
# (Adem and Milgram, Cohomology of Finite Groups, 2nd ed., 2004). The
# files of Q8, A4 and S4 hold their completed rules.
GROUPS = {
    "klein4_gf2.json": (4, [1, 2, 1], [n + 1 for n in range(7)], [], None),
    "z4_gf2.json": (4, [1, 1, 1, 1], [1] * 7, [], None),
    "d8_gf2.json": (8, [1, 2, 2, 2, 1], [n + 1 for n in range(7)], [4, 5, 6],
                    [1, 2, 3, 5, 8, 12, 17]),
    "q8_gf2.json": (8, [1, 2, 3, 2], [1, 2, 2, 1, 1, 2, 2], [3, 4, 5, 6],
                    [1, 2, 6, 14, 39, 96, 257]),
    "a4_gf2.json": (12, [1, 2, 3, 4, 2], [1, 0, 1, 2, 1, 2, 3],
                    [2, 3, 4, 5, 6], [1, 2, 6, 16, 46, 128, 366]),
    "s4_gf2.json": (24, [1, 3, 5, 6, 5, 3, 1], [1, 1, 2, 3, 3, 4, 5],
                    [2, 3, 4, 5, 6], [1, 3, 7, 18, 49, 138, 397]),
}


def rank_mod_p(entries, field):
    """The rank over the prime field GF(p), p read from field, of the
    matrix with these {(row, column): value} entries."""
    p = field.characteristic
    rows = {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = int(v) % p
    pivots = {}  # leading column -> a reduced row with leading entry 1
    for r in rows.values():
        r = {j: v for j, v in r.items() if v}
        while r and min(r) in pivots:
            lead = min(r)
            c = r[lead]
            for j, v in pivots[lead].items():
                r[j] = (r.get(j, 0) - c * v) % p
            r = {j: v for j, v in r.items() if v}
        if r:
            lead = min(r)
            inv = pow(r[lead], -1, p)
            pivots[lead] = {j: v * inv % p for j, v in r.items()}
    return len(pivots)


def betti_numbers(eng, top):
    """dim Tor_n(k, k) for n = 0..top over a prime field: the chains of
    degree n less the ranks of eps(d_n) and eps(d_n+1)."""
    diag = eng.minimality_diagnostic(top + 1)
    ranks = [0] + [rank_mod_p(diag[n]["entries"], eng.field)
                   for n in range(1, top + 2)]
    return [len(eng.chains(n)) - ranks[n] - ranks[n + 1]
            for n in range(top + 1)]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_algebras_over_gf2(name):
    order, words, betti, nonminimal, golden = GROUPS[name]
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / "groups" / name))
    assert eng.rs.count_normal_words(6) == words + [0] * (7 - len(words))
    assert sum(words) == order
    assert all(r.ok for r in eng.verify_complex(6))
    diag = eng.minimality_diagnostic(7)
    assert [n for n in range(1, 7) if diag[n]["nonzero"]] == nonminimal
    assert [len(eng.chains(n)) for n in range(7)] == (golden or betti)
    assert betti_numbers(eng, 6) == betti


def test_rank_mod_p():
    # the rows (1, 2) and (2, 1) are proportional over GF(3) only; over
    # GF(2) they read (1, 0) and (0, 1)
    entries = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    assert [rank_mod_p(entries, anick.GF(p)) for p in (2, 3, 5)] == [2, 1, 2]
    assert rank_mod_p({(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1},
                      anick.GF(2)) == 2
    assert rank_mod_p({}, anick.GF(5)) == 0


# ---- Betti numbers against group cohomology over GF(p) ----

# file -> dim H^n(G; GF(p)) for n = 0..8, or 0..6 for S4 (Adem and
# Milgram, Cohomology of Finite Groups, 2nd ed., 2004). Over GF(2), S3 has
# the cohomology of its Sylow subgroup Z/2, 1 in every degree; over GF(3)
# that of Z/3 fixed by the quotient Z/2, 1 in the degrees 0 and 3, 4 mod
# 4. Z/3 x Z/3 over GF(3) has n + 1 in degree n. S4 over GF(3) has the
# cohomology of S3, the normaliser of its Sylow 3-subgroup.
COHOMOLOGY = {
    "s3_group_gf2.json": [1] * 9,
    "s3_group_gf3.json": [1, 0, 0, 1, 1, 0, 0, 1, 1],
    "groups/z3xz3_gf3.json": [n + 1 for n in range(9)],
    "groups/s4_gf3.json": [1, 0, 0, 1, 1, 0, 0],
}


@pytest.mark.parametrize("name", sorted(COHOMOLOGY))
def test_betti_numbers_are_group_cohomology(name):
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / name))
    expected = COHOMOLOGY[name]
    assert betti_numbers(eng, len(expected) - 1) == expected


def test_s4_over_gf3():
    # the rules of s4_gf2.json over GF(3), where the signs no longer
    # cancel: the same normal words and chains, and its own differentials
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / "groups" / "s4_gf3.json"))
    order, words, _, _, golden = GROUPS["s4_gf2.json"]
    assert eng.rs.count_normal_words(7) == words + [0]
    assert sum(words) == order
    assert [len(eng.chains(n)) for n in range(7)] == golden
    assert all(r.ok for r in eng.verify_complex(5))


def test_z3xz3_over_gf3_has_a_minimal_resolution():
    # the normal words a^i b^j, i, j < 3, count the nine group elements,
    # and the chains of degree n number n + 1, as H^n does
    eng = ResolutionEngine.from_presentation(
        Presentation.load(PRESENTATIONS / "groups" / "z3xz3_gf3.json"))
    assert eng.rs.count_normal_words(6) == [1, 2, 3, 2, 1, 0, 0]
    assert [len(eng.chains(n)) for n in range(9)] == \
        [n + 1 for n in range(9)]
    assert all(r.ok for r in eng.verify_complex(6))
    assert not any(d["nonzero"]
                   for d in eng.minimality_diagnostic(8).values())
