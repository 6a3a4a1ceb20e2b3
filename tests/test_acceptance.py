"""End-to-end acceptance checks.

Each test covers one numbered criterion, enforces exact equality in exact
arithmetic, and prints a single pass/fail line with its runtime against the
stated limit (run pytest with -s to see the lines).
"""

import contextlib
import io
import itertools
import pathlib
import random
import time

import pytest

import anick
from anick.cli import main as cli_main
from test_wordops import is_antichain

# every criterion asserts its runtime against a limit
pytestmark = pytest.mark.timed

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNNING = ROOT / "presentations" / "running_example.json"
IDEMPOTENT = ROOT / "presentations" / "idempotent_letter.json"


def checked(num, label, limit, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        dt = time.perf_counter() - t0
        print("criterion %2d: FAIL %6.2fs (limit %3ds) - %s"
              % (num, dt, limit, label))
        raise
    dt = time.perf_counter() - t0
    print("criterion %2d: %s %6.2fs (limit %3ds) - %s"
          % (num, "PASS" if dt < limit else "FAIL", dt, limit, label))
    assert dt < limit, "runtime %.2fs exceeds the %ds limit" % (dt, limit)


def running_engine():
    pres = anick.Presentation.load(RUNNING)
    return anick.ResolutionEngine.from_presentation(pres)


def formatted_differentials(eng, degree):
    ws = eng.algebra.word_str
    return {ws(c.word): eng.format_element(eng.differential(c))
            for c in eng.chains(degree)}


D2 = {
    "xxx": "[x | xx] - [x | x]",
    "xxyx": "[x | xyx]",
    "yxz": "[y | xz] - [y | x]",
}

D3 = {
    "xxxx": "[xxx | x]",
    "xxyxz": "[xxyx | z] - [xxyx | 1]",
    "xxxyx": "[xxx | yx] + [xxyx | 1]",
    "xxyxxx": "[xxyx | xx] - [xxyx | x]",
    "xxyxxyx": "[xxyx | xyx]",
}

D4 = {
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


def test_criterion_01_d2_golden():
    def body():
        assert formatted_differentials(running_engine(), 2) == D2

    checked(1, "three degree-2 differentials, exact", 1, body)


def test_criterion_02_d3_golden():
    def body():
        got = formatted_differentials(running_engine(), 3)
        assert got == D3
        # the corrected value, asserted on its own as well
        assert got["xxyxz"] == "[xxyx | z] - [xxyx | 1]"

    checked(2, "five degree-3 differentials incl. corrected xxyxz", 1, body)


def test_criterion_03_d4_golden():
    def body():
        assert formatted_differentials(running_engine(), 4) == D4

    checked(3, "ten degree-4 differentials, exact", 5, body)


def test_criterion_04_chain_census():
    def body():
        eng = running_engine()
        ws = eng.algebra.word_str
        words = {n: [ws(c.word) for c in eng.chains(n)] for n in (2, 3, 4)}
        assert sorted(words[2]) == ["xxx", "xxyx", "yxz"]
        assert sorted(words[3]) == ["xxxx", "xxxyx", "xxyxxx", "xxyxxyx",
                                    "xxyxz"]
        assert sorted(words[4]) == sorted(D4)
        assert [len(words[n]) for n in (2, 3, 4)] == [3, 5, 10]
        assert {ws(n) for n in eng.graph.nodes} == \
            {"1", "x", "y", "z", "xx", "xyx", "yx", "xz"}

    checked(4, "chain census 3/5/10 and graph node set", 1, body)


def test_criterion_05_complex_property():
    def body():
        eng = running_engine()
        for report in eng.verify_complex(6):
            assert report.ok
        # verify_complex starts at 1; spell out the composite at 2..6 too
        for n in range(2, 7):
            for c in eng.chains(n):
                assert not eng.apply_differential(eng.differential(c))

    checked(5, "d(d(chain)) = 0 at degrees 2..6", 30, body)


def test_criterion_06_definitions_match():
    def body():
        # every anti-chain on two letters with obstruction length <= 3
        two = anick.Alphabet(["x", "y"])
        words23 = [w for L in (2, 3)
                   for w in itertools.product(range(2), repeat=L)]
        antichains = [[]]
        for bits in range(1, 1 << len(words23)):
            sub = [w for k, w in enumerate(words23) if bits >> k & 1]
            if is_antichain(sub):
                antichains.append(sub)

        def node_after_spans(word, placed):
            # the word past the next-to-last end of 0, 1 and the span ends
            return word[((0, 1) + placed[1])[-2]:]

        def definitions_agree(alphabet, obs_words, long_candidates):
            obs = anick.ObstructionSet(obs_words)
            graph = anick.build_chain_graph(obs, alphabet)
            order = anick.MonomialOrder(alphabet)
            n_letters = len(alphabet)
            for d in range(6):
                # each chain's node, against the part of its word past the
                # previous span of the top-down placement
                graph_side = {c.word: c.node
                              for c in anick.enumerate_chains(graph, d, order)}
                scan_side = {}
                # chain words are short on two letters; elsewhere scan the
                # small lengths exhaustively and cover longer words through
                # the prechain generator
                exhaustive_to = (2 * d - 1 if d >= 2 else d) \
                    if not long_candidates else 6
                for L in range(exhaustive_to + 1):
                    for w in itertools.product(range(n_letters), repeat=L):
                        placed = anick.is_chain_top_down(w, d, obs)
                        if placed is not None:
                            scan_side[w] = node_after_spans(w, placed)
                if long_candidates and d >= 2:
                    for w in anick.enumerate_prechains(obs, d):
                        if len(w) > exhaustive_to:
                            placed = anick.is_chain_top_down(w, d, obs)
                            if placed is not None:
                                scan_side[w] = node_after_spans(w, placed)
                assert graph_side == scan_side, (obs_words, d)

        for sub in antichains:
            definitions_agree(two, sub, long_candidates=False)

        # 100 random anti-chains on three letters
        three = anick.Alphabet(["x", "y", "z"])
        rng = random.Random(2024)
        for _ in range(100):
            raw = [tuple(rng.randrange(3) for _ in range(rng.randrange(2, 5)))
                   for _ in range(rng.randrange(1, 6))]
            kept = []
            for w in sorted(set(raw), key=len):
                if is_antichain(kept + [w]):
                    kept.append(w)
            definitions_agree(three, kept, long_candidates=True)

    checked(6, "graph chains equal top-down chains, degrees <= 5", 60, body)


def test_criterion_07_oracle_complement():
    def body():
        pres = anick.Presentation.load(RUNNING)
        rs = anick.RewriteSystem.from_presentation(pres)
        lead = anick.leading_monomials_oracle(pres, 6)
        universe = anick.words_up_to_weight(pres.algebra.alphabet,
                                            pres.algebra.order, 6)
        normal = set(rs.normal_words(6))
        assert normal == set(universe) - lead
        for length in range(7):
            assert {w for w in normal if len(w) == length} == \
                {w for w in universe if len(w) == length and w not in lead}

    checked(7, "row-reduction oracle complement equals normal words", 60, body)


def test_criterion_08_oim_bijection():
    def body():
        poset = [w for n in range(4)
                 for w in itertools.product(range(2), repeat=n)]

        def closed(sub):
            return all(w[i:j] in sub
                       for w in sub for i in range(len(w) + 1)
                       for j in range(i, len(w) + 1) if w[i:j] != w)

        universe = list(poset)
        all_antichains = set()
        all_ideals = set()
        for bits in range(1 << len(universe)):
            sub = frozenset(w for k, w in enumerate(universe) if bits >> k & 1)
            if is_antichain(sub):
                all_antichains.add(sub)
            if closed(sub):
                all_ideals.add(sub)
        assert len(all_antichains) == len(all_ideals)
        for a in all_antichains:
            ideal = anick.oim_from_antichain(poset, a)
            assert ideal in all_ideals
            assert anick.antichain_from_oim(poset, ideal) == a
        for ideal in all_ideals:
            a = anick.antichain_from_oim(poset, ideal)
            assert anick.oim_from_antichain(poset, a) == ideal

    checked(8, "anti-chain / downward-closed bijection, exhaustive", 5, body)


def test_criterion_09_homotopy_section():
    def body():
        eng = running_engine()
        rng = random.Random(7)
        normal = eng.rs.normal_words(3)
        for n in (1, 2, 3):
            upstairs = eng.chains(n + 1)
            done = 0
            while done < 200:
                z = eng.zero(n)
                for _ in range(rng.randrange(1, 4)):
                    c = rng.choice(upstairs)
                    w = rng.choice(normal)
                    k = rng.choice([-2, -1, 1, 2, 3])
                    z = z + eng.act(eng.differential(c), w).scale(eng.field(k))
                if not z:
                    continue
                lifted = eng.homotopy(n, z)
                assert eng.apply_differential(lifted) == z
                assert eng.module_lm(lifted)[0] == eng.module_lm(z)[0]
                done += 1

    checked(9, "d(i(z)) = z with leading word preserved, 200 per degree", 60,
            body)


def test_criterion_10_general_augmentation():
    def body():
        pres = anick.Presentation.load(IDEMPOTENT)
        eng = anick.ResolutionEngine.from_presentation(pres)
        one = eng.chains(0)[0]
        for w in eng.rs.normal_words(6):
            z = eng.element(0, [(one, w, 1), (one, (), -pres.word_eval(w))])
            if not z:
                continue
            assert eng.apply_differential(eng.homotopy(0, z)) == z
        for report in eng.verify_complex(5):
            assert report.ok

    checked(10, "augmentation at x=1: homotopy(0, .) splits d1, complex "
            "verifies", 5, body)


def test_criterion_11_falsification_and_completion():
    def body():
        algebra = anick.FreeAlgebra(anick.Alphabet(["x", "y"]))
        pres = anick.Presentation(algebra, ["x*y - y", "y*x - x"])
        rs = anick.RewriteSystem.from_presentation(pres)
        report = anick.check_groebner(rs, 7)
        assert not report.ok
        assert algebra.word_str(report.counterexample) == "xyx"
        done = anick.complete(rs, 7)
        assert {str(r) for r in done.rules} == \
            {"x*y - y", "y*x - x", "x*x - x", "y*y - y"}
        assert anick.check_groebner(done, 7).ok
        # the command line agrees on the verdict
        path = str(ROOT / "presentations" / "non_confluent.json")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli_main(["gb-check", path]) == 2
            assert cli_main(["gb-complete", path]) == 0

    checked(11, "{xy-y, yx-x}: counterexample xyx, completes to 4 rules", 1,
            body)


def test_criterion_12_automaton_counts():
    def body():
        pres = anick.Presentation.load(RUNNING)
        rs = anick.RewriteSystem.from_presentation(pres)
        counts = rs.count_normal_words(10)
        pats = rs.leading_words
        brute = []
        for n in range(11):
            brute.append(sum(
                1 for w in itertools.product(range(3), repeat=n)
                if not any(w[i:i + len(u)] == u for u in pats
                           for i in range(n - len(u) + 1))))
        assert counts == brute

    checked(12, "automaton counts equal brute force to length 10", 5, body)
