"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py MODE WORKLOAD SEED

MODE is one of:

- run: set up, solve, check; print one JSON record on stdout with the
  set-up and solve times, peak RSS, the output checks against
  perfbench/goldens/WORKLOAD.json and the per-layer counts;
- trace: the same, with the spans of every layer call in the record.

Before anything else, a child times a fixed pure-Python reference job.

Only the public API of the `anick` package is used. Set-up covers
`import anick`, loading the presentation, the confluence check and the
engine or rewrite system. The solve is timed alone; its results are
formatted and checked after it. The seed permutes an order that cannot
change any answer: the chains within one degree, the homotopy checks,
the words whose normal forms are taken.
"""

import contextlib
import hashlib
import json
import random
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDENS = HERE / "goldens"
S3_DEGREE = 11
XYZ_BOUND = 8
XYZ_CHAIN_DEGREE = 5  # degree 6 has 409k chains; degree 7 exhausts memory


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or None]."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def reference_job():
    """Time a fixed pure-Python job, before anick is imported.

    Like the solvers it fills dicts of tuple keys with small objects and
    looks them up. The speed of a shared machine drifts by up to 40%
    within minutes, and this job's time follows that drift much as the
    solve time does. Its working set of a few megabytes stays below the
    solve's, so that it leaves the child's peak RSS as it is.
    """
    t0 = time.perf_counter()
    total = 0
    for _ in range(20):
        table = {}
        for i in range(20000):
            table[(i, i * 3 % 1001)] = [i, str(i)]
        for i in range(0, 20000, 3):
            total += table[(i, i * 3 % 1001)][0]
    return time.perf_counter() - t0


def sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---- S3 group algebra, over Q and over GF(3) ----

def s3_setup(anick, tracer, path):
    with tracer.span("groebner.parse"):
        pres = anick.Presentation.load(path)
    rs = anick.RewriteSystem.from_presentation(pres)
    bound = max(7, rs.max_rule_weight())
    with tracer.span("groebner.check"):
        report = anick.check_groebner(rs, bound)
    if not report.ok:
        raise anick.NotGroebner("S3 relations are not confluent")
    with tracer.span("chains.graph"):
        eng = anick.ResolutionEngine(pres, rs)
    return {"pres": pres, "rs": rs, "bound": bound, "engine": eng}


def s3_differentials(state, tracer, rng):
    """Every differential, degree by degree in ascending order."""
    eng = state["engine"]
    for n in range(1, S3_DEGREE + 1):
        with tracer.span("resolution.differential.d%d" % n):
            with tracer.span("chains.enumerate"):
                chains = list(eng.chains(n))
            rng.shuffle(chains)
            for c in chains:
                eng.differential(c)


def s3_facts(anick, state):
    """Checked values and layer counts shared by both S3 workloads."""
    eng, rs = state["engine"], state["rs"]
    ws = state["pres"].algebra.word_str
    weight = state["pres"].algebra.order.weight
    facts, counts = {}, {"chains.count": 0}
    for n in range(1, S3_DEGREE + 1):
        chains = eng.chains(n)
        facts["chains.d%d" % n] = len(chains)
        counts["chains.count"] += len(chains)
        terms = 0
        for c in chains:
            d = eng.differential(c)
            terms += len(d.terms)
            facts["d%d(%s)" % (n, ws(c.word))] = sha([eng.format_element(d)])
        counts["resolution.terms.d%d" % n] = terms
    counts["chains.graph_edges"] = sum(len(e) for e in eng.graph.edges.values())
    counts["groebner.overlaps"] = sum(
        1 for ov in anick.overlaps(rs) if weight(ov.word) <= state["bound"])
    return facts, counts


def s3_q_setup(anick, tracer):
    return s3_setup(anick, tracer, INPUTS / "s3_q.json")


def s3_q_solve(anick, state, tracer, rng):
    s3_differentials(state, tracer, rng)
    with tracer.span("resolution.verify"):
        state["rows"] = state["engine"].verify_complex(S3_DEGREE)


def s3_q_facts(anick, state):
    facts, counts = s3_facts(anick, state)
    facts["verify"] = [[r.degree, r.chains, r.ok] for r in state["rows"]]
    return facts, counts


def s3_gf3_setup(anick, tracer):
    return s3_setup(anick, tracer, INPUTS / "s3_gf3.json")


def s3_gf3_solve(anick, state, tracer, rng):
    eng = state["engine"]
    s3_differentials(state, tracer, rng)
    with tracer.span("resolution.diagnose"):
        state["diag"] = eng.minimality_diagnostic(S3_DEGREE)
    jobs = [c for n in range(2, S3_DEGREE + 1) for c in eng.chains(n)]
    rng.shuffle(jobs)
    lifts = []
    with tracer.span("resolution.homotopy"):
        for c in jobs:
            lifts.append((c, eng.homotopy(c.degree - 1, eng.differential(c))))
    state["lifts"] = lifts


def s3_gf3_facts(anick, state):
    eng, diag = state["engine"], state["diag"]
    ws = state["pres"].algebra.word_str
    facts, counts = s3_facts(anick, state)
    facts["diagnose.nonzero"] = sorted(n for n in diag if diag[n]["nonzero"])
    for c, lifted in state["lifts"]:
        key = "homotopy:d%d(%s)" % (c.degree, ws(c.word))
        facts[key] = lifted == eng.element(c.degree, [(c, (), 1)])
    counts["resolution.homotopy_calls"] = len(state["lifts"])
    return facts, counts


# ---- a rewriting system completed to a weight bound ----

def xyz_setup(anick, tracer):
    with tracer.span("groebner.parse"):
        pres = anick.Presentation.load(INPUTS / "xyz.json")
    return {"pres": pres, "rs": anick.RewriteSystem.from_presentation(pres)}


def xyz_solve(anick, state, tracer, rng):
    alg = state["pres"].algebra
    with tracer.span("groebner.complete"):
        done = anick.complete(state["rs"], XYZ_BOUND)
    with tracer.span("groebner.check"):
        state["report"] = anick.check_groebner(done, XYZ_BOUND)
    words = anick.words_up_to_weight(alg.alphabet, alg.order, XYZ_BOUND)
    rng.shuffle(words)
    with tracer.span("groebner.normal_form"):
        state["forms"] = [(w, done.normal_form_word(w)) for w in words]
    with tracer.span("groebner.automaton"):
        state["counts40"] = done.count_normal_words(40)
        state["words9"] = done.normal_words(9)
    with tracer.span("chains.graph"):
        graph = anick.build_chain_graph(anick.obstructions(done), alg.alphabet)
    chains = {}
    for n in range(1, XYZ_CHAIN_DEGREE + 1):
        with tracer.span("chains.enumerate"):
            chains[n] = anick.enumerate_chains(graph, n, alg.order)
    state.update(done=done, graph=graph, chains=chains)


def xyz_facts(anick, state):
    alg = state["pres"].algebra
    done, graph, chains = state["done"], state["graph"], state["chains"]
    ws = alg.word_str
    weight = alg.order.weight
    facts = {"complete.rules": [alg.format(r) for r in done.rules],
             "check_groebner.ok": state["report"].ok,
             "count_normal_words(40)": state["counts40"],
             "normal_words(9)": [len(state["words9"]),
                                 sha(ws(w) for w in state["words9"])],
             "chain_graph": [len(graph.nodes), sha(
                 "%s>%s" % (ws(v), ws(t))
                 for v in graph.nodes for t, _ in graph.edges[v])]}
    by_weight = {}
    for w, nf in sorted(state["forms"], key=lambda item: alg.order.key(item[0])):
        by_weight.setdefault(weight(w), []).append(
            "%s=%s" % (ws(w), alg.format(nf)))
    for k, lines in by_weight.items():
        facts["normal_forms.weight%d" % k] = [len(lines), sha(lines)]
    for n, cs in chains.items():
        facts["chains.d%d" % n] = [len(cs), sha(ws(c.word) for c in cs)]
    counts = {
        "groebner.rules": len(done.rules),
        "groebner.overlaps": sum(1 for ov in anick.overlaps(done)
                                 if weight(ov.word) <= XYZ_BOUND),
        "groebner.normal_form_terms": sum(
            len(nf.terms) for _, nf in state["forms"]),
        "chains.graph_edges": sum(len(e) for e in graph.edges.values()),
        "chains.count": sum(len(cs) for cs in chains.values()),
    }
    return facts, counts


WORKLOADS = {
    "s3_q_verify": (s3_q_setup, s3_q_solve, s3_q_facts),
    "s3_gf3_diagnose": (s3_gf3_setup, s3_gf3_solve, s3_gf3_facts),
    "xyz_rewrite": (xyz_setup, xyz_solve, xyz_facts),
}


def derived_facts(name, golden):
    """Expected values that need no recorded golden: the S3 chain counts
    in closed form, and i_{n-1} d_n (c (x) 1) = c (x) 1 for n >= 2."""
    if not name.startswith("s3_"):
        return {}
    # the n-chains of S3 on s, t are the 2^(n-1) + 1 words they spell
    derived = {"chains.d%d" % n: 2 ** (n - 1) + 1
               for n in range(1, S3_DEGREE + 1)}
    if name == "s3_gf3_diagnose":
        for key in golden:
            m = re.match(r"d(\d+)\(", key)
            if m and int(m.group(1)) >= 2:
                derived["homotopy:" + key] = True
    return derived


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    setup, solve, derive = WORKLOADS[name]
    golden_path = GOLDENS / ("%s.json" % name)
    # before the import, so that nothing anick does to the interpreter can
    # speed up or slow down the reference
    reference_s = reference_job()
    t_start = time.perf_counter()
    tracer = Tracer(mode == "trace")
    with tracer.span("anick.import"):
        import anick
    state = setup(anick, tracer)
    t_solve = time.perf_counter()
    rng = random.Random(seed)

    with open(golden_path) as fh:
        expected = json.load(fh)
    expected.update(derived_facts(name, expected))
    facts, counts, error = {}, {}, None
    try:
        solve(anick, state, tracer, rng)
    except Exception as exc:  # fails every check, since none has run yet
        error = "%s: %s" % (type(exc).__name__, exc)
    t_end = time.perf_counter()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if error is None:
        try:
            facts, counts = derive(anick, state)
        except Exception as exc:  # fails every check
            error = "%s: %s" % (type(exc).__name__, exc)
    facts = json.loads(json.dumps(facts))
    failures = [("check %s: got %r, expected %r"
                 % (key, facts.get(key), value))[:200]
                for key, value in expected.items() if facts.get(key) != value]
    result = {
        "workload": name,
        "seed": seed,
        "backend": getattr(anick, "WORDOPS_BACKEND", None),
        "setup_s": t_solve - t_start,
        "wall_s": t_end - t_solve,
        "reference_s": reference_s,
        "solve_start": t_solve,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(expected),
        "failed": len(failures),
        "failures": ([error] if error else []) + failures[:5],
        "counts": counts,
        "spans": tracer.spans,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1:]))
