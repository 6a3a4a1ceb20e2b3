"""Command-line interface: read a presentation, print a deterministic report.

Exit codes: 0 success, 2 verification counterexample, 3 degree bound
exceeded, 4 input error.
"""

import argparse
import json
import sys
import time

from .errors import AnickError, BoundExceeded, NotGroebner, require_listable
from .groebner import Presentation, RewriteSystem, check_groebner, complete
from .resolution import ResolutionEngine

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_BOUND = 3
EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the
    # counterexample code; remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


# Each _cmd_* handler returns (results, text lines, exit status); main
# writes the text or wraps the results in the JSON report.

def _engine(pres, args):
    return ResolutionEngine.from_presentation(
        pres, complete_to=args.max_degree if args.complete else None)


def _cmd_gb_check(pres, args):
    rs = RewriteSystem.from_presentation(pres)
    bound = max(args.max_degree, rs.max_ambiguity_weight())
    rep = check_groebner(rs, bound)
    alg = pres.algebra
    rules = [alg.format(r) for r in rs.rules]
    if rep.ok:
        results = {"verified": True, "degree_bound": bound, "rules": rules}
        text = ["status: verified", "degree-bound: %d" % bound]
        text += ["rule: %s" % s for s in rules]
        return results, text, EXIT_OK
    a, b = rep.branches
    results = {"verified": False, "degree_bound": bound, "rules": rules,
               "counterexample": alg.word_str(rep.counterexample),
               "branches": [alg.format(a), alg.format(b)],
               "s_polynomial": alg.format(rep.spoly_normal_form)}
    text = ["status: not-groebner",
            "counterexample: %s" % alg.word_str(rep.counterexample),
            "branch: %s" % alg.format(a),
            "branch: %s" % alg.format(b),
            "s-polynomial: %s" % alg.format(rep.spoly_normal_form)]
    return results, text, EXIT_COUNTEREXAMPLE


def _cmd_gb_complete(pres, args):
    rs = RewriteSystem.from_presentation(pres)
    done = complete(rs, args.max_degree)
    alg = pres.algebra
    rules = [alg.format(r) for r in done.rules]
    results = {"degree_bound": args.max_degree, "rules": rules}
    text = ["degree-bound: %d" % args.max_degree]
    text += ["rule: %s" % s for s in rules]
    return results, text, EXIT_OK


def _cmd_normal_words(pres, args):
    eng = _engine(pres, args)
    # the counts line has one entry per length, words or not
    require_listable(args.max_length + 1, "normal-word counts")
    words = eng.rs.normal_words(args.max_length)
    counts = eng.rs.count_normal_words(args.max_length)
    ws = pres.algebra.word_str
    results = {"max_length": args.max_length, "counts": counts,
               "words": [ws(w) for w in words]}
    text = ["counts: %s" % " ".join(str(c) for c in counts)]
    text += [ws(w) for w in words]
    return results, text, EXIT_OK


def _cmd_obstructions(pres, args):
    eng = _engine(pres, args)
    ws = pres.algebra.word_str
    words = [ws(w) for w in eng.obstruction_set.words]
    return {"obstructions": words}, words, EXIT_OK


def _cmd_chain_graph(pres, args):
    eng = _engine(pres, args)
    graph = eng.graph
    ws = pres.algebra.word_str
    nodes = [ws(v) for v in graph.nodes]
    edges = []
    for v in graph.nodes:
        for t, wit in graph.edges[v]:
            edges.append({"source": ws(v), "target": ws(t),
                          "witness": None if wit is None else ws(wit)})
    results = {"nodes": nodes, "edges": edges}
    text = ["node: %s" % n for n in nodes]
    for e in edges:
        if e["witness"] is None:
            text.append("edge: %s -> %s" % (e["source"], e["target"]))
        else:
            text.append("edge: %s -> %s [%s]"
                        % (e["source"], e["target"], e["witness"]))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot())
        results["dot_file"] = args.dot
        text.append("dot-file: %s" % args.dot)
    return results, text, EXIT_OK


def _cmd_chains(pres, args):
    eng = _engine(pres, args)
    ws = pres.algebra.word_str
    words = [ws(c.word) for c in eng.chains(args.degree)]
    return {"degree": args.degree, "chains": words}, words, EXIT_OK


def _cmd_resolve(pres, args):
    eng = _engine(pres, args)
    ws = pres.algebra.word_str
    n = args.degree
    entries = []
    text = []
    for c in eng.chains(n):
        val = eng.differential(c)
        entry = {"chain": ws(c.word), "value": eng.format_element(val)}
        text.append("d%d(%s) = %s" % (n, ws(c.word), entry["value"]))
        if args.show_homotopy:
            lifted = eng.homotopy(n - 1, val)
            entry["homotopy"] = eng.format_element(lifted)
            text.append("i%d(d%d(%s)) = %s"
                        % (n - 1, n, ws(c.word), entry["homotopy"]))
        entries.append(entry)
    results = {"degree": n, "differentials": entries}
    return results, text, EXIT_OK


def _cmd_verify(pres, args):
    eng = _engine(pres, args)
    rows = eng.verify_complex(args.degree)
    ok = all(r.ok for r in rows)
    results = {"degrees": [{"degree": r.degree, "chains": r.chains,
                            "ok": r.ok} for r in rows],
               "ok": ok}
    text = ["degree %d: %d chains, %s"
            % (r.degree, r.chains, "ok" if r.ok else "FAILED") for r in rows]
    if ok:
        text.append("verified: degrees 1..%d" % args.degree)
        status = EXIT_OK
    else:
        text.append("verification failed")
        status = EXIT_COUNTEREXAMPLE
    return results, text, status


def _cmd_diagnose(pres, args):
    eng = _engine(pres, args)
    diag = eng.minimality_diagnostic(args.degree)
    ws = pres.algebra.word_str
    degrees = []
    text = []
    bad = []
    for n in sorted(diag):
        info = diag[n]
        rows, cols = info["rows"], info["cols"]
        entries = [{"row": ws(rows[i]), "col": ws(cols[j]), "value": str(val)}
                   for (i, j), val in info["entries"].items()]
        degrees.append({"degree": n, "rows": [ws(w) for w in rows],
                        "cols": [ws(w) for w in cols],
                        "entries": entries, "nonzero": info["nonzero"]})
        text.append("degree %d: %s"
                    % (n, "nonzero" if info["nonzero"] else "zero"))
        for e in entries:
            text.append("  [%s <- %s] = %s" % (e["row"], e["col"], e["value"]))
        if info["nonzero"]:
            bad.append(n)
    if bad:
        text.append("not minimal at degrees: %s"
                    % ", ".join(str(n) for n in bad))
    else:
        text.append("minimal through degree %d" % args.degree)
    results = {"degrees": degrees, "nonminimal_degrees": bad}
    return results, text, EXIT_OK


def _build_parser():
    parser = _Parser(prog="anick",
                     description="Groebner data, chain combinatorics and "
                                 "resolution differentials for an augmented "
                                 "algebra presentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, func):
        p = sub.add_parser(name, help=handler)
        p.add_argument("presentation", help="presentation JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-degree", type=int, default=7,
                       help="weight bound for completion; confluence "
                            "checks cover every ambiguity")
        p.set_defaults(handler=func)
        return p

    add("gb-check", "confluence-check the relations", _cmd_gb_check)
    add("gb-complete", "complete the relations up to the bound",
        _cmd_gb_complete)

    def gated(name, handler, func):
        p = add(name, handler, func)
        p.add_argument("--complete", action="store_true",
                       help="complete the system first instead of refusing")
        return p

    p = gated("normal-words", "list and count words avoiding the leading "
              "monomials", _cmd_normal_words)
    p.add_argument("--max-length", type=int, default=10)

    gated("obstructions", "print the obstruction anti-chain",
          _cmd_obstructions)

    p = gated("chain-graph", "print the chain graph", _cmd_chain_graph)
    p.add_argument("--dot", metavar="FILE", default=None,
                   help="also write GraphViz output (pruned) to FILE")

    p = gated("chains", "list the chains of one degree", _cmd_chains)
    p.add_argument("--degree", type=int, default=4)

    p = gated("resolve", "print the differential on every chain of one "
              "degree", _cmd_resolve)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--show-homotopy", action="store_true",
                   help="also lift each differential value back up")

    p = gated("verify", "check d(d(x)) = 0 through a degree", _cmd_verify)
    p.add_argument("--degree", type=int, default=4)

    p = gated("diagnose", "augmentation test for minimality", _cmd_diagnose)
    p.add_argument("--degree", type=int, default=4)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        pres = Presentation.load(args.presentation)
        results, text, status = args.handler(pres, args)
    except BoundExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    except NotGroebner as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (AnickError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - t0
    if args.format == "json":
        report = {"command": args.command, "digest": pres.digest(),
                  "results": results, "status": status}
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text) + "\n")
    print("# elapsed: %.3fs" % elapsed, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
