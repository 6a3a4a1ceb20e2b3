"""Command line behavior: output text, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import anick.cli
from anick import Presentation
from anick.cli import main
from anick.errors import MAX_ITEMS
from test_resolution import doctored_engine

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNNING = str(ROOT / "presentations" / "running_example.json")
NONCONFLUENT = str(ROOT / "presentations" / "non_confluent.json")
IDEMPOTENT = str(ROOT / "presentations" / "idempotent_letter.json")
MONOMIAL = str(ROOT / "presentations" / "monomial.json")

# sha256 of stdout of `resolve --show-homotopy --degree 5`,
# `diagnose --degree 5`, `normal-words --max-length 8`, `chain-graph` and
# `chains --degree 4` (all with --complete for the non-confluent one), and
# of `gb-complete`, on each shipped presentation. The first two were
# recorded before the tensor basis was keyed by word pairs, the others
# before the subword matchers were merged into one automaton; those of the
# two GF(2) and GF(7) presentations before GF(p) scalars became plain ints.
STDOUT_DIGESTS = {
    "idempotent_letter.json": (
        "0262c1d5bfe521e1fe34d38c419176f8e3a5faaaecf98c3d12107618cf2c8b9f",
        "0ed1ff11bb8c945e2497e38fc61ba09f4fcc1c50a251837dfe878e90352b9126",
        "54cc7cbc31c78a533d28f4f86d85979aa3a28e609971cd2b80c66223477e0f37",
        "07cc8323e7c88a6b64ad0c226598a91ff3d440a499d45109e7f597d0bc4b4791",
        "2448ef41c7f68344a46cb76a9180de1b26c6abc3d28406ba496d044ffc0819a0",
        "008ed5e77312d4bed929667f901e92a7a3267a9c269d70c48f83ce7cae30d4db"),
    "monomial.json": (
        "abfa6c587f73e10338bdb5afbba0ba9c55d69deae18a8858698f119cd106149e",
        "678c8759b4e0ffbac6b9b972f31e3d549378653dfd210818c868cd924aec5e25",
        "c972744556271559d14078f1eefb24b80ea2fdf7b8c7fecb7966d025517f8334",
        "d56a1389a0925dcffc663ae5ab4cb35f0534e9344b85b3492ff49fb99c3f18ee",
        "18899881bac00dcf9af0bc40be0e4560753af37343d7902540fc9ba75ef5afa5",
        "c9852d065ad3c5b27c8e3d70f2ffe103fef82f7b3358cf1d3961c3d73f9395a8"),
    "non_confluent.json": (
        "fcd5f77f25cdac263af8c50d1635927cd7ab59e7925d26b0cc4c9f98bd31762f",
        "fd0ad0959a997d9cc4e2b8e1b50841119ff65730e695486adde99754731f56cd",
        "507c7dc39822eae8daa90c8f838015ba079e9eed2e6c68f29374b29eb844ca37",
        "f16f20c8db943ce68b7f38a5fc19d962af3f40e469bae2e8b4bb97126eabe64d",
        "b8dff4b2fbaf497484df4575b732ea32fb8c65a402c3cd4b5b3bf61c9b6e51f1",
        "5ceca2dc96e0897bcf57cdb634e20a398027d19f8550dfdf7870bc813cd12192"),
    "poly4.json": (
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "678c8759b4e0ffbac6b9b972f31e3d549378653dfd210818c868cd924aec5e25",
        "1512a8f50b0246c5c1b0a15ad8528f505186e9d2e68047f4fcf709f24556a796",
        "aab8a7a2a1f885697a7c8605cfed8645e09c75e8ae308db16061482484799dd1",
        "fc4b5fd6816f75a7c81fc8eaa9499d6a299bd803397166e8c4cf9280b801d62c",
        "10262a086141c42481af63e23a687d588aee01bb4b5217bb3110414bccefcd00"),
    "running_example.json": (
        "2e624bac52135a1880aff195dcc299986e6d6ab225cd8b7a065e6ee040e6f44f",
        "1b39dba7208168664f40fad4cf360b3fb7c1693cf800c50ff4a2c814e8d5ba92",
        "32e0b1d49d66268de0be0b39d7485209f443da4f3f705f1a36eeea7cd23c73d3",
        "ed0400adb71958e2a69f3f22d2008aa14af46ba3da1ae60599a7140d7c17210c",
        "cbade0211ffabca2de7151653b1f6ea9bbfa541917119f0efd279c31b6d55191",
        "8a29addf8564ae07780748e61491a1941c14d7dd7bf063437864cd63780f086a"),
    "s3_group.json": (
        "3e8684d20071e10288b4207698c0eebb375da60c014826da28ec33301cbe75bd",
        "a1b15f4e9ee022ff322a64311166dcf1f67a55e446769f0057bb922e5a29675d",
        "6ef69559bb1bac15295e9474bda767351d019b079d91d3ccc442ce2d07b8ccf5",
        "0a06776781f3f15c492c2d783a4997427a2b3490513e537cfa3b3d2214b98771",
        "481e671f0e48a7889b3c72cdffb479a0b2d02eb8ba051fed90aff6c40a39b461",
        "cac47032516edfd445928244ab6c203f59772b4018de1dd6755ade91fbf69f8c"),
    "s3_group_gf2.json": (
        "b35dcc0b80c4ebe826d1e768a680889845ce1ac816d6e92937a97cb7fe104ea8",
        "123f2f0a722331aceab1f3c2c67ee7c6f5a767569f0798445c3b73071c40884c",
        "6ef69559bb1bac15295e9474bda767351d019b079d91d3ccc442ce2d07b8ccf5",
        "0a06776781f3f15c492c2d783a4997427a2b3490513e537cfa3b3d2214b98771",
        "481e671f0e48a7889b3c72cdffb479a0b2d02eb8ba051fed90aff6c40a39b461",
        "6c7533c75d02e42e9fd411aab215cbe367b0620375cdb9201fe11b457fc1dea7"),
    "s3_group_gf3.json": (
        "be5a197a1d590982320b9165e509d75cfd6b68f75a4b1d35effed5a3fff1ca5b",
        "408677b3894c2301ffd72c500213ff4de1e947f4f1d2bfcd2310968495bc4c9b",
        "6ef69559bb1bac15295e9474bda767351d019b079d91d3ccc442ce2d07b8ccf5",
        "0a06776781f3f15c492c2d783a4997427a2b3490513e537cfa3b3d2214b98771",
        "481e671f0e48a7889b3c72cdffb479a0b2d02eb8ba051fed90aff6c40a39b461",
        "567147cddb76e48648b76e2f5194656dc12aaf5cd7b87389c4fe1232bc6c019c"),
    "skew_poly3.json": (
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "cb759ffa92488618a6be666fce770758988a5b934bede23785d49d9cc8acea90",
        "15e6b19b9da8e4b47a764fc9ed46fab66ab370501c582a5c8c1d5ecbcf0314fb",
        "c6ddc494c77f071ebe69c18328c504c117c22b1231ac2a31b117e6fbed1edede",
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "e7f80188b05c523c9254f2a52fe35b99f96b752a2ce0cd670e92abe65698850a"),
    "skew_poly3_gf7.json": (
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "13b5106b7fdc194b5f306fc3703b5029e66aad2874ad8417678b093d6f837d2b",
        "15e6b19b9da8e4b47a764fc9ed46fab66ab370501c582a5c8c1d5ecbcf0314fb",
        "c6ddc494c77f071ebe69c18328c504c117c22b1231ac2a31b117e6fbed1edede",
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "04074c476a179beaed48b19cbfbf9c652e5df98753fba0d25ae3a228d5232e39"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_check_ok(capsys):
    code, out, err = run(capsys, "gb-check", RUNNING)
    assert code == 0
    assert out.splitlines()[:2] == ["status: verified", "degree-bound: 7"]
    assert "rule: x*x*x - x*x" in out
    assert err.startswith("# elapsed:")


def test_gb_check_counterexample(capsys):
    code, out, _ = run(capsys, "gb-check", NONCONFLUENT)
    assert code == 2
    assert out.splitlines() == [
        "status: not-groebner",
        "counterexample: xyx",
        "branch: x",
        "branch: x*x",
        "s-polynomial: -x*x + x",
    ]


# two relations with leading words of weight 5 that are not confluent:
# the first failing ambiguity weighs 8, and their completion to weight 8
# is not confluent either
HEAVY = {"generators": ["x", "y"],
         "relations": ["x*x*x*x*y - x*y*x*x*y", "y*x*y*x*x - y*y*x*y*x"]}


def test_check_covers_ambiguities_above_max_degree(capsys, tmp_path):
    # both leading words weigh 5; the failing ambiguity weighs 8, above the
    # default --max-degree 7
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(HEAVY))
    code, out, _ = run(capsys, "gb-check", str(path))
    assert code == 2
    assert out.splitlines()[:2] == ["status: not-groebner",
                                    "counterexample: yxyxxxxy"]
    code, out, err = run(capsys, "resolve", str(path), "--degree", "3")
    assert code == 2
    assert not out
    assert "not confluent" in err and "yxyxxxxy" in err


def test_lift_on_a_truncated_completion_exits_2(capsys, tmp_path):
    # completed to weight 8 only, the rules are not confluent; the lift that
    # builds a differential stops, and the command names the chain and the
    # word where it stopped
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(HEAVY))
    complete = ["--complete", "--max-degree", "8"]
    for command, degree in (("resolve", "4"), ("verify", "5"),
                            ("diagnose", "5")):
        code, out, err = run(capsys, command, str(path), "--degree", degree,
                             *complete)
        assert code == 2
        assert not out
        assert err == ("error: rules are not confluent: the lift building "
                       "d3(yxyyxyxyxx) stopped at yxyyxyyxyx\n")
    # chains builds no differential, so it still lists the chains of the
    # truncated system: that half of the --complete loophole is open
    code, out, _ = run(capsys, "chains", str(path), "--degree", "4",
                       *complete)
    assert code == 0 and out


def test_complete_deriving_one_letter_rule_exits_4(capsys, tmp_path):
    # the relations are valid, but completion derives a rule that relates
    # the generator x to lower terms; naming it beats an internal message
    path = tmp_path / "one_letter.json"
    path.write_text(json.dumps({
        "generators": ["x", "y"],
        "relations": ["x*y - 3*y*x - 2*x + 4*y + 1", "x*x - 4*x"],
        "augmentation": {"x": 4, "y": "-7/4"}}))
    for command in ("chains", "resolve", "obstructions"):
        code, out, err = run(capsys, command, str(path), "--complete")
        assert code == 4
        assert not out
        assert err == ("error: relation x + 8/3*y + 2/3 has leading monomial "
                       "of length 1; eliminate the generator instead of "
                       "relating it to lower terms\n")


def test_leading_words_not_an_antichain_exit_4(capsys, tmp_path):
    # x*x divides x*x*y: the rules are confluent, so gb-check accepts them,
    # but their leading words are no anti-chain, which the commands that
    # read the obstructions need; --complete interreduces x*x*y away
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({"generators": ["x", "y"],
                                "relations": ["x*x", "x*x*y"]}))
    code, out, _ = run(capsys, "gb-check", str(path))
    assert code == 0 and out.startswith("status: verified\n")
    for command, *rest in (("chains", "--degree", "2"), ("normal-words",),
                           ("obstructions",)):
        code, out, err = run(capsys, command, str(path), *rest)
        assert code == 4
        assert not out
        assert err == "error: rule leading monomials are not an anti-chain\n"
    code, out, _ = run(capsys, "chains", str(path), "--complete",
                       "--degree", "2")
    assert (code, out) == (0, "xx\n")


def test_gb_complete(capsys):
    code, out, _ = run(capsys, "gb-complete", NONCONFLUENT)
    assert code == 0
    assert out.splitlines() == [
        "degree-bound: 7",
        "rule: x*x - x",
        "rule: x*y - y",
        "rule: y*x - x",
        "rule: y*y - y",
    ]


def test_gb_complete_bound_exceeded(capsys):
    code, out, err = run(capsys, "gb-complete", NONCONFLUENT, "--max-degree", "1")
    assert code == 3
    assert "weight 2 > bound 1" in err


def test_normal_words(capsys):
    code, out, _ = run(capsys, "normal-words", RUNNING, "--max-length", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "counts: 1 3 9"
    assert lines[1:] == ["1", "x", "y", "z", "xx", "xy", "xz", "yx", "yy",
                         "yz", "zx", "zy", "zz"]


def test_obstructions(capsys):
    code, out, _ = run(capsys, "obstructions", RUNNING)
    assert code == 0
    assert out.splitlines() == ["xxx", "yxz", "xxyx"]


def test_chain_graph(capsys):
    code, out, _ = run(capsys, "chain-graph", RUNNING)
    assert code == 0
    lines = out.splitlines()
    assert "node: xyx" in lines
    assert "edge: x -> xyx [xxyx]" in lines
    assert "edge: 1 -> z" in lines
    assert len([l for l in lines if l.startswith("node:")]) == 8
    assert len([l for l in lines if l.startswith("edge:")]) == 14


def test_chain_graph_dot(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "chain-graph", RUNNING, "--dot", str(target))
    assert code == 0
    dot = target.read_text()
    assert dot.startswith("digraph chain_graph {")
    assert '"yx" -> "xyx" [label="xxyx"];' in dot


def test_chains(capsys):
    code, out, _ = run(capsys, "chains", RUNNING, "--degree", "3")
    assert code == 0
    assert out.splitlines() == ["xxxx", "xxyxz", "xxxyx", "xxyxxx", "xxyxxyx"]


def test_resolve(capsys):
    code, out, _ = run(capsys, "resolve", RUNNING, "--degree", "2")
    assert code == 0
    assert out.splitlines() == [
        "d2(yxz) = [y | xz] - [y | x]",
        "d2(xxx) = [x | xx] - [x | x]",
        "d2(xxyx) = [x | xyx]",
    ]


def test_resolve_show_homotopy(capsys):
    code, out, _ = run(capsys, "resolve", RUNNING, "--degree", "2",
                       "--show-homotopy")
    assert code == 0
    assert "i1(d2(xxx)) = [xxx | 1]" in out.splitlines()


def test_resolve_high_degree_stays_flat(capsys):
    # d_n is built from the lower differentials; they are filled in
    # ascending degree, so a high degree does not exhaust the call stack
    code, out, _ = run(capsys, "resolve", IDEMPOTENT, "--degree", "500")
    assert code == 0
    assert out == "d500(%s) = [%s | x]\n" % ("x" * 500, "x" * 499)


def test_resolve_gated_without_complete(capsys):
    code, out, err = run(capsys, "resolve", NONCONFLUENT, "--degree", "2")
    assert code == 2
    assert not out
    assert "not confluent" in err and "xyx" in err


def test_resolve_with_complete(capsys):
    code, out, _ = run(capsys, "resolve", NONCONFLUENT, "--degree", "2",
                       "--complete")
    assert code == 0
    assert out.splitlines() == [
        "d2(yy) = [y | y] - [y | 1]",
        "d2(yx) = [y | x] - [x | 1]",
        "d2(xy) = [x | y] - [y | 1]",
        "d2(xx) = [x | x] - [x | 1]",
    ]


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", RUNNING, "--degree", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree 1: 3 chains, ok"
    assert lines[-1] == "verified: degrees 1..4"


def test_verify_failure(capsys, monkeypatch):
    # [z | 1] added to d_2(xxx) breaks d d = 0 at degree 2
    eng, _ = doctored_engine(Presentation.load(RUNNING), "xxx", ("z", "1"))
    monkeypatch.setattr(anick.cli.ResolutionEngine, "from_presentation",
                        lambda pres, **kwargs: eng)
    code, out, _ = run(capsys, "verify", RUNNING, "--degree", "2")
    assert code == 2
    assert out.splitlines() == [
        "degree 1: 3 chains, ok",
        "degree 2: 3 chains, FAILED",
        "verification failed",
    ]


@pytest.mark.parametrize("command,degree", [
    ("verify", "0"), ("verify", "-1"), ("diagnose", "0"), ("diagnose", "-2")])
def test_reports_below_degree_one_exit_4(capsys, command, degree):
    code, out, err = run(capsys, command, RUNNING, "--degree", degree)
    assert code == 4
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def test_diagnose(capsys):
    code, out, _ = run(capsys, "diagnose", RUNNING, "--degree", "3")
    assert code == 0
    assert out.splitlines() == [
        "degree 1: zero",
        "degree 2: zero",
        "degree 3: nonzero",
        "  [xxyx <- xxyxz] = -1",
        "  [xxyx <- xxxyx] = 1",
        "not minimal at degrees: 3",
    ]


def test_diagnose_minimal_case(capsys):
    code, out, _ = run(capsys, "diagnose", MONOMIAL, "--degree", "4")
    assert code == 0
    assert out.splitlines()[-1] == "minimal through degree 4"


def test_diagnose_augmented_point(capsys):
    # with the augmentation at 1 the trivial module is projective, so the
    # resolution is non-minimal at every even degree
    code, out, _ = run(capsys, "diagnose", IDEMPOTENT, "--degree", "4")
    assert code == 0
    assert out.splitlines() == [
        "degree 1: zero",
        "degree 2: nonzero",
        "  [x <- xx] = 1",
        "degree 3: zero",
        "degree 4: nonzero",
        "  [xxx <- xxxx] = 1",
        "not minimal at degrees: 2, 4",
    ]


def test_json_reports(capsys):
    code, out, _ = run(capsys, "obstructions", RUNNING, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "obstructions"
    assert data["results"]["obstructions"] == ["xxx", "yxz", "xxyx"]
    assert data["status"] == 0
    assert len(data["digest"]) == 64
    assert "timings" not in data


def test_json_resolve(capsys):
    code, out, _ = run(capsys, "resolve", RUNNING, "--degree", "2",
                       "--format", "json")
    data = json.loads(out)
    vals = {d["chain"]: d["value"] for d in data["results"]["differentials"]}
    assert vals["xxyx"] == "[x | xyx]"


def test_output_is_deterministic(capsys):
    seen = set()
    for _ in range(3):
        _, out, _ = run(capsys, "resolve", RUNNING, "--degree", "4",
                        "--format", "json")
        seen.add(out)
    assert len(seen) == 1


def test_input_errors(capsys):
    code, _, err = run(capsys, "obstructions", "/nonexistent.json")
    assert code == 4
    assert "error:" in err
    code, _, err = run(capsys, "normal-words", RUNNING, "--max-length", "-2")
    assert code == 4


def test_bad_usage_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resolve"])
    assert exc.value.code == 4
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 4
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(
    p.name for p in (ROOT / "presentations").glob("*.json")))
def test_stdout_digests(capsys, name):
    path = str(ROOT / "presentations" / name)
    extra = ["--complete"] if name == "non_confluent.json" else []
    got = []
    for argv in (["resolve", "--show-homotopy", "--degree", "5", *extra],
                 ["diagnose", "--degree", "5", *extra],
                 ["normal-words", "--max-length", "8", *extra],
                 ["chain-graph", *extra],
                 ["chains", "--degree", "4", *extra],
                 ["gb-complete"]):
        code, out, _ = run(capsys, *argv, path)
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == STDOUT_DIGESTS[name]


# sha256 of the file `chain-graph --dot` writes (with --complete for the
# non-confluent one), recorded before to_dot lost its prune argument.
DOT_DIGESTS = {
    "idempotent_letter.json":
        "c6f5451c497f5e1f09771bf52872ed5a2cec08d45d9a38ab7e946d3b4be35032",
    "monomial.json":
        "6fe202adf6f31dd6f9b31072c8204997e5d781a2d2bf4ae7c9eb7ef9b7673091",
    "non_confluent.json":
        "a9183ed15a69e32ff3af267c87977e15c37889362a40958b061eb4f0e3ec6081",
    "poly4.json":
        "ea8d91c4759bc614ed8126c3a616fac724896f42bbd9407013ad4369ca247ac7",
    "running_example.json":
        "0a98b5c6bedef97c0793291c4b81dbb9dea7bce6d6d3302483aef2fa1549fd83",
    "s3_group.json":
        "e3ca5eabc27cf0e17d90cc2a4e39a627f86249b08cb9da7b88fd55a0ceab4a2c",
    "s3_group_gf2.json":
        "e3ca5eabc27cf0e17d90cc2a4e39a627f86249b08cb9da7b88fd55a0ceab4a2c",
    "s3_group_gf3.json":
        "e3ca5eabc27cf0e17d90cc2a4e39a627f86249b08cb9da7b88fd55a0ceab4a2c",
    "skew_poly3.json":
        "13ee1557a87e2350fcad5ec488f3b1fcd18bbc8be82b803a5a354002c0a08679",
    "skew_poly3_gf7.json":
        "13ee1557a87e2350fcad5ec488f3b1fcd18bbc8be82b803a5a354002c0a08679",
}


@pytest.mark.parametrize("name", sorted(DOT_DIGESTS))
def test_dot_digests(capsys, tmp_path, name):
    target = tmp_path / "graph.dot"
    extra = ["--complete"] if name == "non_confluent.json" else []
    code, _, _ = run(capsys, "chain-graph", str(ROOT / "presentations" / name),
                     *extra, "--dot", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == DOT_DIGESTS[name]


# sha256 of stdout of `resolve --degree 7 --show-homotopy`,
# `resolve --degree 3 --show-homotopy` and `verify --degree 9`, recorded
# before the word weight became len() for unit weights and the lift began
# to pick the least descending key. These go deeper into the resolution
# than STDOUT_DIGESTS. The running example's letters all weigh 1, so
# "running_example_z2.json", the same relations with z of weight 2, keeps
# the summed weight covered; it reorders the terms of the output.
DEEP_STDOUT_DIGESTS = {
    "s3_group.json": (
        "3f76759a3a0d5eb1988b8ac88c28631cefc08c375f754e769684464f7bc98e06",
        "5056718031d161f5a77e64e470c2b59645f887248022dbce03e2a610c0d94491",
        "c2c90c6dd372f775ea1dc90f3652491e819c18da6f1f79f615c8a07638cd5385"),
    "s3_group_gf3.json": (
        "0fe977bd904d16150d784b6d11036b39b404e64689d9fa31309f0bf7ca8e45ff",
        "82a5b40af9c84ee558243e3f9155cf00da8f51fe725c81c9e4d5daa53820d72d",
        "c2c90c6dd372f775ea1dc90f3652491e819c18da6f1f79f615c8a07638cd5385"),
    "running_example.json": (
        "147f1cae6792d2f34f7b8faebbded4b4d84856374828e53975a796a5456eea98",
        "864bf5075fc3dd192efc9d17042f4277c30afaed6a6498610fe15de636cba9fc",
        "e161a25c9507998b4e0ddc48e415e94e716b70b537b3141c673f0345e75d6f95"),
    "running_example_z2.json": (
        "95709d2b6f4a1328e08b24e568d0c9f48fd83a12dfcbce2e77465b90c9cbfd83",
        "82482427b01a1f9159af8a9177205f412349f77c0d466101c2927f7bd192735a",
        "e161a25c9507998b4e0ddc48e415e94e716b70b537b3141c673f0345e75d6f95"),
    "skew_poly3.json": (
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "6bf1f61513481f61551f49ece82ba0fb0ca9ef24283758ef227e3e4f475558a8",
        "14bb17ea57ba15409a69bf942a7d2419c78789639b5d988d0028aa838b175a82"),
}


@pytest.mark.parametrize("name", sorted(DEEP_STDOUT_DIGESTS))
def test_deep_stdout_digests(capsys, tmp_path, name):
    path = ROOT / "presentations" / name
    if name == "running_example_z2.json":
        data = json.loads((ROOT / "presentations"
                           / "running_example.json").read_text())
        data["weights"] = {"x": 1, "y": 1, "z": 2}
        path = tmp_path / name
        path.write_text(json.dumps(data))
    got = []
    for argv in (["resolve", "--degree", "7", "--show-homotopy"],
                 ["resolve", "--degree", "3", "--show-homotopy"],
                 ["verify", "--degree", "9"]):
        code, out, _ = run(capsys, *argv, str(path))
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == DEEP_STDOUT_DIGESTS[name]


# sha256 of stdout of `resolve --degree 1 --show-homotopy` and
# `resolve --degree 2 --show-homotopy` (with --complete for the
# non-confluent one), recorded before i_0 became a step of the lift. They
# print i_0 and d_1, and d_2, which is built with i_0.
LOW_STDOUT_DIGESTS = {
    "idempotent_letter.json": (
        "f01f844be122e44ed0c8f53f3a42e9044be6d734fa6cd9c8826fd41f0d46d28d",
        "c06976e2ee14ef6390feffaafea4120eb95bad072a17a1f78b57743c2281d845"),
    "monomial.json": (
        "caf8c38b34dd1c3be6e2181c5c76a3fe039143bc1361948a8a892c3961d6dd8e",
        "3c5e9f87733469acd82ff2f8c03e75f51fcc53c66f4869b639c9fa38ac69c253"),
    "non_confluent.json": (
        "caf8c38b34dd1c3be6e2181c5c76a3fe039143bc1361948a8a892c3961d6dd8e",
        "96ec82e6395b084360ec5200b0fab8dc0550dde26865ce5e8c1cc7f4a3f9b919"),
    "poly4.json": (
        "3ab4509aef3c979b0712310cb67c5b7ed898062589f0ebd6df65ecc54e99ee15",
        "3fa675a7e84beb9ca32e90832b6123dd55478781b1238e4b6aa63bb5d3b9af4f"),
    "running_example.json": (
        "27327fea932fd430cd2097ef06529ce6481c1fb8ecd97cb5654169c76b107d90",
        "24b4ba71c5dc47327b26ca2d82442347e067ce34a7b997f962557fc56cd1b98a"),
    "s3_group.json": (
        "fe9249452feea04e7cd996acda15cf1dc2c5c4e654835c4b256169cef748af56",
        "b5047d58b4d0fa6efc8d92ddad15ed329019ca6f73cae10df5ff333cb6a1b80b"),
    "s3_group_gf2.json": (
        "6ca3695f1f39bb0ed23b1e2fb7c39e0cf544e91a6d494aca8b08ccb7cd3b4e22",
        "e705c7c41a8222ab22ba6c91df116b497ad8f124ca42666b91ee59a0d5c6dd17"),
    "s3_group_gf3.json": (
        "4a340a80a681ed4aecd596784c70b24dc7caae8fd32081e583ddc9899faa2162",
        "874dfd841b5de52e02c55264d5fc492062cb203af997ffa1f5b38dccadd9fd1b"),
    "skew_poly3.json": (
        "45753616b862569675c4869b14a707fb518d68803c71bfa6218805391ca39582",
        "5718e7950c1c903983638a292d3b4c8c8fe0ab3f084ab425c793344bcbb87f4d"),
    "skew_poly3_gf7.json": (
        "4cb8d0657825ec2a645cd87b74b86a3cbc9fe47ecb09d6d590c57d5aff6d2044",
        "188b9fd159f0271f5ef13f0375648363ead8c0934b2d0eb3be7b0528031c0e88"),
}


@pytest.mark.parametrize("name", sorted(LOW_STDOUT_DIGESTS))
def test_low_degree_stdout_digests(capsys, name):
    extra = ["--complete"] if name == "non_confluent.json" else []
    got = []
    for degree in ("1", "2"):
        code, out, _ = run(capsys, "resolve", "--degree", degree,
                           "--show-homotopy", *extra,
                           str(ROOT / "presentations" / name))
        assert code == 0
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(got) == LOW_STDOUT_DIGESTS[name]


XYZ = str(ROOT / "perfbench" / "inputs" / "xyz.json")


# exit code and sha256 of stdout, recorded before normal forms became a
# memoised one-step recursion. Completion and the failing check reduce
# through systems that are not confluent, where every word met on the way
# is cached.
@pytest.mark.parametrize("argv, code, digest", [
    (["gb-complete", XYZ, "--max-degree", "10"], 0,
     "30a9078f508f79f578870fb02bb7687669f9fe476af3d7d3b6efc1445ad1fbac"),
    (["gb-complete", XYZ, "--max-degree", "10", "--format", "json"], 0,
     "eb9dd8b7bcd30797f67cd4e60d860bb0df5cc2b01a6f13db22aa059acd12c726"),
    (["gb-check", NONCONFLUENT, "--format", "json"], 2,
     "c14057ca40f7eb92ad089471d6d3ffe41ad86d2058d185fa5cbd896c437bed35"),
], ids=["gb-complete-xyz-text", "gb-complete-xyz-json",
        "gb-check-non-confluent-json"])
def test_groebner_stdout_digests(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fractional_coefficients_render(capsys):
    # a skew polynomial ring with a fractional augmentation: its scalars
    # are fractions, which print as p/q wherever they appear
    path = str(ROOT / "presentations" / "skew_poly3.json")
    counts = []
    for n in range(5):
        code, out, _ = run(capsys, "chains", "--degree", str(n), path)
        assert code == 0
        counts.append(len(out.split()))
    assert counts == [1, 3, 3, 1, 0]
    _, out, _ = run(capsys, "diagnose", "--degree", "3", path)
    assert "[z <- xz] = -1/4" in out and "[y <- xy] = 1/6" in out
    _, out, _ = run(capsys, "resolve", "--degree", "3", path)
    assert out.endswith("- 1/2·[yz | 1]\n")


@pytest.mark.parametrize("data", [
    {"generators": ["x"], "relations": ["1/0*x*x"]},
    {"generators": ["x"], "relations": ["x*x"],
     "augmentation": {"x": "1/0"}},
    {"generators": ["x"], "relations": [5]},
    {"generators": ["x"], "relations": ["x*x"], "field": "rational"},
    {"generators": ["x"], "relations": ["x*x"],
     "field": {"type": "prime", "p": 10 ** 24 + 7}},
    {"generators": ["x", "y"], "relations": ["x*y"], "weights": {"x": 2.5}},
    {"generators": ["x", "y"], "relations": ["x*y"], "weights": {"x": True}},
    {"generators": ["x", "y"], "relations": ["x*y"], "weights": {"x": "2"}},
    {"generators": ["x", "y"], "relations": ["x*y"], "weights": {"z": 3}},
    {"generators": ["x", "y"], "relations": ["x*y"], "weights": 0.0},
    {"generators": ["x", "y"], "relations": ["y*y"],
     "augmentation": {"x": 0.1}},
    {"generators": ["x", "y"], "relations": ["y*y"],
     "augmentation": {"x": True}},
    {"generators": ["x", "y"], "relations": ["y*y"],
     "field": {"type": "prime", "p": 3}, "augmentation": {"x": 2.5}},
    {"generators": ["x", "y"], "relations": ["y*y"],
     "augmentation": {"x": "1.5"}},
    {"generators": ["x", "y"], "relations": ["y*y"],
     "augmentation": {"x": " 1"}},
    {"generators": ["x", "y"], "relations": ["y*y"],
     "augmentation": {"x": "+"}},
    {"generators": ["x", "y"], "relations": ["y*y"],
     "augmentation": {"x": ""}},
], ids=["relation-1/0", "augmentation-1/0", "relation-int", "field-string",
        "modulus-too-large", "weight-float", "weight-bool", "weight-string",
        "weight-unknown-letter", "weights-number", "augmentation-float",
        "augmentation-bool", "augmentation-float-gf3",
        "augmentation-decimal-string", "augmentation-padded-string",
        "augmentation-sign-only", "augmentation-empty-string"])
def test_malformed_input_exits_4(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "gb-check", str(path))
    assert code == 4
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deeply_nested_json_exits_4(capsys, tmp_path):
    # json.load recurses once per bracket; the recursion limit it hits
    # is reported as bad JSON, not as a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run(capsys, "gb-check", str(path))
    assert code == 4
    assert not out
    assert err.startswith("error: bad JSON: ") and err.count("\n") == 1


def test_exponent_augmentation_exits_4_at_once(tmp_path):
    # an augmentation string is read like a relation's coefficient, an
    # optional sign and then p or p/q; Fraction alone would take
    # "1e9999999" and spend seconds and memory on its ten-million-digit
    # numerator
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({
        "generators": ["x"], "relations": ["x*x"],
        "field": {"type": "prime", "p": 2},
        "augmentation": {"x": "1e9999999"}}))
    proc, lines, took = _timed_main("chains", path, "--degree", "2")
    assert proc.returncode == 4
    assert proc.stderr == ("error: augmentation of x is not an integer or "
                           "p/q: '1e9999999'\n")
    assert lines == []
    assert took < 1.0


def test_timings_only_on_stderr(capsys):
    _, out, err = run(capsys, "verify", RUNNING, "--degree", "2")
    assert "elapsed" not in out
    assert "# elapsed:" in err


# sha256 of stdout of `resolve s3_group.json --degree 11` and `diagnose
# s3_group_gf3.json --degree 11`, text and json, the degree of the
# benchmark's S3 workloads; recorded before resolution terms named their
# chain by its position in its degree.
@pytest.mark.parametrize("argv, digest", [
    (["resolve", "s3_group.json"],
     "d1c615f1853e8f2aa422d864f6c6a797227702064d28da94bf7b5faa652b3490"),
    (["resolve", "s3_group.json", "--format", "json"],
     "c7bca993f7e4ffe01bbeea7c3acee3b4bcf2062de5e003aadb86f0fc2a59957e"),
    (["diagnose", "s3_group_gf3.json"],
     "83273ba23fbeac29418d64908ed835b6c46bc6b94d2fa61333733f0c13fee437"),
    (["diagnose", "s3_group_gf3.json", "--format", "json"],
     "bde481268d25dfd0d0f7aaa548a5fb587a16b4a7ce23633e2e424a053c53d88a"),
])
def test_benchmark_degree_stdout_digests(capsys, argv, digest):
    command, name, *rest = argv
    code, out, _ = run(capsys, command, str(ROOT / "presentations" / name),
                       "--degree", "11", *rest)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _limit_memory():
    cap = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _timed_main(*argv):
    """Run cli.main on argv in a child with a capped address space; return
    the child, its stdout lines before the last, and the seconds main took,
    interpreter start-up excluded."""
    script = ("import sys, time\n"
              "from anick.cli import main\n"
              "t0 = time.perf_counter()\n"
              "code = main(sys.argv[1:])\n"
              "print('took %f' % (time.perf_counter() - t0))\n"
              "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=_limit_memory)
    *lines, took = proc.stdout.splitlines()
    label, seconds = took.split()
    assert label == "took"
    return proc, lines, float(seconds)


# each listing is counted before it is built; without that, these commands
# take all the memory there is, so they run in a child with a capped
# address space. Counting stops at the first degree or length over the
# cap, so a huge bound is refused as fast as a small one.
@pytest.mark.parametrize("argv, count, what", [
    (["resolve", "s3_group.json", "--degree", "40"], 1048577,
     "degree-21 chains"),
    (["normal-words", "commuting.json", "--max-length", "30"], 1346268,
     "normal words of length at most 14"),
    (["resolve", "s3_group.json", "--degree", "100000"], 1048577,
     "degree-21 chains"),
    (["verify", "s3_group.json", "--degree", "100000"], 1048577,
     "degree-21 chains"),
    (["normal-words", "commuting.json", "--max-length", "100000"], 1346268,
     "normal words of length at most 14"),
    (["normal-words", "s3_group.json", "--max-length", "1000000"], 1000001,
     "normal-word counts"),
])
def test_oversized_listings_exit_3(tmp_path, argv, count, what):
    (tmp_path / "commuting.json").write_text(json.dumps(
        {"generators": ["x", "y", "z"], "relations": ["x*y - y*x"]}))
    command, name, *rest = argv
    path = tmp_path / name if name == "commuting.json" else \
        ROOT / "presentations" / name
    proc, lines, took = _timed_main(command, path, *rest)
    assert proc.returncode == 3
    assert proc.stderr == "error: %d %s exceed the cap of %d items\n" % (
        count, what, MAX_ITEMS)
    assert lines == []
    assert took < 1.0


# each degree's chains grow from the degree below, and the listing guard
# reads one count per degree once, so a complex with few chains per degree
# (two on monomial.json, none above degree 4 on poly4.json) verifies in
# time about linear in the degree
@pytest.mark.parametrize("name, degree", [("monomial.json", 1000),
                                          ("poly4.json", 4000)])
def test_verify_is_fast_at_high_degrees(name, degree):
    proc, lines, took = _timed_main("verify", ROOT / "presentations" / name,
                                    "--degree", degree)
    assert proc.returncode == 0
    assert len(lines) == degree + 1
    assert lines[-1] == "verified: degrees 1..%d" % degree
    assert took < 1.0


# completion resolves the ambiguities of one weight together, with one
# echelon step, where adding one rule per round took about 28 s at weight
# 14 (2-core x86 VM)
@pytest.mark.parametrize("bound, rules", [(8, 31), (10, 78), (12, 197),
                                          (14, 524)])
def test_complete_is_fast_at_high_weights(bound, rules):
    proc, lines, took = _timed_main("gb-complete", XYZ, "--max-degree",
                                    bound)
    assert proc.returncode == 0
    assert lines[0] == "degree-bound: %d" % bound
    assert [line[:6] for line in lines[1:]] == ["rule: "] * rules
    assert took < 10.0


def test_import_leaves_hashlib_out():
    # only json output digests the presentation, so hashlib loads there;
    # -S keeps site-packages start-up hooks out of the count
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, anick, anick.cli; print('hashlib' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "False\n"


def test_import_leaves_dataclasses_out():
    # the cold start of every command: importing the package loads none
    # of dataclasses and what it pulls in; the set is diffed against the
    # modules loaded before the import, so site start-up hooks don't count
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import anick, anick.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0
    added = set(proc.stdout.split())
    assert "anick.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
