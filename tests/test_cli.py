import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import biquiver
import biquiver.morphisms

from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix, apply_base_change, direct_sum_list,
                      random_representation, roots_with_value, serialize_biquiver,
                      serialize_representation)
from biquiver.cli import main
from biquiver.tits import MAX_GRAM_VERTICES, definiteness, gram_matrix
from conftest import (biq, cycle_biquiver, gmat, mat, path_biquiver, random_unimodular,
                      star_biquiver)

LEDGER = Path(__file__).resolve().parent / "ledger"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def a3_file(tmp_path):
    p = tmp_path / "a3.json"
    p.write_text(serialize_biquiver(path_biquiver(3, dashed=(2,))))
    return str(p)


@pytest.fixture
def a2_file(tmp_path):
    p = tmp_path / "a2.json"
    p.write_text(serialize_biquiver(path_biquiver(2)))
    return str(p)


def test_classify(run, a3_file):
    code, out, _ = run("classify", a3_file)
    assert code == 0
    assert json.loads(out) == {"kind": "Finite", "diagram": "A3",
                               "definiteness": "PositiveDefinite"}


def test_classify_long_path_within_seconds(run, tmp_path):
    # definiteness comes from the type, not from eliminating a 2000 x 2000 form
    p = tmp_path / "path.json"
    p.write_text(serialize_biquiver(path_biquiver(2000)))
    start = time.perf_counter()
    code, out, _ = run("classify", str(p))
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out) == {"kind": "Finite", "diagram": "A2000",
                               "definiteness": "PositiveDefinite"}


@pytest.mark.parametrize("command", [["tits"], ["roots", "--value", "1"]])
def test_tits_and_roots_refuse_a_form_past_the_vertex_cap(run, tmp_path, command):
    p = tmp_path / "path.json"
    p.write_text(serialize_biquiver(path_biquiver(MAX_GRAM_VERTICES + 1)))
    code, out, err = run(command[0], str(p), *command[1:])
    assert (code, out) == (3, "")
    assert err == ("error: the Tits form has 257 vertices, past the cap of 256 "
                   "that its elimination accepts\n")


def test_tits_answers_at_the_vertex_cap(run, tmp_path):
    p = tmp_path / "path.json"
    p.write_text(serialize_biquiver(path_biquiver(MAX_GRAM_VERTICES)))
    code, out, _ = run("tits", str(p))
    assert code == 0
    doc = json.loads(out)
    assert (doc["t"], doc["definiteness"], doc["radical"]) == (256, "PositiveDefinite", None)


def _connected_multigraph(rng):
    """A random spanning tree on 1 to 9 vertices plus up to three loops,
    parallel copies of its arrows or arbitrary arrows, kinds and directions random."""
    t = rng.randint(1, 9)
    ends = [(rng.randint(1, v - 1), v) for v in range(2, t + 1)]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        u = rng.randint(1, t)
        ends.append(rng.choice([(u, u), rng.choice(ends or [(u, u)]), (u, rng.randint(1, t))]))
    arrows = tuple(Arrow(f"a{k}", *(ends[k] if rng.random() < 0.5 else ends[k][::-1]),
                         rng.choice((ArrowKind.FULL, ArrowKind.DASHED)))
                   for k in range(len(ends)))
    return Biquiver(t, arrows)


def test_classify_definiteness_matches_the_tits_form(run, tmp_path):
    rng = random.Random(2024)
    p = tmp_path / "g.json"
    seen = []
    for _ in range(400):
        g = _connected_multigraph(rng)
        p.write_text(serialize_biquiver(g))
        code, out, _ = run("classify", str(p))
        assert code == 0
        printed = json.loads(out)["definiteness"]
        assert printed == definiteness(gram_matrix(g)).value, serialize_biquiver(g)
        seen.append(printed)
    assert min(seen.count(d) for d in ("PositiveDefinite", "PositiveSemidefinite",
                                       "Indefinite")) >= 20


def test_classify_disconnected_exit_3(run, tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"vertices":3,"arrows":[{"id":"a","from":1,"to":2,"kind":"full"}]}')
    code, _, err = run("classify", str(p))
    assert code == 3
    assert "connected" in err


def test_classify_components(run, tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"vertices":3,"arrows":[{"id":"a","from":1,"to":2,"kind":"full"}]}')
    code, out, _ = run("classify", str(p), "--components")
    assert code == 0
    comps = json.loads(out)["components"]
    assert [c["vertices"] for c in comps] == [[1, 2], [3]]
    assert [c["diagram"] for c in comps] == ["A2", "A1"]


def test_roots_bare_array(run, a2_file):
    code, out, _ = run("roots", a2_file, "--value", "1")
    assert code == 0
    assert json.loads(out) == [[0, 1], [1, 0], [1, 1]]


def test_roots_needs_bound_exit_3(run, tmp_path):
    p = tmp_path / "c.json"
    p.write_text(serialize_biquiver(cycle_biquiver(3)))
    code, _, err = run("roots", str(p), "--value", "0")
    assert code == 3
    assert "bound" in err


def test_roots_negative_bound_exit_3(run, tmp_path):
    p = tmp_path / "c.json"
    p.write_text(serialize_biquiver(cycle_biquiver(3)))
    code, out, err = run("roots", str(p), "--value", "1", "--bound", "-1")
    assert code == 3
    assert out == ""
    assert "bound" in err


@pytest.mark.parametrize("option, value, word", [("--trials", "-3", "trials")])
@pytest.mark.parametrize("command", ["decompose", "iso"])
def test_rep_sampling_parameters_exit_3(run, tmp_path, command, option, value, word):
    # the dashed loop diag(1, 2) is decomposable, so a Monte Carlo answer
    # from a bad parameter would be wrong, not merely unlucky
    rep = tmp_path / "r.json"
    rep.write_text(
        '{"biquiver":{"vertices":1,"arrows":[{"id":"a","from":1,"to":1,"kind":"dashed"}]},'
        '"dims":[2],"matrices":{"a":[[["1","0"],["0","0"]],[["0","0"],["2","0"]]]}}')
    files = [str(rep)] if command == "decompose" else [str(rep), str(rep)]
    code, out, err = run("rep", command, *files, option, value)
    assert code == 3
    assert out == ""
    assert word in err


@pytest.mark.parametrize("command", ["decompose", "iso"])
def test_rep_sampling_takes_no_coefficient_bound_exit_1(run, tmp_path, command):
    # the coefficient bound of the samples is a constant, so --bound, which
    # `roots` reads as its coordinate cap, is no option of rep iso or decompose
    rep = _write(tmp_path, "r.json", serialize_representation(biquiver.MatrixRepresentation(
        biq(1, "a:1>1"), (1,), {"a": mat([1])})))
    files = [rep] if command == "decompose" else [rep, rep]
    code, out, err = run("rep", command, *files, "--bound", "1")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --bound 1" in err


def test_tits_output(run, a2_file):
    code, out, _ = run("tits", a2_file, "--evaluate", "1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["gram"] == [["1", "-1/2"], ["-1/2", "1"]]
    assert obj["definiteness"] == "PositiveDefinite"
    assert obj["radical"] is None
    assert obj["value"] == 1


# a double edge 1 - 2 of both kinds, an edge 2 -> 3 and a dashed loop at 3:
# Q holds 1, 0, -1 and -1/2, and the loop makes it indefinite
GOLDEN_BIQUIVER = ('{"vertices":3,"arrows":[{"id":"a","from":1,"to":2,"kind":"full"},'
                   '{"id":"b","from":2,"to":1,"kind":"dashed"},'
                   '{"id":"c","from":2,"to":3,"kind":"full"},'
                   '{"id":"l","from":3,"to":3,"kind":"dashed"}]}')


@pytest.mark.parametrize("doc, argv, want", [
    (GOLDEN_BIQUIVER, ["tits", "--evaluate", "1,2,3"],
     '{"definiteness":"Indefinite","gram":[["1","-1","0"],["-1","1","-1/2"],'
     '["0","-1/2","0"]],"radical":null,"t":3,"value":-5,"vector":[1,2,3]}\n'),
    (GOLDEN_BIQUIVER, ["roots", "--value", "0", "--bound", "2"],
     '[[0,0,1],[0,0,2],[0,1,1],[0,2,2],[1,1,0],[2,1,1],[2,2,0]]\n'),
    (GOLDEN_BIQUIVER, ["roots", "--value", "1", "--bound", "2"],
     '[[0,1,0],[1,0,0],[1,0,1],[1,0,2],[1,2,0],[2,1,0]]\n'),
    ('{"vertices":2,"arrows":[{"id":"a","from":1,"to":2,"kind":"full"},'
     '{"id":"b","from":2,"to":1,"kind":"dashed"}]}', ["tits"],
     '{"definiteness":"PositiveSemidefinite","gram":[["1","-1"],["-1","1"]],'
     '"radical":[1,1],"t":2}\n'),
], ids=["tits-loop-double-edge", "roots-0", "roots-1", "tits-double-edge"])
def test_tits_and_roots_golden(run, tmp_path, doc, argv, want):
    path = _write(tmp_path, "g.json", doc)
    code, out, err = run(argv[0], path, *argv[1:])
    assert (code, out, err) == (0, want, "")


def test_conjugate_and_eliminate(run, tmp_path, a3_file):
    code, out, _ = run("conjugate", a3_file, "--vertex", "3")
    assert code == 0
    kinds = [a["kind"] for a in json.loads(out)["arrows"]]
    assert kinds == ["full", "full"]

    code, out, _ = run("eliminate", a3_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "plan"
    assert obj["vertices"] == [3]
    assert all(a["kind"] == "full" for a in obj["biquiver"]["arrows"])


def test_eliminate_impossible(run, tmp_path):
    p = tmp_path / "c.json"
    p.write_text(serialize_biquiver(cycle_biquiver(3, dashed=(1,))))
    code, out, _ = run("eliminate", str(p))
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "impossible"
    assert "parity" in obj["reason"]


def test_parse_error_exit_2(run, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run("classify", str(p))
    assert code == 2
    assert "JSON" in err


def test_missing_file_exit_2(run):
    code, _, err = run("classify", "/nonexistent/file.json")
    assert code == 2


def test_usage_error_exit_1(run):
    code, _, err = run("frobnicate")
    assert code == 1


def test_rep_pipeline_random_validate_iso(run, tmp_path, a3_file):
    code, out, _ = run("rep", "random", a3_file, "--dims", "1,1,1", "--seed", "4")
    assert code == 0
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(out)

    code, out2, _ = run("rep", "validate", str(rep_file))
    assert code == 0
    assert json.loads(out2) == {"valid": True, "dims": [1, 1, 1]}

    code, out3, _ = run("rep", "iso", str(rep_file), str(rep_file), "--seed", "7")
    assert code == 0
    obj = json.loads(out3)
    assert obj["verdict"] == "Yes"
    assert "S" in obj["certificate"]


def test_rep_sum_and_hom(run, tmp_path, a2_file):
    code, out, _ = run("rep", "random", a2_file, "--dims", "1,1", "--seed", "0")
    rep_file = tmp_path / "r.json"
    rep_file.write_text(out)
    code, out, _ = run("rep", "sum", str(rep_file), str(rep_file))
    assert code == 0
    assert json.loads(out)["dims"] == [2, 2]

    code, out, _ = run("rep", "hom", str(rep_file), str(rep_file))
    assert code == 0
    assert json.loads(out)["dimension"] >= 1


def test_rep_decompose(run, tmp_path, a2_file):
    code, out, _ = run("rep", "random", a2_file, "--dims", "1,1", "--seed", "1")
    rep_file = tmp_path / "r.json"
    rep_file.write_text(out)
    code, out, _ = run("rep", "decompose", str(rep_file), "--seed", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 5
    assert len(obj["summands"]) == len(obj["statuses"])


def test_gadget_subcommands(run, tmp_path):
    m = tmp_path / "m.json"
    m.write_text('[[["0","0"]]]')
    code, out, _ = run("gadget", "g1", str(m), str(m))
    assert code == 0
    obj = json.loads(out)
    assert obj["dims"] == [2, 1]
    assert obj["biquiver"]["vertices"] == 2

    cyc = tmp_path / "cyc.json"
    cyc.write_text(serialize_biquiver(cycle_biquiver(3)))
    mm = tmp_path / "mm.json"
    mm.write_text('[[["2","0"]]]')
    code, out, _ = run("gadget", "cycle", str(cyc), "--arrows", "e1,e2,e3",
                       "--matrix", str(mm))
    assert code == 0
    assert json.loads(out)["dims"] == [1, 1, 1]


def test_byte_identical_output(run, a3_file, tmp_path):
    outs = set()
    for _ in range(3):
        code, out, _ = run("classify", a3_file)
        outs.add(out)
    assert len(outs) == 1

    code, out1, _ = run("rep", "random", a3_file, "--dims", "2,1,2", "--seed", "3")
    code, out2, _ = run("rep", "random", a3_file, "--dims", "2,1,2", "--seed", "3")
    assert out1 == out2
    r = tmp_path / "r.json"
    r.write_text(out1)
    code, d1, _ = run("rep", "decompose", str(r), "--seed", "2")
    code, d2, _ = run("rep", "decompose", str(r), "--seed", "2")
    assert d1 == d2


# (biquiver, dims, matrices of a, matrices of b, extra arguments, stdout): one
# certified No per kind of rank invariant, then a Yes, a No from End
# dimensions and a ProbablyNo that the rank profile leaves to the sampler,
# whose output it does not change
ISO_GOLDEN = [
    (biq(2, "a:1>2"), (1, 1), {"a": mat([1])}, {"a": mat([0])}, [],
     '{"reason":"rank of arrow a differs: 1 vs 0","verdict":"No"}\n'),
    (biq(3, "a:1>2", "b:1~3"), (2, 1, 1), {"a": mat([1, 0]), "b": mat([0, 1])},
     {"a": mat([1, 0]), "b": mat([1, 0])}, [],
     '{"reason":"kernel-meet rank of a,b at vertex 1 differs: 2 vs 1","verdict":"No"}\n'),
    # the dashed b maps onto conj(im B): [1, i] and [1, -i] span a plane
    # with a = [1, i], while [1, i] and conj([1, -i]) span a line
    (biq(3, "a:2>1", "b:3~1"), (2, 1, 1),
     {"a": gmat([(1, 0)], [(0, 1)]), "b": gmat([(1, 0)], [(0, 1)])},
     {"a": gmat([(1, 0)], [(0, 1)]), "b": gmat([(1, 0)], [(0, -1)])}, [],
     '{"reason":"image-sum rank of a,b at vertex 1 differs: 2 vs 1","verdict":"No"}\n'),
    # consimilarity: rank A conj(A) is 0 for the nilpotent A, 1 for B
    (biq(1, "a:1~1"), (2,), {"a": mat([0, 1], [0, 0])}, {"a": mat([1, 0], [0, 0])}, [],
     '{"reason":"rank along path a,a differs: 0 vs 1","verdict":"No"}\n'),
    (biq(1, "a:1~1"), (1,), {"a": gmat([(0, 1)])}, {"a": mat([1])}, ["--seed", "1"],
     '{"certificate":{"S":[[[["-1/11196","1/11196"]]]]},"seed":1,"trials":1,"verdict":"Yes"}\n'),
    (biq(1, "a:1>1"), (2,), {"a": mat([1, 0], [0, 2])}, {"a": mat([1, 0], [0, 3])},
     ["--trials", "4", "--seed", "9"],
     '{"reason":"dim End(a) = 4 differs from dim Hom(a, b) = 2","verdict":"No"}\n'),
    # no samples at all: the ProbablyNo still records them
    (biq(1, "a:1>1"), (2,), {"a": mat([1, 0], [0, 2])}, {"a": mat([2, 0], [0, 1])},
     ["--trials", "0", "--seed", "4"],
     '{"reason":"no invertible morphism found in 0 samples","seed":4,"trials":0,'
     '"verdict":"ProbablyNo"}\n'),
]


@pytest.mark.parametrize("g, dims, mats_a, mats_b, extra, want", ISO_GOLDEN,
                         ids=["arrow", "kernel-meet", "image-sum", "path", "yes", "end-dimension",
                              "no-trials"])
def test_rep_iso_golden(run, tmp_path, g, dims, mats_a, mats_b, extra, want):
    paths = [_write(tmp_path, f"{name}.json", serialize_representation(
        biquiver.MatrixRepresentation(g, dims, mats))) for name, mats in (("a", mats_a),
                                                                          ("b", mats_b))]
    assert run("rep", "iso", *paths, *extra) == (0, want, "")


def test_emitted_certificate_reverifies(run, tmp_path, a3_file):
    # certificates printed by `rep iso` satisfy the base-change equations
    from biquiver import parse_representation, parse_matrix_obj, apply_base_change
    code, out, _ = run("rep", "random", a3_file, "--dims", "1,2,1", "--seed", "8")
    a_file = tmp_path / "a.json"
    a_file.write_text(out)
    a = parse_representation(out)
    code, out, _ = run("rep", "iso", str(a_file), str(a_file), "--seed", "2")
    obj = json.loads(out)
    assert obj["verdict"] == "Yes"
    s = [parse_matrix_obj(m) for m in obj["certificate"]["S"]]
    assert apply_base_change(a, s) == a


def test_pretty_flag(run, a2_file):
    code, out, _ = run("classify", a2_file, "--pretty")
    assert code == 0
    assert "\n" in out.strip()
    assert json.loads(out)["diagram"] == "A2"


def test_rep_iso_with_external_biquiver(run, tmp_path, a2_file):
    rep = random_representation(path_biquiver(2), (1, 1), 2, 3)
    bare = tmp_path / "bare.json"
    bare.write_text(serialize_representation(rep, embed_biquiver=False))
    code, _, err = run("rep", "validate", str(bare))
    assert code == 2  # no biquiver anywhere
    code, out, _ = run("rep", "validate", str(bare), "--biquiver", a2_file)
    assert code == 0


def test_python_dash_m_runs_the_cli(tmp_path):
    # the README's a3 example, run as a module rather than as the installed script
    g = tmp_path / "a3.json"
    g.write_text('{"vertices":3,"arrows":[{"id":"e1","from":1,"to":2,"kind":"full"},\n'
                 '                        {"id":"e2","from":2,"to":3,"kind":"dashed"}]}\n')
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 3, "arrows": [')
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}

    def module_run(path):
        return subprocess.run([sys.executable, "-m", "biquiver", "classify", str(path)],
                              capture_output=True, text=True, env=env)

    ok = module_run(g)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout == '{"definiteness":"PositiveDefinite","diagram":"A3","kind":"Finite"}\n'
    malformed = module_run(bad)
    assert malformed.returncode == 2
    assert malformed.stderr.startswith("error:")


def test_closed_stdout_exits_141_quietly():
    # the reader of the pipe is gone before the document is written, as after
    # `| head -c 10`: no error line, and the exit status of a SIGPIPE death
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}
    try:
        proc = subprocess.run([sys.executable, "-m", "biquiver", "rep", "decompose",
                               str(LEDGER / "e6.s1.json"), "--seed", "0"],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_non_utf8_file_exit_2(run, tmp_path):
    p = tmp_path / "b.json"
    p.write_bytes(b"\xff\xfe")
    code, _, err = run("classify", str(p))
    assert code == 2
    assert "UTF-8" in err


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


DEEP = "[" * 100000 + "]" * 100000
LONG_INT = '{"vertices": ' + "1" * 5000 + "}"
LONG_RATIONAL = '[[["' + "1" * 5000 + '","0"]]]'
LONG_RATIONAL_REP = ('{"dims":[1],"matrices":{"a":' + LONG_RATIONAL + '},"biquiver":'
                     '{"vertices":1,"arrows":[{"id":"a","from":1,"to":1,"kind":"full"}]}}')

# (document, argv with "F" standing for the document's path, word in the error)
MALFORMED = [
    pytest.param(DEEP, ["classify", "F"], "nested", id="deep-classify"),
    pytest.param(DEEP, ["rep", "validate", "F"], "nested", id="deep-rep-validate"),
    pytest.param(DEEP, ["gadget", "g1", "F", "F"], "nested", id="deep-gadget-g1"),
    pytest.param(LONG_INT, ["classify", "F"], "digits", id="long-int-classify"),
    pytest.param(LONG_RATIONAL_REP, ["rep", "validate", "F"], "5000", id="long-rational-rep"),
    pytest.param(LONG_RATIONAL, ["gadget", "g1", "F", "F"], "5000", id="long-rational-gadget"),
]


@pytest.mark.parametrize("doc, argv, word", MALFORMED)
def test_malformed_document_exit_2(run, tmp_path, doc, argv, word):
    path = _write(tmp_path, "doc.json", doc)
    code, out, err = run(*[path if a == "F" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and word in err


def test_malformed_documents_through_python_dash_m(tmp_path):
    # recursion depth differs between pytest and a plain interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(biquiver.__file__).resolve().parent.parent)}
    for param in MALFORMED:
        doc, argv, word = param.values
        path = _write(tmp_path, "doc.json", doc)
        proc = subprocess.run([sys.executable, "-m", "biquiver",
                               *[path if a == "F" else a for a in argv]],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2, (param.id, proc.stderr[-300:])
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, param.id
        assert "Traceback" not in proc.stderr and word in proc.stderr, param.id


# (document, argv with "F" standing for the document's path, exit code):
# each error message quotes a long input value
A_LOOP = '{"vertices":1,"arrows":[{"id":"a","from":1,"to":1,"kind":"full"}]}'
A_LOOP_REP = '{"dims":[1],"matrices":{"a":[[["1","0"]]]},"biquiver":' + A_LOOP + '}'
LONG_NUMBER = "1" + "0" * 4000  # digits int() still converts
LONG_ECHOES = [
    pytest.param('{"vertices":' + json.dumps([0] * 100000) + ',"arrows":[]}',
                 ["classify", "F"], 2, id="vertices-list"),
    pytest.param(A_LOOP_REP.replace('"1"', '"' + "0" * 3000 + '1"'),
                 ["rep", "validate", "F"], 2, id="noncanonical-rational"),
    pytest.param('{"vertices":1,"arrows":[{"id":"' + "i" * 100000
                 + '","from":1,"to":1,"kind":"loop"}]}', ["classify", "F"], 2, id="arrow-id"),
    pytest.param(A_LOOP, ["conjugate", "F", "--vertex", "1," + "x" * 10000], 2,
                 id="int-list"),
    pytest.param(A_LOOP, ["conjugate", "F", "--vertex", LONG_NUMBER], 3, id="vertex"),
    pytest.param(A_LOOP, ["roots", "F", "--value", "1", "--bound", "-" + LONG_NUMBER], 3,
                 id="bound"),
    pytest.param(A_LOOP_REP, ["rep", "decompose", "F", "--trials", "-" + LONG_NUMBER], 3,
                 id="trials"),
]


@pytest.mark.parametrize("doc, argv, want", LONG_ECHOES)
def test_long_input_values_are_cut_in_errors(run, tmp_path, doc, argv, want):
    path = _write(tmp_path, "doc.json", doc)
    code, out, err = run(*[path if a == "F" else a for a in argv])
    assert code == want
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 300, err
    assert "characters)" in err


def test_short_input_values_keep_their_text(run, tmp_path):
    path = _write(tmp_path, "doc.json", '{"vertices":[1,2],"arrows":[]}')
    assert run("classify", path)[2] == "error: vertex count must be a positive int, got [1, 2]\n"


def test_roots_box_search_past_the_cap_exit_3(run, tmp_path):
    # a loop at vertex 1 makes the form indefinite: the box has 1001^2 vectors
    # within the cap and 10001^2 past it
    path = _write(tmp_path, "g.json", '{"vertices":2,"arrows":['
                  '{"id":"l","from":1,"to":1,"kind":"dashed"},'
                  '{"id":"a","from":1,"to":2,"kind":"full"}]}')
    code, out, _ = run("roots", path, "--value", "1", "--bound", "1000")
    assert code == 0 and json.loads(out) == [[0, 1]]
    code, out, err = run("roots", path, "--value", "1", "--bound", "10000")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "cap" in err


def test_roots_kernel_search_past_the_cap_exit_3(run, tmp_path):
    # one kernel direction: 10^7 + 1 values of it exceed the cap
    path = _write(tmp_path, "g.json", '{"vertices":1,"arrows":['
                  '{"id":"l","from":1,"to":1,"kind":"full"}]}')
    code, out, err = run("roots", path, "--value", "0", "--bound", "10000000")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "cap" in err


def test_roots_output_past_the_cap_exit_3(run, tmp_path):
    # ~A1: the box of 10^6 + 1 kernel values is within its cap, but the
    # 10^6 roots (k, k) are past MAX_ROOTS, so the search stops early
    path = _write(tmp_path, "g.json", '{"vertices":2,"arrows":['
                  '{"id":"a","from":1,"to":2,"kind":"full"},'
                  '{"id":"b","from":2,"to":1,"kind":"dashed"}]}')
    start = time.perf_counter()
    code, out, err = run("roots", path, "--value", "0", "--bound", "1000000")
    assert time.perf_counter() - start < 2
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "cap" in err


def test_rep_random_past_the_cap_exit_3(run, a2_file):
    # 10^10 entries, refused before any is drawn
    code, out, err = run("rep", "random", a2_file, "--dims", "100000,100000")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "cap" in err


@pytest.mark.parametrize("command", [["hom", "R", "R"], ["decompose", "R"], ["iso", "A", "B"]])
def test_rep_hom_iso_and_decompose_past_the_cell_cap_exit_3(run, tmp_path, command):
    # R, a full 14-dimensional loop: 392 equations in 392 unknowns, 153,664
    # cells, refused before any row is built. A and B, two random 100 x 100
    # maps: 20,000 equations in 40,000 unknowns, refused once the rank profile
    # (one full rank each) agrees
    loop = Biquiver(1, (Arrow("a", 1, 1, ArrowKind.FULL),))
    arrow = Biquiver(2, (Arrow("a", 1, 2, ArrowKind.FULL),))
    inputs = {"R": (loop, (14,), 0), "A": (arrow, (100, 100), 0), "B": (arrow, (100, 100), 1)}
    files = {word: _write(tmp_path, f"{word}.json",
                          serialize_representation(random_representation(g, dims, 3, seed)))
             for word, (g, dims, seed) in inputs.items() if word in command}
    start = time.perf_counter()
    code, out, err = run("rep", *(files.get(word, word) for word in command))
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    size = "20000 equations in 40000 unknowns" if "A" in command else "392 equations in 392 unknowns"
    assert err == f"error: the Hom system has {size}, past the cap of 131072 cells\n"


def test_unexpected_exception_exit_4(run, tmp_path, a2_file, monkeypatch):
    def failing_decompose(*args, **kwargs):
        raise AssertionError("certificate does not verify")

    monkeypatch.setattr(biquiver.morphisms, "decompose", failing_decompose)
    code, out, _ = run("rep", "random", a2_file, "--dims", "1,1")
    rep_file = _write(tmp_path, "r.json", out)
    code, out, err = run("rep", "decompose", rep_file)
    assert code == 4
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err and "certificate does not verify" in err


def _scrambled_e7_sum(seed):
    """Three random representations of a mixed E7 tree at root dimension vectors of
    heights 4, 5 and 6, summed and scrambled by a unimodular base change, as the
    inputs of the cli-rep-large benchmark are."""
    g = star_biquiver([1, 2, 3], dashed=("b0e0", "b2e1"))
    rng = random.Random(seed)
    roots = roots_with_value(g, 1)
    total = direct_sum_list(g, [random_representation(
        g, rng.choice([z for z in roots if sum(z) == h]), 2, rng.randrange(10 ** 6))
        for h in (4, 5, 6)])
    return apply_base_change(total, [random_unimodular(rng, d) for d in total.dims])


def test_decompose_takes_no_inverse_and_no_zassenhaus(run, tmp_path, monkeypatch):
    # the split reads its blocks and the echelon change its inverses off reduced
    # row echelon forms: no CMatrix.inverse call inside decompose (and poly_factor
    # has no Zassenhaus to call, see test_factoring_leaves_sympy_unloaded)
    inside, inverses = [False], []
    real_decompose, real_inverse = biquiver.morphisms.decompose, CMatrix.inverse

    def decompose(*args, **kwargs):
        inside[0] = True
        try:
            return real_decompose(*args, **kwargs)
        finally:
            inside[0] = False

    def inverse(m):
        if inside[0]:
            inverses.append(m.rows)
        return real_inverse(m)

    monkeypatch.setattr(biquiver.morphisms, "decompose", decompose)
    monkeypatch.setattr(CMatrix, "inverse", inverse)
    e7 = _write(tmp_path, "e7.json", serialize_representation(_scrambled_e7_sum(0)))
    cases = [(str(LEDGER / name), seed) for name in ("e6.s1.json", "d4xxx.json", "path10.json")
             for seed in (0, 1)] + [(e7, 0)]
    for path, seed in cases:
        code, out, _ = run("rep", "decompose", path, "--seed", str(seed))
        assert code == 0 and len(json.loads(out)["summands"]) > 1
        assert inverses == [], path


def _leaf_invocations(tmp_path):
    """One working argv per leaf subcommand, all 16 of them."""
    a2 = _write(tmp_path, "a2.json", serialize_biquiver(path_biquiver(2)))
    c3 = _write(tmp_path, "c3.json", serialize_biquiver(cycle_biquiver(3)))
    rep = _write(tmp_path, "rep.json", serialize_representation(
        random_representation(path_biquiver(2), (1, 1), 2, 3)))
    m = _write(tmp_path, "m.json", '[[["2","-1/3"]]]')
    return {
        "classify": ["classify", a2],
        "tits": ["tits", a2, "--evaluate", "1,2"],
        "roots": ["roots", a2, "--value", "1"],
        "conjugate": ["conjugate", a2, "--vertex", "2", "--representation", rep],
        "eliminate": ["eliminate", a2],
        "rep validate": ["rep", "validate", rep],
        "rep sum": ["rep", "sum", rep, rep],
        "rep random": ["rep", "random", a2, "--dims", "1,2", "--seed", "1"],
        "rep hom": ["rep", "hom", rep, rep],
        "rep iso": ["rep", "iso", rep, rep, "--seed", "1"],
        "rep decompose": ["rep", "decompose", rep],
        "gadget cycle": ["gadget", "cycle", c3, "--arrows", "e1,e2,e3", "--matrix", m],
        "gadget g1": ["gadget", "g1", m, m],
        "gadget g2": ["gadget", "g2", m, m],
        "gadget g3": ["gadget", "g3", m, m],
        "gadget g4": ["gadget", "g4", m, m],
    }


LEAVES = ["classify", "tits", "roots", "conjugate", "eliminate",
          "rep validate", "rep sum", "rep random", "rep hom", "rep iso", "rep decompose",
          "gadget cycle", "gadget g1", "gadget g2", "gadget g3", "gadget g4"]


@pytest.mark.parametrize("leaf", LEAVES)
def test_every_leaf_accepts_pretty(run, tmp_path, leaf):
    argv = _leaf_invocations(tmp_path)[leaf]
    code, compact, _ = run(*argv)
    assert code == 0
    assert "\n" not in compact.rstrip("\n")
    code, pretty, _ = run(*argv, "--pretty")
    assert code == 0
    assert json.loads(pretty) == json.loads(compact)


def test_leaves_cover_the_parser():
    parser = biquiver.cli.build_parser()
    assert parser is biquiver.cli.build_parser()
    sub = parser._subparsers._group_actions[0].choices
    names = set()
    for name, p in sub.items():
        nested = p._subparsers
        if nested is None:
            names.add(name)
        else:
            names |= {f"{name} {leaf}" for leaf in nested._group_actions[0].choices}
    assert names == set(LEAVES)


def test_repeated_calls_do_not_leak_state(run, a3_file):
    # the parser is built once per process; defaults must not carry over
    argv = ["rep", "random", a3_file, "--dims", "2,1,2"]
    first = run(*argv, "--seed", "3")
    unseeded = run(*argv)
    assert run(*argv, "--seed", "3") == first
    assert run(*argv) == unseeded
    assert run(*argv, "--seed", "0") == unseeded
    assert run(*argv, "--seed", "3", "--pretty")[1] != first[1]
    assert run(*argv, "--seed", "3") == first
