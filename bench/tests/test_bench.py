"""Tests of the benchmark itself: statistics, span accounting, failure
counting, tracer coverage, and a seeded smoke run of every workload.

Run with `python -m pytest bench/tests` from the repository root.
"""
import ast
import json
import statistics
from fractions import Fraction

import pytest

import biquiver as bq
import cli_rep_large
import exact
import harness
import ks_small
import run
import tits_corpus
import tracing
from harness import Outcome

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


# -- tail percentile ----------------------------------------------------------

@pytest.mark.parametrize("n, rank, pct", [
    (1000, 990, 99.0),
    (100, 90, 90.0),
    (75, 65, 100 * 65 / 75),
    (11, 1, 100 / 11),
    (10, 10, 100.0),
    (1, 1, 100.0),
])
def test_tail_rank_leaves_ten_samples_beyond(n, rank, pct):
    assert harness.tail_rank(n) == (rank, pytest.approx(pct))


def _pass(latencies, probe=harness.PROBE_REFERENCE_S):
    return harness.PassResult(latencies, [probe] * len(latencies), sum(latencies),
                              [None] * len(latencies), {})


def test_timing_summary_tail_is_eleventh_largest_and_p50_is_median_of_passes():
    passes = [_pass([float(x) for x in range(1, 31)]),
              _pass([float(x) for x in range(31, 61)])]
    summary = harness.timing_summary(passes)
    assert summary["tail_s"] == pytest.approx(50.0)
    assert summary["tail_beyond"] == 10
    assert summary["samples"] == 60
    assert summary["p50_s"] == pytest.approx(statistics.median([15.5, 45.5]))
    assert summary["throughput_ops_s"] == pytest.approx(
        statistics.median([30 / 465, 30 / 1365]))


def test_timings_are_scaled_to_the_reference_host_speed():
    slow = _pass([2.0, 4.0], probe=2 * harness.PROBE_REFERENCE_S)
    assert slow.normalized() == pytest.approx([1.0, 2.0])
    summary = harness.timing_summary([slow])
    assert summary["host_speed"] == pytest.approx(0.5)
    assert summary["unscaled_throughput_ops_s"] == pytest.approx(2 / 6)
    assert summary["throughput_ops_s"] == pytest.approx(2 / 3)


def test_timed_pass_probes_around_every_op_and_stops_at_the_deadline():
    clock = FakeClock()
    probes = iter([1.0, 3.0, 5.0, 7.0])

    def op(item):
        clock.now += item
        if item == 2:
            raise ValueError("bad item")
        return item

    result = harness.timed_pass([1, 2, 4, 8], op, deadline=6.5,
                                probe=lambda: next(probes), clock=clock)
    assert result.latencies == [1, 2, 4]
    assert result.probes == [2.0, 4.0, 6.0]
    assert result.results == [1, None, 4]
    assert list(result.errors) == [1]


# -- span accounting ----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()

    def outer():
        clock.now += 4.0
        traced_middle()
        clock.now += 8.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    traced_outer = tracer.wrap("outer", outer)
    tracer.enabled = True
    traced_outer()
    traced_leaf()
    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].self_s) == (3, 3.0)
    assert (stats["middle"].total_s, stats["middle"].self_s) == (4.0, 2.0)
    assert (stats["outer"].total_s, stats["outer"].self_s) == (16.0, 12.0)


def test_span_of_a_raising_call_is_closed_and_counted():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    def outer():
        try:
            traced_boom()
        except ValueError:
            clock.now += 2.0

    traced_boom = tracer.wrap("boom", boom)
    traced_outer = tracer.wrap("outer", outer)
    tracer.enabled = True
    traced_outer()
    assert (tracer.stats["boom"].calls, tracer.stats["boom"].raised) == (1, 1)
    assert tracer.stats["outer"].self_s == 2.0


def test_disabled_tracer_records_nothing():
    tracer = tracing.Tracer(FakeClock())
    f = tracer.wrap("f", lambda: 7)
    assert f() == 7
    assert tracer.stats["f"].calls == 0


# -- failure counting -----------------------------------------------------------

def test_tally_counts_raised_rejected_and_missed_ops():
    ok = Outcome("a", 3, 1, False, None)
    missed = Outcome("b", 1, 1, True, None)
    rejected = Outcome("c", 1, 0, True, "certificate does not verify")
    outcomes = [ok, missed, rejected, None]
    counts = harness.tally(outcomes, {3: "ValueError: boom"})
    assert counts["attempted"] == 4
    assert counts["failed"] == 3
    assert counts["answers"] == 5
    assert counts["monte_carlo"] == 2
    assert sorted(counts["problems"]) == [2, 3]
    both = harness.tally([ok, missed], {}, counts)
    assert (both["attempted"], both["failed"]) == (6, 4)


def test_digest_depends_on_every_answer():
    a = [Outcome("x", 1, 0, False, None), Outcome("y", 1, 0, False, None)]
    b = [Outcome("x", 1, 0, False, None), Outcome("z", 1, 0, False, None)]
    assert harness.digest(a) == harness.digest(list(a))
    assert harness.digest(a) != harness.digest(b)


# -- tracer coverage --------------------------------------------------------------

def _biquiver(t, *edges):
    return bq.Biquiver(t, tuple(bq.Arrow(f"a{k}", u, v, bq.ArrowKind.FULL)
                                for k, (u, v) in enumerate(edges)))


def _tits_item(g):
    return tits_corpus.Item(g, tuple((a.id, a.source, a.target, a.is_dashed)
                                     for a in g.arrows))


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    t.enabled = True
    yield t
    t.uninstall()


def test_wrappers_reach_every_import_site_on_a_tiny_op(tracer):
    # A2 is positive definite: the op calls representation_type, gram_matrix
    # and definiteness once each, then roots_with_value, which calls
    # gram_matrix and definiteness again from the roots module, then
    # dash_elimination_plan.
    tits_corpus.run(_tits_item(_biquiver(2, (1, 2))))
    # ~A1 is semidefinite: radical_vector calls definiteness from inside the
    # tits module and fraction_nullspace as imported by tits.
    tits_corpus.run(_tits_item(_biquiver(2, (1, 2), (2, 1))))
    # Hom of a one-dimensional loop representation: fraction_nullspace as
    # imported by morphisms.
    g = _biquiver(1, (1, 1))
    rep = bq.MatrixRepresentation(g, (1,), {"a0": bq.CMatrix.identity(1)})
    bq.hom_basis(rep, rep)
    s = tracer.stats
    counts = {name: s[name].calls for name in s}
    assert counts["classify.representation_type"] == 2
    assert counts["tits.gram_matrix"] == 4
    assert counts["tits.definiteness"] == 5
    assert counts["tits.radical_vector"] == 1
    assert counts["roots.roots_with_value"] == 2
    assert s["roots.roots_with_value"].counters["found"] == 3 + 6
    assert counts["conjugation.dash_elimination_plan"] == 2
    assert counts["morphisms.hom_basis"] == 1
    assert counts["linalg.fraction_nullspace"] == 2
    assert s["linalg.fraction_nullspace"].counters["max_rows"] == 2
    # two Gram matrices, seen by five definiteness calls
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["tits.distinct_gram_ratio"][0] == pytest.approx(2 / 5)


def test_methods_and_cli_are_wrapped(tracer, tmp_path):
    m = bq.CMatrix.from_rows([[1, 2], [3, 4]])
    (m @ m).inverse()
    with pytest.raises(bq.SingularMatrixError):
        bq.CMatrix.zero(2, 2).inverse()
    path = tmp_path / "rep.json"
    g = _biquiver(1, (1, 1))
    rep = bq.MatrixRepresentation(g, (1,), {"a0": bq.CMatrix.identity(1)})
    path.write_text(bq.serialize_representation(rep))
    cli_rep_large.run(cli_rep_large.Item("iso-yes", ("rep", "iso", str(path), str(path)),
                                         None, None, (), 1))
    s = tracer.stats
    assert s["linalg.CMatrix.matmul"].calls == 1
    assert (s["linalg.CMatrix.inverse"].calls, s["linalg.CMatrix.inverse"].raised) == (2, 1)
    assert s["cli.main"].calls == 1
    assert s["representation.parse_representation"].calls == 2


def test_uninstall_restores_every_original():
    import biquiver.cli
    before = (bq.definiteness, biquiver.cli.definiteness, bq.CMatrix.inverse,
              biquiver.tits.fraction_nullspace)
    t = tracing.Tracer()
    t.install()
    assert bq.definiteness is not before[0]
    t.uninstall()
    after = (bq.definiteness, biquiver.cli.definiteness, bq.CMatrix.inverse,
             biquiver.tits.fraction_nullspace)
    assert after == before


# -- the benchmark's own exact checks ----------------------------------------------

def test_exact_checks_reject_a_wrong_certificate():
    g = _biquiver(2, (1, 2))
    a = bq.MatrixRepresentation(g, (1, 1), {"a0": bq.CMatrix.from_rows([[2]])})
    s = [bq.CMatrix.from_rows([[1]]), bq.CMatrix.from_rows([[2]])]
    b = bq.apply_base_change(a, s)
    arrows, dims, mats = exact.rep_parts(a)
    _, b_dims, b_mats = exact.rep_parts(b)
    good = [exact.from_cmatrix(m) for m in s]
    assert exact.is_base_change(arrows, dims, mats, good, b_dims, b_mats)
    wrong = [good[0], [[(Fraction(3), Fraction(0))]]]
    assert not exact.is_base_change(arrows, dims, mats, wrong, b_dims, b_mats)
    singular = [good[0], [[(Fraction(0), Fraction(0))]]]
    assert not exact.is_base_change(arrows, dims, mats, singular, b_dims, b_mats)


def test_dash_parity_rule():
    full, dashed = False, True
    triangle = [("a", 1, 2, dashed), ("b", 2, 3, full), ("c", 3, 1, full)]
    assert exact.dash_obstructed(3, triangle)
    assert not exact.dash_obstructed(3, triangle[:2])
    assert exact.dash_obstructed(1, [("l", 1, 1, dashed)])
    assert exact.dashed_after(triangle[:2], {1}) == []


def test_checks_are_not_asserts():
    for path in sorted(run.ROOT.joinpath("bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path


# -- BENCHMARK.json and the emitted metrics -----------------------------------------

def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_E2E)
    layers = tracing.layer_metrics(_empty_tracer(), 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])


def _empty_tracer():
    t = tracing.Tracer()
    for module, attr in tracing.TRACED:
        t.stats[tracing.span_name(module, attr)] = tracing.SpanStats()
    return t


# -- seeded smoke runs ----------------------------------------------------------------

@pytest.fixture
def small_pools(monkeypatch):
    monkeypatch.setattr(cli_rep_large, "PASSES", 2)
    monkeypatch.setattr(tits_corpus, "LABELS", ["A3", "D4", "~A0", "~A2", "~D4"])
    monkeypatch.setattr(tits_corpus, "VERTICES", range(1, 5))
    monkeypatch.setattr(ks_small, "TOTALS", {"A3": range(5, 6), "D4": range(6, 7)})
    monkeypatch.setattr(cli_rep_large, "GRAPHS", ("E6",))
    monkeypatch.setattr(cli_rep_large, "TOTALS", (9,))


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_seeded_smoke_run(workload, small_pools):
    out = run.run_workload(workload, seed=11, seconds=1, trace=True)
    again = run.run_workload(workload, seed=11, seconds=1, trace=False)
    report = out["report"]
    assert out["correct"], report["problems"]
    assert out["attempted"] == 2 * report["items"]
    assert report["traced_digest"] == report["digest"] == again["report"]["digest"]
    assert set(out["layers"]) == set(tracing.layer_metrics(_empty_tracer(), 1.0))
    assert all(value > 0 for key, (value, _) in out["e2e"].items()
               if key in run.RESULT_E2E)
    if workload == "tits-corpus":
        assert out["failed"] == 0
        assert out["layers"]["tits.definiteness.calls"][0] > 0
    else:
        assert out["layers"]["linalg.fraction_nullspace.calls"][0] > 0
