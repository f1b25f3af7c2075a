"""Benchmark of the biquiver package: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload tits-corpus --seed 1 --seconds 25 --trace 0

The seed generates the workload's inputs, and `--seconds` sizes the pool
of inputs: it holds the workload's ROUNDS_PER_SECOND rounds of strata per
second. A seed and a run length therefore give the same work on every
commit. The timed
phase makes the workload's passes over the pool with tracing off; every
later pass must give exactly the first pass's answers. With `--trace 1` a
traced pass over the same inputs follows, and the per-layer metrics are
reported instead of the end-to-end ones.

Timings are scaled to the reference host's speed by a probe run between
ops (see harness.probe_slice); the unscaled throughput is printed too.
Every answer is checked. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when a
check rejects an answer and 2 when the package cannot be found.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (PROBE_REFERENCE_S, Outcome, digest, machine_probe,  # noqa: E402
                     probe_slice, tally, timed_pass, timing_summary)
from tracing import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"tits-corpus": "tits_corpus", "ks-small": "ks_small",
             "cli-rep-large": "cli_rep_large"}
# Set-up is repeated and its median reported, so set-up time is steady.
SETUP_REPEATS = 3
# Ops are left unattempted only this many times past --seconds.
DEADLINE_FACTOR = 6


def import_package():
    """Import biquiver from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "biquiver" / "__init__.py").is_file():
        print(f"error: no biquiver package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import biquiver
    if Path(biquiver.__file__).resolve().parent != (src / "biquiver").resolve():
        print(f"error: biquiver imported from {biquiver.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def checked(module, item, result):
    """The op's Outcome, or None when the op raised; a check that crashes
    on a malformed answer rejects it."""
    if result is None:
        return None
    try:
        return module.check(item, result)
    except Exception as e:
        return Outcome("<unreadable>", 0, 0, False, f"check raised {type(e).__name__}: {e}")


def set_up(module, seed: int, rounds: int, workdir: str, problems: list):
    """Build the inputs SETUP_REPEATS times, then run one warm-up op; probe
    the host's speed between the steps."""
    builds, probes, first = [], [probe_slice()], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items, warmup = module.build(seed, rounds, workdir)
        builds.append(time.perf_counter() - t0)
        probes.append(probe_slice())
        if first is None:
            first = items
        elif items != first:
            problems.append("set-ups with the same seed built different inputs")
    t0 = time.perf_counter()
    warm = checked(module, warmup, module.run(warmup))
    warm_s = time.perf_counter() - t0
    probes.append(probe_slice())
    if warm is None or warm.problem:
        problems.append(f"warm-up op rejected: {warm and warm.problem}")
    return items, builds, warm_s, statistics.median(probes)


def repeat_check(first: list, results: list, errors: dict, outcomes: list, label: str,
                 problems: list) -> list:
    """Outcomes of a later pass, which must give exactly the first pass's answers."""
    out = []
    for k, result in enumerate(results):
        if k in errors:
            problems.append(f"{label} item {k}: {errors[k]}")
            out.append(None)
        elif result != first[k]:
            problems.append(f"{label} item {k}: answer differs from the first pass")
            out.append(Outcome("<changed>", 0, 0, False, "answer changed"))
        else:
            out.append(outcomes[k])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_package()
    module = importlib.import_module(WORKLOADS[workload])
    import_s = time.perf_counter() - START

    passes_wanted = module.PASSES
    rounds = max(1, round(seconds * module.ROUNDS_PER_SECOND))
    report: dict = {"workload": workload, "seed": seed, "rounds": rounds,
                    "passes": passes_wanted}
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        items, builds, warm_s, setup_probe = set_up(module, seed, rounds, workdir, problems)
        setup_wall_s = import_s + statistics.median(builds) + warm_s
        setup_s = setup_wall_s * PROBE_REFERENCE_S / setup_probe

        deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
        probe_before = machine_probe()
        passes = [timed_pass(items, module.run, deadline)]
        first = passes[0].results
        outcomes = [checked(module, item, r) for item, r in zip(items, first)]
        counts = tally(outcomes, passes[0].errors)
        problems += [f"item {k}: {p}" for k, p in sorted(counts["problems"].items())]
        for p in range(1, passes_wanted):
            if time.perf_counter() > deadline:
                break
            later = timed_pass(items, module.run, deadline)
            again = repeat_check(first, later.results, later.errors, outcomes,
                                 f"pass {p + 1}", problems)
            counts = tally(again, {}, counts)
            later.results = None
            passes.append(later)
        probe_after = machine_probe()

        lat = timing_summary(passes)
        answers = counts["answers"]
        certified = (answers - counts["monte_carlo"]) / answers if answers else 1.0
        e2e = {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (lat["throughput_ops_s"], "ops/s"),
            "latency_p50_ms": (lat["p50_s"] * 1000, "ms"),
            "latency_tail_ms": (lat["tail_s"] * 1000, "ms"),
            "failed_ratio": (counts["failed"] / counts["attempted"], "ratio"),
            "monte_carlo_ratio": (1 - certified, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "certified_ratio": (certified, "ratio"),
        }
        report.update({
            "items": len(items),
            "inputs": module.describe(items, [o for o in outcomes if o is not None]),
            "setup_parts_s": {"import": round(import_s, 4),
                              "build": [round(b, 4) for b in builds],
                              "warmup": round(warm_s, 4), "wall": round(setup_wall_s, 4)},
            "pass_s": [round(p.wall_s, 4) for p in passes],
            "digest": digest(outcomes),
            "probe_before": probe_before,
            "probe_after": probe_after,
            "latency": lat,
            "unattempted": len(items) * passes_wanted - counts["attempted"],
        })

        layers = None
        if trace:
            tracer = Tracer()
            tracer.install()
            tracer.enabled = True
            try:
                traced = timed_pass(items[:len(first)], module.run, math.inf)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            traced_outcomes = [checked(module, item, r) for item, r in zip(items, traced.results)]
            problems += [f"traced item {k}: {p}" for k, p in
                         sorted(tally(traced_outcomes, traced.errors)["problems"].items())]
            report["traced_digest"] = digest(traced_outcomes)
            if report["traced_digest"] != report["digest"]:
                problems.append("the traced pass answered differently from the untraced one")
            traced_timing = timing_summary([traced])
            layers = layer_metrics(tracer,
                                   traced_timing["throughput_ops_s"] / lat["throughput_ops_s"],
                                   traced_timing["host_speed"])

    report["problems"] = problems
    return {"report": report, "e2e": e2e, "layers": layers, "attempted": counts["attempted"],
            "failed": counts["failed"], "correct": not problems}


# End-to-end metrics in the final JSON line: every one is nonzero, so a
# relative bound applies. failed_ratio and monte_carlo_ratio can be 0 and
# are printed on the report lines only; certified_ratio carries the latter.
RESULT_E2E = ("setup_s", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms",
              "peak_rss_mb", "certified_ratio")


def print_result(out: dict, trace: bool) -> None:
    report, e2e = out["report"], out["e2e"]
    lat = report["latency"]
    print(f"workload {report['workload']} seed {report['seed']} rounds {report['rounds']} "
          f"items {report['items']} passes {report['passes']}")
    print("inputs " + json.dumps(report["inputs"], sort_keys=True))
    print("setup_parts_s " + json.dumps(report["setup_parts_s"]))
    print("pass_s " + json.dumps(report["pass_s"]))
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{lat['tail_percentile']:.2f}, {lat['tail_beyond']} of "
                    f"{lat['samples']} samples beyond)")
        elif name == "failed_ratio":
            note = f"  ({out['failed']} of {out['attempted']} ops)"
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"unscaled_throughput_ops_s {lat['unscaled_throughput_ops_s']:.6g} ops/s  "
          f"(host speed {lat['host_speed']:.3f} of the reference)")
    print(f"digest sha256:{report['digest']}")
    print("machine_probe before " + json.dumps(report["probe_before"])
          + " after " + json.dumps(report["probe_after"]))
    if report.get("unattempted"):
        print(f"unattempted {report['unattempted']} ops past the deadline")
    if trace:
        print(f"traced_digest sha256:{report['traced_digest']}")
        for name, (value, unit) in out["layers"].items():
            print(f"layer {name} {value:.6g} {unit}")
    for p in report["problems"][:20]:
        print(f"problem: {p}", file=sys.stderr)
    if trace:
        metrics = out["layers"]
    else:
        metrics = {k: e2e[k] for k in RESULT_E2E}
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(out, bool(args.trace))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
