"""Measurement pieces shared by the workloads: op outcomes, the timed pass,
latency statistics and the machine-speed probe."""
from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Outcome:
    """What the benchmark's checks made of one op's answer.

    canonical: the op's output in canonical form, hashed into the digest.
    answers / monte_carlo: verdicts the op returned, and how many of them
        are Monte Carlo (ProbablyNo, ProbablyIndecomposable) rather than
        certified.
    missed: the answer missed the planted truth in a way Monte Carlo
        sampling allows.
    problem: why a check rejected the answer, or None. A rejected answer
        is a defect: a certificate that does not verify, or a verdict
        that contradicts another certified one.
    """
    canonical: str
    answers: int
    monte_carlo: int
    missed: bool
    problem: str | None


# probe_slice's time on the reference host (2-core x86-64, Python 3.11)
# when that host is otherwise idle.
PROBE_REFERENCE_S = 0.0007


def probe_slice() -> float:
    """Seconds for a fixed exact elimination of the 6x6 Hilbert matrix.

    The host's speed moves by up to 2x within minutes, and this slice,
    which allocates and does Fraction arithmetic as the package does,
    slows with it. The cyclic garbage collector is off while it runs, so
    the size of the program's heap does not change its time.
    """
    n = 6
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for c in range(n):
            p = rows[c][c]
            rows[c] = [x / p for x in rows[c]]
            for r in range(n):
                if r != c:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class PassResult:
    latencies: list[float]  # wall seconds of each op
    probes: list[float]     # probe_slice seconds around each op
    wall_s: float
    results: list           # None where the op raised
    errors: dict            # item index -> the exception the op raised

    def normalized(self) -> list[float]:
        """Op latencies at the reference host's speed: each scaled by the
        reference probe time over the probe time measured around it."""
        return [x * PROBE_REFERENCE_S / p for x, p in zip(self.latencies, self.probes)]


def timed_pass(items, run, deadline: float, probe=probe_slice,
               clock=time.perf_counter) -> PassResult:
    """Run the items in order, timing each op and probing the host's speed
    between ops. Past the `deadline` clock reading the pass stops, leaving
    the remaining items unattempted."""
    latencies, probes, results, errors = [], [], [], {}
    start = clock()
    before = probe()
    for k, item in enumerate(items):
        if k and clock() > deadline:
            break
        t0 = clock()
        try:
            results.append(run(item))
        except Exception as e:  # an op that raises is counted as failed
            results.append(None)
            errors[k] = f"{type(e).__name__}: {e}"
        latencies.append(clock() - t0)
        after = probe()
        probes.append((before + after) / 2)
        before = after
    return PassResult(latencies, probes, clock() - start, results, errors)


def tail_rank(n: int, beyond: int = 10) -> tuple[int, float]:
    """1-based rank and percentile of the highest percentile that still has
    `beyond` samples above it; the maximum when there are too few."""
    rank = n - beyond if n > beyond else n
    return rank, 100.0 * rank / n


def timing_summary(passes: list[PassResult]) -> dict:
    """Throughput and latency at the reference host's speed.

    Throughput is the median over passes of ops per second of op time;
    the median latency is the median over passes of each pass's median,
    so one slow pass moves neither. The tail pools every pass's samples.
    The same throughput from unscaled wall times is given for comparison.
    """
    scaled = [p.normalized() for p in passes]
    pooled = sorted(x for p in scaled for x in p)
    rank, pct = tail_rank(len(pooled))
    return {
        "throughput_ops_s": statistics.median(len(p) / sum(p) for p in scaled),
        "p50_s": statistics.median(statistics.median(p) for p in scaled),
        "tail_s": pooled[rank - 1],
        "tail_percentile": pct,
        "tail_beyond": len(pooled) - rank,
        "samples": len(pooled),
        "unscaled_throughput_ops_s": statistics.median(
            len(p.latencies) / sum(p.latencies) for p in passes),
        "host_speed": PROBE_REFERENCE_S / statistics.median(x for p in passes for x in p.probes),
    }


def tally(outcomes, errors: dict, previous: dict | None = None) -> dict:
    """Failure and Monte Carlo counts over a pass, added to `previous`.

    `outcomes` holds None for the ops that raised, and `errors` says why.
    An op fails when it raised, when a check rejected its answer, or when
    its answer missed the planted truth.
    """
    problems = {k: o.problem for k, o in enumerate(outcomes) if o is not None and o.problem}
    problems.update(errors)
    missed = sum(1 for o in outcomes if o is not None and o.missed and not o.problem)
    raised = sum(1 for k, o in enumerate(outcomes) if o is None and k not in problems)
    counts = {
        "attempted": len(outcomes),
        "failed": len(problems) + missed + raised,
        "answers": sum(o.answers for o in outcomes if o is not None),
        "monte_carlo": sum(o.monte_carlo for o in outcomes if o is not None),
    }
    if previous is not None:
        counts = {key: counts[key] + previous[key] for key in counts}
    counts["problems"] = problems
    return counts


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update((o.canonical if o is not None else "<raised>").encode())
        h.update(b"\n")
    return h.hexdigest()


def machine_probe(slices: int = 25) -> dict:
    """The machine-speed diagnostic taken before and after the passes:
    the median time of `slices` probe slices, and the host's speed
    relative to the reference host."""
    t = statistics.median(probe_slice() for _ in range(slices))
    return {"slice_s": round(t, 6), "host_speed": round(PROBE_REFERENCE_S / t, 3)}
