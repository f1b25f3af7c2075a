import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import biquiver
from biquiver import (Arrow, ArrowKind, Biquiver, PreconditionError, evaluate,
                      gram_matrix, positive_root_count, radical_vector,
                      roots_with_value)
from conftest import biq, cycle_biquiver, path_biquiver, star_biquiver


def brute_force_roots(g, value, bound):
    """Independent vectorized box search over 0..bound per coordinate."""
    t = g.t
    if t == 1:
        loops = sum(1 for a in g.arrows if a.is_loop)
        return [(z,) for z in range(1, bound + 1) if z * z * (1 - loops) == value]
    rest = np.indices((bound + 1,) * (t - 1), dtype=np.int32).reshape(t - 1, -1)
    found = []
    for z1 in range(bound + 1):
        cols = np.vstack([np.full((1, rest.shape[1]), z1, dtype=np.int32), rest])
        q = (cols.astype(np.int64) ** 2).sum(axis=0)
        for a in g.arrows:
            q = q - cols[a.source - 1].astype(np.int64) * cols[a.target - 1]
        mask = (q == value) & (cols.sum(axis=0) > 0)
        found.extend(tuple(int(x) for x in col) for col in cols[:, mask].T)
    return sorted(found)


def test_a2_roots():
    assert roots_with_value(path_biquiver(2), 1) == [(0, 1), (1, 0), (1, 1)]


def test_tame_radical_multiples():
    g = biq(2, "a:1>2", "b:2~1")
    assert roots_with_value(g, 0, bound=3) == [(1, 1), (2, 2), (3, 3)]


def test_full_loop_has_no_value_one_roots():
    assert roots_with_value(biq(1, "a:1>1"), 1, bound=3) == []
    assert roots_with_value(biq(1, "a:1>1"), 0, bound=3) == [(1,), (2,), (3,)]


def test_matches_brute_force_on_dynkin():
    for g, bound in [(path_biquiver(4), 2), (star_biquiver([1, 1, 1]), 3),
                     (star_biquiver([1, 2, 2]), 4)]:
        assert roots_with_value(g, 1) == brute_force_roots(g, 1, bound)


def test_matches_brute_force_on_tame_and_wild():
    tame = cycle_biquiver(4, dashed=(2,))
    assert roots_with_value(tame, 1, bound=3) == brute_force_roots(tame, 1, 3)
    assert roots_with_value(tame, 0, bound=3) == brute_force_roots(tame, 0, 3)
    wild = biq(2, "l:1~1", "a:1>2")
    for value in (0, 1):
        assert roots_with_value(wild, value, bound=4) == brute_force_roots(wild, value, 4)


def test_definite_enumeration_is_bound_independent():
    g = star_biquiver([1, 1, 2])  # D5
    complete = roots_with_value(g, 1)
    assert complete == brute_force_roots(g, 1, 2)
    assert complete == brute_force_roots(g, 1, 5)


# counts pre-verified against brute_force_roots with the coordinate bounds
# 1 (A), 2 (D), 3/4/6 (E6/E7/E8) on the highest root
FROZEN_COUNTS = {
    "A": {t: t * (t + 1) // 2 for t in range(1, 9)},
    "D": {t: t * (t - 1) for t in range(4, 9)},
    "E": {6: 36, 7: 63, 8: 120},
}


def test_positive_root_counts_frozen():
    for t, want in FROZEN_COUNTS["A"].items():
        assert positive_root_count(path_biquiver(t)) == want
    for t, want in FROZEN_COUNTS["D"].items():
        assert positive_root_count(star_biquiver([1, 1, t - 3])) == want
    for n, want in FROZEN_COUNTS["E"].items():
        assert positive_root_count(star_biquiver([1, 2, n - 4])) == want


def test_live_oracle_agreement_small():
    assert positive_root_count(path_biquiver(5)) == len(brute_force_roots(path_biquiver(5), 1, 1))
    d4 = star_biquiver([1, 1, 1])
    assert positive_root_count(d4) == len(brute_force_roots(d4, 1, 2))


def test_root_count_requires_finite_type():
    with pytest.raises(PreconditionError):
        positive_root_count(cycle_biquiver(3))


def test_nondefinite_requires_bound():
    with pytest.raises(PreconditionError):
        roots_with_value(cycle_biquiver(3), 0)
    with pytest.raises(PreconditionError):
        roots_with_value(biq(1, "a:1>1", "b:1~1"), 1)


def test_negative_bound_rejected():
    with pytest.raises(PreconditionError, match="bound"):
        roots_with_value(cycle_biquiver(3), 1, bound=-1)
    # also where a definite form would ignore the bound
    with pytest.raises(PreconditionError, match="bound"):
        roots_with_value(path_biquiver(2), 1, bound=-1)


def test_root_check_survives_optimize_flag():
    # python -O strips assert statements; the final q check must still raise.
    code = textwrap.dedent("""
        import biquiver.roots as roots
        from biquiver import Arrow, ArrowKind, Biquiver
        roots.evaluate = lambda g, z: 7
        try:
            roots.roots_with_value(Biquiver(2, (Arrow("a", 1, 2, ArrowKind.FULL),)), 1)
        except AssertionError as e:
            print("raised:", e)
        else:
            print("returned")
    """)
    src = str(Path(biquiver.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.startswith("raised:"), proc.stdout


def test_disconnected_rejected():
    g = Biquiver(3, path_biquiver(2).arrows)
    with pytest.raises(PreconditionError):
        roots_with_value(g, 1)


def test_roots_invariant_under_kinds_and_directions():
    rng = random.Random(4)
    g = star_biquiver([1, 1, 1])
    base = roots_with_value(g, 1)
    for _ in range(5):
        arrows = []
        for a in g.arrows:
            u, v = (a.source, a.target) if rng.random() < 0.5 else (a.target, a.source)
            arrows.append(Arrow(a.id, u, v, rng.choice((ArrowKind.FULL, ArrowKind.DASHED))))
        assert roots_with_value(Biquiver(g.t, tuple(arrows)), 1) == base


def test_extended_roots_are_radical_multiples():
    for g in [cycle_biquiver(3), star_biquiver([1, 1, 1, 1]), star_biquiver([2, 2, 2])]:
        delta = radical_vector(gram_matrix(g))
        bound = 3 * max(delta)
        expected = sorted(tuple(k * d for d in delta) for k in range(1, 4))
        got = roots_with_value(g, 0, bound=bound)
        assert [z for z in got if max(z) <= bound] == expected


def test_output_sorted_and_valid():
    g = star_biquiver([1, 2, 2])
    roots = roots_with_value(g, 1)
    assert roots == sorted(roots)
    assert all(evaluate(g, z) == 1 for z in roots)
