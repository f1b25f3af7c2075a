"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is stated inline; randomized criteria use fixed
seeds so the whole suite is deterministic.
"""
import itertools
import random
import time
from fractions import Fraction

import networkx as nx

from biquiver import (Arrow, ArrowKind, Biquiver, CMatrix,
                      DashEliminationObstruction, DashEliminationPlan,
                      Definiteness, IndecomposabilityStatus, MapKind,
                      MatrixRepresentation, RepKind, Verdict,
                      apply_base_change, apply_conjugations, apply_map,
                      are_isomorphic, block_diag, change_of_basis, compose,
                      conjugate_representation, dash_elimination_plan,
                      decompose, definiteness, direct_sum, direct_sum_list,
                      gadget_cycle, gadget_g4, gaussian, gram_matrix,
                      hom_basis, krull_schmidt_compare, random_representation,
                      representation_type, roots_with_value,
                      transport_isomorphism, zero_representation)
from conftest import (biq, consimilar_necessary_invariant, cycle_biquiver,
                      path_biquiver, random_biquiver, random_invertible,
                      similar_small_oracle, star_biquiver)


def _report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({description}): {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1: finite/tame verdicts match Tits definiteness, exhaustively ----

def _connected(t, pairs):
    if t == 1:
        return True
    parent = list(range(t + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    covered = set()
    for u, v in pairs:
        covered.add(u)
        covered.add(v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    if covered != set(range(1, t + 1)):
        return False
    return len({find(v) for v in range(1, t + 1)}) == 1


def _shape_classes(max_t=5, max_arrows=6):
    """Connected multigraph shapes (loops and multi-edges included) up to
    relabeling of vertices."""
    shapes = []
    for t in range(1, max_t + 1):
        pairs = [(u, v) for u in range(1, t + 1) for v in range(u, t + 1)]
        perms = list(itertools.permutations(range(1, t + 1)))
        seen = set()
        low = t - 1 if t > 1 else 0
        for m in range(low, max_arrows + 1):
            for combo in itertools.combinations_with_replacement(pairs, m):
                if not _connected(t, combo):
                    continue
                best = min(
                    tuple(sorted((min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1]))
                                 for u, v in combo))
                    for p in perms)
                if best in seen:
                    continue
                seen.add(best)
                shapes.append((t, best))
    return shapes


def test_criterion_1_type_matches_definiteness_exhaustively():
    t0 = time.time()
    ids = [str(k) for k in range(8)]
    definiteness_cache = {}
    checked = 0
    for t, shape in _shape_classes():
        # every kind assignment for loops, every direction/kind for the rest
        per_arrow = []
        for u, v in shape:
            if u == v:
                per_arrow.append([(u, v, ArrowKind.FULL), (u, v, ArrowKind.DASHED)])
            else:
                per_arrow.append([(u, v, ArrowKind.FULL), (u, v, ArrowKind.DASHED),
                                  (v, u, ArrowKind.FULL), (v, u, ArrowKind.DASHED)])
        for assignment in itertools.product(*per_arrow):
            arrows = tuple(Arrow(ids[k], u, v, kind)
                           for k, (u, v, kind) in enumerate(assignment))
            g = Biquiver(t, arrows)
            kind = representation_type(g).kind
            gram = gram_matrix(g)
            verdict = definiteness_cache.get(gram.c)
            if verdict is None:
                verdict = definiteness(gram)
                definiteness_cache[gram.c] = verdict
            assert (kind is RepKind.FINITE) == \
                (verdict is Definiteness.POSITIVE_DEFINITE), (g, kind, verdict)
            assert (kind in (RepKind.FINITE, RepKind.TAME_INFINITE)) == \
                (verdict in (Definiteness.POSITIVE_DEFINITE,
                             Definiteness.POSITIVE_SEMIDEFINITE)), (g, kind, verdict)
            checked += 1
    elapsed = time.time() - t0
    _report(1, "type vs definiteness, exhaustive",
            True, f"{checked} biquivers over ≤5 vertices/≤6 arrows in {elapsed:.1f}s "
                  "(target < 60s), zero mismatches")


# -- criterion 2: classical positive root counts --------------------------------

def _reassign(rng, g):
    arrows = []
    for a in g.arrows:
        u, v = (a.source, a.target) if rng.random() < 0.5 else (a.target, a.source)
        arrows.append(Arrow(a.id, u, v, rng.choice((ArrowKind.FULL, ArrowKind.DASHED))))
    return Biquiver(g.t, tuple(arrows))


def test_criterion_2_root_counts():
    t0 = time.time()
    rng = random.Random(2024)
    cases = []
    for t in range(1, 9):
        cases.append((path_biquiver(t), t * (t + 1) // 2))
    for t in range(4, 9):
        cases.append((star_biquiver([1, 1, t - 3]), t * (t - 1)))
    cases.append((star_biquiver([1, 2, 2]), 36))
    cases.append((star_biquiver([1, 2, 3]), 63))
    cases.append((star_biquiver([1, 2, 4]), 120))
    checked = 0
    for g, want in cases:
        for _ in range(3):
            gg = _reassign(rng, g)
            got = len(roots_with_value(gg, 1))
            assert got == want, (gg, got, want)
            checked += 1
    _report(2, "Weyl root counts A/D/E",
            True, f"{checked} enumerations exact in {time.time() - t0:.1f}s (target < 10s)")


# -- criterion 3: isomorphism is invariant under conjugation --------------------

def test_criterion_3_conjugation_invariance():
    rng = random.Random(333)
    yes = no = probably = 0
    for case in range(200):
        g = random_biquiver(rng, max_t=3, max_arrows=3)
        dims_a = tuple(rng.randint(0, 2) for _ in range(g.t))
        a = random_representation(g, dims_a, 2, rng.randint(0, 10 ** 9))
        style = case % 5
        if style < 2:
            s = [random_invertible(rng, d) for d in dims_a]
            b = apply_base_change(a, s)
        elif style < 4:
            b = random_representation(g, dims_a, 2, rng.randint(0, 10 ** 9))
        else:
            dims_b = tuple(rng.randint(0, 2) for _ in range(g.t))
            b = random_representation(g, dims_b, 2, rng.randint(0, 10 ** 9))
        u = rng.randint(1, g.t)
        base = are_isomorphic(a, b, seed=case)
        conj = are_isomorphic(conjugate_representation(a, u),
                              conjugate_representation(b, u), seed=case)
        assert base.verdict == conj.verdict, (g, u, base.verdict, conj.verdict)
        if base.verdict is Verdict.YES:
            yes += 1
            moved = transport_isomorphism(list(base.certificate), u)
            assert apply_base_change(conjugate_representation(a, u), moved) == \
                conjugate_representation(b, u)
        elif base.verdict is Verdict.NO:
            no += 1
        else:
            probably += 1
    _report(3, "conjugation invariance of isomorphism",
            True, f"200 triples: verdicts agree ({yes} Yes, {no} No, {probably} ProbablyNo); "
                  "all transported certificates verify exactly")


# -- criterion 4: dash elimination on trees and cycles ---------------------------

def _prufer_trees(t):
    if t == 1:
        yield []
        return
    if t == 2:
        yield [(1, 2)]
        return
    for seq in itertools.product(range(1, t + 1), repeat=t - 2):
        deg = [1] * (t + 1)
        for x in seq:
            deg[x] += 1
        nodes = set(range(1, t + 1))
        edges = []
        for x in seq:
            leaf = min(v for v in nodes if deg[v] == 1)
            edges.append((leaf, x))
            deg[leaf] -= 1
            deg[x] -= 1
            nodes.remove(leaf)
        u, v = sorted(nodes)
        edges.append((u, v))
        yield edges


def _check_tree_dashings(edge_lists):
    count = 0
    for edges in edge_lists:
        t = len(edges) + 1
        for mask in range(2 ** len(edges)):
            arrows = tuple(
                Arrow(f"e{k}", u, v,
                      ArrowKind.DASHED if (mask >> k) & 1 else ArrowKind.FULL)
                for k, (u, v) in enumerate(edges))
            g = Biquiver(t, arrows)
            plan = dash_elimination_plan(g)
            assert isinstance(plan, DashEliminationPlan), (g,)
            cleaned = apply_conjugations(g, plan.vertices)
            assert all(not a.is_dashed for a in cleaned.arrows)
            assert gram_matrix(cleaned) == gram_matrix(g)
            assert representation_type(cleaned) == representation_type(g)
            count += 1
    return count


def test_criterion_4_dash_elimination():
    # labeled-exhaustive through 5 vertices, all shapes (up to relabeling) at 6 and 7
    labeled = [edges for t in range(1, 6) for edges in _prufer_trees(t)]
    tree_count = _check_tree_dashings(labeled)
    shape_trees = []
    for t in (6, 7):
        for tree in nx.nonisomorphic_trees(t):
            shape_trees.append([(u + 1, v + 1) for u, v in tree.edges()])
    tree_count += _check_tree_dashings(shape_trees)

    cycle_count = 0
    for r in range(1, 7):
        for mask in range(2 ** r):
            dashed = tuple(i + 1 for i in range(r) if (mask >> i) & 1)
            if r == 1:
                g = biq(1, "e1:1~1" if dashed else "e1:1>1")
            else:
                g = cycle_biquiver(r, dashed=dashed)
            plan = dash_elimination_plan(g)
            if len(dashed) % 2 == 0 and not (r == 1 and dashed):
                assert isinstance(plan, DashEliminationPlan), (r, dashed)
                cleaned = apply_conjugations(g, plan.vertices)
                assert all(not a.is_dashed for a in cleaned.arrows)
            else:
                assert isinstance(plan, DashEliminationObstruction), (r, dashed)
            cycle_count += 1
    _report(4, "dash elimination trees/cycles",
            True, f"{tree_count} dashed trees eliminated, "
                  f"{cycle_count} cycle dashings match the parity rule exactly")


# -- criterion 5: gadget faithfulness --------------------------------------------

def _rand_cmat(rng, n, bound=3):
    return CMatrix(n, n, tuple(
        gaussian(Fraction(rng.randint(-bound, bound)), Fraction(rng.randint(-bound, bound)))
        for _ in range(n * n)))


def _full_loop_rep(m):
    return MatrixRepresentation(biq(1, "a:1>1"), (m.rows,), {"a": m})


def test_criterion_5_gadget_faithfulness():
    rng = random.Random(555)
    sizes = [1] * 20 + [2] * 6

    # (i) all-full cycles: gadget isomorphism iff matrix similarity
    g3 = cycle_biquiver(3)
    pos = neg = 0
    for k, n in enumerate(sizes):
        m = _rand_cmat(rng, n)
        s = random_invertible(rng, n)
        planted = s.inverse() @ m @ s
        a = gadget_cycle(g3, ["e1", "e2", "e3"], m)
        b = gadget_cycle(g3, ["e1", "e2", "e3"], planted)
        res = are_isomorphic(a, b, seed=10 * k)
        assert res.verdict is Verdict.YES, (m, planted)
        # dual route: the one-loop quiver isomorphism oracle agrees
        assert are_isomorphic(_full_loop_rep(m), _full_loop_rep(planted),
                              seed=10 * k + 1).verdict is Verdict.YES
        pos += 1
        other = _rand_cmat(rng, n)
        while similar_small_oracle(m, other):
            other = _rand_cmat(rng, n)
        res = are_isomorphic(a, gadget_cycle(g3, ["e1", "e2", "e3"], other),
                             seed=10 * k + 2)
        assert res.verdict is not Verdict.YES
        neg += 1

    # (ii) dashed-closing cycles: gadget isomorphism iff consimilarity
    g2d = biq(2, "e1:1>2", "e2:2~1")
    for k, n in enumerate(sizes):
        m = _rand_cmat(rng, n)
        s = random_invertible(rng, n)
        planted = s.conj().inverse() @ m @ s
        a = gadget_cycle(g2d, ["e1", "e2"], m)
        b = gadget_cycle(g2d, ["e1", "e2"], planted)
        assert are_isomorphic(a, b, seed=20 * k).verdict is Verdict.YES, (m, planted)
        pos += 1
        other = _rand_cmat(rng, n)
        while consimilar_necessary_invariant(m, other):
            other = _rand_cmat(rng, n)
        res = are_isomorphic(a, gadget_cycle(g2d, ["e1", "e2"], other), seed=20 * k + 1)
        assert res.verdict is not Verdict.YES
        neg += 1

    # (iii) two-dashed-loop pair gadgets: isomorphism iff simultaneous similarity
    for k, n in enumerate(sizes):
        p, q = _rand_cmat(rng, n), _rand_cmat(rng, n)
        s = random_invertible(rng, n)
        p2, q2 = s.inverse() @ p @ s, s.inverse() @ q @ s
        a, b = gadget_g4(p, q), gadget_g4(p2, q2)
        big = block_diag(block_diag(s, s.conj()), block_diag(s, s.conj()))
        assert apply_base_change(a, [big]) == b  # explicit block certificate
        assert are_isomorphic(a, b, seed=30 * k).verdict is Verdict.YES, (p, q)
        pos += 1
        p3, q3 = _rand_cmat(rng, n), _rand_cmat(rng, n)
        tr = lambda m_: sum(m_.at(i, i) for i in range(m_.rows))
        while tr(p3) == tr(p) and tr(q3) == tr(q):
            p3, q3 = _rand_cmat(rng, n), _rand_cmat(rng, n)
        res = are_isomorphic(a, gadget_g4(p3, q3), seed=30 * k + 1)
        assert res.verdict is not Verdict.YES
        neg += 1

    _report(5, "gadget faithfulness at n ≤ 2",
            True, f"{pos} planted positives all recovered (recall 100%), "
                  f"{neg} certified negatives all rejected (detection 100% ≥ 95%)")


# -- criterion 6: Krull-Schmidt recovery ------------------------------------------

def _a3_indecomposables(g):
    reps = []
    for lo in range(1, 4):
        for hi in range(lo, 4):
            dims = tuple(1 if lo <= v <= hi else 0 for v in range(1, 4))
            mats = {}
            for a in g.arrows:
                u, v = a.source - 1, a.target - 1
                if dims[u] and dims[v]:
                    mats[a.id] = CMatrix.identity(1)
                else:
                    mats[a.id] = CMatrix.zero(dims[v], dims[u])
            reps.append(MatrixRepresentation(g, dims, mats))
    return reps


def _d4_indecomposables(g):
    shapes = [
        ((1, 0, 0, 0), {}),
        ((0, 1, 0, 0), {}),
        ((1, 1, 0, 0), {"b0e0": [[1]]}),
        ((1, 1, 1, 0), {"b0e0": [[1]], "b1e0": [[1]]}),
        ((1, 1, 1, 1), {"b0e0": [[1]], "b1e0": [[1]], "b2e0": [[1]]}),
        ((2, 1, 1, 1), {"b0e0": [[1, 0]], "b1e0": [[0, 1]], "b2e0": [[1, 1]]}),
    ]
    reps = []
    for dims, mats_spec in shapes:
        mats = {}
        for a in g.arrows:
            u, v = a.source - 1, a.target - 1
            if a.id in mats_spec:
                mats[a.id] = CMatrix.from_rows(mats_spec[a.id])
            else:
                mats[a.id] = CMatrix.zero(dims[v], dims[u])
        reps.append(MatrixRepresentation(g, dims, mats))
    return reps


def _random_dashing(rng, g):
    arrows = tuple(Arrow(a.id, a.source, a.target,
                         rng.choice((ArrowKind.FULL, ArrowKind.DASHED)))
                   for a in g.arrows)
    return Biquiver(g.t, arrows)


def test_criterion_6_krull_schmidt():
    rng = random.Random(666)
    successes = 0
    for case in range(100):
        if case % 2:
            g = _random_dashing(rng, path_biquiver(3))
            pool = _a3_indecomposables(g)
        else:
            g = _random_dashing(rng, star_biquiver([1, 1, 1]))
            pool = _d4_indecomposables(g)
        parts = [rng.choice(pool) for _ in range(3)]
        total = direct_sum_list(g, parts)
        s = [random_invertible(rng, d) for d in total.dims]
        scrambled = apply_base_change(total, s)
        dec = decompose(scrambled, trials=8, seed=case)
        # the decomposition certificate must verify exactly in every case
        assert apply_base_change(scrambled, list(dec.base_change)) == \
            direct_sum_list(g, list(dec.summands))
        match = krull_schmidt_compare(list(dec.summands), parts, seed=case)
        if match is None:
            continue
        for i, j, cert in match:
            assert apply_base_change(dec.summands[i], list(cert)) == parts[j]
        successes += 1
    _report(6, "Krull-Schmidt recovery of scrambled sums",
            successes >= 98,
            f"{successes}/100 scrambled three-summand sums recovered "
            "(tolerance ≥ 98); every certificate verified exactly")


# -- criterion 7: semilinear composition and base-change laws ----------------------

def test_criterion_7_semilinear_calculus():
    rng = random.Random(777)
    checked = 0
    for case in range(500):
        ka = rng.choice((MapKind.LINEAR, MapKind.SEMILINEAR))
        kb = rng.choice((MapKind.LINEAR, MapKind.SEMILINEAR))
        n, m, k = (rng.randint(1, 3) for _ in range(3))
        a = _rand_cmat_rect(rng, m, n)
        b = _rand_cmat_rect(rng, k, m)
        kind, c = compose(kb, b, ka, a)
        x = _rand_cmat_rect(rng, n, 1)
        assert apply_map(kind, c, x) == apply_map(kb, b, apply_map(ka, a, x))

        s1, s2 = random_invertible(rng, n), random_invertible(rng, n)
        t1, t2 = random_invertible(rng, m), random_invertible(rng, m)
        once = change_of_basis(ka, a, t1, s1)
        twice = change_of_basis(ka, once, t2, s2)
        assert twice == change_of_basis(ka, a, t1 @ t2, s1 @ s2)
        checked += 1
    _report(7, "semilinear composition/base-change laws",
            True, f"{checked} random instances hold exactly")


def _rand_cmat_rect(rng, rows, cols, bound=4):
    return CMatrix(rows, cols, tuple(
        gaussian(Fraction(rng.randint(-bound, bound), rng.randint(1, 2)),
                 Fraction(rng.randint(-bound, bound), rng.randint(1, 2)))
        for _ in range(rows * cols)))


# -- criterion 8: Monte-Carlo realizability of roots -------------------------------

def _dashings(g):
    out = []
    m = len(g.arrows)
    for mask in range(2 ** m):
        arrows = tuple(
            Arrow(a.id, a.source, a.target,
                  ArrowKind.DASHED if (mask >> k) & 1 else ArrowKind.FULL)
            for k, a in enumerate(g.arrows))
        out.append(Biquiver(g.t, arrows))
    return out


def _first_q2_vector(g):
    from biquiver import evaluate
    for z in itertools.product(range(3), repeat=g.t):
        if any(z) and evaluate(g, z) == 2:
            return z
    raise AssertionError("no q=2 vector in the search box")


def test_criterion_8_root_realizability():
    trials = 20
    need = 18  # 90% of 20
    worst_indec = worst_unique = worst_split = trials
    cases = 0
    for base_idx, base in enumerate((path_biquiver(3), star_biquiver([1, 1, 1]))):
        for dash_idx, g in enumerate(_dashings(base)):
            roots = roots_with_value(g, 1)
            for root_idx, z in enumerate(roots):
                indec = unique = 0
                for trial in range(trials):
                    seed = (((base_idx * 16 + dash_idx) * 32 + root_idx) * 64 + trial)
                    rep = random_representation(g, z, 6, seed)
                    dec = decompose(rep, seed=seed)
                    if len(dec.summands) == 1:
                        indec += 1
                    other = random_representation(g, z, 6, seed + 10 ** 6)
                    if are_isomorphic(rep, other, seed=seed).verdict is Verdict.YES:
                        unique += 1
                assert indec >= need, (g, z, indec)
                assert unique >= need, (g, z, unique)
                worst_indec = min(worst_indec, indec)
                worst_unique = min(worst_unique, unique)
                cases += 1
            z2 = _first_q2_vector(g)
            split = 0
            for trial in range(trials):
                seed = 10 ** 7 + ((base_idx * 16 + dash_idx) * 64 + trial)
                rep = random_representation(g, z2, 6, seed)
                if len(decompose(rep, seed=seed).summands) >= 2:
                    split += 1
            assert split >= need, (g, z2, split)
            worst_split = min(worst_split, split)
    _report(8, "root realizability, Monte Carlo",
            True, f"{cases} (dashing, root) pairs: indecomposable ≥ {worst_indec}/20, "
                  f"unique ≥ {worst_unique}/20, q=2 splits ≥ {worst_split}/20 "
                  "(tolerance 18/20 each)")
