"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print; without -s they appear in captured output on failure.
"""

import contextlib
import time

import numpy as np

from ulset import (
    HOLDS,
    INAPPLICABLE,
    NU,
    OrderCone,
    PointCloud,
    VIOLATED,
    check_dual_relation,
    check_norm_score_identity,
    check_recession_inequality,
    check_sublevel_identity,
    check_translation_invariance,
    classify_convexity,
    contains,
    estimate_lipschitz,
    evaluate,
    evaluate_batch,
    make_handle,
    order_unit_norm,
    separate,
    trace_front,
    weakly_efficient,
)
from ulset.evaluator import KIND_FINITE, KIND_MINUS_INF
from conftest import three_quadrant_value, neg_orthant, random_polyhedral_fixture, three_quadrant_union


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_worked_example_reproduction():
    with criterion("1 worked-example reproduction"):
        start = time.monotonic()
        s = three_quadrant_union()
        hc = make_handle(s, [1.0, 0.0])
        hb = make_handle(s, [1.0, 0.0], strategy="bisection")

        v = evaluate(hc, [0.0, -1.0])
        assert v.is_minus_inf
        assert evaluate(hc, [-1.0, 0.0]) == -1.0

        xs = np.linspace(-3.0, 3.0, 101)
        grid = np.array([[x, y] for y in xs for x in xs])
        expected = np.array([np.nan if three_quadrant_value(x, y) is None else three_quadrant_value(x, y)
                             for x, y in grid])
        for h in (hc, hb):
            vals, kinds = evaluate_batch(h, grid)
            inf_rows = np.isnan(expected)
            assert (kinds[inf_rows] == KIND_MINUS_INF).all()
            assert (kinds[~inf_rows] == KIND_FINITE).all()
            assert np.abs(vals[~inf_rows] - expected[~inf_rows]).max() <= 1e-6
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_cone_example_exact():
    with criterion("2 orthant cone example"):
        h = make_handle(neg_orthant(2), [1.0, 1.0])
        assert evaluate(h, [-1.0, -1.0]).value == -1.0
        assert evaluate(h, [-2.0, 0.0]).value == 0.0


def test_criterion_3_oracle_equivalence():
    with criterion("3 closed form vs bisection"):
        start = time.monotonic()
        rng = np.random.default_rng(20250808)
        for trial in range(20):
            dim = 2 + trial % 2
            s, k = random_polyhedral_fixture(rng, dim)
            hc = make_handle(s, k, t_max=1e6)
            hb = make_handle(s, k, strategy="bisection", t_max=1e6)
            pts = rng.uniform(-10.0, 10.0, size=(10_000, dim))
            vc, kc = evaluate_batch(hc, pts)
            vb, kb = evaluate_batch(hb, pts)
            assert (kc == kb).all(), f"classification differs on fixture {trial}"
            fin = kc == KIND_FINITE
            if fin.any():
                gap = np.abs(vc[fin] - vb[fin]).max()
                assert gap <= 1e-6, f"fixture {trial}: gap {gap}"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def _suite_verdicts(h, seed):
    flags = classify_convexity(h, 400, seed=seed)
    reports = {
        "sublevel": check_sublevel_identity(h, 400, seed=seed),
        "translation": check_translation_invariance(h, 400, seed=seed),
        "recession": check_recession_inequality(h, 400, seed=seed),
        "dual": check_dual_relation(h, 400, seed=seed),
    }
    verdicts = {name: r.verdict for name, r in reports.items()}
    verdicts.update({f"convexity.{k}": r.verdict for k, r in flags.items()})
    return verdicts, reports, flags


def test_criterion_4_property_suites():
    with criterion("4 property suites"):
        cone = make_handle(neg_orthant(2), [1.0, 1.0])
        tq = make_handle(three_quadrant_union(), [1.0, 0.0])

        per_seed = []
        for seed in (42, 43, 44):
            cone_v, _, _ = _suite_verdicts(cone, seed)
            tq_v, _, tq_flags = _suite_verdicts(tq, seed)
            assert all(v == HOLDS for v in cone_v.values()), cone_v
            assert tq_v["sublevel"] == HOLDS
            assert tq_v["translation"] == HOLDS
            assert tq_v["recession"] == HOLDS
            assert tq_v["dual"] == INAPPLICABLE
            assert tq_v["convexity.convex"] == VIOLATED
            assert tq_flags["convex"].witness is not None
            per_seed.append((cone_v, tq_v))
        assert per_seed[0] == per_seed[1] == per_seed[2]


def test_criterion_5_lipschitz():
    with criterion("5 lipschitz classification"):
        diag = make_handle(neg_orthant(2), [1.0, 1.0])
        est = estimate_lipschitz(diag, n_pairs=100_000, seed=42)
        assert est.interior
        assert est.l_bound == 1.0
        assert est.l_emp <= 1.0 + 1e-6

        edge = make_handle(neg_orthant(2), [1.0, 0.0])
        est_edge = estimate_lipschitz(edge, n_pairs=1000, seed=42)
        assert not est_edge.interior
        assert est_edge.l_bound is NU


def test_criterion_6_pareto_recovery():
    with criterion("6 pareto front recovery"):
        start = time.monotonic()
        rng = np.random.default_rng(99)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 51))
            F = PointCloud(rng.uniform(-5.0, 5.0, size=(n, m)))
            C = OrderCone.nonneg(m)
            k = np.ones(m)
            front = trace_front(F, C, k, F)
            union = sorted({i for arg in front.values() for i in arg})
            assert union == weakly_efficient(F, C)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_7_norm_identities():
    with criterion("7 norm identities"):
        rng = np.random.default_rng(7)
        C = OrderCone.nonneg(3)
        w = np.array([1.0, 2.0, 0.25])
        Y = rng.uniform(-10.0, 10.0, size=(10_000, 3))
        vals = order_unit_norm(C, w, Y)
        ref = np.abs(Y / w).max(axis=1)
        assert np.abs(vals - ref).max() <= 1e-9

        r = check_norm_score_identity(OrderCone.nonneg(2), [1.0, 1.0], [0.0, 0.0],
                                       1000, seed=42)
        assert r.verdict == HOLDS and r.max_defect <= 1e-7

        C2 = OrderCone.nonneg(2)
        k2 = np.array([1.0, 2.0])
        Z = rng.uniform(-3.0, 3.0, size=(1000, 2))
        nz = order_unit_norm(C2, k2, Z)
        for y, v in zip(Z, nz):
            if abs(v - 1.0) <= 1e-7:
                continue
            inside = contains(C2.rep, y + k2, 1e-7) and contains(C2.rep, k2 - y, 1e-7)
            assert (v <= 1.0) == inside


def test_criterion_8_separation_triples():
    with criterion("8 separation triples"):
        h = make_handle(neg_orthant(2), [1.0, 1.0])

        apart = separate(h, np.array([[1.0, 1.0], [2.0, 0.5]]), mode="closed")
        assert apart.disjoint
        assert separate(h, np.array([[1.0, 1.0], [2.0, 0.5]]), mode="interior").disjoint

        touch_closed = separate(h, np.array([[0.0, 0.0]]), mode="closed")
        touch_interior = separate(h, np.array([[0.0, 0.0]]), mode="interior")
        assert not touch_closed.disjoint
        assert touch_interior.disjoint

        overlap = separate(h, np.array([[5.0, 5.0], [-1.0, -1.0]]), mode="closed")
        assert not overlap.disjoint
        assert overlap.offending_indices == (1,)
        assert not separate(h, np.array([[-1.0, -1.0]]), mode="interior").disjoint
