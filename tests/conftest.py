import numpy as np
import pytest

from ulset import (
    HalfSpace,
    OrderCone,
    Polyhedron,
    SetUnion,
    make_handle,
    recession_cone,
)
from ulset.evaluator import KIND_FINITE, evaluate_batch


def three_quadrant_union() -> SetUnion:
    """Union of {y1 <= -1}, {y1 <= 0, y2 <= 0} and {y2 <= -1}.

    With k = (1, 0) the functional is piecewise: -inf below y2 = -1,
    y1 on the middle band, y1 + 1 above y2 = 0.
    """
    return SetUnion((
        Polyhedron((HalfSpace([1.0, 0.0], -1.0),)),
        Polyhedron((HalfSpace([1.0, 0.0], 0.0), HalfSpace([0.0, 1.0], 0.0))),
        Polyhedron((HalfSpace([0.0, 1.0], -1.0),)),
    ))


def three_quadrant_value(y1: float, y2: float):
    """Reference formula for the three-quadrant union with k = (1, 0)."""
    if y2 <= -1.0:
        return None  # stands for -inf
    if y2 <= 0.0:
        return y1
    return y1 + 1.0


def biased_eval(bias_scale=0.05):
    """Fault injector: adds bias_scale * ||y||^2 to every finite value.

    Checks are expected to call it in place of
    ``ulset.analysis.evaluate_batch`` (monkeypatched there).
    """

    def patched(h, Y):
        vals, kinds = evaluate_batch(h, Y)
        pts = np.atleast_2d(np.asarray(Y, dtype=float))
        bump = bias_scale * (pts ** 2).sum(axis=1)
        vals = np.where(kinds == KIND_FINITE, vals + bump, vals)
        return vals, kinds

    return patched


def rec_handle_for(h):
    return make_handle(recession_cone(h.set).to_polyhedron(), h.direction.k)


def neg_orthant(n: int = 2) -> Polyhedron:
    eye = np.eye(n)
    return Polyhedron(tuple(HalfSpace(eye[i], 0.0) for i in range(n)))


@pytest.fixture
def tq_set():
    return three_quadrant_union()


@pytest.fixture
def tq_handle(tq_set):
    return make_handle(tq_set, [1.0, 0.0])


@pytest.fixture
def tq_bisect(tq_set):
    return make_handle(tq_set, [1.0, 0.0], strategy="bisection")


@pytest.fixture
def cone_diag():
    """Negative orthant with the strictly interior direction (1, 1)."""
    return make_handle(neg_orthant(2), [1.0, 1.0])


@pytest.fixture
def cone_edge():
    """Negative orthant with the boundary direction (1, 0)."""
    return make_handle(neg_orthant(2), [1.0, 0.0])


@pytest.fixture
def pareto_cloud():
    from ulset import PointCloud

    return PointCloud(np.array([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [2.0, 2.0]]))


@pytest.fixture
def orthant2():
    return OrderCone.nonneg(2)


def random_polyhedral_fixture(rng: np.random.Generator, dim: int,
                              max_halfspaces: int = 6, k=None, strict: bool = False):
    """Random polyhedron or union with a direction its rows certify.

    Rows are made either exactly orthogonal to k (so they stay
    t-independent under closed form and bisection alike) or clearly
    aligned with it (a·k at least 0.3 * ||a|| * ||k||). A given k is
    reused; ``strict`` makes every row aligned (strict recession).
    """
    if k is None:
        k = rng.normal(size=dim)
        k /= np.linalg.norm(k)

    def row():
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        s = float(a @ k)
        if not strict and rng.uniform() < 0.25:
            a = a - s * k
            norm = np.linalg.norm(a)
            if norm < 1e-6:
                a = rng.normal(size=dim)
                a -= float(a @ k) * k
                norm = np.linalg.norm(a)
            a /= norm
        else:
            if s < 0:
                a, s = -a, -s
            if s < 0.3:
                a = a - s * k + 0.5 * k
                a /= np.linalg.norm(a)
        return HalfSpace(a, float(rng.uniform(-3.0, 3.0)))

    n_members = int(rng.integers(1, 4))
    members = []
    for _ in range(n_members):
        n_rows = int(rng.integers(1, max_halfspaces + 1))
        members.append(Polyhedron(tuple(row() for _ in range(n_rows))))
    s = members[0] if n_members == 1 else SetUnion(tuple(members))
    return s, k
