import math
from itertools import combinations

import numpy as np
import pytest

from bmhull.estimate import stream
from bmhull.hulls import (DegeneracyError, SimplexTimes, build_hull, count_q,
                          count_w, default_eps, euler_characteristic_3d,
                          event_E, facet_events, merged_times, oriented_normal,
                          oriented_normals)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])


def test_square_hull():
    poly = build_hull(SQUARE)
    assert len(poly.simplices) == len(poly.normals) == len(poly.offsets) == 4
    assert sorted(poly.hull_vertex_indices) == [0, 1, 2, 3]
    assert poly.contains([0.5, 0.5])
    assert poly.contains([1.0, 1.0])  # boundary, within tolerance
    assert not poly.contains([1.1, 0.5])
    for normal, offset in zip(poly.normals, poly.offsets):
        assert np.linalg.norm(normal) == pytest.approx(1.0)
        # outward: interior point strictly inside
        assert float(normal @ [0.5, 0.5]) < offset


def test_simplex_hulls_all_dims():
    for d in (2, 3, 4):
        pts = np.vstack([np.zeros(d), np.eye(d)])
        poly = build_hull(pts)
        assert poly.simplices.shape == poly.normals.shape == (d + 1, d)
        assert poly.contains(np.full(d, 1.0 / (d + 1)))


def test_degenerate_inputs():
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegeneracyError) as exc:
        build_hull(line)
    assert exc.value.rank == 1
    with pytest.raises(DegeneracyError):
        build_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))  # too few points
    with pytest.raises(ValueError):
        build_hull(np.random.default_rng(0).random((10, 5)))  # unsupported dim


def test_random_hulls_brute_force_containment():
    rng = stream(21, 401, 0)
    for d in (2, 3, 4):
        for _ in range(30):
            pts = rng.standard_normal((12 + d * 4, d))
            poly = build_hull(pts)
            # every input point satisfies all facet inequalities within eps
            for normal, offset in zip(poly.normals, poly.offsets):
                assert np.all(pts @ normal <= offset + poly.eps_geom)
                assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-12)


def test_euler_relation_3d():
    rng = stream(22, 402, 0)
    for _ in range(50):
        pts = rng.standard_normal((20, 3))
        poly = build_hull(pts)
        assert euler_characteristic_3d(poly) == 2
    with pytest.raises(ValueError):
        euler_characteristic_3d(build_hull(SQUARE))


def test_oriented_normal_hand_cases():
    n = oriented_normal(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([2.0, 0.5]))
    assert n == pytest.approx([1.0, 0.0])
    n2 = oriented_normal(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([-2.0, 0.5]))
    assert n2 == pytest.approx([-1.0, 0.0])
    # reference on the plane through the origin: tie broken to positive coord
    n3 = oriented_normal(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([0.0, 3.0]))
    assert n3 == pytest.approx([1.0, 0.0])
    with pytest.raises(ValueError):
        oriented_normal(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.zeros(2))
    with pytest.raises(DegeneracyError):
        oriented_normal(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                        np.zeros(3))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_oriented_normals_rows(d):
    rng = stream(24, 404 + d, 0)
    rows = 300
    pts = rng.standard_normal((rows, d, d))
    ref = 3.0 * rng.standard_normal((rows, d))
    # rows 0-19: references orthogonal to the normal, the tie rule decides
    # the sign; rows 10-19 repeat rows 0-9 with the reference negated
    pts[10:20] = pts[:10]
    ref[:10] = pts[:10, 1] - pts[:10, 0]
    ref[10:20] = -ref[:10]
    # degenerate rows: a repeated point, and d points on one line
    pts[20, 1] = pts[20, 0]
    pts[21] = pts[21, :1] + np.outer(np.arange(d), rng.standard_normal(d))
    n, rank = oriented_normals(pts, ref)
    assert n.shape == (rows, d) and rank.shape == (rows,)
    assert rank[20] == d - 2 and rank[21] == 1
    ok = np.ones(rows, dtype=bool)
    ok[20:22] = False
    assert np.all(rank[ok] == d - 1)
    assert np.allclose(np.linalg.norm(n[ok], axis=1), 1.0, rtol=0.0, atol=1e-12)
    edges = pts[:, 1:] - pts[:, :1]
    scale = np.abs(edges).max(axis=(1, 2))
    assert np.all(np.abs(np.einsum("rkd,rd->rk", edges, n)).max(axis=1)[ok]
                  <= 1e-12 * scale[ok])
    side = np.einsum("rd,rd->r", n, ref)
    assert np.all(side[22:] > 0.0)
    assert np.all(np.abs(side[:20]) <= 1e-12 * np.linalg.norm(ref[:20], axis=1))
    for k in range(20):
        assert n[k][np.abs(n[k]) > 1e-15][0] > 0.0
    assert np.array_equal(n[:10], n[10:20])
    with pytest.raises(ValueError):
        oriented_normals(pts[:, 1:], ref)


def test_event_E_square():
    corners = SQUARE[:4]
    assert event_E(corners[[0, 1]], corners)          # bottom edge is a facet
    assert not event_E(corners[[0, 2]], corners)      # diagonal is not
    assert event_E(np.array([[0.0, -1.0], [1.0, -1.0]]), corners)  # outside line


def test_event_E_matches_hull_facets():
    rng = stream(23, 403, 0)
    for _ in range(20):
        pts = rng.standard_normal((15, 2))
        poly = build_hull(pts)
        facet_pairs = {frozenset(simplex) for simplex in poly.simplices.tolist()}
        for i in range(6):
            for j in range(i + 1, 6):
                expected = frozenset((i, j)) in facet_pairs
                got = event_E(pts[[i, j]], pts)
                if expected != got:
                    # disagreement only permissible within tolerance of a facet
                    n = oriented_normal(pts[[i, j]], pts[i])
                    side = pts @ n - float(n @ pts[i])
                    assert min(abs(side.min()), abs(side.max())) < 1e-8
                else:
                    assert expected == got


@pytest.mark.parametrize("d", [2, 3])
def test_facet_events_rows_against_hull_facets(d):
    """Every d-subset of a point set, stacked with the whole set as its level
    points, is an event exactly when qhull lists it as a facet."""
    rng = stream(25, 406 + d, 0)
    pts = rng.standard_normal((9, d))
    poly = build_hull(pts)
    facets = {frozenset(simplex) for simplex in poly.simplices.tolist()}
    subsets = list(combinations(range(len(pts)), d))
    simplex = pts[np.array(subsets)]
    level = np.broadcast_to(pts, (len(subsets),) + pts.shape)
    events, rank = facet_events(simplex, level, default_eps(pts))
    assert np.all(rank == d - 1)
    assert [frozenset(c) for c, e in zip(subsets, events) if e] == \
        [frozenset(c) for c in subsets if frozenset(c) in facets]
    # a degenerate simplex is no event, even where its points are all the
    # level points and so lie on any hyperplane through them
    flat = simplex[:1].copy()
    flat[0, 1] = flat[0, 0]
    events, rank = facet_events(flat, flat, [1e-9])
    assert not events[0] and rank[0] < d - 1


def test_count_q_square_times():
    times = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    assert count_q(times, SQUARE) == 4
    got = count_q(times, SQUARE, region=lambda t: (t == 0.1).any(axis=1))
    assert got == 2  # the two square edges meeting at vertex 0


def test_count_q_region_sees_sorted_tuples():
    times = np.array([0.4, 0.1, 0.3, 0.2])
    seen = []

    def region(tuples):
        seen.append(tuples)
        return np.ones(len(tuples), dtype=bool)

    assert count_q(times, SQUARE[:4], region=region) == 4
    (tuples,) = seen
    assert tuples.shape == (4, 2)
    assert np.array_equal(tuples, np.sort(tuples, axis=1))
    # the square's edges, as sorted pairs of the times of their corners
    assert sorted(map(tuple, tuples.tolist())) == [(0.1, 0.3), (0.1, 0.4),
                                                   (0.2, 0.3), (0.2, 0.4)]


def test_count_w_comb_and_region():
    t = np.linspace(0, 1, 10)
    assert count_w(t, 2) == math.comb(10, 2)
    assert count_w(t, 3) == math.comb(10, 3)
    got = count_w(t, 2, region=lambda tup: tup[:, 1] - tup[:, 0] > 0.5)
    brute = sum(1 for i in range(10) for j in range(i + 1, 10) if t[j] - t[i] > 0.5)
    assert got == brute


def test_count_w_poisson_moment():
    """E[C(m+2, 2)] with m ~ Poisson(20) equals (E m^2 + 3 E m + 2)/2 = 241."""
    rng = stream(24, 404, 0)
    vals = []
    for _ in range(3000):
        m = rng.poisson(20.0)
        t = np.unique(np.concatenate([[0.0, 1.0], rng.random(m)]))
        vals.append(count_w(t, 2))
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - 241.0) <= 3 * se


def test_simplex_times_and_merge():
    r = SimplexTimes(np.array([0.1, 0.5]))
    s = SimplexTimes(np.array([0.3, 0.7]))
    assert np.array_equal(merged_times(r, s), [0.1, 0.3, 0.5, 0.7])
    with pytest.raises(ValueError):
        SimplexTimes(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SimplexTimes(np.array([0.2, 1.2]))


def test_serialization_and_eps():
    poly = build_hull(SQUARE)
    import json
    doc = json.loads(poly.to_json())
    assert doc["dim"] == 2 and len(doc["facets"]) == 4
    assert default_eps(SQUARE) == pytest.approx(1e-9 * math.sqrt(2.0))
