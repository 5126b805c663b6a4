import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import QhullError

from bmhull import hulls
from bmhull.estimate import stream
from bmhull.hulls import (DegeneracyError, SimplexTimes, build_hull, build_hulls, default_eps,
                          euler_characteristic_3d, facet_events, merged_times,
                          oriented_normals, planar_rain_facets)
from bmhull.paths import brownian, time_steps
from bmhull.rain import level_times

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
    """build_hull raises build_hulls' per-row errors, with their messages
    and the row's affine rank."""
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegeneracyError, match=r"^input has affine rank 1 < 2$") as exc:
        build_hull(line)
    assert exc.value.rank == 1
    with pytest.raises(DegeneracyError, match=r"^need at least 3 points in dimension 2$"):
        build_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))  # too few points
    with pytest.raises(DegeneracyError, match=r"^need at least 4 points in dimension 3$") as exc:
        build_hull(np.eye(3))
    assert exc.value.rank == 2
    assert all(isinstance(e, DegeneracyError) and e.rank == 2
               for e in build_hulls(np.tile(np.eye(3), (3, 1, 1))))
    with pytest.raises(ValueError):
        build_hull(np.random.default_rng(0).random((10, 5)))  # unsupported dim
    with pytest.raises(ValueError, match="dimensions"):
        build_hulls(np.zeros((2, 8, 5)))
    with pytest.raises(ValueError, match="2-d array"):
        build_hull(np.zeros((1, 4, 3)))
    with pytest.raises(ValueError, match="3-d array"):
        build_hulls(np.zeros((4, 3)))


def test_build_hull_qhull_failure(monkeypatch):
    """A row qhull refuses past the rank gate raises DegeneracyError from
    the QhullError, with the row's rank."""
    def refuse(points):
        raise QhullError("QH6154 initial simplex is flat")

    monkeypatch.setattr(hulls, "ConvexHull", refuse)
    with pytest.raises(DegeneracyError, match=r"^qhull failed: QH6154 initial simplex is flat$") \
            as exc:
        build_hull(SQUARE)
    assert exc.value.rank == 2 and isinstance(exc.value.__cause__, QhullError)


def test_build_hulls_mixed_rank_block():
    """One block holding full, planar and collinear rows: each degenerate
    row gets its rank, each full row the hull build_hull gives it alone,
    and every tolerance is default_eps of its own row."""
    rng = stream(22, 402, 0)
    pts = rng.standard_normal((6, 12, 3)) * [[[1.0]], [[1e-3]], [[1e3]], [[1.0]], [[1.0]], [[5.0]]]
    pts[1, :, 2] = 0.25                                # planar: rank 2
    pts[3] = np.outer(np.linspace(0.0, 1.0, 12), [1.0, 2.0, 3.0])  # a line: rank 1
    got = build_hulls(pts)
    assert [e.rank for e in got if isinstance(e, DegeneracyError)] == [2, 1]
    for row, poly in zip(pts, got):
        if isinstance(poly, DegeneracyError):
            with pytest.raises(DegeneracyError, match=re.escape(str(poly))):
                build_hull(row)
            continue
        alone = build_hull(row)
        assert np.array_equal(poly.vertices, row)
        assert np.array_equal(poly.simplices, alone.simplices)
        assert np.array_equal(poly.normals, alone.normals)
        assert np.array_equal(poly.offsets, alone.offsets)
        assert poly.eps_geom == alone.eps_geom == default_eps(row)
        assert poly.eps_geom == 1e-9 * float(np.linalg.norm(row.max(axis=0) - row.min(axis=0)))
        assert type(poly.eps_geom) is float
    assert np.array_equal(default_eps(pts), [default_eps(row) for row in pts])


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


def _one_normal(points, reference):
    """oriented_normals on one row: its normal and affine rank."""
    n, rank = oriented_normals(np.array([points], dtype=float),
                               np.array([reference], dtype=float))
    return n[0], int(rank[0])


def test_oriented_normal_hand_cases():
    n, rank = _one_normal([[1.0, 0.0], [1.0, 1.0]], [2.0, 0.5])
    assert n == pytest.approx([1.0, 0.0]) and rank == 1
    n2, _ = _one_normal([[1.0, 0.0], [1.0, 1.0]], [-2.0, 0.5])
    assert n2 == pytest.approx([-1.0, 0.0])
    # reference on the plane through the origin: tie broken to positive coord
    n3, _ = _one_normal([[0.0, 1.0], [0.0, -1.0]], [0.0, 3.0])
    assert n3 == pytest.approx([1.0, 0.0])
    with pytest.raises(ValueError):
        _one_normal([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], np.zeros(2))
    # affinely dependent points: a rank below d - 1 flags the row
    _, rank = _one_normal([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros(3))
    assert rank == 1


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

    def event(simplex):
        simplex = np.asarray(simplex, dtype=float)
        eps = default_eps(np.vstack([simplex, corners]))
        return bool(facet_events(simplex[None], corners[None], [eps])[0][0])

    assert event(corners[[0, 1]])                 # bottom edge is a facet
    assert not event(corners[[0, 2]])             # diagonal is not
    assert event([[0.0, -1.0], [1.0, -1.0]])      # outside line


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


def _qhull_rain_facets(times, points, m):
    """Oracle of planar_rain_facets: one qhull hull per row, counting the
    edges whose sorted time pair lies inside (0, 1), i.e. joins two rain
    points; the pinned times 0 and 1 are B(0) and B(1).  A row without rain
    has no hull and counts 0."""
    counts = []
    for t, p, k in zip(times, points, np.asarray(m).tolist()):
        if k == 0:
            counts.append(0)
            continue
        pairs = np.sort(t[build_hull(p[:k + 2]).simplices], axis=1)
        counts.append(int(np.count_nonzero((pairs[:, 0] > 0.0) & (pairs[:, 1] < 1.0))))
    return np.array(counts)


# hand rows (B(0), rain..., B(1)) and their rain edge counts
HAND_ROWS = [
    ([[0.0, 0.0], [1.0, 0.0]], 0),                          # m = 0
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 0),              # m = 1: a triangle
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]], 1),  # m = 2, B(1) inside
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 0),  # m = 2, B(0)B(1) a diagonal
    # the square with B(0)B(1) its left edge and the centre as rain
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.0, 1.0]], 1),
    # the square with B(0)B(1) a diagonal and the centre, on it, as rain
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 1.0]], 0),
    # B(0) strictly inside the square, B(1) a corner
    ([[0.5, 0.5], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], 2),
    # B(0) and B(1) strictly inside: every edge is a rain edge
    ([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.25, 0.5]], 4),
    # rain at the midpoints of the bottom and right edges, which are no
    # vertices: their widest gaps are exactly pi, one the wrap-around gap
    ([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5], [1.0, 1.0], [0.0, 1.0]], 1),
]


def _hand_block(pad):
    """HAND_ROWS as one block, padded with the point pad, their times and
    counts."""
    width = max(len(p) for p, _ in HAND_ROWS)
    points = np.tile(np.asarray(pad, dtype=float), (len(HAND_ROWS), width, 1))
    times = np.ones((len(HAND_ROWS), width))
    for k, (p, _) in enumerate(HAND_ROWS):
        points[k, :len(p)] = p
        times[k, :len(p)] = np.linspace(0.0, 1.0, len(p))
    m = np.array([len(p) - 2 for p, _ in HAND_ROWS])
    return times, points, m, np.array([c for _, c in HAND_ROWS])


def test_planar_rain_facets_square_times():
    times, points, m, expected = _hand_block([0.0, 0.0])
    assert np.array_equal(_qhull_rain_facets(times, points, m), expected)
    assert np.array_equal(planar_rain_facets(points, m), expected)
    for k in range(len(m)):  # one row at a time, and so one width per row
        assert planar_rain_facets(points[k:k + 1, :m[k] + 2], m[k:k + 1]) == expected[k]


@pytest.mark.parametrize("pad", [[50.0, -70.0], [0.5, 0.25], [np.inf, np.nan]],
                         ids=["outside", "inside", "non-finite"])
def test_planar_rain_facets_masks_pads(pad):
    """The pad columns are never read: pads that would be hull vertices,
    pads inside the hull and non-finite pads give the same counts, with no
    warning."""
    _, points, m, expected = _hand_block(pad)
    assert np.array_equal(planar_rain_facets(points, m), expected)


@pytest.mark.parametrize("alpha", [10.0, 20.0, 50.0])
@pytest.mark.parametrize("seed", [3, 31])
def test_planar_rain_facets_matches_qhull(alpha, seed):
    """On 4000 level sets drawn as the Campbell check draws them, with the
    pads rain.level_times and paths.brownian leave, the stacked vertex test
    gives the qhull count of every row."""
    rng = stream(seed, 414, int(alpha))
    times, m = level_times(rng, alpha, 4000)
    points = brownian(rng, len(m), time_steps(times), 2)[:, 1:]
    assert np.array_equal(planar_rain_facets(points, m), _qhull_rain_facets(times, points, m))


def test_planar_rain_facets_refuses_collinear_rows():
    """A row with rain whose points have affine rank below 2 has no planar
    hull; it is refused by name, not counted 0."""
    _, points, m, _ = _hand_block([0.0, 0.0])
    line = np.linspace(0.0, 1.0, points.shape[1])
    planted = points.copy()
    planted[4] = np.column_stack([line, 2.0 * line])  # m = 3 on one line
    with pytest.raises(DegeneracyError, match="row 4 ") as info:
        planar_rain_facets(planted, m)
    assert info.value.rank == 1
    # off the line by 1e-13 of the spread: rank 1 under the 1e-12 rule
    planted[4, 2, 1] += 1e-13
    with pytest.raises(DegeneracyError, match="row 4 "):
        planar_rain_facets(planted, m)
    # m = 1: three collinear points, which qhull refused and the lhs scored 0
    planted = points[1:2].copy()
    planted[0, 2] = [2.0, 0.0]
    with pytest.raises(DegeneracyError, match="row 0 "):
        planar_rain_facets(planted, m[1:2])
    # without rain a row is 0 whatever its two points
    assert planar_rain_facets(np.zeros((1, 2, 2)), np.array([0])) == 0
    # a row whose level set is wider than its columns is refused
    with pytest.raises(ValueError, match="m \\+ 2 <= columns"):
        planar_rain_facets(points[:, :5], m)


def test_planar_rain_facets_memory_bounded():
    """The rows go in sub-blocks of at most _VERTEX_ELEMS angles: at
    alpha = 50, the largest the Campbell check takes, this 256-row block is
    71 columns wide, and its traced peak is 0.39 MB where one pass over all
    rows would take 32 MB."""
    rng = stream(31, 415)
    times, m = level_times(rng, 50.0, 256)
    points = brownian(rng, len(m), time_steps(times), 2)[:, 1:]
    tracemalloc.start()
    try:
        planar_rain_facets(points, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, peak


def _mean_facets_exact(n, d):
    """Mean facet count 2 (d-1)! [n+1, d] / n! of the hull of a d-dimensional
    walk S_0, ..., S_n whose increments are exchangeable, symmetric and a.s.
    in general position, with [., .] the unsigned Stirling numbers of the
    first kind (Kabluchko, Vysotsky and Zaporozhets, GAFA 2017)."""
    row = [1]  # [0, k] for k = 0, 1, ...
    for j in range(n + 1):  # [j+1, k] = j [j, k] + [j, k-1]
        row = [j * a + b for a, b in zip(row + [0], [0] + row)]
    return 2 * math.factorial(d - 1) * row[d] / math.factorial(n)


@pytest.mark.parametrize("d", [2, 3])
def test_build_hull_mean_facets_exact_law(d):
    """Brownian motion at m sorted uniform times plus 0 and 1 is a walk of
    n = m + 1 steps sqrt(gap) Z, exchangeable because uniform spacings are,
    so the facet count of its hull has the mean of _mean_facets_exact: 2 H_n
    in d = 2 and 2 (H_n^2 - H_n^(2)) in d = 3."""
    m, reps = 30, 4000
    n = m + 1
    h1 = sum(1.0 / k for k in range(1, n + 1))
    h2 = sum(1.0 / k ** 2 for k in range(1, n + 1))
    exact = _mean_facets_exact(n, d)
    assert exact == pytest.approx(2 * h1 if d == 2 else 2 * (h1 * h1 - h2), rel=1e-12)
    rng = stream(27, 412, d)
    counts = np.empty(reps)
    for i in range(reps):
        times = np.concatenate([[0.0], np.sort(rng.random(m)), [1.0]])
        counts[i] = len(build_hull(brownian(rng, 1, np.diff(times), d)[0]).simplices)
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - exact) <= 4 * se


def _mean_facets_poisson(alpha, d):
    """The exact law _mean_facets_exact mixed over m ~ Poisson(alpha) rain
    points, n = m + 1 steps, as integrals.campbell_mean mixes the planar
    edge law: sum_m Poisson(alpha; m) 2 (d-1)! [n+1, d] / n!.  It starts at
    m = d - 1, the fewest rain points whose walk spans a hull; the terms
    grow like log(n)^(d-1), and the weights past m = 8 alpha are below 1e-40."""
    return math.fsum(math.exp(m * math.log(alpha) - alpha - math.lgamma(m + 1))
                     * _mean_facets_exact(m + 1, d) for m in range(d - 1, int(8 * alpha)))


@pytest.mark.parametrize("d", [2, 3])
def test_build_hull_mean_facets_poisson_law(d):
    """The path at 0, at Poisson(alpha) sorted uniform times and at 1, as
    the Campbell check draws it: given m rain points it is the walk of
    _mean_facets_exact with n = m + 1, so the mean facet count over the
    Poisson count is _mean_facets_poisson.  A draw with too few points to
    span a hull raises; at alpha = 20, P(m < d) is below 5e-7."""
    alpha, reps = 20.0, 2000
    exact = _mean_facets_poisson(alpha, d)
    rng = stream(27, 413, d)
    times, m = level_times(rng, alpha, reps)
    pts = brownian(rng, reps, time_steps(times), d)[:, 1:]
    counts = np.array([len(build_hull(p[:k + 2]).simplices)
                       for p, k in zip(pts, m.tolist())])
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - exact) <= 4 * se, (counts.mean(), exact, se)


def test_simplex_times_and_merge():
    r = SimplexTimes(np.array([0.1, 0.5]))
    s = SimplexTimes(np.array([0.3, 0.7]))
    assert np.array_equal(merged_times(r, s), [0.1, 0.3, 0.5, 0.7])
    with pytest.raises(ValueError):
        SimplexTimes(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        SimplexTimes(np.array([0.2, 1.2]))


def test_polytope_arrays_and_eps():
    poly = build_hull(SQUARE)
    assert poly.dim == 2 and poly.simplices.shape == (4, 2)
    assert poly.normals.shape == (4, 2) and poly.offsets.shape == (4,)
    assert default_eps(SQUARE) == pytest.approx(1e-9 * math.sqrt(2.0))
