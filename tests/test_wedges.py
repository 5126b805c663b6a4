import math
import tracemalloc

import numpy as np
import pytest

from bmhull import verify
from bmhull.estimate import EstimatorConfig, stream
from bmhull.hulls import DegeneracyError, Polytope, build_hull
from bmhull.verify import (_SPECIAL_TIP_OFFSET, _TAG_LEMMA3, _WEDGE_POLYTOPE_POINTS,
                           _WEDGE_SEGMENT, brute_force_special, random_special_instance,
                           random_wedge_polytope)
from bmhull.wedges import (AmbientWedge, DiscordantWitness, HypothesisError,
                           LemmaViolationError, Wedge2D, angle, discordant_pairs, find_discordant,
                           lemma3_constant, special_indices)


def test_wedge2d_membership():
    w = Wedge2D(tip=np.array([1.0, 0.0]), axis_angle=0.0, half_angle=math.pi / 4)
    assert w.membership([[2.0, 0.0]])[0]
    assert w.membership([[2.0, 0.999]])[0]
    assert not w.membership([[2.0, 1.001]])[0]
    assert not w.membership([[0.0, 0.0]])[0]
    assert w.membership([[1.0, 0.0]])[0]  # the tip itself
    with pytest.raises(ValueError):
        Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=0.0)


def test_wedge2d_reflex():
    w = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=3 * math.pi / 4)
    assert not w.convex
    assert w.membership([[0.0, 1.0]])[0]
    assert w.membership([[-1.0, 1.0]])[0]
    assert not w.membership([[-1.0, 0.0]])[0]


def test_edge_normals_geometry():
    w = Wedge2D(tip=np.array([0.5, -0.5]), axis_angle=0.3, half_angle=0.7)
    normals = w.edge_normals()
    edge_dirs = np.array([[math.cos(0.3 + 0.7), math.sin(0.3 + 0.7)],
                          [math.cos(0.3 - 0.7), math.sin(0.3 - 0.7)]])
    # each inner normal annihilates its own edge direction
    assert abs(normals[0] @ edge_dirs[0]) < 1e-12
    assert abs(normals[1] @ edge_dirs[1]) < 1e-12
    # and points into the wedge: positive on the axis direction
    axis = np.array([math.cos(0.3), math.sin(0.3)])
    assert normals[0] @ axis > 0 and normals[1] @ axis > 0
    # half-plane: both normals coincide
    hp = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2)
    nn = hp.edge_normals()
    assert nn[0] == pytest.approx(nn[1])


def test_ambient_wedge():
    w = AmbientWedge(tip=np.zeros(3), u1=np.array([1.0, 0.0, 0.0]),
                     u2=np.array([0.0, 1.0, 0.0]))
    assert w.contains([[1.0, 1.0, -3.0]])[0]
    assert not w.contains([[-0.1, 1.0, 0.0]])[0]


def test_angle_basic():
    assert angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.pi / 2)
    assert angle([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert angle([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        angle([2.0, 0.0], [0.0, 1.0])


def _discordant(n_r, off_r, verts_r, n_s, off_s, verts_s, gamma, theta_min):
    """discordant_pairs on one facet pair."""
    rows = [np.array([x], dtype=float)
            for x in (n_r, off_r, verts_r, n_s, off_s, verts_s)]
    return bool(discordant_pairs(*rows, gamma, theta_min)[0])


def _within(gamma, verts_r, verts_s, n_r, off_r, n_s, off_s):
    """Discordance at theta_min 0: both facets within gamma of the ridge."""
    return _discordant(n_r, off_r, verts_r, n_s, off_s, verts_s, gamma, 0.0)


def test_check_discordant_hand_ridge_distances():
    """Vertices at a known distance from the ridge decide at gamma just above
    and just below that distance."""
    up, down = 1.0 + 1e-9, 1.0 - 1e-9
    # (1,0) is at distance 1 from the ridge point (1,1) in the normal plane
    planar = ([[1.0, 0.0]], [[1.0, 1.0]], [1.0, 0.0], 1.0, [0.0, 1.0], 1.0)
    assert _within(up, *planar) and not _within(down, *planar)
    # 3D: distance ignores the ridge direction component
    spatial = ([[1.0, 0.0, 57.0]], [[1.0, 1.0, -3.0]], [1.0, 0.0, 0.0], 1.0,
               [0.0, 1.0, 0.0], 1.0)
    assert _within(up, *spatial) and not _within(down, *spatial)
    # rotation invariance of the distance
    rng = stream(31, 501, 0)
    th = rng.random() * 2 * math.pi
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    v = rot @ [1.0, 0.0]
    rotated = ([v], [v], rot @ [1.0, 0.0], 1.0, rot @ [0.0, 1.0], 1.0)
    assert _within(up, *rotated) and not _within(down, *rotated)
    # a non-orthogonal pair: normals 60 degrees apart, ridge at (1, 1/sqrt 3)
    n_s = [0.5, math.sqrt(3) / 2]
    far = [[1.0, 1.0 / math.sqrt(3) - 2.0]]
    oblique = (far, far, [1.0, 0.0], 1.0, n_s, 1.0)
    assert _within(2.0 + 1e-9, *oblique) and not _within(2.0 - 1e-9, *oblique)


def _ridge_distance_oracle(n_r, off_r, n_s, off_s, verts):
    """Distance of each vertex to the ridge of two non-parallel hyperplanes,
    measured in their normal plane: a least-squares ridge point and a
    Gram-Schmidt basis of span{n_r, n_s}."""
    n_r, n_s = np.asarray(n_r, dtype=float), np.asarray(n_s, dtype=float)
    ridge, *_ = np.linalg.lstsq(np.vstack([n_r, n_s]), [off_r, off_s], rcond=None)
    e = n_s - (n_s @ n_r) * n_r
    basis = np.vstack([n_r, e / np.linalg.norm(e)])
    return np.linalg.norm((np.asarray(verts, dtype=float) - ridge) @ basis.T, axis=1)


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_discordant_pairs_against_ridge_oracle(d):
    rng = stream(35, 505 + d, 0)
    rows = 400
    n_r = _unit(rng.standard_normal((rows, d)))
    n_s = _unit(rng.standard_normal((rows, d)))
    # rows 0-19 are parallel, (n, n), and rows 20-39 antiparallel, (n, -n),
    # from random unit n; they have no ridge, although the rounded cosine
    # can miss +-1 by an ulp and put arccos 1.5e-8 off 0 or pi
    n_s[:20] = n_r[:20]
    n_s[20:40] = -n_r[20:40]
    off_r, off_s = rng.standard_normal(rows), rng.standard_normal(rows)
    verts_r = rng.standard_normal((rows, d, d))
    verts_s = rng.standard_normal((rows, d, d))
    gamma, theta_min = 2.5, 0.3
    got = discordant_pairs(n_r, off_r, verts_r, n_s, off_s, verts_s, gamma, theta_min)
    assert got.shape == (rows,)
    for k in range(rows):
        c = float(n_r[k] @ n_s[k])
        theta = math.acos(max(-1.0, min(1.0, c)))
        if theta < theta_min:
            want = False
        elif np.linalg.norm(n_s[k] - c * n_r[k]) <= 1e-9:
            want = True
        else:
            dist = _ridge_distance_oracle(n_r[k], off_r[k], n_s[k], off_s[k],
                                          np.vstack([verts_r[k], verts_s[k]])).max()
            assert abs(dist - gamma) > 1e-9  # no row sits on the threshold
            want = dist <= gamma
        assert got[k] == want, k
    assert not got[:20].any() and got[20:40].all()
    assert 0 < np.count_nonzero(got[40:]) < rows - 40
    with pytest.raises(ValueError):
        discordant_pairs(2 * n_r, off_r, verts_r, n_s, off_s, verts_s, gamma, theta_min)


def test_check_discordant():
    ok = _discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [0.0, 1.0], 1.0,
                     [[0.5, 1.0]], gamma=1.0, theta_min=1.0)
    assert ok
    # angle below threshold
    assert not _discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [0.0, 1.0], 1.0,
                           [[0.5, 1.0]], gamma=1.0, theta_min=2.0)
    # facets too far from the ridge
    assert not _discordant([1.0, 0.0], 1.0, [[1.0, -5.0]], [0.0, 1.0], 1.0,
                           [[0.5, 1.0]], gamma=1.0, theta_min=1.0)
    # antiparallel normals past the threshold have no ridge: discordant
    assert _discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [-1.0, 0.0], 1.0,
                       [[-1.0, 0.5]], gamma=1e-3, theta_min=1.0)
    # equal normals stay below any positive threshold
    assert not _discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [1.0, 0.0], 2.0,
                           [[2.0, 0.5]], gamma=1e3, theta_min=1e-3)


def test_lemma3_constant_values():
    # 4 / (sin 45 * sin 22.5 * sin 11.25) computed independently
    expected = 4.0 / (0.7071067811865476 * 0.3826834323650898 * 0.19509032201612825)
    assert lemma3_constant(math.pi / 2) == pytest.approx(expected)
    assert 75.0 < lemma3_constant(math.pi / 2) < 76.5
    ks = np.linspace(0.05, 3.0, 40)
    vals = [lemma3_constant(k) for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in kappa
    assert lemma3_constant(1e-4) > 1e10  # blows up at small angles
    with pytest.raises(ValueError):
        lemma3_constant(0.0)


def test_find_discordant_constructed():
    """A pyramid wedged at the origin must certify one of its steep face pairs."""
    kappa = 1.0
    half = kappa / 2
    wedge = AmbientWedge(tip=np.zeros(3),
                         u1=np.array([math.sin(half), 0.0, math.cos(half)]),
                         u2=np.array([-math.sin(half), 0.0, math.cos(half)]))
    pts = np.array([[0.0, 0.0, 0.05], [0.3, 0.0, 0.8], [-0.3, 0.0, 0.8],
                    [0.0, 0.3, 0.8], [0.0, -0.3, 0.8], [0.0, 0.0, 0.95]])
    assert np.all(wedge.contains(pts))
    poly = build_hull(pts)
    w = find_discordant(poly, wedge, kappa, s=1.0)
    assert w.angle >= kappa / 16
    # the two facets share the apex (0, 0, 0.05), a point of the ridge
    assert set(poly.simplices[w.facet_i]) & set(poly.simplices[w.facet_j]) == {0}
    assert w.tip_distance == 0.0
    assert angle(poly.normals[w.facet_i], poly.normals[w.facet_j]) == pytest.approx(w.angle)


def test_find_discordant_preconditions():
    wedge = AmbientWedge(tip=np.zeros(3), u1=np.array([1.0, 0.0, 0.0]),
                         u2=np.array([0.0, 1.0, 0.0]))
    outside = build_hull(np.vstack([np.full((1, 3), -1.0),
                                    -1.0 - np.eye(3) * 0.1]))
    with pytest.raises(ValueError):
        find_discordant(outside, wedge, 1.0, s=10.0)
    inside = build_hull(np.vstack([np.full((1, 3), 5.0), 5.0 + np.eye(3) * 0.1]))
    with pytest.raises(ValueError):
        find_discordant(inside, wedge, 1.0, s=1.0)  # farther than s from tip


def test_find_discordant_random_instances():
    rng = stream(32, 502, 0)
    for kappa in (0.4, 1.2):
        polys, wedge = random_wedge_polytope(rng, kappa, 25, s=1.0)
        for poly in polys:
            w = find_discordant(poly, wedge, kappa, s=1.0)
            assert w.angle >= kappa / 16
            assert w.tip_distance <= lemma3_constant(kappa)


def test_find_discordant_tip_distance_against_ridge_oracle():
    """Each witness's tip distance is the smallest normal-plane distance from
    facet i's vertices to the ridge, on the polytopes the layout digest
    pins; a point-in-polygon test on the collinear projection of a facet
    once read 0 for witness 61, whose facet lies 8.43 from the ridge."""
    rng = stream(0, 306, 0)
    for kappa in (0.3, 0.8, 1.5):
        polys, wedge = random_wedge_polytope(rng, kappa, 40)
        for poly in polys:
            w = find_discordant(poly, wedge, kappa, 1.0)
            i, j = w.facet_i, w.facet_j
            want = _ridge_distance_oracle(poly.normals[i], poly.offsets[i],
                                          poly.normals[j], poly.offsets[j],
                                          poly.vertices[poly.simplices[i]]).min()
            assert w.tip_distance == pytest.approx(want, rel=1e-9, abs=1e-12), (kappa, i, j)


def _argsort_discordant(poly, kappa, s):
    """find_discordant's search by one full sort: every pair i < j stably
    ranked by decreasing angle, scanned in tie groups of neighbours within
    1e-12 of the group's first angle, each group ranked by (tip distance,
    i, j).  An independent oracle for the ranking."""
    m_bound = lemma3_constant(kappa) * s
    normals, offsets = poly.normals, poly.offsets
    iu, ju = np.triu_indices(len(normals), k=1)
    angles = np.arccos(np.clip(normals @ normals.T, -1.0, 1.0)[iu, ju])
    rank = np.argsort(-angles, kind="stable")
    iu, ju, angles = iu[rank].tolist(), ju[rank].tolist(), angles[rank].tolist()
    k = 0
    while k < len(angles) and angles[k] >= kappa / 16.0:
        th, start = angles[k], k
        while k + 1 < len(angles) and abs(angles[k + 1] - th) <= 1e-12:
            k += 1
        k += 1
        cands = []
        for g in range(start, k):
            i, j = iu[g], ju[g]
            e = normals[j] - (normals[i] @ normals[j]) * normals[i]
            e_norm = float(np.sqrt(e @ e))
            if e_norm > 1e-9:
                top = float((poly.vertices[poly.simplices[i]] @ normals[j]).max())
                cands.append((max(0.0, float(offsets[j]) - top) / e_norm, i, j, angles[g]))
        for td, i, j, th_ij in sorted(cands):
            if td <= m_bound:
                return DiscordantWitness(facet_i=i, facet_j=j, angle=th_ij, tip_distance=td)
    raise LemmaViolationError("no witness")


def _wedge(kappa):
    half = kappa / 2.0
    return AmbientWedge(tip=np.zeros(3), u1=np.array([math.sin(half), 0.0, math.cos(half)]),
                        u2=np.array([-math.sin(half), 0.0, math.cos(half)]))


def test_find_discordant_matches_sort_oracle_on_layout_and_suite_polytopes():
    """The tie-group ranking against the full sort on the 120 polytopes the
    layout digest pins and on the 999 polytopes of suite_lemma3 at seed 31,
    drawn as the suite draws them."""
    for rng, per in ((stream(0, 306, 0), 40), (stream(31, _TAG_LEMMA3, 0), 333)):
        for kappa in (0.3, 0.8, 1.5):
            for lo in range(0, per, _WEDGE_SEGMENT):
                polys, wedge = random_wedge_polytope(rng, kappa, min(_WEDGE_SEGMENT, per - lo))
                for poly in polys:
                    assert (find_discordant(poly, wedge, kappa, 1.0)
                            == _argsort_discordant(poly, kappa, 1.0))


def test_find_discordant_ranks_past_a_group_without_ridge():
    """In a box the widest group is the antiparallel face pairs, angle pi
    exactly, which have no ridge; the witness comes from the next group,
    the right angles, whose ties are exact."""
    kappa = 1.0
    box = np.array([[x, y, z] for x in (-0.125, 0.125) for y in (-0.125, 0.125)
                    for z in (0.5, 0.75)])
    poly = build_hull(box)
    w = find_discordant(poly, _wedge(kappa), kappa, 1.0)
    assert w == _argsort_discordant(poly, kappa, 1.0)
    assert w.angle == math.pi / 2.0 and w.tip_distance == 0.0
    cosines = poly.normals @ poly.normals.T
    assert cosines.min() == -1.0  # the top group, at angle pi, is left out


def _pair_angles(normals):
    """The pair angles as find_discordant computes them."""
    iu, ju = np.triu_indices(len(normals), k=1)
    return np.arccos(np.clip(normals @ normals.T, -1.0, 1.0)[iu, ju])


def test_find_discordant_ranks_exact_ties_by_tip_distance():
    """An octagonal prism with alternating side lengths: its faces three
    apart meet at exactly 3 pi/4, with tip distances that differ between
    axis and diagonal faces.  Over eight rotations of its vertex order the
    group's first pair by index is, at least once, not its nearest."""
    kappa, a = 1.0, 0.25
    octagon = [(1, a), (a, 1), (-a, 1), (-1, a), (-1, -a), (-a, -1), (a, -1), (1, -a)]
    wedge = _wedge(kappa)
    beaten = 0
    for rot in range(8):
        ring = octagon[rot:] + octagon[:rot]
        poly = build_hull([[0.125 * x, 0.125 * y, z] for x, y in ring for z in (0.5, 0.75)])
        w = find_discordant(poly, wedge, kappa, 1.0)
        assert w == _argsort_discordant(poly, kappa, 1.0)
        iu, ju = np.triu_indices(len(poly.normals), k=1)
        tied = np.flatnonzero(_pair_angles(poly.normals) == w.angle)
        assert len(tied) > 1  # exact ties, and the witness is one of them
        beaten += (int(iu[tied[0]]), int(ju[tied[0]])) != (w.facet_i, w.facet_j)
    assert beaten > 0


def _boundary_normals(th0):
    """Four normals at the corners of a square on the sphere around e_z,
    whose diagonals (0, 1) and (2, 3) meet at angles th near th0 and a,
    a the double nearest th - 1e-12; the square's sides are shorter.  The
    search moves n3's smaller coordinate an ulp at a time, each step turning
    the angle well under an ulp of a, until a lands on that double."""
    for half in np.linspace(th0 / 2.0, th0 / 2.0 + 1e-3, 11).tolist():
        x, z = math.sin(half), math.cos(half)
        n3 = [0.0, math.sin(half - 1e-12), math.cos(half - 1e-12)]
        k = 1 if n3[1] < n3[2] else 2
        wider = 1.0 if k == 1 else -1.0  # the way that widens the angle (2, 3)
        for _ in range(200):
            normals = np.array([[-x, 0.0, z], [x, 0.0, z], [0.0, -x, z], n3])
            angles = _pair_angles(normals)
            a, want = angles[5], angles[0] - 1e-12
            if a == want:
                return normals
            n3[k] = float(np.nextafter(n3[k], 2.0 * (wider if a < want else -wider)))
    return None


@pytest.mark.parametrize("th0, split", [(2.5, True), (0.9, False)])
def test_find_discordant_group_boundary_is_the_sorted_scan(th0, split):
    """Two facet pairs whose angles a < th are a rounded th - 1e-12 apart:
    the sorted scan's test th - a <= 1e-12 splits them into two groups when
    th - 1e-12 rounds down, as it does for every th in [2, 4), and joins
    them when it rounds up, as for every th in [0.5, 1).  Split, the wider
    pair wins although the narrower one touches its ridge; joined, the
    narrower one wins.  A group test a >= th - 1e-12 would join them both
    times, and a > th - 1e-12 would split them both times.  The polytope
    is hand-built: four facets with chosen normals, offsets and vertices."""
    kappa = 1.0
    normals = _boundary_normals(th0)
    assert normals is not None
    angles = _pair_angles(normals)
    th, a = angles[0], angles[5]
    assert a == th - 1e-12 and a == angles[1:].max() and (th - a > 1e-12) == split
    vertices = np.array([[0.0, 0.0, 0.5], [0.1, 0.0, 0.5], [0.0, 0.1, 0.5], [0.0, 0.0, 0.6]])
    simplices = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    offsets = np.zeros(4)
    offsets[1] = (vertices[simplices[0]] @ normals[1]).max() + 0.3  # facet 0 short of ridge
    offsets[3] = (vertices[simplices[2]] @ normals[3]).max()        # facet 2 touches it
    poly = Polytope(vertices=vertices, simplices=simplices, normals=normals, offsets=offsets,
                    dim=3, eps_geom=1e-9, hull_vertex_indices=np.arange(4))
    w = find_discordant(poly, _wedge(kappa), kappa, 1.0)
    assert w == _argsort_discordant(poly, kappa, 1.0)
    if split:
        assert (w.facet_i, w.facet_j, w.angle) == (0, 1, th) and w.tip_distance > 0.0
    else:
        assert (w.facet_i, w.facet_j, w.angle, w.tip_distance) == (2, 3, a, 0.0)


class _Blocks:
    """A stand-in rng serving prepared candidate blocks of
    4 * _WEDGE_POLYTOPE_POINTS points, a whole segment per uniform call."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.served = 0

    def uniform(self, low, high, size):
        rows = size[0]
        out = np.stack(self.blocks[self.served:self.served + rows])
        self.served += rows
        return out


class _NoDraws:
    """A stand-in rng whose every draw fails the test."""

    def uniform(self, *args, **kwargs):
        raise AssertionError("drew from the stream")


def _block(rng, inside, plane=False):
    """A candidate block with `inside` points in the ball and the kappa = 1
    wedge, at random places among points outside the ball; on a plane
    z = 0.5 when plane is set."""
    k = 4 * _WEDGE_POLYTOPE_POINTS
    pts = np.full((k, 3), 0.9)
    at = np.sort(rng.choice(k, size=inside, replace=False))
    pts[at] = rng.uniform(-0.2, 0.2, size=(inside, 3)) + [0.0, 0.0, 0.6]
    if plane:
        pts[at, 2] = 0.5
    return pts


def test_random_wedge_polytope_matches_one_at_a_time():
    """Blocks of 1, 7, 64 and 333 instances on one stream give the same
    polytopes as 405 one-row calls on a copy of the stream and as the
    one-at-a-time rejection loop on a third copy, and leave all three
    streams at the same next draw."""
    for kappa in (0.3, 0.8, 1.5):
        block, one, loop = (stream(5, 510, 0) for _ in range(3))
        got = []
        for rows in (1, 7, 64, 333):
            polys, wedge = random_wedge_polytope(block, kappa, rows)
            assert len(polys) == rows
            got += polys
        singles = [random_wedge_polytope(one, kappa, 1)[0][0] for _ in got]
        looped = [_one_wedge_polytope(loop, wedge) for _ in got]
        for p, q, r in zip(got, singles, looped):
            for x in (q, r):
                assert np.array_equal(p.vertices, x.vertices)
                assert np.array_equal(p.simplices, x.simplices)
                assert np.array_equal(p.normals, x.normals)
                assert p.eps_geom == x.eps_geom
        assert block.random() == one.random() == loop.random()


def _one_wedge_polytope(rng, wedge):
    """The one-at-a-time rejection loop: fresh blocks until 40 points lie in
    the unit ball and the wedge, then build_hull of the first 40."""
    blocks, have = [], 0
    while have < _WEDGE_POLYTOPE_POINTS:
        cand = rng.uniform(-1.0, 1.0, size=(4 * _WEDGE_POLYTOPE_POINTS, 3))
        cand = cand[np.linalg.norm(cand, axis=1) <= 1.0]
        blocks.append(cand[wedge.contains(cand)])
        have += len(blocks[-1])
    return build_hull(np.concatenate(blocks)[:_WEDGE_POLYTOPE_POINTS])


def test_random_wedge_polytope_walks_blocks_across_segments():
    """With 30 accepted points per block each instance takes two blocks,
    so three instances take segments of 3, 2 and 1 blocks, and the second
    and third instances each straddle a segment boundary."""
    rng = np.random.default_rng(3)
    blocks = [_block(rng, 30) for _ in range(6)]
    served = _Blocks(blocks)
    polys, _ = random_wedge_polytope(served, 1.0, 3)
    assert served.served == 6
    inside = [b[np.linalg.norm(b, axis=1) <= 1.0] for b in blocks]
    for k, poly in enumerate(polys):
        want = np.concatenate(inside[2 * k:2 * k + 2])[:_WEDGE_POLYTOPE_POINTS]
        assert np.array_equal(poly.vertices, want)


def test_random_wedge_polytope_skips_a_planar_candidate():
    """A candidate of rank 2 spends its block and is skipped; the next
    candidate starts at the next block."""
    rng = np.random.default_rng(4)
    blocks = [_block(rng, 40, plane=True), _block(rng, 45), _block(rng, 45)]
    with pytest.raises(DegeneracyError):
        build_hull(blocks[0][np.linalg.norm(blocks[0], axis=1) <= 1.0])
    served = _Blocks(blocks)
    polys, _ = random_wedge_polytope(served, 1.0, 1)
    assert served.served == 2 and len(polys) == 1
    want = blocks[1][np.linalg.norm(blocks[1], axis=1) <= 1.0][:_WEDGE_POLYTOPE_POINTS]
    assert np.array_equal(polys[0].vertices, want)


@pytest.mark.parametrize("kappa", [math.pi, 4.0, 0.0, -0.5, math.nan])
def test_random_wedge_polytope_refuses_kappa_before_drawing(kappa):
    """At kappa = pi the wedge {x >= 0, -x >= 0} accepts no candidate and
    the rejection loop would never end; a negative kappa would open the
    wedge wider than pi."""
    with pytest.raises(ValueError, match="kappa"):
        random_wedge_polytope(_NoDraws(), kappa, 1)


def test_suite_lemma3_refuses_kappa_before_drawing(monkeypatch):
    monkeypatch.setattr(verify, "stream", lambda *args: _NoDraws())
    cfg = EstimatorConfig(replicas=1000, master_seed=31)
    for kappas in ((math.pi,), (0.3, math.pi), (-0.5, 0.8)):
        with pytest.raises(ValueError, match="kappa"):
            verify.suite_lemma3(cfg, kappas=kappas)


def test_suite_lemma3_memory_bounded():
    """suite_lemma3 holds one block of _WEDGE_SEGMENT polytopes at a time:
    its traced peak at 1000 instances reads 0.9 to 1.15 MB at seeds 1, 31
    and 2718, where one call for all 333 instances of a kappa peaks at
    1.8 MB."""
    cfg = EstimatorConfig(replicas=1000, master_seed=31)
    tracemalloc.start()
    try:
        checks = verify.suite_lemma3(cfg, instances=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["passed"] for c in checks)
    assert peak < 1.5e6, peak


def _special_index(t, pb, w0, alpha, M, n):
    """special_indices on one instance."""
    rows = (np.array([x], dtype=float) for x in (t, pb, w0))
    return int(special_indices(*rows, alpha, M, n)[0])


def test_special_index_plugin():
    alpha, n = 1e6, 2
    t = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    pb = np.zeros((6, 2))
    pb[:, 0] = [0.0, 0.1, 0.15, 0.12, 0.2, 0.18]
    w0 = pb[2]  # distance 0 at index 2
    j = _special_index(t, pb, w0, alpha, M=1.0, n=n)
    # j=0 already qualifies: gap 0.2 >= alpha^{1/20} * max(min(d0,d1)^2, 1e-6)
    scale = alpha ** (1.0 / 20.0)
    d0 = np.linalg.norm(pb[0] - w0)
    d1 = np.linalg.norm(pb[1] - w0)
    assert 0.2 >= scale * max(min(d0, d1) ** 2, 1e-6)
    assert j == 0
    assert j == brute_force_special(t, pb, w0, alpha, n)


def test_special_index_hypothesis_failures():
    alpha, n = 1e6, 2
    t = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    pb = np.zeros((6, 2))
    pb[3] = [500.0, 0.0]  # impossible increment
    with pytest.raises(HypothesisError) as exc:
        _special_index(t, pb, pb[0], alpha, M=1.0, n=n)
    assert any("increment" in f for f in exc.value.failures)
    pb2 = np.zeros((6, 2))
    far = np.array([1e6, 1e6])
    with pytest.raises(HypothesisError) as exc2:
        _special_index(t, pb2, far, alpha, M=1.0, n=n)
    assert any("tip" in f for f in exc2.value.failures)


def test_special_index_none_case():
    """With all skeleton points about unit distance from the tip no gap can
    reach alpha^{1/20} * 1, so no index qualifies: -1, where the brute-force
    scan returns None."""
    alpha, n = 1e6, 2
    t = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    ang = np.linspace(0, 2 * math.pi, 6, endpoint=False)
    pb = np.column_stack([np.cos(ang), np.sin(ang)])
    w0 = np.zeros(2)
    j = _special_index(t, pb, w0, alpha, M=1e6, n=n)  # large M keeps hypotheses valid
    assert j == -1
    assert brute_force_special(t, pb, w0, alpha, n) is None


def test_random_special_instance_rows():
    """One batched call draws rows with times pinned at 0 and 1 and strictly
    increasing, and each tip within _SPECIAL_TIP_OFFSET (per coordinate) of
    a point of its own row's skeleton."""
    t, pb, w0 = random_special_instance(stream(37, 509, 0), 300)
    assert t.shape == (300, 6) and pb.shape == (300, 6, 2) and w0.shape == (300, 2)
    assert np.all(t[:, 0] == 0.0) and np.all(t[:, -1] == 1.0)
    assert np.all(np.diff(t, axis=1) > 0.0)
    near = np.abs(pb - w0[:, None]).max(axis=2) <= _SPECIAL_TIP_OFFSET
    assert near.any(axis=1).all()


def test_special_indices_rows_against_brute_force():
    alpha, n = 1e6, 2
    t, pb, w0 = random_special_instance(stream(36, 508, 0), 300, n)
    # a last row whose points are all far from its tip: no index qualifies
    ang = np.linspace(0, 2 * math.pi, 6, endpoint=False)
    t = np.vstack([t, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]])
    pb = np.concatenate([pb, np.column_stack([np.cos(ang), np.sin(ang)])[None]])
    w0 = np.vstack([w0, np.zeros(2)])
    got = special_indices(t, pb, w0, alpha, 1e6, n)
    assert got.shape == (301,)
    for k in range(301):
        # the oracle reads plain float rows as it reads array rows
        want = brute_force_special(t[k].tolist(), pb[k].tolist(), w0[k].tolist(), alpha, n)
        assert brute_force_special(t[k], pb[k], w0[k], alpha, n) == want, k
        assert got[k] == (-1 if want is None else want), k
    assert got[-1] == -1 and np.all(got[:-1] >= 0)
    # the first failing row is named, with the hypotheses it broke
    pb[7, 3] = [500.0, 0.0]
    w0[7] = w0[9] = [1e6, 1e6]
    with pytest.raises(HypothesisError) as exc:
        special_indices(t, pb, w0, alpha, 1.0, n)
    assert exc.value.row == 7
    assert str(exc.value).startswith("row 7: ")
    assert exc.value.failures == ["increment bound violated at i=[2, 3]",
                                  "no point within M*phi^2/sqrt(alpha) of the tip"]
