import math

import numpy as np
import pytest

from bmhull.estimate import stream
from bmhull.hulls import DegeneracyError, build_hull
from bmhull.integrals import enlargement
from bmhull.verify import brute_force_special, random_special_instance, random_wedge_polytope
from bmhull.wedges import (AmbientWedge, HypothesisError, LemmaViolationError,
                           Wedge2D, angle, check_discordant, check_events_H,
                           find_discordant, lemma3_constant, pair_geometry,
                           projected_tip_distance, ridge_distance, special_index)


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
    assert w.kappa == pytest.approx(math.pi / 2)
    assert w.contains([[1.0, 1.0, -3.0]])[0]
    assert not w.contains([[-0.1, 1.0, 0.0]])[0]


def test_angle_basic():
    assert angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.pi / 2)
    assert angle([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert angle([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        angle([2.0, 0.0], [0.0, 1.0])


def test_pair_geometry_hand_instance():
    pair = pair_geometry([1.0, 0.0], 1.0, [0.0, 1.0], 1.0)
    assert pair.theta == pytest.approx(math.pi / 2)
    assert pair.ridge_point == pytest.approx([1.0, 1.0])
    # projected tip in plane coordinates maps back to the ridge point
    assert pair.projected_tip @ pair.plane_basis == pytest.approx([1.0, 1.0])


def test_pair_geometry_parallel_raises():
    with pytest.raises(DegeneracyError):
        pair_geometry([1.0, 0.0], 0.0, [1.0, 0.0], 1.0)
    with pytest.raises(DegeneracyError):
        pair_geometry([1.0, 0.0], 0.0, [-1.0, 0.0], 1.0)


def test_ridge_distance_hand_and_invariance():
    pair = pair_geometry([1.0, 0.0], 1.0, [0.0, 1.0], 1.0)
    # (1,0) is at distance 1 from the ridge point (1,1) in the normal plane
    assert ridge_distance([[1.0, 0.0]], [[1.0, 1.0]], pair) == pytest.approx(1.0)
    # 3D: distance ignores the ridge direction component
    pair3 = pair_geometry([1.0, 0.0, 0.0], 1.0, [0.0, 1.0, 0.0], 1.0)
    d = ridge_distance([[1.0, 0.0, 57.0]], [[1.0, 1.0, -3.0]], pair3)
    assert d == pytest.approx(1.0)
    # rotation invariance of theta and ridge distance
    rng = stream(31, 501, 0)
    th = rng.random() * 2 * math.pi
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    n_r, n_s = rot @ [1.0, 0.0], rot @ [0.0, 1.0]
    pr = pair_geometry(n_r, 1.0, n_s, 1.0)
    assert pr.theta == pytest.approx(pair.theta)
    v = rot @ [1.0, 0.0]
    assert ridge_distance([v], [v], pr) == pytest.approx(1.0)


def test_check_discordant():
    ok = check_discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [0.0, 1.0], 1.0,
                          [[0.5, 1.0]], gamma=1.0, theta_min=1.0)
    assert ok
    # angle below threshold
    assert not check_discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [0.0, 1.0], 1.0,
                                [[0.5, 1.0]], gamma=1.0, theta_min=2.0)
    # facets too far from the ridge
    assert not check_discordant([1.0, 0.0], 1.0, [[1.0, -5.0]], [0.0, 1.0], 1.0,
                                [[0.5, 1.0]], gamma=1.0, theta_min=1.0)
    # antiparallel normals past the threshold have no ridge: discordant
    assert check_discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [-1.0, 0.0], 1.0,
                            [[-1.0, 0.5]], gamma=1e-3, theta_min=1.0)
    # equal normals stay below any positive threshold
    assert not check_discordant([1.0, 0.0], 1.0, [[1.0, 0.5]], [1.0, 0.0], 2.0,
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


def test_projected_tip_distance_cases():
    pair = pair_geometry([1.0, 0.0], 0.0, [0.0, 1.0], 0.0)
    # facet touching the ridge point has distance 0
    assert projected_tip_distance(pair, [[0.0, 0.0], [0.0, -1.0]]) == pytest.approx(0.0)
    assert projected_tip_distance(pair, [[0.0, -2.0], [0.0, -1.0]]) == pytest.approx(1.0)


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
    assert w.tip_distance <= lemma3_constant(kappa) * 1.0
    f_i, f_j = poly.facets[w.facet_i], poly.facets[w.facet_j]
    assert angle(f_i.normal, f_j.normal) == pytest.approx(w.angle)


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
        for _ in range(25):
            poly, wedge = random_wedge_polytope(rng, kappa, s=1.0)
            w = find_discordant(poly, wedge, kappa, s=1.0)
            assert w.angle >= kappa / 16
            assert w.tip_distance <= lemma3_constant(kappa)
            assert set(w.to_json_dict()) == {"facet_i", "facet_j", "angle",
                                             "tip_distance"}


def test_special_index_plugin():
    alpha, n = 1e6, 2
    t = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    pb = np.zeros((6, 2))
    pb[:, 0] = [0.0, 0.1, 0.15, 0.12, 0.2, 0.18]
    w0 = pb[2]  # distance 0 at index 2
    j = special_index(t, pb, w0, alpha, M=1.0, n=n)
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
        special_index(t, pb, pb[0], alpha, M=1.0, n=n)
    assert any("increment" in f for f in exc.value.failures)
    pb2 = np.zeros((6, 2))
    far = np.array([1e6, 1e6])
    with pytest.raises(HypothesisError) as exc2:
        special_index(t, pb2, far, alpha, M=1.0, n=n)
    assert any("tip" in f for f in exc2.value.failures)


def test_special_index_none_case():
    """With all skeleton points about unit distance from the tip no gap can
    reach alpha^{1/20} * 1, so the search legitimately returns None."""
    alpha, n = 1e6, 2
    t = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    ang = np.linspace(0, 2 * math.pi, 6, endpoint=False)
    pb = np.column_stack([np.cos(ang), np.sin(ang)])
    w0 = np.zeros(2)
    j = special_index(t, pb, w0, alpha, M=1e6, n=n)  # large M keeps hypotheses valid
    assert j is None
    assert brute_force_special(t, pb, w0, alpha, n) is None


def test_special_index_brute_force_agreement():
    rng = stream(33, 503, 0)
    for _ in range(300):
        t, pb, w0 = random_special_instance(rng)
        assert special_index(t, pb, w0, 1e6, 1.0, 2) == \
            brute_force_special(t, pb, w0, 1e6, 2)


def test_check_events_H_identity():
    """The H event equals the conjunction of the two enlarged half-space
    events, recomputed independently here."""
    rng = stream(34, 504, 0)
    alpha = math.e ** 4
    slack = enlargement(alpha)
    n_r, n_s = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for _ in range(50):
        seg = rng.standard_normal((20, 2)) * 3
        r1, s1 = rng.standard_normal(2), rng.standard_normal(2)
        direct = (np.all(seg[:, 0] <= r1[0] + slack)
                  and np.all(seg[:, 1] <= s1[1] + slack))
        assert check_events_H(seg, n_r, n_s, r1, s1, alpha) == direct
