"""Stream-layout regression: same seed, same outputs, byte for byte.

Each case runs one public estimator (or sampler, suite or CLI artifact) at a
tiny budget and hashes its serialised output.  The digests were recorded
before the private batch copies in `mc` were folded into the kernels of
`paths`, `rain`, `hulls` and `wedges`, so any change to the draw order or to
the arithmetic of a kernel shows up here.  The two high-alpha cases, where
most replicas pass the modulus event and go on to the covering draws, were
recorded before `paths.modulus_ok` learned to prune.  The second
`discordant_prob` case and the `find_discordant` witnesses were recorded
before `discordant_prob` gave up its inline copy of the discordance
predicate and before `find_discordant` ranked its pairs with arrays.  The
`simulate hulls` cases were recorded while a `Polytope` still held one
object per facet, before it kept qhull's arrays.  The 3-tuple
`discordant_prob` case and the `special_index indices` case were recorded
while `oriented_normal`, `check_discordant` and `special_index` still
decided one replica per call.  The `find_discordant` witnesses were
re-recorded, at the same layout, when the tip distance moved from a
point-in-polygon test on the projected facet to the closed form
max(0, off_j - max v.n_j)/|n_j - c n_i|.  The facet pairs and angles kept
their bytes, and the other distances moved by at most 4.4e-14 relative.
Witness 61 (kappa = 0.8) went from 0.0 to 8.42777574611598: its facet
projects onto a segment, which the polygon test read as containing the
ridge.  The `alpha=100, clipped at 0` case of `conditional_H_prob`, whose
covering window is clipped on one side only, was first recorded while the
covering event still drew and sorted each replica's whole level set, and
re-recorded at layout 7.  The `level_covered` case calls the covering kernel
directly, one call of 20 rows per window, at radii where the covering event
fails as well as where it holds.  The `samplers` case and the `simulate` artifacts were
recorded while a path, a rain and a level set were objects (`PathSample`,
`Rain`, `RainLevel`) that serialised themselves, and a hull document went
through `Polytope.to_json`; the case now serialises the kernels' arrays,
and `simulate` writes its artifacts from arrays, to the same bytes.  The
`simulate degenerate hulls` documents, whose level points span no hull,
were recorded before that change.

A deliberate change to the draw order bumps `estimate.STREAM_LAYOUT`,
re-records the digests of the estimates it changes, and only those, and
sets EXPECTED_LAYOUT to the new version; a re-record without a bump, or a
bump without a re-record, fails here.  Layout 2 re-recorded the wedge-stay
cases (`stay_prob_wedge`, `fit_exit_exponent`, `bridge_stay_prob`), which
now step their live replicas time-major.  The two `include_R="always"`
cases of `conditional_H_prob` kept their digests: their enlarged wedge is
so wide that no replica leaves it, so the bridge steps draw what
`paths.bridge` drew.  The `alpha=1e10` case, where replicas do leave, was
recorded at layout 2.  Layout 3 re-recorded `campbell_check` alone, whose
two sides now draw a block of replicas at a time through the batched
`rain.level_times` and `paths.brownian`; the `samplers` case calls the
batched `level_times` for one row, which draws what the one-set form drew.
Layout 4 re-recorded the two half-plane cases alone, `bridge_stay_prob` and
`stay_prob_wedge(two chunks)`: the stepper now carries a half-plane's
distance to its edge, a 1-d Brownian motion or bridge, and draws one normal
per replica-step where it drew two.  The quadrant and reflex cases,
`fit_exit_exponent` (a quadrant) and the four `conditional_H_prob` cases
(quadrants too) kept their digests.  At the same layout
`suite_lemma8` was re-recorded when `verify lemma8` replaced its trend
check of the complement measure with checks against the exact spacings
law; its draws are unchanged.  Layout 5 re-recorded `special_index
indices` alone: `verify.random_special_instance` draws a block of instances
per call, each draw (inner times, normals, skeleton points, tip offsets)
for all its rows at once, where it drew one instance after another.  The
`samplers` case held because one row draws the bytes of one instance, and
`suite_lemma4` held because its report carries only counts.  Layout 5 held,
with no digest re-recorded, when `paths.modulus_ok` began to pass replicas
by the bounding boxes of dyadic windows of their paths.  Layout 6
re-recorded `level_covered` alone: the covering kernel decides a block of
rows per call and draws a row's level set only as far as it reads it, where
it drew one whole level set after another.  The estimator cases kept their
digests: the covering draws are the last draws of each chunk's stream, and
every covering row there still returns True.  Layout 7 re-recorded
`conditional_H_prob(always, alpha=100, clipped at 0)` alone:
`conditional_H_prob` now multiplies its weights by the exact covering
probability P(N) and draws no rain, and that window's P(N^c) is 8.4e-7, so
its weights moved.  The other `conditional_H_prob` cases held: at alpha = 3
the pinned ends cover the window and at alpha = 1e5 P(N) rounds to 1, and
no case drew anything after the covering draws.
Layout 8 re-recorded the five wedge-stay cases of the one-step estimators,
`stay_prob_wedge(convex)`, `stay_prob_wedge(reflex)`, `stay_prob_wedge(two
chunks)`, `fit_exit_exponent` and `bridge_stay_prob`: each replica now draws
one planar normal in the wedge's own frame, B(t) or the bridge's midpoint,
and is weighted by the exact wedge bridge factor
`integrals.wedge_bridge_factor`, where it was stepped over the grid.  The
four `conditional_H_prob` cases kept their digests: its stepper lost the 1-d
half-plane state and the reflex fallback, which none of them ran.
Layout 9 re-recorded the three `discordant_prob` cases alone: each replica
now draws only its skeleton, B at 0, at the merged tuple times and at 1, in
one `paths.brownian` call of 2n + 1 steps, and weighs the exact probability
that its bridge pieces stay in the wedge of the two half-spaces, where it
drew whole paths on the merged grid and decided the half-space events on
grid points.  Its ranks and discordance decisions read the same stacked
kernels.  At alpha = 1e3 no piece needs the wedge series; at alpha = 1e8,
kappa = 3, 684 pieces (2-tuples) and 1144 pieces (3-tuples) do.
Layout 10 re-recorded three cases: `conditional_H_prob(always)`,
`conditional_H_prob(never, alpha=1e10)` and `samplers`.  `paths.bridge` is
now one `paths.brownian` call pinned at both ends, where it stepped from
point to point towards the right endpoint, and `conditional_H_prob` draws
its bridges with it, a block of rows at a time, where it stepped its live
replicas time-major.  Of `samplers` only the bridge line moved; the other
lines kept their bytes.  The `alpha=1e5` and `alpha=100, clipped at 0`
cases kept their digests: every weight there is 1 times P(N), whatever is
drawn.
Layout 11 re-recorded three cases: `conditional_H_prob(never, alpha=1e10)`,
`discordant_prob(alpha=1e8, kappa=3)` and `discordant_prob(3-tuples,
alpha=1e8, kappa=3)`.  `integrals.wedge_bridge_factor` now routes every
row itself, with one opening per row, and both estimators read their
weights from it: `conditional_H_prob` weighs each grid step by the kernel
in the enlarged wedge's own frame, where it multiplied per-edge factors of
the distances to the edge lines, and `_skeleton_weights` sends every piece
of a wedge row to the kernel, where it took the per-edge product of the
distances itself.  The quadrant's product is exact either way, so these
cases moved by rounding only (the means in the last one or two digits).
The draws are unchanged, and the wedge-stay cases, whose half-plane and
quadrant rows now take the kernel's exact product rather than its series,
kept their digests.
At layout 11, with no bump since no draw and no weight moved, five cases
were re-recorded when `conditional_H_prob` lost its `include_R="never"`
fork and `bridge_stay_prob` its `bound_params` option.  The three
`conditional_H_prob(always...)` cases gained `extra["stay_law"]`, the exact
bridge law of the ends in the enlarged wedge.  `conditional_H_prob(never,
alpha=1e10)` became `conditional_H_prob(always, alpha=1e10)`, which gained
`stay_law` and whose `r_conjunct` reads "simulated"; its mean and SE kept
their bytes, since there the modulus event holds on every row and P(N) is 1
in double.  `bridge_stay_prob` lost `extra["lemma6_bound"]`.
Also at layout 11, `fit_exit_exponent(3pi/8)` (opening 3pi/4) and
`bridge_stay_prob(opening 3pi/8)` were added, recorded before the one-step
estimators handed the wedge kernel their fixed ends unbroadcast: the other
wedge-stay cases are half-planes, quadrants and a reflex wedge, and only
these two pin the convex openings whose rows take the heat-kernel series.

To print the current digests: `python tests/test_layout.py`, or
`python tests/test_layout.py NAME ...` for the named cases alone.
"""

import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from bmhull import mc, verify
from bmhull.cli import main
from bmhull.estimate import CHUNK, STREAM_LAYOUT, EstimatorConfig, stream
from bmhull.hulls import SimplexTimes
from bmhull.integrals import measure_Za_complement, phi
from bmhull.paths import bridge, brownian, time_steps
from bmhull.rain import level_covered, level_times
from bmhull.wedges import Wedge2D, find_discordant, special_indices

CFG = EstimatorConfig(replicas=300, master_seed=0, grid_points_per_unit_time=64)
# two chunks, so the chunk order of the reduction is pinned too
CFG_2CHUNK = EstimatorConfig(replicas=CHUNK + 100, master_seed=0, grid_points_per_unit_time=8)
HALF_PLANE = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2)
QUADRANT = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4)
REFLEX = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=3 * math.pi / 4)
# a convex opening other than pi and pi/2, whose rows take the series
NARROW = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=3 * math.pi / 16)


def _edge_points(rho):
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    return [rho * c, rho * s], [rho * c, -rho * s]


def _campbell():
    lhs, rhs = mc.campbell_check(10.0, 2, CFG)
    return lhs.to_json() + "\n" + rhs.to_json()


def _conditional_h(alpha=3.0, s1=0.375, s2=0.625):
    d1, d2 = _edge_points(0.5)
    return mc.conditional_H_prob("interior", QUADRANT, s1, s2, d1, d2, alpha, CFG,
                                 eps=0.93).to_json()


def _discordant(alpha=1e3, kappa=math.pi / 2, r=(0.2, 0.4), s=(0.6, 0.8)):
    return mc.discordant_prob(SimplexTimes(np.array(r)), SimplexTimes(np.array(s)),
                              alpha, kappa, CFG).to_json()


def _special_indices():
    """The special-gap index of 500 random instances, suite_lemma4's
    parameters, None where no index qualifies: pins the index itself, where
    the suite's digest pins only counts."""
    rng = stream(0, 307, 0)
    found = special_indices(*verify.random_special_instance(rng, 500), 1e6, 1.0, 2)
    return json.dumps([None if j < 0 else j for j in found.tolist()])


def _lemma3_witnesses():
    """find_discordant's witness (facet pair, angle, tip distance) on random
    polytopes: pins the pair ranking, its tie groups and the tip distances."""
    rng = stream(0, 306, 0)
    out = []
    for kappa in (0.3, 0.8, 1.5):
        polys, wedge = verify.random_wedge_polytope(rng, kappa, 40)
        out += [dataclasses.asdict(find_discordant(poly, wedge, kappa, 1.0))
                for poly in polys]
    return json.dumps(out)


def _path_json(times, points):
    return json.dumps({"dim": points.shape[1], "times": times.tolist(),
                       "points": points.tolist()})


def _samplers():
    times = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
    bm = brownian(stream(0, 301, 0), 1, time_steps(times), 3)[0, 1:]
    bm[0] = 0.0  # the path at time 0, as simulate writes it
    off_times = np.array([0.25, 0.5, 1.0])
    off = brownian(stream(0, 302, 0), 1, time_steps(off_times), 2)[0, 1:]
    br = bridge(stream(0, 303, 0), 1, times, [0.1, -0.2], [0.3, 0.4])[0]
    lv = level_times(stream(0, 304, 0), 20.0, 1)[0][0]
    t, pb, w0 = (x[0] for x in verify.random_special_instance(stream(0, 305, 0), 1))
    special = json.dumps([t.tolist(), pb.tolist(), w0.tolist()])
    return "\n".join([_path_json(times, bm), _path_json(off_times, off), _path_json(times, br),
                      json.dumps({"alpha": 20.0, "times": lv.tolist()}), special])


def _level_covered():
    """rain.level_covered's booleans, one call of 20 rows per covering window
    [max(0, a - r), min(1, b + r)] that is interior, clipped at 0 or clipped
    at 1, at the estimators' radius phi(alpha)/alpha, where the event nearly
    always holds, and at a radius where it fails in about one row in five;
    then one uniform, so a kernel that skips or overdraws part of the stream
    shows."""
    rng = stream(0, 308, 0)
    out = []
    for alpha in (20.0, 1e3, 1e5):
        for r in (phi(alpha) / alpha, math.log(alpha / math.log(2.0)) / (2.0 * alpha)):
            for a, b in ((0.375, 0.625), (0.0, 0.3), (0.7, 1.0)):
                lo, hi = max(0.0, a - r), min(1.0, b + r)
                out.append(level_covered(rng, alpha, a, b, r, 20, lo, hi).tolist())
    out.append(rng.random())
    return json.dumps(out)


def _simulate_rows(dim):
    """Data rows of `bmhull simulate`'s path.csv and rain.csv; the `# config`
    provenance line is left out, since it echoes the CLI settings."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["simulate", "--seed", "11", "--dim", str(dim),
                                 "--alphas", "5,10", "--out", "out"],
                          catch_exceptions=False)
        assert r.exit_code == 0
        parts = []
        for name in ("path.csv", "rain.csv"):
            with open(os.path.join("out", name), encoding="utf-8") as fh:
                parts.append("".join(l for l in fh if not l.startswith("# config")))
    return "".join(parts)


def _simulate_hulls(dim, seed=11, alphas="5,10"):
    """`bmhull simulate`'s hull_alpha_*.json documents, each without its
    `config` key, which echoes the CLI settings."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["simulate", "--seed", str(seed), "--dim", str(dim),
                                 "--alphas", alphas, "--out", "out"],
                          catch_exceptions=False)
        assert r.exit_code == 0
        docs = []
        for name in sorted(os.listdir("out")):
            if name.startswith("hull_alpha_"):
                with open(os.path.join("out", name), encoding="utf-8") as fh:
                    doc = json.load(fh)
                del doc["config"]
                docs.append(json.dumps(doc, sort_keys=True))
    assert len(docs) == 2
    return "\n".join(docs)


CASES = {
    "stay_prob_wedge(convex)":
        lambda: mc.stay_prob_wedge(QUADRANT, [1.0, 0.0], 1.0, CFG).to_json(),
    "stay_prob_wedge(reflex)":
        lambda: mc.stay_prob_wedge(REFLEX, [1.0, 0.0], 1.0, CFG).to_json(),
    "fit_exit_exponent":
        lambda: repr(mc.fit_exit_exponent(math.pi / 4, CFG)),
    "bridge_stay_prob":
        lambda: mc.bridge_stay_prob(HALF_PLANE, [0.5, 0.0], [0.3, 0.2], CFG).to_json(),
    # the convex series route of the one-step estimators: openings 3pi/4 and
    # 3pi/8, where the half-plane and quadrant cases take the exact product
    "fit_exit_exponent(3pi/8)":
        lambda: repr(mc.fit_exit_exponent(3 * math.pi / 8, CFG)),
    "bridge_stay_prob(opening 3pi/8)":
        lambda: mc.bridge_stay_prob(NARROW, [1.0, 0.0], [0.8, 0.1], CFG).to_json(),
    "conditional_H_prob(always)": _conditional_h,
    "prob_R_complement(n=2)": lambda: mc.prob_R_complement(3.0, 2, CFG).to_json(),
    "prob_R_complement(n=3)": lambda: mc.prob_R_complement(5.0, 3, CFG).to_json(),
    # most replicas pass the modulus event here and go on to the covering draws
    "prob_R_complement(alpha=100)": lambda: mc.prob_R_complement(100.0, 2, CFG).to_json(),
    "conditional_H_prob(always, alpha=1e5)": lambda: _conditional_h(1e5),
    # the covering window [max(0, s1 - r), min(1, s2 + r)] is clipped at 0
    # only (r = 0.0855), where P(N) = 1 - 8.4e-7 scales the weights
    "conditional_H_prob(always, alpha=100, clipped at 0)":
        lambda: _conditional_h(100.0, s1=0.05, s2=0.30),
    # the enlarged wedge is narrow here, so replicas leave it mid-bridge
    "conditional_H_prob(always, alpha=1e10)": lambda: _conditional_h(1e10),
    "campbell_check": _campbell,
    "discordant_prob": _discordant,
    # every branch of the discordance decision fires: facet-event failures,
    # angles below kappa/16, ridge hits and ridge misses
    "discordant_prob(alpha=1e8, kappa=3)": lambda: _discordant(1e8, 3.0),
    # d = 3: facet normals of point triples and ridges of planes in space
    "discordant_prob(3-tuples, alpha=1e8, kappa=3)":
        lambda: _discordant(1e8, 3.0, (0.1, 0.3, 0.45), (0.55, 0.7, 0.9)),
    "special_index indices": _special_indices,
    "find_discordant witnesses": _lemma3_witnesses,
    "measure_Za_complement": lambda: measure_Za_complement(0.01, 2, CFG).to_json(),
    "stay_prob_wedge(two chunks)":
        lambda: mc.stay_prob_wedge(HALF_PLANE, [0.5, 0.0], 1.0, CFG_2CHUNK).to_json(),
    "measure_Za_complement(two chunks)":
        lambda: measure_Za_complement(0.01, 2, CFG_2CHUNK).to_json(),
    "suite_lemma4": lambda: json.dumps(verify.suite_lemma4(CFG, instances=200),
                                       sort_keys=True),
    "suite_lemma8": lambda: json.dumps(verify.suite_lemma8(CFG), sort_keys=True),
    "samplers": _samplers,
    # covering windows interior and clipped at either end; both outcomes
    "level_covered": _level_covered,
    "simulate(dim=2)": lambda: _simulate_rows(2),
    "simulate(dim=3)": lambda: _simulate_rows(3),
    # hull documents: vertices, facet simplices, normals and offsets
    "simulate hulls(dim=2)": lambda: _simulate_hulls(2),
    "simulate hulls(dim=3)": lambda: _simulate_hulls(3),
    # degenerate documents: at dim 2 alpha = 0 leaves the 2 points of times
    # 0 and 1, and at dim 1 build_hull rejects the dimension
    "simulate degenerate hulls":
        lambda: _simulate_hulls(2, 2, "0,5") + "\n" + _simulate_hulls(1, 2, "0,5"),
}

EXPECTED_LAYOUT = 11

EXPECTED = {
    'bridge_stay_prob':
        '1ab9f57c94b781cffcf38aee7d76b3344c906e59a47f1092dcc9f148fcd9dcaa',
    'bridge_stay_prob(opening 3pi/8)':
        'b1c5b0c016e4c0d078ec9b4bc271bb297abb3194ecb611c573191e0ad41f14d9',
    'campbell_check':
        '10ac9071421b4a7d6ff1dc4bcbe77a86cb97654511156e026cc3bb0ac1dd2965',
    'conditional_H_prob(always)':
        '7612a8ba18d214753d3d09cb6e3ef73fb8a12c909bd615f5897856c95dfd9a71',
    'conditional_H_prob(always, alpha=1e5)':
        'e9e9de907750f7dc73553581398e8e5502d56e3d9922be081c473204c91d54a1',
    'conditional_H_prob(always, alpha=100, clipped at 0)':
        '07cb29ac3b1529afea0e74e060c658fe5bc9d916b04458f276d741e220643b3b',
    'conditional_H_prob(always, alpha=1e10)':
        '0ef8f8107d0b967007d8081f6a83e509a81c3ed98087dc96678936a9acd308ea',
    'discordant_prob':
        '80a073c62c168830624ec41182ee28da938c076717ccc5b7f82935228a7de7b3',
    'discordant_prob(alpha=1e8, kappa=3)':
        'a876287bfe3b2c4b62e8cee58eaebe21bad5018a9f68acaa516c44091575b37b',
    'discordant_prob(3-tuples, alpha=1e8, kappa=3)':
        '23bcfc3f1e7c1ed1e0bd98fe3418e1085b4aaa280691ac3e730ab573f84cdbb2',
    'find_discordant witnesses':
        '20d51274e347631f7a131977c1f8d5b4cf3172592e3dcf4ad4fa52d84332345c',
    'fit_exit_exponent':
        'bb54c1e06de3b8c236f9cea1189c631cc62b331e5b175bac51c408db31d76662',
    'fit_exit_exponent(3pi/8)':
        '2d3abbe32b0aa533bd2553e21afc284951c1e174eda7b209729a530810728b7c',
    'level_covered':
        'ee0a7daff27c054040be60e710e8c939451f480a859beb17eaf3137d4762be16',
    'measure_Za_complement':
        '48d57fe0669efe2131b0f146c0ef363413f1e8fdc38c204bde98983a3667f749',
    'measure_Za_complement(two chunks)':
        '5c381d5ffa1b6259afa5205e4221dccf794c9774fdcb02d4dc6227c2ab5a7e8b',
    'prob_R_complement(n=2)':
        'b856fe2bbdf0466e8de50e9f1a29b3e63f84b80cae339de9e2a14389bca65ed4',
    'prob_R_complement(n=3)':
        'e399b5dee08276fc458dbaba1fc9f0ba34dbe6b9bfc1cb7f4b3d282b968da230',
    'prob_R_complement(alpha=100)':
        '0c29e96fb4c92571ce67a829df598a7dbee4a8f24ddd41aa097429470ea57abc',
    'samplers':
        '0df57ac13f848a88ae54061bf8d7dbb51d5ca7a33e895c2e37858ea42271af0d',
    'simulate(dim=2)':
        '015650db3f50da560d857561afdc67ef31fb63d02a0b0c7f22d8e54c8f33baec',
    'simulate(dim=3)':
        '49629a4530a5d40b94a4fdb748b9d3a4fcef0e1cc9eb42d15561c5fd3c089706',
    'simulate degenerate hulls':
        '7e98eac9ee68c94e93fbb5ca2aeee4418556a1c768f756b55a45fa56046486d2',
    'simulate hulls(dim=2)':
        '7ff5e96005eebb05e9d6298b7ba6672a128d334318dcd85bf8028063568dd63f',
    'simulate hulls(dim=3)':
        '096492d84c53fdc0e682e1c308397328b77ab57225e34704c3c45d7c7d32c720',
    'special_index indices':
        '6d2ac2d672a66f1cdcd5885df21b8553777419456e1eed390f6a4d5d4f23824d',
    'stay_prob_wedge(convex)':
        'bc1f809e6ac92a432204d35762ca6c80170c24ee78d413f0782de553dfb67d38',
    'stay_prob_wedge(reflex)':
        '1676944f4166dddfb4dff4b44fbdc91330880626085d398cf62e116f99184dc1',
    'stay_prob_wedge(two chunks)':
        '64d81fc3f7e5444b7ca52766f68e8f22289b72b15ca71ae538ef76f084f887ec',
    'suite_lemma4':
        '21a7b473d4d5b4da3bd4d05139bd0819d04afde6ca41ed3f15f4aed6b3b406eb',
    'suite_lemma8':
        'f83263b2081c7a0f076e22c3c2a46005b9a743ae24af17ff59892590d54ff4e0',
}


def digest(name):
    return hashlib.sha256(CASES[name]().encode()).hexdigest()


def test_layout_version_matches_digests():
    assert STREAM_LAYOUT == EXPECTED_LAYOUT


@pytest.mark.parametrize("name", sorted(CASES))
def test_layout_unchanged(name):
    assert digest(name) == EXPECTED[name]


if __name__ == "__main__":
    unknown = [name for name in sys.argv[1:] if name not in CASES]
    if unknown:
        sys.exit(f"unknown cases {unknown}; choose from {sorted(CASES)}")
    for case in sys.argv[1:] or sorted(CASES):
        print(f"    {case!r}:\n        {digest(case)!r},")
    sys.exit(0)
