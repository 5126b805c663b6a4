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
predicate and before `find_discordant` ranked its pairs with arrays.  A
deliberate change to the stream layout must re-record the digests and say
so.

To print the current digests: `python tests/test_layout.py`.
"""

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
from bmhull.estimate import CHUNK, EstimatorConfig, stream
from bmhull.hulls import SimplexTimes
from bmhull.integrals import measure_Za_complement
from bmhull.paths import BridgeSpec, TimeGrid, sample_bridge, sample_brownian
from bmhull.rain import level_from_count
from bmhull.wedges import Wedge2D, find_discordant

CFG = EstimatorConfig(replicas=300, master_seed=0, grid_points_per_unit_time=64)
# two chunks, so the chunk order of the reduction is pinned too
CFG_2CHUNK = EstimatorConfig(replicas=CHUNK + 100, master_seed=0, grid_points_per_unit_time=8)
HALF_PLANE = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 2)
QUADRANT = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=math.pi / 4)
REFLEX = Wedge2D(tip=np.zeros(2), axis_angle=0.0, half_angle=3 * math.pi / 4)


def _edge_points(rho):
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    return [rho * c, rho * s], [rho * c, -rho * s]


def _campbell():
    lhs, rhs = mc.campbell_check(10.0, 2, CFG)
    return lhs.to_json() + "\n" + rhs.to_json()


def _conditional_h(alpha=3.0):
    d1, d2 = _edge_points(0.5)
    return mc.conditional_H_prob("interior", QUADRANT, 0.375, 0.625, d1, d2, alpha, CFG,
                                 eps=0.93, include_R="always").to_json()


def _discordant(alpha=1e3, kappa=math.pi / 2):
    return mc.discordant_prob(SimplexTimes(np.array([0.2, 0.4])),
                              SimplexTimes(np.array([0.6, 0.8])), alpha, kappa,
                              CFG).to_json()


def _lemma3_witnesses():
    """find_discordant's witness (facet pair, angle, tip distance) on random
    polytopes: pins the pair ranking, its tie groups and the tip distances."""
    rng = stream(0, 306, 0)
    out = []
    for kappa in (0.3, 0.8, 1.5):
        for _ in range(40):
            poly, wedge = verify.random_wedge_polytope(rng, kappa)
            out.append(find_discordant(poly, wedge, kappa, 1.0).to_json_dict())
    return json.dumps(out)


def _samplers():
    grid = TimeGrid(np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0]))
    bm = sample_brownian(3, grid, stream(0, 301, 0))
    off = sample_brownian(2, TimeGrid(np.array([0.25, 0.5, 1.0])), stream(0, 302, 0))
    spec = BridgeSpec(a=[0.1, -0.2], b=[0.3, 0.4], s1=0.0, s2=1.0)
    br = sample_bridge(spec, 2, grid, stream(0, 303, 0))
    lv = level_from_count(20.0, stream(0, 304, 0))
    t, pb, w0 = verify.random_special_instance(stream(0, 305, 0))
    special = json.dumps([t.tolist(), pb.tolist(), w0.tolist()])
    return "\n".join([bm.to_json(), off.to_json(), br.to_json(), lv.to_json(), special])


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


CASES = {
    "stay_prob_wedge(convex)":
        lambda: mc.stay_prob_wedge(QUADRANT, [1.0, 0.0], 1.0, CFG).to_json(),
    "stay_prob_wedge(reflex)":
        lambda: mc.stay_prob_wedge(REFLEX, [1.0, 0.0], 1.0, CFG).to_json(),
    "fit_exit_exponent":
        lambda: repr(mc.fit_exit_exponent(math.pi / 4, CFG)),
    "bridge_stay_prob":
        lambda: mc.bridge_stay_prob(HALF_PLANE, [0.5, 0.0], [0.3, 0.2], CFG,
                                    bound_params=(1e4, 0.1, 1.0)).to_json(),
    "conditional_H_prob(always)": _conditional_h,
    "prob_R_complement(n=2)": lambda: mc.prob_R_complement(3.0, 2, CFG).to_json(),
    "prob_R_complement(n=3)": lambda: mc.prob_R_complement(5.0, 3, CFG).to_json(),
    # most replicas pass the modulus event here and go on to the covering draws
    "prob_R_complement(alpha=100)": lambda: mc.prob_R_complement(100.0, 2, CFG).to_json(),
    "conditional_H_prob(always, alpha=1e5)": lambda: _conditional_h(1e5),
    "campbell_check": _campbell,
    "discordant_prob": _discordant,
    # every branch of the discordance decision fires: facet-event failures,
    # angles below kappa/16, ridge hits and ridge misses
    "discordant_prob(alpha=1e8, kappa=3)": lambda: _discordant(1e8, 3.0),
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
    "simulate(dim=2)": lambda: _simulate_rows(2),
    "simulate(dim=3)": lambda: _simulate_rows(3),
}

EXPECTED = {
    'bridge_stay_prob':
        'eaca0efd89a5004a5b8f9d88dfd2c8ea85af3bce08d64279efaea1d50081f350',
    'campbell_check':
        'db52581e07d3477d77ff488f46d4e1672e58f704d920e707a3b06b90a051bce4',
    'conditional_H_prob(always)':
        'f33de889221898fc760470446b1d6b64c7540589a3fc2868189af6dc00c44761',
    'conditional_H_prob(always, alpha=1e5)':
        'b1e7182d331326477e04cda9d25a3f060a5d2a854ec64445daa5815315fc0258',
    'discordant_prob':
        '890cff4cac14d1f0e66409735228f186696699b32a2e8044318240bdbc536eaf',
    'discordant_prob(alpha=1e8, kappa=3)':
        '6bfadf661cecaa58b850a44c9fe89ff61937e15fe9644de0b9c91878878b0e68',
    'find_discordant witnesses':
        '28542e52d84fd344b730d730ce168cfd360162726cba642110c01e38dc632153',
    'fit_exit_exponent':
        'c350b1a1b78149f8ff6d4fa1d1b27ff283286e0d8ade3bb368ab18bd757fce27',
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
        'fc9a792aa2d9fe833bc6868db17dcd47cb16a3adc4c20b19aad08910355f6379',
    'simulate(dim=2)':
        '015650db3f50da560d857561afdc67ef31fb63d02a0b0c7f22d8e54c8f33baec',
    'simulate(dim=3)':
        '49629a4530a5d40b94a4fdb748b9d3a4fcef0e1cc9eb42d15561c5fd3c089706',
    'stay_prob_wedge(convex)':
        'a636681e3dfad333778fcdd25a53dc218bf70276b10441305fd95fbbfbf39f19',
    'stay_prob_wedge(reflex)':
        'd2dd64d2cd39b323bbf76c6c12c78d69b074932592ac2199ef5b4eaca8795be9',
    'stay_prob_wedge(two chunks)':
        '0394302fe43834eb107a991ff17d28de4766540b570d28646c44d510122a6c64',
    'suite_lemma4':
        '21a7b473d4d5b4da3bd4d05139bd0819d04afde6ca41ed3f15f4aed6b3b406eb',
    'suite_lemma8':
        '94dc7fb337e9454815bdb4d36515e211cd94938ee0d280284cddf780e4861857',
}


def digest(name):
    return hashlib.sha256(CASES[name]().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_layout_unchanged(name):
    assert digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}:\n        {digest(case)!r},")
    sys.exit(0)
