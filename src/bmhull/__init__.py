"""Simulation and verification laboratory for convex hulls of Brownian paths.

Poisson-rain level sets, approximating polytopes, wedge geometry, the named
regularity events and Monte Carlo / quadrature harnesses for the bounds that
connect them.
"""

import time as _time

# read before numpy and scipy load, so the CLI's elapsed time includes them
_STARTED = _time.monotonic()

__version__ = "0.1.0"

from .estimate import (CHUNK, STREAM_LAYOUT, Estimate, EstimatorConfig, chunk_sizes,
                       from_weights, run_chunks, stream)
from .integrals import (ZaRegion, campbell_mean, complement_Za_exact, covering_miss_prob,
                        enlargement, final_assembly, integral_Za_bound,
                        integral_Za_quadrature, log_final_assembly, measure_Za_complement,
                        phi, rhs_bound)
from .paths import bridge, brownian, modulus_ok, time_steps
from .rain import check_N, coupled_levels, covered, level_covered, level_times
from .hulls import (DegeneracyError, Polytope, SimplexTimes, build_hull,
                    euler_characteristic_3d, facet_events, merged_times, oriented_normals,
                    planar_rain_facets)
from .wedges import (AmbientWedge, DiscordantWitness, HypothesisError,
                     LemmaViolationError, Wedge2D, angle, discordant_pairs,
                     find_discordant, gamma_ak, lemma3_constant,
                     special_indices)
from .mc import (bridge_stay_prob, campbell_check, conditional_H_prob,
                 discordant_prob, fit_exit_exponent, lemma6_bound, prob_R_complement,
                 prop6_rhs, stay_prob_wedge)
