"""Simulation and verification laboratory for convex hulls of Brownian paths.

Poisson-rain level sets, approximating polytopes, wedge geometry, the named
regularity events and Monte Carlo / quadrature harnesses for the bounds that
connect them.
"""

__version__ = "0.1.0"

from .estimate import (CHUNK, Estimate, EstimatorConfig, chunk_sizes, from_weights,
                       run_chunks, scaled, stream)
from .integrals import (ZaRegion, enlargement, final_assembly, integral_Za_bound,
                        integral_Za_quadrature, log_final_assembly,
                        measure_Za_complement, phi, rhs_bound)
from .paths import (BridgeSpec, PathSample, TimeGrid, bridge, brownian, check_Y, modulus,
                    modulus_ok, sample_bridge, sample_brownian, time_steps)
from .rain import (Rain, RainLevel, check_N, check_R, covered, generate_rain, level,
                   level_from_count, level_times)
from .hulls import (DegeneracyError, Facet, Polytope, SimplexTimes, build_hull,
                    count_q, count_w, euler_characteristic_3d, event_E,
                    facet_time_tuples, merged_times, oriented_normal)
from .wedges import (AmbientWedge, DiscordantWitness, HypothesisError,
                     LemmaViolationError, Wedge2D, WedgePair, angle,
                     check_discordant, check_events_H, find_discordant, gamma_ak,
                     lemma3_constant, pair_geometry, projected_tip_distance,
                     ridge_distance, special_index)
from .mc import (bridge_stay_prob, campbell_check, conditional_H_prob,
                 discordant_prob, fit_exit_exponent, lemma6_bound, prob_R_complement,
                 prop6_rhs, stay_prob_wedge)
