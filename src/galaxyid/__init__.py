"""Hierarchical spherical codes for deterministic identification over AWGN.

Builds nested minimum-angle codebooks under a power constraint, decodes
with shell and projection-slab tests along each codeword's ancestor chain,
verifies the structural distance guarantees exhaustively, and estimates
type I/II identification errors by seeded Monte Carlo.
"""

from .channel import DecoderParams, decide, identify, unit_directions
from .experiments import (
    ErrorEstimate,
    PairStrategy,
    RateReport,
    StructureReport,
    estimate_type1,
    estimate_type2,
    rate_report,
    verify_structure,
    wilson_interval,
)
from .galaxy import (
    GalaxyCode,
    GalaxyParams,
    asymptotic_rate,
    build_code,
    center_count_bounds,
    depth_bar,
    pack_centers,
    pair_distance_lower_bound,
    radial_bounds,
    rate_lower_bound,
    theta_of_k,
)
from .gaussian import (
    projection_tail,
    shell_prob_cross,
    shell_prob_miss,
    std_normal_cdf,
)
from .spherical import csw_lower_bound, min_pairwise_angle

__version__ = "0.1.0"
