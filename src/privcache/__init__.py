"""Demand-private coded caching.

A library and CLI for the virtual-user demand-private caching scheme:
placement, delivery, decoding, exhaustive correctness and exact privacy
verification, and the exact-rational memory-rate tradeoff machinery for
the two-file case.
"""

from .bitvec import Bits
from .combinat import SubsetIndex, binomial, enumerate_r_subsets, subset_rank, subset_unrank
from .scheme import (
    AuxDemand,
    CacheContent,
    DeliverySignal,
    DemandClass,
    FileLibrary,
    SchemeParams,
    SessionRandomness,
    VVector,
    assemble_delivery,
    aux_demand,
    build_delivery,
    build_v,
    decode,
    f_map,
    g_map,
    memory_rate_of,
    place,
    x_segment,
)
from .tradeoff import (
    LinearBound,
    RatePoint,
    TradeoffCurve,
    companion_points,
    converse_bounds,
    converse_eval,
    lower_convex_envelope,
    scheme_points,
    tight_intervals,
    tightness_report,
    upper_envelope,
)
from .verify import (
    ScaleLimitError,
    VerificationReport,
    oracle_demand_identity,
    oracle_y_reconstruction,
    verify_correctness_exhaustive,
    verify_distribution_lemma,
    verify_privacy,
)
from .yma import UVector, build_u_vector, compute_y, yma_delivery

__version__ = "0.1.0"
