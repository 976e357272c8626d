"""Integer parallelotopes with small surface-to-volume ratio.

Exact-arithmetic construction of convex bodies that tile R^n under integer
lattice translations, with every claim (tiling, independence, norm bounds,
measure identities) certified at build time rather than assumed.
"""

__version__ = "0.1.0"

from .construction import (ConstructionError, ConstructionReport,
                           DimCapExceeded, LevelTrace, RecursionConfig,
                           RegimeError, choose_m, construct,
                           construct_bound_only, isoperimetric_ratio_lower,
                           predicted_bound_interval, scan_induction)
from .intervals import Interval, PrecisionExhausted
from .lattices import EnumerationCap, Lattice, enumerate_short_vectors
from .linalg import QMatrix, complete_to_full_rank, operator_norm_upper
from .polytopes import (BodyMeasures, DegenerateBody, EmptyBody, HPolytope,
                        Unbounded, linear_image, orthogonal_product,
                        voronoi_cell)
from .radicals import SqrtSum
from .sampler import (LdpcParams, SamplerFailure, SearchCap, admissible_s,
                      choose_d, default_c, expected_collisions,
                      return_prob_bound, return_prob_exact, sample_ldpc,
                      verify_s_independence)
from .verify import TilingReport, verify_tiling

__all__ = [
    "__version__",
    "BodyMeasures", "ConstructionError", "ConstructionReport",
    "DegenerateBody", "DimCapExceeded", "EmptyBody", "EnumerationCap",
    "HPolytope", "Interval", "Lattice", "LdpcParams",
    "LevelTrace", "PrecisionExhausted", "QMatrix",
    "RecursionConfig", "RegimeError", "SamplerFailure", "SearchCap",
    "SqrtSum",
    "TilingReport", "Unbounded",
    "admissible_s", "choose_d", "choose_m",
    "complete_to_full_rank", "construct", "construct_bound_only",
    "default_c", "enumerate_short_vectors", "expected_collisions",
    "isoperimetric_ratio_lower", "linear_image",
    "operator_norm_upper", "orthogonal_product", "predicted_bound_interval",
    "return_prob_bound", "return_prob_exact", "sample_ldpc",
    "scan_induction", "verify_s_independence",
    "verify_tiling", "voronoi_cell",
]
