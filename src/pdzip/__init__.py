"""Lossy compression of probability distributions with divergence bounds.

Compress an n-symbol distribution P into a few bits per symbol and read
back a distribution Q close to P in relative entropy: the tree codec
gives D(P||Q) < 2 bits using 2n-2 payload bits, refinement tightens the
bound toward 1 bit with n extra bits per level, the sparse codec gets
D(P||Q) <= c*H(P) + log2(pi^2/3) in sublinear space, and a succinct
index serves per-symbol queries straight from the compressed form.
"""

from .bits import Bits, concat
from .core import (
    DistributionError,
    InfiniteDivergenceError,
    ProbabilityDistribution,
    entropy,
    max_ratio,
    parse_distribution,
    relative_entropy,
)
from .refine import (
    RefinedIndex,
    RefinePayload,
    compress_refined,
    decompress_refined,
    refine_step,
)
from .sparse import (
    ApproxDistribution,
    SparsePayload,
    SparseQueryTable,
    build_query_table,
    decompress_sparse,
    select_heavy,
)
from .succinct import (
    NavigationError,
    SuccinctTreeIndex,
    build_smoothed,
    smooth,
)
from .treebuild import (
    CodewordSetError,
    ZeroProbabilityError,
    code_tree,
    contract_to_strict,
    midpoints,
)
from .treecode import (
    DyadicDistribution,
    MalformedPayloadError,
    StrictTreeShape,
    TreePayload,
    compress_tree,
    decode_tree,
    encode_tree,
    implied_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxDistribution",
    "Bits",
    "CodewordSetError",
    "DistributionError",
    "DyadicDistribution",
    "InfiniteDivergenceError",
    "MalformedPayloadError",
    "NavigationError",
    "ProbabilityDistribution",
    "RefinePayload",
    "RefinedIndex",
    "SparsePayload",
    "SparseQueryTable",
    "StrictTreeShape",
    "SuccinctTreeIndex",
    "TreePayload",
    "ZeroProbabilityError",
    "build_query_table",
    "build_smoothed",
    "code_tree",
    "compress",
    "compress_refined",
    "compress_tree",
    "concat",
    "contract_to_strict",
    "decode_tree",
    "decompress_refined",
    "decompress_sparse",
    "encode_tree",
    "entropy",
    "implied_distribution",
    "max_ratio",
    "midpoints",
    "parse_distribution",
    "refine_step",
    "relative_entropy",
    "select_heavy",
    "smooth",
]


def __getattr__(name: str):
    # `compress` loads the codec records on first use, not with `import pdzip`
    if name == "compress":
        from .container import compress
        return compress
    raise AttributeError(f"module 'pdzip' has no attribute {name!r}")
