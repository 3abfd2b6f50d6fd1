"""Input checks that no other test reaches: each raises the error type and
message listed here."""

from fractions import Fraction

import pytest

from pdzip.bits import Bits
from pdzip.container import ContainerFormatError, unpack
from pdzip.core import (
    DistributionError,
    ProbabilityDistribution,
    ceil_log2_ratio,
    max_ratio,
    parse_distribution,
)
from pdzip.refine import RefinePayload, refine_step
from pdzip.sparse import (
    ApproxDistribution,
    SparsePayload,
    SparseQueryTable,
    index_width,
    rank_width,
)
from pdzip.succinct import NavigationError, SuccinctTreeIndex, _ceil_log2
from pdzip.treebuild import CodewordSetError, contract_to_strict
from pdzip.treecode import DyadicDistribution, MalformedPayloadError, TreePayload
from conftest import sparse_queryable_header

ONE = Fraction(1)
TWO = ProbabilityDistribution.from_weights([1, 1])
THREE = ProbabilityDistribution.from_weights([1, 1, 2])

CASES = {
    "approx-empty": (lambda: ApproxDistribution(()), DistributionError,
                     "a distribution needs at least one entry"),
    "approx-outside-unit": (lambda: ApproxDistribution((1.5, -0.5)),
                            DistributionError, "probability outside [0, 1]"),
    "approx-sum-off": (lambda: ApproxDistribution((0.5, 0.25)),
                       DistributionError, "probabilities sum to 0.75, not 1"),
    "index-width-0": (lambda: index_width(0), ValueError,
                      "n must be at least 1"),
    "rank-width-0": (lambda: rank_width(0, ONE), ValueError,
                     "n must be at least 1"),
    "sparse-payload-n-0": (lambda: SparsePayload(0, ONE, ()),
                           DistributionError, "n must be at least 1"),
    "sparse-payload-bits": (lambda: SparsePayload.from_bits(Bits(), 4, ONE, 1),
                            DistributionError, "expected 3 bits for t=1, got 0"),
    "query-table-n-0": (lambda: SparseQueryTable(0, ONE, ()),
                        DistributionError, "n must be at least 1"),
    "query-table-index": (lambda: SparseQueryTable(4, ONE, ((5, 1),)),
                          DistributionError, "index 5 out of range"),
    "query-table-rank": (lambda: SparseQueryTable(4, ONE, ((1, 2),)),
                         DistributionError, "rank 2 out of range"),
    "query-table-bits": (lambda: SparseQueryTable.from_bits(Bits(), 4, ONE, 1),
                         DistributionError, "expected 5 bits for t=1, got 0"),
    "refine-k-1": (lambda: RefinePayload(1, TreePayload(Bits(), 1), ()),
                   ValueError, "k must be at least 2"),
    "refine-bits-k-1": (lambda: RefinePayload.from_bits(Bits(), 1, 1),
                        ValueError, "k must be at least 2"),
    "refine-step-lengths": (lambda: refine_step(THREE, TWO, 3),
                            DistributionError,
                            "distributions have different lengths"),
    "parse-zero-sum": (lambda: parse_distribution("0\n0\n"),
                       DistributionError, "weights sum to zero"),
    "max-ratio-no-positive": (lambda: max_ratio([0, 0], TWO),
                              DistributionError, "no positive entries"),
    "ceil-log2-ratio-0": (lambda: ceil_log2_ratio(0, 1), ValueError,
                          "ratio must be positive"),
    "header-c-below-1": (lambda: unpack(sparse_queryable_header(2, 0, 1)),
                         ContainerFormatError, "c must be at least 1"),
    "tree-payload-n-0": (lambda: TreePayload(Bits(), 0),
                         MalformedPayloadError, "leaf count must be at least 1"),
    "right-child-of-leaf": (lambda: SuccinctTreeIndex(0b100, 2).right_child(1),
                            NavigationError, "a leaf has no children"),
    "ceil-log2-0": (lambda: _ceil_log2(0), ValueError,
                    "ceil(log2) of a value below 1"),
    "bits-negative-length": (lambda: Bits.from_int(0, -1), ValueError,
                             "negative bit length"),
    # 5 and 4 need three bits: the negative LCP would pop the stack's sentinel
    "codeword-too-long-high": (lambda: contract_to_strict([1, 5], [2, 2]),
                               CodewordSetError,
                               "a codeword value does not fit its length"),
    "codeword-too-long-low": (lambda: contract_to_strict([0, 4], [2, 2]),
                              CodewordSetError,
                              "a codeword value does not fit its length"),
    "codeword-lengths-count": (lambda: contract_to_strict([0, 1], [1]),
                               CodewordSetError,
                               "values and lengths differ in number"),
    "dyadic-sum-off": (lambda: DyadicDistribution((1, 1, 1)),
                       DistributionError, "2^-d_i sum to 3/2, not 1"),
    "dyadic-negative-depth": (lambda: DyadicDistribution((1, -1)),
                              DistributionError, "negative leaf depth"),
    "dyadic-empty": (lambda: DyadicDistribution(()), DistributionError,
                     "a distribution needs at least one depth"),
    "dyadic-float-depths": (lambda: DyadicDistribution((1.0, 1.0)),
                            DistributionError, "leaf depths must be ints"),
    "dyadic-bool-depths": (lambda: DyadicDistribution((True, True)),
                           DistributionError, "leaf depths must be ints"),
}


@pytest.mark.parametrize("name", CASES)
def test_rejects(name):
    make, error, message = CASES[name]
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_distribution_equals_only_distributions():
    assert TWO.__eq__(5) is NotImplemented
    assert (TWO == 5) is False
    assert TWO != 5
