"""On-disk container for compressed distributions.

Layout: 4-byte magic "PDZ1", 1-byte method tag, 8-byte little-endian n,
method parameters (refine: 2-byte k; sparse forms: 8-byte c numerator,
8-byte c denominator, 8-byte t), 8-byte payload bit length, then the
payload packed most-significant-bit-first and zero-padded to a byte
boundary.  The bit length must equal the method's exact formula, so a
size mismatch is reported as corruption.  Header bytes are deliberately
excluded from the size guarantees the codecs make about their payloads.

Each method is one record in METHODS: its header fields, payload length
formula and its printed name, payload class, compress step and the
options it takes, decoder, query index and promised bounds on D(P||Q)
and max p_i/q_i.  The container, `compress` and the CLI read every
per-method decision from that record.  A query index is built once from
an opened payload and then answers query_prob(i) for any i: the succinct
tree index, the refine exponent table (one tree walk at open, O(1) per
query), or the sparse-queryable table itself.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .bits import Bits
from .core import ProbabilityDistribution, Record
from .refine import (RefinePayload, RefinedIndex, compress_refined,
                     decompress_refined)
from .sparse import (LOG2_PI2_3, SparsePayload, SparseQueryTable,
                     build_query_table, decompress_sparse, index_width,
                     rank_width, select_heavy)
from .succinct import SuccinctTreeIndex, smooth
from .treebuild import ZeroProbabilityError
from .treecode import (TreePayload, compress_tree, decode_tree,
                       implied_distribution)

MAGIC = b"PDZ1"

METHOD_TREE = 0x01
METHOD_REFINE = 0x02
METHOD_SPARSE = 0x03
METHOD_SPARSE_QUERYABLE = 0x04


class ContainerFormatError(ValueError):
    """The byte stream is not a valid container."""


class Method(Record):
    """One codec as the container and the CLI see it.

    `params` names the header fields the method stores, in stored order.
    With those values as *params: payload_bits(n, *params) is the exact
    payload length, payload_type.from_bits(bits, n, *params) and to_bits()
    convert the payload object, values(payload) decodes q_1..q_n, and
    index(payload) builds the method's query index, whose query_prob(i)
    answers q_i alone, or is None when the method stores no query
    structure.  compress(dist, **opts) builds a payload, opts in `options`.

    `formula` names the payload length for people, with the header fields
    as format fields ("t={t} entries").  bounds(h, *params), h = H(P) in
    bits, gives the promised bounds as numbers: on D(P||Q) in bits, and
    on max_i p_i/q_i or None where the method promises none.
    `bound_text` holds one format template per bound, which shows the
    number as `stats` prints it ("< {:.6g}"), or None with no bound.

    values returns the decoded distribution object: for tree and refine a
    dyadic ProbabilityDistribution, keyed by leaf depth or refine key,
    whose integer weights and Fraction entries are built on first use,
    once per distinct key and shared by every symbol that has it; a
    sparse.ApproxDistribution of floats for the sparse forms.
    """

    __slots__ = _compared = ("tag", "name", "params", "options", "payload_bits",
                             "formula", "payload_type", "compress", "values",
                             "index", "bounds", "bound_text")

    def __init__(self, tag: int, name: str, params: tuple[str, ...],
                 options: tuple[str, ...], payload_bits: Callable[..., int],
                 formula: str, payload_type: type, compress: Callable,
                 values: Callable, index: Callable | None,
                 bounds: Callable[..., tuple[float, float | None]],
                 bound_text: tuple[str, str | None]) -> None:
        super().__init__(tag, name, params, options, payload_bits, formula,
                         payload_type, compress, values, index, bounds,
                         bound_text)


def _refined_bounds(k: int) -> tuple[float, float]:
    # D(P||Q) < log2 r and max p_i/q_i < r at r = 2 + 2^{3-k}; the bare
    # tree is k = 2, where r = 4
    r = 2 + 2 ** (3 - k)
    return math.log2(r), float(r)


def _positive(dist: ProbabilityDistribution, epsilon) -> ProbabilityDistribution:
    """dist smoothed at weight epsilon, if given, with no zero left in it."""
    if epsilon is not None:
        dist = smooth(dist, epsilon)
    if not dist.strictly_positive():
        raise ZeroProbabilityError(
            "input has zero probabilities; re-run with --epsilon")
    return dist


def _sparse_bounds(h: float, c: Fraction, t: int) -> tuple[float, None]:
    return float(c) * h + LOG2_PI2_3, None


_REFINED_TEXT = ("< {:.6g}", "< {:.6g}")
_SPARSE_TEXT = ("<= c*H(P) + log2(pi^2/3) = {:.6g}", None)


# the lambdas look module functions up when called, so a wrapper installed
# on a module name (a tracer, a test double) also sees calls made here
METHODS = {m.tag: m for m in (
    Method(tag=METHOD_TREE, name="tree", params=(), options=("epsilon",),
           payload_bits=lambda n: 2 * n - 2, formula="2n-2",
           payload_type=TreePayload,
           compress=lambda p, epsilon=None: compress_tree(_positive(p, epsilon)),
           values=lambda p: (
               implied_distribution(decode_tree(p)).to_distribution()),
           index=lambda p: SuccinctTreeIndex.from_payload(p),
           bounds=lambda h: _refined_bounds(2), bound_text=_REFINED_TEXT),
    Method(tag=METHOD_REFINE, name="refine", params=("k",),
           options=("k", "epsilon"),
           payload_bits=lambda n, k: k * n - 2, formula="kn-2",
           payload_type=RefinePayload,
           compress=lambda p, k=3, epsilon=None: (
               compress_refined(_positive(p, epsilon), k)),
           values=lambda p: decompress_refined(p),
           index=lambda p: RefinedIndex(p),
           bounds=lambda h, k: _refined_bounds(k), bound_text=_REFINED_TEXT),
    Method(tag=METHOD_SPARSE, name="sparse", params=("c", "t"), options=("c",),
           payload_bits=lambda n, c, t: t * index_width(n),
           formula="t={t} entries",
           payload_type=SparsePayload,
           compress=lambda p, c=Fraction(1): select_heavy(p, c),
           values=lambda p: decompress_sparse(p),
           index=None, bounds=_sparse_bounds, bound_text=_SPARSE_TEXT),
    Method(tag=METHOD_SPARSE_QUERYABLE, name="sparse-queryable",
           params=("c", "t"), options=("c",),
           payload_bits=lambda n, c, t: t * (index_width(n) + rank_width(n, c)),
           formula="t={t} entries",
           payload_type=SparseQueryTable,
           compress=lambda p, c=Fraction(1): build_query_table(select_heavy(p, c)),
           values=lambda p: decompress_sparse(p.sparse_payload()),
           index=lambda p: p, bounds=_sparse_bounds, bound_text=_SPARSE_TEXT),
)}


def _uint(chunk) -> int:
    return int.from_bytes(chunk, "little")


def _read_c(take) -> Fraction:
    num, den = _uint(take(8)), _uint(take(8))
    if den == 0:
        raise ContainerFormatError("c denominator is zero")
    return Fraction(num, den)


# header field -> (value to bytes, value read back through take(nbytes))
_FIELDS = {
    "k": (lambda k: k.to_bytes(2, "little"), lambda take: _uint(take(2))),
    "c": (lambda c: (c.numerator.to_bytes(8, "little")
                     + c.denominator.to_bytes(8, "little")), _read_c),
    "t": (lambda t: t.to_bytes(8, "little"), lambda take: _uint(take(8))),
}


def method_named(name: str) -> Method:
    for spec in METHODS.values():
        if spec.name == name:
            return spec
    raise ValueError(f"unknown method {name!r}")


def _method(tag: int) -> Method:
    try:
        return METHODS[tag]
    except KeyError:
        raise ContainerFormatError(f"unknown method tag {tag:#x}") from None


def _check(method: int, n: int, params: dict) -> Method:
    """The method's record; ContainerFormatError unless the header fields
    are the ones the method takes, hold valid values and fit the header."""
    spec = _method(method)
    if {name for name, v in params.items() if v is not None} != set(spec.params):
        raise ContainerFormatError(
            f"{spec.name} container takes "
            + (" and ".join(spec.params) or "no parameters"))
    k, c, t = params.get("k"), params.get("c"), params.get("t")
    if n < 1:
        raise ContainerFormatError("n must be at least 1")
    if k is not None and k < 2:
        raise ContainerFormatError("k must be at least 2")
    if c is not None and c < 1:
        raise ContainerFormatError("c must be at least 1")
    if t is not None and t > n:
        raise ContainerFormatError("t exceeds n")
    try:
        n.to_bytes(8, "little")
        for name in spec.params:
            _FIELDS[name][0](params[name])
    except OverflowError:
        raise ContainerFormatError("a header field does not fit its width") from None
    return spec


class Container(Record):
    __slots__ = _compared = ("method", "n", "payload", "k", "c", "t")

    def __init__(self, method: int, n: int, payload: Bits, k: int | None = None,
                 c: Fraction | None = None, t: int | None = None) -> None:
        params = {"k": k, "c": c, "t": t}
        spec = _check(method, n, params)
        want = spec.payload_bits(n, *map(params.get, spec.params))
        if len(payload) != want:
            raise ContainerFormatError(
                f"payload is {len(payload)} bits, method requires {want}")
        super().__init__(method, n, payload, k, c, t)

    @property
    def spec(self) -> Method:
        return METHODS[self.method]

    @property
    def params(self) -> tuple:
        """The header field values, in stored order."""
        return tuple(getattr(self, name) for name in self.spec.params)

    def open(self):
        """The method's payload object, read from the stored bits."""
        return self.spec.payload_type.from_bits(self.payload, self.n, *self.params)

    def pack(self) -> bytes:
        out = bytearray(MAGIC)
        out.append(self.method)
        out += self.n.to_bytes(8, "little")
        for name, value in zip(self.spec.params, self.params):
            out += _FIELDS[name][0](value)
        out += len(self.payload).to_bytes(8, "little")
        out += self.payload.packed_bytes()
        return bytes(out)


def unpack(data: bytes) -> Container:
    view = memoryview(data)
    if len(view) < 4 or bytes(view[:4]) != MAGIC:
        raise ContainerFormatError("bad magic; not a container file")
    off = 4

    def take(nbytes: int) -> memoryview:
        nonlocal off
        if off + nbytes > len(view):
            raise ContainerFormatError("truncated container")
        chunk = view[off:off + nbytes]
        off += nbytes
        return chunk

    spec = _method(take(1)[0])
    n = _uint(take(8))
    params = {name: _FIELDS[name][1](take) for name in spec.params}
    _check(spec.tag, n, params)
    bit_length = _uint(take(8))
    want = spec.payload_bits(n, *params.values())
    if bit_length != want:
        raise ContainerFormatError(
            f"payload bit length {bit_length} does not match the method "
            f"formula {want}; container is corrupt")
    payload_bytes = take((bit_length + 7) // 8)
    if off != len(view):
        raise ContainerFormatError("trailing bytes after the payload")
    try:
        payload = Bits(bytes(payload_bytes), bit_length)
    except ValueError as exc:
        raise ContainerFormatError(f"payload padding: {exc}") from None
    return Container._trusted(spec.tag, n, payload,
                              *map(params.get, ("k", "c", "t")))


# ----------------------------------------------------------------------
# bridges between payload objects and containers

def container_for(payload) -> Container:
    """The container holding a payload object of any method."""
    spec = next(m for m in METHODS.values() if isinstance(payload, m.payload_type))
    return Container(spec.tag, payload.n, payload.to_bits(),
                     **{name: getattr(payload, name) for name in spec.params})


def compress(dist: ProbabilityDistribution, method: str, **options) -> Container:
    """dist compressed by the named method, with options its record takes."""
    return container_for(method_named(method).compress(dist, **options))


container_for_tree = container_for_refined = container_for
container_for_sparse = container_for_query_table = container_for


def _payload_of(tag: int) -> Callable[[Container], object]:
    def payload_of(container: Container):
        if container.method != tag:
            raise ContainerFormatError(
                f"container holds method {container.spec.name}, "
                f"not {METHODS[tag].name}")
        return container.open()
    return payload_of


tree_payload = _payload_of(METHOD_TREE)
refine_payload = _payload_of(METHOD_REFINE)
sparse_payload = _payload_of(METHOD_SPARSE)
query_table = _payload_of(METHOD_SPARSE_QUERYABLE)
