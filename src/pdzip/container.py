"""On-disk container for compressed distributions.

Layout: 4-byte magic "PDZ1", 1-byte method tag, 8-byte little-endian n,
method parameters (refine: 2-byte k; sparse forms: 8-byte c numerator,
8-byte c denominator, 8-byte t), 8-byte payload bit length, then the
payload packed most-significant-bit-first and zero-padded to a byte
boundary.  The bit length must equal the method's exact formula, so a
size mismatch is reported as corruption.  Header bytes are deliberately
excluded from the size guarantees the codecs make about their payloads.

Each method is one record in METHODS: its header fields, payload length
formula, payload class, decoder and query index.  The container and the
CLI read every per-method decision from that record.  A query index is
built once from an opened payload and then answers query_prob(i) for any
i: the succinct tree index, the refine exponent table (one tree walk at
open, O(1) per query), or the sparse-queryable table itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .bits import Bits
from .refine import RefinePayload, RefinedIndex, decompress_refined
from .sparse import (SparsePayload, SparseQueryTable, decompress_sparse,
                     index_width, rank_width)
from .succinct import SuccinctTreeIndex
from .treecode import TreePayload, decode_tree, implied_distribution

MAGIC = b"PDZ1"

METHOD_TREE = 0x01
METHOD_REFINE = 0x02
METHOD_SPARSE = 0x03
METHOD_SPARSE_QUERYABLE = 0x04

class ContainerFormatError(ValueError):
    """The byte stream is not a valid container."""


@dataclass(frozen=True)
class Method:
    """One codec as the container and the CLI see it.

    `params` names the header fields the method stores, in stored order.
    With those values as *params: payload_bits(n, *params) is the exact
    payload length, payload_type.from_bits(bits, n, *params) and to_bits()
    convert the payload object, values(payload) lists q_1..q_n, and
    index(payload) builds the method's query index, whose query_prob(i)
    answers q_i alone, or is None when the method stores no query
    structure.
    """

    tag: int
    name: str
    params: tuple[str, ...]
    payload_bits: Callable[..., int]
    payload_type: type
    values: Callable[[Any], list]
    index: Optional[Callable[[Any], Any]]


# the lambdas look module functions up when called, so a wrapper installed
# on a module name (a tracer, a test double) also sees calls made here
METHODS = {m.tag: m for m in (
    Method(tag=METHOD_TREE, name="tree", params=(),
           payload_bits=lambda n: 2 * n - 2,
           payload_type=TreePayload,
           values=lambda p: list(
               implied_distribution(decode_tree(p)).probabilities()),
           index=lambda p: SuccinctTreeIndex.from_payload(p)),
    Method(tag=METHOD_REFINE, name="refine", params=("k",),
           payload_bits=lambda n, k: k * n - 2,
           payload_type=RefinePayload,
           values=lambda p: list(decompress_refined(p).entries),
           index=lambda p: RefinedIndex(p)),
    Method(tag=METHOD_SPARSE, name="sparse", params=("c", "t"),
           payload_bits=lambda n, c, t: t * index_width(n),
           payload_type=SparsePayload,
           values=lambda p: list(decompress_sparse(p).entries),
           index=None),
    Method(tag=METHOD_SPARSE_QUERYABLE, name="sparse-queryable",
           params=("c", "t"),
           payload_bits=lambda n, c, t: t * (index_width(n) + rank_width(n, c)),
           payload_type=SparseQueryTable,
           values=lambda p: list(decompress_sparse(p.sparse_payload()).entries),
           index=lambda p: p),
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


def expected_payload_bits(method: int, n: int, k: Optional[int] = None,
                          c: Optional[Fraction] = None,
                          t: Optional[int] = None) -> int:
    spec = _method(method)
    given = {"k": k, "c": c, "t": t}
    return spec.payload_bits(n, *(given[name] for name in spec.params))


@dataclass(frozen=True)
class Container:
    method: int
    n: int
    payload: Bits
    k: Optional[int] = None
    c: Optional[Fraction] = None
    t: Optional[int] = None

    def __post_init__(self) -> None:
        spec = _check(self.method, self.n, {"k": self.k, "c": self.c, "t": self.t})
        want = spec.payload_bits(self.n, *self.params)
        if len(self.payload) != want:
            raise ContainerFormatError(
                f"payload is {len(self.payload)} bits, method requires {want}")

    @property
    def spec(self) -> Method:
        return METHODS[self.method]

    @property
    def method_name(self) -> str:
        return self.spec.name

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
    return Container(spec.tag, n, payload, **params)


# ----------------------------------------------------------------------
# bridges between payload objects and containers

def container_for(payload) -> Container:
    """The container holding a payload object of any method."""
    spec = next(m for m in METHODS.values() if isinstance(payload, m.payload_type))
    return Container(spec.tag, payload.n, payload.to_bits(),
                     **{name: getattr(payload, name) for name in spec.params})


container_for_tree = container_for_refined = container_for
container_for_sparse = container_for_query_table = container_for


def _payload_of(tag: int) -> Callable[[Container], Any]:
    def payload_of(container: Container):
        if container.method != tag:
            raise ContainerFormatError(
                f"container holds method {container.method_name}, "
                f"not {METHODS[tag].name}")
        return container.open()
    return payload_of


tree_payload = _payload_of(METHOD_TREE)
refine_payload = _payload_of(METHOD_REFINE)
sparse_payload = _payload_of(METHOD_SPARSE)
query_table = _payload_of(METHOD_SPARSE_QUERYABLE)
