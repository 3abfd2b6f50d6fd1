"""Command-line tool: compress, decompress, query, stats, info.

Input distributions are text files with one weight per line (blank lines
and '#' comments ignored); weights are normalized by their exact sum.
Every command reads what differs between methods, `compress` its options
too, from the method's record in container.METHODS.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable file, bad
container, zero probabilities without --epsilon, index out of range, more
probabilities to decompress than memory holds), 141
when the reader of stdout closed it early (`pdzip stats ... | head -1`),
as for a command that SIGPIPE ends; stdout then goes to the null device,
so the exit has nothing left to flush into the closed pipe.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, localcontext
from collections.abc import Sequence
from fractions import Fraction

from . import container as cont
from .core import (
    DistributionError,
    InfiniteDivergenceError,
    ProbabilityDistribution,
    entropy,
    max_ratio,
    parse_distribution,
    relative_entropy,
)


DIGITS = 17  # significant digits where a decimal expansion does not end


class UsageError(Exception):
    """Command-line arguments that parse but do not make sense together."""


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number (use forms like 3, 0.25, 2/5)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdzip",
                     description="Lossy distribution compression with "
                                 "provable divergence bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a distribution file")
    p.add_argument("--method", required=True,
                   choices=[m.name for m in cont.METHODS.values()])
    p.add_argument("--k", type=int, default=None,
                   help="refinement levels (refine only, default 3)")
    p.add_argument("--c", type=_rational, default=None,
                   help="sparsity exponent >= 1 (sparse methods, default 1)")
    p.add_argument("--epsilon", type=_rational, default=None,
                   help="smoothing weight > 0 (tree/refine; required when "
                        "the input has zero probabilities)")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("decompress", help="write the stored distribution")
    p.add_argument("--digits", type=int, default=DIGITS,
                   help="significant digits for non-terminating values")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("query", help="probability of one symbol")
    p.add_argument("--index", type=int, required=True,
                   help="1-based symbol index")
    p.add_argument("input")

    p = sub.add_parser("stats", help="compare an original with its compression")
    p.add_argument("--original", required=True)
    p.add_argument("--compressed", required=True)

    p = sub.add_parser("info", help="describe a container file")
    p.add_argument("input")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves no state in the parser, so one serves every main call
    return build_parser()


# ----------------------------------------------------------------------
# value formatting

def format_probability(value, digits: int) -> str:
    """Plain decimal text, never E-notation: a Fraction over 2^a * 5^b is
    printed exactly, and no int is turned into text, so no digit limit
    applies; any other value is rounded to `digits` significant digits.
    """
    with localcontext() as ctx:
        ctx.prec = max(digits, 1)
        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            a = (den & -den).bit_length() - 1
            rest, b = den >> a, 0
            while rest % 5 == 0:
                rest //= 5
                b += 1
            if rest == 1:
                # value = num * 2^(e-a) * 5^(e-b) / 10^e, computed exactly
                e = max(a, b)
                ctx.prec, ctx.Emin, ctx.Emax = MAX_PREC, MIN_EMIN, MAX_EMAX
                d = Decimal(num) * Decimal(2) ** (e - a) * Decimal(5) ** (e - b)
                return format(d.scaleb(-e), "f")
            d = Decimal(num) / Decimal(den)
        else:
            d = +Decimal(value)
    return format(d, "f")


def _format_ratio(ratio) -> str:
    """12 significant digits, as a float prints them wherever the ratio
    fits in one; a larger exact ratio is rounded once through Decimal."""
    try:
        return f"{float(ratio):.12g}"
    except OverflowError:
        # a refine payload's levels can store ratios near 2^65532
        with localcontext() as ctx:
            ctx.prec, ctx.Emax = 12, MAX_EMAX
            d = Decimal(ratio.numerator) / Decimal(ratio.denominator)
            return format(d.normalize(), ".12g")


# ----------------------------------------------------------------------
# shared pieces

def _read_distribution(path: str) -> ProbabilityDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distribution(fh.read())


def _read_container(path: str) -> cont.Container:
    with open(path, "rb") as fh:
        return cont.unpack(fh.read())


def _lines(dist, digits: int) -> str:
    """One formatted line per symbol, in symbol order.

    Decoded values repeat (one per tree depth or refine key, one for
    every light sparse symbol), so each distinct value is formatted once,
    keyed by the distribution's key or by its float.
    """
    if isinstance(dist, ProbabilityDistribution):
        keys, weight = dist._keyed()
        total = dist.total
        text = {key: format_probability(Fraction(w, total), digits) + "\n"
                for key, w in weight.items()}
    else:
        keys = dist.entries
        text = {v: format_probability(v, digits) + "\n" for v in set(keys)}
    return "".join(map(text.__getitem__, keys))


# ----------------------------------------------------------------------
# commands

_APPLIES_TO = {"k": "--method refine", "c": "the sparse methods",
               "epsilon": "tree and refine"}


def cmd_compress(args) -> int:
    spec = cont.method_named(args.method)
    options = {name: getattr(args, name) for name in _APPLIES_TO
               if getattr(args, name) is not None}
    for name in options:
        if name not in spec.options:
            raise UsageError(f"--{name} applies only to {_APPLIES_TO[name]}")
    if args.epsilon is not None and args.epsilon <= 0:
        raise UsageError("--epsilon must be positive")
    # the header stores k in 2 bytes
    if args.k is not None and not 2 <= args.k <= 0xFFFF:
        raise UsageError("--k must be from 2 to 65535")
    if args.c is not None and args.c < 1:
        raise UsageError("--c must be at least 1")

    container = cont.compress(_read_distribution(args.input), args.method, **options)
    data = container.pack()
    with open(args.output, "wb") as fh:
        fh.write(data)
    print(f"{args.output}: method={args.method} n={container.n} "
          f"payload_bits={len(container.payload)} container_bytes={len(data)}")
    return 0


def cmd_decompress(args) -> int:
    if args.digits < 1:
        raise UsageError("--digits must be at least 1")
    container = _read_container(args.input)
    try:
        text = _lines(container.spec.values(container.open()), args.digits)
    except (MemoryError, OverflowError):
        # a sparse header names any n up to 2^64 - 1 in a few bytes; a list
        # of 2^63 or more items overflows before it could fail to allocate
        raise DistributionError(f"n={container.n} does not fit in memory") from None
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{args.output}: {container.n} probabilities "
          f"(method={container.spec.name})")
    return 0


def cmd_query(args) -> int:
    container = _read_container(args.input)
    i = args.index
    if not 1 <= i <= container.n:
        raise DistributionError(
            f"index {i} out of range for n={container.n}")
    index = container.spec.index
    if index is None:
        raise UsageError(f"method {container.spec.name} stores no query "
                         "structure; use sparse-queryable")
    print(format_probability(index(container.open()).query_prob(i), DIGITS))
    return 0


def cmd_stats(args) -> int:
    original = _read_distribution(args.original)
    container = _read_container(args.compressed)
    if original.n != container.n:
        raise DistributionError(
            f"original has {original.n} symbols, container has {container.n}")
    values = container.spec.values(container.open())
    h = entropy(original)
    d = relative_entropy(original, values)
    ratio = max_ratio(original, values)
    spec = container.spec
    d_bound, ratio_bound = spec.bounds(h, *container.params)
    d_text, ratio_text = spec.bound_text
    formula = spec.formula.format(**dict(zip(spec.params, container.params)))
    bits = len(container.payload)
    lines = [
        f"method: {spec.name}",
        f"n: {container.n}",
        f"entropy_P: {h:.12g} bits",
        f"divergence: {d:.12g} bits (bound: {d_text.format(d_bound)})",
        f"max_ratio: {_format_ratio(ratio)}"
        + ("" if ratio_bound is None
           else f" (bound: {ratio_text.format(ratio_bound)})"),
        f"payload_bits: {bits} ({formula} = {bits})",
        f"container_bytes: {len(container.pack())}",
    ]
    print("\n".join(lines))
    return 0


def cmd_info(args) -> int:
    container = _read_container(args.input)
    lines = [f"method: {container.spec.name}", f"n: {container.n}"]
    for name, value in zip(container.spec.params, container.params):
        lines.append(f"{name}: {value}")
    lines.append(f"payload_bits: {len(container.payload)}")
    lines.append(f"container_bytes: {len(container.pack())}")
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "compress": cmd_compress,
    "decompress": cmd_decompress,
    "query": cmd_query,
    "stats": cmd_stats,
    "info": cmd_info,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        print(f"pdzip: error: {exc}", file=sys.stderr)
        return 1
    except (DistributionError, InfiniteDivergenceError, ValueError,
            OSError) as exc:
        print(f"pdzip: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
