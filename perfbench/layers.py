"""Per-layer tracing from outside the program.

`Tracer.install` replaces pdzip's public functions and methods with
wrappers that record one span each (name, start, end, parent) in memory.
A function is replaced under every name any pdzip module binds it to,
because callers look it up in their own namespace (`treecode` calls its
imported `code_tree`, not `treebuild.code_tree`).  Work counts are read
from return values.  A target a later version no longer has is reported
as missing instead of failing the run.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

MODULES = ("bits", "core", "treebuild", "treecode", "refine", "sparse",
           "succinct", "container", "cli")

# (module, attribute path, span name); a name ending in "*" is completed
# per call by `_call_name`
TARGETS = (
    ("core", "parse_distribution", "core.parse_distribution"),
    ("core", "ProbabilityDistribution.from_weights", "core.from_weights"),
    ("core", "relative_entropy", "core.relative_entropy"),
    ("core", "max_ratio", "core.max_ratio"),
    ("core", "entropy", "core.entropy"),
    ("succinct", "smooth", "succinct.smooth"),
    ("succinct", "SuccinctTreeIndex.from_payload", "succinct.from_payload"),
    ("succinct", "SuccinctTreeIndex.leaf_descent", "succinct.leaf_descent"),
    ("treebuild", "midpoints", "treebuild.midpoints"),
    ("treebuild", "codeword", "treebuild.codeword"),
    ("treebuild", "contract_to_strict", "treebuild.contract_to_strict"),
    ("treebuild", "code_tree", "treebuild.code_tree"),
    ("treecode", "compress_tree", "treecode.compress_tree"),
    ("treecode", "encode_tree", "treecode.encode_tree"),
    ("treecode", "decode_tree", "treecode.decode_tree"),
    ("treecode", "implied_distribution", "treecode.implied_distribution"),
    ("refine", "compress_refined", "refine.compress_refined"),
    ("refine", "refine_step", "refine.refine_step*"),
    ("refine", "decompress_refined", "refine.decompress_refined"),
    ("refine", "RefinePayload.to_bits", "container.to_bits"),
    ("refine", "RefinePayload.from_bits", "container.from_bits"),
    ("sparse", "select_heavy", "sparse.select_heavy"),
    ("sparse", "build_query_table", "sparse.build_query_table"),
    ("sparse", "decompress_sparse", "sparse.decompress_sparse"),
    ("sparse", "SparseQueryTable.lookup", "sparse.lookup"),
    ("sparse", "SparsePayload.to_bits", "container.to_bits"),
    ("sparse", "SparsePayload.from_bits", "container.from_bits"),
    ("sparse", "SparseQueryTable.to_bits", "container.to_bits"),
    ("sparse", "SparseQueryTable.from_bits", "container.from_bits"),
    ("container", "Container.pack", "container.pack"),
    ("container", "unpack", "container.unpack"),
    ("bits", "Bits.from_iterable", "bits.from_iterable"),
    ("bits", "concat", "bits.concat"),
    ("cli", "main", "cli.main*"),
    ("cli", "format_probability", "cli.format_probability"),
)


def _call_name(name: str, args) -> str:
    if name == "refine.refine_step*":
        return f"refine.refine_step.L{args[2]}"
    # cli.main(argv): the command is the first argument word
    argv = args[0] if args else None
    return f"cli.main.{argv[0] if argv else 'none'}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index)
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.aux_bits: list[int] = []  # aux_bits() of each index built

    # ------------------------------------------------------------------
    # spans

    def _enter(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _leave(self, idx: int, parent: int, name: str, t0: int) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent)

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx, self.parent = tracer._enter()
                self.t0 = time.perf_counter_ns()

            def __exit__(self, *exc):
                tracer._leave(self.idx, self.parent, name, self.t0)
                return False

        return _Span()

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = _COUNTERS.get(name.rstrip("*"))
        dynamic = name.endswith("*")

        def wrapper(*args, **kwargs):
            span_name = _call_name(name, args) if dynamic else name
            idx, parent = tracer._enter()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(idx, parent, span_name, t0)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # installation

    def install(self, lib) -> None:
        """Wrap every target in the modules `lib` holds (freshly imported)."""
        mods = {m: getattr(lib, m) for m in MODULES}
        for mod_name, path, span_name in TARGETS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.add(f"{mod_name}.{path}")
                continue
            if outer:  # a class attribute: method or classmethod
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(span_name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(span_name, raw))
                continue
            wrapped = self._wrap(span_name, raw)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    # ------------------------------------------------------------------
    # aggregation

    def self_times(self) -> tuple[dict, dict, dict, dict]:
        """Self seconds per span name, total ns and call count per name,
        and self seconds per (root span name, span name)."""
        spans = self.spans
        child = [0] * len(spans)
        root = [0] * len(spans)
        for i, (_, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        self_s: dict[str, float] = defaultdict(float)
        total: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        by_root: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(spans):
            own = (t1 - t0 - child[i]) / 1e9
            self_s[name] += own
            total[name] += t1 - t0
            calls[name] += 1
            by_root[(spans[root[i]][0], name)] += own
        return self_s, total, calls, by_root


# ----------------------------------------------------------------------
# counters read from return values

def _codeword(tr: Tracer, args, result) -> None:
    tr.counts["treebuild.codeword_bits"] += result.length


def _refine_step(tr: Tracer, args, result) -> None:
    bits = result[0]
    level = args[2]
    tr.counts[f"refine.marks.L{level}"] += bits.as_int().bit_count()
    tr.counts[f"refine.symbols.L{level}"] += len(bits)


def _select_heavy(tr: Tracer, args, result) -> None:
    tr.counts["sparse.heavy_t.sum"] += result.t
    tr.counts["sparse.heavy_t.calls"] += 1


def _lookup(tr: Tracer, args, result) -> None:
    table = args[0]
    tr.counts["sparse.lookup.comparisons"] += result[1]
    tr.counts["sparse.lookup.bound"] += math.ceil(math.log2(table.t + 1)) + 1


def _leaf_descent(tr: Tracer, args, result) -> None:
    tr.counts["succinct.descent_steps"] += result[1]


def _from_payload(tr: Tracer, args, result) -> None:
    tr.aux_bits.append(result.aux_bits())


def _unpack(tr: Tracer, args, result) -> None:
    # opening a tree or refine container is what decode_tree serves
    if result.method in (1, 2):
        tr.counts["container.tree_opens"] += 1


_COUNTERS = {
    "treebuild.codeword": _codeword,
    "refine.refine_step": _refine_step,
    "sparse.select_heavy": _select_heavy,
    "sparse.lookup": _lookup,
    "succinct.leaf_descent": _leaf_descent,
    "succinct.from_payload": _from_payload,
    "container.unpack": _unpack,
}


def layer_metrics(tracer: Tracer, names, floor_violations: int,
                  overhead_s: float) -> dict[str, float]:
    """Every per-layer metric in `names`; a layer that did no work reads 0."""
    self_s, total_ns, calls, _ = tracer.self_times()
    c = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    special = {
        "treebuild.codeword_bits": c["treebuild.codeword_bits"],
        "treecode.decode_tree.calls_per_open": ratio(
            calls["treecode.decode_tree"], c["container.tree_opens"]),
        "sparse.heavy_t": ratio(c["sparse.heavy_t.sum"], c["sparse.heavy_t.calls"]),
        "sparse.lookup.us": ratio(total_ns["sparse.lookup"] / 1e3, calls["sparse.lookup"]),
        "sparse.lookup.comparisons": ratio(c["sparse.lookup.comparisons"],
                                           calls["sparse.lookup"]),
        "sparse.lookup.comparisons_over_bound": ratio(
            c["sparse.lookup.comparisons"], c["sparse.lookup.bound"]),
        "succinct.leaf_descent.us": ratio(total_ns["succinct.leaf_descent"] / 1e3,
                                          calls["succinct.leaf_descent"]),
        "succinct.descent_steps": ratio(c["succinct.descent_steps"],
                                        calls["succinct.leaf_descent"]),
        "succinct.us_per_step": ratio(total_ns["succinct.leaf_descent"] / 1e3,
                                      c["succinct.descent_steps"]),
        "succinct.aux_bits": ratio(sum(tracer.aux_bits), len(tracer.aux_bits)),
        "succinct.smooth.floor_violations": floor_violations,
        "trace.overhead_s": overhead_s,
        "trace.missing_names": len(tracer.missing),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = float(special[name])
        elif name.startswith("refine.marks.L"):
            level = name.rsplit("L", 1)[1]
            out[name] = ratio(c[f"refine.marks.L{level}"], c[f"refine.symbols.L{level}"])
        elif name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out


def layer_report(tracer: Tracer, top: int = 6) -> list[str]:
    """Per benchmark op: the layers with the largest share of self time."""
    _, _, _, by_root = tracer.self_times()
    per_op: dict[str, dict[str, float]] = defaultdict(dict)
    for (op, name), secs in by_root.items():
        per_op[op][name] = secs
    lines = []
    for op in sorted(per_op):
        layers = per_op[op]
        whole = sum(layers.values())
        best = sorted(layers.items(), key=lambda kv: -kv[1])[:top]
        shares = ", ".join(f"{n} {100 * s / whole:.0f}%" for n, s in best)
        lines.append(f"  {op} ({whole:.3f} s traced): {shares}")
    if tracer.missing:
        lines.append("  missing (not wrapped): " + ", ".join(sorted(tracer.missing)))
    return lines
