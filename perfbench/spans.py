"""Layer spans recorded from outside the program.

The tracer wraps public functions at each layer boundary of ``matdeg`` and
rebinds every module-level name that refers to them, so calls the library
makes internally (``matdeg.search.maximal_elements``,
``matdeg.decomposition.canonical_form``, ...) are recorded too.  Spans
(name, start, end, parent, info) are kept in memory and written out once at
the end; self time is a span's duration minus that of its direct children.

Tracing is serial only: worker processes of the search pool cannot report
spans back.
"""

import gzip
import importlib
import sys
import time
from contextlib import contextmanager

# (layer, owner, attribute); the owner is a module or "module:Class".
TARGETS = (
    ("core", "matdeg.core:Matroid", "cyclic_flats_masks"),
    ("core", "matdeg.core", "rank_of"),
    ("core", "matdeg.core", "closure"),
    ("hypergraph", "matdeg.hypergraph", "delta_of_matroid"),
    ("hypergraph", "matdeg.hypergraph", "with_edge"),
    ("hypergraph", "matdeg.hypergraph", "reduce"),
    ("search", "matdeg.search", "min_above"),
    ("search", "matdeg.search", "min_above_general"),
    ("search", "matdeg.search", "min_above_rank4"),
    ("search", "matdeg.search", "stratum_min"),
    ("search", "matdeg.search", "min_above_hyp"),
    ("search", "matdeg.search", "min_above_hyp_rank4"),
    ("weak_order", "matdeg.weak_order", "compare"),
    ("weak_order", "matdeg.weak_order", "maximal_elements"),
    ("isomorphism", "matdeg.isomorphism", "canonical_form"),
    ("isomorphism", "matdeg.isomorphism", "canonical_permutation"),
    ("isomorphism", "matdeg.isomorphism", "are_isomorphic"),
    ("isomorphism", "matdeg.isomorphism", "automorphisms"),
    ("isomorphism", "matdeg.isomorphism", "group_by_symmetry"),
    ("decomposition", "matdeg.decomposition", "decompose"),
    ("decomposition", "matdeg.decomposition", "redundancy_prune"),
    ("formats", "matdeg.formats", "matroid_from_obj"),
)

# Spans whose result is a DegenerationReport carry (nodes, emitted, kept).
REPORT_SPANS = frozenset(
    ("search.min_above", "search.min_above_general", "search.min_above_rank4")
)


def _note(name):
    if name in REPORT_SPANS:
        return lambda r: (r.stats.nodes, r.stats.emitted, len(r.maximal))
    if name == "weak_order.compare":
        return bool
    if name == "decomposition.decompose":
        return lambda r: len(r.components)
    return None


def _resolve(owner):
    module_name, _, cls = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans while installed; ``job`` opens the benchmark's own
    per-job span, which every layer span of that job descends from."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _note(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (name, start, clock(), parent, "error")
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, note(result) if note else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer, owner, attr in TARGETS:
            holder = _resolve(owner)
            fn = getattr(holder, attr)
            wrapper = self._wrap("%s.%s" % (layer, attr), fn)
            if isinstance(holder, type):
                self._undo.append((holder, attr, fn))
                setattr(holder, attr, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "matdeg" or mod_name.startswith("matdeg.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    @contextmanager
    def job(self, label):
        """The benchmark's own span around one job or request."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = ("bench.job", start, time.perf_counter(), parent, label)

    def write(self, path):
        """Write spans as gzip'd TSV: id, parent, name, start, end, info
        (times in seconds from the first span)."""
        origin = next((s[1] for s in self.spans if s is not None), 0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\tinfo\n")
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, start, end, parent, info = s
                out.write(
                    "%d\t%d\t%s\t%.7f\t%.7f\t%s\n"
                    % (i, parent, name, start - origin, end - origin, "" if info is None else info)
                )


def summarize(spans):
    """Per-layer metrics from a span list (see README for definitions)."""
    n = len(spans)
    child = [0.0] * n
    in_decomp = [False] * n
    in_report = [False] * n
    for i, s in enumerate(spans):
        if s is None:
            continue
        p = s[3]
        if p >= 0 and spans[p] is not None:
            child[p] += s[2] - s[1]
            pname = spans[p][0]
            in_decomp[i] = in_decomp[p] or pname.startswith("decomposition.")
            in_report[i] = in_report[p] or pname in REPORT_SPANS

    calls, incl, self_s, layer_self = {}, {}, {}, {}
    nodes = emitted = kept = 0
    compare_true = 0
    decomp_min_above = 0
    components = 0
    parse_times = []
    for i, s in enumerate(spans):
        if s is None:
            continue
        name, start, end, _, info = s
        dur = end - start
        own = dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if name in REPORT_SPANS and not in_report[i] and isinstance(info, tuple):
            nodes += info[0]
            emitted += info[1]
            kept += info[2]
        elif name == "weak_order.compare" and info is True:
            compare_true += 1
        elif name == "decomposition.decompose" and not in_decomp[i] and isinstance(info, int):
            components += info
        elif name == "formats.matroid_from_obj":
            parse_times.append(dur)
        if name == "search.min_above" and in_decomp[i]:
            decomp_min_above += 1

    def c(name):
        return calls.get(name, 0)

    def t(table, *names):
        return sum(table.get(x, 0.0) for x in names)

    compare_calls = c("weak_order.compare")
    parse_times.sort()
    return {
        "core.cyclic_flats_calls": c("core.cyclic_flats_masks"),
        "core.cyclic_flats_s": t(incl, "core.cyclic_flats_masks"),
        "core.self_s": layer_self.get("core", 0.0),
        "hypergraph.delta_calls": c("hypergraph.delta_of_matroid"),
        "hypergraph.delta_self_s": t(self_s, "hypergraph.delta_of_matroid"),
        "hypergraph.with_edge_calls": c("hypergraph.with_edge"),
        "hypergraph.with_edge_s": t(incl, "hypergraph.with_edge"),
        "hypergraph.reduce_calls": c("hypergraph.reduce"),
        "hypergraph.self_s": layer_self.get("hypergraph", 0.0),
        "search.nodes": nodes,
        "search.emitted": emitted,
        "search.kept_per_emitted": kept / emitted if emitted else 0.0,
        "search.self_s": layer_self.get("search", 0.0),
        "weak_order.compare_calls": compare_calls,
        "weak_order.compare_self_s": t(self_s, "weak_order.compare"),
        "weak_order.compare_true_frac": compare_true / compare_calls if compare_calls else 0.0,
        "weak_order.maximal_elements_s": t(incl, "weak_order.maximal_elements"),
        "weak_order.self_s": layer_self.get("weak_order", 0.0),
        "isomorphism.canonical_calls": c("isomorphism.canonical_form")
        + c("isomorphism.canonical_permutation"),
        "isomorphism.canonical_s": t(
            incl, "isomorphism.canonical_form", "isomorphism.canonical_permutation"
        ),
        "isomorphism.automorphisms_s": t(incl, "isomorphism.automorphisms"),
        "isomorphism.self_s": layer_self.get("isomorphism", 0.0),
        "decomposition.min_above_calls": decomp_min_above,
        "decomposition.components": components,
        "decomposition.prune_s": t(incl, "decomposition.redundancy_prune"),
        "decomposition.self_s": layer_self.get("decomposition", 0.0),
        "formats.parse_ms": 1e3 * parse_times[len(parse_times) // 2] if parse_times else 0.0,
    }
