"""Command-line front end.

Verbs: compare, min-above, decompose, isomorphic, automorphisms, reduce,
catalog, steiner-experiment.  All verbs accept --json; output is
deterministic.  Exit codes: 0 success, 2 usage or input error, 3 budget
exhausted (partial output still emitted), 4 internal invariant failure.
"""

import argparse
import json
import os
import sys

from .catalog import catalog as named_matroid, catalog_names
from . import experiments, formats
from .decomposition import _NAMED_HINTS, decompose, load_hints
from .errors import MatdegError, excerpt
from .hypergraph import reduce as reduce_hypergraph
from .isomorphism import are_isomorphic, automorphisms, group_by_symmetry
from .search import min_above
from .weak_order import compare

USAGE_ERROR = 2
BUDGET_ERROR = 3
INTERNAL_ERROR = 4


class _CliError(MatdegError):
    """An input error found by the front end; like every package error, it
    exits 2."""


def _read_text(source):
    """The text of the file ``source``, or of stdin for '-'."""
    try:
        if source == "-":
            return sys.stdin.read()
        with open(source) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError("cannot read %s: %s" % (source, exc))


def _catalog_entry(name):
    """The catalog matroid ``name``; an unknown or refused name is an input
    error."""
    try:
        return named_matroid(name)
    except (KeyError, ValueError) as exc:
        raise _CliError(str(exc))


def _parse(source, what, parse):
    """``parse`` applied to the text of ``source``; any failure to parse it
    is an input error, reported as "cannot <what> <source>"."""
    text = _read_text(source)
    try:
        return parse(text)
    except (ValueError, KeyError, RecursionError, MatdegError) as exc:
        raise _CliError("cannot %s %s: %s" % (what, source, exc))


def _matroid_from_text(text):
    """A matroid from JSON or the text format, checked against the circuit
    axioms."""
    if text.lstrip().startswith("{"):
        return formats.matroid_from_obj(json.loads(text), validate=True)
    return formats.loads_matroid(text, validate=True)


def _load_matroid(source):
    if source.startswith("catalog:"):
        return _catalog_entry(source.split(":", 1)[1])
    return _parse(source, "parse matroid", _matroid_from_text)


def _nonnegative(text):
    """The argparse type of the limit options, which exit 2 on anything but
    a nonnegative integer; 0 is a limit, not "no limit"."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _threads(args):
    """The worker count of --threads, else of MATDEG_THREADS, else 1; a
    count that is not a positive integer is an input error."""
    value = args.threads
    if value is None:
        value = os.environ.get("MATDEG_THREADS") or 1
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise _CliError("thread count must be a positive integer, got %s" % excerpt(value))
    return count


def _emit(text):
    sys.stdout.write(text)


def _cmd_relation(args):
    """compare and isomorphic: one yes-or-no ``args.relation`` of two
    matroids, keyed ``args.key`` in JSON."""
    result = args.relation(_load_matroid(args.first), _load_matroid(args.second))
    if args.json:
        _emit(formats.json_dumps({args.key: result}))
    else:
        _emit("true\n" if result else "false\n")
    return 0


def _cmd_min_above(args):
    m = _load_matroid(args.matroid)
    report = min_above(m, max_nodes=args.limit_nodes, threads=_threads(args))
    classes = None
    if args.group_by_symmetry:
        classes = group_by_symmetry(report.maximal, m)
    if args.json:
        _emit(formats.json_dumps(formats.report_to_obj(report, args.stats, classes)))
    else:
        _emit("count %d\n" % len(report.maximal))
        if not report.complete:
            _emit("# partial: budget exhausted\n")
        if classes is not None:
            for i, (rep, members) in enumerate(classes, start=1):
                _emit("# class %d: size %d\n" % (i, len(members)))
        _emit(formats.dumps_matroids(report.maximal))
        if args.stats:
            _emit("# stats %s\n" % json.dumps(report.stats.as_dict(), sort_keys=True))
    return 0 if report.complete else BUDGET_ERROR


def _cmd_decompose(args):
    m = _load_matroid(args.matroid)
    if args.hints in _NAMED_HINTS:
        hints = _NAMED_HINTS[args.hints]()
    else:
        hints = _parse(args.hints, "load hints", lambda text: load_hints(json.loads(text)))
    result = decompose(
        m, hints=hints, max_depth=args.max_depth, budget=args.budget, threads=_threads(args)
    )
    if args.json:
        obj = {
            "complete": result.complete,
            "count": len(result.components),
            "components": [formats.component_to_obj(c) for c in result.components],
        }
        _emit(formats.json_dumps(obj))
    else:
        _emit("count %d\n" % len(result.components))
        if not result.complete:
            _emit("# partial: budget exhausted\n")
        for i, c in enumerate(result.components, start=1):
            _emit(
                "# %d: status=%s realizable=%s exact=%s%s\n"
                % (
                    i,
                    c.status,
                    c.realizable,
                    c.exact,
                    (
                        " possibly-redundant-in=" + ",".join(map(str, c.possible_redundancy))
                        if c.possible_redundancy
                        else ""
                    ),
                )
            )
            _emit(formats.dumps_matroid(c.matroid))
            _emit("\n")
    return 0 if result.complete else BUDGET_ERROR


def _perm_cycles(perm):
    seen = set()
    out = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt - 1]
        if len(cyc) > 1:
            out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def _cmd_automorphisms(args):
    m = _load_matroid(args.matroid)
    group = automorphisms(m)
    if args.json:
        obj = {
            "order": group.order,
            "generators": [list(g) for g in group.generators],
        }
        _emit(formats.json_dumps(obj))
    else:
        _emit("order %d\n" % group.order)
        for g in group.generators:
            _emit("%s\n" % _perm_cycles(g))
    return 0


def _cmd_reduce(args):
    """The output is JSON with or without --json."""
    hg = _parse(
        args.hypergraph,
        "parse hypergraph",
        lambda text: formats.hypergraph_from_obj(json.loads(text)),
    )
    try:
        red, qmap = reduce_hypergraph(hg)
    except ValueError as exc:
        raise _CliError(str(exc))
    obj = {
        "hypergraph": formats.hypergraph_to_obj(red),
        "quotient": formats.quotient_to_obj(qmap),
    }
    _emit(formats.json_dumps(obj))
    return 0


def _cmd_catalog(args):
    if args.action == "list":
        names = catalog_names()
        if args.json:
            _emit(formats.json_dumps({"names": names}))
        else:
            _emit("\n".join(names) + "\n")
        return 0
    m = _catalog_entry(args.name)
    if args.json:
        _emit(formats.json_dumps(formats.matroid_to_obj(m)))
    else:
        _emit(formats.dumps_matroid(m))
    return 0


def _cmd_steiner(args):
    report = experiments.steiner_experiment(
        args.q, args.kind, max_nodes=args.limit_nodes, threads=_threads(args)
    )
    obj = {
        "q": report.q,
        "kind": report.kind,
        "d": report.d,
        "blocks": report.block_count,
        "expected": report.expected_count,
        "computed": report.computed_count,
        "pass": report.passed,
        "complete": report.complete,
        "missing": [formats.matroid_to_obj(x) for x in report.missing],
        "extra": [formats.matroid_to_obj(x) for x in report.extra],
    }
    if args.stats:
        obj["stats"] = report.stats.as_dict()
    if args.json:
        _emit(formats.json_dumps(obj))
    else:
        verdict = "PASS" if report.passed else ("TIMEOUT" if not report.complete else "FAIL")
        _emit(
            "%s %s q=%d d=%d expected=%d computed=%d\n"
            % (verdict, report.kind, report.q, report.d, report.expected_count, report.computed_count)
        )
    return 0 if report.complete else BUDGET_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matdeg",
        description="maximal matroid degenerations and circuit-variety decompositions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    def add_relation(verb, about, names, relation, key):
        p = sub.add_parser(verb, help=about)
        p.add_argument("first", metavar=names[0])
        p.add_argument("second", metavar=names[1])
        add_common(p)
        p.set_defaults(func=_cmd_relation, relation=relation, key=key)

    add_relation(
        "compare",
        "decide smaller <= larger in the weak order",
        ("smaller", "larger"),
        compare,
        "leq",
    )

    p = sub.add_parser("min-above", help="maximal matroid degenerations")
    p.add_argument("matroid")
    p.add_argument("--group-by-symmetry", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--limit-nodes", type=_nonnegative, default=None, metavar="N")
    p.add_argument("--threads", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_min_above)

    p = sub.add_parser("decompose", help="circuit-variety decomposition")
    p.add_argument("matroid")
    p.add_argument(
        "--hints", default="default", help="'default', 'paper', 'none' or a JSON file"
    )
    p.add_argument("--max-depth", type=_nonnegative, default=8, metavar="K")
    p.add_argument("--budget", type=_nonnegative, default=None, metavar="N")
    p.add_argument("--threads", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_decompose)

    add_relation(
        "isomorphic",
        "matroid isomorphism test",
        ("first", "second"),
        are_isomorphic,
        "isomorphic",
    )

    p = sub.add_parser("automorphisms", help="automorphism group")
    p.add_argument("matroid")
    add_common(p)
    p.set_defaults(func=_cmd_automorphisms)

    p = sub.add_parser("reduce", help="identify double points of a hypergraph")
    p.add_argument("hypergraph", help="hypergraph JSON file or '-'")
    add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("catalog", help="named matroids")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    add_common(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("steiner-experiment", help="plane degeneration census")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--kind", choices=["projective", "affine"], required=True)
    p.add_argument("--limit-nodes", type=_nonnegative, default=None, metavar="N")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--stats", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_steiner)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    if args.verb == "catalog" and args.action == "show" and not args.name:
        sys.stderr.write("catalog show needs a name\n")
        return USAGE_ERROR
    try:
        return args.func(args)
    except MatdegError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_ERROR
    except Exception as exc:  # internal invariant failure
        sys.stderr.write("internal error: %s\n" % exc)
        return INTERNAL_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
