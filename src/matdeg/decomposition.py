"""Recursive decomposition of circuit varieties, driven combinatorially.

The driver simplifies its input, stops at the two base cases (a nilpotent
paving matroid with degrees <= 2 stands alone; when instead every proper
submatroid is nilpotent the corank-one uniform matroid joins it), and
otherwise recurses through the maximal degenerations.  Non-realizable
matroids drop their own component.

Pruning removes only components dominated in the weak order by a component
whose circuit variety is known to equal its matroid variety ("exact"); a
dominance by any other component is merely a possible redundancy, reported
as an annotation, because deciding it needs geometric perturbation
arguments.  Externally established facts (realizability, exactness,
variety coverage) enter through hint tables keyed by canonical form.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

from .core import (
    Matroid,
    _degrees,
    _nilpotent_within,
    _subspace_data,
    deletion,
    designate_loop,
    is_nilpotent,
    is_paving,
    is_inductively_connected,
    matroid_from_circuits,
    relabel,
    simplify,
    uniform_matroid,
)
from .bitsets import full_mask
from .catalog import catalog as named, k33dual_degeneration_reps
from .errors import excerpt
from .isomorphism import _canonical, _is_uniform_family, canonical_form, canonical_permutation
from .search import SearchStats, min_above
from .weak_order import compare


@dataclass(frozen=True)
class DecompositionComponent:
    """One term of a (potential) irreducible decomposition.

    ``exact`` records that the component's circuit variety coincides with
    its matroid variety; ``possible_redundancy`` lists the ids of surviving
    components that dominate this one in the weak order (inclusions that
    would need geometric arguments to decide).
    """

    matroid: Matroid
    status: str = "unknown"  # "irreducible-proven" | "unknown"
    realizable: str = "unknown"  # "yes" | "no" | "unknown"
    exact: bool = False
    provenance: tuple = ()
    possible_redundancy: tuple = ()

    @property
    def id(self):
        return canonical_form(self.matroid).hash[:12]


@dataclass
class DecompositionResult:
    components: tuple
    complete: bool
    stats: SearchStats = field(default_factory=SearchStats)

    def __len__(self):
        return len(self.components)


class Hints:
    """Externally known facts, keyed by canonical-form hash.

    ``realizable`` maps to True/False; ``exact`` asserts circuit variety ==
    matroid variety; ``covered`` marks matroids whose circuit variety is
    already inside the union of the other components, so they are dropped
    without recursion.
    """

    def __init__(self, realizable=None, exact=None, covered=None):
        self.realizable = dict(realizable or {})
        self.exact = set(exact or ())
        self.covered = set(covered or ())


def _key(m):
    return canonical_form(m).hash


def default_hints():
    """Realizability facts shipped with the catalog (complex coefficients).

    The Fano plane is flagged non-realizable, matching its published
    decomposition, in which no Fano component appears.  The table is built
    once per process; each call returns a fresh ``Hints``, so mutating one
    leaves the next call unchanged.
    """
    return Hints(realizable=_default_realizable())


@lru_cache(maxsize=None)
def _default_realizable():
    realizable = {}
    for name in ("qs", "grid33", "threelines", "k33dual", "vamosa"):
        realizable[_key(named(name))] = True
    for name in ("fano", "vamos", "steiner348", "fanodual"):
        realizable[_key(named(name))] = False
    # a three-point line plus a free point: the simple core of the
    # line-collapse and point-sum degenerations of the Fano plane
    realizable[_key(matroid_from_circuits(4, None, [(1, 2, 3)]))] = True
    # deleting a point from the Steiner quadruple system leaves a
    # non-realizable matroid (its loop extension is one of the components)
    realizable[_key(deletion(named("steiner348"), (8,))[0])] = False
    return MappingProxyType(realizable)  # shared by every call: read-only


def paper_hints():
    """Default facts plus the published variety inclusions used to finish
    the decomposition of the dual of the K33 graphic matroid: the grid's
    circuit variety equals its matroid variety, and the identification and
    loop degenerations are covered by the surviving components."""
    k = named("k33dual")
    reps = k33dual_degeneration_reps()
    covered = {
        _key(reps["fused_square"]),
        _key(reps["fused_columns"]),
        _key(reps["fused_two_pairs"]),
        _key(designate_loop(k, 1)),
    }
    exact = {_key(named("grid33"))}
    return Hints(realizable=_default_realizable(), exact=exact, covered=covered)


# the hint specs the CLI accepts by name
_NAMED_HINTS = {"default": default_hints, "paper": paper_hints, "none": Hints}

_HINT_FIELDS = ("realizable", "non_realizable", "exact", "covered")


def load_hints(obj):
    """Hints from a parsed JSON object with optional "realizable",
    "non_realizable", "exact" and "covered" lists whose entries are catalog
    names or canonical hashes; realizability starts from the default facts.
    Any other value, or any other key, raises ValueError."""
    if type(obj) is not dict:
        raise ValueError("hints must be a JSON object")
    for key in obj:
        if key not in _HINT_FIELDS:
            raise ValueError("unknown hints field %s" % excerpt(key))
    for field in _HINT_FIELDS:
        entries = obj.get(field, [])
        if type(entries) is not list or any(type(e) is not str for e in entries):
            raise ValueError("hints %r must be a list of strings" % field)

    def to_hash(entry):
        if len(entry) == 64 and all(c in "0123456789abcdef" for c in entry):
            return entry
        return _key(named(entry))

    realizable = dict(_default_realizable())
    realizable.update((to_hash(e), True) for e in obj.get("realizable", ()))
    exact = [to_hash(e) for e in obj.get("exact", ())]
    covered = [to_hash(e) for e in obj.get("covered", ())]
    # non_realizable is applied last, so it overrides realizable
    realizable.update((to_hash(e), False) for e in obj.get("non_realizable", ()))
    return Hints(realizable=realizable, exact=exact, covered=covered)


# -- structural predicates ----------------------------------------------------


def proper_submatroids_all_nilpotent(m, exhaustive=False):
    """Are all proper submatroids nilpotent?

    The default checks single-point deletions only and relies on nilpotence
    passing down to smaller restrictions; ``exhaustive`` checks every proper
    subset (validation mode, exponential).
    """
    fm = full_mask(m.d)
    if exhaustive:
        subsets = range(fm)
    else:
        subsets = (fm & ~(1 << (p - 1)) for p in range(1, m.d + 1))
    return all(_nilpotent_within(m, sub) for sub in subsets)


def _max_degree(m):
    return max(_degrees(_subspace_data(m)).values(), default=0)


def _base_case(m):
    """0: none; 1: nilpotent paving with degrees <= 2; 2: paving with
    degrees <= 2 and all proper submatroids nilpotent."""
    if not (is_paving(m) and _max_degree(m) <= 2):
        return 0
    if is_nilpotent(m):
        return 1
    if proper_submatroids_all_nilpotent(m):
        return 2
    return 0


# -- the recursion ------------------------------------------------------------


class _Driver:
    def __init__(self, hints, max_depth, budget, threads):
        self.hints = hints
        self.max_depth = max_depth
        self.budget = budget
        self.threads = threads
        self.memo = {}
        self.stats = SearchStats()
        self.complete = True

    def decompose(self, m, depth, rule):
        """The components of m, in m's labels: its simple core is answered
        from the memo, stopped by the budget or expanded, then lifted."""
        simple, qmap = simplify(m)
        key = _key(simple)
        hit = self.memo.get(key)
        if hit is not None:
            # the memo holds the components in canonical labels
            ordering = _canonical(simple)[2]
            comps = [replace(c, matroid=relabel(c.matroid, ordering)) for c in hit]
        elif self.budget is not None and self.budget <= 0:
            self.complete = False
            comps = self._components(simple, key, rule + ("budget-stop",), False, keep=True)
        else:
            if self.budget is not None:
                self.budget -= 1
            comps = redundancy_prune(self._expand(simple, key, depth, rule), annotate=False)
            perm = canonical_permutation(simple)
            self.memo[key] = [replace(c, matroid=relabel(c.matroid, perm)) for c in comps]
        return [replace(c, matroid=qmap.lift(c.matroid)) for c in comps]

    def _components(self, m, key, rule, exact, keep=False):
        """m's own component, as a list: empty when m is known not to be
        realizable, unless ``keep`` (the depth and budget stops, and the
        corank-uniform matroid, emit a component regardless).

        m is simple: a recursion input, or the U(n - 1, d) of base case 2,
        where n >= 3 (a simple matroid of rank <= 2 is nilpotent, case 1).
        """
        if key in self.hints.realizable:
            realizable = "yes" if self.hints.realizable[key] else "no"
        else:
            realizable = "yes" if _is_uniform_family(m) else "unknown"
        if realizable == "no" and not keep:
            return []
        # only a realizable matroid can be proven irreducible
        proven = realizable == "yes" and is_inductively_connected(m)[0]
        component = DecompositionComponent(
            matroid=m,
            status="irreducible-proven" if proven else "unknown",
            realizable=realizable,
            exact=exact,
            provenance=rule,
        )
        return [component]

    def _expand(self, m, key, depth, rule):
        if key in self.hints.exact:
            return self._components(m, key, rule + ("exact-hint",), True)
        case = _base_case(m)
        if case == 1:
            return self._components(m, key, rule + ("nilpotent-base",), True)
        if case == 2:
            u = uniform_matroid(m.n - 1, m.d)
            out = self._components(m, key, rule + ("submatroids-nilpotent-base",), False)
            return out + self._components(
                u, _key(u), rule + ("corank-uniform",), True, keep=True
            )
        if depth >= self.max_depth:
            self.complete = False
            return self._components(m, key, rule + ("depth-stop",), False, keep=True)
        out = self._components(m, key, rule + ("recursed",), False)
        report = min_above(m, threads=self.threads)
        self.stats.merge(report.stats)
        if not report.complete:
            self.complete = False
        covered = self.hints.covered
        step = rule + ("degeneration:" + key[:8],)
        for nxt in report.maximal:
            if covered and _key(nxt) in covered:
                continue
            out.extend(self.decompose(nxt, depth + 1, step))
        return out


def redundancy_prune(components, annotate=True):
    """Collapse duplicates, drop components strictly below an exact one, and
    (optionally) annotate surviving dominated components.

    Duplicates keep the first copy, exact when any copy is: ``realizable``
    and ``status`` are read off the matroid's simple core, so equal
    matroids carry equal values.  Only weak-order dominance by an exact
    component justifies removal; every other surviving dominance is
    reported, not decided.
    """
    by_matroid = {}
    for c in components:
        prev = by_matroid.setdefault(c.matroid, c)
        if c.exact and not prev.exact:
            by_matroid[c.matroid] = replace(prev, exact=True)
    uniq = list(by_matroid.values())
    exact_ms = [c.matroid for c in uniq if c.exact]
    kept = []
    for c in uniq:
        dominated = any(
            e != c.matroid and compare(c.matroid, e) for e in exact_ms
        )
        if not dominated:
            kept.append(c)
    if not annotate:
        return kept
    out = []
    for c in kept:
        doms = tuple(
            other.id
            for other in kept
            if other.matroid != c.matroid and compare(c.matroid, other.matroid)
        )
        out.append(replace(c, possible_redundancy=doms))
    return out


def decompose(m, hints=None, max_depth=8, budget=None, threads=1):
    """Decompose the circuit variety of a matroid into candidate components.

    Returns components sorted canonically; ``complete`` is False when the
    depth or node budget stopped a branch early.
    """
    if hints is None:
        hints = default_hints()
    driver = _Driver(hints, max_depth, budget, threads)
    comps = driver.decompose(m, 0, ("input",))
    comps = redundancy_prune(comps, annotate=True)
    comps.sort(key=lambda c: c.matroid.sort_key())
    return DecompositionResult(tuple(comps), driver.complete, driver.stats)
