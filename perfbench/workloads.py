"""The four benchmark workloads: seeded inputs, timed loops, checks.

Every input reaches the program as a serialized circuit object and is
parsed with ``matdeg.formats.matroid_from_obj`` inside the timed region, so
each pass works on fresh ``Matroid`` instances with cold per-instance caches
(rank, closure, cyclic flats, delta, canonical form).  Library calls go
through module attributes (``md.min_above``, ``formats.matroid_from_obj``)
so that the tracer's rebinding sees them.

Correctness checks run outside the timed region.  The job workloads
(census, decompose, planes-par) compare each output, as a set, with the
reference output relabeled by the run's seeded permutation; the queries
workload checks every answer after the loop, against brute force, the
counts pinned in reference.json, or (canonical_form) the isomorphism
relation.
"""

import json
import random
import resource
import statistics
import sys
import time
import traceback
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path

import matdeg as md
from matdeg import formats
from matdeg.catalog import affine_plane_blocks, projective_plane_blocks
from matdeg.experiments import steiner_family

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# min_above sizes: the published censuses (Fano 22, Fano dual 22, K(3,3)
# dual 34, the six-point example 10) and the Vamos matroid.  Single calls of
# about 10 s (steiner348) or 6 s (decompose k33dual) are left out: a run can
# time them only once or twice, too few samples to be steady.
CENSUS = (("fano", 22), ("fanodual", 22), ("k33dual", 34), ("threepairs", 10), ("vamos", 21))
FANO_ORBITS = [1, 7, 7, 7]
# (catalog name, hints, component count)
DECOMPOSE = (("qs", "default", 2), ("fano", "paper", 22), ("threelines", "default", 46))
# (q, kind, expected family size); planes are searched with two workers.
PLANES = ((2, "projective", 22), (3, "affine", 31), (3, "projective", 40))
PLANE_THREADS = 2


# -- serialized matroids -----------------------------------------------------


def _points(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _mask(points):
    m = 0
    for p in points:
        m |= 1 << (p - 1)
    return m


def obj_from_masks(d, n, masks):
    return {"d": d, "n": n, "circuits": [_points(c) for c in masks]}


def relabel_obj(obj, perm):
    """Apply perm (old point p -> perm[p-1]) to a circuit object."""
    circuits = sorted(sorted(perm[p - 1] for p in c) for c in obj["circuits"])
    return {"d": obj["d"], "n": obj["n"], "circuits": circuits}


def seeded_perm(rng, d):
    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    return perm


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fail(label, exc):
    print("job %s failed: %r" % (label, exc), file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


# -- job workloads (census, decompose, planes-par) ---------------------------


class JobWorkload:
    """A fixed job list run in closed loop by one caller.

    ``make_inputs`` builds the serialized inputs, plain JSON data, and
    ``prepare`` adds the program state a user builds once per process (both
    timed as set-up); ``expectations`` builds the check data (untimed);
    ``call`` runs one job on a freshly parsed matroid and ``check``
    validates its output.
    """

    name = None

    def make_inputs(self, seed):
        raise NotImplementedError

    def prepare(self, inputs):
        return inputs

    def expectations(self, inputs):
        raise NotImplementedError

    def call(self, inputs, job, m, threads):
        raise NotImplementedError

    def check(self, expected, job, out):
        raise NotImplementedError

    def run_pass(self, inputs, threads=1, tracer=None):
        """One pass over the job list; returns (seconds, [(job, m, out or
        exception, latency)])."""
        records = []
        start = time.perf_counter()
        for job in inputs["jobs"]:
            t0 = time.perf_counter()
            m = out = None
            try:
                if tracer is None:
                    m = formats.matroid_from_obj(job["obj"])
                    out = self.call(inputs, job, m, threads)
                else:
                    with tracer.job(job["label"]):
                        m = formats.matroid_from_obj(job["obj"])
                        out = self.call(inputs, job, m, threads)
            except Exception as exc:  # one failed job must not stop the run
                _fail(job["label"], exc)
                out = exc
            records.append((job, m, out, time.perf_counter() - t0))
        return time.perf_counter() - start, records

    def count_failures(self, expected, records, previous=()):
        """Failures in one pass; also fails a job whose input instance is
        one handed to the program in the previous pass (whose records the
        caller keeps alive, so ids cannot be recycled)."""
        reused = {id(m) for _, m, _, _ in previous if m is not None}
        failed = 0
        for job, m, out, _ in records:
            if m is not None and id(m) in reused:
                print("job %s reused a Matroid instance" % job["label"], file=sys.stderr)
                failed += 1
            elif isinstance(out, Exception):
                failed += 1
            elif not self.check(expected, job, out):
                print("job %s gave a wrong answer" % job["label"], file=sys.stderr)
                failed += 1
        return failed

    def measure(self, inputs, seconds):
        """Passes until ``seconds`` of pass time.  The host's speed swings by
        up to 2x for seconds at a time, and that noise only ever slows a job
        down, so each job is timed by its fastest pass: wall_s is the sum of
        the jobs' fastest latencies, latency_p50_ms their median and
        latency_p99_ms the slowest of them (a job list yields too few
        samples for a 99th percentile).  Returns the metrics, attempted,
        failed and the peak RSS in MB."""
        expected = self.expectations(inputs)
        by_job = {}
        attempted = failed = 0
        busy = 0.0
        records = ()
        while busy < seconds:
            previous = records
            wall, records = self.run_pass(inputs, threads=self.threads)
            busy += wall
            for job, _, _, dt in records:
                by_job.setdefault(job["label"], []).append(dt)
            attempted += len(records)
            failed += self.count_failures(expected, records, previous)
        peak = peak_rss_mb()
        fastest = [min(v) for v in by_job.values()]
        wall = sum(fastest)
        return {
            "wall_s": wall,
            "latency_p50_ms": 1e3 * statistics.median(fastest),
            "latency_p99_ms": 1e3 * max(fastest),
            "throughput_rps": len(fastest) * (attempted - failed) / attempted / wall,
        }, attempted, failed, peak

    def trace(self, inputs, tracer):
        """Serial passes: untraced, traced, untraced.  Returns the metrics,
        attempted, failed and the mean untraced pass time."""
        expected = self.expectations(inputs)
        plain, first = self.run_pass(inputs, threads=1)
        failed = self.count_failures(expected, first)
        tracer.install()
        try:
            traced, records = self.run_pass(inputs, threads=1, tracer=tracer)
        finally:
            tracer.uninstall()
        failed += self.count_failures(expected, records, first)
        again, last = self.run_pass(inputs, threads=1)
        failed += self.count_failures(expected, last, records)
        plain = (plain + again) / 2
        attempted = 3 * len(inputs["jobs"])
        return {"trace.overhead_frac": traced / plain - 1.0}, attempted, failed, plain


def _reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _relabeled_set(entries, perm):
    """Matroids of the reference (d, n, masks) entries, relabeled by perm."""
    return {
        formats.matroid_from_obj(relabel_obj(obj_from_masks(d, n, masks), perm))
        for d, n, masks in entries
    }


class Census(JobWorkload):
    """min_above (auto path) plus group_by_symmetry on the rank-4 census."""

    name = "census"
    threads = 1

    def make_inputs(self, seed):
        rng = random.Random(seed)
        jobs = []
        for name, _ in CENSUS:
            m = md.catalog(name)
            perm = seeded_perm(rng, m.d)
            jobs.append({"label": name, "obj": relabel_obj(formats.matroid_to_obj(m), perm), "perm": perm})
        return {"jobs": jobs}

    def expectations(self, inputs):
        ref = _reference()["census"]
        return {
            job["label"]: (
                ref[job["label"]]["orbits"],
                _relabeled_set(ref[job["label"]]["maximal"], job["perm"]),
            )
            for job in inputs["jobs"]
        }

    def call(self, inputs, job, m, threads):
        report = md.min_above(m, threads=threads)
        return report, md.group_by_symmetry(report.maximal, m)

    def check(self, expected, job, out):
        report, classes = out
        orbits, maximal = expected[job["label"]]
        count = dict(CENSUS)[job["label"]]
        sizes = sorted(len(members) for _, members in classes)
        return (
            report.complete
            and len(report.maximal) == count
            and set(report.maximal) == maximal
            and sizes == orbits
            and (job["label"] != "fano" or sizes == FANO_ORBITS)
        )


class Decompose(JobWorkload):
    """Circuit-variety decompositions; dominated by canonical labeling."""

    name = "decompose"
    threads = 1

    def make_inputs(self, seed):
        rng = random.Random(seed)
        jobs = []
        for name, hints, _ in DECOMPOSE:
            m = md.catalog(name)
            perm = seeded_perm(rng, m.d)
            jobs.append(
                {"label": name, "obj": relabel_obj(formats.matroid_to_obj(m), perm), "perm": perm, "hints": hints}
            )
        return {"jobs": jobs}

    def prepare(self, inputs):
        # hint tables key catalog matroids by canonical form; users build
        # them once per process, so they belong to set-up
        return dict(inputs, paper_hints=md.paper_hints())

    def expectations(self, inputs):
        ref = _reference()["decompose"]
        return {job["label"]: _relabeled_set(ref[job["label"]], job["perm"]) for job in inputs["jobs"]}

    def call(self, inputs, job, m, threads):
        hints = inputs["paper_hints"] if job["hints"] == "paper" else None
        return md.decompose(m, hints=hints, threads=threads)

    def check(self, expected, job, out):
        count = {name: c for name, _, c in DECOMPOSE}[job["label"]]
        got = [c.matroid for c in out.components]
        return out.complete and len(got) == count and set(got) == expected[job["label"]]


class PlanesPar(JobWorkload):
    """General-rank search on plane matroids with the process pool.

    ``steiner_experiment`` builds its plane from (q, kind) and takes no
    matroid, so the benchmark runs the same search it times
    (``min_above`` -> ``min_above_general``) on the seeded relabeling and
    applies the same test as ``ExperimentReport.passed``: a complete search
    whose output equals the predicted families of
    ``matdeg.experiments.steiner_family``, relabeled.
    """

    name = "planes-par"
    threads = PLANE_THREADS

    def make_inputs(self, seed):
        rng = random.Random(seed)
        jobs = []
        for q, kind, _ in PLANES:
            d, blocks = projective_plane_blocks(q) if kind == "projective" else affine_plane_blocks(q)
            m = md.steiner_matroid(d, blocks, 2, validate=False)
            perm = seeded_perm(rng, d)
            jobs.append(
                {
                    "label": "%s(2,%d)" % ("PG" if kind == "projective" else "AG", q),
                    "obj": relabel_obj(formats.matroid_to_obj(m), perm),
                    "perm": perm,
                    "blocks": [sorted(b) for b in blocks],
                }
            )
        return {"jobs": jobs}

    def expectations(self, inputs):
        out = {}
        for job, (_, _, count) in zip(inputs["jobs"], PLANES):
            family = steiner_family(job["obj"]["d"], 3, job["blocks"])
            out[job["label"]] = (count, {md.relabel(x, tuple(job["perm"])) for x in family})
        return out

    def call(self, inputs, job, m, threads):
        return md.min_above(m, threads=threads)

    def check(self, expected, job, out):
        count, family = expected[job["label"]]
        return out.complete and len(out.maximal) == count and set(out.maximal) == family

    def trace(self, inputs, tracer):
        """Adds the pool metrics: the same job list with two workers."""
        pooled, records = self.run_pass(inputs, threads=PLANE_THREADS)
        expected = self.expectations(inputs)
        failed = self.count_failures(expected, records)
        metrics, attempted, more, serial = JobWorkload.trace(self, inputs, tracer)
        metrics["pool.speedup"] = serial / pooled
        metrics["pool.overhead_s"] = pooled - serial / PLANE_THREADS
        return metrics, attempted + len(records), failed + more, serial


# -- queries ------------------------------------------------------------------

# A synthetic request mix: no measured usage of the library exists, so the op
# weights and the popularity skew below are assumptions, not user traffic.
# The weights were chosen so that every layer gets a share and the latency
# figures are steady: compare requests span the 25th to 75th percentile of
# latency, so the median sits inside one cluster rather than in a gap
# between two, and min_above sets the 99th percentile.  Every 40 requests
# hold exactly this mix, shuffled.
MIX = ("rank",) * 6 + ("closure",) * 4 + ("compare",) * 20 + ("iso",) * 3 + ("canonical",) * 3 + ("min_above",) * 4
ZIPF_S = 0.7  # assumed popularity skew of the rank, closure, iso and canonical items
# The cost of min_above (0.3-45 ms) and of compare depends strongly on the
# matroid, so their items are the fixed samples of reference.json (128 and
# 320 matroids) for every seed.  The stream is cut into slices of SLICE
# requests: slice s asks every item of group s % GROUPS[op] of each sample
# exactly once, relabeled, in a seeded order, so slices at the same position
# of a cycle of SLICES slices ask for the same work.
SLICES = 4
SLICE = 320
CYCLE = SLICES * SLICE
GROUPS = {"min_above": SLICES, "compare": 2}
REQUESTS = 10 * CYCLE  # generated per seed; the loop cycles if it runs out
MIN_REQUESTS = 2000
MAX_BUSY = 6  # stop after this many times --seconds even below a full cycle
CATALOG_QUERY_ITEMS = ("fano", "threelines", "qs", "pg2", "ag2", "u27")


class Zipf:
    """Rank k is drawn with probability proportional to 1 / (k + 1)^s."""

    def __init__(self, n, s=ZIPF_S):
        self.cum = list(accumulate(1.0 / (k + 1) ** s for k in range(n)))

    def draw(self, rng):
        return min(bisect_right(self.cum, rng.random() * self.cum[-1]), len(self.cum) - 1)


def _answer(req):
    """Serve one request: parse, then call the library."""
    obj = json.loads(req)
    a = formats.matroid_from_obj(obj["a"])
    op = obj["op"]
    if op == "rank":
        return md.rank_of(a, obj["subset"])
    if op == "closure":
        return sorted(md.closure(a, obj["subset"]))
    if op == "compare":
        return md.compare(a, formats.matroid_from_obj(obj["b"]))
    if op == "iso":
        return md.are_isomorphic(a, formats.matroid_from_obj(obj["b"]))
    if op == "canonical":
        return md.canonical_form(a).hash
    if op == "min_above":
        report = md.min_above(a)
        return len(report.maximal) if report.complete else -1
    raise ValueError("unknown op %r" % op)


def _independent_sets(obj):
    circuits = [_mask(c) for c in obj["circuits"]]
    return [s for s in range(1 << obj["d"]) if not any(c & ~s == 0 for c in circuits)]


def _brute_rank(indep, mask):
    return max(s.bit_count() for s in indep if s & ~mask == 0)


def _signatures(d, masks):
    """Per point, the sorted sizes of the circuits through it."""
    return [tuple(sorted(c.bit_count() for c in masks if c >> (p - 1) & 1)) for p in range(1, d + 1)]


def _isomorphic(d, a, b):
    """Brute force: is there a bijection of [d] that maps the circuits of a
    onto those of b?  a and b are (circuit masks, signatures).  Points are
    mapped in order, each onto an unused point of b with the same
    signature; a circuit of a is checked once its last point is mapped."""
    (ca, sa), (cb, sb) = a, b
    cb = set(cb)
    if len(ca) != len(cb):
        return False
    last = [[] for _ in range(d + 1)]
    for c in ca:
        last[c.bit_length()].append(c)
    image = [0] * (d + 1)

    def extend(p, used):
        if p > d:
            return True
        for x in range(1, d + 1):
            if used >> (x - 1) & 1 or sb[x - 1] != sa[p - 1]:
                continue
            image[p] = x
            if all(_mask(image[q] for q in _points(c)) in cb for c in last[p]) and extend(p + 1, used | 1 << (x - 1)):
                return True
        return False

    return extend(1, 0)


def _iso_classes(objs):
    """Map each key of ``objs`` (circuit objects) to the index of its
    isomorphism class, decided by brute force."""
    reps, out = {}, {}  # invariant -> [(class index, (masks, signatures))]
    classes = 0
    for key, obj in objs.items():
        d, masks = obj["d"], [_mask(c) for c in obj["circuits"]]
        sig = _signatures(d, masks)
        candidates = reps.setdefault((d, tuple(sorted(sig))), [])
        for index, rep in candidates:
            if _isomorphic(d, (masks, sig), rep):
                out[key] = index
                break
        else:
            out[key] = classes
            candidates.append((classes, (masks, sig)))
            classes += 1
    return out


def _canonical_failures(entries):
    """Indices of canonical_form answers that break the isomorphism
    relation.  ``entries`` holds (request index, item key, matroid object,
    hash).  All requests on isomorphic items must get one hash (the most
    common one of their class) and that hash no request on an item of
    another class; isomorphism is decided by brute force, independently of
    the library."""
    firsts = {}
    for _, key, obj, _ in entries:
        firsts.setdefault(key, obj)
    cls = _iso_classes(firsts)
    votes, owners = {}, {}
    for _, key, _, h in entries:
        votes.setdefault(cls[key], Counter())[h] += 1
        owners.setdefault(h, set()).add(cls[key])
    modal = {c: v.most_common(1)[0][0] for c, v in votes.items()}
    return {i for i, key, _, h in entries if h != modal[cls[key]] or len(owners[h]) > 1}


class Queries:
    """Many small independent requests from one closed-loop client.

    The pool is every labeled matroid of rank <= 3 on d <= 7 points plus
    seeded relabelings of small catalog matroids, ordered by a seeded
    shuffle that sets popularity; rank, closure, iso and canonical requests
    pick items Zipf-skewed (item keys "p<index>").  min_above and compare
    requests take the fixed samples of reference.json (keys "m<index>" and
    "c<index>"), group by group.
    """

    name = "queries"

    def make_inputs(self, seed):
        rng = random.Random(seed)
        ref = _reference()["queries"]
        samples = {op: [obj_from_masks(*entry[:3]) for entry in ref[op]] for op in GROUPS}
        partners = {}  # compare items by ground-set size
        for i, obj in enumerate(samples["compare"]):
            partners.setdefault(obj["d"], []).append(i)
        pool = [m for d in range(1, 8) for m in md.all_matroids(d, 3)]
        rng.shuffle(pool)
        for name in CATALOG_QUERY_ITEMS:
            m = md.catalog(name)
            for _ in range(4):
                pool.insert(rng.randrange(200), md.relabel(m, tuple(seeded_perm(rng, m.d))))
        zipf = Zipf(len(pool))
        objs = {}

        def item(key):
            if key not in objs:
                objs[key] = formats.matroid_to_obj(pool[int(key[1:])])
            return objs[key]

        requests, meta = [], []
        for s in range(REQUESTS // SLICE):
            pending = {}
            for op, groups in GROUPS.items():
                pending[op] = list(range(s % groups, len(samples[op]), groups))
                rng.shuffle(pending[op])
            for _ in range(SLICE // len(MIX)):
                mix = list(MIX)
                rng.shuffle(mix)
                for op in mix:
                    if op in pending:
                        i = pending[op].pop()
                        key, a = "%s%d" % (op[0], i), samples[op][i]
                    else:
                        key = "p%d" % zipf.draw(rng)
                        a = item(key)
                    d = a["d"]
                    req = {"op": op}
                    if op in ("rank", "closure"):
                        req["a"] = a
                        req["subset"] = sorted(rng.sample(range(1, d + 1), rng.randint(1, d)))
                    elif op == "compare":
                        m = formats.matroid_from_obj(a)
                        free = [p for p in range(1, d + 1) if p not in md.closure(m, ())]
                        style = rng.random()
                        if free and style < 0.75:
                            deg = formats.matroid_to_obj(md.designate_loop(m, rng.choice(free)))
                            req["a"], req["b"] = (deg, a) if style < 0.5 else (a, deg)
                        else:  # another compare item on the same ground set
                            req["a"], req["b"] = a, samples["compare"][rng.choice(partners[d])]
                    elif op == "iso":
                        req["a"] = relabel_obj(a, seeded_perm(rng, d))
                        req["b"] = relabel_obj(a, seeded_perm(rng, d))
                    else:  # canonical, min_above: a relabeling of the item
                        req["a"] = relabel_obj(a, seeded_perm(rng, d))
                    requests.append(json.dumps(req))
                    meta.append([op, key])
            assert not any(pending.values()), "a slice must ask every item of its groups"
        return {"requests": requests, "meta": meta}

    def prepare(self, inputs):
        return inputs

    @staticmethod
    def expectations(inputs, count):
        """Expected answer of the first ``count`` requests: brute force for
        rank and closure, ``brute_force_leq`` for compare, True for the
        isomorphism of two relabelings, the count pinned in reference.json
        for min_above; None for canonical (see _canonical_failures)."""
        counts = [entry[3] for entry in _reference()["queries"]["min_above"]]
        indep_cache = {}
        expected = []
        for (op, key), req in zip(inputs["meta"][:count], inputs["requests"]):
            req = json.loads(req)
            if op in ("rank", "closure"):
                if key not in indep_cache:
                    indep_cache[key] = _independent_sets(req["a"])
                indep = indep_cache[key]
                mask = _mask(req["subset"])
                r = _brute_rank(indep, mask)
                if op == "rank":
                    expected.append(r)
                else:
                    d = req["a"]["d"]
                    expected.append(
                        [p for p in range(1, d + 1) if _brute_rank(indep, mask | 1 << (p - 1)) == r]
                    )
            elif op == "compare":
                a = formats.matroid_from_obj(req["a"])
                b = formats.matroid_from_obj(req["b"])
                expected.append(md.brute_force_leq(a, b))
            elif op == "iso":
                expected.append(True)
            elif op == "min_above":
                expected.append(counts[int(key[1:])])
            else:
                expected.append(None)
        return expected

    def serve(self, inputs, count=None, seconds=None, tracer=None):
        """Closed loop over the request stream.  Runs ``count`` requests, or
        whole slices until ``seconds`` of serving time, a full cycle and
        MIN_REQUESTS have passed (or MAX_BUSY times ``seconds``, so a slow
        program still ends in time)."""
        requests = inputs["requests"]
        ops = [op for op, _ in inputs["meta"]]
        latencies, answers = [], []
        busy = 0.0
        i = 0
        while True:
            if count is not None and i >= count:
                break
            if count is None and (
                (i % SLICE == 0 and busy >= seconds and i >= max(CYCLE, MIN_REQUESTS))
                or busy >= MAX_BUSY * seconds
            ):
                break
            j = i % len(requests)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ans = _answer(requests[j])
                else:
                    with tracer.job(ops[j]):
                        ans = _answer(requests[j])
            except Exception as exc:  # one failed request must not stop the run
                _fail("request %d" % j, exc)
                ans = exc
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            answers.append(ans)
            i += 1
        return latencies, answers

    def count_failures(self, inputs, answers):
        meta, requests = inputs["meta"], inputs["requests"]
        expected = self.expectations(inputs, min(len(answers), len(meta)))
        wrong_canonical = _canonical_failures(
            [
                (i, meta[i % len(meta)][1], json.loads(requests[i % len(meta)])["a"], ans)
                for i, ans in enumerate(answers)
                if meta[i % len(meta)][0] == "canonical" and not isinstance(ans, Exception)
            ]
        )
        failed = 0
        for i, ans in enumerate(answers):
            j = i % len(meta)
            if isinstance(ans, Exception):
                failed += 1
            elif i in wrong_canonical if meta[j][0] == "canonical" else ans != expected[j]:
                print("request %d gave a wrong answer" % i, file=sys.stderr)
                failed += 1
        return failed

    def measure(self, inputs, seconds):
        """The host's speed swings by up to 2x for seconds at a time, and
        that noise only ever slows requests down, so each slice position of
        the cycle is timed by its fastest slice: wall_s is the sum of these
        (one cycle of CYCLE requests) and the latency percentiles come from
        the requests of these slices (12 samples beyond the 99th).  A
        program too slow for a full cycle is timed on all it served.
        Returns the metrics, attempted, failed and the peak RSS in MB."""
        latencies, answers = self.serve(inputs, seconds=seconds)
        peak = peak_rss_mb()
        failed = self.count_failures(inputs, answers)
        slices = [latencies[i : i + SLICE] for i in range(0, len(latencies) - SLICE + 1, SLICE)]
        if len(slices) >= SLICES:
            fastest = [min(slices[q::SLICES], key=sum) for q in range(SLICES)]
            sample = [x for s in fastest for x in s]
            wall = sum(map(sum, fastest))
        else:
            sample = latencies
            wall = sum(latencies) * CYCLE / len(latencies)
        return {
            "wall_s": wall,
            "latency_p50_ms": 1e3 * statistics.median(sample),
            "latency_p99_ms": 1e3 * statistics.quantiles(sample, n=100)[98],
            "throughput_rps": CYCLE * (len(answers) - failed) / len(answers) / wall,
        }, len(answers), failed, peak

    def trace(self, inputs, tracer, count=CYCLE):
        """The first ``count`` requests untraced (per-op latencies), then
        traced, then untraced again."""
        latencies, answers = self.serve(inputs, count=count)
        failed = self.count_failures(inputs, answers)
        tracer.install()
        try:
            traced, traced_answers = self.serve(inputs, count=count, tracer=tracer)
        finally:
            tracer.uninstall()
        failed += self.count_failures(inputs, traced_answers)
        again, answers = self.serve(inputs, count=count)
        failed += self.count_failures(inputs, answers)
        plain = (sum(latencies) + sum(again)) / 2
        per_op = {}
        for (op, _), a, b in zip(inputs["meta"], latencies, again):
            per_op.setdefault(op, []).extend((a, b))

        def p50(*names):
            values = [x for n in names for x in per_op.get(n, ())]
            return 1e3 * statistics.median(values) if values else 0.0

        metrics = {
            "trace.overhead_frac": sum(traced) / plain - 1.0,
            "queries.rank_p50_ms": p50("rank", "closure"),
            "queries.compare_p50_ms": p50("compare"),
            "queries.iso_p50_ms": p50("iso"),
            "queries.canonical_p50_ms": p50("canonical"),
            "queries.min_above_p50_ms": p50("min_above"),
        }
        return metrics, 3 * count, failed, plain


WORKLOADS = {w.name: w for w in (Census(), Decompose(), Queries(), PlanesPar())}
