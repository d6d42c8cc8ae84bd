"""Per-layer metrics of one traced round, and micro-timings on its inputs.

The traced round records spans (see spans.py) and, through hooks at the
same boundaries, harvests the matrices handed to ``rref``, the canonical
witnesses built by ``congruence_canonical``, the search results of
``adapted_search`` and the verdicts of ``verify_witness``.  The scalar
and ``rref`` micro-timings then run untraced on those harvested inputs.
"""

import random
import statistics
import time

from spans import Tracer

RREF_SHAPES = ("5x5", "10x5", "15x5", "25x5")
RREF_SAMPLE = 100          # matrices kept per shape (reservoir sample)
MULADD_SAMPLE = 2000       # operand triples per scalar type
REPEATS = 5


def percentile(values, q):
    """The q-th percentile (exclusive method); needs two values or more."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Harvest:
    """Reservoir samples of the inputs seen at traced boundaries."""

    def __init__(self, lk, seed):
        self.lk = lk
        self.rng = random.Random(seed)
        self.seen = {}
        self.rref = {shape: [] for shape in RREF_SHAPES}
        self.quad = []
        self.candidates = 0
        self.verified = []      # span indices of verify_witness -> None

    def _keep(self, pool, key, item, cap):
        k = self.seen[key] = self.seen.get(key, 0) + 1
        if len(pool) < cap:
            pool.append(item)
        else:
            j = self.rng.randrange(k)
            if j < cap:
                pool[j] = item

    def on_rref(self, _idx, args, _result):
        m = args[0]
        shape = "%dx%d" % (m.nrows, m.ncols)
        gauss = self.lk.scalars.GaussianRational
        if (shape in self.rref
                and all(isinstance(x, gauss) for x in m.rows[0])):
            self._keep(self.rref[shape], shape, m, RREF_SAMPLE)

    def on_canonical(self, _idx, _args, result):
        quad = self.lk.scalars.QuadExtElem
        for row in result.q.rows:
            for x in row:
                if isinstance(x, quad):
                    self._keep(self.quad, "quad", x, MULADD_SAMPLE)

    def on_search(self, _idx, _args, result):
        self.candidates += result.candidates

    def on_verify(self, idx, _args, result):
        if result is None:
            self.verified.append(idx)

    def hooks(self):
        return {"linalg.rref": self.on_rref,
                "forms.congruence_canonical": self.on_canonical,
                "iso.adapted_search": self.on_search,
                "iso.verify_witness": self.on_verify}


def _median_per_op(fn, count):
    """Median over REPEATS of fn()'s elapsed time, per operation."""
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        runs.append((time.perf_counter_ns() - t0) / count)
    return statistics.median(runs)


def muladd_ns(triples):
    """Time of `c + a * b` on the given operand triples, in ns."""
    if not triples:
        return 0.0

    def loop():
        for a, b, c in triples:
            c + a * b
    return _median_per_op(loop, len(triples))


def _triples(rng, pool, field=lambda x: None):
    """Operand triples drawn from `pool`, all three from one field."""
    groups = {}
    for x in pool:
        groups.setdefault(field(x), []).append(x)
    out = []
    for _ in range(MULADD_SAMPLE if pool else 0):
        group = groups[field(rng.choice(pool))]
        out.append((rng.choice(group), rng.choice(group), rng.choice(group)))
    return out


def quad_operands(workload, harvest):
    """Extension-field scalars from the round, else from the fixtures."""
    if harvest.quad:
        return harvest.quad
    quad = workload.lk.scalars.QuadExtElem
    pool = []
    for fixture in workload.fixtures:
        _src, _tgt, mat = fixture.realize(workload.catalogue)
        pool += [x for row in mat.rows for x in row if isinstance(x, quad)]
    return pool


def micro_timings(workload, harvest, seed):
    lk = workload.lk
    rng = random.Random(seed)
    out = {}
    qi_pool = [x for shape in RREF_SHAPES for m in harvest.rref[shape]
               for row in m.rows for x in row]
    out["scalars.qi_muladd_ns"] = muladd_ns(_triples(rng, qi_pool))
    out["scalars.quadext_muladd_ns"] = muladd_ns(
        _triples(rng, quad_operands(workload, harvest), lambda x: x.field))
    rref = lk.linalg.Matrix.rref
    for shape in RREF_SHAPES:
        mats = harvest.rref[shape]

        def loop():
            for m in mats:
                rref(m)
        out["linalg.rref_us.%s" % shape] = (
            _median_per_op(loop, len(mats)) / 1e3 if mats else 0.0)
    parse = lk.catalogue.parse_catalogue
    out["catalogue.parse_catalogue.s"] = _median_per_op(parse, 1) / 1e9
    return out


def traced_round(workload, seed):
    """Run round 0 untraced, then the same round traced.

    Returns ([untraced, traced] rounds, per-layer metrics, exact counts,
    the tracer, and its per-span-name aggregates).
    """
    plain = workload.run_round(0)
    harvest = Harvest(workload.lk, seed)
    tracer = Tracer(workload.lk, harvest.hooks()).install()
    try:
        traced = workload.run_round(0)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    points = workload.points(traced)
    if workload.name == "catalogue":
        # per verified point, as the ROADMAP profile counted it
        lcs = tracer.count_under("algebra.lower_central_series",
                                 "catalogue.verify_entry")
    else:
        lcs = get("algebra.lower_central_series", "calls")
    entry_ms = tracer.durations_ms("catalogue.verify_entry")
    lifts = get("iso.lift_witness", "calls")
    lifted = sum(1 for i in harvest.verified
                 if tracer.parents[i] >= 0
                 and tracer.names[tracer.parents[i]] == "iso.certify")
    search_self = get("iso.adapted_search", "self_s")
    metrics = {
        "linalg.rref.calls": get("linalg.rref", "calls"),
        "linalg.rref.self_s": get("linalg.rref", "self_s"),
        "algebra.subspace_product.calls":
            get("algebra.subspace_product", "calls"),
        "algebra.subspace_product.self_s":
            get("algebra.subspace_product", "self_s"),
        "algebra.lower_central_series.calls_per_point":
            lcs / points if points else 0.0,
        "algebra.check_leibniz.self_s": get("algebra.check_leibniz", "self_s"),
        "algebra.center.self_s": get("algebra.center", "self_s"),
        "algebra.base_change.self_s": get("algebra.base_change", "self_s"),
        "invariants.signature.calls": get("invariants.signature", "calls"),
        "invariants.signature.self_s": get("invariants.signature", "self_s"),
        "lemmas.bounds.self_s": (get("lemmas.check_center_bound", "self_s")
                                 + get("lemmas.check_derived_bound",
                                       "self_s")),
        "forms.extract_v_form.self_s": get("forms.extract_v_form", "self_s"),
        "forms.congruence_canonical.self_s":
            get("forms.congruence_canonical", "self_s"),
        "catalogue.verify_entry.p50_ms": percentile(entry_ms, 50),
        "catalogue.verify_entry.p95_ms": percentile(entry_ms, 95),
        "catalogue.instantiate.self_s": get("catalogue.instantiate", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "iso.adapted_search.self_s": search_self,
        "iso.adapted_search.us_per_candidate":
            search_self * 1e6 / harvest.candidates
            if harvest.candidates else 0.0,
        "iso.candidates": harvest.candidates,
        "iso.lift.success_ratio": lifted / lifts if lifts else 0.0,
        "iso.verify_witness.self_s": get("iso.verify_witness", "self_s"),
        "trace.overhead_s": traced.task_s - plain.task_s,
    }
    metrics.update(micro_timings(workload, harvest, seed))
    counts = {"points": points, "spans": len(tracer.names),
              "lower_central_series.calls": lcs,
              "lift_attempts": lifts, "lifts_verified": lifted,
              "rref_samples": {s: len(v) for s, v in harvest.rref.items()},
              **traced.counts}
    return [plain, traced], metrics, counts, tracer, agg
