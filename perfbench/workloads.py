"""The benchmark workloads: set-up, one measured round, and checks.

``catalogue`` is the in-process ``leibkit report``.  ``iso_dense`` runs,
in each round, the ``iso`` pairs and then one ``dense`` batch; the two
parts are also usable alone (the tiny self-tests do so).

Each workload imports leibkit afresh in ``setup`` and builds its inputs
from the seed.  ``run_round`` resets the caches a new ``leibkit`` process
starts without, times each operation, then checks every output.  Checks
run outside the timed regions and use the functions captured at set-up,
so a traced pass never records the benchmark's own re-checks.
"""

import contextlib
import hashlib
import importlib
import io
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

LEIBKIT_MODULES = ("scalars", "linalg", "exprs", "algebra", "invariants",
                   "lemmas", "forms", "catalogue", "iso", "cli")

# sha256 of `leibkit report` (text, 3 samples) over the shipped catalogue,
# recorded at the first benchmarked commit.  The report lists A_242 as
# FAIL, ends "3 failed" and exits 1: those are results, not errors.
REPORT_SHA256 = ("91791d979bdeedafc903ae52d7811473"
                 "efab9e934a570731b5b5ecee936de647")
REPORT_EXIT = 1


def import_leibkit():
    """Import every leibkit module from scratch, as a new process does."""
    for name in [m for m in sys.modules
                 if m == "leibkit" or m.startswith("leibkit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("leibkit." + m)
                              for m in LEIBKIT_MODULES})


def reset_cold_caches(lk):
    """Empty the process-lifetime caches a fresh `leibkit` run starts with."""
    lk.catalogue._parsed.cache_clear()
    lk.iso._REALIZE_CACHE.clear()


def first_point(lk, entry):
    """The entry's algebra at its first admissible sample point."""
    values = (lk.catalogue.sample_params(entry, 1)[0]
              if entry.is_parametric else {})
    return lk.catalogue.instantiate(entry, values)


@dataclass
class Round:
    """What one measured round did: op latencies in seconds, by kind."""
    ops: dict = field(default_factory=dict)      # kind -> [seconds]
    task_s: float = 0.0     # wall time of the round's timed operations
    attempted: int = 0
    failed: int = 0
    units: int = 0          # points, candidates, or items completed
    counts: dict = field(default_factory=dict)

    def add(self, kind, seconds):
        self.ops.setdefault(kind, []).append(seconds)
        self.task_s += seconds

    def fail(self, what):
        self.failed += 1
        print("check failed: %s" % what, file=sys.stderr)


def _guard(rnd, label, fn):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rnd.fail("%s raised" % label)
        return None


class Workload:
    name = ""
    max_rounds = 1

    def setup(self, seed):
        """Import leibkit, parse catalogue and fixtures, build inputs."""
        lk = import_leibkit()
        self.lk = lk
        self.catalogue = lk.catalogue.parse_catalogue()
        self.fixtures = lk.iso.load_fixtures()
        # untraced references for the benchmark's own checks
        self.signature = lk.invariants.signature
        self.verify_witness = lk.iso.verify_witness
        self.build(seed)
        return self

    def build(self, seed):
        pass

    def share(self, other):
        """Take over `other`'s loaded package, catalogue and fixtures."""
        for key in ("lk", "catalogue", "fixtures", "signature",
                    "verify_witness"):
            setattr(self, key, getattr(other, key))

    def run_round(self, index):
        raise NotImplementedError

    def points(self, rnd):
        """Algebras analysed in a round (the base of per-point ratios)."""
        return rnd.units


# ---------------------------------------------------------------- catalogue

class CatalogueWorkload(Workload):
    """`leibkit report` over the shipped catalogue, driven in-process.

    The input is fixed: the seed is recorded but chooses nothing.  The
    per-entry latency comes from one timer around the CLI's
    ``verify_entry``, 277 calls per report.
    """
    name = "catalogue"
    max_rounds = 8

    def __init__(self, catalogue_path=None, expected_sha256=REPORT_SHA256):
        self.catalogue_path = catalogue_path
        self.expected_sha256 = expected_sha256

    def run_round(self, index):
        lk = self.lk
        rnd = Round()
        reset_cold_caches(lk)
        inner = lk.cli.verify_entry
        points = []

        def timed_verify_entry(entry, samples=3):
            t0 = time.perf_counter()
            rep = inner(entry, samples)
            rnd.ops.setdefault("entry", []).append(time.perf_counter() - t0)
            points.append(len(rep.points))
            return rep

        argv = ["report"]
        if self.catalogue_path:
            argv += ["--catalogue", self.catalogue_path]
        buf = io.StringIO()
        lk.cli.verify_entry = timed_verify_entry
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                rc = _guard(rnd, "report", lambda: lk.cli.main(argv))
                rnd.task_s = time.perf_counter() - t0
        finally:
            lk.cli.verify_entry = inner
        rnd.attempted = 1
        rnd.units = sum(points)
        rnd.counts = {"entries": len(points), "points": sum(points)}
        text = buf.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.expected_sha256 and not rnd.failed:
            rnd.fail("report sha256 %s, expected %s"
                     % (digest, self.expected_sha256))
        elif rc != REPORT_EXIT and not rnd.failed:
            rnd.fail("report exit status %r, expected %d" % (rc, REPORT_EXIT))
        return rnd


# ---------------------------------------------------------------------- iso

# Found pairs A(alpha) ~ A(-alpha): the search stops at its first hit and
# lifts.  Capped pairs share a full signature, so every candidate up to
# the cap is pruned or replayed and nothing is lifted.
FOUND_PAIRS = (("A_5", 2), ("A_116", 2), ("A_5", 3), ("A_116", 3))
CAPPED_PAIRS = (("A_36", "A_37"), ("A_38", "A_39"), ("A_44", "A_45"),
                ("A_136", "A_137"))
CAPPED_CAP = 20000


class IsoWorkload(Workload):
    """``iso.certify`` on fixed pairs; the seed orders them in each round."""
    name = "iso"
    max_rounds = 12

    def __init__(self, found=FOUND_PAIRS, capped=CAPPED_PAIRS,
                 cap=CAPPED_CAP):
        self.found_spec = found
        self.capped_spec = capped
        self.cap = cap

    def build(self, seed):
        cat = self.lk.catalogue
        pairs = []
        for name, alpha in self.found_spec:
            entry = self.catalogue.entry(name)
            pairs.append(("found", "%s(%d)~%s(%d)" % (name, alpha, name,
                                                      -alpha),
                          cat.instantiate(entry, {"alpha": alpha}),
                          cat.instantiate(entry, {"alpha": -alpha})))
        for a, b in self.capped_spec:
            pairs.append(("capped", "%s~%s" % (a, b),
                          first_point(self.lk, self.catalogue.entry(a)),
                          first_point(self.lk, self.catalogue.entry(b))))
        self.pairs = pairs
        rng = random.Random(seed)
        self.orders = [rng.sample(range(len(pairs)), len(pairs))
                       for _ in range(self.max_rounds)]

    def run_round(self, index):
        lk = self.lk
        iso = lk.iso
        rnd = Round()
        reset_cold_caches(lk)
        candidates = 0
        for k in self.orders[index]:
            kind, label, src, tgt = self.pairs[k]
            kwargs = {"cap": self.cap} if kind == "capped" else {}
            rnd.attempted += 1
            t0 = time.perf_counter()
            cert = _guard(rnd, label, lambda: iso.certify(src, tgt, **kwargs))
            rnd.add(kind, time.perf_counter() - t0)
            if cert is None:
                continue
            candidates += cert.candidates
            if cert.status == iso.CERTIFIED:
                if (cert.matrix is None or self.verify_witness(
                        src, tgt, cert.matrix) is not None):
                    rnd.fail("%s: CERTIFIED witness does not verify" % label)
            elif kind == "found":
                rnd.fail("%s: %s, expected CERTIFIED" % (label, cert.status))
            elif cert.status not in (iso.INCONCLUSIVE, iso.DISTINCT):
                rnd.fail("%s: unexpected status %s" % (label, cert.status))
        rnd.units = candidates
        rnd.counts = {"pairs": rnd.attempted, "candidates": candidates}
        return rnd

    def points(self, rnd):
        return 2 * rnd.attempted


# -------------------------------------------------------------------- dense

# The catalogue entries eligible for the section-two form construction at
# their first sample point.  Eligibility is invariant under base change.
ELIGIBLE = tuple("A_%d" % i for i in range(1, 16))
PER_KIND = 10       # eligible items, and other items, in one batch


def _int_det(rows):
    """Determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_base_changes(seed, batches, others, per_kind=PER_KIND, n=5,
                        lo=-3, hi=3):
    """Seeded batches of (entry name, invertible integer matrix) items.

    Each batch draws `per_kind` distinct eligible entries and as many
    distinct entries from `others`, shuffled together.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(batches):
        names = (rng.sample(ELIGIBLE, per_kind)
                 + rng.sample(others, per_kind))
        rng.shuffle(names)
        batch = []
        for name in names:
            while True:
                m = tuple(tuple(rng.randint(lo, hi) for _ in range(n))
                          for _ in range(n))
                if _int_det(m):
                    break
            batch.append((name, m))
        out.append(tuple(batch))
    return tuple(out)


class DenseWorkload(Workload):
    """Random dense base changes of first-point catalogue algebras."""
    name = "dense"

    def __init__(self, batches=16, per_kind=PER_KIND):
        self.max_rounds = batches
        self.per_kind = per_kind

    def build(self, seed):
        lk = self.lk
        others = [e.name for e in self.catalogue if e.name not in ELIGIBLE]
        self.items = random_base_changes(seed, self.max_rounds, others,
                                         self.per_kind)
        wanted = {name for batch in self.items for name, _ in batch}
        self.algebras = {name: first_point(lk, self.catalogue.entry(name))
                         for name in sorted(wanted)}
        self.matrices = [[lk.linalg.Matrix(m) for _, m in batch]
                         for batch in self.items]
        self._ref_sig = {}

    def reference_signature(self, name):
        if name not in self._ref_sig:
            self._ref_sig[name] = self.signature(self.algebras[name])
        return self._ref_sig[name]

    def check_fixtures(self):
        """Every stored witness fixture must verify exactly."""
        rnd = Round()
        for fixture in self.fixtures:
            rnd.attempted += 1
            sides = _guard(rnd, fixture.label,
                           lambda: fixture.realize(self.catalogue))
            if sides is None:
                continue
            defect = self.verify_witness(*sides)
            if defect is not None:
                rnd.fail("fixture %s: %s" % (fixture.label, defect))
        return rnd

    def _congruence_ok(self, form, res):
        """Recompute Q^T M Q == rep, embedding into Q(sqrt d) when needed."""
        lk = self.lk
        matrix = lk.linalg.Matrix
        m = form.matrix
        rep = res.kind.rep_matrix()
        if res.extension_d is not None:
            fld = lk.scalars.QuadExtField(res.extension_d)
            m = matrix([[fld.embed(x) for x in row] for row in m.rows])
            rep = matrix([[fld.embed(x) for x in row] for row in rep.rows])
        return res.q.transpose() @ m @ res.q == rep

    def run_round(self, index):
        lk = self.lk
        forms = lk.forms
        rnd = Round()
        reset_cold_caches(lk)
        extended = 0
        for (name, _), p in zip(self.items[index], self.matrices[index]):
            alg = self.algebras[name]
            eligible = name in ELIGIBLE
            rnd.attempted += 1

            def op():
                moved = alg.base_change(p)
                sig = lk.invariants.signature(moved)
                defect = lk.iso.verify_witness(moved, alg, p)
                if not eligible:
                    return moved, sig, defect, None, None, None
                ok = forms.section_two_eligible(moved)
                form = res = None
                if ok:
                    form, _basis = forms.extract_v_form(moved)
                    res = forms.congruence_canonical(form)
                return moved, sig, defect, ok, form, res

            t0 = time.perf_counter()
            out = _guard(rnd, name, op)
            rnd.add("eligible" if eligible else "other",
                    time.perf_counter() - t0)
            if out is None:
                continue
            moved, sig, defect, ok, form, res = out
            if sig != self.reference_signature(name):
                rnd.fail("%s: signature changed under base change" % name)
            elif defect is not None:
                rnd.fail("%s: base change rejected as witness: %s"
                         % (name, defect))
            elif eligible and not ok:
                rnd.fail("%s: moved algebra lost eligibility" % name)
            elif eligible and not self._congruence_ok(form, res):
                rnd.fail("%s: Q^T M Q differs from the representative"
                         % name)
            elif eligible and res.extension_d is not None:
                extended += 1
        rnd.units = rnd.attempted
        rnd.counts = {"items": rnd.attempted,
                      "eligible_items": len(rnd.ops.get("eligible", ())),
                      "witnesses_needing_sqrt": extended}
        return rnd


# ---------------------------------------------------------------- iso_dense

class IsoDenseWorkload(Workload):
    """Each round: every ``iso`` pair, then one ``dense`` batch.

    The two kinds of exact re-verification traffic share one workload so
    that each run is long enough to average out a shared host's drift.
    Their operations stay apart by kind: found, capped, eligible, other.
    """
    name = "iso_dense"

    def __init__(self, iso=None, dense=None):
        self.iso = iso or IsoWorkload()
        self.dense = dense or DenseWorkload()
        self.max_rounds = min(self.iso.max_rounds, self.dense.max_rounds)

    def build(self, seed):
        for part in (self.iso, self.dense):
            part.share(self)
            part.build(seed)

    def check_fixtures(self):
        return self.dense.check_fixtures()

    def run_round(self, index):
        rnd = Round()
        for part in (self.iso.run_round(index),
                     self.dense.run_round(index)):
            for kind, seconds in part.ops.items():
                rnd.ops.setdefault(kind, []).extend(seconds)
            rnd.task_s += part.task_s
            rnd.attempted += part.attempted
            rnd.failed += part.failed
            rnd.counts.update(part.counts)
        rnd.units = rnd.attempted           # pairs and items completed
        return rnd

    def points(self, rnd):
        return 2 * rnd.counts["pairs"] + rnd.counts["items"]


WORKLOADS = {
    "catalogue": CatalogueWorkload,
    "iso_dense": IsoDenseWorkload,
}
