"""The benchmark's own tests, on tiny inputs (about a minute in all).

    python3 perfbench/selftest.py

Each workload runs at a tiny size and must report no failed operation;
a tampered report or witness must be counted as a failure; the same seed
must give the same inputs; the traced counts must repeat exactly.
"""

import dataclasses
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers                                   # noqa: E402
import run                                      # noqa: E402
from workloads import (CatalogueWorkload, DenseWorkload,  # noqa: E402
                       IsoDenseWorkload, IsoWorkload, random_base_changes)

TINY_ENTRIES = ("A_5", "A_242", "R_1")
# sha256 of `leibkit report --catalogue tiny.json` at the first benchmarked
# commit, for the subset written by tiny_catalogue().
TINY_SHA256 = ("433fe4a269b353169ae991be79c3be06"
               "b6982bad7002107defc72b62717ffd49")


def tiny_catalogue(name, tamper=False):
    """Write the TINY_ENTRIES subset of the shipped catalogue; with
    `tamper`, change one structure constant of A_5."""
    with open(os.path.join(ROOT, "src", "leibkit", "data",
                           "catalogue.json")) as fh:
        doc = json.load(fh)
    entries = [e for e in doc["entries"] if e["name"] in TINY_ENTRIES]
    if tamper:
        comps = entries[0]["products"][0]["components"]
        key = sorted(comps)[0]
        comps[key] = "2*(%s)" % comps[key]
    doc["entries"] = entries
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def tiny_iso():
    return IsoWorkload(found=(("A_116", 2),), capped=(("A_36", "A_37"),),
                       cap=300)


def tiny_dense():
    return DenseWorkload(batches=2, per_kind=2)


def tiny_iso_dense():
    return IsoDenseWorkload(tiny_iso(), tiny_dense())


class CatalogueTests(unittest.TestCase):
    def test_tiny_report_matches_digest(self):
        w = CatalogueWorkload(tiny_catalogue("tiny.json"), TINY_SHA256)
        rnd = w.setup(1).run_round(0)
        self.assertEqual((rnd.attempted, rnd.failed), (1, 0))
        self.assertEqual(rnd.counts, {"entries": 3, "points": 9})

    def test_tampered_report_fails(self):
        w = CatalogueWorkload(tiny_catalogue("tampered.json", tamper=True),
                              TINY_SHA256)
        rnd = w.setup(1).run_round(0)
        self.assertEqual((rnd.attempted, rnd.failed), (1, 1))


class IsoTests(unittest.TestCase):
    def test_tiny_pairs_pass(self):
        rnd = tiny_iso().setup(1).run_round(0)
        self.assertEqual((rnd.attempted, rnd.failed), (2, 0))
        self.assertEqual(sorted(rnd.ops), ["capped", "found"])

    def test_tampered_witness_fails(self):
        w = tiny_iso().setup(1)
        certify = w.lk.iso.certify

        def tampered(src, tgt, **kwargs):
            cert = certify(src, tgt, **kwargs)
            if cert.matrix is None:
                return cert
            rows = [list(r) for r in cert.matrix.rows]
            rows[0][0] = rows[0][0] + 1
            return dataclasses.replace(cert, matrix=w.lk.linalg.Matrix(rows))

        w.lk.iso.certify = tampered
        rnd = w.run_round(0)
        self.assertEqual((rnd.attempted, rnd.failed), (2, 1))

    def test_same_seed_same_order(self):
        self.assertEqual(tiny_iso().setup(5).orders,
                         tiny_iso().setup(5).orders)


class DenseTests(unittest.TestCase):
    def test_tiny_batch_and_fixtures_pass(self):
        w = tiny_dense().setup(3)
        fixtures = w.check_fixtures()
        self.assertEqual((fixtures.attempted, fixtures.failed), (13, 0))
        rnd = w.run_round(0)
        self.assertEqual((rnd.attempted, rnd.failed), (4, 0))
        self.assertEqual(rnd.counts["eligible_items"], 2)

    def test_tampered_fixture_fails(self):
        w = tiny_dense().setup(3)
        first = w.fixtures[0]
        rows = [list(r) for r in first.matrix_text]
        rows[0][0] = "7" if rows[0][0] != "7" else "5"
        w.fixtures = (dataclasses.replace(
            first, matrix_text=tuple(tuple(r) for r in rows)),) \
            + w.fixtures[1:]
        rnd = w.check_fixtures()
        self.assertEqual((rnd.attempted, rnd.failed), (13, 1))

    def test_same_seed_same_inputs(self):
        others = ["A_%d" % i for i in range(20, 60)]
        self.assertEqual(random_base_changes(7, 3, others),
                         random_base_changes(7, 3, others))
        self.assertNotEqual(random_base_changes(7, 3, others),
                            random_base_changes(8, 3, others))
        self.assertEqual(tiny_dense().setup(7).items,
                         tiny_dense().setup(7).items)


class IsoDenseTests(unittest.TestCase):
    def test_round_holds_both_parts(self):
        w = tiny_iso_dense().setup(6)
        self.assertEqual(w.max_rounds, 2)
        self.assertEqual(w.check_fixtures().failed, 0)
        rnd = w.run_round(1)
        self.assertEqual((rnd.attempted, rnd.failed, rnd.units), (6, 0, 6))
        self.assertEqual(sorted(rnd.ops),
                         ["capped", "eligible", "found", "other"])
        self.assertEqual(w.points(rnd), 8)
        self.assertEqual(w.dense.items, tiny_dense().setup(6).items)


class MetricTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def test_end_to_end_names(self):
        w = tiny_iso_dense().setup(2)
        rounds = [w.run_round(0), w.run_round(1)]
        metrics, named = run.end_to_end(w, rounds, [0.1, 0.2, 0.3])
        self.assertEqual(set(metrics),
                         {m["name"] for m in self.spec["end_to_end"]})
        self.assertTrue(all(v > 0 for v, _unit in metrics.values()))
        for name in ("found_s", "capped_s", "candidates_per_s", "dense_s",
                     "item_p75_ms"):
            self.assertGreater(named[name][0], 0, name)
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))

    def test_traced_counts_repeat(self):
        runs = []
        for _ in range(2):
            w = tiny_iso().setup(4)
            _rounds, metrics, counts, _tracer, _agg = layers.traced_round(
                w, 4)
            runs.append((metrics, counts))
        names = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(set(runs[0][0]), names)
        for key in ("linalg.rref.calls", "invariants.signature.calls",
                    "algebra.subspace_product.calls", "iso.candidates",
                    "algebra.lower_central_series.calls_per_point",
                    "iso.lift.success_ratio"):
            self.assertEqual(runs[0][0][key], runs[1][0][key], key)
        self.assertEqual(runs[0][0]["iso.lift.success_ratio"], 1.0)
        self.assertEqual(runs[0][1], runs[1][1])

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        os.makedirs(os.path.join(bare, "perfbench"), exist_ok=True)
        for name in ("run.py", "workloads.py", "layers.py", "spans.py"):
            with open(os.path.join(HERE, name)) as src, \
                    open(os.path.join(bare, "perfbench", name), "w") as dst:
                dst.write(src.read())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "iso_dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
