"""One digest over the layered search on every entry's first point.

For each entry a, at its first sample point, the search runs on the pair
(a, a) and on (a, next), where next is the following entry, the last
entry wrapping round to the first; prime 13, cap 200.  Each search adds
its status, candidate count, witness matrices and per-level counters, or
the type and text of the exception it raised.  A change to the order in
which candidates are tried, to any level's systems or checks, or to a
counter moves the digest.  Every search of each digest must also leave
the leaf's re-check of complete maps idle (`assert_leaf_agrees`).
"""

import hashlib
import random
import sys

from leibkit import iso
from leibkit.catalogue import instantiate, sample_params
from leibkit.iso import adapted_search
from leibkit.linalg import Matrix

DIGEST = "71f11055937c6048cbbdb074df85a827c4f29a87fbd6eae6c119d074374f89c3"


def search_line(source, target, prime=13, cap=200, enough=bool):
    try:
        res = adapted_search(source, target, prime=prime, cap=cap,
                             enough=enough)
    except Exception as ex:  # noqa: BLE001 -- the exception is the outcome
        return "%s: %s" % (type(ex).__name__, ex)
    assert_leaf_agrees(res)
    return repr((res.status, res.candidates, res.matrices, res.levels))


def assert_leaf_agrees(res):
    """A map that passes the layered checks is an isomorphism mod p.  The
    checks cover the L_t part of every relation, and independent classes
    generate the target, so the leaf's re-check, kept for EVIDENCE, never
    finds a singular map, nor a broken product after a last layer."""
    assert not any(level.rank for level in res.levels), res.levels
    if res.levels and res.levels[-1].level.startswith("layer"):
        assert res.levels[-1].relations == 0, res.levels


def test_search_digest(catalogue):
    entries = list(catalogue)
    algs = [instantiate(e, sample_params(e, 1)[0]) for e in entries]
    lines = []
    for k, entry in enumerate(entries):
        nxt = (k + 1) % len(entries)
        for other in (k, nxt):
            lines.append("%s %s %s" % (entry.name, entries[other].name,
                                       search_line(algs[k], algs[other])))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST, text


# The eight `iso_dense` pairs at primes 13 and 29 and cap 20,000, then
# ten seeded base changes of first points at prime 13 keeping up to three
# witnesses: searches long enough to reach the later class levels and the
# deepest affine layers, which the cap of 200 above stops short of.
DEEP_DIGEST = ("ba6d05996930586bec617dbf22e60adc"
               "04e7a6590f3aa2810d533b0f30e2f4e6")
DEEP_PAIRS = (("A_5", {"alpha": 2}, "A_5", {"alpha": -2}),
              ("A_116", {"alpha": 2}, "A_116", {"alpha": -2}),
              ("A_5", {"alpha": 3}, "A_5", {"alpha": -3}),
              ("A_116", {"alpha": 3}, "A_116", {"alpha": -3}),
              ("A_36", None, "A_37", None), ("A_38", None, "A_39", None),
              ("A_44", None, "A_45", None), ("A_136", None, "A_137", None))


def _point(catalogue, name, values):
    entry = catalogue.entry(name)
    return instantiate(entry, values or sample_params(entry, 1)[0])


def test_deep_search_digest(catalogue):
    lines = []
    for a, va, b, vb in DEEP_PAIRS:
        source = _point(catalogue, a, va)
        target = _point(catalogue, b, vb)
        for prime in (13, 29):
            line = search_line(source, target, prime=prime, cap=20_000)
            lines.append("%s %s %s %s %d %s" % (a, va, b, vb, prime, line))
    rng = random.Random(17)
    names = [entry.name for entry in catalogue]
    for name in rng.sample(names, 10):
        rows = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
        alg = _point(catalogue, name, None)
        lines.append("%s %s" % (name, search_line(
            alg, alg.base_change(Matrix(rows)), prime=13, cap=20_000,
            enough=lambda found: len(found) >= 3)))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_DIGEST, text


# Four first points under one seeded base change, whose searches build
# many distinct nonzero layer systems, at prime 13 and cap 20,000, keeping
# up to three witnesses.  The searches above build almost none (the
# A_5 ones only all-zero systems, A_143's base change one nonzero system),
# so a layer system that ignores the classes passes them; here it moves
# the digest.
LAYER_DIGEST = ("9544ea3cc8bee7472e0b0debb7bcdc96"
                "f257c48166dd20e8985df15b4c34d457")
LAYERED = ("A_69", "A_72", "A_107", "A_117")
# the (u, rows) of each layer system those searches solve, in order
SYSTEM_DIGEST = ("00e9f947f8e7cb056f61d29baa007804"
                 "dfb0da6a543617338eb2560e2c7361f3")


def test_layer_system_digest(catalogue, monkeypatch):
    built = []
    matrices = []   # (u, rows) of every layer system, over all searches
    prepare = iso._prepare

    def record(rows, u, field):
        # only the matrices that `system` hands over, the layer systems,
        # are kept
        if sys._getframe(1).f_code.co_name == "system":
            built.append(tuple(map(tuple, rows)))
            matrices.append((u, built[-1]))
        return prepare(rows, u, field)

    monkeypatch.setattr(iso, "_prepare", record)
    rng = random.Random(0)
    change = Matrix([[rng.randint(-2, 2) for _ in range(5)]
                     for _ in range(5)])
    lines = []
    for name in LAYERED:
        alg = _point(catalogue, name, None)
        built.clear()
        lines.append("%s %s" % (name, search_line(
            alg, alg.base_change(change), prime=13, cap=20_000,
            enough=lambda found: len(found) >= 3)))
        nonzero = {m for m in built if any(map(any, m))}
        assert len(nonzero) >= 2, (name, len(nonzero))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == LAYER_DIGEST, text
    # the system matrices themselves, in the order `_prepare` gets them
    assert len(matrices) == 68, len(matrices)
    text = "".join("%r\n" % (system,) for system in matrices)
    assert hashlib.sha256(text.encode()).hexdigest() == SYSTEM_DIGEST, text
