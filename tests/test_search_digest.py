"""One digest over the layered search on every entry's first point.

For each entry a, at its first sample point, the search runs on the pair
(a, a) and on (a, next), where next is the following entry, the last
entry wrapping round to the first; prime 13, cap 200.  Each search adds
its status, candidate count, witness matrices and per-level counters, or
the type and text of the exception it raised.  A change to the order in
which candidates are tried, to any level's systems or checks, or to a
counter moves the digest.
"""

import hashlib

from leibkit.catalogue import instantiate, sample_params
from leibkit.iso import adapted_search

DIGEST = "71f11055937c6048cbbdb074df85a827c4f29a87fbd6eae6c119d074374f89c3"


def search_line(source, target):
    try:
        res = adapted_search(source, target, prime=13, cap=200)
    except Exception as ex:  # noqa: BLE001 -- the exception is the outcome
        return "%s: %s" % (type(ex).__name__, ex)
    return repr((res.status, res.candidates, res.matrices, res.levels))


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
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
