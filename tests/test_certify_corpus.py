"""A seeded subset of the certify corpus, pinned pair by pair.

The corpus pairs each entry's first sample point A, in catalogue order,
with B = A.base_change(Q): Q is a 5x5 matrix of `randint(-1, 1)` entries
drawn from one `random.Random(1)`, redrawn whole while it is singular,
and `certify(A, B, cap=20000)` runs at the default primes.  Every entry
draws its Q, so the subset sees the same pairs as the whole corpus.

The pinned entries cover m = dim A/A^2 from 1 to 4 and every status at
m = 2 and m = 3, A_135 (CERTIFIED after 2,226 candidates) and A_126
(EVIDENCE after 176) among them.  Statuses and primes are pinned, not
candidate counts; a change that moves one names the pair here.
"""

import random

from leibkit.catalogue import instantiate, sample_params
from leibkit.iso import CERTIFIED, EVIDENCE, INCONCLUSIVE, certify
from leibkit.linalg import Matrix

PINNED = {
    "A_1": (CERTIFIED, 29), "A_5": (CERTIFIED, 13),
    "A_16": (CERTIFIED, 29), "A_116": (CERTIFIED, 29),
    "A_135": (CERTIFIED, 13), "A_208": (CERTIFIED, 13),
    "A_240": (CERTIFIED, 13),
    "A_48": (EVIDENCE, 29), "A_126": (EVIDENCE, 29),
    "A_204": (EVIDENCE, 29),
    "A_17": (INCONCLUSIVE, 0), "A_40": (INCONCLUSIVE, 0),
    "A_86": (INCONCLUSIVE, 0), "A_161": (INCONCLUSIVE, 0),
}


def base_changes(catalogue):
    """(entry, Q) for each entry in catalogue order, by the recipe."""
    rng = random.Random(1)
    for entry in catalogue:
        while True:
            q = Matrix([[rng.randint(-1, 1) for _ in range(5)]
                        for _ in range(5)])
            if q.rref()[1] == 5:
                yield entry, q
                break


def test_certify_corpus_subset(catalogue):
    got, shapes = {}, set()
    for entry, q in base_changes(catalogue):
        if entry.name in PINNED:
            a = instantiate(entry, sample_params(entry, 1)[0])
            cert = certify(a, a.base_change(q), cap=20000)
            got[entry.name] = (cert.status, cert.prime)
            shapes.add((5 - a.lower_central_term(2).dim, cert.status))
    assert got == PINNED
    assert {m for m, _ in shapes} == {1, 2, 3, 4}
    for m in (2, 3):
        assert {s for k, s in shapes if k == m} == {
            CERTIFIED, EVIDENCE, INCONCLUSIVE}
