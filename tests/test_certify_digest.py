"""One digest over `certify`'s verdicts on a small seeded corpus.

Each call adds its status, witness matrix, prime and detail, but not its
candidate count: how many candidates a verdict costs may change while the
verdicts stay.  The corpus holds pairs whose first witness lifts, capped
pairs, pairs whose first witness mod p does not lift (A_5(2) under
diag(7, 1, 1, 1, 1) mod 5 and under a shear with entry 100 mod 1009), an
EVIDENCE pair (A_131 under a seeded base change, with a prime that its
table does not reduce mod), two pairs of equal signatures that dim Der
tells apart (A_36 ~ A_37 and A_1 ~ A_3), and seeded base changes of
first points at primes 5, 13 and 29.
"""

import hashlib
import random

from leibkit.catalogue import instantiate, sample_params
from leibkit.iso import certify
from leibkit.linalg import Matrix, SingularMatrix

DIGEST = ("7f24f915347aa133c57ed75da7580b42"
          "b4241450b5f0215ed773a960ce8def6f")
CAP = 3000


def _point(catalogue, name, values=None):
    entry = catalogue.entry(name)
    return instantiate(entry, values or sample_params(entry, 1)[0])


def _moved(alg, rng):
    """alg under a seeded base change with entries in [-2, 2]."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]
        try:
            return alg.base_change(Matrix(rows))
        except SingularMatrix:
            continue


def _corpus(catalogue):
    a5 = _point(catalogue, "A_5", {"alpha": 2})
    diag = [[int(r == c) * (7 if r == 0 else 1) for c in range(5)]
            for r in range(5)]
    shear = [[int(r == c) for c in range(5)] for r in range(5)]
    shear[2][1] = 100
    yield ("A_5 ~ A_5(-2)", a5, _point(catalogue, "A_5", {"alpha": -2}),
           (13, 29))
    yield ("A_116 ~ A_116(-2)", _point(catalogue, "A_116", {"alpha": 2}),
           _point(catalogue, "A_116", {"alpha": -2}), (13, 29))
    yield ("A_36 ~ A_37", _point(catalogue, "A_36"),
           _point(catalogue, "A_37"), (13, 29))
    yield ("A_1 ~ A_3", _point(catalogue, "A_1"),
           _point(catalogue, "A_3"), (13, 29))
    for primes in ((5,), (5, 13)):
        yield "A_5 diag", a5.base_change(Matrix(diag)), a5, primes
    yield "A_5 shear", a5, a5.base_change(Matrix(shear)), (1009,)
    a131 = _point(catalogue, "A_131")
    yield "A_131 moved", a131, _moved(a131, random.Random(2)), (5, 13, 29)
    rng = random.Random(19)
    names = [entry.name for entry in catalogue]
    for name in rng.sample(names, 8):
        alg = _point(catalogue, name)
        yield name + " moved", alg, _moved(alg, rng), (5, 13, 29)


def _matrix_text(m):
    return None if m is None else [[str(x) for x in row] for row in m.rows]


def test_certify_digest(catalogue):
    lines = []
    for label, source, target, primes in _corpus(catalogue):
        cert = certify(source, target, primes=primes, cap=CAP)
        lines.append(repr((label, cert.status, _matrix_text(cert.matrix),
                           cert.prime, cert.detail)))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST, text
