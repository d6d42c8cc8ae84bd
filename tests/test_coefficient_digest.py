"""One digest over every coefficient value the shipped data produces.

`report` hashes only dimensions and verdicts, so this pins the values
themselves: every nonzero structure constant of each entry at its first
three sample points, and every fixture's two tables and witness matrix.
A change to the expression reader, the sampler or the data moves it.
"""

import hashlib

from leibkit.catalogue import instantiate, sample_params
from leibkit.exprs import format_scalar

DIGEST = "faaf55970f0c24a75422d9d0d0601aadbd3e8b012d3c81b4ca2c71b59de38a0e"


def table_lines(label, algebra):
    return ["%s [%d,%d] %d %s" % (label, i + 1, j + 1, k + 1,
                                  format_scalar(value))
            for (i, j), row in algebra.table.items()
            for k, value in row.items()]


def coefficient_lines(catalogue, fixtures):
    lines = []
    for entry in catalogue:
        for point in sample_params(entry, 3):
            where = ",".join("%s=%s" % (p, format_scalar(v))
                             for p, v in sorted(point.items())) or "-"
            lines += table_lines("%s %s" % (entry.name, where),
                                 instantiate(entry, point))
    for fixture in fixtures:
        src, tgt, matrix = fixture.realize(catalogue)
        lines += table_lines("%s source" % fixture.label, src)
        lines += table_lines("%s target" % fixture.label, tgt)
        lines += ["%s matrix %d %s" % (fixture.label, r + 1,
                                       " ".join(map(format_scalar, row)))
                  for r, row in enumerate(matrix.rows)]
    return sorted(lines)


def test_coefficient_digest(catalogue, witness_fixtures):
    text = "\n".join(coefficient_lines(catalogue, witness_fixtures)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
