"""Find and certify an isomorphism between two members of a parametric family.

The search runs over a prime field with i adjoined as a residue.  It
enumerates the generators' classes modulo A^2 and solves each deeper layer
of the lower central series as an affine system, and any hit is lifted back
to exact Gaussian rationals and re-verified symbolically.
"""

from leibkit.catalogue import instantiate, parse_catalogue
from leibkit.invariants import signature
from leibkit.iso import adapted_search, certify, lift_witness, verify_witness


def main():
    cat = parse_catalogue()
    entry = cat.entry("A_116")
    left = instantiate(entry, {"alpha": 2})
    right = instantiate(entry, {"alpha": -2})

    print("A_116 at alpha=2 versus alpha=-2")
    diff = signature(left).diff(signature(right))
    print(f"signature fields that differ: {diff or 'none'}")

    search = adapted_search(left, right, prime=13, cap=1_000_000)
    print(f"mod 13 search: status={search.status} "
          f"after {search.candidates} candidates, {len(search.matrices)} hit(s)")

    rows = search.matrices[0]
    lifted = lift_witness(rows, 13)
    print("lifted witness:")
    for r in range(5):
        print("  " + "  ".join(str(lifted[r, c]) for c in range(5)))

    problem = verify_witness(left, right, lifted)
    print(f"exact verification: {problem or 'witness checks out'}")

    cert = certify(left, right)
    print(f"\ncertify() says: {cert.status} ({cert.detail})")

    # a pair the signature alone separates, no search needed
    other = instantiate(cat.entry("A_16"))
    cert = certify(instantiate(cat.entry("A_1")), other)
    print(f"A_1 versus A_16: {cert.status} ({cert.detail})")


if __name__ == "__main__":
    main()
