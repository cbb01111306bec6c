"""Write generator files for ``schemelab construct group-orbitals``.

A generator file holds one permutation of 0..N-1 per line, in image
notation.  Three families:

- ``agl1 P``: the affine group AGL(1, P) of a prime P, generated by the
  translation x -> x + 1 and the scaling x -> g x by the least primitive
  root g mod P.  It is sharply 2-transitive, so its orbital scheme has
  rank 2.
- ``cyclic N``: the cyclic group Z_N, generated by x -> x + 1.  It is
  regular, so its orbital scheme has rank N.
- ``wreath B M``: the wreath product Sym(B) wr Sym(M), B, M >= 2, on the
  B*M points x, in blocks x // B of B points, generated by a transposition
  and a B-cycle inside block 0 and by a transposition and an M-cycle of
  whole blocks, with repeats dropped.  Its orbital scheme has rank 3
  ("equal", "same block", "other block"), valencies 1, B - 1 and
  B (M - 1), and its base has (B - 1) M points or more.

Usage: python make_group_generators.py agl1 499 > agl1_499.txt
       python make_group_generators.py cyclic 499 > cyclic_499.txt
       python make_group_generators.py wreath 2 100 > wreath_2_100.txt
"""

import sys


def prime_factors(m):
    out, d = set(), 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def primitive_root(p):
    """The least g whose powers mod the prime p are every unit."""
    factors = prime_factors(p - 1)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // f, p) != 1 for f in factors))


def agl1(p):
    g = primitive_root(p)
    return [[(x + 1) % p for x in range(p)], [g * x % p for x in range(p)]]


def cyclic(n):
    return [[(x + 1) % n for x in range(n)]]


def wreath(b, m):
    def swap(k):
        return [1, 0] + list(range(2, k))

    def shift(k):
        return [(i + 1) % k for i in range(k)]

    def inside(p):      # p on the points of block 0
        return p + list(range(b, b * m))

    def blocks(p):      # p on the blocks
        return [p[x // b] * b + x % b for x in range(b * m)]

    gens = []
    for g in (inside(swap(b)), inside(shift(b)), blocks(swap(m)), blocks(shift(m))):
        if g not in gens:
            gens.append(g)
    return gens


FAMILIES = {"agl1": agl1, "cyclic": cyclic, "wreath": wreath}


def generator_text(family, *sizes):
    """The generator file of ``family`` at ``sizes``, one line per generator."""
    return "".join(" ".join(map(str, g)) + "\n" for g in FAMILIES[family](*sizes))


if __name__ == "__main__":
    sys.stdout.write(generator_text(sys.argv[1], *map(int, sys.argv[2:])))
