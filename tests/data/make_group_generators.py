"""Write generator files for ``schemelab construct group-orbitals``.

A generator file holds one permutation of 0..N-1 per line, in image
notation.  Two families:

- ``agl1 P``: the affine group AGL(1, P) of a prime P, generated by the
  translation x -> x + 1 and the scaling x -> g x by the least primitive
  root g mod P.  It is sharply 2-transitive, so its orbital scheme has
  rank 2.
- ``cyclic N``: the cyclic group Z_N, generated by x -> x + 1.  It is
  regular, so its orbital scheme has rank N.

Usage: python make_group_generators.py agl1 499 > agl1_499.txt
       python make_group_generators.py cyclic 499 > cyclic_499.txt
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


FAMILIES = {"agl1": agl1, "cyclic": cyclic}


def generator_text(family, size):
    """The generator file of ``family`` at ``size``, one line per generator."""
    return "".join(" ".join(map(str, g)) + "\n" for g in FAMILIES[family](size))


if __name__ == "__main__":
    sys.stdout.write(generator_text(sys.argv[1], int(sys.argv[2])))
