"""Builders for the scheme families: cyclotomic, the non-abelian Frobenius
family, affine spaces, externally supplied affine planes, Passman, Hollman,
and regular (group) schemes.

Deterministic conventions, fixed so color matrices are bit-reproducible:

* GF(p^m) elements are indexed 0..p^m-1 by base-p digits, digit j being the
  coefficient of x^j; the modulus is the first monic irreducible of degree m
  in this numeric order, and the generator is the smallest primitive element.
* Vector-space points are indexed with coordinate 0 as the least significant
  base-q digit.
* Orbital constructions number abstract group elements in breadth-first
  order from the generators.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from . import cc_core, permgroup
from .errors import (
    ConstructionFailed,
    NotAGroup,
    NotAnAffinePlane,
    OrderDoesNotDivide,
    TooLarge,
)

POINT_CAP = 500


def _is_prime(p):
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def factor_prime_power(q):
    """(p, e) with q = p^e, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    return q, 1


def check_point_cap(n):
    """Raise TooLarge when a construction has more than POINT_CAP points."""
    if n > POINT_CAP:
        raise TooLarge(f"{n} points exceeds cap {POINT_CAP}")


class FiniteField:
    """GF(p^m) held as its tables, on element indices 0..q-1.

    ``add_table[a, b]``, ``neg_table[a]`` and ``mul_table[a, b]`` give a + b,
    -a and ab; ``exp_table[i]`` is the generator to the i-th power and
    ``log_table`` its inverse, with ``log_table[0] = -1``.  All are read-only
    int64 arrays.  A field of at most POINT_CAP elements is fully described
    by them (Lidl and Niederreiter, *Finite Fields*, 1997).
    """

    def __init__(self, p, m=1):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        # p and m are bounded before p ** m is formed
        if p > POINT_CAP or m > POINT_CAP or p ** m > POINT_CAP:
            raise TooLarge(f"GF({p}^{m}) exceeds cap {POINT_CAP}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.m = m
        self.q = q = p ** m
        powers = p ** np.arange(m)
        digits = np.arange(q)[:, None] // powers % p
        self.add_table = (digits[:, None, :] + digits[None, :, :]) % p @ powers
        self.neg_table = -digits % p @ powers
        self.modulus, self.mul_table = self._first_field(digits, powers)
        for g in range(1, q):
            # the powers of g, up to its order
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = int(self.mul_table[x, g])
            if len(exp) == q - 1:
                break
        self.generator = g
        self.exp_table = np.array(exp, dtype=np.int64)
        self.log_table = np.full(q, -1, dtype=np.int64)
        self.log_table[self.exp_table] = np.arange(q - 1)
        for table in (self.add_table, self.neg_table, self.mul_table,
                      self.exp_table, self.log_table):
            table.setflags(write=False)

    def _first_field(self, digits, powers):
        """The first monic f of degree m, in numeric order of its lower
        coefficients, for which GF(p)[x]/(f) has no zero divisors, and that
        ring's multiplication table.  A finite ring without zero divisors
        is a field, so f is the first irreducible; for m = 1 it is x.

        A reducible f has a monic factor g of degree at most m/2, a zero
        divisor below p^(m//2 + 1), so each candidate is screened on those
        rows of its table before the whole table is built."""
        p, m, q = self.p, self.m, self.q
        add = self.add_table
        # scalar[c, a] = ca for c in GF(p)
        scalar = np.arange(p)[:, None, None] * digits % p @ powers
        candidates = range(q)
        if m > 1:   # an f with a root in GF(p) has a linear factor
            coeffs = np.hstack([digits, np.ones((q, 1), dtype=np.int64)])
            values = coeffs @ (np.arange(p)[:, None] ** np.arange(m + 1)).T % p
            candidates = np.flatnonzero(values.all(axis=1))
        b = np.arange(q)
        top = p ** (m - 1)

        def products(code, rows):
            """Rows 0..rows-1 of the multiplication table mod the candidate."""
            # xb: the digits of b shifted up, x^m reduced to
            # -(f_0 + f_1 x + ... + f_(m-1) x^(m-1))
            times_x = add[b % top * p, scalar[-(b // top) % p, code]]
            mul = scalar[digits[:rows, 0]]
            xb = b
            for j in range(1, m):   # ab = sum_j a_j (x^j b)
                xb = times_x[xb]
                mul = add[mul, scalar[digits[:rows, j, None], xb]]
            return mul

        screen = min(q, p ** (m // 2 + 1))
        for code in candidates:
            if products(code, screen)[1:, 1:].all():
                mul = products(code, q)
                if mul[1:, 1:].all():
                    return tuple(int(c) for c in digits[code]) + (1,), mul
        raise ConstructionFailed("no irreducible polynomial found")  # pragma: no cover

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        return int(self.add_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def sub(self, a, b):
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.exp_table[-self.log_table[a] % (self.q - 1)])

    def pow(self, a, e):
        if a == 0:
            return 1 if e == 0 else 0
        return int(self.exp_table[self.log_table[a] * e % (self.q - 1)])

    def log(self, a):
        if a == 0:
            raise ZeroDivisionError("log of 0")
        return int(self.log_table[a])

    def element_order(self, a):
        if a == 0:
            raise ZeroDivisionError("order of 0")
        return (self.q - 1) // math.gcd(self.q - 1, self.log(a))

    def subgroup(self, order):
        """The unique multiplicative subgroup of the given order."""
        if order < 1 or (self.q - 1) % order:
            raise OrderDoesNotDivide(
                f"{order} does not divide {self.q - 1}")
        step = (self.q - 1) // order
        return tuple(sorted(int(x) for x in self.exp_table[::step]))

    def coset_index(self, a, subgroup_order):
        """Index of aK in F*/K for the subgroup K of the given order."""
        return self.log(a) % ((self.q - 1) // subgroup_order)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


def cyclotomic_scheme(field, subgroup_order):
    """cyc(K, GF(q)): color of (x, y) is the coset of y - x modulo the
    multiplicative subgroup K of the given order, with a separate diagonal
    color.  Equals the orbital scheme of the group x -> kx + t."""
    q = field.q
    if subgroup_order < 1 or (q - 1) % subgroup_order:
        raise OrderDoesNotDivide(f"{subgroup_order} does not divide {q - 1}")
    ncos = (q - 1) // subgroup_order
    diff = field.add_table[field.neg_table]   # diff[x, y] = y - x
    colors = 1 + field.log_table[diff] % ncos
    np.fill_diagonal(colors, 0)
    return cc_core.validate_config(colors)


def frobenius_example_group(q, n):
    """The Frobenius group G = H<sigma> of the non-abelian family, acting on
    the unitriangular group H = {A(a, b)} over GF(q^n); sigma maps A(a, b)
    to A(ca, c^(1+q)b).

    Point A(a, b) has index a*q^n + b.  The multiplier c is g^(q-1) for the
    canonical generator g, the smallest power with order (q^n - 1)/(q - 1).
    """
    if n <= 1 or n % 2 == 0:
        raise ValueError("n must be an odd integer > 1")
    big = q ** n
    degree = big * big
    check_point_cap(degree)
    p, e = factor_prime_power(q)
    field = FiniteField(p, e * n)
    add, mul = field.add_table, field.mul_table

    def perm(a_images, b_images):
        # A(a, b) -> A(a_images[a], b_images[a, b]), as a permutation of points
        return tuple((a_images[:, None] * big + b_images).ravel().tolist())

    def h_perm(a2, b2):
        # right multiplication: A(a,b) A(a2,b2) = A(a+a2, b+b2+a*a2^q)
        shift = add[b2, mul[:, field.pow(a2, q)]]
        return perm(add[:, a2], add[shift])

    gens = []
    for j in range(field.m):
        t = int(p ** j)
        gens.append(h_perm(t, 0))
        gens.append(h_perm(0, t))
    c = field.pow(field.generator, q - 1)
    c2 = field.mul(c, field.pow(c, q))
    gens.append(perm(mul[c], mul[c2]))
    G = permgroup.group_closure(gens)
    expected = degree * (big - 1) // (q - 1)
    if G.order != expected:
        raise ConstructionFailed(
            f"group order {G.order}, expected {expected}")
    return G


def frobenius_example_scheme(q, n):
    """Orbital scheme of the non-abelian Frobenius family: degree q^(2n),
    rank q^(n+1) - q^n + q, valency (q^n - 1)/(q - 1)."""
    return permgroup.orbital_scheme(frobenius_example_group(q, n))


def affine_scheme(dim, q):
    """Scheme of AG(dim, q): pairs are colored by the projective direction
    of beta - alpha.  Rank 1 + (q^dim - 1)/(q - 1), valency q - 1."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    check_point_cap(q ** dim)
    field = FiniteField(*factor_prime_power(q))
    place = q ** np.arange(dim)
    coords = np.arange(q ** dim)[:, None] // place % q
    # delta[a, b] = beta - alpha; its direction is delta scaled to lead with 1
    delta = field.add_table[field.neg_table[coords][:, None], coords[None, :]]
    lead = np.take_along_axis(delta, (delta != 0).argmax(axis=2)[..., None], 2)
    # inverse[0] is arbitrary: a zero lead means a zero delta
    inverse = field.exp_table[-field.log_table % (q - 1)]
    direction = field.mul_table[inverse[lead], delta] @ place
    # the zero direction is the diagonal, cell (0, 0) first: color 0
    return cc_core.validate_config(cc_core.canonicalize_colors(direction))


def affine_plane_from_lines(n_points, lines):
    """Scheme of an affine plane supplied as explicit lines of point ids.

    Validates the plane axioms first (line size q on q^2 points, two points
    on exactly one line, parallelism an equivalence with q + 1 classes of q
    mutually disjoint lines covering the points)."""
    check_point_cap(n_points)
    q = math.isqrt(n_points)
    if q < 2 or q * q != n_points:
        raise NotAnAffinePlane(f"{n_points} points is not q^2 for q >= 2")
    lines = [tuple(sorted(line)) for line in lines]
    for line in lines:
        if len(set(line)) != q:
            raise NotAnAffinePlane(
                f"line {line} has {len(set(line))} distinct points, expected {q}")
        if any(x < 0 or x >= n_points for x in line):
            raise NotAnAffinePlane(f"line {line} has out-of-range points")
    if len(lines) != q * (q + 1):
        raise NotAnAffinePlane(
            f"{len(lines)} lines supplied, an order-{q} plane has {q * (q + 1)}")
    coverage = Counter()
    for line in lines:
        for i in range(q):
            for j in range(i + 1, q):
                coverage[(line[i], line[j])] += 1
    expected_pairs = n_points * (n_points - 1) // 2
    if len(coverage) != expected_pairs or any(c != 1 for c in coverage.values()):
        raise NotAnAffinePlane("some point pair is not on exactly one line")
    degree = Counter()
    for line in lines:
        for x in line:
            degree[x] += 1
    if any(degree[x] != q + 1 for x in range(n_points)):
        raise NotAnAffinePlane("some point is not on exactly q + 1 lines")

    class_of: dict = {}
    classes = []
    for i, line in enumerate(lines):
        if i in class_of:
            continue
        members = [i] + [j for j in range(len(lines)) if j != i
                         and j not in class_of
                         and not set(lines[j]) & set(line)]
        covered = Counter()
        for j in members:
            for x in lines[j]:
                covered[x] += 1
        if len(members) != q or any(covered[x] != 1 for x in range(n_points)):
            raise NotAnAffinePlane("parallelism is not an equivalence relation")
        cid = len(classes)
        classes.append(members)
        for j in members:
            class_of[j] = cid
    if len(classes) != q + 1:
        raise NotAnAffinePlane(f"{len(classes)} parallel classes, expected {q + 1}")

    colors = np.zeros((n_points, n_points), dtype=np.int64)
    line_through: dict = {}
    for i, line in enumerate(lines):
        for a in line:
            for b in line:
                if a != b:
                    line_through[(a, b)] = i
    for (a, b), i in line_through.items():
        colors[a, b] = 1 + class_of[i]
    return cc_core.validate_config(colors)


def passman_scheme(q):
    """Orbital scheme of the Passman group on GF(q)^2 (q odd): maps
    (x, y) -> (ax + b, ±a^{-1}y + c) and (x, y) -> (ay + b, ±a^{-1}x + c).
    Degree q^2, valency 2(q - 1)."""
    check_point_cap(q * q)
    p, e = factor_prime_power(q)
    if p == 2:
        raise ValueError("q must be odd")
    field = FiniteField(p, e)
    add, mul = field.add_table, field.mul_table
    x, y = np.arange(q)[:, None], np.arange(q)[None, :]

    def make(x_images, y_images):
        # (x, y) -> (x_images, y_images), one of them a column, one a row
        return tuple((x_images * q + y_images).ravel().tolist())

    g = field.generator
    gens = []
    for j in range(e):
        t = int(p ** j)
        gens.append(make(add[x, t], y))
        gens.append(make(x, add[y, t]))
    gens.append(make(mul[g, x], mul[field.inv(g), y]))
    gens.append(make(x, field.neg_table[y]))
    gens.append(make(y, x))
    G = permgroup.group_closure(gens)
    return permgroup.orbital_scheme(G)


def _mat_mul(tables, A, B):
    add, mul = tables
    a, b, c, d = A
    e, f, g, h = B
    return (add[mul[a][e]][mul[b][g]],
            add[mul[a][f]][mul[b][h]],
            add[mul[c][e]][mul[d][g]],
            add[mul[c][f]][mul[d][h]])


def hollman_scheme(q):
    """Orbital scheme of PSL(2, q) (q even) acting by conjugation on its
    cyclic subgroups of order q + 1.  Degree (q^2 - q)/2, valency q + 1.
    Desk cap: q in {8, 16}."""
    if q <= 4 or q & (q - 1):
        raise ValueError("q must be a power of 2 greater than 4")
    if q not in (8, 16):
        raise TooLarge("desk cap allows q in {8, 16}")
    e = q.bit_length() - 1
    F = FiniteField(2, e)
    # nested lists, so a 2 x 2 matrix product is eight lookups with no call
    tables = F.add_table.tolist(), F.mul_table.tolist()
    one = 1
    ident = (one, 0, 0, one)

    sl_gens = []
    for j in range(e):
        t = int(2 ** j)
        sl_gens.append((one, t, 0, one))
        sl_gens.append((one, 0, t, one))

    index_of = {ident: 0}
    elements = [ident]
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for g in sl_gens:
            y = _mat_mul(tables, x, g)
            if y not in index_of:
                index_of[y] = len(elements)
                elements.append(y)
                queue.append(y)
    if len(elements) != q * (q * q - 1):
        raise ConstructionFailed(
            f"|SL(2,{q})| came out as {len(elements)}")

    def mat_order(A):
        k = 1
        X = A
        while X != ident:
            X = _mat_mul(tables, X, A)
            k += 1
        return k

    subgroups = set()
    for A in elements:
        if mat_order(A) == q + 1:
            powers = [ident]
            X = A
            while X != ident:
                powers.append(X)
                X = _mat_mul(tables, X, A)
            subgroups.add(frozenset(index_of[P] for P in powers))
    omega = sorted(subgroups, key=lambda U: tuple(sorted(U)))
    if len(omega) != (q * q - q) // 2:
        raise ConstructionFailed(
            f"{len(omega)} cyclic subgroups of order {q + 1}, "
            f"expected {(q * q - q) // 2}")
    omega_index = {U: i for i, U in enumerate(omega)}

    perms = []
    for g in sl_gens:
        a, b, c, d = g
        ginv = (d, b, c, a)  # characteristic 2, det 1
        images = []
        for U in omega:
            V = frozenset(
                index_of[_mat_mul(tables, _mat_mul(tables, ginv, elements[u]), g)]
                for u in U)
            images.append(omega_index[V])
        perms.append(tuple(images))
    G = permgroup.group_closure(perms)
    return permgroup.orbital_scheme(G)


def regular_scheme(cayley_table):
    """Scheme of the right regular action of a group given by its Cayley
    table T[i][j] = i*j: the color of (x, y) is y * x^{-1}."""
    T = np.array(cayley_table, dtype=np.int64)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise NotAGroup("Cayley table must be square")
    m = T.shape[0]
    check_point_cap(m)
    if T.min() < 0 or T.max() >= m:
        raise NotAGroup("table entries out of range")
    ident = np.arange(m)
    for i in range(m):
        if np.bincount(T[i], minlength=m).max() != 1 \
                or np.bincount(T[:, i], minlength=m).max() != 1:
            raise NotAGroup("table is not a Latin square")
    e_candidates = [i for i in range(m) if np.array_equal(T[i], ident)]
    if len(e_candidates) != 1 or not np.array_equal(T[:, e_candidates[0]], ident):
        raise NotAGroup("no two-sided identity element")
    e = e_candidates[0]
    # one (m, m) slice per a, never an (m, m, m) array:
    # T[T[a]][b, c] = (ab)c and T[a][T][b, c] = a(bc)
    if any(not np.array_equal(T[T[a]], T[a][T]) for a in range(m)):
        raise NotAGroup("multiplication is not associative")
    inv = np.argmax(T == e, axis=1)
    colors = T[:, inv].T  # colors[x, y] = T[y, inv[x]] = y * x^{-1}
    return cc_core.validate_config(colors)


def cyclic_group_table(m):
    """Cayley table of Z_m (helper for regular schemes)."""
    idx = np.arange(m)
    return (idx[:, None] + idx[None, :]) % m
