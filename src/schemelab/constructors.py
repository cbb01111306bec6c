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


def _prime_factors(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# Polynomials over GF(p) as coefficient lists, low degree first.

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, mod, p)


def _poly_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        if a[i]:
            f = a[i] * inv_lead % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    del a[dm:]
    return _poly_trim(a)


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_rem(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        mod = [c * inv_lead % p for c in b]
        a, b = b, _poly_rem(a, mod, p)
    return a


def _is_irreducible(f, p, m):
    """No roots; for m >= 4 additionally gcd tests against x^(p^d) - x for
    proper divisors d >= 2; always the final x^(p^m) = x check for m >= 2."""
    if m == 1:
        return True
    for x in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    x_poly = [0, 1]
    for d in range(2, m):
        if m % d == 0:
            xp = _poly_powmod(x_poly, p ** d, f, p)
            g = _poly_gcd([(a - b) % p for a, b in
                           zip(xp + [0, 0], x_poly + [0] * len(xp))], f, p)
            if len(g) > 1:
                return False
    xp = _poly_powmod(x_poly, p ** m, f, p)
    diff = [(a - b) % p for a, b in zip(xp + [0, 0], x_poly + [0] * len(xp))]
    return not _poly_trim(diff)


class FiniteField:
    """GF(p^m) with integer element indices and table-based arithmetic."""

    def __init__(self, p, m=1):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = self._smallest_irreducible()
        self._digits = self._digit_matrix()
        self._powers = np.array([p ** j for j in range(m)], dtype=np.int64)
        self._add_table = self._build_add_table()
        self._neg = self._encode((self.p - self._digits) % self.p)
        self.generator = self._find_generator()
        self._exp, self._log = self._build_exp_log()

    # -- construction helpers -------------------------------------------

    def _smallest_irreducible(self):
        if self.m == 1:
            return (0, 1)
        for code in range(self.q):
            coeffs = []
            c = code
            for _ in range(self.m):
                coeffs.append(c % self.p)
                c //= self.p
            f = coeffs + [1]
            if _is_irreducible(f, self.p, self.m):
                return tuple(f)
        raise ConstructionFailed("no irreducible polynomial found")  # pragma: no cover

    def _digit_matrix(self):
        vals = np.arange(self.q, dtype=np.int64)
        digits = np.empty((self.q, self.m), dtype=np.int64)
        for j in range(self.m):
            digits[:, j] = vals % self.p
            vals //= self.p
        return digits

    def _encode(self, digits):
        return digits @ self._powers

    def _build_add_table(self):
        d = self._digits
        return self._encode((d[:, None, :] + d[None, :, :]) % self.p)

    def _raw_mul(self, a, b):
        pa = _poly_trim(list(self._digits[a]))
        pb = _poly_trim(list(self._digits[b]))
        prod = _poly_mulmod(pa, pb, list(self.modulus), self.p)
        return int(sum(c * self.p ** j for j, c in enumerate(prod)))

    def _raw_pow(self, a, e):
        result = 1
        while e:
            if e & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return result

    def _find_generator(self):
        if self.q == 2:
            return 1
        factors = _prime_factors(self.q - 1)
        for a in range(2, self.q):
            if all(self._raw_pow(a, (self.q - 1) // f) != 1 for f in factors):
                return a
        raise ConstructionFailed("no field generator found")  # pragma: no cover

    def _build_exp_log(self):
        exp = np.empty(self.q - 1, dtype=np.int64)
        log = np.full(self.q, -1, dtype=np.int64)
        x = 1
        for i in range(self.q - 1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, self.generator)
        if x != 1:
            raise ConstructionFailed("generator order mismatch")  # pragma: no cover
        return exp, log

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        return int(self._add_table[a, b])

    def neg(self, a):
        return int(self._neg[a])

    def sub(self, a, b):
        return int(self._add_table[a, self._neg[b]])

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    def pow(self, a, e):
        if a == 0:
            return 1 if e == 0 else 0
        return int(self._exp[(self._log[a] * e) % (self.q - 1)])

    def log(self, a):
        if a == 0:
            raise ZeroDivisionError("log of 0")
        return int(self._log[a])

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
        return tuple(sorted(int(self._exp[(i * step) % (self.q - 1)])
                            for i in range(order)))

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
    idx = np.arange(q)
    diff = field._add_table[field._neg[idx][:, None], idx[None, :]]
    logs = field._log[diff]
    colors = 1 + (logs % ncos)
    np.fill_diagonal(colors, 0)
    return cc_core.validate_config(colors)


def frobenius_example_group(q, n):
    """The Frobenius group G = H<sigma> of the non-abelian family, acting on
    the unitriangular group H = {A(a, b)} over GF(q^n); sigma maps A(a, b)
    to A(ca, c^(1+q)b).

    Point A(a, b) has index a*q^n + b.  The multiplier c is g^(q-1) for the
    canonical generator g, the smallest power with order (q^n - 1)/(q - 1).
    """
    p, e = factor_prime_power(q)
    if n <= 1 or n % 2 == 0:
        raise ValueError("n must be an odd integer > 1")
    big = q ** n
    degree = big * big
    if degree > POINT_CAP:
        raise TooLarge(f"degree {degree} exceeds cap {POINT_CAP}")
    field = FiniteField(p, e * n)

    def point(a, b):
        return a * big + b

    def h_perm(a2, b2):
        # right multiplication: A(a,b) A(a2,b2) = A(a+a2, b+b2+a*a2^q)
        a2q = field.pow(a2, q)
        images = []
        for a in range(big):
            aa = field.add(a, a2)
            shift = field.add(b2, field.mul(a, a2q))
            row = field._add_table[shift]
            base = point(aa, 0)
            images.extend(int(base + row[b]) for b in range(big))
        return tuple(images)

    gens = []
    for j in range(field.m):
        t = int(p ** j)
        gens.append(h_perm(t, 0))
        gens.append(h_perm(0, t))
    c = field.pow(field.generator, q - 1)
    c2 = field.mul(c, field.pow(c, q))
    sigma = tuple(point(field.mul(c, a), field.mul(c2, b))
                  for a in range(big) for b in range(big))
    gens.append(sigma)
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
    p, e = factor_prime_power(q)
    npoints = q ** dim
    if npoints > POINT_CAP:
        raise TooLarge(f"{npoints} points exceeds cap {POINT_CAP}")
    field = FiniteField(p, e)
    coords = np.empty((npoints, dim), dtype=np.int64)
    vals = np.arange(npoints)
    for j in range(dim):
        coords[:, j] = vals % q
        vals //= q
    colors = np.zeros((npoints, npoints), dtype=np.int64)
    direction_ids: dict = {}
    for a in range(npoints):
        for b in range(npoints):
            if a == b:
                continue
            delta = tuple(field.sub(int(coords[b, j]), int(coords[a, j]))
                          for j in range(dim))
            j0 = next(j for j, d in enumerate(delta) if d)
            scale = field.inv(delta[j0])
            rep = tuple(field.mul(scale, d) for d in delta)
            cid = direction_ids.setdefault(rep, len(direction_ids) + 1)
            colors[a, b] = cid
    return cc_core.validate_config(colors)


def affine_plane_from_lines(n_points, lines):
    """Scheme of an affine plane supplied as explicit lines of point ids.

    Validates the plane axioms first (line size q on q^2 points, two points
    on exactly one line, parallelism an equivalence with q + 1 classes of q
    mutually disjoint lines covering the points)."""
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
    p, e = factor_prime_power(q)
    if p == 2:
        raise ValueError("q must be odd")
    if q * q > POINT_CAP:
        raise TooLarge(f"degree {q * q} exceeds cap {POINT_CAP}")
    field = FiniteField(p, e)

    def pt(x, y):
        return x * q + y

    def make(fn):
        return tuple(fn(x, y) for x in range(q) for y in range(q))

    g = field.generator
    ginv = field.inv(g)
    gens = []
    for j in range(field.m):
        t = int(p ** j)
        gens.append(make(lambda x, y, t=t: pt(field.add(x, t), y)))
        gens.append(make(lambda x, y, t=t: pt(x, field.add(y, t))))
    gens.append(make(lambda x, y: pt(field.mul(g, x), field.mul(ginv, y))))
    gens.append(make(lambda x, y: pt(x, field.neg(y))))
    gens.append(make(lambda x, y: pt(y, x)))
    G = permgroup.group_closure(gens)
    return permgroup.orbital_scheme(G)


def _field_tables(F):
    """The q x q addition and multiplication tables of a field, as nested
    lists, so a 2 x 2 matrix product is eight lookups with no call."""
    nonzero = F._log[1:]
    mul = np.zeros((F.q, F.q), dtype=np.int64)
    mul[1:, 1:] = F._exp[(nonzero[:, None] + nonzero[None, :]) % (F.q - 1)]
    return F._add_table.tolist(), mul.tolist()


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
    p, e = factor_prime_power(q)
    if p != 2 or q <= 4:
        raise ValueError("q must be a power of 2 greater than 4")
    if q not in (8, 16):
        raise TooLarge("desk cap allows q in {8, 16}")
    tables = _field_tables(FiniteField(2, e))
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
    if not np.array_equal(T[T, :], T[:, T]):
        raise NotAGroup("multiplication is not associative")
    inv = np.argmax(T == e, axis=1)
    colors = T[:, inv].T  # colors[x, y] = T[y, inv[x]] = y * x^{-1}
    return cc_core.validate_config(colors)


def cyclic_group_table(m):
    """Cayley table of Z_m (helper for regular schemes)."""
    idx = np.arange(m)
    return (idx[:, None] + idx[None, :]) % m
