"""Permutation groups on 0..n-1 held by a base and strong generating set,
orbital configurations, the Frobenius test, and the
individualization-refinement search for groups and maps, with its point
users: color-preserving automorphisms and isomorphisms.

Permutations are plain tuples in image notation: ``p[i]`` is the image of
point ``i``.  A ``PermutationGroup`` keeps its generators and a base with a
strong generating set (BSGS), built by deterministic Schreier-Sims; order,
membership, basic orbits and point stabilizers are read off the stabilizer
chain, so no group is ever listed element by element (Seress, *Permutation
Group Algorithms*, 2003).

The searches follow McKay and Piperno, "Practical graph isomorphism, II"
(2014), on any finite domain 0..n-1: points here, colors in ``analysis``.
A node of the search tree is a partition of the domain, refined after each
element is individualized by a callable ``refine(cells) -> (cells, table)``
that must not depend on labels: refining the image of a partition under a
map the search looks for gives the image cells and the same table, which
is the node invariant.  The first path individualizes the first element of
the first non-singleton cell down to a discrete leaf; the individualized
elements form the base.  Every other leaf yields a candidate bijection,
which is kept only if an exact ``accept(f)`` check holds; for points it
compares the full color matrices.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import cc_core
from .errors import SearchBudgetExceeded, TooLarge, ValidationFailed

SEARCH_NODE_CAP = 10 ** 8
AUT_POINT_CAP = 200


def identity(n):
    return tuple(range(n))


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def check_permutation(p):
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation of 0..{len(p) - 1}: {p}")


def parse_permutation(text):
    """Parse image notation, e.g. '0 2 1 3'."""
    p = tuple(int(tok) for tok in text.split())
    check_permutation(p)
    return p


def _orbit(alpha, gens):
    """The set of points that products of ``gens`` send alpha to."""
    seen = {alpha}
    stack = [alpha]
    while stack:
        x = stack.pop()
        for g in gens:
            y = int(g[x])
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


class _Level:
    """One level of a stabilizer chain: the basic orbit of ``point`` under
    ``gens`` (the strong generators fixing the earlier base points), with
    the inverse of one transversal element per orbit point.

    Permutations are index arrays; ``s[u]`` applies u, then s.
    """

    def __init__(self, n, point, gens):
        self.point = point
        self.gens = gens
        self.index = np.full(n, -1, dtype=np.intp)
        self.index[point] = 0
        self.orbit = [point]
        self.transversal = [np.arange(n)]
        k = 0
        while k < len(self.orbit):
            x, u = self.orbit[k], self.transversal[k]
            for s in gens:
                y = int(s[x])
                if self.index[y] < 0:
                    self.index[y] = len(self.orbit)
                    self.orbit.append(y)
                    self.transversal.append(s[u])
            k += 1
        self.inverse = []
        for u in self.transversal:
            inv = np.empty(n, dtype=np.intp)
            inv[u] = np.arange(n)
            self.inverse.append(inv)


def _sift(levels, h, start):
    """Strip h through the levels from ``start`` on.  Returns the residue
    and the level where it left the basic orbit (len(levels) if none)."""
    for j in range(start, len(levels)):
        level = levels[j]
        k = level.index[h[level.point]]
        if k < 0:
            return h, j
        h = level.inverse[k][h]
    return h, len(levels)


def _schreier_residue(levels, i):
    """The first Schreier generator of level i, in orbit then generator
    order, that does not sift to the identity through the deeper levels:
    (residue, level reached), or None."""
    level = levels[i]
    ident = np.arange(level.index.size)
    for x, u in zip(level.orbit, level.transversal):
        for s in level.gens:
            su = s[u]
            k = level.index[s[x]]
            if np.array_equal(su, level.transversal[k]):
                continue
            h, j = _sift(levels, level.inverse[k][su], i + 1)
            if j < len(levels) or not np.array_equal(h, ident):
                return h, j
    return None


def _schreier_sims(n, generators, base):
    """Deterministic Schreier-Sims: a base beginning with ``base`` and a
    strong generating set containing the non-identity generators."""
    ident = np.arange(n)
    strong = [g for g in generators if not np.array_equal(g, ident)]
    base = list(base)
    for g in strong:
        if all(g[b] == b for b in base):
            base.append(int(np.flatnonzero(g != ident)[0]))

    def level(i):
        fixing = [s for s in strong if all(s[b] == b for b in base[:i])]
        return _Level(n, base[i], fixing)

    levels = [level(i) for i in range(len(base))]
    i = len(levels) - 1
    while i >= 0:
        found = _schreier_residue(levels, i)
        if found is None:
            i -= 1
            continue
        h, j = found
        strong.append(h)
        if j == len(levels):
            base.append(int(np.flatnonzero(h != ident)[0]))
            levels.append(None)
        for l in range(i + 1, j + 1):
            levels[l] = level(l)
        i = j
    return base, strong, levels


class PermutationGroup:
    """A permutation group of degree n given by generators, held as a base
    and strong generating set.  The base begins with the points ``base``."""

    def __init__(self, n, generators, base=()):
        self.n = n
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        arrays = [np.asarray(g, dtype=np.intp) for g in self.generators]
        chain_base, strong, self._levels = _schreier_sims(
            n, arrays, [int(b) for b in base])
        self.base = tuple(chain_base)
        self.strong_generators = tuple(tuple(s.tolist()) for s in strong)

    @property
    def order(self):
        return math.prod(len(level.orbit) for level in self._levels)

    def __contains__(self, p):
        h = np.asarray(p, dtype=np.intp)
        if h.shape != (self.n,):
            return False
        h, j = _sift(self._levels, h, 0)
        return j == len(self._levels) and np.array_equal(h, np.arange(self.n))

    def orbit(self, alpha):
        return sorted(_orbit(alpha, self.generators))

    def orbits(self):
        out = []
        assigned = [False] * self.n
        for alpha in range(self.n):
            if not assigned[alpha]:
                orb = self.orbit(alpha)
                for x in orb:
                    assigned[x] = True
                out.append(tuple(orb))
        return out

    def is_transitive(self):
        return len(self.orbit(0)) == self.n

    def is_regular(self):
        return self.is_transitive() and self.order == self.n

    def stabilizer(self, alpha):
        """The point stabilizer G_alpha, read off the stabilizer chain: with
        alpha first in the base, the later base points and levels are a BSGS
        of G_alpha, whose strong generators are those fixing alpha.  Any
        other alpha costs one Schreier-Sims run to re-base."""
        G = self
        if self.base[:1] != (alpha,):
            G = PermutationGroup(self.n, self.strong_generators, base=(alpha,))
        H = object.__new__(PermutationGroup)
        H.n = self.n
        H.generators = H.strong_generators = tuple(
            s for s in G.strong_generators if s[alpha] == alpha)
        H.base = G.base[1:]
        H._levels = G._levels[1:]
        return H

    def __repr__(self):
        return f"<PermutationGroup degree={self.n} order={self.order}>"


def group_closure(generators, n=None):
    """The group generated by a list of permutations.

    An empty generator list needs an explicit degree ``n`` and yields the
    trivial group.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        check_permutation(g)
    if gens:
        degrees = {len(g) for g in gens}
        if len(degrees) != 1:
            raise ValueError("generators have unequal degrees")
        n = degrees.pop()
    elif n is None:
        raise ValueError("degree n required for an empty generator list")
    return PermutationGroup(n, gens)


def orbital_scheme(G):
    """The coherent configuration of the 2-orbits of G.

    Homogeneous exactly when G is transitive.  Color ids follow row-major
    first occurrence.  Validation failure here would be a bug, not data.
    """
    n = G.n
    colors = np.full((n, n), -1, dtype=np.int64)
    gens = list(G.generators)
    c = 0
    for alpha in range(n):
        for beta in range(n):
            if colors[alpha, beta] >= 0:
                continue
            colors[alpha, beta] = c
            stack = [(alpha, beta)]
            while stack:
                x, y = stack.pop()
                for g in gens:
                    gx, gy = g[x], g[y]
                    if colors[gx, gy] < 0:
                        colors[gx, gy] = c
                        stack.append((gx, gy))
            c += 1
    return cc_core.validate_config(colors)


def is_frobenius(G):
    """Transitive, G_alpha != 1, and G_alpha acts semiregularly off alpha:
    every G_alpha-orbit on the other points has size |G_alpha|, so no
    non-identity element fixes two points."""
    if not G.is_transitive():
        return False
    H = G.stabilizer(0)
    if H.order == 1:
        return False
    return all(len(orb) == H.order for orb in H.orbits() if orb != (0,))


def point_stabilizer_orbits(G, alpha):
    """Orbits of the point stabilizer G_alpha, as sorted tuples."""
    return G.stabilizer(alpha).orbits()


def _budget():
    """Wraps refinements so that together they refine at most
    ``SEARCH_NODE_CAP`` nodes, the value at the time of this call."""
    cap, nodes = SEARCH_NODE_CAP, itertools.count(1)

    def counted(refine):
        def node(cells):
            if next(nodes) > cap:
                raise SearchBudgetExceeded(f"node cap {cap} exceeded")
            return refine(cells)
        return node
    return counted


def equitable_refinement(codes):
    """The refinement ``refine(cells) -> (cells, table)`` by code rows.

    ``cells`` holds dense cell ids 0..m-1, and ``codes(cells, m)`` gives one
    row of non-negative integer codes per element.  Each round, element x
    gets the id of the row [cells[x], sorted codes of x] among the sorted
    distinct rows, until the number of cells stops changing.  Rows are
    sorted as big-endian bytes, which is their order as integer sequences,
    so refined cells keep the order of the cells they split.  Returns the
    cells and the final table of distinct rows; neither depends on labels
    when the codes do not.
    """
    def refine(cells):
        m = int(cells.max()) + 1
        while True:
            coded = codes(cells, m)
            coded.sort(axis=1)
            rows = np.empty((coded.shape[0], coded.shape[1] + 1), dtype=">i8")
            rows[:, 0] = cells
            rows[:, 1:] = coded
            _, first, new = np.unique(
                rows.view(np.dtype((np.void, rows.strides[0]))).ravel(),
                return_index=True, return_inverse=True)
            if first.size == m:
                return cells, rows[first]
            cells, m = new.ravel(), first.size
    return refine


def _points(colors):
    """The refinement of the points by their rows of colors, and its root
    partition: the points by their diagonal colors.  Rows suffice: in a
    coherent configuration colors[y, x] is the star of colors[x, y]."""
    _, root = np.unique(colors.diagonal(), return_inverse=True)
    return (equitable_refinement(lambda cells, m: colors.astype(np.int64) * m + cells),
            root.ravel())


def _individualize(cells, v, m):
    """Move element v of a partition with m cells into a new last cell."""
    cells = cells.copy()
    cells[v] = m
    return cells


def _first_path(refine, root):
    """The nodes (cells, table) of the first path and its base."""
    path = [refine(root)]
    base = []
    while True:
        cells, table = path[-1]
        split = np.flatnonzero(np.bincount(cells) > 1)
        if not split.size:
            return path, base
        v = int(np.flatnonzero(cells == split[0])[0])
        base.append(v)
        path.append(refine(_individualize(cells, v, len(table))))


def _leaves(refine, path, base, cells, depth, choices=None):
    """The discrete leaves below a node at ``depth`` whose tables equal the
    first path's at every depth, in element order, as (leaf cells, the
    elements individualized below the node).  At each depth the branching
    runs over the cell holding the first path's base element; ``choices``
    replaces the first branching."""
    if depth == len(base):
        yield cells, []
        return
    if choices is None:
        choices = np.flatnonzero(cells == path[depth][0][base[depth]]).tolist()
    for w in choices:
        child, table = refine(_individualize(cells, w, len(path[depth][1])))
        if np.array_equal(table, path[depth + 1][1]):
            for leaf, points in _leaves(refine, path, base, child, depth + 1):
                yield leaf, [w] + points


def _leaf_map(first_leaf, leaf):
    """The bijection sending the element of each cell id in ``first_leaf``
    to the element of the same id in ``leaf``."""
    points = np.empty_like(leaf)
    points[leaf] = np.arange(leaf.size)
    return points[first_leaf]


def search_group(refine, root, accept):
    """The group of the permutations f of the elements of ``root`` with
    accept(f), as a BSGS.

    Levels of the first path are searched from the deepest up.  At level i,
    each element w of the base element's cell outside the orbit of the
    generators found so far (all of which fix the earlier base elements) is
    tried: a leaf below w whose bijection maps the first path onto its own
    and is accepted is a new generator.  When no such leaf exists, the
    orbit of w is skipped too.  The generators are a strong generating set
    for the base, so the order is the product of the basic orbit sizes; the
    Schreier-Sims order of the result must agree.
    """
    refine = _budget()(refine)
    path, base = _first_path(refine, root)
    gens = []
    order = 1
    for i in reversed(range(len(base))):
        cells = path[i][0]
        orbit = _orbit(base[i], gens)
        failed = set()
        for w in np.flatnonzero(cells == cells[base[i]]).tolist():
            if w in orbit or w in failed:
                continue
            for leaf, points in _leaves(refine, path, base, cells, i,
                                        choices=[w]):
                f = _leaf_map(path[-1][0], leaf)
                if f[base].tolist() == base[:i] + points and accept(f):
                    gens.append(f)
                    orbit = _orbit(base[i], gens)
                    break
            else:
                failed |= _orbit(w, gens)
        order *= len(orbit)
    G = PermutationGroup(root.size, gens, base=base)
    if G.order != order:
        raise ValidationFailed(
            f"search order {order} differs from Schreier-Sims order {G.order}")
    return G


def search_map(source, target, accept):
    """One bijection f from the source's elements to the target's with
    accept(f), as an index array, or None.

    ``source`` and ``target`` are (refine, root) pairs.  The source is
    refined along its first path; the target branches over the cell with
    the same id at each depth, and each leaf bijection is checked exactly.
    """
    counted = _budget()
    path, base = _first_path(counted(source[0]), source[1])
    refine = counted(target[0])
    cells, table = refine(target[1])
    if not np.array_equal(table, path[0][1]):
        return None
    for leaf, _ in _leaves(refine, path, base, cells, 0):
        f = _leaf_map(path[-1][0], leaf)
        if accept(f):
            return f
    return None


def point_isomorphism(colors, target):
    """A point bijection f with target[f(a), f(b)] = colors[a, b] for all
    points a, b, as an index array, or None."""
    if colors.shape != target.shape:
        return None
    return search_map(_points(colors), _points(target),
                      lambda f: np.array_equal(target[np.ix_(f, f)], colors))


def automorphism_group(cfg):
    """Aut(Omega, S), the permutations preserving every color, as a BSGS."""
    if cfg.n > AUT_POINT_CAP:
        raise TooLarge(f"degree {cfg.n} exceeds automorphism-search cap {AUT_POINT_CAP}")
    colors = cfg.colors
    return search_group(*_points(colors),
                        lambda f: np.array_equal(colors[np.ix_(f, f)], colors))
