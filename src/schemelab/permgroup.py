"""Permutation groups on 0..n-1 held by a base and strong generating set,
orbital configurations, the Frobenius test, and the
individualization-refinement search for groups and maps, with its point
users: color-preserving automorphisms and isomorphisms.

Permutations are plain tuples in image notation: ``p[i]`` is the image of
point ``i``.  A ``PermutationGroup`` keeps its generators and a base with a
strong generating set (BSGS), built by deterministic Schreier-Sims on first
read; order, membership, basic orbits and point stabilizers are read off
the stabilizer chain, so no group is ever listed element by element
(Seress, *Permutation Group Algorithms*, 2003).  Orbits and orbital
schemes read only the generators, so they never build the chain.

Every orbit is computed by one kernel, ``_orbit_labels``: points, pairs
(``orbital_scheme``), the orbit and failed sets of ``search_group``, and
the color orbits of ``analysis.algebraic_fusion``.  It labels each cell
with the least flat index of its orbit by array union-find.  A label is
always a cell of the same orbit and never grows, so labels can be seeded
with an earlier result and joined to one new generator at a time.

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

import functools
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


def _orbit_labels(labels, gens):
    """The least flat index of the orbit of every cell of ``labels``, a
    label array of shape (n,) for points or (n, n) for pairs, under the
    group generated by ``gens``, each acting on every axis.

    An array union-find: the larger label of every edge (x, g(x)) is hooked
    under the smaller with ``np.minimum.at``, every label jumps to its root,
    and this repeats until no edge joins two labels.  Edges are taken a
    block of cells at a time, so the scratch does not grow with the number
    of generators.  A label is always a cell of the same orbit and never
    grows, so the labels may be seeded with ``np.arange`` (orbits) or with
    an earlier result, to which the new generators are joined.
    """
    shape, block = labels.shape, cc_core.BLOCK_CELLS
    labels = labels.ravel().copy()
    gens = [np.asarray(g, dtype=np.intp) for g in gens]
    while True:
        joined = False
        for g in gens:
            for lo in range(0, labels.size, block):
                cells = np.unravel_index(np.arange(lo, min(lo + block, labels.size)), shape)
                a = labels[lo:lo + block]
                b = labels[np.ravel_multi_index(tuple(g[c] for c in cells), shape)]
                cut = a != b
                if cut.any():
                    a, b = a[cut], b[cut]
                    np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
                    joined = True
        if not joined:
            return labels.reshape(shape)
        while True:
            root = labels[labels]
            if np.array_equal(root, labels):
                break
            labels = root


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
    and strong generating set.  The base begins with the points ``base``.

    The stabilizer chain (base, strong generators and levels) is built by
    Schreier-Sims on first read, so a group read only through its
    generators and orbits (``orbital_scheme``) never builds it."""

    def __init__(self, n, generators, base=()):
        self.n = n
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        self._first_points = [int(b) for b in base]

    @functools.cached_property
    def _chain(self):
        arrays = [np.asarray(g, dtype=np.intp) for g in self.generators]
        base, strong, levels = _schreier_sims(self.n, arrays, self._first_points)
        return tuple(base), tuple(tuple(s.tolist()) for s in strong), levels

    @property
    def base(self):
        return self._chain[0]

    @property
    def strong_generators(self):
        return self._chain[1]

    @property
    def order(self):
        return math.prod(len(level.orbit) for level in self._chain[2])

    def __contains__(self, p):
        h = np.asarray(p, dtype=np.intp)
        if h.shape != (self.n,):
            return False
        levels = self._chain[2]
        h, j = _sift(levels, h, 0)
        return j == len(levels) and np.array_equal(h, np.arange(self.n))

    def orbit(self, alpha):
        labels = _orbit_labels(np.arange(self.n), self.generators)
        return np.flatnonzero(labels == labels[alpha]).tolist()

    def orbits(self):
        """The orbits as sorted tuples, in the order of their least points."""
        labels = _orbit_labels(np.arange(self.n), self.generators)
        points = np.argsort(labels, kind="stable")
        ends = np.flatnonzero(np.diff(labels[points])) + 1
        return [tuple(orb.tolist()) for orb in np.split(points, ends)]

    def is_transitive(self):
        return len(self.orbit(0)) == self.n

    def is_regular(self):
        return self.is_transitive() and self.order == self.n

    def stabilizer(self, alpha):
        """The point stabilizer G_alpha, read off the stabilizer chain: with
        alpha first in the base, the later base points and levels are a BSGS
        of G_alpha, whose strong generators are those fixing alpha, and they
        seed the chain of the result.  Any other alpha costs one
        Schreier-Sims run to re-base."""
        G = self
        if self.base[:1] != (alpha,):
            G = PermutationGroup(self.n, self.strong_generators, base=(alpha,))
        base, strong, levels = G._chain
        strong = tuple(s for s in strong if s[alpha] == alpha)
        H = PermutationGroup(self.n, strong)
        H._chain = base[1:], strong, levels[1:]
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
    pairs = _orbit_labels(np.arange(n * n).reshape(n, n), G.generators)
    return cc_core.validate_config(cc_core.canonicalize_colors(pairs))


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
    labels = np.arange(root.size)
    order = 1
    for i in reversed(range(len(base))):
        cells = path[i][0]
        failed = np.zeros(root.size, dtype=bool)
        for w in np.flatnonzero(cells == cells[base[i]]).tolist():
            if labels[w] == labels[base[i]] or failed[w]:
                continue
            for leaf, points in _leaves(refine, path, base, cells, i,
                                        choices=[w]):
                f = _leaf_map(path[-1][0], leaf)
                if f[base].tolist() == base[:i] + points and accept(f):
                    gens.append(f)
                    labels = _orbit_labels(labels, [f])
                    break
            else:
                failed |= labels == labels[w]
        order *= int(np.count_nonzero(labels == labels[base[i]]))
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
