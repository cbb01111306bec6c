"""Permutation groups on 0..n-1 held by a base and strong generating set,
orbital configurations, the Frobenius test, and color-preserving
automorphism and isomorphism search by individualization-refinement.

Permutations are plain tuples in image notation: ``p[i]`` is the image of
point ``i``.  A ``PermutationGroup`` keeps its generators and a base with a
strong generating set (BSGS), built by deterministic Schreier-Sims; order,
membership, basic orbits and point stabilizers are read off the stabilizer
chain, so no group is ever listed element by element (Seress, *Permutation
Group Algorithms*, 2003).

The searches follow McKay and Piperno, "Practical graph isomorphism, II"
(2014).  A node of the search tree is a partition of the points, refined
until equitable after each point is individualized; its table of distinct
refinement rows does not depend on point labels and is the node invariant.
The first path individualizes the first point of the first non-singleton
cell down to a discrete leaf; the individualized points form the base.
Every other leaf yields a candidate bijection, which is accepted only after
an exact check against the full color matrix.
"""

from __future__ import annotations

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


def load_generators(path):
    """Read one permutation per line; '#' starts a comment."""
    gens = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                gens.append(parse_permutation(line))
    if gens and len({len(g) for g in gens}) != 1:
        raise ValueError("generators have unequal degrees")
    return gens


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
        """The point stabilizer G_alpha: with alpha first in the base, the
        strong generators that fix alpha generate it."""
        G = self
        if self.base[:1] != (alpha,):
            G = PermutationGroup(self.n, self.strong_generators, base=(alpha,))
        return PermutationGroup(
            self.n, [s for s in G.strong_generators if s[alpha] == alpha],
            base=G.base[1:])

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


def fixed_points(g):
    return [i for i, gi in enumerate(g) if gi == i]


def point_stabilizer_orbits(G, alpha):
    """Orbits of the point stabilizer G_alpha, as sorted tuples."""
    return G.stabilizer(alpha).orbits()


class _Budget:
    """Counts refined search nodes against a cap."""

    def __init__(self, cap):
        self.cap = cap
        self.nodes = 0

    def refine(self, colors, cells):
        self.nodes += 1
        if self.nodes > self.cap:
            raise SearchBudgetExceeded(f"node cap {self.cap} exceeded")
        return _refine(colors, cells)


def _refine(colors, cells):
    """The equitable refinement of a partition of the points.

    ``cells`` holds dense cell ids 0..m-1.  Each round, point x gets the id
    of the row [cells[x], sorted(colors[x, :] * m + cells)] among the sorted
    distinct rows, until the number of cells stops changing.  Rows suffice:
    in a coherent configuration colors[y, x] is the star of colors[x, y].
    Rows are sorted as big-endian bytes, which is their order as integer
    sequences, so refined cells keep the order of the cells they split.
    Returns the cells and the final table of distinct rows; neither depends
    on point labels.
    """
    n = cells.size
    m = int(cells.max()) + 1
    row = np.dtype((np.void, 8 * (n + 1)))
    while True:
        rows = np.empty((n, n + 1), dtype=">i8")
        rows[:, 0] = cells
        codes = colors * m + cells
        codes.sort(axis=1)
        rows[:, 1:] = codes
        _, first, new = np.unique(rows.view(row).ravel(), return_index=True,
                                  return_inverse=True)
        if first.size == m:
            return cells, rows[first]
        cells, m = new.ravel(), first.size


def _individualize(cells, v, m):
    """Move point v of a partition with m cells into a new last cell."""
    cells = cells.copy()
    cells[v] = m
    return cells


def _root(colors, budget):
    """The refined partition of the points by their diagonal colors."""
    _, cells = np.unique(colors.diagonal(), return_inverse=True)
    return budget.refine(colors, cells.ravel())


def _first_path(colors, budget):
    """The nodes (cells, table) of the first path and its base."""
    path = [_root(colors, budget)]
    base = []
    while True:
        cells, table = path[-1]
        split = np.flatnonzero(np.bincount(cells) > 1)
        if not split.size:
            return path, base
        v = int(np.flatnonzero(cells == split[0])[0])
        base.append(v)
        path.append(budget.refine(colors, _individualize(cells, v, len(table))))


def _leaves(colors, path, base, cells, depth, budget, choices=None):
    """The discrete leaves below a node at ``depth`` whose tables equal the
    first path's at every depth, in point order, as (leaf cells, the points
    individualized below the node).  At each depth the branching runs over
    the cell holding the first path's base point; ``choices`` replaces the
    first branching."""
    if depth == len(base):
        yield cells, []
        return
    if choices is None:
        choices = np.flatnonzero(cells == path[depth][0][base[depth]]).tolist()
    for w in choices:
        child, table = budget.refine(
            colors, _individualize(cells, w, len(path[depth][1])))
        if np.array_equal(table, path[depth + 1][1]):
            for leaf, points in _leaves(colors, path, base, child, depth + 1,
                                        budget):
                yield leaf, [w] + points


def _leaf_map(first_leaf, leaf):
    """The bijection sending the point of each cell id in ``first_leaf`` to
    the point of the same id in ``leaf``."""
    points = np.empty_like(leaf)
    points[leaf] = np.arange(leaf.size)
    return points[first_leaf]


def search_color_isomorphisms(src_cfg, dst_cfg, color_map, *,
                              node_cap=SEARCH_NODE_CAP):
    """A point bijection f with dst_color(f(a), f(b)) = color_map[src_color(a, b)],
    as a one-element list, or [] when there is none.

    The source, with its colors mapped, is refined along its first path; the
    target branches over the cell with the same id at each depth, and each
    leaf bijection is checked exactly.  Deterministic by construction.
    """
    n = src_cfg.n
    if dst_cfg.n != n:
        return []
    dst = dst_cfg.colors
    mapped = np.asarray(color_map, dtype=np.int64)[src_cfg.colors]
    budget = _Budget(node_cap)
    path, base = _first_path(mapped, budget)
    cells, table = _root(dst, budget)
    if not np.array_equal(table, path[0][1]):
        return []
    for leaf, _ in _leaves(dst, path, base, cells, 0, budget):
        f = _leaf_map(path[-1][0], leaf)
        if np.array_equal(dst[np.ix_(f, f)], mapped):
            return [tuple(f.tolist())]
    return []


def automorphism_group(cfg, *, point_cap=AUT_POINT_CAP, node_cap=SEARCH_NODE_CAP):
    """Aut(Omega, S), the permutations preserving every color, as a BSGS.

    Levels of the first path are searched from the deepest up.  At level i,
    each point w of the base point's cell outside the orbit of the
    generators found so far (all of which fix the earlier base points) is
    tried: a leaf below w whose bijection maps the first path onto its own
    and preserves every color is a new generator.  When no such leaf exists,
    the orbit of w is skipped too.  The generators are a strong generating
    set for the base, so |Aut| is the product of the basic orbit sizes; the
    Schreier-Sims order of the result must agree.
    """
    if cfg.n > point_cap:
        raise TooLarge(f"degree {cfg.n} exceeds automorphism-search cap {point_cap}")
    colors = cfg.colors
    budget = _Budget(node_cap)
    path, base = _first_path(colors, budget)
    gens = []
    order = 1
    for i in reversed(range(len(base))):
        cells = path[i][0]
        orbit = _orbit(base[i], gens)
        failed = set()
        for w in np.flatnonzero(cells == cells[base[i]]).tolist():
            if w in orbit or w in failed:
                continue
            for leaf, points in _leaves(colors, path, base, cells, i, budget,
                                        choices=[w]):
                f = _leaf_map(path[-1][0], leaf)
                if f[base].tolist() == base[:i] + points \
                        and np.array_equal(colors[np.ix_(f, f)], colors):
                    gens.append(f)
                    orbit = _orbit(base[i], gens)
                    break
            else:
                failed |= _orbit(w, gens)
        order *= len(orbit)
    G = PermutationGroup(cfg.n, gens, base=base)
    if G.order != order:
        raise ValidationFailed(
            f"search order {order} differs from Schreier-Sims order {G.order}")
    return G
