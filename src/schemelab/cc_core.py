"""Coherent configurations: color-matrix data model and intersection numbers.

A configuration on n points is stored as an n x n integer matrix of relation
ids ("colors"), read-only and in the narrowest type for its rank r
(``_color_dtype``: uint8 up to r = 256, uint16 up to 65 536, else int32;
int64 only for the codes of a marked closure input past 2^31).
``validate_config`` checks the three defining axioms (the diagonal is a
union of colors, the color partition is transpose-closed, and all triple
intersection counts are constant on each color), then returns an immutable
``CoherentConfig`` carrying the star map, fibers, valencies and the full
intersection tensor, built on first read.

Conventions:

* Relation ids of freshly constructed configurations are dense integers
  0..r-1 ordered by first occurrence in a row-major scan of the matrix
  (``canonicalize_colors``); every derived map uses this ordering so golden
  files are reproducible.  One-point extensions keep their own fiber-ordered
  labeling and skip the relabeling step.
* The tensor is the (R, n) matrix of reference signatures, R the rank:
  c_{rs}^t is the run of code r*R + s in row t.  Extensions of a scheme on
  n points have rank near n^2/4, too large for a dense R^3 array or a dict
  per (r, s); the matrix takes R*n narrow codes.  ``IntersectionTensor``
  reads entries, ``products`` slices, runs a block of rows at a time and
  coordinate arrays ``arrays()``, whose keys need R^3 < 2^63 (else
  ``TooLarge``).
* S3 and the Weisfeiler-Leman closure share one kernel: the sorted
  composition codes color(a,b)*r + color(b,g) of pairs of one row
  (``_row_signatures``), checked class by class against the signature of
  each class's first pair (``_verify_classes``), one fiber at a time.
  Under S2 the signature of (g, a) is that of (a, g) under the code map
  u*r + s -> s* *r + u*, so the pass walks the pairs on or above the
  diagonal and, below it, the first pairs and their transposes; a failing
  pair, or S2 failing, and it walks every pair, so it reports every
  failing pair: ``validate_config`` names the first, and a closure round
  that a fingerprint collision left unsplit is split by them
  (``_weisfeiler_leman``).  S1-S3 are checked when the configuration is
  made, and it keeps no reference signatures.  The tensor is built on
  first read: the references are rebuilt from one row signature per fiber
  (``_reference_signatures``), so a caller that never reads the tensor (a
  one-point extension asked only for its rank and fibers) does not pay for
  them.
* Every layer builds its color matrices in the color type, and any
  arithmetic on a color array first casts the array with ``astype``, to a
  code type (``_code_dtype``) or to int64.  Scalar promotion is never relied
  on: numpy 2 keeps a uint8 array uint8 when multiplied by an int64 scalar
  (NEP 50), and numpy 1.x picks the result type from the scalar's value.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AxiomS1Violated,
    AxiomS2Violated,
    AxiomS3Violated,
    BadRelationId,
    NotAScheme,
    TooLarge,
)

BLOCK_CELLS = 1 << 14           # cells per step of every blocked pass


def _color_dtype(r):
    """The narrowest integer type that holds every id 0..r-1."""
    return np.dtype(np.uint8 if r <= 1 << 8 else np.uint16 if r <= 1 << 16 else
                    np.int32 if r <= 1 << 31 else np.int64)


def first_cells(ids):
    """The row-major flat index of the first cell of each id 0..max(ids) of
    an integer matrix; ids that do not occur get ids.size.

    The cells are scanned a block at a time, and the scan stops once every
    id has been seen, so no index array of the matrix's size is made."""
    flat = ids.ravel()
    first = np.full(int(flat.max()) + 1, flat.size, dtype=np.int64)
    for lo in range(0, flat.size, BLOCK_CELLS):
        block = flat[lo:lo + BLOCK_CELLS]
        np.minimum.at(first, block, np.arange(lo, lo + block.size, dtype=np.int64))
        if first.max() < flat.size:
            break
    return first


def canonicalize_colors(colors):
    """Relabel color ids to first-occurrence order in a row-major scan; the
    result is a new matrix in the color type of its rank.

    Ids are non-negative.  Ids that reach the matrix's size (the codes of a
    marked closure input can) are first ranked among the distinct ids, so
    that ``first_cells`` is sized by the matrix, not by its largest id."""
    colors = np.asarray(colors)
    if int(colors.max()) >= colors.size:
        distinct = np.unique(colors)
        colors = np.searchsorted(distinct, colors).astype(_color_dtype(distinct.size))
    return _relabeled(colors, first_cells(colors))


def _relabeled(colors, first):
    """``colors`` with each id relabeled to the rank of its first cell
    ``first[id]``, in the color type of the rank."""
    order = np.argsort(first, kind="stable")
    relabel = np.empty(first.size, dtype=_color_dtype(first.size))
    relabel[order] = np.arange(first.size)
    return relabel[colors]


class IntersectionTensor:
    """Intersection numbers c_{rs}^t, held as the read-only (rank, n)
    signature matrix: row t holds the sorted codes r*rank + s (code type)
    of the first pair of color t, and c_{rs}^t is the run of r*rank + s."""

    def __init__(self, ref):
        self.rank, self._ref = ref.shape[0], ref
        ref.setflags(write=False)

    def __getitem__(self, rst):
        r, s, t = rst
        R = self.rank
        if 0 <= r < R and 0 <= s < R and 0 <= t < R:
            row, code = self._ref[int(t)], int(r) * R + int(s)
            return int(row.searchsorted(code, "right") - row.searchsorted(code))
        return 0

    def _blocks(self):
        """(lo, rows lo.. of the signature matrix), BLOCK_CELLS cells a step."""
        step = max(1, BLOCK_CELLS // self._ref.shape[1])
        for lo in range(0, self.rank, step):
            yield lo, self._ref[lo:lo + step]

    def runs(self):
        """The nonzero entries a block of rows at a time, as (t, code, c) in
        ascending t and code: t in the color type of the rank, the code
        r*rank + s in the code type, c_{rs}^t as ``_row_runs`` gives it."""
        for lo, block in self._blocks():
            per_row, code, c = _row_runs(block)
            rows = np.arange(lo, lo + len(block), dtype=_color_dtype(self.rank))
            yield np.repeat(rows, per_row), code, c

    def products(self, r, s):
        """Nonzero slice {t: c_{rs}^t} for ids (r, s), in ascending t; each
        call scans the whole (rank, n) signature matrix."""
        code = int(r) * self.rank + int(s)
        c = np.concatenate([np.count_nonzero(b == code, axis=1) for _, b in self._blocks()])
        t = np.flatnonzero(c)
        return dict(zip(t.tolist(), c[t].tolist()))

    def items(self):
        """Iterate ((r, s, t), c) over nonzero entries in ascending key order."""
        u, s, t, c = self.arrays()
        for r, s, t, c in zip(u.tolist(), s.tolist(), t.tolist(), c.tolist()):
            yield (r, s, t), c

    def nonzero_count(self):
        return sum(c.size for _, _, c in self.runs())

    def arrays(self):
        """Nonzero entries as flat int64 arrays (r, s, t, c), sorted by
        (r, s, t): the runs come in ascending t, so a stable sort of codes."""
        t, code, c = (np.concatenate(x) for x in zip(*self.runs()))
        order = np.argsort(code, kind="stable")
        r, s = np.divmod(code[order].astype(np.int64), self.rank)
        return r, s, t[order].astype(np.int64), c[order].astype(np.int64)

    def relabeled_equals(self, other, codes, rows):
        """Whether each row t, its codes r*rank + s mapped to ``codes(r, s)``
        and sorted, equals row rows[t] of ``other``."""
        if other._ref.shape != self._ref.shape:
            return False
        for lo, block in self._blocks():
            new = codes(*np.divmod(block, block.dtype.type(self.rank)))
            new.sort(axis=1)
            if not np.array_equal(new, other._ref[rows[lo:lo + len(block)]]):
                return False
        return True


class CoherentConfig:
    """A validated coherent configuration (immutable).

    Attributes
    ----------
    colors : (n, n) read-only matrix of relation ids 0..r-1, in the
        narrowest type for the rank r: uint8 up to r = 256, uint16 up to
        65 536, else int32 (``_color_dtype``)
    star : length-r array, star[s] = s*
    diagonal_colors : tuple of ids covering the diagonal
    fibers : tuple of point arrays, ordered by diagonal color id
    point_fiber : length-n array of fiber indices
    relation_source, relation_target : length-r arrays of fiber indices
    valencies : length-r array, n_s per relation (per source fiber)
    tensor : IntersectionTensor, on first read the (rank, n) reference
        signatures of the colors (``_reference_signatures``)
    """

    def __init__(self, colors, star, diagonal_colors, fibers, point_fiber,
                 relation_source, relation_target, valencies):
        self.colors = colors
        self.star = star
        self.diagonal_colors = diagonal_colors
        self.fibers = fibers
        self.point_fiber = point_fiber
        self.relation_source = relation_source
        self.relation_target = relation_target
        self.valencies = valencies
        self._tensor = None
        for arr in (colors, star, point_fiber, relation_source,
                    relation_target, valencies):
            arr.setflags(write=False)

    @property
    def tensor(self):
        if self._tensor is None:
            self._tensor = IntersectionTensor(_reference_signatures(self))
        return self._tensor

    @property
    def n(self):
        return self.colors.shape[0]

    @property
    def rank(self):
        return len(self.star)

    @property
    def config(self):
        """This configuration, for readers of an extension's ``.config``,
        such as the span counter of ``perfbench/traced_cli.py``."""
        return self

    @property
    def is_scheme(self):
        return len(self.fibers) == 1

    @property
    def identity_color(self):
        """The diagonal color of a scheme."""
        _require_scheme(self)
        return self.diagonal_colors[0]

    @property
    def nondiagonal_colors(self):
        return tuple(s for s in range(self.rank) if s not in self.diagonal_colors)

    def adjacency(self, s, dtype=np.float64):
        self._check_id(s)
        return (self.colors == s).astype(dtype)

    def relation_pairs(self, s):
        self._check_id(s)
        return np.argwhere(self.colors == s)

    def neighbors(self, alpha, s):
        """The set alpha·s as a point array."""
        self._check_id(s)
        return np.flatnonzero(self.colors[alpha] == s)

    def _check_id(self, s):
        if not 0 <= s < self.rank:
            raise BadRelationId(f"relation id {s} out of range 0..{self.rank - 1}")

    def __repr__(self):
        kind = "scheme" if self.is_scheme else "configuration"
        return f"<CoherentConfig {kind} n={self.n} rank={self.rank}>"


def _require_scheme(cfg):
    if not cfg.is_scheme:
        raise NotAScheme(f"configuration has {len(cfg.fibers)} fibers")


def _code_dtype(r):
    """The narrowest integer type that holds every composition code
    u*r + s <= r^2 - 1."""
    return (np.uint16 if r * r <= 1 << 16 else
            np.int32 if r * r <= 1 << 31 else np.int64)


def _row_signatures(colors_t, row, r, cols):
    """Sorted composition codes, in the code type, of the pairs (alpha,
    gamma) for gamma in ``cols``: ``row`` holds color(alpha, beta) over
    beta and row gamma of ``colors_t`` color(beta, gamma), so row i of the
    result holds the multiset {color(alpha,beta)*r + color(beta,gamma) :
    beta} of the i-th gamma."""
    code = colors_t[cols].astype(_code_dtype(r))
    code += row.astype(code.dtype) * code.dtype.type(r)
    code.sort(axis=1)
    return code


def _verify_classes(colors, r):
    """Check that all pairs of each color have one composition multiset.

    Codes are taken in ``colors`` (r colors), which must satisfy S1.  The
    reference of a color is the signature of its first pair in row-major
    order.  Returns (first_cell, bad): the flat index of every reference
    pair, and None when every pair matches its reference, else (rows,
    masks): the ascending rows that hold a failing pair, and for each the
    boolean mask of its failing pairs.

    Under S2 the signature of (g, a) is that of (a, g) under the code map
    u*r + s -> s* *r + u*, a bijection.  The transposed first pair of t is
    a pair of t*; once it matches its reference, a pair below the diagonal
    matches exactly when its transpose does.  So the pass first walks the
    pairs on or above the diagonal and, below it, the first pairs and
    their transposes, with the first cells read off the first row of each
    fiber: there lie all first pairs when S3 holds, else some (a, a) has a
    code t*r + s that the first diagonal pair of its fiber lacks.  A
    failing pair, or S2 failing, and every pair is walked against the
    first cells of the whole matrix, so the failures are the full pass's.
    """
    n = colors.shape[0]
    heads = np.sort(first_cells(colors.diagonal()))
    heads = heads[heads < n]                # the first point of each fiber
    seen = first_cells(colors[heads])
    first_cell = np.full(r, n * n, dtype=np.int64)
    found = np.flatnonzero(seen < heads.size * n)
    first_cell[found] = heads[seen[found] // n] * n + seen[found] % n
    del seen, found
    colors_t = np.ascontiguousarray(colors.T)
    if (first_cell.max() < n * n
            and _walk_classes(colors, colors_t, r, first_cell, True) is not None):
        return first_cell, None
    first_cell = first_cells(colors)
    bad = _walk_classes(colors, colors_t, r, first_cell, False)
    if not bad:
        return first_cell, None
    rows = sorted(bad)
    return first_cell, (np.array(rows), np.array([bad[a] for a in rows]))


def _walk_classes(colors, colors_t, r, first_cell, half):
    """The walk of ``_verify_classes``: row alpha from column alpha when
    ``half``, with the first pairs and their transposes below it, else
    from column 0, one fiber's rows at a time, holding only that fiber's
    references.  The columns of a row go in ascending order, a block of
    signatures at a time, no taller than the references or one
    ``BLOCK_CELLS`` step.  Returns {alpha: mask of its failing pairs}, or
    for a half walk None as soon as S2 or a pair fails.  A pair is compared
    with the reference row of its color among its own fiber's colors:
    under S1 its signature holds exactly one code color(a, a)*r + s, s its
    color, so it equals no reference of another color or fiber, nor a row
    still zero."""
    n = colors.shape[0]
    diag = colors.diagonal()
    pt = _color_dtype(n + 1)
    at_row, at_col = (x.astype(pt) for x in np.divmod(first_cell, n))
    every = np.arange(n, dtype=pt)
    if half:
        star = colors[at_col, at_row]
        step = max(1, BLOCK_CELLS // n)
        if any((star[colors[lo:lo + step]] != colors_t[lo:lo + step]).any()
               for lo in range(0, n, step)):
            return None
        # the cells (hi, lo) below the diagonal of first pairs and their
        # transposes, as codes hi*n + lo, once each and ascending
        kt = np.dtype(_code_dtype(n))
        hi, lo = np.maximum(at_row, at_col), np.minimum(at_row, at_col)
        below = np.sort((hi.astype(kt) * kt.type(n) + lo)[hi != lo])
        keep = np.ones(below.size, dtype=bool)
        np.not_equal(below[1:], below[:-1], out=keep[1:])
        ex_row, below = np.divmod(below[keep], kt.type(n))
        ex_start = np.searchsorted(ex_row, np.arange(n + 1, dtype=kt)).tolist()
        del star, hi, lo, keep, ex_row
    by_row = np.argsort(at_row, kind="stable").astype(_color_dtype(r))
    opens = np.searchsorted(at_row[by_row], np.arange(n + 1, dtype=pt)).tolist()
    home = diag[at_row]         # the fiber (diagonal color) of each first pair
    slot = np.zeros(r, dtype=_color_dtype(r))
    ref = np.zeros((int(np.bincount(home).max()), n), dtype=_code_dtype(r))
    step = max(ref.shape[0], BLOCK_CELLS // n)
    bad = {}
    for d in np.flatnonzero(np.bincount(diag)):
        mine = np.flatnonzero(home == d)
        slot[mine] = np.arange(mine.size)
        for alpha in np.flatnonzero(diag == d).tolist():
            row, cols = colors[alpha], every
            if half:
                cols = np.concatenate((below[ex_start[alpha]:ex_start[alpha + 1]], every[alpha:]))
            opened = by_row[opens[alpha]:opens[alpha + 1]]
            for lo in range(0, cols.size, step):
                blk = cols[lo:lo + step]
                sig = _row_signatures(colors_t, row, r, blk)
                if opened.size:     # the references whose first pair is in the block
                    pos = np.searchsorted(cols, at_col[opened]) - lo
                    new = (pos >= 0) & (pos < len(blk))
                    ref[slot[opened[new]]] = sig[pos[new]]
                fail = (sig != ref[slot[row[blk]]]).any(axis=1)
                if fail.any():
                    if half:
                        return None
                    bad.setdefault(alpha, np.zeros(n, dtype=bool))[blk] = fail
    return bad


def _reference_signatures(cfg):
    """The (rank, n) reference signatures of a configuration: row t holds
    the sorted composition codes of the row-major first pair of color t.

    That pair lies in the row of the first point alpha of the source fiber
    of t, since every point of that fiber has a pair of t; so per fiber,
    the codes of row alpha at the first column of each of its colors give
    them all, and no n x n temporary is made."""
    n, r, colors = cfg.n, cfg.rank, cfg.colors
    ref = np.empty((r, n), dtype=_code_dtype(r))
    for points in cfg.fibers:
        row = colors[points[0]]
        cols = first_cells(row)     # n for a color absent from the row
        mine = np.flatnonzero(cols < n)
        ref[mine] = _row_signatures(colors.T, row, r, cols[mine])
    return ref


_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64_finalize(z):
    """The SplitMix64 output function of a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _splitmix64(seed, count):
    """The first ``count`` outputs of the SplitMix64 generator seeded with
    ``seed``, as uint64."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN_GAMMA
    return _splitmix64_finalize(steps + np.uint64(seed))


def _fingerprint_weights(count):
    """Fixed 64-bit weights: the SplitMix64 finalizer of 0..count-1."""
    return _splitmix64_finalize(
        np.arange(count, dtype=np.uint64) + _GOLDEN_GAMMA)


def _fingerprint_classes(colors, r):
    """Group the pairs by old color and a 64-bit fingerprint of their
    composition multisets, D[a,g] = sum_b h1[c(a,b)] * h2[c(b,g)] mod 2^64;
    ids in row-major first-occurrence order, independent of the weights."""
    n = colors.shape[0]
    weights = _fingerprint_weights(2 * r)
    right = weights[r:][colors]
    digests = np.empty((n, n), dtype=np.uint64)
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, n, step):
        np.matmul(weights[:r][colors[lo:lo + step]], right, out=digests[lo:lo + step])
    del right
    digests, flat = digests.ravel(), colors.ravel()
    order = np.lexsort((digests, flat))
    # a pair opens a class when its old color or its digest differs from
    # the previous pair's in sorted order; compared a block at a time
    opens = np.ones(n * n, dtype=bool)
    for lo in range(1, n * n, BLOCK_CELLS):
        at = order[lo - 1:lo + BLOCK_CELLS]
        ranked = digests[at]
        np.not_equal(ranked[1:], ranked[:-1], out=opens[lo:lo + BLOCK_CELLS])
        ranked = flat[at]
        opens[lo:lo + BLOCK_CELLS] |= ranked[1:] != ranked[:-1]
    del digests
    groups = np.empty(n * n, dtype=np.int32)
    groups[order] = np.cumsum(opens, dtype=np.int32)
    groups -= 1
    return canonicalize_colors(groups.reshape(n, n))


def _weisfeiler_leman(colors):
    """The coarsest coherent configuration refining a color matrix, by 2-dim
    Weisfeiler-Leman refinement.

    Each round recolors every pair by its old color and its composition
    multiset.  Multisets are grouped by fingerprint, so a round may merge
    two multisets (a collision) but never splits one.  Only the round whose
    fingerprint leaves the coloring unchanged is verified exactly, every
    class against its reference signature; a collision there splits every
    failing pair off its color, and refinement goes on.

    Why one verify suffices.  Refinement is monotone: if a coloring c is
    coarser than or equal to d, the refinement of c is coarser than or
    equal to that of d (Weisfeiler and Leman, 1968).  Let W be the closure
    of the input, which is its own refinement.  Fingerprint classes are
    unions of exact classes, so by induction every coloring met, verified
    or not, is coarser than or equal to W.  So is a split coloring: the
    pairs of a color that match its reference form one class of the exact
    round, and those that fail a union of such classes.  Neither part is
    empty, so each split raises the rank, and refinement ends.  The final
    coloring refines the input and passed the exact S3 check, so it is
    coherent and, W being the coarsest such, at least as fine as W.  It is
    therefore W, and as both carry first-occurrence ids, with the same ids.
    Its S3 check is done, so ``_checked_config`` skips it.

    ``colors`` must refine a coloring that satisfies S1, as every round's
    coloring then does too; ``_verify_classes`` relies on it.
    """
    colors = canonicalize_colors(colors)
    r = int(colors.max()) + 1
    while True:
        new = _fingerprint_classes(colors, r)
        if int(new.max()) + 1 == r:
            del new     # the fingerprint stopped refining, so new == colors
            first, bad = _verify_classes(colors, r)
            if bad is None:
                return _checked_config(colors, r, first, verified=True)
            rows, masks = bad
            new = colors.astype(_color_dtype(2 * r)) * 2
            new[rows] += masks
            new = canonicalize_colors(new)
        colors, r = new, int(new.max()) + 1


def validate_config(matrix, *, canonicalize=True):
    """Validate a color matrix and build the full CoherentConfig.

    Checks axioms S1 (diagonal is a union of colors), S2 (transpose-closed)
    and S3 (constant triple counts, verified over all pairs of every
    relation, not a sample); the intersection tensor is built on first
    read.  With ``canonicalize`` the ids are first relabeled to row-major
    first-occurrence order.
    """
    colors = np.asarray(matrix)
    if colors.dtype.kind not in "iu":
        colors = colors.astype(np.int64)
    # a copy either way, so the caller's matrix is never frozen
    return _validated(colors, canonicalize, copy=True)


def _validated(colors, canonicalize, copy=False):
    """``validate_config`` of an integer matrix.  Unless ``canonicalize``
    or ``copy``, a matrix that the caller hands over in the color type of
    its rank becomes the configuration's frozen colors; any other is copied
    into that type."""
    if colors.ndim != 2 or colors.shape[0] != colors.shape[1]:
        raise ValueError("color matrix must be square")
    n = colors.shape[0]
    if n == 0:
        raise ValueError("empty point set")
    if colors.min() < 0:
        raise ValueError("negative relation id")
    # contiguous ids are fewer than the n^2 cells, so a larger one fails
    # before anything is sized by it
    r = int(colors.max()) + 1
    if r > n * n:
        raise ValueError("relation ids must be contiguous from 0")
    first = None
    if canonicalize:
        # the first cells of the new ids are the old ones in ascending
        # order; an id that does not occur keeps the sentinel n^2
        first = first_cells(colors)
        colors, first = _relabeled(colors, first), np.sort(first)
    else:
        colors = colors.astype(_color_dtype(r), copy=copy)
    return _checked_config(colors, r, first)


def _checked_config(colors, r, first=None, verified=False):
    """Check that the ids are contiguous, then S1, S2, fibers and
    valencies, then S3 unless ``verified`` says that it has already passed.
    ``colors`` is in the color type of ``r`` and becomes the
    configuration's colors, so no n^2 temporary here is wider than it;
    ``first`` holds the first cell of each id, when the caller has them."""
    n = colors.shape[0]
    # The keys (r*R + s)*R + t of ``arrays()`` stay below 2^63.
    if r ** 3 >= 2 ** 63:
        raise TooLarge(f"rank {r} on {n} points exceeds the tensor key range "
                       "(rank^3 must stay below 2^63)")
    if first is None:
        first = first_cells(colors)
    if first.max() == colors.size:
        raise ValueError("relation ids must be contiguous from 0")
    # S1: a color that meets the diagonal must lie inside it.
    diag = colors.diagonal().copy()
    diag_counts = np.bincount(diag, minlength=r)
    # bincount copies its input to intp, so it reads a block of rows at a time
    step = max(1, BLOCK_CELLS // n)
    total_counts = sum(np.bincount(colors[lo:lo + step].ravel(), minlength=r)
                       for lo in range(0, n, step))
    mixed = np.flatnonzero((diag_counts > 0) & (diag_counts != total_counts))
    if mixed.size:
        s = int(mixed[0])
        raise AxiomS1Violated(
            f"color {s} has {int(diag_counts[s])} diagonal and "
            f"{int(total_counts[s] - diag_counts[s])} off-diagonal pairs")
    diagonal_colors = tuple(int(d) for d in np.flatnonzero(diag_counts > 0))

    # S2: the transpose of each color is a single color.  star[s] is the
    # color at the transpose of the first cell of s, and every cell of s
    # must have it at its transpose.
    star = colors[first % n, first // n]
    if not (star[colors] == colors.T).all():
        raise _split_transpose(colors, r)
    star = star.astype(np.int64)
    if not np.array_equal(star[star], np.arange(r)):
        raise AxiomS2Violated("star map is not an involution")

    # Fibers, and the source/target fiber of every relation: every cell of
    # s must lie in the row fiber of its first cell.  Under S2 the target
    # of s is then the source of s*.
    fiber_of_diag = {d: i for i, d in enumerate(diagonal_colors)}
    point_fiber = np.array([fiber_of_diag[int(d)] for d in diag], dtype=np.int64)
    fibers = tuple(np.flatnonzero(diag == d) for d in diagonal_colors)
    relation_source = point_fiber[first // n]
    if len(fibers) > 1:
        row_fiber = point_fiber.astype(colors.dtype)[:, None]
        if not (relation_source.astype(colors.dtype)[colors] == row_fiber).all():
            raise _crossed_source_fibers(colors, point_fiber, len(fibers))
    relation_target = relation_source[star]

    # Valencies: |alpha·s| constant over the source fiber (a special case of
    # S3 with the triple (s, s*, 1_fiber), checked here for a sharper error).
    valencies, s = _source_valencies(colors, fibers, total_counts)
    if s is not None:
        members = fibers[relation_source[s]]
        column = np.count_nonzero(colors[members] == s, axis=1)
        i = int(np.flatnonzero(column != valencies[s])[0])
        a0, bad = int(members[0]), int(members[i])
        raise AxiomS3Violated(
            f"valency of color {s} differs between points {a0} and {bad}",
            triple=(s, int(star[s]), int(diag[a0])),
            pairs=((a0, a0), (bad, bad)),
            counts=(int(valencies[s]), int(column[i])))

    # S3 in full: the sorted composition-code multiset of (alpha, gamma) must
    # be identical for all pairs of each color.  References are pinned at the
    # row-major first occurrence of every color, so an error names the first
    # deviating pair and the first pair of its color, the same on every run.
    if not verified:
        bad = _verify_classes(colors, r)[1]
        if bad is not None:
            alpha, gamma = int(bad[0][0]), int(np.flatnonzero(bad[1][0])[0])
            t = int(colors[alpha, gamma])
            t_row, t_col = divmod(int(first[t]), n)
            code, c1, c2 = _first_multiset_difference(
                _row_signatures(colors.T, colors[alpha], r, [gamma])[0],
                _row_signatures(colors.T, colors[t_row], r, [t_col])[0])
            rr, ss = divmod(code, r)
            raise AxiomS3Violated(
                f"c[{rr}][{ss}][{t}] is {c1} at pair ({alpha},{gamma}) but {c2} at "
                f"pair ({t_row},{t_col})",
                triple=(int(rr), int(ss), t),
                pairs=((alpha, gamma), (t_row, t_col)),
                counts=(c1, c2))

    return CoherentConfig(colors, star, diagonal_colors, fibers, point_fiber,
                          relation_source, relation_target, valencies)


def _split_transpose(colors, r):
    """The S2 error naming the first color whose transpose is split, and
    the colors it is split across."""
    pair_codes = np.unique(colors.astype(np.int64).ravel() * r + colors.T.ravel())
    c_of = pair_codes // r
    dup = int(c_of[np.flatnonzero(c_of[1:] == c_of[:-1])[0]])
    parts = pair_codes[c_of == dup] % r
    return AxiomS2Violated(
        f"transpose of color {dup} is split across colors {parts.tolist()}")


def _row_runs(rows):
    """Runs of equal entries in the rows of a row-sorted (m, n) matrix: the
    count per row, and each run's entry and length (in the color type of
    n + 1), row-major."""
    n = rows.shape[1]
    opens = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=opens[:, 1:])
    per_row = np.count_nonzero(opens, axis=1)
    start = np.broadcast_to(np.arange(n, dtype=_color_dtype(n + 1)), rows.shape)[opens]
    length = np.subtract(np.append(start[1:], start.dtype.type(0)), start)   # wraps at row ends
    last = np.cumsum(per_row) - 1
    length[last] = n - start[last]
    return per_row, rows[opens], length


def _source_valencies(colors, fibers, total_counts):
    """valencies[s] = |alpha·s| at the first point alpha of the source fiber
    of s, and the first color s whose count differs at some point of that
    fiber, or None.

    A row holds only colors whose source fiber is its point's (checked
    before), so the first row of each fiber gives the valencies of its
    colors.  Every point of the fiber holds valencies[s] cells of s exactly
    when each point holding one does and the total is the fiber size times
    that.  Those counts are the runs of the row-sorted matrix, taken a
    block of rows at a time."""
    n = colors.shape[0]
    valencies = np.zeros(total_counts.size, dtype=np.int64)
    off = np.zeros(total_counts.size, dtype=bool)
    for points in fibers:
        ids, counts = np.unique(colors[points[0]], return_counts=True)
        valencies[ids] = counts
        off[ids] = total_counts[ids] != points.size * counts
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, n, step):
        _, color, counts = _row_runs(np.sort(colors[lo:lo + step], axis=1))
        off[color[counts != valencies[color]]] = True
    return valencies, int(np.flatnonzero(off)[0]) if off.any() else None


def _crossed_source_fibers(colors, point_fiber, nf):
    """The error naming the first color whose pairs start in more than one
    of the nf fibers, and those fibers."""
    codes = np.unique(colors.astype(np.int64) * nf + point_fiber[:, None])
    owners = codes // nf
    dup = int(owners[np.flatnonzero(owners[1:] == owners[:-1])[0]])
    return AxiomS3Violated(
        f"color {dup} crosses source fibers {(codes[owners == dup] % nf).tolist()}",
        triple=None, pairs=None, counts=None)


def _first_multiset_difference(a, b):
    """First code whose multiplicity differs between two sorted arrays."""
    codes = np.union1d(a, b)
    ca = np.searchsorted(a, codes, side="right") - np.searchsorted(a, codes, side="left")
    cb = np.searchsorted(b, codes, side="right") - np.searchsorted(b, codes, side="left")
    i = int(np.flatnonzero(ca != cb)[0])
    return int(codes[i]), int(ca[i]), int(cb[i])


def tensor_support(cfg):
    """The dense (rank, rank, rank) boolean array of c_{rs}^t > 0: row t
    of the tensor's signature matrix holds the codes r*rank + s of every
    nonzero c_{rs}^t."""
    R = cfg.rank
    P = np.zeros((R * R, R), dtype=bool)
    P[cfg.tensor._ref, np.arange(R)[:, None]] = True
    return P.reshape(R, R, R)


def complex_product(cfg, r, s):
    """The set rs = {t : c_{rs}^t > 0} of basis relations in r·s."""
    cfg._check_id(r)
    cfg._check_id(s)
    return frozenset(cfg.tensor.products(r, s))


def indistinguishing_numbers(cfg):
    """c(s) = sum_t c_{t t*}^s for every color s, as one int array read off
    the runs of the tensor; c(1_Omega) = n."""
    _require_scheme(cfg)
    R = cfg.rank
    pair = np.zeros(R * R, dtype=bool)
    pair[np.arange(R) * R + cfg.star] = True    # codes t*R + t*
    out = np.zeros(R)
    for s, code, c in cfg.tensor.runs():
        keep = pair[code]
        out += np.bincount(s[keep], c[keep], R)
    return out.astype(np.int64)


def indistinguishing_number(cfg, s):
    """c(s) = sum_t c_{t t*}^s; counts points related equally to both ends
    of a pair in s.  c(1_Omega) = n."""
    _require_scheme(cfg)
    cfg._check_id(s)
    return int(indistinguishing_numbers(cfg)[s])


def reg_numbers(cfg):
    """reg(s) = sum_t c_{s t}^t for every color s, read off the runs of the
    tensor."""
    _require_scheme(cfg)
    R = cfg.rank
    out = np.zeros(R)
    for t, code, c in cfg.tensor.runs():
        keep = code % code.dtype.type(R) == t
        out += np.bincount(code[keep] // code.dtype.type(R), c[keep], R)
    return out.astype(np.int64)


def reg_number(cfg, s):
    """reg(s) = sum_t c_{s t}^t.

    The adjacency-algebra identity uses the starred indexing reg(s*); both
    are reachable from this function through the star map.
    """
    _require_scheme(cfg)
    cfg._check_id(s)
    return int(reg_numbers(cfg)[s])


def scheme_indistinguishing_number(cfg):
    """max c(s) over the non-diagonal relations (the scheme's c)."""
    _require_scheme(cfg)
    non = list(cfg.nondiagonal_colors)
    if not non:
        return 0
    return int(indistinguishing_numbers(cfg)[non].max())


def is_equivalenced(cfg):
    """The common valency k when all non-diagonal valencies agree, else None.

    The trivial rank-1 scheme is reported equivalenced of valency 1.
    """
    _require_scheme(cfg)
    vals = {int(cfg.valencies[s]) for s in cfg.nondiagonal_colors}
    if not vals:
        return 1
    if len(vals) == 1:
        return vals.pop()
    return None


def is_pseudocyclic_combinatorial(cfg):
    """The valency k when the scheme is equivalenced with c(r) = k - 1 for
    every non-diagonal r, else None."""
    k = is_equivalenced(cfg)
    if k is None:
        return None
    c = indistinguishing_numbers(cfg)[list(cfg.nondiagonal_colors)]
    return k if (c == k - 1).all() else None


def is_commutative(cfg):
    """Whether c_{rs}^t = c_{sr}^t for all triples."""
    T = cfg.tensor
    R = T._ref.dtype.type(cfg.rank)
    return T.relabeled_equals(T, lambda r, s: s * R + r, np.arange(cfg.rank))


def is_symmetric(cfg):
    """Whether every relation is its own transpose."""
    return bool(np.array_equal(cfg.star, np.arange(cfg.rank)))


def same_partition(cfg1, cfg2):
    """Whether two configurations induce the same partition of pairs."""
    if cfg1.n != cfg2.n or cfg1.rank != cfg2.rank:
        return False
    return partition_bijection(cfg1, cfg2) is not None


def partition_bijection(cfg1, cfg2):
    """Color bijection identifying equal pair partitions, else None.

    Matching is by co-occurrence (greedy first occurrence), which is unique
    whenever the partitions coincide.
    """
    if cfg1.n != cfg2.n:
        return None
    r1, r2 = cfg1.rank, cfg2.rank
    codes = np.unique(cfg1.colors.astype(np.int64).ravel() * r2 + cfg2.colors.ravel())
    if codes.size != r1 or codes.size != r2:
        return None
    a = codes // r2
    b = codes % r2
    if np.unique(a).size != r1 or np.unique(b).size != r2:
        return None
    mapping = np.empty(r1, dtype=np.int64)
    mapping[a] = b
    return mapping
