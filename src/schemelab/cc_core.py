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
* The tensor is stored sparsely as two flat arrays: the strictly increasing
  int64 keys (r*R + s)*R + t of the nonzero c_{rs}^t, R the rank, and their
  counts.  One-point extensions of a scheme on n points have rank comparable
  to n^2/4, which neither a dense R^3 array nor one Python dict per (r, s)
  can accommodate.  The build packs key*(n+1) + count into one int64 and
  sorts it in place, so R^3 (n+1) must stay below 2^63; every R <= n^2
  with n <= 511 does, and a configuration past that range raises
  ``TooLarge``.  Callers read it through ``IntersectionTensor``: single
  entries, ``products`` slices and the coordinate arrays ``arrays()``.
* S3 and the Weisfeiler-Leman closure share one kernel: the sorted
  composition codes color(a,b)*r + color(b,g) of one row of pairs
  (``_row_signatures``), checked class by class against the signature of
  each class's first pair (``_verify_classes``), one fiber at a time, so
  only the references of the current fiber's classes are alive.  S1-S3
  are checked when the configuration is made, and it keeps no reference
  signatures.  The tensor is built on first read: the references are
  rebuilt from one row signature per fiber (``_reference_signatures``) and
  packed, so a caller that never reads the tensor (a one-point extension
  asked only for its rank and fibers) pays for neither.
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

TENSOR_BUILD_CELLS = 1 << 16    # cells of ``ref`` packed per step of the tensor build
BLOCK_CELLS = 1 << 14           # cells per step of every other blocked n^2 pass


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
    first = first_cells(colors)
    r = first.size
    order = np.argsort(first, kind="stable")
    relabel = np.empty(r, dtype=_color_dtype(r))
    relabel[order] = np.arange(r)
    return relabel[colors]


class IntersectionTensor:
    """Intersection numbers c_{rs}^t of a coherent configuration.

    Only the nonzero entries are stored, as the sorted keys
    (r*rank + s)*rank + t and their counts.
    """

    def __init__(self, rank, keys, counts):
        self.rank = rank
        self._keys = keys        # int64, strictly increasing
        self._counts = counts    # int64, all > 0
        keys.setflags(write=False)
        counts.setflags(write=False)

    def __getitem__(self, rst):
        r, s, t = rst
        R = self.rank
        if 0 <= r < R and 0 <= s < R and 0 <= t < R:
            key = (int(r) * R + int(s)) * R + int(t)
            i = self._keys.searchsorted(key)
            if i < self._keys.size and self._keys[i] == key:
                return int(self._counts[i])
        return 0

    def products(self, r, s):
        """Nonzero slice {t: c_{rs}^t} for fixed (r, s), in ascending t."""
        R = self.rank
        base = (int(r) * R + int(s)) * R
        lo, hi = np.searchsorted(self._keys, (base, base + R))
        return dict(zip((self._keys[lo:hi] - base).tolist(),
                        self._counts[lo:hi].tolist()))

    def items(self):
        """Iterate ((r, s, t), c) over nonzero entries in ascending key order."""
        u, s, t, c = self.arrays()
        for r, s, t, c in zip(u.tolist(), s.tolist(), t.tolist(), c.tolist()):
            yield (r, s, t), c

    def nonzero_count(self):
        return int(self._keys.size)

    def arrays(self):
        """Nonzero entries as flat int64 arrays (r, s, t, c), sorted by
        (r, s, t)."""
        R = self.rank
        rs, t = np.divmod(self._keys, R)
        r, s = np.divmod(rs, R)
        return r, s, t, self._counts


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
    tensor : IntersectionTensor, built on first read from the reference
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
            self._tensor = _tensor_from_signatures(
                _reference_signatures(self), self.rank)
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


def _code_matrix(colors, r):
    """The transposed color matrix, in the code type ``_code_dtype(r)``."""
    return np.ascontiguousarray(colors.T, dtype=_code_dtype(r))


def _row_signatures(colors_t, row, r):
    """Sorted composition codes of pairs (alpha, gamma) of one row: ``row``
    holds color(alpha, beta) over beta, and row i of ``colors_t`` (from
    ``_code_matrix``) color(beta, gamma) for the i-th gamma, so row i of the
    result holds the multiset {color(alpha,beta)*r + color(beta,gamma) : beta}."""
    code = row.astype(colors_t.dtype) * colors_t.dtype.type(r) + colors_t
    code.sort(axis=1)
    return code


def _verify_classes(colors, r):
    """Check that all pairs of each color have one composition multiset.

    Codes are taken in ``colors`` (r colors), which must satisfy S1.  The
    reference of a color is the signature of its first pair in row-major
    order.  The rows are walked one fiber at a time (points grouped by
    diagonal color, ascending within each), and only the references of the
    colors whose first pair lies in the current fiber are held.  A color met
    in the rows of another fiber fails there, as it would against its
    reference: under S1 the signature of (alpha, gamma) holds the code
    color(alpha, alpha)*r + color(alpha, gamma), and no pair of another
    fiber's rows has it.  Returns (first_cell, bad): the flat index of every
    reference pair, and the first pair (alpha, gamma) in row-major order
    whose signature differs from its reference, or None.
    """
    n = colors.shape[0]
    colors_t = _code_matrix(colors, r)
    first_cell = first_cells(colors)
    by_first = np.argsort(first_cell)
    row_start = np.searchsorted(first_cell[by_first], np.arange(n + 1) * n)
    diag = colors.diagonal()
    first_diag = diag[first_cell // n]
    bad = None
    for d in np.flatnonzero(np.bincount(diag)):
        mine = first_diag == d
        slot = np.cumsum(mine) - 1      # the row of ``ref`` of each color of the fiber
        ref = np.empty((int(slot[-1]) + 1, n), dtype=colors_t.dtype)
        for alpha in np.flatnonzero(diag == d):
            if bad is not None and alpha > bad[0]:
                break
            row = colors[alpha]
            sig = _row_signatures(colors_t, row, r)
            opened = by_first[row_start[alpha]:row_start[alpha + 1]]
            ref[slot[opened]] = sig[first_cell[opened] % n]
            ok = (sig == ref[slot[row]]).all(axis=1) & mine[row]
            if not ok.all():
                bad = (int(alpha), int(np.flatnonzero(~ok)[0]))
                break
    return first_cell, bad


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
        ref[mine] = _row_signatures(_code_matrix(colors[:, cols[mine]], r), row, r)
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


def _exact_regroup(colors, r):
    """Collision-proof refinement step keyed on raw sorted-code bytes."""
    n = colors.shape[0]
    colors_t = _code_matrix(colors, r)
    mapping = {}
    new = np.empty((n, n), dtype=np.int32)
    for alpha in range(n):
        sig = _row_signatures(colors_t, colors[alpha], r)
        for gamma in range(n):
            key = (int(colors[alpha, gamma]), sig[gamma].tobytes())
            new[alpha, gamma] = mapping.setdefault(key, len(mapping))
    return new.astype(_color_dtype(len(mapping)))


def _weisfeiler_leman(colors):
    """The coarsest coherent configuration refining a color matrix, by 2-dim
    Weisfeiler-Leman refinement.

    Each round recolors every pair by its old color and its composition
    multiset.  Multisets are grouped by fingerprint, so a round may merge
    two multisets (a collision) but never splits one.  Only the round whose
    fingerprint leaves the coloring unchanged is verified exactly, every
    class against its reference signature; a collision there sends that
    round to exact raw-byte grouping, and refinement goes on.

    Why one verify suffices.  Refinement is monotone: if a coloring c is
    coarser than or equal to d, the refinement of c is coarser than or
    equal to that of d (Weisfeiler and Leman, 1968).  Let W be the closure
    of the input, which is its own refinement.  Fingerprint classes are
    unions of exact classes, so by induction every coloring met, verified
    or not, is coarser than or equal to W.  The final coloring refines the
    input and passed the exact S3 check, so it is coherent and, W being
    the coarsest such, at least as fine as W.  It is therefore W, and as
    both carry first-occurrence ids, with the same ids.  Its S3 check is
    done, so ``_checked_config`` skips it.

    ``colors`` must refine a coloring that satisfies S1, as every round's
    coloring then does too; ``_verify_classes`` relies on it.
    """
    colors = canonicalize_colors(colors)
    r = int(colors.max()) + 1
    while True:
        new = _fingerprint_classes(colors, r)
        if int(new.max()) + 1 == r:
            del new     # the fingerprint stopped refining, so new == colors
            if _verify_classes(colors, r)[1] is None:
                return _checked_config(colors, r, verified=True)
            new = _exact_regroup(colors, r)
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
    if r > n * n or first_cells(colors).max() == colors.size:
        raise ValueError("relation ids must be contiguous from 0")
    if canonicalize:
        colors = canonicalize_colors(colors)
    else:
        colors = colors.astype(_color_dtype(r), copy=copy)
    return _checked_config(colors, r)


def _checked_config(colors, r, verified=False):
    """Check S1, S2, fibers and valencies, then S3 unless ``verified``
    says that it has already passed.  ``colors`` is in the color type of
    ``r`` and becomes the configuration's colors, so no n^2 temporary here
    is wider than it."""
    n = colors.shape[0]
    # The packed tensor build needs every key*(n+1) + count below 2^63.
    if r ** 3 * (n + 1) >= 2 ** 63:
        raise TooLarge(f"rank {r} on {n} points exceeds the tensor key range "
                       "(rank^3 * (n + 1) must stay below 2^63)")
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
    first = first_cells(colors)
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
        first_cell, bad = _verify_classes(colors, r)
        if bad is not None:
            alpha, gamma = bad
            t = int(colors[alpha, gamma])
            t_row, t_col = divmod(int(first_cell[t]), n)
            colors_t = _code_matrix(colors, r)
            code, c1, c2 = _first_multiset_difference(
                _row_signatures(colors_t, colors[alpha], r)[gamma],
                _row_signatures(colors_t, colors[t_row], r)[t_col])
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
    """The flat start and the length of every run of equal entries in the
    rows of a row-sorted matrix of fewer than 2^31 cells, in int32."""
    opens = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=opens[:, 1:])
    starts = np.flatnonzero(opens).astype(np.int32)
    return starts, np.diff(starts, append=np.int32(rows.size))


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
        by_row = np.sort(colors[lo:lo + step], axis=1)
        starts, counts = _row_runs(by_row)
        color = by_row.ravel()[starts]
        off[color[counts != valencies[color]]] = True
    return valencies, int(np.flatnonzero(off)[0]) if off.any() else None


def _tensor_from_signatures(ref, r):
    """The tensor from the reference signatures: row t of ``ref`` holds the
    sorted composition codes u*r + s of one pair of color t, so each run of
    equal codes in it is one nonzero c_{us}^t.

    Each nonzero is packed as key*(n+1) + count in one int64 (a run is at
    most n long, and keys are distinct), a block of rows at a time; the
    packed array is sorted and unpacked in place.  Besides the two result
    arrays only one block's scratch is live."""
    rows, n = ref.shape
    step = max(1, TENSOR_BUILD_CELLS // n)
    blocks = [(lo, ref[lo:lo + step]) for lo in range(0, rows, step)]
    nnz = rows + sum(np.count_nonzero(b[:, 1:] != b[:, :-1]) for _, b in blocks)
    packed = np.empty(nnz, dtype=np.int64)
    end = 0
    for lo, block in blocks:
        starts, counts = _row_runs(block)
        keys = block.ravel()[starts].astype(np.int64) * r + (starts // n + lo)
        packed[end:end + starts.size] = keys * (n + 1) + counts
        end += starts.size
    packed.sort()
    counts = np.remainder(packed, n + 1)
    keys = np.floor_divide(packed, n + 1, out=packed)
    return IntersectionTensor(r, keys, counts)


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
    """The dense (rank, rank, rank) boolean array of c_{rs}^t > 0, read off
    the reference signatures, so that no tensor is built for it: row t of
    ``_reference_signatures`` holds the codes r*rank + s of every nonzero
    c_{rs}^t."""
    R = cfg.rank
    P = np.zeros((R * R, R), dtype=bool)
    P[_reference_signatures(cfg), np.arange(R)[:, None]] = True
    return P.reshape(R, R, R)


def complex_product(cfg, r, s):
    """The set rs = {t : c_{rs}^t > 0} of basis relations in r·s."""
    cfg._check_id(r)
    cfg._check_id(s)
    return frozenset(cfg.tensor.products(r, s))


def indistinguishing_numbers(cfg):
    """c(s) = sum_t c_{t t*}^s for every color s, as one int array read off
    the tensor in a single pass; c(1_Omega) = n."""
    _require_scheme(cfg)
    r, s, t, c = cfg.tensor.arrays()
    keep = s == cfg.star[r]
    out = np.zeros(cfg.rank, dtype=np.int64)
    np.add.at(out, t[keep], c[keep])
    return out


def indistinguishing_number(cfg, s):
    """c(s) = sum_t c_{t t*}^s; counts points related equally to both ends
    of a pair in s.  c(1_Omega) = n."""
    _require_scheme(cfg)
    cfg._check_id(s)
    return int(indistinguishing_numbers(cfg)[s])


def reg_numbers(cfg):
    """reg(s) = sum_t c_{s t}^t for every color s, in one pass over the tensor."""
    _require_scheme(cfg)
    r, t, u, c = cfg.tensor.arrays()
    return np.bincount(r[t == u], c[t == u], cfg.rank).astype(np.int64)


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
    R = cfg.rank
    r, s, t, c = cfg.tensor.arrays()
    swapped = (s * R + r) * R + t
    order = np.argsort(swapped)
    return bool(np.array_equal(swapped[order], (r * R + s) * R + t)
                and np.array_equal(c[order], c))


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
