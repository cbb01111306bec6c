"""Coherent configurations: color-matrix data model and intersection numbers.

A configuration on n points is stored as an n x n integer matrix of relation
ids ("colors").  ``validate_config`` checks the three defining axioms (the
diagonal is a union of colors, the color partition is transpose-closed, and
all triple intersection counts are constant on each color), then returns an
immutable ``CoherentConfig`` carrying the star map, fibers, valencies and the
full intersection tensor.

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
  can accommodate (R <= n^2 <= 250000 keeps R^3 inside int64).  Callers read
  it through ``IntersectionTensor``: single entries, ``products`` slices,
  the coordinate arrays ``arrays()``, and a dense view for small ranks via
  ``as_array``.
* S3 and the Weisfeiler-Leman closure share one kernel: the sorted
  composition codes color(a,b)*r + color(b,g) of one row of pairs
  (``_row_signatures``), checked class by class against the signature of
  each class's first pair (``_verify_classes``).  The tensor is read off
  those reference signatures.
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


def canonicalize_colors(colors):
    """Relabel color ids to first-occurrence order in a row-major scan."""
    colors = np.ascontiguousarray(colors, dtype=np.int64)
    flat = colors.ravel()
    r = int(flat.max()) + 1
    first = np.full(r, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size, dtype=np.int64))
    order = np.argsort(first, kind="stable")
    relabel = np.empty(r, dtype=np.int64)
    relabel[order] = np.arange(r, dtype=np.int64)
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

    def as_array(self, max_rank=150):
        """Dense (r, r, r) int array; refuses for large ranks."""
        if self.rank > max_rank:
            raise TooLarge(f"rank {self.rank} exceeds dense-tensor cap {max_rank}")
        arr = np.zeros((self.rank,) * 3, dtype=np.int64)
        arr.ravel()[self._keys] = self._counts
        return arr


class CoherentConfig:
    """A validated coherent configuration (immutable).

    Attributes
    ----------
    colors : (n, n) int array of relation ids
    star : length-r array, star[s] = s*
    diagonal_colors : tuple of ids covering the diagonal
    fibers : tuple of point arrays, ordered by diagonal color id
    point_fiber : length-n array of fiber indices
    relation_source, relation_target : length-r arrays of fiber indices
    valencies : length-r array, n_s per relation (per source fiber)
    tensor : IntersectionTensor
    """

    def __init__(self, colors, star, diagonal_colors, fibers, point_fiber,
                 relation_source, relation_target, valencies, tensor):
        self.colors = colors
        self.star = star
        self.diagonal_colors = diagonal_colors
        self.fibers = fibers
        self.point_fiber = point_fiber
        self.relation_source = relation_source
        self.relation_target = relation_target
        self.valencies = valencies
        self.tensor = tensor
        for arr in (colors, star, point_fiber, relation_source,
                    relation_target, valencies):
            arr.setflags(write=False)

    @property
    def n(self):
        return self.colors.shape[0]

    @property
    def rank(self):
        return len(self.star)

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


def _code_matrix(colors, r):
    """The transposed color matrix, in the narrowest integer type that holds
    every composition code u*r + s < r^2."""
    dtype = np.int32 if r * r <= 2**31 else np.int64
    return np.ascontiguousarray(colors.T, dtype=dtype)


def _row_signatures(colors_t, alpha, r):
    """Sorted composition codes of every pair (alpha, gamma); row gamma holds
    the multiset {color(alpha,beta)*r + color(beta,gamma) : beta}.
    ``colors_t`` comes from ``_code_matrix``."""
    code = colors_t[:, alpha] * colors_t.dtype.type(r) + colors_t
    code.sort(axis=1)
    return code


def _verify_classes(colors, r, classes):
    """Check that all pairs of each class have one composition multiset.

    Codes are taken in ``colors`` (r colors); ``classes`` partitions the
    pairs into ids 0..m-1.  The reference of a class is the signature of its
    first pair in row-major order.  Returns (ref, first_cell, bad): the
    (m, n) reference signatures, the flat index of every reference pair, and
    the first pair (alpha, gamma) in row-major order whose signature differs
    from its reference, or None.  When ``bad`` is set, only the references
    of classes met before it are filled in.
    """
    n = colors.shape[0]
    colors_t = _code_matrix(colors, r)
    m = int(classes.max()) + 1
    first_cell = np.full(m, n * n, dtype=np.int64)
    np.minimum.at(first_cell, classes.ravel(), np.arange(n * n, dtype=np.int64))
    by_first = np.argsort(first_cell)
    row_start = np.searchsorted(first_cell[by_first], np.arange(n + 1) * n)
    ref = np.empty((m, n), dtype=colors_t.dtype)
    for alpha in range(n):
        sig = _row_signatures(colors_t, alpha, r)
        opened = by_first[row_start[alpha]:row_start[alpha + 1]]
        ref[opened] = sig[first_cell[opened] % n]
        ok = (sig == ref[classes[alpha]]).all(axis=1)
        if not ok.all():
            return ref, first_cell, (alpha, int(np.flatnonzero(~ok)[0]))
    return ref, first_cell, None


def _fingerprint_weights(count):
    """Fixed 64-bit weights: the SplitMix64 finalizer of 0..count-1."""
    z = np.arange(count, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _fingerprint_classes(colors, r):
    """Group the pairs by old color and a 64-bit fingerprint of their
    composition multisets, D[a,g] = sum_b h1[c(a,b)] * h2[c(b,g)] mod 2^64;
    ids in row-major first-occurrence order, independent of the weights."""
    n = colors.shape[0]
    weights = _fingerprint_weights(2 * r)
    digests = (weights[:r][colors] @ weights[r:][colors]).ravel()
    flat = colors.ravel()
    order = np.lexsort((digests, flat))
    opens = np.ones(n * n, dtype=bool)
    opens[1:] = (flat[order[1:]] != flat[order[:-1]]) | (
        digests[order[1:]] != digests[order[:-1]])
    groups = np.empty(n * n, dtype=np.int64)
    groups[order] = np.cumsum(opens) - 1
    return canonicalize_colors(groups.reshape(n, n))


def _exact_regroup(colors, r):
    """Collision-proof refinement step keyed on raw sorted-code bytes."""
    n = colors.shape[0]
    colors_t = _code_matrix(colors, r)
    mapping = {}
    new = np.empty((n, n), dtype=np.int64)
    for alpha in range(n):
        sig = _row_signatures(colors_t, alpha, r)
        for gamma in range(n):
            key = (int(colors[alpha, gamma]), sig[gamma].tobytes())
            new[alpha, gamma] = mapping.setdefault(key, len(mapping))
    return new


def _weisfeiler_leman(colors):
    """The coarsest coherent configuration refining a color matrix, by 2-dim
    Weisfeiler-Leman refinement.

    Each round recolors every pair by its old color and its composition
    multiset.  Multisets are grouped by fingerprint, then every class is
    verified exactly against its reference signature; a class holding two
    multisets (a fingerprint collision) sends the round to exact raw-byte
    grouping.  The round that verifies and leaves the coloring unchanged
    has already proved S3, so its references give the tensor.
    """
    colors = canonicalize_colors(colors)
    r = int(colors.max()) + 1
    while True:
        new = _fingerprint_classes(colors, r)
        ref, _, bad = _verify_classes(colors, r, new)
        if bad is not None:
            new = _exact_regroup(colors, r)
        elif int(new.max()) + 1 == r:
            return _checked_config(colors, r, ref)
        colors, r = new, int(new.max()) + 1


def validate_config(matrix, *, canonicalize=True):
    """Validate a color matrix and build the full CoherentConfig.

    Checks axioms S1 (diagonal is a union of colors), S2 (transpose-closed)
    and S3 (constant triple counts, verified over all pairs of every
    relation, not a sample), computing the intersection tensor along the
    way.  With ``canonicalize`` the ids are first relabeled to row-major
    first-occurrence order.
    """
    colors = np.array(matrix, dtype=np.int64)
    if colors.ndim != 2 or colors.shape[0] != colors.shape[1]:
        raise ValueError("color matrix must be square")
    n = colors.shape[0]
    if n == 0:
        raise ValueError("empty point set")
    if colors.min() < 0:
        raise ValueError("negative relation id")
    r = int(colors.max()) + 1
    if np.bincount(colors.ravel(), minlength=r).min() == 0:
        raise ValueError("relation ids must be contiguous from 0")
    if canonicalize:
        colors = canonicalize_colors(colors)
    return _checked_config(colors, r)


def _checked_config(colors, r, ref=None):
    """Check S1, S2, fibers and valencies, then S3 unless ``ref`` already
    holds the verified reference signatures of every color."""
    n = colors.shape[0]
    # S1: a color that meets the diagonal must lie inside it.
    diag = colors.diagonal().copy()
    diag_counts = np.bincount(diag, minlength=r)
    total_counts = np.bincount(colors.ravel(), minlength=r)
    mixed = np.flatnonzero((diag_counts > 0) & (diag_counts != total_counts))
    if mixed.size:
        s = int(mixed[0])
        raise AxiomS1Violated(
            f"color {s} has {int(diag_counts[s])} diagonal and "
            f"{int(total_counts[s] - diag_counts[s])} off-diagonal pairs")
    diagonal_colors = tuple(int(d) for d in np.flatnonzero(diag_counts > 0))

    # S2: the transpose of each color is a single color.
    pair_codes = np.unique(colors.ravel() * np.int64(r) + colors.T.ravel())
    if pair_codes.size != r:
        c_of = pair_codes // r
        dup = int(c_of[np.flatnonzero(c_of[1:] == c_of[:-1])[0]])
        parts = pair_codes[c_of == dup] % r
        raise AxiomS2Violated(
            f"transpose of color {dup} is split across colors {parts.tolist()}")
    star = np.empty(r, dtype=np.int64)
    star[pair_codes // r] = pair_codes % r
    if not np.array_equal(star[star], np.arange(r)):
        raise AxiomS2Violated("star map is not an involution")

    # Fibers, and the source/target fiber of every relation.
    fiber_of_diag = {d: i for i, d in enumerate(diagonal_colors)}
    point_fiber = np.array([fiber_of_diag[int(d)] for d in diag], dtype=np.int64)
    nf = len(diagonal_colors)
    fibers = tuple(np.flatnonzero(diag == d) for d in diagonal_colors)
    relation_source = _relation_fibers(colors, point_fiber, nf, r, axis=0)
    relation_target = _relation_fibers(colors, point_fiber, nf, r, axis=1)

    # Valencies: |alpha·s| constant over the source fiber (a special case of
    # S3 with the triple (s, s*, 1_fiber), checked here for a sharper error).
    rowcount = np.zeros((n, r), dtype=np.int64)
    np.add.at(rowcount, (np.arange(n)[:, None], colors), 1)
    source_point = np.array([f[0] for f in fibers])[relation_source]
    valencies = rowcount[source_point, np.arange(r)]
    off = (rowcount != valencies) & (point_fiber[:, None] == relation_source)
    if off.any():
        s = int(np.flatnonzero(off.any(axis=0))[0])
        a0, bad = int(source_point[s]), int(np.flatnonzero(off[:, s])[0])
        raise AxiomS3Violated(
            f"valency of color {s} differs between points {a0} and {bad}",
            triple=(s, int(star[s]), int(diag[a0])),
            pairs=((a0, a0), (bad, bad)),
            counts=(int(valencies[s]), int(rowcount[bad, s])))

    # S3 in full: the sorted composition-code multiset of (alpha, gamma) must
    # be identical for all pairs of each color.  References are pinned at the
    # row-major first occurrence of every color, so an error names the first
    # deviating pair and the first pair of its color, the same on every run.
    if ref is None:
        ref, first_cell, bad = _verify_classes(colors, r, colors)
        if bad is not None:
            alpha, gamma = bad
            t = int(colors[alpha, gamma])
            t_row, t_col = divmod(int(first_cell[t]), n)
            sig = _row_signatures(_code_matrix(colors, r), alpha, r)[gamma]
            code, c1, c2 = _first_multiset_difference(sig, ref[t])
            rr, ss = divmod(code, r)
            raise AxiomS3Violated(
                f"c[{rr}][{ss}][{t}] is {c1} at pair ({alpha},{gamma}) but {c2} at "
                f"pair ({t_row},{t_col})",
                triple=(int(rr), int(ss), t),
                pairs=((alpha, gamma), (t_row, t_col)),
                counts=(c1, c2))

    tensor = _tensor_from_signatures(ref, r)

    return CoherentConfig(colors, star, diagonal_colors, fibers, point_fiber,
                          relation_source, relation_target, valencies, tensor)


def _tensor_from_signatures(ref, r):
    """The tensor from the reference signatures: row t of ``ref`` holds the
    sorted composition codes u*r + s of one pair of color t, so each run of
    equal codes in it is one nonzero c_{us}^t."""
    rows, n = ref.shape
    starts = np.ones((rows, n), dtype=bool)
    np.not_equal(ref[:, 1:], ref[:, :-1], out=starts[:, 1:])
    starts = np.flatnonzero(starts)
    counts = np.diff(starts, append=rows * n)
    keys = ref.ravel()[starts] * np.int64(r) + starts // n
    order = np.argsort(keys)
    return IntersectionTensor(r, keys[order], counts[order])


def _relation_fibers(colors, point_fiber, nf, r, axis):
    """Fiber index of every relation on the given side; raises if mixed."""
    if axis == 0:
        codes = colors * np.int64(nf) + point_fiber[:, None]
    else:
        codes = colors * np.int64(nf) + point_fiber[None, :]
    uniq = np.unique(codes.ravel())
    owners = uniq // nf
    if uniq.size != r:
        dup = int(owners[np.flatnonzero(owners[1:] == owners[:-1])[0]])
        side = "source" if axis == 0 else "target"
        raise AxiomS3Violated(
            f"color {dup} crosses {side} fibers "
            f"{(uniq[owners == dup] % nf).tolist()}",
            triple=None, pairs=None, counts=None)
    out = np.empty(r, dtype=np.int64)
    out[owners] = uniq % nf
    return out


def _first_multiset_difference(a, b):
    """First code whose multiplicity differs between two sorted arrays."""
    codes = np.union1d(a, b)
    ca = np.searchsorted(a, codes, side="right") - np.searchsorted(a, codes, side="left")
    cb = np.searchsorted(b, codes, side="right") - np.searchsorted(b, codes, side="left")
    i = int(np.flatnonzero(ca != cb)[0])
    return int(codes[i]), int(ca[i]), int(cb[i])


def complex_product(cfg, r, s):
    """The set rs = {t : c_{rs}^t > 0} of basis relations in r·s."""
    cfg._check_id(r)
    cfg._check_id(s)
    return frozenset(cfg.tensor.products(r, s))


def indistinguishing_number(cfg, s):
    """c(s) = sum_t c_{t t*}^s; counts points related equally to both ends
    of a pair in s.  c(1_Omega) = n."""
    _require_scheme(cfg)
    cfg._check_id(s)
    star = cfg.star
    return int(sum(cfg.tensor[t, int(star[t]), s] for t in range(cfg.rank)))


def reg_number(cfg, s):
    """reg(s) = sum_t c_{s t}^t.

    The adjacency-algebra identity uses the starred indexing reg(s*); both
    are reachable from this function through the star map.
    """
    _require_scheme(cfg)
    cfg._check_id(s)
    return int(sum(cfg.tensor[s, t, t] for t in range(cfg.rank)))


def scheme_indistinguishing_number(cfg):
    """max c(s) over the non-diagonal relations (the scheme's c)."""
    _require_scheme(cfg)
    non = cfg.nondiagonal_colors
    if not non:
        return 0
    return max(indistinguishing_number(cfg, s) for s in non)


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
    for s in cfg.nondiagonal_colors:
        if indistinguishing_number(cfg, s) != k - 1:
            return None
    return k


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
    codes = np.unique(cfg1.colors.ravel() * np.int64(r2) + cfg2.colors.ravel())
    if codes.size != r1 or codes.size != r2:
        return None
    a = codes // r2
    b = codes % r2
    if np.unique(a).size != r1 or np.unique(b).size != r2:
        return None
    mapping = np.empty(r1, dtype=np.int64)
    mapping[a] = b
    return mapping
