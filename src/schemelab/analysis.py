"""Algebraic isomorphisms and their one-point extensions, schurity and
separability testing, fusions, the t-condition, affine recognition, and
2-design extraction.

The algebraic automorphism group and single algebraic isomorphisms come
from ``permgroup``'s individualization-refinement search run on the colors,
refined by the intersection tensor; separability realizes only the group's
generators and one map per target.  Separability is decidable here only
against self-maps (plus any explicitly supplied targets); reports label
that scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cc_core, permgroup
from .cc_core import CoherentConfig, _require_scheme
from .errors import (
    NotAnAlgebraicAutomorphism,
    NotCoherent,
    AxiomS3Violated,
    RankTooLarge,
    TooLarge,
    ValencyTooSmall,
    ValidationFailed,
)

ISO_RANK_CAP = 200
T_CONDITION_POINT_CAP = 100


@dataclass(frozen=True)
class ColorBijection:
    """A candidate algebraic isomorphism between two configurations."""
    source: cc_core.CoherentConfig
    target: cc_core.CoherentConfig
    mapping: tuple

    def __post_init__(self):
        if len(self.mapping) != self.source.rank or self.source.rank != self.target.rank:
            raise ValueError("mapping length must equal the common rank")

    def __call__(self, s):
        return self.mapping[s]

    def is_valid(self):
        """Whether every intersection number is preserved."""
        R = self.source.rank
        if sorted(self.mapping) != list(range(R)):
            return False
        T = self.source.tensor
        m = np.asarray(self.mapping, dtype=cc_core._code_dtype(R))
        return T.relabeled_equals(self.target.tensor,
                                  lambda r, s: m[r] * m.dtype.type(R) + m[s], m)

    def inverse(self):
        inv = [0] * len(self.mapping)
        for s, t in enumerate(self.mapping):
            inv[t] = s
        return ColorBijection(self.target, self.source, tuple(inv))

    def compose(self, other):
        """self then other (source of self to target of other)."""
        return ColorBijection(self.source, other.target,
                              tuple(other.mapping[t] for t in self.mapping))

    @classmethod
    def identity(cls, cfg):
        return cls(cfg, cfg, tuple(range(cfg.rank)))


def _colors(cfg):
    """The refinement of the colors by the tensor, and its root partition:
    the colors by (valency, diagonal).

    The codes of color x are (role, cells of the other two colors, c), one
    for every nonzero c_{ab}^t in which x is a, b or t, padded with zeros to
    the longest row.  Codes are positive, since c > 0.  Refuses ranks above
    ``ISO_RANK_CAP``.
    """
    r = cfg.rank
    if r > ISO_RANK_CAP:
        raise RankTooLarge(f"rank {r} exceeds algebraic search cap {ISO_RANK_CAP}")
    a, b, t, c = cfg.tensor.arrays()
    owner = np.concatenate((a, b, t))
    order = np.argsort(owner, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(owner.size) - np.searchsorted(owner[order], owner[order])
    role = np.repeat(np.arange(3), c.size)
    one, two = np.concatenate((b, a, a)), np.concatenate((t, t, b))
    count = np.tile(c, 3)
    scale = int(c.max()) + 1

    def codes(cells, m):
        out = np.zeros((r, int(slot.max()) + 1), dtype=np.int64)
        out[owner, slot] = ((role * m + cells[one]) * m + cells[two]) * scale + count
        return out

    diagonal = np.isin(np.arange(r), cfg.diagonal_colors)
    _, root = np.unique(cfg.valencies * 2 + diagonal, return_inverse=True)
    return permgroup.equitable_refinement(codes), root.ravel()


def algebraic_automorphism_group(cfg):
    """AAut(cfg), the tensor-preserving color permutations, as a
    ``PermutationGroup`` on the colors, found by individualization-refinement
    on the tensor; every generator is checked by ``ColorBijection.is_valid``."""
    return permgroup.search_group(
        *_colors(cfg), lambda f: ColorBijection(cfg, cfg, tuple(f.tolist())).is_valid())


def algebraic_isomorphism(cfg1, cfg2):
    """One tensor-preserving color bijection cfg1 -> cfg2, or None.

    Degrees must match; a rank mismatch yields None.  Every algebraic
    isomorphism is this one followed by an element of AAut(cfg2)."""
    if cfg1.n != cfg2.n:
        raise ValueError(f"degree mismatch: {cfg1.n} vs {cfg2.n}")
    if cfg1.rank != cfg2.rank:
        return None
    f = permgroup.search_map(
        _colors(cfg1), _colors(cfg2),
        lambda f: ColorBijection(cfg1, cfg2, tuple(f.tolist())).is_valid())
    return None if f is None else ColorBijection(cfg1, cfg2, tuple(f.tolist()))


def realization(phi):
    """A point bijection inducing the color bijection phi, or None."""
    f = permgroup.point_isomorphism(
        np.asarray(phi.mapping)[phi.source.colors], phi.target.colors)
    return None if f is None else tuple(f.tolist())


def is_schurian(cfg):
    """Whether cfg is the 2-orbit configuration of its automorphism group.

    Aut(cfg) preserves every color, so its 2-orbits refine the colors, and
    the two partitions are equal exactly when their ranks are."""
    G = permgroup.automorphism_group(cfg)
    return permgroup.orbital_scheme(G).rank == cfg.rank


def is_separable_desk(cfg, others=()):
    """Desk-scale separability: every algebraic automorphism (and every
    algebraic isomorphism onto each explicitly supplied target) is induced
    by a point bijection.

    The induced automorphisms form a subgroup of AAut(cfg), so realizing
    the generators decides the first part; the maps onto a target are one
    map phi_0 composed with AAut(cfg), so realizing phi_0 decides the rest
    (Evdokimov and Ponomarenko, "Separability number and schurity number of
    coherent configurations", 2000).  This is the self-target fragment of
    separability; the universal quantifier over all targets is not
    decidable here and output labels the scope accordingly.
    """
    G = algebraic_automorphism_group(cfg)
    if any(realization(ColorBijection(cfg, cfg, g)) is None for g in G.generators):
        return False
    for other in others:
        phi = algebraic_isomorphism(cfg, other)
        if phi is not None and realization(phi) is None:
            return False
    return True


def fuse(cfg, partition):
    """Merge colors along a partition of the relation ids.

    The partition must send the class of each color's transpose to a class
    and must not mix diagonal with off-diagonal colors.  NotCoherent signals
    a legitimate S3 failure of the merged matrix."""
    r = cfg.rank
    classes = [tuple(sorted(set(c))) for c in partition]
    flat = [s for c in classes for s in c]
    if sorted(flat) != list(range(r)):
        raise ValueError("partition must cover every relation id exactly once")
    class_ids = {c: i for i, c in enumerate(classes)}
    for c in classes:
        starred = tuple(sorted(int(cfg.star[s]) for s in c))
        if starred not in class_ids:
            raise ValueError(f"partition does not respect the star map at {c}")
        diag = [s in cfg.diagonal_colors for s in c]
        if any(diag) and not all(diag):
            raise ValueError(f"class {c} mixes diagonal and off-diagonal colors")
    relabel = np.empty(r, dtype=np.int64)
    for i, c in enumerate(classes):
        for s in c:
            relabel[s] = i
    try:
        return cc_core.validate_config(relabel[cfg.colors])
    except AxiomS3Violated as exc:
        raise NotCoherent(f"fusion is not coherent: {exc}") from exc


def algebraic_fusion(cfg, group):
    """Fusion along the color orbits of a group of algebraic automorphisms.

    Coherence of the result is guaranteed, unlike for arbitrary fusions."""
    maps = []
    for phi in group:
        if isinstance(phi, ColorBijection):
            if phi.source is not cfg or phi.target is not cfg:
                raise NotAnAlgebraicAutomorphism("map is not a self-map of cfg")
            maps.append(phi.mapping)
        else:
            maps.append(tuple(phi))
    for m in maps:
        if not ColorBijection(cfg, cfg, m).is_valid():
            raise NotAnAlgebraicAutomorphism(f"{m} does not preserve the tensor")
    labels = permgroup._orbit_labels(np.arange(cfg.rank), maps)
    by_orbit = np.argsort(labels, kind="stable")
    ends = np.flatnonzero(np.diff(labels[by_orbit])) + 1
    return fuse(cfg, [orbit.tolist() for orbit in np.split(by_orbit, ends)])


def t_condition(cfg, t):
    """Per-relation verdicts of the t-condition, t in {3, 4}.

    For each basis relation s and each k <= t, the counts of k-subset types
    over the pairs (alpha, beta) of s must be constant.  The work is done
    relation by relation on batches of its pairs, one integer sort per pair.

    The word of a point gamma is w(gamma) = (C[alpha,gamma], C[beta,gamma]).
    In a coherent configuration it fixes all five colors between gamma and
    the pinned pair: C[gamma,alpha] and C[gamma,beta] are the transposes of
    its two letters, and C[gamma,gamma] is the diagonal color of the target
    fiber of C[alpha,gamma].  So the sorted words over all n points are the
    3-type of the pair, plus the words of gamma in {alpha, beta}, which are
    the only words with a diagonal letter and depend on s alone.
    The 3-condition is implied by coherence (a word is counted by an
    intersection number); it is kept as the gate that validates the word
    ids: every pair must have the first pair's sorted words exactly, so the
    ids taken from the first pair's distinct words cover every pair.

    The ordered 4-type of (gamma, delta) is (w(gamma), C[gamma,delta],
    w(delta)).  Since C[delta,gamma] is the transpose of C[gamma,delta],
    the multiset over ordered pairs and the multiset of unordered types
    determine each other.  Keys are taken over all n^2 ordered (gamma,
    delta); the cells with gamma or delta in {alpha, beta}, or gamma ==
    delta, carry a diagonal color in a word or between the points, and
    their multiset is fixed by s and the 3-type.  So, once the 3-types
    agree, two pairs have equal key multisets exactly when their 4-subset
    types over the other points agree."""
    if t not in (3, 4):
        raise ValueError("t must be 3 or 4")
    n = cfg.n
    if n > T_CONDITION_POINT_CAP:
        raise TooLarge(f"degree {n} exceeds t-condition cap {T_CONDITION_POINT_CAP}")
    r = cfg.rank
    # the words C[a] * r + C[b] are codes below r^2
    C = cfg.colors.astype(cc_core._code_dtype(r))
    flat = C.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=r))))
    batch = max(1, 2 ** 15 // (n * n))

    verdicts = {}
    for s in range(r):
        alphas, betas = np.divmod(order[starts[s]:starts[s + 1]], n)
        ref3 = np.sort(C[alphas[0]] * r + C[betas[0]])
        words = ref3[np.concatenate(([True], ref3[1:] != ref3[:-1]))]
        m = words.size
        # key (id(gamma) * r + C[gamma, delta]) * m + id(delta) < m * m * r
        dtype = np.int32 if m * m * r < 2 ** 31 else np.int64
        cross = C.astype(dtype) * dtype(m)
        ref4 = None
        ok = True
        for lo in range(0, alphas.size, batch):
            a, b = alphas[lo:lo + batch], betas[lo:lo + batch]
            W = C[a] * r + C[b]
            if not (np.sort(W, axis=1) == ref3).all():
                ok = False
                break
            if t < 4:
                continue
            ids = np.searchsorted(words, W).astype(dtype)
            keys = ids[:, :, None] * dtype(r * m) + cross
            keys += ids[:, None, :]
            keys = keys.reshape(len(a), n * n)
            keys.sort(axis=1)
            if ref4 is None:
                ref4 = keys[0].copy()
            if not (keys == ref4).all():
                ok = False
                break
        verdicts[s] = ok
    return verdicts


def recognize_affine(cfg):
    """Whether the scheme is the scheme of an affine space, via the tensor
    criterion c_{rs}^t <= 1 whenever r != s*.  Requires all non-diagonal
    valencies >= 3."""
    _require_scheme(cfg)
    star = cfg.star
    for s in cfg.nondiagonal_colors:
        if cfg.valencies[s] < 3:
            raise ValencyTooSmall(
                f"valency {int(cfg.valencies[s])} of color {s} is below 3")
    for _, code, c in cfg.tensor.runs():
        a, b = np.divmod(code[c > 1], code.dtype.type(cfg.rank))
        if (a != star[b]).any():
            return False
    # The criterion forces each relation plus the diagonal to be an
    # equivalence relation; verify as a consistency trap.
    for s in cfg.nondiagonal_colors:
        B = cfg.adjacency(s) + np.eye(cfg.n)
        if not np.array_equal(B @ B > 0, B > 0):
            raise ValidationFailed(
                f"tensor criterion held but color {s} is not an equivalence"
                " minus the diagonal")  # pragma: no cover
    return True


@dataclass
class Design:
    """Point set with the blocks alpha·s, tested against 2-(n, k, k-1).

    Row alpha of ``blocks`` (read-only, n x (n - 1), built on first read)
    holds every point but alpha, grouped by its color from alpha in
    ascending order of the non-diagonal colors; the consecutive runs of
    ``block_sizes`` (the valencies of those colors) are the blocks alpha·s,
    n * len(block_sizes) blocks in all."""
    n: int
    block_sizes: tuple
    params: tuple          # (n, k, lambda) claimed, k = scheme valency
    valid: bool
    coverage: tuple        # (min, max) pair coverage observed
    config: CoherentConfig = field(repr=False, compare=False)
    _blocks: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def blocks(self):
        if self._blocks is None:
            self._blocks = _design_blocks(self.config)
        return self._blocks


def _design_blocks(cfg):
    """The blocks of ``Design``: one stable sort per row of the colors,
    with the diagonal color relabeled past the others so that alpha sorts
    last and the first n - 1 columns are the blocks.  Every row of a
    scheme holds each color s on valencies[s] points, so the runs line up."""
    narrow = np.array(cfg.colors)
    # an order-preserving relabeling of the other colors onto 0..r-2
    narrow -= narrow > cfg.identity_color
    np.fill_diagonal(narrow, cfg.rank - 1)
    blocks = np.argsort(narrow, axis=1, kind="stable")[:, :-1]
    blocks.setflags(write=False)
    return blocks


def design_from_scheme(cfg):
    """Blocks alpha·s over all points and non-diagonal relations; valid
    exactly when they form a 2-(n, k, k-1) design, which happens exactly for
    pseudocyclic schemes of valency k.

    The coverage of a point pair x != y is the number of alpha with
    C[alpha, x] == C[alpha, y]: that color is never diagonal, since only
    alpha == x makes C[alpha, x] diagonal.  As C[alpha, x] is the star of
    C[x, alpha] and the star map is a bijection, it is also the number of
    alpha with C[x, alpha] == C[y, alpha], read off the rows."""
    _require_scheme(cfg)
    n = cfg.n
    sizes = tuple(int(cfg.valencies[s]) for s in cfg.nondiagonal_colors)
    rows = cfg.colors
    cmin, cmax = n, 0
    for x in range(n - 1):
        cov = (rows[x + 1:] == rows[x]).sum(axis=1)
        cmin, cmax = min(cmin, int(cov.min())), max(cmax, int(cov.max()))
    coverage = (cmin, cmax) if n > 1 else (0, 0)
    k = sizes[0] if sizes and len(set(sizes)) == 1 else None
    return Design(
        n=n,
        block_sizes=sizes,
        params=(n, k, (k - 1) if k is not None else None),
        valid=k is not None and coverage == (k - 1, k - 1),
        coverage=coverage,
        config=cfg)


def extend_algebraic_iso(phi, alpha, alpha_prime):
    """The one-point extension of an algebraic isomorphism: a color
    bijection between the alpha-extension of the source and the
    alpha'-extension of the target.

    Direct blocks map through the restriction of phi; other blocks factor
    through their splitting relation w = min D(u, v).  The result is
    validated as an algebraic isomorphism that sends 1_alpha to 1_alpha' and
    refines phi."""
    from . import extension  # here, so that no other check loads it
    src, dst = phi.source, phi.target
    # first, so that the source's splitting sets are built once, here, and
    # its extension and the composed blocks below read them
    is_direct = extension.direct_blocks(src)
    ext1 = extension.explicit_extension(src, alpha)
    ext2 = extension.explicit_extension(dst, alpha_prime)
    row1, row2 = src.colors[alpha], dst.colors[alpha_prime]

    def first_pairs(ext, cfg, row):
        """The first cell (x, y) of each extension color, its original
        color, and its block (u, v) = (row[x], row[y])."""
        x, y = np.divmod(cc_core.first_cells(ext.colors), cfg.n)
        return x, y, cfg.colors[x, y], row[x], row[y]

    x1, y1, parent1, u1, v1 = first_pairs(ext1, src, row1)
    _, _, parent2, u2, v2 = first_pairs(ext2, dst, row2)
    # a direct block holds one extension color per original color
    direct = {}
    for cid, key in enumerate(zip(u2.tolist(), v2.tolist(), parent2.tolist())):
        direct.setdefault(key, cid)
    first_in = {}

    def first_point(x, fiber, color):
        """The first point of the target fiber alpha'·fiber in the given
        color from x, from one lookup table per fiber."""
        if fiber not in first_in:
            table = np.full((dst.n, dst.rank), -1, dtype=np.int64)
            rows = np.arange(dst.n)
            for y in np.flatnonzero(row2 == fiber)[::-1]:
                table[rows, dst.colors[:, y]] = y
            first_in[fiber] = table
        y = int(first_in[fiber][x, color])
        if y < 0:
            raise ValidationFailed(f"color {color} missing from a target block")
        return y

    mapping = [-1] * ext1.rank
    for cid in range(ext1.rank):
        u, v = int(u1[cid]), int(v1[cid])
        if is_direct[u, v]:
            # direct block: the piece is an original color, mapped by phi
            key = (phi(u), phi(v), phi(int(parent1[cid])))
            if key not in direct:
                raise ValidationFailed(f"color {key[2]} missing from a target block")
            mapping[cid] = direct[key]
            continue
        # composed block: the piece is the matching of the smallest color
        # s1 of block (u, w), followed by the matching s2 of block (w, v)
        # that carries x0 on to y0; compose their phi-images in the target
        w = min(extension.splitting_set(src, u, v))
        x0, y0 = int(x1[cid]), int(y1[cid])
        aw = np.flatnonzero(row1 == w)
        z = int(aw[np.argmin(src.colors[x0, aw])])
        s1, s2 = int(src.colors[x0, z]), int(src.colors[z, y0])
        x2 = int(np.flatnonzero(row2 == phi(u))[0])
        z2 = first_point(x2, phi(w), phi(s1))
        y2 = first_point(z2, phi(v), phi(s2))
        mapping[cid] = int(ext2.colors[x2, y2])

    bij = ColorBijection(ext1, ext2, tuple(mapping))
    if not bij.is_valid():
        raise ValidationFailed("extended map is not an algebraic isomorphism")
    if mapping[int(ext1.colors[alpha, alpha])] != \
            int(ext2.colors[alpha_prime, alpha_prime]):
        raise ValidationFailed("extended map does not send 1_alpha to 1_alpha'")
    if not np.array_equal(parent2[mapping], np.asarray(phi.mapping)[parent1]):
        raise ValidationFailed("extended map does not refine phi")
    return bij
