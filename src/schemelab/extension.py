"""One-point extensions: splitting sets, the explicit construction for
equivalenced schemes, a generic coherent-closure oracle (2-dim
Weisfeiler-Leman, run by ``cc_core`` next to the S3 signature kernel), and
semiregularity checks.

The splitting sets of an equivalenced scheme are held as one boolean array
D[i, j, l] over the non-diagonal colors, read by matrix products off the
support of the intersection tensor (``cc_core.tensor_support``, which
builds no tensor), which is built once per explicit extension and gives
the direct blocks too; the pair and triple conditions are reductions over it,
one row i and a chunk of j at a time.  The explicit method gathers the
blocks alpha·u x alpha·v as k x k arrays and partitions each either
directly (by the colors of u*v when |u*v| equals the valency) or by
composing the matchings through a relation w in D(u, v) (``direct_blocks``
says which).  Both routes produce perfect matchings between fibers; every
matching property is re-verified as a built-in bug trap.  Both methods
return the extension as a ``CoherentConfig``, with no bookkeeping beside it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import cc_core
from .cc_core import _require_scheme
from .errors import (
    AxiomViolation,
    BadRelationId,
    ConditionsFail,
    NotEquivalenced,
    ValidationFailed,
)

CONDITION_CELLS = 1 << 16     # (j, w, w') cells of the condition checks per step


def _splitting_array(cfg):
    """All splitting sets of an equivalenced scheme of valency k, as
    (D, nond, direct): D[i, j, l] says whether nond[l] is in
    D(nond[i], nond[j]), and direct[u, v] whether the explicit extension
    partitions the block alpha·u x alpha·v by the colors of u*v, which it
    does when u or v is diagonal or |u*v| = k.  Both are read off one
    support of the tensor.

    With P[a, b, t] = (c_ab^t > 0), the support of uu*·vv* is two
    contractions of P with the ww* rows, and w is in D(u, v) when that
    support meets ww* in one relation, 1_Omega (which lies in both).  Row u
    at a time, so temporaries stay O(rank^2) beside the rank^3 support P and
    the m^3 result; the conditions read D in chunks (``_check_conditions``),
    with O(chunk * m^2) scratch.  Every product counts 0/1 entries over at
    most rank < 2^24 terms, so float32 arithmetic is exact.
    """
    k = cc_core.is_equivalenced(cfg)
    if k is None:
        raise NotEquivalenced("splitting sets require an equivalenced scheme")
    nond = cfg.nondiagonal_colors
    m = len(nond)
    P = cc_core.tensor_support(cfg)
    direct = P.sum(axis=2)[cfg.star] == k
    e = cfg.identity_color
    direct[e] = direct[:, e] = True
    idx = np.array(nond, dtype=np.int64)
    ww = P[idx, cfg.star[idx]]                             # [w, t]
    wwf = ww.astype(np.float32)
    D = np.empty((m, m, m), dtype=bool)
    for i in range(m):
        uu_b = P[ww[i]].any(axis=0).astype(np.float32)      # [b, t]: uu*·b
        support = (wwf @ uu_b > 0).astype(np.float32)       # [j, t]: uu*·vv*
        D[i] = support @ wwf.T == 1
    D.setflags(write=False)
    direct.setflags(write=False)
    return D, nond, direct


# config -> (D, nond, direct) for the public queries, which callers run in
# loops over all pairs; an entry dies with its config.  ``explicit_extension``
# reads an entry that is there, else builds its own and leaves nothing behind.
_SPLITTING = weakref.WeakKeyDictionary()


def _cached_splitting_array(cfg):
    if cfg not in _SPLITTING:
        _SPLITTING[cfg] = _splitting_array(cfg)
    return _SPLITTING[cfg]


def _pair_failures(D, i, js):
    """Whether the pair (i, j) fails, for each j in ``js``: D(u, v) is empty,
    or some w, w' in it have no common relation in D(u, w), D(u, w'),
    D(v, w) and D(v, w')."""
    duv = D[i, js]                                      # [j, w]
    X = (D[js] & D[i]).astype(np.float32)               # [j, w, t]
    meet = X @ X.transpose(0, 2, 1) > 0                 # [j, w, w']
    both = duv[:, :, None] & duv[:, None, :]
    return ~duv.any(axis=1) | (both & ~meet).any(axis=(1, 2))


def _triple_failures(D, i, js):
    """F[j, l]: whether D(u, v), D(v, w) and D(w, u) have no common relation,
    for u = i, v in ``js`` and every w."""
    return ~(D[js] & D[i, js][:, None, :] & D[i][None, :, :]).any(axis=2)


def _check_conditions(D, nond):
    """Raise ConditionsFail at the first failing pair (i <= j), else at the
    first failing triple (i <= j <= l), both in lexicographic order.

    Each row i is checked on chunks of j of CONDITION_CELLS // m^2 columns,
    so the (chunk, m, m) scratch of both checks is O(CONDITION_CELLS), not
    O(m^3)."""
    m = len(nond)
    step = max(1, CONDITION_CELLS // max(1, m * m))

    def chunks():
        for i in range(m):
            for lo in range(i, m, step):
                yield i, np.arange(lo, min(lo + step, m))

    for i, js in chunks():
        bad = _pair_failures(D, i, js)
        if bad.any():
            raise ConditionsFail(nond[i], nond[int(js[np.argmax(bad)])])
    for i, js in chunks():
        # keep only l >= j
        bad = _triple_failures(D, i, js) & (np.arange(m) >= js[:, None])
        if bad.any():
            j, l = np.argwhere(bad)[0]
            raise ConditionsFail(nond[i], nond[int(js[j])], nond[int(l)])


def _check_nondiagonal(cfg, s):
    cfg._check_id(s)
    if s in cfg.diagonal_colors:
        raise BadRelationId(f"relation {s} is diagonal")


def _indices(cfg, *colors):
    """The splitting array and the positions of ``colors`` in its axes."""
    _require_scheme(cfg)
    for s in colors:
        _check_nondiagonal(cfg, s)
    D, nond, _ = _cached_splitting_array(cfg)
    return D, [nond.index(s) for s in colors]


def splitting_set(cfg, u, v):
    """D(u, v) = {w non-diagonal : (uu* vv*) and ww* meet only in 1_Omega}."""
    D, (i, j) = _indices(cfg, u, v)
    nond = cfg.nondiagonal_colors
    return frozenset(nond[l] for l in np.flatnonzero(D[i, j]))


def check_pair_condition(cfg, u, v):
    """Whether every w, w' in D(u, v) admit a common relation in
    D(u,w), D(u,w'), D(v,w) and D(v,w'); implies D(u, v) is non-empty."""
    D, (i, j) = _indices(cfg, u, v)
    return not _pair_failures(D, i, np.array([j]))[0]


def check_triple_condition(cfg, u, v, w):
    """Whether D(u, v), D(v, w) and D(w, u) have a common relation."""
    D, (i, j, l) = _indices(cfg, u, v, w)
    return bool((D[i, j] & D[j, l] & D[l, i]).any())


def _blocks(colors, rows, cols):
    """The color blocks rows[i] x cols[j] of two stacks of point arrays, as
    one array indexed [i, j, a, b]."""
    return colors[rows[:, None, :, None], cols[None, :, None, :]]


def _matchings(blocks):
    """The relations of a stack of square color blocks as permutations:
    perm[c, s, a] = b where the cell (a, b) of block c has the s-th smallest
    color of that block.  Raises unless every relation of every block is a
    perfect matching."""
    k = blocks.shape[1]
    order = np.argsort(blocks, axis=2)
    rows = np.take_along_axis(blocks, order, axis=2)
    ok = ((rows == rows[:, :1]).all(axis=(1, 2))            # rows hold the same colors,
          & (rows[:, 0, 1:] > rows[:, 0, :-1]).all(axis=1)  # once each,
          & (np.sort(order, axis=1) == np.arange(k)[:, None]).all(axis=(1, 2)))  # in every column
    if not ok.all():
        block = blocks[int(np.argmin(ok))]
        for s in np.unique(block):
            hits = block == s
            if not ((hits.sum(axis=0) == 1).all() and (hits.sum(axis=1) == 1).all()):
                raise ValidationFailed(
                    f"block relation {s} is not a perfect matching")
    return order.transpose(0, 2, 1)


def point_partition(cfg, alpha, u, v):
    """The nonempty sets s ∩ (alpha·u x alpha·v) for s in u*v, as lists of
    point pairs; their union is the whole block."""
    _require_scheme(cfg)
    au, av = cfg.neighbors(alpha, u), cfg.neighbors(alpha, v)
    block = _blocks(cfg.colors, au[None], av[None])[0, 0]
    present = np.unique(block)
    uv = cc_core.complex_product(cfg, int(cfg.star[u]), v)
    if set(present.tolist()) - uv:
        raise ValidationFailed("block colors escape u*v")  # pragma: no cover
    return [[(int(au[a]), int(av[b])) for a, b in np.argwhere(block == s)]
            for s in present]


def _composed_pieces(left, right, k, where):
    """The pieces of blocks (u, v) composed through w, from the matchings
    of the blocks (u, w) and (w, v): piece[c, p, a] = b.

    The composite of the s1-th matching on the left with the s2-th on the
    right is a permutation pi of the k points, named by pi(0), so that
    piece p is the one through the cell (0, p).  The k^2 composites must
    give exactly k distinct pieces; ``where(c)`` names block c in errors."""
    c = left.shape[0]
    blk = np.arange(c)[:, None]
    comp = right[blk[:, :, None, None], np.arange(k)[None, None, :, None],
                 left[:, :, None, :]].reshape(c, k * k, k)
    first = comp[:, :, 0]
    pieces = np.empty((c, k, k), dtype=left.dtype)
    pieces[blk, first] = comp
    named = np.zeros((c, k), dtype=bool)
    named[blk, first] = True
    ok = named.all(axis=1) & (pieces[blk, first] == comp).all(axis=(1, 2))
    if not ok.all():
        bad = int(np.argmin(ok))
        parts = len(np.unique(comp[bad], axis=0))
        raise ValidationFailed(
            f"S(u,v;w) has {parts} parts at {where(bad)}, expected {k}")
    return pieces


def direct_blocks(cfg):
    """direct[u, v] for an equivalenced scheme of valency k: whether the
    explicit extension partitions the blocks alpha·u x alpha·v by the colors
    of u*v, which it does when u or v is diagonal or |u*v| = k; it composes
    every other block through w = min D(u, v)."""
    return _cached_splitting_array(cfg)[2]


def explicit_extension(cfg, alpha):
    """The alpha-extension of an equivalenced scheme via splitting sets.

    Requires the pair and triple conditions to hold for all non-diagonal
    colors; raises ConditionsFail otherwise, which directs the caller to
    ``coherent_closure``.  New color ids are ordered by (source fiber,
    target fiber, first occurrence), fibers following the original color
    order with the diagonal first.  The fibers are {alpha} and the sets
    alpha·u, so a color with a pair (x, y) lies in the block
    (C[alpha, x], C[alpha, y]).
    """
    _require_scheme(cfg)
    if not 0 <= alpha < cfg.n:
        raise ValueError(f"point {alpha} out of range")
    k = cc_core.is_equivalenced(cfg)
    if k is None:
        raise NotEquivalenced("explicit extension requires an equivalenced scheme")
    D, nond, direct = _SPLITTING.get(cfg) or _splitting_array(cfg)
    _check_conditions(D, nond)
    new = _extension_matrix(cfg, alpha, k, D, nond, direct)
    del D
    try:
        # the matrix is ours, so the configuration keeps it without a copy
        config = cc_core._validated(new, canonicalize=False)
    except AxiomViolation as exc:
        raise ValidationFailed(f"explicit extension is not coherent: {exc}") from exc
    # as many fibers as colors, each inside one set alpha·u, are the sets
    # alpha·u
    row = cfg.colors[alpha]
    heads = np.array([f[0] for f in config.fibers])
    if heads.size != cfg.rank or not np.array_equal(row[heads][config.point_fiber], row):
        raise ValidationFailed("extension fibers differ from the alpha-u sets")
    return config


def _extension_matrix(cfg, alpha, k, D, nond, direct):
    """The color matrix of the explicit extension, in the color type of its
    rank 1 + m + m(1 + mk).

    Every non-diagonal block alpha·u x alpha·v splits into k perfect
    matchings: the colors of u*v in a block that ``direct`` marks,
    else the composites through w = min D(u, v).  Each piece meets the
    first row of its block once, so numbering the pieces of a block by that
    column orders them by first cell, and every id follows from its block's
    position alone."""
    n, m = cfg.n, len(nond)
    colors = cfg.colors
    # Layout order: alpha, then each fiber alpha·u in ascending color order.
    rest = np.argsort(colors[alpha], kind="stable")
    rest = rest[rest != alpha]
    order = np.concatenate(([alpha], rest))
    F = rest.reshape(m, k)

    # pieces[i, j, q, a] = b: the cells (a, b) of the q-th piece of block (i, j)
    idx = np.array(nond, dtype=np.int64)
    direct = direct[np.ix_(idx, idx)]
    pieces = np.empty((m, m, k, k), dtype=np.int32)
    pieces[direct] = _matchings(_blocks(colors, F, F)[direct])
    I, J = np.nonzero(~direct)
    if I.size:
        # the pair condition makes every D(u, v) non-empty
        W = np.argmax(D[I, J], axis=1)
        for i, j in ((I, W), (W, J)):
            if not direct[i, j].all():
                c = int(np.argmin(direct[i, j]))
                raise ValidationFailed(
                    f"block ({nond[i[c]]},{nond[j[c]]}) relations are not "
                    f"perfect matchings")
        pieces[I, J] = _composed_pieces(
            pieces[I, W], pieces[W, J], k,
            lambda c: f"u={nond[I[c]]}, v={nond[J[c]]}, w={nond[W[c]]}")

    # local[i, j, a, b]: the piece of cell (a, b), numbered by its column in
    # row 0; a cell left at -1 lies in no piece, one covered twice leaves
    # another uncovered
    mi = np.arange(m)[:, None, None, None]
    local = np.full((m, m, k, k), -1, dtype=np.int32)
    local[mi, mi.reshape(1, m, 1, 1), np.arange(k), pieces] = pieces[..., :1]
    if (local < 0).any():
        i, j = np.argwhere((local < 0).any(axis=(2, 3)))[0]
        raise ValidationFailed(
            f"block ({nond[i]},{nond[j]}) is not covered once by its pieces")

    # Ids in fiber order: (e, e), then (e, v) for each v, then for each u
    # the block (u, e) followed by the k pieces of every (u, v).
    row_base = 1 + m + np.arange(m) * (1 + m * k)
    color_type = cc_core._color_dtype(1 + m + m * (1 + m * k))
    ids = np.empty((n, n), dtype=color_type)
    ids[0, 0] = 0
    ids[0, 1:] = 1 + np.repeat(np.arange(m), k)
    ids[1:, 0] = np.repeat(row_base, k)
    local += row_base[:, None, None, None] + 1 + k * mi.reshape(1, m, 1, 1)
    ids[1:, 1:] = local.transpose(0, 2, 1, 3).reshape(n - 1, n - 1)
    new = np.empty((n, n), dtype=color_type)
    new[np.ix_(order, order)] = ids
    return new


def is_semiregular(cfg):
    """Whether |alpha·s| <= 1 for every point and color."""
    return bool((cfg.valencies <= 1).all())


def restriction_semiregular(ext_cfg, alpha):
    """Semiregularity of an extension restricted to the points other than
    alpha: {alpha} must be a fiber and every color avoiding it must have
    valency at most 1."""
    fiber = int(ext_cfg.point_fiber[alpha])
    off = (ext_cfg.relation_source != fiber) & (ext_cfg.relation_target != fiber)
    return len(ext_cfg.fibers[fiber]) == 1 and bool((ext_cfg.valencies[off] <= 1).all())


@dataclass
class SemiregularityReport:
    point: int
    valency: int
    rank: int
    bound: int
    rank_exceeds_bound: bool
    extension_semiregular: bool


def semiregularity_report(cfg, alpha):
    """For a pseudocyclic scheme: whether rank > 2k(k-1)+2 and whether the
    alpha-extension (by closure) is semiregular off alpha."""
    k = cc_core.is_pseudocyclic_combinatorial(cfg)
    if k is None:
        raise NotEquivalenced("report requires a pseudocyclic scheme")
    ext = coherent_closure(cfg, {alpha})
    bound = 2 * k * (k - 1) + 2
    return SemiregularityReport(
        point=alpha,
        valency=k,
        rank=cfg.rank,
        bound=bound,
        rank_exceeds_bound=cfg.rank > bound,
        extension_semiregular=restriction_semiregular(ext, alpha))


def coherent_closure(cfg, distinguished=()):
    """The smallest coherent configuration refining cfg with 1_beta split off
    for every distinguished beta, by 2-dim Weisfeiler-Leman refinement
    (``cc_core._weisfeiler_leman``: fingerprinted rounds, verified exactly)."""
    colors = cfg.colors
    n = cfg.n
    dist = sorted(set(int(b) for b in distinguished))
    if any(b < 0 or b >= n for b in dist):
        raise ValueError("distinguished point out of range")
    if dist:
        # color (c, marks of the row and column point) in base b = |dist| + 1
        base = len(dist) + 1
        code = cc_core._color_dtype(cfg.rank * base * base)
        marks = np.zeros(n, dtype=code)
        marks[dist] = np.arange(1, base)
        colors = colors.astype(code)
        colors *= base * base
        colors += marks[:, None] * code.type(base)
        colors += marks
    return cc_core._weisfeiler_leman(colors)
