"""One-point extensions: splitting sets, the explicit construction for
equivalenced schemes, a generic coherent-closure (2-dim Weisfeiler-Leman)
oracle, and semiregularity checks.

The explicit method partitions each block alpha·u x alpha·v either directly
(restricting the relations of u*v when |u*v| equals the valency) or by
composing the matchings through a relation w in the splitting set D(u, v).
Both routes produce perfect matchings between fibers; every matching property
is re-verified as a built-in bug trap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

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
from .parallel import run_chunked


@dataclass
class SplittingData:
    valency: int
    masks: dict          # (u, v) -> bitmask of D(u, v) over color ids
    nondiagonal: tuple


@lru_cache(maxsize=16)
def _splitting_data(cfg):
    """All splitting sets of an equivalenced scheme, as bitmasks."""
    k = cc_core.is_equivalenced(cfg)
    if k is None:
        raise NotEquivalenced("splitting sets require an equivalenced scheme")
    star = cfg.star
    nond = cfg.nondiagonal_colors
    ident_bit = 1 << cfg.identity_color

    product_mask = {}   # (a, b) -> bitmask of the complex product ab
    a_ids, b_ids, t_ids, _ = cfg.tensor.arrays()
    for a, b, t in zip(a_ids.tolist(), b_ids.tolist(), t_ids.tolist()):
        product_mask[a, b] = product_mask.get((a, b), 0) | 1 << t
    ww = {w: product_mask[w, int(star[w])] for w in nond}
    masks = {}
    for i, u in enumerate(nond):
        uu = _bits(ww[u])
        for v in nond[i:]:
            vv = _bits(ww[v])
            prod = 0
            for a in uu:
                for b in vv:
                    prod |= product_mask.get((a, b), 0)
            m = 0
            for w in nond:
                if prod & ww[w] == ident_bit:
                    m |= 1 << w
            masks[(u, v)] = masks[(v, u)] = m
    return SplittingData(k, masks, nond)


def _check_nondiagonal(cfg, s):
    cfg._check_id(s)
    if s in cfg.diagonal_colors:
        raise BadRelationId(f"relation {s} is diagonal")


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def splitting_set(cfg, u, v):
    """D(u, v) = {w non-diagonal : (uu* vv*) and ww* meet only in 1_Omega}."""
    _require_scheme(cfg)
    _check_nondiagonal(cfg, u)
    _check_nondiagonal(cfg, v)
    data = _splitting_data(cfg)
    return frozenset(_bits(data.masks[(u, v)]))


def check_pair_condition(cfg, u, v):
    """Whether every w, w' in D(u, v) admit a common relation in
    D(u,w), D(u,w'), D(v,w) and D(v,w'); implies D(u, v) is non-empty."""
    _require_scheme(cfg)
    _check_nondiagonal(cfg, u)
    _check_nondiagonal(cfg, v)
    data = _splitting_data(cfg)
    duv = _bits(data.masks[(u, v)])
    if not duv:
        return False
    for i, w in enumerate(duv):
        for w2 in duv[i:]:
            joint = (data.masks[(u, w)] & data.masks[(u, w2)]
                     & data.masks[(v, w)] & data.masks[(v, w2)])
            if not joint:
                return False
    return True


def check_triple_condition(cfg, u, v, w):
    """Whether D(u, v), D(v, w) and D(w, u) have a common relation."""
    _require_scheme(cfg)
    for s in (u, v, w):
        _check_nondiagonal(cfg, s)
    data = _splitting_data(cfg)
    return bool(data.masks[(u, v)] & data.masks[(v, w)] & data.masks[(w, u)])


def point_partition(cfg, alpha, u, v):
    """The nonempty sets s ∩ (alpha·u x alpha·v) for s in u*v, as lists of
    point pairs; their union is the whole block."""
    _require_scheme(cfg)
    cfg._check_id(u)
    cfg._check_id(v)
    au = [int(x) for x in cfg.neighbors(alpha, u)]
    av = [int(y) for y in cfg.neighbors(alpha, v)]
    colors = cfg.colors
    pieces = {}
    for x in au:
        for y in av:
            pieces.setdefault(int(colors[x, y]), []).append((x, y))
    uv = cc_core.complex_product(cfg, int(cfg.star[u]), v)
    if set(pieces) - set(uv):
        raise ValidationFailed("block colors escape u*v")  # pragma: no cover
    return [pieces[s] for s in sorted(pieces)]


@dataclass
class ExtensionResult:
    """A one-point extension together with its block bookkeeping.

    ``fiber_points`` maps each original color u to the fiber alpha·u (the
    diagonal color of the original scheme owns the singleton {alpha});
    ``relation_block`` maps every new color to its (u, v) block.
    """
    config: cc_core.CoherentConfig
    method: str
    point: int
    semiregular: bool
    fiber_points: dict
    relation_block: tuple


def _block_matchings(cfg, au, aw):
    """The relations of a block as dicts x -> y; they must be perfect
    matchings, which holds whenever |u*w| equals the valency."""
    colors = cfg.colors
    by_color = {}
    for x in au:
        for y in aw:
            by_color.setdefault(int(colors[x, y]), {})[x] = y
    out = []
    for s in sorted(by_color):
        m = by_color[s]
        if len(m) != len(au) or len(set(m.values())) != len(au):
            raise ValidationFailed(
                f"block relation {s} is not a perfect matching")
        out.append(m)
    return out


def explicit_extension(cfg, alpha, *, check_conditions=True):
    """The alpha-extension of an equivalenced scheme via splitting sets.

    Requires the pair and triple conditions to hold for all non-diagonal
    colors (checked unless disabled); raises ConditionsFail otherwise, which
    directs the caller to ``coherent_closure``.  New color ids are ordered by
    (source fiber, target fiber, first occurrence), fibers following the
    original color order with the diagonal first.
    """
    _require_scheme(cfg)
    if not 0 <= alpha < cfg.n:
        raise ValueError(f"point {alpha} out of range")
    k = cc_core.is_equivalenced(cfg)
    if k is None:
        raise NotEquivalenced("explicit extension requires an equivalenced scheme")
    data = _splitting_data(cfg)
    nond = list(data.nondiagonal)
    if check_conditions:
        for i, u in enumerate(nond):
            for v in nond[i:]:
                if not check_pair_condition(cfg, u, v):
                    raise ConditionsFail(u, v)
        for u, v, w in combinations_with_replacement(nond, 3):
            if not check_triple_condition(cfg, u, v, w):
                raise ConditionsFail(u, v, w)

    n = cfg.n
    e = cfg.identity_color
    star = cfg.star
    fiber_order = [e] + nond
    fiber_points = {
        u: ((alpha,) if u == e else tuple(int(x) for x in cfg.neighbors(alpha, u)))
        for u in fiber_order}

    new = np.full((n, n), -1, dtype=np.int64)
    relation_block = []
    for u in fiber_order:
        au = fiber_points[u]
        for v in fiber_order:
            av = fiber_points[v]
            if u == e and v == e:
                pieces = [[(alpha, alpha)]]
            elif u == e:
                pieces = [[(alpha, y) for y in av]]
            elif v == e:
                pieces = [[(x, alpha) for x in au]]
            else:
                uv = cc_core.complex_product(cfg, int(star[u]), v)
                if len(uv) == k:
                    pieces = point_partition(cfg, alpha, u, v)
                else:
                    w = min(_bits(data.masks[(u, v)]))
                    aw = fiber_points[w]
                    left = _block_matchings(cfg, au, aw)
                    right = _block_matchings(cfg, aw, av)
                    seen = {}
                    for a in left:
                        for b in right:
                            comp = tuple(sorted((x, b[a[x]]) for x in a))
                            seen[comp] = None
                    pieces = [list(c) for c in seen]
                    if len(pieces) != k:
                        raise ValidationFailed(
                            f"S(u,v;w) has {len(pieces)} parts at "
                            f"u={u}, v={v}, w={w}, expected {k}")
            pieces.sort(key=lambda piece: min(x * n + y for x, y in piece))
            for piece in pieces:
                cid = len(relation_block)
                relation_block.append((u, v))
                for x, y in piece:
                    if new[x, y] >= 0:
                        raise ValidationFailed(
                            f"cell ({x},{y}) colored twice in block ({u},{v})")
                    new[x, y] = cid
    if (new < 0).any():
        raise ValidationFailed("extension matrix is not fully colored")

    try:
        config = cc_core.validate_config(new, canonicalize=False)
    except AxiomViolation as exc:
        raise ValidationFailed(f"explicit extension is not coherent: {exc}") from exc
    actual_fibers = {tuple(int(x) for x in f) for f in config.fibers}
    if actual_fibers != {tuple(sorted(f)) for f in fiber_points.values()}:
        raise ValidationFailed("extension fibers differ from the alpha-u sets")
    return ExtensionResult(
        config=config,
        method="explicit",
        point=alpha,
        semiregular=restriction_semiregular(config, alpha),
        fiber_points=fiber_points,
        relation_block=tuple(relation_block))


def is_semiregular(cfg):
    """Whether |alpha·s| <= 1 for every point and color."""
    return bool((cfg.valencies <= 1).all())


def restriction_semiregular(ext_cfg, alpha):
    """Semiregularity of an extension restricted to the points other than
    alpha: {alpha} must be a fiber and every color avoiding it must have
    valency at most 1."""
    f_alpha = int(ext_cfg.point_fiber[alpha])
    if len(ext_cfg.fibers[f_alpha]) != 1:
        return False
    for s in range(ext_cfg.rank):
        if (ext_cfg.relation_source[s] != f_alpha
                and ext_cfg.relation_target[s] != f_alpha
                and ext_cfg.valencies[s] > 1):
            return False
    return True


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


def _column_digests(colors, r, out):
    """64-bit fingerprints of the sorted composition codes of every pair."""
    n = colors.shape[0]

    def rows(lo, hi):
        for a in range(lo, hi):
            code = colors[a][:, None] * np.int64(r) + colors
            code.sort(axis=0)
            cols = np.ascontiguousarray(code.T)
            row_out = out[a]
            for g in range(n):
                digest = hashlib.blake2b(cols[g].tobytes(), digest_size=8).digest()
                row_out[g] = int.from_bytes(digest, "little")

    run_chunked(rows, n)


def _exact_regroup(colors, r):
    """Collision-proof refinement step keyed on raw sorted-code bytes."""
    n = colors.shape[0]
    mapping = {}
    new = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        code = colors[a][:, None] * np.int64(r) + colors
        code.sort(axis=0)
        cols = np.ascontiguousarray(code.T)
        for g in range(n):
            key = (int(colors[a, g]), cols[g].tobytes())
            new[a, g] = mapping.setdefault(key, len(mapping))
    return new


def _wl_step(colors):
    """One refinement round: recolor each pair by its old color plus the
    multiset of composition color pairs through every middle point.

    Multisets are fingerprinted to 64 bits; a verification pass compares the
    actual multisets within every new class and falls back to exact raw-byte
    grouping when a collision is detected.
    """
    n = colors.shape[0]
    r = int(colors.max()) + 1
    digests = np.empty((n, n), dtype=np.uint64)
    _column_digests(colors, r, digests)
    combined = np.empty(n * n, dtype=[("c", np.int64), ("d", np.uint64)])
    combined["c"] = colors.ravel()
    combined["d"] = digests.ravel()
    _, inverse = np.unique(combined, return_inverse=True)
    new = cc_core.canonicalize_colors(inverse.reshape(n, n))
    new_r = int(new.max()) + 1

    # Verify the fingerprint grouping against the true multisets.
    flat = new.ravel()
    first = np.full(new_r, n * n, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(n * n, dtype=np.int64))
    ref = np.empty((new_r, n), dtype=np.int64)
    for a in np.unique(first // n):
        code = colors[int(a)][:, None] * np.int64(r) + colors
        code.sort(axis=0)
        for t in np.flatnonzero(first // n == a):
            ref[t] = code[:, first[t] % n]
    collision = np.zeros(1, dtype=bool)

    def verify(lo, hi):
        for a in range(lo, hi):
            code = colors[a][:, None] * np.int64(r) + colors
            code.sort(axis=0)
            if not (code == ref[new[a]].T).all():
                collision[0] = True

    run_chunked(verify, n)
    if collision[0]:
        new = _exact_regroup(colors, r)
        new_r = int(new.max()) + 1
    return new, new_r > r


def coherent_closure(cfg, distinguished=()):
    """The smallest coherent configuration refining cfg with 1_beta split off
    for every distinguished beta, by 2-dim Weisfeiler-Leman refinement."""
    colors = cfg.colors.astype(np.int64, copy=True)
    n = cfg.n
    dist = sorted(set(int(b) for b in distinguished))
    if any(b < 0 or b >= n for b in dist):
        raise ValueError("distinguished point out of range")
    if dist:
        marks = np.zeros(n, dtype=np.int64)
        for i, b in enumerate(dist):
            marks[b] = i + 1
        base = np.int64(len(dist) + 1)
        key = colors * base * base + marks[:, None] * base + marks[None, :]
        colors = cc_core.canonicalize_colors(key)
    while True:
        colors, changed = _wl_step(colors)
        if not changed:
            break
    return cc_core.validate_config(colors, canonicalize=False)
