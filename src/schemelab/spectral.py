"""Numerical Wedderburn decomposition of the adjacency algebra.

All work is on length-r coefficient vectors and r x r matrices, with no
n x n matrix; the intersection numbers are read as runs of the tensor's
signature matrix, a block of rows at a time.  A random element z of the
center (all of A when the scheme is commutative, else the null space of
the commutator equations, folded block by block into one r x r triangular
factor) acts on A = span{A(s)} by left multiplication; in the
trace-orthonormal basis A(s)/sqrt(n n_s) its Hermitian and skew parts are
commuting Hermitian matrices whose joint eigenspaces are the ideals e_P A,
of dimension n_P^2.
e_P is the projection of the identity onto its ideal, and
m_P = n e_P[identity] / n_P.  Integer invariants (sum of m*n equal to the
degree, sum of n^2 equal to the rank, m >= n, a principal J/n block) and
e_P e_P = e_P = e_P* validate every decomposition; on failure z is redrawn
from the next of five fixed seeds.  The draws come from a SplitMix64 stream
per seed, so ``numpy.random`` is never imported.

All numerics are double precision; no exact arithmetic is used.  The
validation-by-integer-invariants is the module's principal trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cc_core
from .cc_core import _require_scheme
from .errors import DecompositionUnstable, TooLarge

DEFAULT_SEED = 20090
ATTEMPTS = 5            # attempt i draws z with seed DEFAULT_SEED + i
CLUSTER_TOL = 1e-8      # eigenvalue gap, relative to the spectral radius
RANK_TOL = 1e-8         # singular-value threshold, relative to sigma_max
INT_TOL = 1e-6          # residual allowed when rounding to integers
DEGREE_CAP = 500
RANK_CAP = 200          # a non-commutative center folds rank^2 equations: rank^4 time
TERWILLIGER_POINT_CAP = 200


@dataclass
class IrreducibleBlock:
    """One central primitive idempotent sum_s coefficients[s] A(s) with
    multiplicity and degree; ``colors`` is the scheme's, not a copy."""
    coefficients: np.ndarray
    multiplicity: int
    degree: int
    colors: np.ndarray

    @property
    def projector(self):
        """e_P as an n x n matrix, built on each access."""
        return self.coefficients[self.colors]

    @property
    def pair(self):
        return (self.multiplicity, self.degree)


@dataclass
class SpectralDecomposition:
    blocks: list
    principal_index: int

    @property
    def pairs(self):
        return [b.pair for b in self.blocks]

    @property
    def nonprincipal(self):
        return [b for i, b in enumerate(self.blocks) if i != self.principal_index]


class _Unstable(Exception):
    pass


def _center_basis(cfg):
    """Orthonormal coefficient vectors spanning {z : [sum z_s A(s), A(t)] = 0}.

    A commutative algebra is its own center, and the identity basis is
    orthonormal: the SVD of its all-zero equations would return exactly
    that basis.  Otherwise the (r^2, r) equations, c_{at}^u - c_{ta}^u at
    row (t, u) and column a, are made for a block of u at a time and folded
    into one r x r triangular factor (sequential TSQR: Demmel, Grigori,
    Hoemmen and Langou, 2012); all-zero rows are dropped first.  The factor
    has the singular values and right singular vectors of the whole system,
    so RANK_TOL keeps its meaning."""
    r = cfg.rank
    if cc_core.is_commutative(cfg):
        return np.eye(r)
    factor = np.zeros((0, r))
    step = max(1, cc_core.BLOCK_CELLS // (r * r))
    for t, code, c in cfg.tensor.runs():
        t, (a, b) = t.astype(np.intp), np.divmod(code.astype(np.intp), r)
        for lo in range(t[0], t[-1] + 1, step):
            i, j = np.searchsorted(t, (lo, lo + step))
            u = t[i:j] - lo
            eqs = np.zeros((step * r, r))
            np.add.at(eqs, (u * r + b[i:j], a[i:j]), c[i:j])     # + c_{ab}^u at (t=b, u)
            np.subtract.at(eqs, (u * r + a[i:j], b[i:j]), c[i:j])  # - c_{ab}^u at (t=a, u)
            eqs = eqs[eqs.any(axis=1)]
            factor = np.linalg.qr(np.vstack([factor, eqs]), mode="r")
    _, sv, vt = np.linalg.svd(factor)
    rank = int((sv > RANK_TOL * sv[0]).sum()) if sv.size and sv[0] > 0 else 0
    return vt[rank:]


def _left_matrix(runs, x, r):
    """L[t, s] = sum_a x_a c_{as}^t, left multiplication by sum_a x_a A(a)
    in coefficients."""
    left = np.zeros(r * r, dtype=complex)
    for t, code, c, _ in runs:
        a, s = np.divmod(code, code.dtype.type(r))
        cell = t.astype(code.dtype) * code.dtype.type(r) + s
        left.real += np.bincount(cell, x.real[a] * c, r * r)
        left.imag += np.bincount(cell, x.imag[a] * c, r * r)
    return left.reshape(r, r)


def _square(runs, x, r):
    """The coefficients of (sum_a x_a A(a))^2: sum_{a,s} x_a x_s c_{as}^t,
    with x_a x_s read off the outer product at the code a*r + s."""
    pairs = np.outer(x, x).ravel()
    out = np.empty(r, dtype=complex)
    for t, code, c, first in runs:
        rows = out[t[0]:t[0] + first.size]
        for part, into in ((pairs.real, rows.real), (pairs.imag, rows.imag)):
            w = np.take(part, code)
            w *= c
            into[:] = np.add.reduceat(w, first)
    return out


def _cluster(values, scale):
    """Split sorted eigenvalues into groups separated by gaps > tol*scale."""
    groups = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > CLUSTER_TOL * scale:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, len(values)))
    return groups


def _round_int(x, what):
    k = round(x)
    if abs(x - k) > INT_TOL * max(1.0, abs(x)):
        raise _Unstable(f"{what} = {x} is not integral")
    return int(k)


def _center_weights(d, seed):
    """d complex weights with real and imaginary parts uniform in [-1, 1),
    from the top 53 bits of the SplitMix64 stream of ``seed``."""
    u = (cc_core._splitmix64(seed, 2 * d) >> np.uint64(11)) * 2.0 ** -52 - 1.0
    return u[:d] + 1j * u[d:]


def _attempt(cfg, runs, basis, seed):
    n, r = cfg.n, cfg.rank
    d = basis.shape[0]
    z = basis.T @ _center_weights(d, seed)
    # In the basis A(s)/sqrt(n n_s) the adjoint of left multiplication by x
    # is left multiplication by x*, so both parts below are Hermitian.
    root = np.sqrt(cfg.valencies.astype(np.float64))
    L = root[:, None] * _left_matrix(runs, z, r) / root
    H1 = (L + L.conj().T) / 2
    H2 = (L - L.conj().T) / 2j
    del L
    # the spectral norm of a Hermitian matrix is its largest |eigenvalue|
    vals1, vecs1 = np.linalg.eigh(H1)
    scale = max(np.abs(vals1).max(), np.abs(np.linalg.eigvalsh(H2)).max(), 1e-12)

    spaces = []
    for cl1 in _cluster(vals1, scale):
        V1 = vecs1[:, cl1]
        B = V1.conj().T @ H2 @ V1
        vals2, vecs2 = np.linalg.eigh(B)
        for cl2 in _cluster(vals2, scale):
            spaces.append(V1 @ vecs2[:, cl2])
    if len(spaces) != d:
        raise _Unstable(f"{len(spaces)} joint eigenspaces for center of dim {d}")
    del H1, H2, vecs1, V1

    one = cfg.identity_color
    blocks = []
    for V in spaces:
        # The identity is sqrt(n) times basis vector `one`; project it onto
        # the ideal V and map back to coefficients.
        e = V @ V[one].conj() / root
        if np.abs(_square(runs, e, r) - e).max() > INT_TOL \
                or np.abs(e[cfg.star] - e.conj()).max() > INT_TOL:
            raise _Unstable("idempotent fails e e = e or e* = e")
        n_p = _round_int(float(np.sqrt(V.shape[1])), "sqrt(dim e_P A)")
        m_p = _round_int(n * float(e[one].real) / n_p, "n e_P[1] / n_P")
        if m_p < n_p:
            raise _Unstable(f"m_P={m_p} < n_P={n_p}")
        blocks.append(IrreducibleBlock(e, m_p, n_p, cfg.colors))

    if sum(b.multiplicity * b.degree for b in blocks) != n:
        raise _Unstable("sum m_P n_P != n")
    if sum(b.degree ** 2 for b in blocks) != r:
        raise _Unstable("sum n_P^2 != rank")

    principal = [i for i, b in enumerate(blocks)
                 if np.abs(b.coefficients - 1.0 / n).max() < INT_TOL]
    if len(principal) != 1 or blocks[principal[0]].pair != (1, 1):
        raise _Unstable("principal idempotent J/n not found")
    p0 = principal[0]
    order = [p0] + sorted((i for i in range(len(blocks)) if i != p0),
                          key=lambda i: (blocks[i].degree, blocks[i].multiplicity, i))
    blocks = [blocks[i] for i in order]
    return SpectralDecomposition(blocks, 0)


def decompose(cfg):
    """Central primitive idempotents with (m_P, n_P), principal block first.

    Reproducible: the random central elements come from fixed seeds.
    """
    _require_scheme(cfg)
    if cfg.n > DEGREE_CAP:
        raise TooLarge(f"degree {cfg.n} exceeds spectral cap {DEGREE_CAP}")
    if cfg.rank > RANK_CAP:
        raise TooLarge(f"rank {cfg.rank} exceeds spectral cap {RANK_CAP}")
    # the runs, read once for every attempt, with the first run of each row
    runs = [(t, code, c, np.unique(t, return_index=True)[1])
            for t, code, c in cfg.tensor.runs()]
    basis = _center_basis(cfg)
    last = None
    for attempt in range(ATTEMPTS):
        try:
            return _attempt(cfg, runs, basis, DEFAULT_SEED + attempt)
        except _Unstable as exc:
            last = exc
    raise DecompositionUnstable(f"all {ATTEMPTS} attempts failed: {last}")


def is_pseudocyclic_spectral(cfg, dec=None):
    """The common ratio m_P/n_P over non-principal blocks, or None.

    Returns Fraction(1) for the trivial rank-1 scheme (no non-principal
    blocks), matching the combinatorial convention.
    """
    if dec is None:
        dec = decompose(cfg)
    ratios = {Fraction(b.multiplicity, b.degree) for b in dec.nonprincipal}
    if not ratios:
        return Fraction(1)
    if len(ratios) == 1:
        return ratios.pop()
    return None


def frame_number(cfg, dec):
    """n^r * prod n_s / prod m_P^(n_P^2), as an exact rational.

    A positive integer for every scheme; integrality is the assertion used
    to pin down the block dimensions of pseudocyclic schemes.
    """
    num = cfg.n ** cfg.rank
    for s in range(cfg.rank):
        num *= int(cfg.valencies[s])
    den = 1
    for b in dec.blocks:
        den *= b.multiplicity ** (b.degree ** 2)
    return Fraction(num, den)


def verify_afm_identity(cfg, dec):
    """Max-abs residual of
    sum_s reg(s*)/n_s A(s) = n sum_P (n_P/m_P) e_P, compared coefficient by
    coefficient."""
    lhs = cc_core.reg_numbers(cfg)[cfg.star] / cfg.valencies
    rhs = cfg.n * sum((b.degree / b.multiplicity) * b.coefficients
                      for b in dec.blocks)
    return float(np.abs(lhs - rhs).max())


@dataclass
class TerwilligerResult:
    point: int
    dimension: int              # dim of the Terwilliger algebra T_alpha
    extension_dimension: int    # dim of the adjacency algebra of the alpha-extension
    coincides: bool


def _segments(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def terwilliger_dimension(cfg, alpha):
    """Dimension of the algebra T_alpha generated by the adjacency matrices
    and the diagonal indicators E*_u of the sets alpha·u, and of the
    adjacency algebra of the alpha-extension, in which T_alpha lies.

    Column by column: T_alpha E*_v is the smallest span of extension colors
    with target in alpha·v that holds E*_v and is closed under every A(s)
    and under splitting by source group u (the action of E*_u); all columns
    are closed at once, to RANK_TOL."""
    _require_scheme(cfg)
    if cfg.n > TERWILLIGER_POINT_CAP:
        raise TooLarge(f"degree {cfg.n} exceeds Terwilliger cap {TERWILLIGER_POINT_CAP}")
    from . import extension  # here, so that `analyze` never loads it
    ext = extension.coherent_closure(cfg, {alpha})
    r, R = cfg.rank, ext.rank
    first = cc_core.first_cells(ext.colors)
    parent = cfg.colors.ravel()[first].astype(np.int64)
    row = cfg.colors[alpha].astype(np.int64)
    source, target = (row[x] for x in np.divmod(first, cfg.n))
    group = target * r + source
    sizes = np.bincount(group, minlength=r * r)
    g = int(sizes.max())
    pos = np.argsort(np.argsort(group, kind="stable")) - (np.cumsum(sizes) - sizes)[group]
    # the g x g blocks of E*_u' A(s) E*_u in column v, by (v, u, s, u'): one
    # for every v and every nonzero c_{u's}^u of the scheme, whose triples
    # (u, s, u') number them within each v
    triples = np.sort(np.concatenate([(t.astype(np.int64) * r + code % r) * r + code // r
                                      for t, code, _ in cfg.tensor.runs()]))
    N = triples.size
    blocks = np.zeros((r * N, g, g))
    for t, code, c in ext.tensor.runs():
        a, b = np.divmod(code, code.dtype.type(R))
        key = target[b] * N + np.searchsorted(triples, (source[b] * r + parent[a]) * r + source[t])
        np.add.at(blocks.reshape(-1), (key * g + pos[t]) * g + pos[b], c)
    starts = np.append(np.arange(r)[:, None] * N
                       + np.searchsorted(triples // (r * r), np.arange(r)), r * N)

    def to(key):
        return key // N * r + triples[key % N] % r
    span = np.zeros((r * r, g, g))              # projector onto each group's span
    found = np.zeros(r * r, dtype=np.int64)
    cu, cand = np.arange(r) * (r + 1), np.zeros((r, g))    # candidates: E*_v first
    cand[target[ext.colors.diagonal()], pos[ext.colors.diagonal()]] = 1.0
    while cu.size:
        live, at, counts = np.unique(cu, return_inverse=True, return_counts=True)
        order = np.argsort(at, kind="stable")
        Z = np.zeros((live.size, g, counts.max()))
        Z[at[order], :, _segments(0 * counts, counts)] = cand[order]   # per live group
        scale = np.maximum(1.0, np.linalg.norm(Z, axis=1).max(axis=1))
        for _ in range(2):
            Z = Z - span[live] @ Z
        U, sv, _ = np.linalg.svd(Z, full_matrices=False)
        new = sv > RANK_TOL * scale[:, None]
        span[live] += (U * new[:, None]) @ U.transpose(0, 2, 1)
        found[live] += new.sum(axis=1)
        fl, fj = np.nonzero(new)
        first = starts[live[fl]]
        hits = starts[live[fl] + 1] - first   # blocks out of each new direction
        step = max(1, cc_core.BLOCK_CELLS // max(1, int(hits.max(initial=0))))
        cu, cand = [np.empty(0, dtype=np.int64)], [np.empty((0, g))]
        for lo in range(0, fl.size, step):      # a chunk of directions at a time
            hit = _segments(first[lo:lo + step], hits[lo:lo + step])
            of = np.repeat(np.arange(lo, min(lo + step, fl.size)), hits[lo:lo + step])
            dest = to(hit)
            open_ = found[dest] < sizes[dest]
            cu.append(dest[open_])
            cand.append(np.einsum("nab,nb->na", blocks[hit[open_]],
                                  U[fl[of[open_]], :, fj[of[open_]]]))
        cu, cand = np.concatenate(cu), np.concatenate(cand)
    return TerwilligerResult(alpha, int(found.sum()), R, bool(found.sum() == R))
