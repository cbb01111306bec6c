"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes quantities straight from the color matrix (or raw
definitions), deliberately avoiding the library's tensor/search code paths.
``traced_peak`` measures the memory a call allocates.
"""

import tracemalloc
from collections import deque
from itertools import permutations

import numpy as np


def triple_count(colors, r, s, alpha, gamma):
    """|{beta : (alpha,beta) in r, (beta,gamma) in s}| by direct scan."""
    return int(np.count_nonzero((colors[alpha] == r) & (colors[:, gamma] == s)))


def indistinguishing(colors, s):
    """c(s) via its meaning: points related equally to both ends of a pair
    of s; checks constancy over every pair of s."""
    pairs = np.argwhere(colors == s)
    counts = {int(np.count_nonzero(colors[b] == colors[g]))
              for b, g in pairs}
    assert len(counts) == 1, f"c(s) not constant on color {s}"
    return counts.pop()


def splitting_sets_naive(cfg):
    """D(u, v) for every pair of non-diagonal colors of an equivalenced
    scheme, as int bitmasks over color ids, by Python loops over complex
    products read from the color matrix: t is in ab iff some middle point
    of one pair of t sees a, then b."""
    colors = cfg.colors
    star = cfg.star
    nond = cfg.nondiagonal_colors
    ident_bit = 1 << cfg.identity_color
    product_mask = {}   # (a, b) -> bitmask of the complex product ab
    for t in range(cfg.rank):
        x, y = np.argwhere(colors == t)[0]
        for a, b in set(zip(colors[x].tolist(), colors[:, y].tolist())):
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
    return masks


def pair_condition_naive(masks, u, v):
    """Every w, w' in D(u, v) share a relation of D(u,w), D(u,w'), D(v,w)
    and D(v,w'); false when D(u, v) is empty."""
    duv = _bits(masks[(u, v)])
    if not duv:
        return False
    for i, w in enumerate(duv):
        for w2 in duv[i:]:
            if not (masks[(u, w)] & masks[(u, w2)]
                    & masks[(v, w)] & masks[(v, w2)]):
                return False
    return True


def triple_condition_naive(masks, u, v, w):
    """D(u, v), D(v, w) and D(w, u) share a relation."""
    return bool(masks[(u, v)] & masks[(v, w)] & masks[(w, u)])


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def reg(colors, rank, s):
    """reg(s) = sum_t c_{st}^t by direct recounts."""
    total = 0
    for t in range(rank):
        a, g = np.argwhere(colors == t)[0]
        total += triple_count(colors, s, t, int(a), int(g))
    return total


def restriction_semiregular_loop(ext_cfg, alpha):
    """Semiregularity off alpha, one extension color at a time: {alpha} is
    a fiber and every color avoiding it has valency at most 1."""
    f_alpha = int(ext_cfg.point_fiber[alpha])
    if len(ext_cfg.fibers[f_alpha]) != 1:
        return False
    for s in range(ext_cfg.rank):
        if (ext_cfg.relation_source[s] != f_alpha
                and ext_cfg.relation_target[s] != f_alpha
                and ext_cfg.valencies[s] > 1):
            return False
    return True


def valency(colors, s):
    counts = {int(c) for c in np.count_nonzero(colors == s, axis=1) if c}
    assert len(counts) == 1
    return counts.pop()


def complex_product(colors, rank, r, s):
    """rs via one witness pair per color and a middle-point scan over all
    pairs (slow, exact)."""
    n = colors.shape[0]
    out = set()
    A = (colors == r).astype(int)
    B = (colors == s).astype(int)
    P = A @ B
    for t in range(rank):
        if P[colors == t].max(initial=0) > 0:
            out.add(t)
    return frozenset(out)


def automorphisms_brute(colors):
    """All color-preserving permutations, degree <= 8 only."""
    n = colors.shape[0]
    assert n <= 8
    out = []
    for p in permutations(range(n)):
        if all(colors[p[i], p[j]] == colors[i, j]
               for i in range(n) for j in range(n)):
            out.append(p)
    return out


def group_elements_naive(generators, n):
    """Every element of the group generated by ``generators`` (degree n),
    by breadth-first closure from the identity."""
    gens = [tuple(g) for g in generators]
    e = tuple(range(n))
    elements = [e]
    seen = {e}
    queue = deque([e])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                seen.add(y)
                elements.append(y)
                queue.append(y)
    return elements


def orbital_colors_naive(elements, n):
    """The 2-orbit id of every pair under the group listed by ``elements``
    (degree n), ids numbered in row-major order of first occurrence."""
    colors = [[-1] * n for _ in range(n)]
    c = 0
    for a in range(n):
        for b in range(n):
            if colors[a][b] < 0:
                for g in elements:
                    colors[g[a]][g[b]] = c
                c += 1
    return colors


def design_blocks_argsort(cfg):
    """``Design.blocks`` of a scheme: a stable argsort of each row of the
    colors, with the column of the diagonal cell dropped."""
    order = np.argsort(cfg.colors, axis=1, kind="stable")
    return np.delete(order, int(cfg.valencies[:cfg.identity_color].sum()), axis=1)


def pair_coverage(blocks, n):
    """Number of blocks containing each unordered point pair."""
    cov = np.zeros((n, n), dtype=int)
    for b in blocks:
        for i, x in enumerate(b):
            for y in b[i + 1:]:
                cov[x, y] += 1
                cov[y, x] += 1
    return {int(cov[x, y]) for x in range(n) for y in range(n) if x != y}


def matrix_algebra_dimension(generators, tol=1e-8):
    """Dimension of the unital matrix algebra generated by the given n x n
    matrices: the span of all words in them, grown from the identity by
    left multiplication with every generator until it stops growing.  Each
    round's new words are projected off the span so far and ranked by one
    SVD, with singular values below tol times the largest word norm (at
    least 1) counted as zero."""
    gens = np.array([np.asarray(g, dtype=float) for g in generators])
    n = gens.shape[1]
    basis = fresh = np.eye(n).reshape(1, n * n) / np.sqrt(n)
    while len(fresh):
        words = np.einsum("gij,kjl->gkil", gens, fresh.reshape(-1, n, n))
        words = words.reshape(-1, n * n)
        resid = words
        for _ in range(2):
            resid = resid - (resid @ basis.T) @ basis
        _, sv, vt = np.linalg.svd(resid, full_matrices=False)
        fresh = vt[sv > tol * max(1.0, np.linalg.norm(words, axis=1).max())]
        basis = np.concatenate([basis, fresh])
    return len(basis)


def wl_closure_naive(colors, distinguished=()):
    """Pure-dict 2-dim Weisfeiler-Leman refinement, no hashing or numpy."""
    n = len(colors)
    marks = {b: i + 1 for i, b in enumerate(sorted(set(distinguished)))}
    cur = {(a, g): (int(colors[a][g]), marks.get(a, 0), marks.get(g, 0))
           for a in range(n) for g in range(n)}
    cur = _relabel(cur, n)
    while True:
        nxt = {}
        for a in range(n):
            for g in range(n):
                sig = sorted((cur[(a, b)], cur[(b, g)]) for b in range(n))
                nxt[(a, g)] = (cur[(a, g)], tuple(sig))
        nxt = _relabel(nxt, n)
        if max(nxt.values()) == max(cur.values()):
            return [[nxt[(a, g)] for g in range(n)] for a in range(n)]
        cur = nxt


def _relabel(coloring, n):
    ids = {}
    out = {}
    for a in range(n):
        for g in range(n):
            key = coloring[(a, g)]
            out[(a, g)] = ids.setdefault(key, len(ids))
    return out


def coherent_axioms_brute(colors):
    """Straight-from-the-definitions axiom check; returns None if coherent,
    else the name of the violated axiom."""
    import numpy as np
    colors = np.asarray(colors)
    n = colors.shape[0]
    r = int(colors.max()) + 1
    if sorted(set(colors.ravel().tolist())) != list(range(r)):
        return "ids"
    for s in range(r):
        cells = [(a, b) for a in range(n) for b in range(n) if colors[a, b] == s]
        diag_flags = {a == b for a, b in cells}
        if len(diag_flags) > 1:
            return "S1"
    for s in range(r):
        transposed = {int(colors[b, a]) for a in range(n) for b in range(n)
                      if colors[a, b] == s}
        if len(transposed) != 1:
            return "S2"
    for rr in range(r):
        for ss in range(r):
            for tt in range(r):
                counts = {triple_count(colors, rr, ss, a, g)
                          for a in range(n) for g in range(n)
                          if colors[a, g] == tt}
                if len(counts) > 1:
                    return "S3"
    return None


def t_condition_naive(colors, t):
    """t-condition from the definition: per relation, the multiset of
    canonical k-subset types over its pairs must be constant (k = 3, 4)."""
    from collections import Counter
    import numpy as np
    colors = np.asarray(colors)
    n = colors.shape[0]
    r = int(colors.max()) + 1
    verdicts = {}
    for s in range(r):
        refs = {}
        ok = True
        for a in range(n):
            for b in range(n):
                if colors[a, b] != s:
                    continue
                t3 = Counter()
                t4 = Counter()
                for g in range(n):
                    if g in (a, b):
                        continue
                    t3[(int(colors[a, g]), int(colors[g, a]),
                        int(colors[b, g]), int(colors[g, b]),
                        int(colors[g, g]))] += 1
                    if t < 4:
                        continue
                    for d in range(g + 1, n):
                        if d in (a, b):
                            continue
                        orderings = []
                        for x, y in ((g, d), (d, g)):
                            orderings.append((
                                int(colors[a, x]), int(colors[x, a]),
                                int(colors[b, x]), int(colors[x, b]),
                                int(colors[x, x]),
                                int(colors[a, y]), int(colors[y, a]),
                                int(colors[b, y]), int(colors[y, b]),
                                int(colors[y, y]),
                                int(colors[x, y]), int(colors[y, x])))
                        t4[min(orderings)] += 1
                key = (tuple(sorted(t3.items())), tuple(sorted(t4.items())))
                if s not in refs:
                    refs[s] = key
                elif refs[s] != key:
                    ok = False
        verdicts[s] = ok
    return verdicts


def t_condition_per_pair(cfg, t, relations=None):
    """t-condition one pair at a time: per relation, each pair's five colors
    to and from every other point are packed into one int64 word (r^6 must
    fit), sorted, and compared with the relation's first pair; for t = 4 the
    unordered types of the other point pairs are compared as sorted
    (min, max) records of (word, cross color).  Verdicts for ``relations``,
    or for every relation."""
    n, r, C = cfg.n, cfg.rank, cfg.colors
    if r ** 6 > 2 ** 62:
        raise ValueError("rank too large for type packing")

    def pack(cols):
        out = np.zeros_like(cols[0], dtype=np.int64)
        for c in cols:
            out = out * np.int64(r) + c
        return out

    diag = C.diagonal().copy()
    idx = np.arange(n)
    verdicts = {}
    for s in range(r) if relations is None else relations:
        ok = True
        ref3 = ref4 = None
        for alpha, beta in cfg.relation_pairs(s):
            alpha, beta = int(alpha), int(beta)
            others = (idx != alpha) & (idx != beta)
            p5 = pack([C[alpha], C[:, alpha], C[beta], C[:, beta], diag])
            sig3 = np.sort(p5[others])
            if ref3 is None:
                ref3 = sig3
            elif not np.array_equal(ref3, sig3):
                ok = False
                break
            if t < 4:
                continue
            hi = p5[:, None] * np.int64(r) + C
            lo = p5[None, :] * np.int64(r) + C.T
            mask = others[:, None] & others[None, :] & (idx[:, None] < idx[None, :])
            packed = np.empty(int(mask.sum()), dtype=[("h", np.int64), ("l", np.int64)])
            packed["h"] = np.minimum(hi, lo)[mask]
            packed["l"] = np.maximum(hi, lo)[mask]
            packed.sort()
            if ref4 is None:
                ref4 = packed
            elif not np.array_equal(ref4, packed):
                ok = False
                break
        verdicts[s] = ok
    return verdicts


def central_idempotents_naive(cfg, seed=0, tol=1e-8):
    """(m_P, n_P, coefficients) of every central primitive idempotent, the
    principal block first, then by (n_P, m_P), from n x n matrices.

    The center is solved from intersection numbers recounted on the color
    matrix.  A random central element C = sum_s z_s A(s) is split into its
    Hermitian and skew-Hermitian parts, whose joint eigenprojections P are
    the idempotents; m_P n_P = tr P, and n_P^2 is the rank of the ideal
    P·A, read off P A(s) at one pair per color."""
    colors = cfg.colors
    n, r = cfg.n, cfg.rank
    x, y = np.array([np.argwhere(colors == t)[0] for t in range(r)]).T
    # c[a, b, t] = #{k : colors[x_t, k] = a, colors[k, y_t] = b}
    c = np.zeros((r, r, r))
    for t in range(r):
        np.add.at(c[:, :, t], (colors[x[t]], colors[:, y[t]]), 1)
    # sum_a z_a (c_{ab}^t - c_{ba}^t) = 0 for every (b, t)
    eqs = (c - c.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(r * r, r)
    _, sv, vt = np.linalg.svd(eqs, full_matrices=False)
    center = vt[int((sv > tol * sv[0]).sum()) if sv[0] > 0 else 0:]

    rng = np.random.default_rng(seed)
    d = len(center)
    C = (center.T @ (rng.standard_normal(d) + 1j * rng.standard_normal(d)))[colors]
    H1 = (C + C.conj().T) / 2
    H2 = (C - C.conj().T) / 2j
    gap = tol * max(np.linalg.norm(H1, 2), np.linalg.norm(H2, 2), 1e-12)

    def clusters(values):
        cuts = [0] + [i for i in range(1, len(values))
                      if values[i] - values[i - 1] > gap] + [len(values)]
        return [slice(a, b) for a, b in zip(cuts, cuts[1:])]

    projectors = []
    vals1, vecs1 = np.linalg.eigh(H1)
    for cl1 in clusters(vals1):
        V1 = vecs1[:, cl1]
        vals2, vecs2 = np.linalg.eigh(V1.conj().T @ H2 @ V1)
        for cl2 in clusters(vals2):
            V = V1 @ vecs2[:, cl2]
            projectors.append(V @ V.conj().T)
    assert len(projectors) == d, "one projector per center dimension"

    # onehot[k, t, s]: (k, y_t) has color s, so (P A(s))[x_t, y_t] is
    # sum_k P[x_t, k] onehot[k, t, s]
    onehot = colors[:, y][:, :, None] == np.arange(r)
    blocks = []
    for P in projectors:
        assert np.abs(P @ P - P).max() < 1e-6, "idempotent"
        assert np.abs(P - P.conj().T).max() < 1e-6, "Hermitian"
        coeffs = P[x, y]
        assert np.abs(coeffs[colors] - P).max() < 1e-6, "constant on colors"
        ideal = np.einsum("tk,kts->ts", P[x], onehot)
        sv = np.linalg.svd(ideal, compute_uv=False)
        dim = int((sv > tol * sv[0]).sum())
        n_p = int(round(np.sqrt(dim)))
        assert n_p * n_p == dim, "ideal dimension is a square"
        m_p = int(round(P.trace().real / n_p))
        blocks.append((m_p, n_p, coeffs))
    principal = [i for i, (_, _, e) in enumerate(blocks)
                 if np.abs(e - 1.0 / n).max() < 1e-6]
    assert len(principal) == 1, "one principal block J/n"
    p0 = principal[0]
    rest = sorted((i for i in range(d) if i != p0),
                  key=lambda i: (blocks[i][1], blocks[i][0], i))
    return [blocks[i] for i in [p0] + rest]


def center_basis_dense(cfg, tol=1e-8):
    """Orthonormal coefficient vectors spanning the center of the adjacency
    algebra: the null space of the dense (r^2, r) commutator equations,
    c_{at}^u - c_{ta}^u at row (t, u) and column a, from one SVD, with
    singular values below tol * sigma_max taken as zero."""
    r = cfg.rank
    a, b, u, c = tensor_entries(cfg.tensor)
    eqs = np.zeros((r * r, r))
    np.add.at(eqs, (b * r + u, a), c)
    np.add.at(eqs, (a * r + u, b), -c)
    _, sv, vt = np.linalg.svd(eqs, full_matrices=False)
    return vt[int((sv > tol * sv[0]).sum()) if sv[0] > 0 else 0:]


def verify_classes_all_references(colors, r, classes):
    """The S3 pass that holds the reference of every class at once: row c
    of ref holds the sorted composition codes colors(a,b)*r + colors(b,g)
    of the row-major first pair (a, g) of class c.  Returns (ref,
    first_cell, bad): the (m, n) int64 references, the flat index of every
    reference pair, and the (n, n) boolean mask of every pair whose codes
    differ from its class's reference, or None when there is none."""
    colors = np.asarray(colors, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    n = colors.shape[0]
    flat = classes.ravel()
    first_cell = np.full(int(flat.max()) + 1, flat.size, dtype=np.int64)
    np.minimum.at(first_cell, flat, np.arange(flat.size))
    ref = np.zeros((first_cell.size, n), dtype=np.int64)
    bad = np.zeros((n, n), dtype=bool)
    for alpha in range(n):
        sig = np.sort(colors[alpha][None, :] * r + colors.T, axis=1)
        opened = np.flatnonzero(first_cell // n == alpha)
        ref[opened] = sig[first_cell[opened] % n]
        bad[alpha] = (sig != ref[classes[alpha]]).any(axis=1)
    return ref, first_cell, bad if bad.any() else None


def tensor_from_signatures_argsort(ref, r):
    """The tensor's sorted (keys, counts) read off reference signatures (row
    t holds the sorted composition codes u*r + s of one pair of color t) by
    one global argsort of the keys (u*r + s)*r + t of all runs."""
    rows, n = ref.shape
    starts = np.ones((rows, n), dtype=bool)
    np.not_equal(ref[:, 1:], ref[:, :-1], out=starts[:, 1:])
    starts = np.flatnonzero(starts)
    counts = np.diff(starts, append=rows * n)
    keys = ref.ravel()[starts].astype(np.int64) * r + starts // n
    order = np.argsort(keys)
    return keys[order], counts[order]


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tensor_entries(T):
    """The nonzero entries of an intersection tensor as int64 arrays
    (r, s, t, c), sorted by (r, s, t), read off its runs: these come in
    ascending t, so a stable sort of the codes r*rank + s."""
    t, code, c = (np.concatenate(x) for x in zip(*T.runs()))
    order = np.argsort(code, kind="stable")
    r, s = np.divmod(code[order].astype(np.int64), T.rank)
    return r, s, t[order].astype(np.int64), c[order].astype(np.int64)


def dense_tensor(T):
    """The intersection tensor as a dense (r, r, r) int array."""
    arr = np.zeros((T.rank,) * 3, dtype=np.int64)
    a, b, t, c = tensor_entries(T)
    arr[a, b, t] = c
    return arr


def algebraic_isomorphisms(cfg1, cfg2):
    """Every tensor-preserving color bijection cfg1 -> cfg2, as
    ``ColorBijection``s, by backtracking over color maps with candidate
    filtering by the structure vectors of every assigned pair; each full map
    is checked on the dense tensors.  Degrees must match; a rank mismatch
    yields the empty list."""
    from schemelab.analysis import ColorBijection

    if cfg1.n != cfg2.n:
        raise ValueError(f"degree mismatch: {cfg1.n} vs {cfg2.n}")
    if cfg1.rank != cfg2.rank:
        return []
    r = cfg1.rank
    T1 = dense_tensor(cfg1.tensor)
    T2 = dense_tensor(cfg2.tensor)

    diag1 = np.zeros(r, dtype=bool)
    diag1[list(cfg1.diagonal_colors)] = True
    diag2 = np.zeros(r, dtype=bool)
    diag2[list(cfg2.diagonal_colors)] = True
    selfstar1 = cfg1.star == np.arange(r)
    selfstar2 = cfg2.star == np.arange(r)
    cand = (diag1[:, None] == diag2[None, :]) \
        & (cfg1.valencies[:, None] == cfg2.valencies[None, :]) \
        & (selfstar1[:, None] == selfstar2[None, :])

    results = []

    def extend(depth, cand, image):
        if depth == r:
            m = np.asarray(image)
            if np.array_equal(T2[np.ix_(m, m, m)], T1):
                results.append(ColorBijection(cfg1, cfg2, tuple(image)))
            return
        a = depth
        for a2 in np.flatnonzero(cand[a]):
            a2 = int(a2)
            new = cand.copy()
            new[a, :] = False
            new[:, a2] = False
            new[a, a2] = True
            ok = True
            for b in range(depth + 1):
                b2 = image[b] if b < depth else a2
                for V1, V2 in (
                        (T1[a, b], T2[a2, b2]), (T1[b, a], T2[b2, a2]),
                        (T1[a, :, b], T2[a2, :, b2]), (T1[b, :, a], T2[b2, :, a2]),
                        (T1[:, a, b], T2[:, a2, b2]), (T1[:, b, a], T2[:, b2, a2])):
                    new &= V1[:, None] == V2[None, :]
                if not (new.any(axis=1).all() and new.any(axis=0).all()):
                    ok = False
                    break
            if not ok:
                continue
            image[a] = a2
            extend(depth + 1, new, image)
            image[a] = -1

    extend(0, cand, [-1] * r)
    return results


def block_matchings(cfg, au, aw):
    """The relations of the block au x aw as dicts x -> y in ascending
    color order, each checked to be a perfect matching."""
    block = cfg.colors[np.ix_(au, aw)]
    out = []
    for s in np.unique(block):
        hits = block == s
        assert (hits.sum(axis=0) == 1).all() and (hits.sum(axis=1) == 1).all()
        out.append({int(au[i]): int(aw[j]) for i, j in np.argwhere(hits)})
    return out


def fixed_points(g):
    return [i for i, gi in enumerate(g) if gi == i]


def affine_colors_naive(field, dim):
    """The AG(dim, q) color matrix by a loop over point pairs and the
    field's scalar methods: the direction of beta - alpha, scaled so its
    first nonzero coordinate is 1, numbered by first occurrence."""
    q = field.q
    coords = [[x // q ** j % q for j in range(dim)] for x in range(q ** dim)]
    ids = {}
    colors = np.zeros((len(coords), len(coords)), dtype=np.int64)
    for a, alpha in enumerate(coords):
        for b, beta in enumerate(coords):
            delta = [field.sub(y, x) for x, y in zip(alpha, beta)]
            lead = next((d for d in delta if d), None)
            if lead is not None:
                scale = field.inv(lead)
                rep = tuple(field.mul(scale, d) for d in delta)
                colors[a, b] = ids.setdefault(rep, len(ids) + 1)
    return colors
