"""Validation, intersection tensor, and the combinatorial scheme tests."""

import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from schemelab import analysis, cc_core, cli, constructors, extension, spectral
from schemelab.analysis import ColorBijection
from schemelab.errors import (
    AxiomS1Violated,
    AxiomS2Violated,
    AxiomS3Violated,
    NotAScheme,
    TooLarge,
    ValencyTooSmall,
)

Z3_MATRIX = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


def test_trivial_single_point():
    cfg = cc_core.validate_config([[0]])
    assert cfg.rank == 1 and cfg.is_scheme
    assert cfg.valencies.tolist() == [1]


def test_regular_z3_matrix():
    cfg = cc_core.validate_config(Z3_MATRIX)
    assert cfg.rank == 3
    assert cfg.valencies.tolist() == [1, 1, 1]
    assert cfg.star.tolist() == [0, 2, 1]  # star swaps the two shift classes


def test_ag23_tensor_matches_affine_intersection_numbers(ag23):
    # Affine scheme intersection numbers: c_{rr}^{1} = q-1, c_{rr}^{r} = q-2,
    # c_{rs}^{t} = 1 for distinct directions with t in rs.
    q = 3
    assert ag23.rank == 5
    assert ag23.valencies.tolist() == [1, 2, 2, 2, 2]
    nond = ag23.nondiagonal_colors
    for r in nond:
        assert ag23.tensor[r, r, 0] == q - 1
        assert ag23.tensor[r, r, r] == q - 2
        for s in nond:
            if s == r:
                continue
            prods = cc_core.complex_product(ag23, r, s)
            assert r not in prods and s not in prods and 0 not in prods
            for t in prods:
                assert ag23.tensor[r, s, t] == 1


def test_axiom_s2_violation_reported():
    # transpose of color 1 split across colors 1 and 2
    bad = [[0, 1, 1], [2, 0, 1], [1, 2, 0]]
    with pytest.raises(AxiomS2Violated):
        cc_core.validate_config(bad)


def test_axiom_s1_violation_reported():
    bad = [[0, 0], [1, 0]]
    with pytest.raises(AxiomS1Violated):
        cc_core.validate_config(bad)


def test_axiom_s3_violation_reports_witnesses():
    # S1- and S2-clean, but color 2 is a single asymmetric-count edge pair
    bad = [[0, 2, 1, 1],
           [2, 0, 1, 1],
           [1, 1, 0, 1],
           [1, 1, 1, 0]]
    with pytest.raises(AxiomS3Violated) as info:
        cc_core.validate_config(bad)
    err = info.value
    assert err.triple is not None and err.pairs is not None
    assert err.counts[0] != err.counts[1]
    # the 6-cycle is regular, so only the full S3 pass sees that pairs at
    # distance 2 and 3 share 1 and 0 neighbours; the tensor is built on
    # first read, but S3 is checked when the configuration is made
    c6 = [[0 if i == j else 1 if (i - j) % 6 in (1, 5) else 2 for j in range(6)]
          for i in range(6)]
    with pytest.raises(AxiomS3Violated, match=re.escape(
            "c[1][1][2] is 0 at pair (0,3) but 1 at pair (0,2)")) as info:
        cc_core.validate_config(c6)
    err = info.value
    assert (err.triple, err.pairs, err.counts) == ((1, 1, 2), ((0, 3), (0, 2)), (0, 1))


def test_valency_violation_reports_first_color_and_point():
    # fibers {0, 1} and {2, 3, 4}; color 4 runs between them with valency
    # 1 at point 0 but 2 at point 1
    bad = [[0, 2, 4, 5, 5],
           [2, 0, 4, 4, 5],
           [6, 6, 1, 3, 3],
           [7, 6, 3, 1, 3],
           [7, 7, 3, 3, 1]]
    with pytest.raises(AxiomS3Violated,
                       match="valency of color 4 differs between points 0 and 1"):
        cc_core.validate_config(bad, canonicalize=False)
    path = [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]
    with pytest.raises(AxiomS3Violated) as info:
        cc_core.validate_config(path)
    err = info.value
    assert (err.triple, err.pairs, err.counts) == ((1, 1, 0), ((0, 0), (1, 1)), (1, 2))
    # every off-diagonal cell its own color: point 1 holds no pair of color
    # 1 at all, and in the second matrix neither does the source point 0
    for m, triple, counts in (([[0, 1, 2], [3, 0, 4], [5, 6, 0]], (1, 3, 0), (1, 0)),
                              ([[0, 2, 3], [1, 0, 4], [5, 6, 0]], (1, 2, 0), (0, 1))):
        with pytest.raises(AxiomS3Violated,
                           match="valency of color 1 differs between points 0 and 1") as info:
            cc_core.validate_config(m, canonicalize=False)
        err = info.value
        assert (err.triple, err.pairs, err.counts) == (triple, ((0, 0), (1, 1)), counts)


@pytest.mark.parametrize("n", [256, 257])
def test_narrow_types_at_their_boundaries(n, tmp_path):
    # the regular scheme of Z_n has rank n: 256 is the last rank with
    # uint8 colors and uint16 codes (r^2 = 65 536), 257 the first with
    # uint16 colors and int32 codes; a dump and load keeps both
    cfg = constructors.regular_scheme(constructors.cyclic_group_table(n))
    path = tmp_path / f"z{n}.json"
    cli.write_scheme(path, cfg)
    loaded, _ = cli.load_scheme(path)
    assert cli.dump_scheme(loaded) == path.read_bytes()
    assert np.array_equal(loaded.colors, cfg.colors)
    C = np.array(cfg.colors)
    assert cfg.rank == n and C[1, 0] == n - 1
    narrow = n == 256
    for colors in (cfg.colors, loaded.colors):
        assert colors.dtype == cc_core._color_dtype(n) == (np.uint8 if narrow else np.uint16)
    assert cc_core._row_signatures(C.T, C[0], n, [1]).dtype == (np.uint16 if narrow else np.int32)
    ref = cc_core._reference_signatures(cfg)
    assert ref.dtype == (np.uint16 if narrow else np.int32)
    keys, counts = oracles.tensor_from_signatures_argsort(ref, n)
    u, s, t, c = cfg.tensor.arrays()
    assert np.array_equal((u * n + s) * n + t, keys)
    assert np.array_equal(c, counts)
    # C[a, b] = b - a, so c_{rs}^t = 1 exactly when t = r + s mod n
    r, s = np.divmod(np.arange(n * n), n)
    assert np.array_equal(keys, (r * n + s) * n + (r + s) % n)
    assert (counts == 1).all()

    # one cell: (0, 1) takes color 2, whose other cells have transpose -2
    m = C.copy()
    m[0, 1] = 2
    with pytest.raises(AxiomS2Violated, match=re.escape(
            f"transpose of color 2 is split across colors [{n - 2}, {n - 1}]")):
        cc_core.validate_config(m, canonicalize=False)
    # one pair swapped with its transpose: row 0 holds color 5 nowhere
    m = C.copy()
    m[0, 5], m[5, 0] = C[5, 0], C[0, 5]
    with pytest.raises(AxiomS3Violated, match=re.escape(
            "valency of color 5 differs between points 0 and 1")) as info:
        cc_core.validate_config(m, canonicalize=False)
    err = info.value
    assert (err.triple, err.pairs, err.counts) == ((5, n - 5, 0), ((0, 0), (1, 1)), (0, 1))
    if narrow:
        # switch the intercalate on rows 3, 131 and columns 10, 138 and its
        # transpose: still a Latin square closed under transposes, so only
        # the full S3 pass, on uint16 codes, sees it
        m = C.copy()
        for x, y in ((3, 10), (10, 3)):
            rows, cols = [x, x + 128], [y, y + 128]
            m[np.ix_(rows, cols)] = m[np.ix_(rows, cols[::-1])]
        with pytest.raises(AxiomS3Violated, match=re.escape(
                "c[9][121][2] is 1 at pair (1,3) but 0 at pair (0,2)")) as info:
            cc_core.validate_config(m, canonicalize=False)
        err = info.value
        assert (err.triple, err.pairs, err.counts) == ((9, 121, 2), ((1, 3), (0, 2)), (1, 0))


def test_validation_peak_memory_at_c499k6():
    # 499 points, rank 84: the int64 S2 codes, their transpose and sort
    # copy took 5.78 MiB; a uint8 working copy beside int64 colors 3.9 MiB;
    # uint8 colors throughout 2.1 MiB, the S3 pass on uint16 codes the
    # largest part; every pair walked, with the n x n gather of the
    # references, 2.01 MiB; about half the pairs, a block of signatures at
    # a time, 0.80 MiB
    colors = constructors.cyclotomic_scheme(constructors.FiniteField(499), 6).colors
    cfg, peak = oracles.traced_peak(cc_core.validate_config, colors)
    assert cfg.rank == 84 and np.array_equal(cfg.colors, colors)
    assert peak <= 2**20


def _signature_rows(monkeypatch):
    """A list that gets the number of signature rows of each
    ``_row_signatures`` call from now on."""
    computed = []
    signatures = cc_core._row_signatures

    def spy(*args):
        sig = signatures(*args)
        computed.append(len(sig))
        return sig

    monkeypatch.setattr(cc_core, "_row_signatures", spy)
    return computed


def test_s3_pass_walks_about_half_of_the_pairs(c67k2, c151k3, monkeypatch):
    # under S2 the pass walks the pairs on or above the diagonal, and below
    # it at most one pair per color; every pair, n^2 signature rows, before.
    # The oracle test above counts the passes of the corpus and the
    # explicit extensions
    computed = _signature_rows(monkeypatch)
    cc_core.validate_config(c151k3.colors)
    assert sum(computed) <= 151 * 152 // 2 + 2 * c151k3.rank
    # the one exact pass of a closure, on its final round
    computed.clear()
    assert extension.coherent_closure(c67k2, {0}).rank == 2245
    assert 0 < sum(computed) <= 67 ** 2


def test_noncontiguous_ids_rejected():
    with pytest.raises(ValueError):
        cc_core.validate_config([[0, 3], [3, 0]])


def test_huge_ids_fail_before_anything_is_sized_by_them():
    # contiguous ids stay below the n^2 cells, so id 10^9 on 2 points fails
    # at once; a bincount sized by it asked for 7.45 GiB
    def attempt(canonicalize):
        with pytest.raises(ValueError, match="contiguous"):
            cc_core.validate_config([[0, 10**9], [10**9, 0]], canonicalize=canonicalize)

    for canonicalize in (True, False):
        _, peak = oracles.traced_peak(attempt, canonicalize)
        assert peak < 2**16


def test_colors_are_narrow_and_read_only_on_every_path(tmp_path, c67k2):
    # validate_config, a loaded file, the closure and the explicit
    # extension all hold their colors in the narrowest type for the rank
    path = tmp_path / "c67k2.json"
    cli.write_scheme(path, c67k2)
    loaded, _ = cli.load_scheme(path)
    explicit = extension.explicit_extension(c67k2, 0)
    closure = extension.coherent_closure(c67k2, {0})
    validated = cc_core.validate_config(explicit.colors.astype(np.int64), canonicalize=False)
    for cfg in (c67k2, loaded, explicit, closure, validated):
        assert cfg.colors.dtype == cc_core._color_dtype(cfg.rank)
        assert not cfg.colors.flags.writeable
    assert (c67k2.colors.dtype, explicit.colors.dtype) == (np.uint8, np.uint16)
    assert np.array_equal(loaded.colors, c67k2.colors)
    assert np.array_equal(validated.colors, explicit.colors)
    # past 65 536 colors: the discrete configuration on 257 points
    discrete = cc_core.validate_config(np.arange(257 * 257).reshape(257, 257))
    assert discrete.rank == 66049 and discrete.colors.dtype == np.int32
    assert [cc_core._color_dtype(r) for r in (1, 256, 257, 65536, 65537)] == \
        [np.uint8, np.uint8, np.uint16, np.uint16, np.int32]


def test_first_cells_match_relation_pairs(corpus, c67k2):
    ext = extension.coherent_closure(c67k2, {0})
    assert ext.rank == 2245
    for cfg in list(corpus.values()) + [ext]:
        first = cc_core.first_cells(cfg.colors)
        assert first.dtype == np.int64 and first.shape == (cfg.rank,)
        for s in range(cfg.rank):
            assert divmod(int(first[s]), cfg.n) == tuple(cfg.relation_pairs(s)[0])


def test_canonicalize_first_occurrence_order():
    relabeled = cc_core.canonicalize_colors([[2, 0], [0, 2]])
    assert relabeled.tolist() == [[0, 1], [1, 0]]


def test_tensor_recount_random_probes(corpus):
    rng = np.random.default_rng(7)
    for name, cfg in corpus.items():
        colors = cfg.colors
        for _ in range(100 if cfg.n <= 30 else 25):
            t = int(rng.integers(cfg.rank))
            pairs = cfg.relation_pairs(t)
            a, g = map(int, pairs[int(rng.integers(len(pairs)))])
            r = int(rng.integers(cfg.rank))
            s = int(rng.integers(cfg.rank))
            assert cfg.tensor[r, s, t] == oracles.triple_count(colors, r, s, a, g), name


def test_tensor_api_views_agree_with_oracle(corpus):
    for name, cfg in corpus.items():
        R = cfg.rank
        T = cfg.tensor
        u, s, t, c = T.arrays()
        keys = (u * R + s) * R + t
        assert (np.diff(keys) > 0).all() and (c > 0).all(), name
        items = list(T.items())
        assert items == [((a, b, g), x) for a, b, g, x in
                         zip(u.tolist(), s.tolist(), t.tolist(), c.tolist())], name
        assert T.nonzero_count() == len(items), name
        dense = oracles.dense_tensor(T)
        assert np.count_nonzero(dense) == len(items), name
        reps = [cfg.relation_pairs(g)[0] for g in range(R)]
        for a in range(R):
            for b in range(R):
                row = T.products(a, b)
                assert list(row) == sorted(row), name
                for g in range(R):
                    count = oracles.triple_count(cfg.colors, a, b, *map(int, reps[g]))
                    assert T[a, b, g] == dense[a, b, g] == row.get(g, 0) == count, name


def test_is_commutative(frob23, c67k2):
    assert not cc_core.is_commutative(frob23)
    assert cc_core.is_commutative(c67k2)


def test_color_transpositions_valid_iff_tensor_preserved(corpus):
    rejected = 0
    for name, cfg in corpus.items():
        R = cfg.rank
        dense = oracles.dense_tensor(cfg.tensor)
        for a in range(R):
            for b in range(a + 1, R):
                perm = np.arange(R)
                perm[[a, b]] = [b, a]
                preserved = np.array_equal(dense[np.ix_(perm, perm, perm)], dense)
                assert ColorBijection(cfg, cfg, tuple(perm.tolist())).is_valid() == preserved, \
                    (name, a, b)
                rejected += not preserved
    assert rejected


def test_extension_tensor_stores_exactly_its_signature_matrix(c67k2):
    # the rank-2245 point extension: one dict per (r, s) took ~360 bytes
    # per nonzero, the packed int64 keys and counts 16 (2.35 MB); the
    # (rank, n) signature matrix in int32 codes takes 0.59 MB
    T = extension.coherent_closure(c67k2, {0}).tensor
    assert T.rank == 2245
    stored = [v for k, v in vars(T).items() if k != "rank"]
    assert all(isinstance(v, np.ndarray) and not v.flags.writeable for v in stored)
    assert sum(v.nbytes for v in stored) == 2245 * 67 * 4


def test_tensor_views_match_argsort_oracle(corpus, c67k2, c151k3, monkeypatch):
    configs = list(corpus.values()) + [extension.coherent_closure(c67k2, {0}),
                                       extension.explicit_extension(c151k3, 0)]
    assert [cfg.rank for cfg in configs[-2:]] == [2245, 7601]
    # one block of rows per 2^14 cells, then every row its own block
    for cells, cfgs in ((cc_core.BLOCK_CELLS, configs), (1, list(corpus.values()))):
        monkeypatch.setattr(cc_core, "BLOCK_CELLS", cells)
        for cfg in cfgs:
            R = cfg.rank
            ref, _, bad = oracles.verify_classes_all_references(cfg.colors, R, cfg.colors)
            assert bad is None
            keys, counts = oracles.tensor_from_signatures_argsort(ref, R)
            T = cfg.tensor
            assert T is cfg.tensor
            u, s, t, c = T.arrays()
            assert all(x.dtype == np.int64 for x in (u, s, t, c))
            assert np.array_equal((u * R + s) * R + t, keys) and np.array_equal(c, counts)
            assert T.nonzero_count() == keys.size
            # the runs come in ascending t, and within a row in ascending code
            t, code, c = (np.concatenate(x) for x in zip(*T.runs()))
            by_row = np.lexsort((keys // R, keys % R))
            assert np.array_equal(t, keys[by_row] % R)
            assert np.array_equal(code, keys[by_row] // R) and np.array_equal(c, counts[by_row])


def test_readers_hold_no_nnz_sized_int64_array(monkeypatch):
    # c499k6: rank 84, 40 671 nonzero intersection numbers.  The readers
    # take the runs of the signature matrix a block of rows at a time; the
    # int64 coordinate arrays (four of 8 bytes per nonzero) took
    # is_commutative to 2266 KiB, indistinguishing_numbers to 1311,
    # reg_numbers to 1273 and decompose to 3219, against 158, 208, 201 and
    # 1074 KiB on the runs
    c = constructors.cyclotomic_scheme(constructors.FiniteField(499), 6)
    one = 8 * c.tensor.nonzero_count()      # one int64 array of the nonzeros

    def refuse(self):
        raise AssertionError("arrays() read")

    monkeypatch.setattr(cc_core.IntersectionTensor, "arrays", refuse)
    for reader in (cc_core.is_commutative, cc_core.indistinguishing_numbers,
                   cc_core.reg_numbers):
        _, peak = oracles.traced_peak(reader, c)
        assert peak < one, reader.__name__
    # decompose holds r x r complex matrices besides; it stays below the
    # four arrays alone
    dec, peak = oracles.traced_peak(spectral.decompose, c)
    assert len(dec.blocks) == 84 and peak < 4 * one


def _affine(cfg):
    try:
        return analysis.recognize_affine(cfg)
    except ValencyTooSmall:
        return None


@pytest.mark.parametrize("cells", [1, 97])
def test_block_readers_do_not_depend_on_the_block_size(corpus, cells, monkeypatch):
    # one row of the signature matrix per block, and blocks of a few rows
    # that do not divide the rank
    answers = {}
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(cc_core, "BLOCK_CELLS", cells)
        for name, cfg in corpus.items():
            T = cfg.tensor
            star = tuple(int(s) for s in cfg.star)
            answers.setdefault(name, []).append((
                cc_core.is_commutative(cfg),
                cc_core.indistinguishing_numbers(cfg).tolist(),
                cc_core.reg_numbers(cfg).tolist(),
                ColorBijection(cfg, cfg, star).is_valid(),
                _affine(cfg),
                spectral.decompose(cfg).pairs,
                [T.products(a, b) for a in range(cfg.rank) for b in range(cfg.rank)],
                T.nonzero_count()))
    for name, (before, after) in answers.items():
        assert before == after, name


def _fiber_corruptions(cfg):
    """Corruptions of an S1-clean color matrix: a cell of the last point a
    of the second fiber recolored by another color of that fiber, a cell of
    the first point b of a later fiber recolored by that same color, and
    both at once.  b lies between the first point of the second fiber and
    a, so the fiber walk may find a failure at a before one at b."""
    C = np.array(cfg.colors)
    first, a = int(cfg.fibers[1][0]), int(cfg.fibers[1][-1])
    b = next(int(f[0]) for f in cfg.fibers[2:] if first < f[0] < a)
    off = np.flatnonzero(C[a] != C[a, a])
    g = int(off[0])
    t = C[a, next(x for x in off if C[a, x] != C[a, g])]
    inside, spread = C.copy(), C.copy()
    inside[a, g] = t
    spread[b, np.flatnonzero(C[b] != C[b, b])[0]] = t
    both = inside.copy()
    both[b] = spread[b]
    return [inside, spread, both]


def _s2_corruptions(cfg):
    """Corruptions of a configuration that keep S1 and S2.  ``merged``: the
    transpose t* of the color t of the first non-symmetric cell (0, g) of
    row 0 relabeled t, ids made contiguous again.  When point 0 is a fiber
    of its own, every pair of t lies above the diagonal and every pair of
    t* below it, so only pairs below it fail, and of those the walk over
    the upper triangle meets only the transpose (g, 0) of the first pair of
    t.  ``swapped``: a pair (a, x) of the last point a and its transpose
    recolored by another color of the same two fibers and its transpose,
    ids made contiguous again."""
    C = np.array(cfg.colors, dtype=np.int64)
    a = cfg.n - 1
    t = C[0, np.flatnonzero(cfg.star[C[0]] != C[0])[0]]
    merged = cc_core.canonicalize_colors(np.where(C == cfg.star[t], t, C))
    for x in np.flatnonzero(C[a] != C[a, a]):
        other = np.flatnonzero((cfg.point_fiber == cfg.point_fiber[x])
                               & (C[a] != C[a, x]) & (C[a] != C[a, a]))
        if other.size:
            break
    swapped = C.copy()
    u = C[a, other[0]]
    swapped[a, x], swapped[x, a] = u, cfg.star[u]
    return [merged, cc_core.canonicalize_colors(swapped)]


# what validate_config raises on each corruption of frob23, and of the
# explicit extensions of c67k2 and c151k3 at point 0, in the order of
# _s2_corruptions and then _fiber_corruptions; the pass that walked every
# pair raised the same
CORRUPTION_ERRORS = [
    ('AxiomS3Violated', 'c[2][3][2] is 2 at pair (0,9) but 1 at pair (0,8)',
     (2, 3, 2), ((0, 9), (0, 8)), (2, 1)),
    ('AxiomS3Violated', 'valency of color 4 differs between points 0 and 63',
     (4, 5, 0), ((0, 0), (63, 63)), (7, 8)),
    ('AxiomS3Violated', 'color 1 crosses source fibers [0, 1]', None, None, None),
    ('AxiomS3Violated', 'valency of color 36 differs between points 1 and 66',
     (36, 102, 35), ((1, 1), (66, 66)), (1, 2)),
    ('AxiomS2Violated', 'transpose of color 1 is split across colors [34, 36]',
     None, None, None),
    ('AxiomS2Violated', 'transpose of color 2 is split across colors [36, 101]',
     None, None, None),
    ('AxiomS2Violated', 'transpose of color 1 is split across colors [34, 36]',
     None, None, None),
    ('AxiomS3Violated', 'color 1 crosses source fibers [0, 1]', None, None, None),
    ('AxiomS3Violated', 'valency of color 84 differs between points 1 and 32',
     (84, 3827, 52), ((1, 1), (32, 32)), (2, 1)),
    ('AxiomS2Violated', 'transpose of color 1 is split across colors [51, 53]',
     None, None, None),
    ('AxiomS2Violated', 'transpose of color 2 is split across colors [53, 202]',
     None, None, None),
    ('AxiomS2Violated', 'transpose of color 1 is split across colors [51, 53]',
     None, None, None),
]


def test_fiber_walk_matches_all_references_oracle(corpus, c67k2, c151k3, frob23, monkeypatch):
    # S3 walked over the pairs on or above the diagonal, and below it the
    # first pairs and their transposes, one fiber at a time, against the
    # pass that holds every reference at once: the same first cells and the
    # same failing pairs, every row and every pair of it, in int64 and in
    # the narrow working copy
    computed = _signature_rows(monkeypatch)
    configs = list(corpus.values()) + [extension.explicit_extension(c, 0)
                                       for c in (c67k2, c151k3)]
    for cfg in configs:
        ref, first_cell, bad = oracles.verify_classes_all_references(
            cfg.colors, cfg.rank, cfg.colors)
        for colors in (cfg.colors.astype(np.int64), cfg.colors):
            computed.clear()
            ours = cc_core._verify_classes(colors, cfg.rank)
            assert np.array_equal(ours[0], first_cell) and ours[1] is bad is None
            # no fallback to every pair: at most one pair below the
            # diagonal per color
            assert sum(computed) <= cfg.n * (cfg.n + 1) // 2 + cfg.rank
        # the references rebuilt from one row per fiber are the oracle's
        rebuilt = cc_core._reference_signatures(cfg)
        assert rebuilt.dtype == cc_core._code_dtype(cfg.rank)
        assert np.array_equal(rebuilt, ref)
    errors = []
    for cfg in [frob23] + configs[-2:]:
        corruptions = _s2_corruptions(cfg)
        if cfg is not frob23:
            corruptions += _fiber_corruptions(cfg)
        for i, m in enumerate(corruptions):
            r = int(m.max()) + 1
            _, first_cell, bad = oracles.verify_classes_all_references(m, r, m)
            if i == 0 and cfg is not frob23:
                # every failing pair lies below the diagonal, in column 0,
                # and one is the transpose of the first pair of its color
                x, y = np.nonzero(bad)
                assert (y == 0).all() and (x > 0).all()
                assert bad[first_cell[m[x[0], 0]] % cfg.n, 0]
            rows = np.flatnonzero(bad.any(axis=1))
            for colors in (m.astype(np.int64), m.astype(cc_core._color_dtype(r))):
                cells, (got, masks) = cc_core._verify_classes(colors, r)
                assert np.array_equal(cells, first_cell) and np.array_equal(got, rows)
                assert masks.dtype == bool and np.array_equal(masks, bad[rows])
            with pytest.raises((AxiomS2Violated, AxiomS3Violated)) as info:
                cc_core.validate_config(m, canonicalize=False)
            err = info.value
            errors.append((type(err).__name__, str(err))
                          + tuple(getattr(err, k, None) for k in ("triple", "pairs", "counts")))
    assert errors == CORRUPTION_ERRORS


def test_relation_fibers_hold_every_cell_and_crossing_is_named(corpus, c67k2, c151k3):
    # every cell of s lies in relation_source[s] x relation_target[s]
    for cfg in list(corpus.values()) + [extension.explicit_extension(c, 0)
                                        for c in (c67k2, c151k3)]:
        assert (cfg.relation_source[cfg.colors] == cfg.point_fiber[:, None]).all()
        assert (cfg.relation_target[cfg.colors] == cfg.point_fiber[None, :]).all()
    # S1- and S2-clean: color 2 joins point 0, alone in its fiber, to the
    # fiber {1, 2}, so its pairs start in both fibers
    m = [[0, 2, 2], [2, 1, 3], [2, 3, 1]]
    with pytest.raises(AxiomS3Violated, match=re.escape(
            "color 2 crosses source fibers [0, 1]")) as info:
        cc_core.validate_config(m, canonicalize=False)
    assert info.value.triple is None


def test_closure_peak_memory_stays_near_the_tensor(c151k3):
    # the closure and the first read of its tensor; the argsort build held
    # starts, counts, keys, the order and both gathered copies at once:
    # 3.87 times the finished 16 B per nonzero
    T, peak = oracles.traced_peak(lambda: extension.coherent_closure(c151k3, {0}).tensor)
    assert peak <= 2.5 * 16 * T.nonzero_count()
    # the closure alone keeps no references: holding all (rank, n) int32
    # references of its final round peaked at 1.5 times one set, holding
    # one fiber's at a time at 0.41
    ext, peak = oracles.traced_peak(extension.coherent_closure, c151k3, {0})
    assert peak <= 0.6 * ext.rank * ext.n * 4


def test_key_range_cap_refuses_before_allocating():
    # 1449 points, the diagonal one color and every other cell its own:
    # rank 2 098 153, whose cube passes 2^63, the range of the keys of
    # ``arrays()``
    n = 1449
    m = np.arange(1, n * n + 1).reshape(n, n)
    np.fill_diagonal(m, 0)
    m = cc_core.canonicalize_colors(m)

    def refuse():
        with pytest.raises(TooLarge, match="rank 2098153 on 1449 points"):
            cc_core.validate_config(m, canonicalize=False)

    _, peak = oracles.traced_peak(refuse)
    # the int32 copy of the colors and the first cell of every id take
    # 16.2 MiB; an (n, rank) signature matrix would take 11.3 GiB
    assert peak < 24 * 2**20


def test_only_cc_core_reads_tensor_internals():
    src = Path(cc_core.__file__).parent
    private = re.compile(r"tensor\._|\._(keys|counts|products)\b")
    offenders = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 if path.name != "cc_core.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if private.search(line)]
    assert offenders == []


def test_only_extension_reads_extension_internals():
    src = Path(cc_core.__file__).parent
    offenders = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 if path.name != "extension.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "extension._" in line]
    assert offenders == []


def test_complex_product_examples(z3, ag23):
    assert cc_core.complex_product(z3, 1, 1) == {2}
    # 1_Omega * s = {s}
    for cfg in (z3, ag23):
        for s in range(cfg.rank):
            assert cc_core.complex_product(cfg, cfg.identity_color, s) == {s}
    # AG(2,3): distinct directions compose to 2 of the other directions
    nond = ag23.nondiagonal_colors
    for u in nond:
        for v in nond:
            if u != v:
                uv = cc_core.complex_product(ag23, u, v)
                assert len(uv) == 2
                assert uv == oracles.complex_product(ag23.colors, ag23.rank, u, v)


def test_indistinguishing_numbers(corpus, c13k3, ag23):
    # c(1_Omega) = n on every scheme
    for name, cfg in corpus.items():
        assert cc_core.indistinguishing_number(cfg, cfg.identity_color) == cfg.n, name
    # frozen values computed by the direct-count oracle
    for s in c13k3.nondiagonal_colors:
        assert oracles.indistinguishing(c13k3.colors, s) == 2
        assert cc_core.indistinguishing_number(c13k3, s) == 2
    for s in ag23.nondiagonal_colors:
        assert oracles.indistinguishing(ag23.colors, s) == 1
        assert cc_core.indistinguishing_number(ag23, s) == 1


def test_indistinguishing_numbers_in_one_pass_match_oracle(corpus):
    for name, cfg in corpus.items():
        c = cc_core.indistinguishing_numbers(cfg)
        assert c.tolist() == [oracles.indistinguishing(cfg.colors, s)
                              for s in range(cfg.rank)], name


def test_reg_numbers_in_one_pass_match_oracle(corpus):
    for name, cfg in corpus.items():
        if cfg.rank > 20:
            continue
        assert cc_core.reg_numbers(cfg).tolist() == [
            oracles.reg(cfg.colors, cfg.rank, s) for s in range(cfg.rank)], name


def test_reg_numbers(z3, c13k3, ag23):
    assert cc_core.reg_number(z3, 1) == 0
    for cfg, expect in ((c13k3, 2), (ag23, 1)):
        for s in cfg.nondiagonal_colors:
            assert oracles.reg(cfg.colors, cfg.rank, s) == expect
            assert cc_core.reg_number(cfg, s) == expect


def test_reg_matches_pseudocyclic_formula(corpus):
    # reg(s) = n_s (k-1)/k on every pseudocyclic corpus scheme
    from conftest import PSEUDOCYCLIC_K
    for name, k in PSEUDOCYCLIC_K.items():
        cfg = corpus[name]
        if k == 1:
            continue
        for s in cfg.nondiagonal_colors:
            assert cc_core.reg_number(cfg, s) * k == int(cfg.valencies[s]) * (k - 1), name


def test_is_equivalenced(corpus, ag23, dihedral4):
    assert cc_core.is_equivalenced(ag23) == 2
    assert cc_core.is_equivalenced(corpus["passman-3"]) == 4
    assert dihedral4.rank == 3
    assert sorted(dihedral4.valencies.tolist()) == [1, 1, 2]
    assert cc_core.is_equivalenced(dihedral4) is None


def test_is_pseudocyclic_combinatorial(corpus, frob23, dihedral4):
    assert frob23.n == 64 and frob23.rank == 10
    assert cc_core.is_pseudocyclic_combinatorial(frob23) == 7
    assert cc_core.is_pseudocyclic_combinatorial(corpus["ag-2-4"]) == 3
    assert cc_core.is_pseudocyclic_combinatorial(dihedral4) is None


def test_commutative_symmetric_flags(corpus, frob23, ag23, z3):
    assert not cc_core.is_commutative(frob23)
    assert cc_core.is_symmetric(ag23) and cc_core.is_commutative(ag23)
    assert cc_core.is_commutative(z3) and not cc_core.is_symmetric(z3)
    assert not cc_core.is_commutative(corpus["regular-S3"])


def test_valency_weighted_product_identity(corpus):
    # n_r n_s = sum_t c_{rs}^t n_t
    for name, cfg in corpus.items():
        val = cfg.valencies
        for r in range(cfg.rank):
            for s in range(cfg.rank):
                lhs = int(val[r]) * int(val[s])
                rhs = sum(c * int(val[t])
                          for t, c in cfg.tensor.products(r, s).items())
                assert lhs == rhs, (name, r, s)


def test_triple_rotation_identity(corpus):
    # n_t c_{rs}^{t*} = n_r c_{st}^{r*} = n_s c_{tr}^{s*}, all triples
    for name, cfg in corpus.items():
        val = cfg.valencies
        star = cfg.star
        T = cfg.tensor
        for r in range(cfg.rank):
            for s in range(cfg.rank):
                for t in range(cfg.rank):
                    a = int(val[t]) * T[r, s, int(star[t])]
                    b = int(val[r]) * T[s, t, int(star[r])]
                    c = int(val[s]) * T[t, r, int(star[s])]
                    assert a == b == c, (name, r, s, t)


def test_flat_products_iff_selfproducts_meet_trivially(corpus):
    # (c_{r*s}^t <= 1 for all t)  iff  rr* and ss* meet only in the diagonal
    for name, cfg in corpus.items():
        if not cfg.is_scheme or cfg.rank > 40:
            continue
        star = cfg.star
        e = cfg.identity_color
        for r in cfg.nondiagonal_colors:
            rr = cc_core.complex_product(cfg, r, int(star[r]))
            for s in cfg.nondiagonal_colors:
                ss = cc_core.complex_product(cfg, s, int(star[s]))
                flat = max(cfg.tensor.products(int(star[r]), s).values())
                assert (flat <= 1) == (rr & ss == {e}), (name, r, s)


def test_mean_indistinguishing_number(corpus):
    # equivalenced: sum of c(s) over S# equals (k-1)|S#| exactly
    for name, cfg in corpus.items():
        k = cc_core.is_equivalenced(cfg)
        if k is None or not cfg.nondiagonal_colors:
            continue
        total = sum(cc_core.indistinguishing_number(cfg, s)
                    for s in cfg.nondiagonal_colors)
        assert total == (k - 1) * len(cfg.nondiagonal_colors), name


def test_scheme_only_guards(dihedral4):
    nonhom = cc_core.validate_config([[0, 2], [3, 1]])
    with pytest.raises(NotAScheme):
        cc_core.indistinguishing_number(nonhom, 0)
    with pytest.raises(NotAScheme):
        cc_core.is_equivalenced(nonhom)


def test_partition_bijection(z3):
    relabeled = cc_core.validate_config((2 - z3.colors) % 3, canonicalize=False)
    mapping = cc_core.partition_bijection(z3, relabeled)
    assert mapping is not None
    assert cc_core.same_partition(z3, relabeled)


def test_config_is_immutable(z3):
    with pytest.raises(ValueError):
        z3.colors[0, 0] = 5
    with pytest.raises(ValueError):
        z3.star[0] = 1


def test_validate_against_brute_force_axioms_fuzz():
    # random small colorings: validate_config accepts exactly the matrices
    # the from-the-definitions checker accepts, and the tensors agree
    rng = np.random.default_rng(2024)
    accepted = rejected = 0
    for trial in range(300):
        n = int(rng.integers(1, 7))
        if trial % 3 == 0:
            # symmetrized random partition: more likely coherent
            base = rng.integers(0, rng.integers(1, 4), size=(n, n))
            m = np.minimum(base, base.T) + n * n * np.eye(n, dtype=int)
        else:
            m = rng.integers(0, rng.integers(1, 5), size=(n, n))
        m = cc_core.canonicalize_colors(m)
        verdict = oracles.coherent_axioms_brute(m)
        try:
            cfg = cc_core.validate_config(m)
        except (AxiomS1Violated, AxiomS2Violated,
                AxiomS3Violated, ValueError):
            rejected += 1
            assert verdict is not None, m
        else:
            accepted += 1
            assert verdict is None, (m, verdict)
            for rr in range(cfg.rank):
                for ss in range(cfg.rank):
                    for tt in range(cfg.rank):
                        a, g = cfg.relation_pairs(tt)[0]
                        assert cfg.tensor[rr, ss, tt] == oracles.triple_count(
                            cfg.colors, rr, ss, int(a), int(g))
    assert accepted >= 20 and rejected >= 20
