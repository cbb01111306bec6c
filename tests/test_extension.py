"""Splitting sets, explicit one-point extensions, the closure oracle, and
semiregularity."""

import gc
import hashlib
import weakref
from itertools import combinations_with_replacement

import numpy as np
import pytest

import oracles
from schemelab import cc_core, constructors, extension, permgroup
from schemelab.errors import BadRelationId, ConditionsFail, NotEquivalenced


def test_splitting_set_symmetry_and_consequences(ag33, c67k2):
    e33 = ag33.identity_color
    for cfg in (ag33, c67k2):
        e = cfg.identity_color
        nond = cfg.nondiagonal_colors
        star = cfg.star
        for u in nond[:6]:
            for v in nond[:6]:
                D = extension.splitting_set(cfg, u, v)
                assert D == extension.splitting_set(cfg, v, u)
                uu = cc_core.complex_product(cfg, u, int(star[u]))
                vv = cc_core.complex_product(cfg, v, int(star[v]))
                for w in D:
                    ww = cc_core.complex_product(cfg, w, int(star[w]))
                    assert uu & ww == {e} and vv & ww == {e}
                    # flatness consequence: c_{u*w}^s <= 1, hence |u*w| = k
                    prods = cfg.tensor.products(int(star[u]), w)
                    assert max(prods.values()) <= 1
                    assert len(prods) == cc_core.is_equivalenced(cfg)


def test_splitting_set_affine_formula(ag33):
    # For an affine scheme, the definition gives D(u,v) = S# minus
    # ({u, v} plus uv): uu* = {1, u}, so uu*vv* = {1, u, v} + uv.
    nond = set(ag33.nondiagonal_colors)
    for u in list(nond)[:5]:
        for v in list(nond)[:5]:
            uv = cc_core.complex_product(ag33, u, v)
            expected = nond - ({u, v} | set(uv))
            assert extension.splitting_set(ag33, u, v) == expected


def test_splitting_set_rank2():
    cfg = cc_core.validate_config(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    assert extension.splitting_set(cfg, 1, 1) == frozenset()
    with pytest.raises(BadRelationId):
        extension.splitting_set(cfg, 0, 1)


def test_pair_and_triple_conditions(ag33, c67k2, ag23):
    for cfg in (ag33, c67k2):
        nond = cfg.nondiagonal_colors
        for i, u in enumerate(nond):
            for v in nond[i:]:
                assert extension.check_pair_condition(cfg, u, v)
        for u, v, w in combinations_with_replacement(nond, 3):
            assert extension.check_triple_condition(cfg, u, v, w)
    # the order-3 plane fails (dimension >= 3 proviso); recorded outcome
    failures = [
        (u, v) for i, u in enumerate(ag23.nondiagonal_colors)
        for v in ag23.nondiagonal_colors[i:]
        if not extension.check_pair_condition(ag23, u, v)]
    assert failures


def test_point_partition_examples(c13k3, ag33):
    # u = v = 1_Omega gives the single cell {(alpha, alpha)}
    assert extension.point_partition(c13k3, 2, 0, 0) == [[(2, 2)]]
    # cyclotomic GF(13), |K| = 3: a block with |u*v| = 3 splits into three
    # relations of size 3
    star = c13k3.star
    found = False
    for u in c13k3.nondiagonal_colors:
        for v in c13k3.nondiagonal_colors:
            uv = cc_core.complex_product(c13k3, int(star[u]), v)
            if len(uv) == 3:
                pieces = extension.point_partition(c13k3, 0, u, v)
                assert sorted(len(p) for p in pieces) == [3, 3, 3]
                found = True
    assert found
    # AG(3,3): distinct directions give k = 2 relations of size 2
    u, v = ag33.nondiagonal_colors[:2]
    pieces = extension.point_partition(ag33, 0, u, v)
    assert sorted(len(p) for p in pieces) == [2, 2]


def test_splitting_relation_composition_laws(ag33, c67k2):
    # (1): |u*v| = k iff u in D(v,w) iff v in D(w,u), for every w in D(u,v).
    # Holds for u != v; at u = v the forcing step |u*v| = k => c_{u*v}^t <= 1
    # breaks because 1_Omega (valency 1) lies in u*u, and indeed u is never
    # in D(u,w) when k >= 2.
    # (2): |ab ∩ u*v| = 1 for a in u*w, b in w*v; holds for all u, v.
    for cfg in (ag33, c67k2):
        k = cc_core.is_equivalenced(cfg)
        star = cfg.star
        nond = cfg.nondiagonal_colors
        for u in nond:
            for v in nond:
                D = extension.splitting_set(cfg, u, v)
                uv = cc_core.complex_product(cfg, int(star[u]), v)
                for w in D:
                    if u != v:
                        full = len(uv) == k
                        assert full == (u in extension.splitting_set(cfg, v, w))
                        assert full == (v in extension.splitting_set(cfg, w, u))
                    uw = cc_core.complex_product(cfg, int(star[u]), w)
                    wv = cc_core.complex_product(cfg, int(star[w]), v)
                    for a in uw:
                        for b in wv:
                            ab = cc_core.complex_product(cfg, a, b)
                            assert len(ab & uv) == 1


def test_block_partition_independent_of_splitting_relation(ag33, c67k2):
    # S(u,v;w) partitions the block and does not depend on w in D(u,v)
    for cfg in (ag33, c67k2):
        alpha = 0
        k = cc_core.is_equivalenced(cfg)
        nond = cfg.nondiagonal_colors
        for u in nond:
            au = tuple(int(x) for x in cfg.neighbors(alpha, u))
            for v in nond:
                av = tuple(int(x) for x in cfg.neighbors(alpha, v))
                block = {(x, y) for x in au for y in av}
                reference = None
                for w in sorted(extension.splitting_set(cfg, u, v)):
                    aw = tuple(int(x) for x in cfg.neighbors(alpha, w))
                    left = oracles.block_matchings(cfg, au, aw)
                    right = oracles.block_matchings(cfg, aw, av)
                    parts = {tuple(sorted((x, b[a[x]]) for x in a))
                             for a in left for b in right}
                    assert len(parts) == k
                    covered = [p for part in parts for p in part]
                    assert len(covered) == len(block) and set(covered) == block
                    if reference is None:
                        reference = parts
                    else:
                        assert parts == reference, (u, v, w)


def test_splitting_set_complement_bound(corpus):
    # |S# \ D(u,v)| < c k^3 on every equivalenced corpus scheme
    for name, cfg in corpus.items():
        k = cc_core.is_equivalenced(cfg)
        if k is None or k == 1 or not cfg.is_scheme:
            continue
        c = cc_core.scheme_indistinguishing_number(cfg)
        nond = cfg.nondiagonal_colors
        for u in nond:
            for v in nond:
                excluded = len(nond) - len(extension.splitting_set(cfg, u, v))
                assert excluded < c * k ** 3, (name, u, v)


def test_explicit_extension_c67(c67k2):
    ext = extension.explicit_extension(c67k2, 0)
    sizes = sorted(len(f) for f in ext.fibers)
    assert sizes == [1] + [2] * 33
    assert extension.restriction_semiregular(ext, 0)
    clo = extension.coherent_closure(c67k2, {0})
    assert cc_core.same_partition(ext, clo)
    assert cc_core.partition_bijection(ext, clo) is not None


def test_explicit_extension_equals_closure_wherever_conditions_hold(corpus, c151k3):
    named = dict(corpus)
    named["cyclotomic-151-k3"] = c151k3
    held = set()
    for name, cfg in named.items():
        if not cfg.is_scheme or cc_core.is_equivalenced(cfg) is None:
            continue
        for alpha in (0, cfg.n - 1):
            try:
                ext = extension.explicit_extension(cfg, alpha)
            except ConditionsFail:
                continue
            held.add(name)
            clo = extension.coherent_closure(cfg, {alpha})
            assert np.array_equal(cc_core.canonicalize_colors(ext.colors),
                                  cc_core.canonicalize_colors(clo.colors)), (name, alpha)
    assert held == {"regular-Z3", "regular-Z4", "regular-S3", "ag-3-3",
                    "cyclotomic-67-k2", "cyclotomic-151-k3"}


def test_explicit_extension_validates_its_matrix_in_place():
    # c199k3 at point 0, rank 13 201: validating a copy of the 199 x 199
    # int64 matrix took the peak from 3.87 to 4.17 MiB; the matrix built in
    # uint16 and the conditions checked in chunks take it from 3.06 to
    # 1.81 MiB.  The source tensor is read first, as it once stayed cached
    cfg = constructors.cyclotomic_scheme(constructors.FiniteField(199), 3)
    cfg.tensor
    ext, peak = oracles.traced_peak(extension.explicit_extension, cfg, 0)
    assert ext.rank == 13201 and not ext.colors.flags.writeable
    assert ext.colors.dtype == np.uint16
    assert peak <= 2.5 * 2**20


def test_closure_marks_keep_every_color_past_the_uint8_range(monkeypatch):
    # c199k3 has rank 67 and two marked points make base 3: the marked
    # colors run to 67 * 9 - 1 = 602, past uint8, and must stay distinct
    cfg = constructors.cyclotomic_scheme(constructors.FiniteField(199), 3)
    seen = []
    closure = cc_core._weisfeiler_leman
    monkeypatch.setattr(cc_core, "_weisfeiler_leman",
                        lambda colors: seen.append(colors) or closure(colors))
    extension.coherent_closure(cfg, {5, 0})
    marks = np.zeros(cfg.n, dtype=np.int64)
    marks[[0, 5]] = [1, 2]
    expected = cfg.colors.astype(np.int64) * 9 + marks[:, None] * 3 + marks
    assert np.array_equal(seen[0], expected)


def test_closure_marks_past_the_int32_range_keep_every_color(monkeypatch):
    # the discrete configuration on 216 points, every point marked: base
    # 217, so the marked colors run to 46656 * 217^2 - 1 > 2^31, which
    # int32 wraps to negative ids; and the first-cell table of the closure
    # input must be sized by the matrix (46 656 cells), not by its largest
    # id (16 GiB of int64), which the spy checks before anything is sized
    n = 216
    cfg = cc_core.validate_config(np.arange(n * n).reshape(n, n))
    seen, sized = [], []
    closure, first_cells = cc_core._weisfeiler_leman, cc_core.first_cells

    def bounded_first_cells(ids):
        if ids.ndim == 2:
            assert 0 <= int(ids.min()) and int(ids.max()) < ids.size
            sized.append(ids.size)
        return first_cells(ids)

    monkeypatch.setattr(cc_core, "_weisfeiler_leman",
                        lambda colors: seen.append(colors) or closure(colors))
    monkeypatch.setattr(cc_core, "first_cells", bounded_first_cells)
    ext = extension.coherent_closure(cfg, range(n))
    marks = np.arange(1, n + 1, dtype=np.int64)
    expected = cfg.colors.astype(np.int64) * 217**2 + marks[:, None] * 217 + marks
    assert int(expected.max()) >= 2**31
    assert np.array_equal(seen[0], expected) and sized
    assert ext.colors.dtype == np.uint16 and np.array_equal(ext.colors, cfg.colors)


def test_condition_checks_run_in_bounded_chunks(monkeypatch):
    # c199k3 has 66 non-diagonal colors: whole rows of the pair check built
    # (m, m, m) float32 arrays, a 2.47 MiB peak; chunks of CONDITION_CELLS
    # cells keep it near 0.56 MiB
    cfg = constructors.cyclotomic_scheme(constructors.FiniteField(199), 3)
    D, nond, _ = extension._splitting_array(cfg)
    assert len(nond) == 66
    _, peak = oracles.traced_peak(extension._check_conditions, D, nond)
    assert peak <= 1 * 2**20
    # every chunk width names the first failing pair, else triple, of the
    # naive loops (random arrays as in the witness test above, on 9 colors)
    rng = np.random.default_rng(11)
    nond = tuple(range(1, 10))
    outcomes = set()
    for trial in range(80):
        if trial % 2:
            D = rng.random((9, 9, 9)) < rng.uniform(0.6, 1.0)
        else:
            D = np.zeros((9, 9, 9), dtype=bool)
            D[:, :, 5:] = rng.random((9, 9, 4)) < 0.4
            D[:, :, 5] |= ~D.any(axis=2)
            D[5:, :, 5:] = True
        D |= D.transpose(1, 0, 2)
        masks = {(u, v): sum(1 << w for w, hit in zip(nond, D[i, j]) if hit)
                 for i, u in enumerate(nond) for j, v in enumerate(nond)}
        pairs = [(u, v, None) for i, u in enumerate(nond) for v in nond[i:]
                 if not oracles.pair_condition_naive(masks, u, v)]
        triples = [t for t in combinations_with_replacement(nond, 3)
                   if not oracles.triple_condition_naive(masks, *t)]
        expected = (pairs + triples + [None])[0]
        for cells in (1, 81, 4 * 81, extension.CONDITION_CELLS):
            monkeypatch.setattr(extension, "CONDITION_CELLS", cells)
            try:
                extension._check_conditions(D, nond)
                got = None
            except ConditionsFail as exc:
                got = (exc.u, exc.v, exc.w)
            assert got == expected, (trial, cells)
        outcomes.add("pass" if got is None else "pair" if got[2] is None
                     else "triple")
    assert outcomes == {"pass", "pair", "triple"}


def test_explicit_extension_ag33(ag33):
    ext = extension.explicit_extension(ag33, 0)
    assert sorted(len(f) for f in ext.fibers) == [1] + [2] * 13
    assert extension.restriction_semiregular(ext, 0)
    clo = extension.coherent_closure(ag33, {0})
    assert cc_core.same_partition(ext, clo)


def test_explicit_extension_any_point(ag33):
    # fibers alpha*u at every point; semiregular everywhere
    for alpha in range(ag33.n):
        ext = extension.explicit_extension(ag33, alpha)
        assert extension.restriction_semiregular(ext, alpha)
        assert sorted(len(f) for f in ext.fibers) == [1] + [2] * 13


def test_explicit_extension_conditions_fail(ag23):
    with pytest.raises(ConditionsFail):
        extension.explicit_extension(ag23, 0)
    dih = permgroup.orbital_scheme(
        permgroup.group_closure([(1, 2, 3, 0), (0, 3, 2, 1)]))
    for build in (lambda: extension.explicit_extension(dih, 0),
                  lambda: extension.direct_blocks(dih)):
        with pytest.raises(NotEquivalenced):
            build()


def test_closure_fixpoint_and_2transitive(z3):
    assert cc_core.same_partition(extension.coherent_closure(z3, ()), z3)
    rank2 = cc_core.validate_config(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    clo = extension.coherent_closure(rank2, {0})
    fibers = sorted(tuple(int(x) for x in f) for f in clo.fibers)
    assert fibers == [(0,), (1, 2, 3)]


def test_closure_refines_and_isolates(c13k3):
    clo = extension.coherent_closure(c13k3, {0})
    # refinement: every closure color sits inside one original color
    for t in range(clo.rank):
        pairs = clo.relation_pairs(t)
        originals = {int(c13k3.colors[a, b]) for a, b in pairs}
        assert len(originals) == 1
    # 1_0 is a color
    assert len(clo.fibers[int(clo.point_fiber[0])]) == 1


def test_restriction_semiregular_matches_per_color_loop(corpus):
    for name, cfg in corpus.items():
        for alpha in (0, cfg.n - 1):
            ext = extension.coherent_closure(cfg, {alpha})
            for conf, beta in ((ext, alpha), (ext, (alpha + 1) % cfg.n), (cfg, alpha)):
                assert (extension.restriction_semiregular(conf, beta)
                        == oracles.restriction_semiregular_loop(conf, beta)), (name, alpha)


def test_is_semiregular(corpus, z3):
    z4 = corpus["regular-Z4"]
    assert extension.is_semiregular(z4)
    rank2 = cc_core.validate_config(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    assert not extension.is_semiregular(rank2)


def test_semiregularity_report(c67k2, ag23):
    rep = extension.semiregularity_report(c67k2, 0)
    assert rep.valency == 2 and rep.bound == 6
    assert rep.rank_exceeds_bound and rep.extension_semiregular
    rep23 = extension.semiregularity_report(ag23, 0)
    assert rep23.bound == 6 and not rep23.rank_exceeds_bound


def test_extension_fibers_match_stabilizer_orbits(c67k2):
    # schurian member: Aut(cfg)_alpha orbits coincide with extension fibers
    G = permgroup.automorphism_group(c67k2)
    orbits = set(permgroup.point_stabilizer_orbits(G, 0))
    ext = extension.explicit_extension(c67k2, 0)
    fibers = {tuple(int(x) for x in f) for f in ext.fibers}
    assert orbits == fibers


def _assert_same_config(a, b):
    assert a.diagonal_colors == b.diagonal_colors
    assert len(a.fibers) == len(b.fibers)
    assert all(np.array_equal(f, g) for f, g in zip(a.fibers, b.fibers))
    for name in ("colors", "star", "valencies", "point_fiber",
                 "relation_source", "relation_target"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for x, y in zip(a.tensor.arrays(), b.tensor.arrays()):
        assert np.array_equal(x, y)


def test_closure_config_equals_full_validation(corpus, c67k2):
    # the closure skips the S3 pass of its last WL round, which it has
    # already verified; both must agree
    for cfg in list(corpus.values()) + [c67k2]:
        res = extension.coherent_closure(cfg, {0})
        _assert_same_config(
            res, cc_core.validate_config(res.colors, canonicalize=False))


def test_fingerprint_collisions_fall_back_to_exact_grouping(
        monkeypatch, ag23, z3, c13k3):
    import oracles
    normal = extension.coherent_closure(c13k3, {0})
    reported = []
    verify = cc_core._verify_classes

    def spy(colors, r):
        first_cell, bad = verify(colors, r)
        reported.append(bad is not None)
        return first_cell, bad

    # constant weights give every pair the same fingerprint
    monkeypatch.setattr(cc_core, "_fingerprint_weights",
                        lambda count: np.ones(count, dtype=np.uint64))
    monkeypatch.setattr(cc_core, "_verify_classes", spy)
    for cfg, dist in ((z3, (0,)), (ag23, (0,)), (ag23, (0, 4)), (z3, ()),
                      (c13k3, (0,))):
        ours = extension.coherent_closure(cfg, dist)
        naive = np.array(oracles.wl_closure_naive(cfg.colors.tolist(), dist))
        assert np.array_equal(ours.colors, cc_core.canonicalize_colors(naive))
    assert any(reported)
    reported.clear()
    _assert_same_config(extension.coherent_closure(c13k3, {0}), normal)
    # every pass but the last reported a mismatch, which was split off
    assert reported[-1] is False and all(reported[:-1]) and len(reported) > 1


def test_closure_verifies_only_its_final_round(monkeypatch, c67k2):
    calls = []
    verify = cc_core._verify_classes

    def spy(colors, r):
        calls.append(r)
        return verify(colors, r)

    monkeypatch.setattr(cc_core, "_verify_classes", spy)
    c199k3 = constructors.cyclotomic_scheme(constructors.FiniteField(199), 3)
    for cfg, rank in ((c67k2, 2245), (c199k3, 13201)):
        calls.clear()
        ext = extension.coherent_closure(cfg, {0})
        # no collision: one exact S3 pass, on the final coloring
        assert ext.rank == rank and calls == [rank]


def test_collision_in_an_unverified_round_leaves_the_closure_exact(
        monkeypatch, ag23, c13k3):
    import oracles
    fingerprint = cc_core._fingerprint_classes
    merged = []

    def collide_once(colors, r):
        new = fingerprint(colors, r)
        if not merged:
            # a collision merges two classes of one old color; merge the
            # first two that share one
            old = cc_core.first_cells(new)
            parent = colors.ravel()[old]
            for b in range(1, old.size):
                a = np.flatnonzero(parent[:b] == parent[b])
                if a.size:
                    merged.append((int(a[0]), b))
                    new = cc_core.canonicalize_colors(np.where(new == b, a[0], new))
                    break
        return new

    verify, reported = cc_core._verify_classes, []

    def spy(colors, r):
        first_cell, bad = verify(colors, r)
        reported.append(bad is not None)
        return first_cell, bad

    monkeypatch.setattr(cc_core, "_fingerprint_classes", collide_once)
    monkeypatch.setattr(cc_core, "_verify_classes", spy)
    for cfg, dist in ((ag23, (0,)), (c13k3, (0,)), (c13k3, (0, 5))):
        merged.clear()
        reported.clear()
        ours = extension.coherent_closure(cfg, dist)
        # the next fingerprint round splits the merged classes again, so
        # the one exact pass finds no failing pair
        assert merged and reported == [False], (cfg, dist)
        naive = np.array(oracles.wl_closure_naive(cfg.colors.tolist(), dist))
        assert np.array_equal(ours.colors, cc_core.canonicalize_colors(naive))


def test_explicit_extension_composition_branch(c151k3):
    # 50 of the 51^2 blocks have |u*v| < k = 3 and must be assembled by
    # composing matchings through a splitting relation
    star = c151k3.star
    nond = c151k3.nondiagonal_colors
    k = cc_core.is_equivalenced(c151k3)
    small_blocks = [(u, v) for u in nond for v in nond
                    if len(cc_core.complex_product(c151k3, int(star[u]), v)) < k]
    assert small_blocks
    ext = extension.explicit_extension(c151k3, 0)
    assert extension.restriction_semiregular(ext, 0)
    assert sorted(len(f) for f in ext.fibers) == [1] + [3] * 50
    clo = extension.coherent_closure(c151k3, {0})
    assert cc_core.same_partition(ext, clo)


def test_closure_matches_naive_wl_oracle(ag23, z3):
    import oracles
    for cfg, dist in ((z3, (0,)), (ag23, (0,)), (ag23, (0, 4)), (z3, ())):
        ours = extension.coherent_closure(cfg, dist)
        naive = np.array(oracles.wl_closure_naive(cfg.colors.tolist(), dist))
        assert np.array_equal(ours.colors, cc_core.canonicalize_colors(naive))


def test_closure_equals_stabilizer_orbitals_when_schurian(c13k3):
    # the alpha-extension of this schurian scheme is itself schurian: the
    # closure must coincide with the 2-orbit configuration of Aut(cfg)_alpha
    G = permgroup.automorphism_group(c13k3)
    orb = permgroup.orbital_scheme(G.stabilizer(0))
    clo = extension.coherent_closure(c13k3, {0})
    assert cc_core.same_partition(orb, clo)


def test_semiregularity_bound_implication_corpus(corpus, c151k3):
    # pseudocyclic with rank > 2k(k-1)+2: the alpha-extension is semiregular
    # off alpha (checked wherever the premise holds in the corpus)
    named = dict(corpus)
    named["cyclotomic-151-k3"] = c151k3
    hit = 0
    for name, cfg in named.items():
        k = cc_core.is_pseudocyclic_combinatorial(cfg)
        if k is None or cfg.n < 2:
            continue
        rep = extension.semiregularity_report(cfg, 0)
        assert rep.bound == 2 * k * (k - 1) + 2
        if rep.rank_exceeds_bound:
            hit += 1
            assert rep.extension_semiregular, name
    assert hit >= 4


def test_extension_equals_stabilizer_orbitals_gf67(c67k2):
    # third route to the same object: splitting-set construction, WL
    # closure, and the 2-orbits of the automorphism group's stabilizer all
    # give one partition
    G = permgroup.automorphism_group(c67k2)
    orb = permgroup.orbital_scheme(G.stabilizer(0))
    ext = extension.explicit_extension(c67k2, 0)
    assert cc_core.same_partition(orb, ext)


def test_splitting_kernels_match_naive_oracles(corpus, c151k3):
    # D(u, v) for every (u, v), the pair verdict for every (u, v) and the
    # triple verdict for every (u, v, w), against the bitmask loops, on
    # every equivalenced corpus scheme and on c151k3 (composition branch)
    named = {name: cfg for name, cfg in corpus.items()
             if cc_core.is_equivalenced(cfg) is not None}
    named["cyclotomic-151-k3"] = c151k3
    for name, cfg in named.items():
        masks = oracles.splitting_sets_naive(cfg)
        D, nond, _ = extension._splitting_array(cfg)
        every = np.arange(len(nond))
        expected = [[[bool(masks[u, v] >> w & 1) for w in nond] for v in nond]
                     for u in nond]
        assert D.tolist() == expected, name
        for i, u in enumerate(nond):
            pairs = (~extension._pair_failures(D, i, every)).tolist()
            assert pairs == [oracles.pair_condition_naive(masks, u, v)
                             for v in nond], (name, u)
            triples = (~extension._triple_failures(D, i, every)).tolist()
            assert triples == [[oracles.triple_condition_naive(masks, u, v, w)
                                for w in nond] for v in nond], (name, u)
        u, v = nond[0], nond[-1]
        assert extension.splitting_set(cfg, u, v) == frozenset(
            oracles._bits(masks[u, v]))
        assert extension.check_pair_condition(cfg, u, v) == \
            oracles.pair_condition_naive(masks, u, v)
        assert extension.check_triple_condition(cfg, u, v, v) == \
            oracles.triple_condition_naive(masks, u, v, v)


def test_condition_witnesses_follow_the_loop_order():
    # on random symmetric splitting arrays, ConditionsFail names the first
    # failing pair (u <= v), else the first failing triple in
    # combinations_with_replacement order, as the naive loops meet them
    # Half of the arrays are dense at random; in the other half only the
    # last three colors are members of splitting sets, and their own sets
    # are full, so every pair holds and triples fail at random.
    rng = np.random.default_rng(5)
    nond = tuple(range(1, 7))
    outcomes = set()
    for trial in range(300):
        if trial % 2:
            D = rng.random((6, 6, 6)) < rng.uniform(0.6, 1.0)
        else:
            D = np.zeros((6, 6, 6), dtype=bool)
            D[:, :, 3:] = rng.random((6, 6, 3)) < 0.4
            D[:, :, 3] |= ~D.any(axis=2)
            D[3:, :, 3:] = True
        D |= D.transpose(1, 0, 2)
        masks = {(u, v): sum(1 << w for w, hit in zip(nond, D[i, j]) if hit)
                 for i, u in enumerate(nond) for j, v in enumerate(nond)}
        pairs = [(u, v, None) for i, u in enumerate(nond) for v in nond[i:]
                 if not oracles.pair_condition_naive(masks, u, v)]
        triples = [t for t in combinations_with_replacement(nond, 3)
                   if not oracles.triple_condition_naive(masks, *t)]
        expected = (pairs + triples + [None])[0]
        try:
            extension._check_conditions(D, nond)
            got = None
        except ConditionsFail as exc:
            got = (exc.u, exc.v, exc.w)
        assert got == expected
        outcomes.add("pass" if got is None else "pair" if got[2] is None
                     else "triple")
    assert outcomes == {"pass", "pair", "triple"}


# first 16 hex digits of sha256 over the int64 color matrix, at points 0, 1
GOLDEN_EXPLICIT = {
    "ag-3-3": ("2eaa3a4d0304a05e", "5855ba0f6c452a46"),
    "cyclotomic-67-k2": ("6cd316201ef9de4c", "f48118779844ae43"),
    "cyclotomic-151-k3": ("d677055d9b0e38ca", "23b78ba71baa4a2b"),
}


def test_explicit_extension_golden_colors(ag33, c67k2, c151k3):
    named = {"ag-3-3": ag33, "cyclotomic-67-k2": c67k2,
             "cyclotomic-151-k3": c151k3}
    for name, pins in GOLDEN_EXPLICIT.items():
        for alpha, pin in enumerate(pins):
            ext = extension.explicit_extension(named[name], alpha)
            colors = np.ascontiguousarray(ext.colors, dtype=np.int64)
            assert hashlib.sha256(colors.tobytes()).hexdigest()[:16] == pin, \
                (name, alpha)


def test_conditions_fail_witness(ag23, frob23):
    for cfg in (ag23, frob23):
        with pytest.raises(ConditionsFail) as info:
            extension.explicit_extension(cfg, 0)
        assert (info.value.u, info.value.v, info.value.w) == (1, 1, None)


def test_explicit_extension_keeps_no_reference_to_its_input():
    cfg = constructors.affine_scheme(3, 3)
    ref = weakref.ref(cfg)
    extension.explicit_extension(cfg, 0)
    del cfg
    gc.collect()
    assert ref() is None
