"""Splitting sets, explicit one-point extensions, the closure oracle, and
semiregularity."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from schemelab import cc_core, extension, permgroup
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
                    left = extension._block_matchings(cfg, au, aw)
                    right = extension._block_matchings(cfg, aw, av)
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
    res = extension.explicit_extension(c67k2, 0)
    sizes = sorted(len(f) for f in res.config.fibers)
    assert sizes == [1] + [2] * 33
    assert res.semiregular
    assert extension.restriction_semiregular(res.config, 0)
    clo = extension.coherent_closure(c67k2, {0})
    assert cc_core.same_partition(res.config, clo)
    assert cc_core.partition_bijection(res.config, clo) is not None


def test_explicit_extension_ag33(ag33):
    res = extension.explicit_extension(ag33, 0)
    assert sorted(len(f) for f in res.config.fibers) == [1] + [2] * 13
    assert res.semiregular
    clo = extension.coherent_closure(ag33, {0})
    assert cc_core.same_partition(res.config, clo)


def test_explicit_extension_any_point(ag33):
    # fibers alpha*u at every point; semiregular everywhere
    for alpha in range(ag33.n):
        res = extension.explicit_extension(ag33, alpha, check_conditions=(alpha == 0))
        assert res.semiregular
        assert sorted(len(f) for f in res.config.fibers) == [1] + [2] * 13


def test_explicit_extension_conditions_fail(ag23):
    with pytest.raises(ConditionsFail):
        extension.explicit_extension(ag23, 0)
    with pytest.raises(NotEquivalenced):
        dih = permgroup.orbital_scheme(
            permgroup.group_closure([(1, 2, 3, 0), (0, 3, 2, 1)]))
        extension.explicit_extension(dih, 0)


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
    fibers = {tuple(int(x) for x in f) for f in ext.config.fibers}
    assert orbits == fibers


def test_threaded_validation_and_closure_identical(c67k2):
    from schemelab import parallel
    res1 = extension.coherent_closure(c67k2, {0})
    cfg1 = cc_core.validate_config(c67k2.colors)
    parallel.set_threads(3)
    try:
        res3 = extension.coherent_closure(c67k2, {0})
        cfg3 = cc_core.validate_config(c67k2.colors)
    finally:
        parallel.set_threads(1)
    assert np.array_equal(res1.colors, res3.colors)
    assert np.array_equal(cfg1.colors, cfg3.colors)
    for a1, a3 in zip(cfg1.tensor.arrays(), cfg3.tensor.arrays()):
        assert np.array_equal(a1, a3)


def test_explicit_extension_composition_branch(c151k3):
    # 50 of the 51^2 blocks have |u*v| < k = 3 and must be assembled by
    # composing matchings through a splitting relation
    star = c151k3.star
    nond = c151k3.nondiagonal_colors
    k = cc_core.is_equivalenced(c151k3)
    small_blocks = [(u, v) for u in nond for v in nond
                    if len(cc_core.complex_product(c151k3, int(star[u]), v)) < k]
    assert small_blocks
    res = extension.explicit_extension(c151k3, 0)
    assert res.semiregular
    assert sorted(len(f) for f in res.config.fibers) == [1] + [3] * 50
    clo = extension.coherent_closure(c151k3, {0})
    assert cc_core.same_partition(res.config, clo)


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
    stab = G.stabilizer_elements(0)
    orb = permgroup.orbital_scheme(permgroup.PermutationGroup(13, stab, stab))
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
    stab = G.stabilizer_elements(0)
    orb = permgroup.orbital_scheme(
        permgroup.PermutationGroup(c67k2.n, stab, stab))
    res = extension.explicit_extension(c67k2, 0)
    assert cc_core.same_partition(orb, res.config)
