"""Algebraic isomorphisms, schurity/separability, fusions, t-condition,
affine recognition, designs."""

import hashlib
import os
import time

import numpy as np
import pytest

import oracles
from schemelab import analysis, cc_core, cli, constructors, extension, permgroup
from schemelab.analysis import ColorBijection
from schemelab.errors import (
    NotAnAlgebraicAutomorphism,
    NotCoherent,
    RankTooLarge,
    ValencyTooSmall,
)

HALL_PLANE_FILE = os.path.join(os.path.dirname(__file__), "data",
                               "hall_plane_order9.txt")


def _induced_color_map(cfg, point_map):
    colmap = [0] * cfg.rank
    for a in range(cfg.n):
        for b in range(cfg.n):
            colmap[cfg.colors[a, b]] = int(cfg.colors[point_map[a], point_map[b]])
    return tuple(colmap)


def test_algebraic_isomorphisms_ag23_amorphic(ag23):
    G = analysis.algebraic_automorphism_group(ag23)
    isos = oracles.algebraic_isomorphisms(ag23, ag23)
    # amorphic equivalenced scheme: algebraic automorphisms form the full
    # symmetric group on the 4 direction classes
    assert G.order == len(isos) == 24
    assert G.orbit(0) == [0]
    assert all(phi.mapping in G and phi.mapping[0] == 0 for phi in isos)
    assert all(ColorBijection(ag23, ag23, g).is_valid() for g in G.generators)


def test_algebraic_isomorphisms_z3(z3):
    G = analysis.algebraic_automorphism_group(z3)
    isos = oracles.algebraic_isomorphisms(z3, z3)
    assert {phi.mapping for phi in isos} == {(0, 1, 2), (0, 2, 1)}
    assert G.order == 2 and all(phi.mapping in G for phi in isos)


def test_algebraic_isomorphisms_mismatches(z3, ag23):
    with pytest.raises(ValueError):
        analysis.algebraic_isomorphism(z3, ag23)
    paley5 = constructors.cyclotomic_scheme(constructors.FiniteField(5), 2)
    rank2 = cc_core.validate_config(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    assert analysis.algebraic_isomorphism(paley5, rank2) is None
    discrete = cc_core.validate_config(np.arange(15 * 15).reshape(15, 15))
    assert discrete.rank == 225 > analysis.ISO_RANK_CAP
    with pytest.raises(RankTooLarge):
        analysis.algebraic_isomorphism(discrete, discrete)
    with pytest.raises(RankTooLarge):
        analysis.algebraic_automorphism_group(discrete)


def test_color_bijection_validity_is_tensor_equality(z3):
    good = ColorBijection(z3, z3, (0, 2, 1))
    assert good.is_valid()
    # swapping one shift class only is not an algebraic isomorphism? for Z3
    # the transposition (0,2,1) IS one (inversion); a non-map: identity with
    # a diagonal swap is not even a bijection on classes
    bad = ColorBijection(z3, z3, (0, 1, 1))
    assert not bad.is_valid()


def test_is_schurian(ag23, c13k3):
    assert analysis.is_schurian(ag23)
    assert analysis.is_schurian(c13k3)


def test_is_separable_desk(ag23, z3, c67k2):
    assert analysis.is_separable_desk(z3)
    assert analysis.is_separable_desk(ag23)
    assert analysis.is_separable_desk(c67k2)


def test_separability_with_explicit_target(c13k3):
    # an isomorphic relabeling of the same scheme as a second target
    F = constructors.FiniteField(13)
    pmap = tuple(F.mul(2, x) for x in range(13))
    relabeled = cc_core.validate_config(
        c13k3.colors[np.ix_(np.argsort(pmap), np.argsort(pmap))])
    assert analysis.is_separable_desk(c13k3, others=(relabeled,))


def test_separability_fails_on_shrikhande_against_rook_graph():
    # srg(16, 6, 2, 2) twice: the 4x4 rook's graph and the Shrikhande graph
    # have the same intersection numbers but are not isomorphic (a
    # neighbourhood induces two triangles in one, a hexagon in the other),
    # so the search must exhaust its tree and return no realization
    def srg(adjacent):
        pts = [(a, b) for a in range(4) for b in range(4)]
        return cc_core.validate_config(
            [[0 if p == q else 1 if adjacent((q[0] - p[0]) % 4, (q[1] - p[1]) % 4)
              else 2 for q in pts] for p in pts])

    rook = srg(lambda da, db: (da == 0) != (db == 0))
    shrikhande = srg(lambda da, db: (da, db) in {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
    phis = oracles.algebraic_isomorphisms(rook, shrikhande)
    assert phis
    assert all(analysis.realization(phi) is None for phi in phis)
    phi0 = analysis.algebraic_isomorphism(rook, shrikhande)
    assert phi0 is not None and phi0.is_valid()
    assert analysis.realization(phi0) is None
    assert not analysis.is_separable_desk(rook, others=(shrikhande,))
    assert analysis.is_separable_desk(rook) and analysis.is_separable_desk(shrikhande)


def _enumeration_cases(corpus):
    """Every corpus scheme but AG(3,3) (14 s to enumerate), the AG(2,4)
    fusions, every third AG(2,5) fusion and a configuration with several
    fibers."""
    cases = [(name, cfg) for name, cfg in corpus.items() if name != "ag-3-3"]
    cases += [(f"AG(2,4) fusion {i}", cfg)
              for i, cfg in enumerate(_affine_plane_fusions(4))]
    cases += [(f"AG(2,5) fusion {i}", cfg)
              for i, cfg in enumerate(_affine_plane_fusions(5)) if i % 3 == 0]
    cases.append(("paley-5 at 0", extension.coherent_closure(corpus["paley-5"], {0})))
    return cases


def test_algebraic_automorphism_group_matches_enumeration(corpus):
    # the group has one element per enumerated map, every map is a member,
    # and separability holds exactly when every map is realized
    answers = []
    for name, cfg in _enumeration_cases(corpus):
        G = analysis.algebraic_automorphism_group(cfg)
        maps = oracles.algebraic_isomorphisms(cfg, cfg)
        assert G.order == len(maps), name
        assert all(phi.mapping in G for phi in maps), name
        realized = all(analysis.realization(phi) is not None for phi in maps)
        assert analysis.is_separable_desk(cfg) == realized, name
        answers.append(realized)
    assert len(answers) == 15 + 51 + 68 and set(answers) == {True, False}


def test_algebraic_automorphism_group_ag33(ag33):
    # the 13 parallel classes of AG(3,3) are the points of PG(2,3), and the
    # algebraic automorphisms act on them as PGL(3,3)
    G = analysis.algebraic_automorphism_group(ag33)
    assert G.order == 5616 and len(G.generators) == 7
    assert all(ColorBijection(ag33, ag33, g).is_valid() for g in G.generators)


def test_separability_boundaries(corpus):
    # the Hall plane of order 9 has 10! algebraic automorphisms; AG(2,7) has
    # 8!, of which the collineations induce 336 (PGL(2,7) on the 8
    # directions); all 5! of AG(2,4) are induced (PGL(2,4) = S5); c199k3
    # has rank 67
    n_points, lines = cli._load_plane_lines(HALL_PLANE_FILE)
    hall = constructors.affine_plane_from_lines(n_points, lines)
    c199k3 = constructors.cyclotomic_scheme(constructors.FiniteField(199), 3)
    ag24 = corpus["ag-2-4"]
    for cfg, separable in ((hall, False), (constructors.affine_scheme(2, 7), False),
                           (ag24, True), (c199k3, True)):
        start = time.perf_counter()
        assert analysis.is_separable_desk(cfg) == separable, cfg
        assert time.perf_counter() - start < 10.0, cfg
    maps = oracles.algebraic_isomorphisms(ag24, ag24)
    assert len(maps) == 120
    assert all(analysis.realization(phi) is not None for phi in maps)


def test_fuse_amorphic_instance(ag23):
    fused = analysis.fuse(ag23, [(0,), (1, 2), (3, 4)])
    assert fused.rank == 3
    assert cc_core.is_equivalenced(fused) == 4
    assert cc_core.is_pseudocyclic_combinatorial(fused) == 4
    # full fusion of all classes gives the rank-2 scheme
    total = analysis.fuse(ag23, [(0,), (1, 2, 3, 4)])
    assert total.rank == 2


def test_fuse_rejects_bad_partitions(z3, ag23):
    with pytest.raises(ValueError):
        analysis.fuse(z3, [(0, 1), (2,)])  # mixes diagonal
    with pytest.raises(ValueError):
        analysis.fuse(z3, [(0,), (1,)])  # not a cover
    z5 = constructors.regular_scheme(constructors.cyclic_group_table(5))
    with pytest.raises(ValueError):
        # {1} with {2} but star classes unmatched: {1,2}* = {4,3} not a class
        analysis.fuse(z5, [(0,), (1, 2), (3,), (4,)])


def test_fuse_incoherent_merge_detected():
    # merging {1,2} (and its starred class {3,4}) on Z5 respects the star
    # map but breaks the constancy of intersection numbers
    z5 = constructors.regular_scheme(constructors.cyclic_group_table(5))
    with pytest.raises(NotCoherent):
        analysis.fuse(z5, [(0,), (1, 2), (3, 4)])


def test_algebraic_fusion_cyclotomic(c13k3):
    F = constructors.FiniteField(13)
    pmap = tuple(F.mul(4, x) for x in range(13))
    phi = ColorBijection(c13k3, c13k3, _induced_color_map(c13k3, pmap))
    assert phi.is_valid()
    fused = analysis.algebraic_fusion(c13k3, [phi])
    k6 = constructors.cyclotomic_scheme(F, 6)
    assert np.array_equal(fused.colors, k6.colors)
    assert cc_core.is_pseudocyclic_combinatorial(fused) == 6


def test_algebraic_fusion_trivial_and_full(ag23):
    same = analysis.algebraic_fusion(ag23, [ColorBijection.identity(ag23)])
    assert cc_core.same_partition(same, ag23)
    isos = oracles.algebraic_isomorphisms(ag23, ag23)
    full = analysis.algebraic_fusion(ag23, isos)
    assert full.rank == 2
    G = analysis.algebraic_automorphism_group(ag23)
    assert cc_core.same_partition(analysis.algebraic_fusion(ag23, G.generators), full)


def test_algebraic_fusion_rejects_non_automorphisms(z3):
    with pytest.raises(NotAnAlgebraicAutomorphism):
        analysis.algebraic_fusion(z3, [(0, 1, 1)])


def test_passman_is_fusion_of_frobenius_subgroup_scheme(corpus):
    # the orbital scheme of the index-4 Frobenius subgroup (diag +a only),
    # fused by its algebraic automorphisms induced by flip and swap, equals
    # the Passman scheme
    q = 3
    F = constructors.FiniteField(q)

    def pt(x, y):
        return x * q + y

    def make(fn):
        return tuple(fn(x, y) for x in range(q) for y in range(q))

    g = F.generator
    gens = [make(lambda x, y: pt(F.add(x, 1), y)),
            make(lambda x, y: pt(x, F.add(y, 1))),
            make(lambda x, y: pt(F.mul(g, x), F.mul(F.inv(g), y)))]
    sub = permgroup.group_closure(gens)
    assert sub.order == (q - 1) * q * q
    base = permgroup.orbital_scheme(sub)
    flip = make(lambda x, y: pt(x, F.neg(y)))
    swap = make(lambda x, y: pt(y, x))
    maps = [ColorBijection(base, base, _induced_color_map(base, p))
            for p in (flip, swap)]
    fused = analysis.algebraic_fusion(base, maps)
    assert cc_core.same_partition(fused, corpus["passman-3"])


def test_t_condition_ag23_and_rank2(ag23):
    assert all(analysis.t_condition(ag23, 4).values())
    rank2 = cc_core.validate_config(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    assert all(analysis.t_condition(rank2, 3).values())


def test_t_condition_detects_irregularity():
    # merging two parallel classes of AG(2,5) into one color and three into
    # another is coherent (the scheme is amorphic), but the three-class color
    # fails the 4-condition; a schurian scheme satisfies every t-condition
    fused = analysis.fuse(constructors.affine_scheme(2, 5),
                          [(0,), (1,), (2, 3), (4, 5, 6)])
    verdicts = analysis.t_condition(fused, 4)
    assert verdicts == {0: True, 1: True, 2: True, 3: False}
    assert verdicts == oracles.t_condition_naive(fused.colors, 4)
    assert not analysis.is_schurian(fused)
    # the pentagon is vertex- and edge-transitive; 4-condition holds
    c5 = constructors.regular_scheme(constructors.cyclic_group_table(5))
    pentagon = analysis.fuse(c5, [(0,), (1, 4), (2, 3)])
    assert analysis.t_condition(pentagon, 4) == {0: True, 1: True, 2: True}


def test_t_condition_on_uint8_colors_past_the_code_range():
    # the product of the failing AG(2,5) fusion with the discrete
    # configuration on 4 points: 100 points, rank 64, uint8 colors.  The
    # words C[a] * 64 + C[b] run to 4095; taken in uint8 they wrap mod 256,
    # keep only the first letter mod 4, and every FAIL turned into a pass.
    # A product color fails exactly when its AG(2,5) factor does
    fused = analysis.fuse(constructors.affine_scheme(2, 5),
                          [(0,), (1,), (2, 3), (4, 5, 6)])
    factor = oracles.t_condition_per_pair(fused, 4)
    assert factor == {0: True, 1: True, 2: True, 3: False}
    A = fused.colors.astype(np.int64)
    cfg = cc_core.validate_config(
        (A[:, None, :, None] * 16 + np.arange(16).reshape(1, 4, 1, 4)).reshape(100, 100))
    assert cfg.rank == 64 and cfg.colors.dtype == np.uint8
    verdicts = analysis.t_condition(cfg, 4)
    x, y = np.divmod(cc_core.first_cells(cfg.colors), 100)
    assert verdicts == {s: factor[int(A[x[s] // 4, y[s] // 4])] for s in range(64)}
    assert sum(not v for v in verdicts.values()) == 16
    fails, holds = (next(s for s, v in verdicts.items()
                          if v is ok and s not in cfg.diagonal_colors) for ok in (False, True))
    assert oracles.t_condition_per_pair(cfg, 4, relations=(fails, holds)) == \
        {fails: False, holds: True}


def _set_partitions(items):
    """Every partition of the list items into blocks, in a fixed order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _set_partitions(rest):
        yield [[first]] + p
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]


def _affine_plane_fusions(q):
    """The fusions of AG(2,q) other than itself: its q + 1 parallel classes
    are self-paired and the scheme is amorphic, so every partition of them
    is coherent."""
    ag = constructors.affine_scheme(2, q)
    return [analysis.fuse(ag, [(0,)] + [tuple(c) for c in p])
            for p in _set_partitions(list(range(1, q + 2))) if len(p) < q + 1]


def test_t_condition_matches_per_pair_oracle_on_affine_fusions():
    fusions4 = _affine_plane_fusions(4)
    assert len(fusions4) == 51
    for fused in fusions4:
        assert analysis.t_condition(fused, 4) == \
            oracles.t_condition_per_pair(fused, 4)
    fusions5 = _affine_plane_fusions(5)
    assert len(fusions5) == 202
    verdicts = [analysis.t_condition(fused, 4) for fused in fusions5]
    assert sum(not all(v.values()) for v in verdicts) == 125
    sample = range(0, 202, 17)
    assert {all(verdicts[i].values()) for i in sample} == {True, False}
    for i in sample:
        assert verdicts[i] == oracles.t_condition_per_pair(fusions5[i], 4)
        assert analysis.t_condition(fusions5[i], 3) == \
            oracles.t_condition_per_pair(fusions5[i], 3)


def test_t_condition_at_the_point_cap():
    # every input inside the 100-point cap finishes, at any rank: the
    # discrete configuration on 100 points has rank 10 000
    c97k2 = constructors.cyclotomic_scheme(constructors.FiniteField(97), 2)
    z100 = constructors.regular_scheme(constructors.cyclic_group_table(100))
    discrete = cc_core.validate_config(np.arange(100 * 100).reshape(100, 100))
    for cfg in (c97k2, z100, discrete):
        start = time.perf_counter()
        verdicts = analysis.t_condition(cfg, 4)
        elapsed = time.perf_counter() - start
        assert verdicts == dict.fromkeys(range(cfg.rank), True)
        assert elapsed < 10.0


def test_recognize_affine(corpus, c13k3):
    assert analysis.recognize_affine(corpus["ag-2-4"])
    ag34 = constructors.affine_scheme(3, 4)
    assert analysis.recognize_affine(ag34)
    assert not analysis.recognize_affine(c13k3)
    assert not analysis.recognize_affine(corpus["paley-13"])
    assert not analysis.recognize_affine(corpus["passman-3"])
    with pytest.raises(ValencyTooSmall):
        analysis.recognize_affine(corpus["ag-2-3"])


def _split_blocks(design):
    """The blocks alpha·s of a design, one tuple each, alpha-major."""
    cuts = np.cumsum(design.block_sizes)[:-1]
    return [tuple(b.tolist()) for row in design.blocks for b in np.split(row, cuts)]


def test_design_extraction(c13k3, ag23, dihedral4):
    d = analysis.design_from_scheme(c13k3)
    assert d.params == (13, 3, 2) and d.valid
    assert len(_split_blocks(d)) == 52
    assert oracles.pair_coverage(_split_blocks(d), 13) == {2}
    d2 = analysis.design_from_scheme(ag23)
    assert d2.params == (9, 2, 1) and d2.valid
    assert oracles.pair_coverage(_split_blocks(d2), 9) == {1}
    d3 = analysis.design_from_scheme(dihedral4)
    assert not d3.valid


def test_design_peak_memory_at_c499k6():
    # 41 417 blocks as Python tuples took 9.68 MiB; cut from a stable
    # argsort of the rows, 4.03 MiB; as the first n - 1 columns of that
    # argsort, with the diagonal color relabeled to sort last, 2.14 MiB
    cfg = constructors.cyclotomic_scheme(constructors.FiniteField(499), 6)

    def design_and_blocks():
        d = analysis.design_from_scheme(cfg)
        return d, d.blocks

    (d, blocks), peak = oracles.traced_peak(design_and_blocks)
    assert d.valid and d.params == (499, 6, 5)
    assert d.n * len(d.block_sizes) == 41417 and blocks.shape == (499, 498)
    assert peak <= 3 * 2**20


def test_design_validity_iff_pseudocyclic(corpus):
    # blocks form a 2-(n,k,k-1) design exactly for pseudocyclic schemes
    for name, cfg in corpus.items():
        if cfg.n < 3:
            continue
        design = analysis.design_from_scheme(cfg)
        pseudo = cc_core.is_pseudocyclic_combinatorial(cfg)
        if pseudo is not None and pseudo >= 2:
            assert design.valid, name
        if design.valid:
            assert pseudo == design.params[1], name


def test_design_matches_block_and_coverage_oracles(corpus):
    schemes = [cfg for cfg in corpus.values() if cfg.is_scheme]
    # c13k3 with its colors 0 and 2 swapped: the diagonal color is 2
    c13 = corpus["cyclotomic-13-k3"].colors
    swapped = cc_core.validate_config(np.choose(c13, [2, 1, 0, 3, 4]),
                                      canonicalize=False)
    assert swapped.identity_color == 2
    for cfg in schemes + [constructors.hollman_scheme(16), swapped]:
        design = analysis.design_from_scheme(cfg)
        assert design.blocks.shape == (cfg.n, cfg.n - 1)
        assert not design.blocks.flags.writeable
        assert np.array_equal(design.blocks, oracles.design_blocks_argsort(cfg))
        assert design.blocks is design.blocks
        with pytest.raises(AttributeError):
            design.blocks = None
        assert design.block_sizes == tuple(
            int(cfg.valencies[s]) for s in cfg.nondiagonal_colors)
        blocks = _split_blocks(design)
        assert blocks == [
            tuple(np.flatnonzero(cfg.colors[alpha] == s).tolist())
            for alpha in range(cfg.n) for s in cfg.nondiagonal_colors]
        covs = oracles.pair_coverage(blocks, cfg.n)
        assert design.coverage == (min(covs), max(covs))
        k = design.params[1]
        assert design.valid == (k is not None and covs == {k - 1})


def test_extend_algebraic_iso_identity(c67k2):
    phi = ColorBijection.identity(c67k2)
    ext = analysis.extend_algebraic_iso(phi, 0, 0)
    assert ext.mapping == tuple(range(len(ext.mapping)))


def test_extend_algebraic_iso_reads_the_source_support_once(c67k2, monkeypatch):
    # the direct blocks, both extensions and the splitting sets of the
    # composed blocks share one support of the base tensor; only the
    # validation of the result reads the extensions' tensors
    src = cc_core.validate_config(c67k2.colors)     # nothing cached on it
    read = []
    signatures = cc_core._reference_signatures
    monkeypatch.setattr(cc_core, "_reference_signatures",
                        lambda cfg: read.append(cfg.rank) or signatures(cfg))
    ext = analysis.extend_algebraic_iso(ColorBijection.identity(src), 0, 0)
    assert ext.mapping == tuple(range(2245))
    assert read == [34, 2245, 2245]


def test_extend_algebraic_iso_nontrivial(c67k2, ag33):
    F = constructors.FiniteField(67)
    pmap = tuple(F.mul(F.generator, x) for x in range(67))
    phi = ColorBijection(c67k2, c67k2, _induced_color_map(c67k2, pmap))
    assert phi.is_valid() and phi.mapping != tuple(range(34))
    ext = analysis.extend_algebraic_iso(phi, 0, 0)
    assert ext.is_valid()
    # AG(3,3) with a coordinate swap inducing a class transposition
    def pidx(c):
        return c[0] + 3 * c[1] + 9 * c[2]

    def coords(i):
        return (i % 3, (i // 3) % 3, i // 9)

    pmap3 = tuple(pidx((coords(i)[1], coords(i)[0], coords(i)[2]))
                  for i in range(27))
    phi3 = ColorBijection(ag33, ag33, _induced_color_map(ag33, pmap3))
    assert phi3.is_valid()
    ext3 = analysis.extend_algebraic_iso(phi3, 0, 0)
    assert ext3.is_valid()


# first 16 hex digits of sha256 over the int64 mapping that
# extend_algebraic_iso gives for each generator of AAut, from point 0 to
# alpha' = 0 and then 1
GOLDEN_EXTENDED_ISO = {
    "ag-3-3": (
        "45b1b8e1b3e46e81", "401a2e3a0096dbd0", "3eb0ad19b8d823f1", "7c31362b0aa9df2c",
        "fc6ae61fccd256fa", "35fef6d2e7660b62", "4921fff258dd9fb6", "9d9aa646ba232508",
        "b9614710bed21945", "d9b1be0ca10665e7", "5b116b34d81ed011", "46c26769907c6f17",
        "75388fd2d87aef5a", "9bd316675d2e68ec",
    ),
    "cyclotomic-67-k2": (
        "831ece565e0a9336", "7249ab34836aa504",
    ),
    "cyclotomic-151-k3": (
        "d5762d73720608fb", "f30806e0bfd7720b", "4ddcbc4b1ec1691e", "fab2b893f7d9bdad",
    ),
}


def test_extend_algebraic_iso_golden_mappings(ag33, c67k2, c151k3):
    named = {"ag-3-3": ag33, "cyclotomic-67-k2": c67k2,
             "cyclotomic-151-k3": c151k3}
    for name, pins in GOLDEN_EXTENDED_ISO.items():
        cfg = named[name]
        got = []
        for g in analysis.algebraic_automorphism_group(cfg).generators:
            phi = ColorBijection(cfg, cfg, g)
            for alpha_prime in (0, 1):
                mapping = analysis.extend_algebraic_iso(phi, 0, alpha_prime).mapping
                got.append(hashlib.sha256(
                    np.asarray(mapping, dtype=np.int64).tobytes()).hexdigest()[:16])
        assert tuple(got) == pins, name


def test_schurian_pseudocyclic_high_rank_is_frobenius(corpus):
    # schurian pseudocyclic of valency k > 1 and rank > 2(k-1): Frobenius
    # automorphism group
    for name in ("paley-5", "paley-13", "cyclotomic-13-k3", "cyclotomic-67-k2",
                 "ag-3-3"):
        cfg = corpus[name]
        k = cc_core.is_pseudocyclic_combinatorial(cfg)
        if k is None or k == 1 or cfg.rank <= 2 * (k - 1):
            continue
        if not analysis.is_schurian(cfg):
            continue
        G = permgroup.automorphism_group(cfg)
        assert permgroup.is_frobenius(G), name


def test_frobenius_group_schemes_pseudocyclic_commutativity(corpus, frob23):
    # orbital schemes of Frobenius groups: pseudocyclic; commutative iff the
    # kernel is abelian
    assert cc_core.is_pseudocyclic_combinatorial(frob23) == 7
    assert not cc_core.is_commutative(frob23)  # kernel H non-abelian
    c13 = corpus["cyclotomic-13-k3"]
    assert cc_core.is_commutative(c13)  # kernel Z13 abelian


def test_semiregular_extensions_imply_schurian_frobenius(corpus, ag33, c67k2):
    # schemes whose explicit alpha-extension is semiregular with fibers
    # alpha*u at EVERY point are schurian with a regular or Frobenius
    # automorphism group
    cases = [("ag-3-3", ag33), ("cyclotomic-67-k2", c67k2),
             ("regular-Z4", corpus["regular-Z4"])]
    for name, cfg in cases:
        for alpha in range(cfg.n):
            ext = extension.explicit_extension(cfg, alpha)
            assert extension.restriction_semiregular(ext, alpha), (name, alpha)
        assert analysis.is_schurian(cfg), name
        G = permgroup.automorphism_group(cfg)
        assert G.is_regular() or permgroup.is_frobenius(G), name


def test_amorphic_iso_group_transitive_implies_pseudocyclic(ag23):
    # equivalenced scheme whose algebraic automorphisms act transitively on
    # the non-diagonal classes is pseudocyclic
    isos = oracles.algebraic_isomorphisms(ag23, ag23)
    images_of_1 = {phi(1) for phi in isos}
    assert images_of_1 == set(ag23.nondiagonal_colors)
    G = analysis.algebraic_automorphism_group(ag23)
    assert G.orbit(1) == list(ag23.nondiagonal_colors)
    assert cc_core.is_pseudocyclic_combinatorial(ag23) is not None


def test_tensor_equality_decides_paley_vs_z5_fusion():
    # Paley GF(5) equals the symmetrizing fusion of the regular Z5 scheme;
    # the tensors match, so algebraic isomorphisms exist
    paley5 = constructors.cyclotomic_scheme(constructors.FiniteField(5), 2)
    z5 = constructors.regular_scheme(constructors.cyclic_group_table(5))
    fused = analysis.fuse(z5, [(0,), (1, 4), (2, 3)])
    assert np.array_equal(fused.colors, paley5.colors)
    assert oracles.algebraic_isomorphisms(paley5, fused)
    phi = analysis.algebraic_isomorphism(paley5, fused)
    assert phi is not None and phi.is_valid()


def test_extend_algebraic_iso_composition_branch_distinct_points(c151k3):
    F = constructors.FiniteField(151)
    pmap = tuple(F.mul(F.generator, x) for x in range(151))
    phi = ColorBijection(c151k3, c151k3, _induced_color_map(c151k3, pmap))
    assert phi.is_valid() and phi.mapping != tuple(range(c151k3.rank))
    ext_phi = analysis.extend_algebraic_iso(phi, 0, 1)
    assert ext_phi.is_valid()


def test_t_condition_matches_naive_oracle(ag23, c13k3, dihedral4):
    import oracles
    pentagon = analysis.fuse(
        constructors.regular_scheme(constructors.cyclic_group_table(5)),
        [(0,), (1, 4), (2, 3)])
    for cfg, t in ((ag23, 4), (pentagon, 4), (dihedral4, 4), (c13k3, 3)):
        assert analysis.t_condition(cfg, t) == \
            oracles.t_condition_naive(cfg.colors, t)


def test_color_bijection_inverse_and_compose(z3):
    phi = ColorBijection(z3, z3, (0, 2, 1))
    assert phi.inverse().mapping == (0, 2, 1)
    assert phi.compose(phi.inverse()).mapping == (0, 1, 2)
    assert phi.inverse().is_valid()


def test_fuse_fuzz_agrees_with_axioms_oracle(corpus):
    import oracles
    from schemelab.errors import NotCoherent as NC
    rng = np.random.default_rng(17)
    z7 = constructors.regular_scheme(constructors.cyclic_group_table(7))
    paley13 = corpus["paley-13"]
    for cfg in (z7, paley13, corpus["ag-2-3"]):
        star = cfg.star
        nond = list(cfg.nondiagonal_colors)
        for _ in range(12):
            # random star-respecting partition: group star-pairs, then merge
            pairs = sorted({tuple(sorted((s, int(star[s])))) for s in nond})
            labels = rng.integers(0, max(1, len(pairs) // 2 + 1), size=len(pairs))
            classes = {}
            for pair, lab in zip(pairs, labels):
                classes.setdefault(int(lab), set()).update(pair)
            partition = [(0,)] + [tuple(sorted(c)) for _, c in sorted(classes.items())]
            try:
                fused = analysis.fuse(cfg, partition)
            except NC:
                relabel = np.zeros(cfg.rank, dtype=int)
                for i, c in enumerate(partition):
                    for s in c:
                        relabel[s] = i
                merged = cc_core.canonicalize_colors(relabel[cfg.colors])
                assert oracles.coherent_axioms_brute(merged) == "S3"
            else:
                assert oracles.coherent_axioms_brute(fused.colors) is None
