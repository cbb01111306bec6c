"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances and runtime limits are pinned here."""

import contextlib
import os
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest

from schemelab import (
    analysis,
    cc_core,
    cli,
    constructors,
    extension,
    permgroup,
    spectral,
)
from conftest import PSEUDOCYCLIC_K

RESIDUAL_TOL = 1e-6
HALL_PLANE_FILE = os.path.join(os.path.dirname(__file__), "data",
                               "hall_plane_order9.txt")


@contextlib.contextmanager
def criterion(number, description, limit_seconds=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.time() - start
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(f"ACCEPTANCE {number} ({description}): FAIL (time {elapsed:.1f}s)")
        raise AssertionError(
            f"criterion {number} exceeded {limit_seconds}s ({elapsed:.1f}s)")
    print(f"ACCEPTANCE {number} ({description}): PASS ({elapsed:.1f}s)")


def test_criterion_1_golden_multiplicity_table():
    with criterion(1, "Frobenius-family golden multiplicity table", 30):
        cfg = constructors.frobenius_example_scheme(2, 3)
        assert cfg.n == 64 and cfg.rank == 10
        assert cc_core.is_equivalenced(cfg) == 7
        dec = spectral.decompose(cfg)
        assert sorted(b.pair for b in dec.blocks) == \
            [(1, 1), (7, 1), (14, 2), (14, 2)]
        for b in dec.blocks:
            P = b.projector
            assert np.abs(P @ P - P).max() < RESIDUAL_TOL
            assert abs(P.trace().real - b.multiplicity * b.degree) < RESIDUAL_TOL
        assert spectral.is_pseudocyclic_spectral(cfg, dec) == 7
        assert cc_core.is_pseudocyclic_combinatorial(cfg) == 7
        assert not cc_core.is_commutative(cfg)


def test_criterion_2_pseudocyclic_equivalence(corpus):
    with criterion(2, "combinatorial/spectral pseudocyclicity agreement", 120):
        assert len(corpus) >= 12
        for name, cfg in corpus.items():
            kc = cc_core.is_pseudocyclic_combinatorial(cfg)
            ks = spectral.is_pseudocyclic_spectral(cfg)
            if kc is None:
                assert ks is None, name
            else:
                assert ks is not None and ks == kc, name
            if name in PSEUDOCYCLIC_K:
                assert kc == PSEUDOCYCLIC_K[name], name
        assert cc_core.is_pseudocyclic_combinatorial(corpus["dihedral-4"]) is None


def test_criterion_3_gf67_witness(corpus, c67k2):
    with criterion(3, "GF(67) |K|=2 rank-bound witness", 120):
        assert c67k2.rank == 34
        k = cc_core.is_pseudocyclic_combinatorial(c67k2)
        assert k == 2 and c67k2.rank >= 4 * (k - 1) * k ** 3
        nond = c67k2.nondiagonal_colors
        for i, u in enumerate(nond):
            for v in nond[i:]:
                assert extension.check_pair_condition(c67k2, u, v)
        for u, v, w in combinations_with_replacement(nond, 3):
            assert extension.check_triple_condition(c67k2, u, v, w)
        res = extension.explicit_extension(c67k2, 0)
        assert res.semiregular
        assert sorted(len(f) for f in res.config.fibers) == [1] + [2] * 33
        closure = extension.coherent_closure(c67k2, {0})
        assert cc_core.same_partition(res.config, closure)
        G = permgroup.automorphism_group(c67k2)
        assert G.order == 134
        assert permgroup.is_frobenius(G)
        assert analysis.is_separable_desk(c67k2)


def test_criterion_4_identity_suite(corpus):
    with criterion(4, "intersection-number identity suite"):
        for name, cfg in corpus.items():
            val = cfg.valencies
            star = cfg.star
            T = cfg.tensor
            r = cfg.rank
            for a in range(r):
                for b in range(r):
                    assert int(val[a]) * int(val[b]) == sum(
                        c * int(val[t]) for t, c in T.products(a, b).items()), name
            for a in range(r):
                for b in range(r):
                    for t in range(r):
                        x = int(val[t]) * T[a, b, int(star[t])]
                        y = int(val[a]) * T[b, t, int(star[a])]
                        z = int(val[b]) * T[t, a, int(star[b])]
                        assert x == y == z, name
            e = cfg.identity_color
            for a in cfg.nondiagonal_colors:
                aa = cc_core.complex_product(cfg, a, int(star[a]))
                for b in cfg.nondiagonal_colors:
                    bb = cc_core.complex_product(cfg, b, int(star[b]))
                    flat = max(T.products(int(star[a]), b).values())
                    assert (flat <= 1) == (aa & bb == {e}), name
            k = cc_core.is_equivalenced(cfg)
            if k is not None and cfg.nondiagonal_colors:
                total = sum(cc_core.indistinguishing_number(cfg, s)
                            for s in cfg.nondiagonal_colors)
                assert total == (k - 1) * len(cfg.nondiagonal_colors), name
                if k > 1:
                    c = cc_core.scheme_indistinguishing_number(cfg)
                    for u in cfg.nondiagonal_colors:
                        for v in cfg.nondiagonal_colors:
                            gap = len(cfg.nondiagonal_colors) \
                                - len(extension.splitting_set(cfg, u, v))
                            assert gap < c * k ** 3, name
            dec = spectral.decompose(cfg)
            assert spectral.verify_afm_identity(cfg, dec) < RESIDUAL_TOL, name


def test_criterion_5_extension_structure(ag33, c67k2):
    with criterion(5, "splitting-set structure theorems"):
        for cfg in (ag33, c67k2):
            k = cc_core.is_equivalenced(cfg)
            star = cfg.star
            nond = cfg.nondiagonal_colors
            alpha = 0
            for u in nond:
                au = tuple(int(x) for x in cfg.neighbors(alpha, u))
                for v in nond:
                    D = extension.splitting_set(cfg, u, v)
                    uv = cc_core.complex_product(cfg, int(star[u]), v)
                    av = tuple(int(x) for x in cfg.neighbors(alpha, v))
                    block = {(x, y) for x in au for y in av}
                    reference = None
                    for w in sorted(D):
                        if u != v:
                            full = len(uv) == k
                            assert full == (u in extension.splitting_set(cfg, v, w))
                            assert full == (v in extension.splitting_set(cfg, w, u))
                        uw = cc_core.complex_product(cfg, int(star[u]), w)
                        wv = cc_core.complex_product(cfg, int(star[w]), v)
                        for a in uw:
                            for b in wv:
                                assert len(cc_core.complex_product(cfg, a, b) & uv) == 1
                        aw = tuple(int(x) for x in cfg.neighbors(alpha, w))
                        left = extension._block_matchings(cfg, au, aw)
                        right = extension._block_matchings(cfg, aw, av)
                        parts = {tuple(sorted((x, m2[m1[x]]) for x in m1))
                                 for m1 in left for m2 in right}
                        assert len(parts) == k
                        covered = [p for part in parts for p in part]
                        assert len(covered) == len(block) and set(covered) == block
                        if reference is None:
                            reference = parts
                        else:
                            assert parts == reference, (u, v, w)


def test_criterion_6_designs(c13k3, ag23, dihedral4):
    with criterion(6, "2-design extraction"):
        d = analysis.design_from_scheme(c13k3)
        assert d.valid and d.params == (13, 3, 2) and len(d.blocks) == 52
        d2 = analysis.design_from_scheme(ag23)
        assert d2.valid and d2.params == (9, 2, 1)
        d3 = analysis.design_from_scheme(dihedral4)
        assert not d3.valid
        assert cc_core.is_pseudocyclic_combinatorial(dihedral4) is None


def test_criterion_7_affine_recognition(corpus, ag23):
    with criterion(7, "affine recognition and 4-condition"):
        from schemelab.errors import ValencyTooSmall
        expected_true = {"ag-2-4"}
        testable_false = {"cyclotomic-13-k3", "paley-13", "passman-3",
                          "passman-5", "hollman-8"}
        for name in expected_true:
            assert analysis.recognize_affine(corpus[name]), name
        assert analysis.recognize_affine(constructors.affine_scheme(3, 4))
        for name in testable_false:
            assert not analysis.recognize_affine(corpus[name]), name
        for name in ("ag-2-3", "ag-3-3", "cyclotomic-67-k2", "paley-5"):
            with pytest.raises(ValencyTooSmall):
                analysis.recognize_affine(corpus[name])
        assert all(analysis.t_condition(ag23, 4).values())


def test_criterion_7_hall_plane_conditional():
    if not os.path.exists(HALL_PLANE_FILE):
        print("ACCEPTANCE 7b (non-Desarguesian plane): SKIP (no plane file)")
        pytest.skip("order-9 non-Desarguesian plane file not supplied")
    with criterion("7b", "non-Desarguesian plane fails 4-condition"):
        n_points, lines = cli._load_plane_lines(HALL_PLANE_FILE)
        cfg = constructors.affine_plane_from_lines(n_points, lines)
        assert (cfg.n, cfg.rank) == (81, 11)
        verdicts = analysis.t_condition(cfg, 4)
        assert not all(verdicts.values())
        assert not analysis.is_schurian(cfg)


def test_criterion_8_fusions(ag23, c13k3):
    with criterion(8, "amorphic and algebraic fusions"):
        fused = analysis.fuse(ag23, [(0,), (1, 2), (3, 4)])
        assert fused.n == 9 and fused.rank == 3
        assert cc_core.is_pseudocyclic_combinatorial(fused) == 4
        F = constructors.FiniteField(13)
        pmap = tuple(F.mul(4, x) for x in range(13))
        colmap = [0] * c13k3.rank
        for a in range(13):
            for b in range(13):
                colmap[c13k3.colors[a, b]] = int(c13k3.colors[pmap[a], pmap[b]])
        phi = analysis.ColorBijection(c13k3, c13k3, tuple(colmap))
        assert phi.is_valid()
        assert phi.compose(phi).mapping == tuple(range(5))  # order 2
        fused2 = analysis.algebraic_fusion(c13k3, [phi])
        k6 = constructors.cyclotomic_scheme(F, 6)
        assert np.array_equal(fused2.colors, k6.colors)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "bit-identical golden files and reproducible spectra"):
        outputs = []
        for i in range(3):
            path = tmp_path / f"det{i}.json"
            code = cli.main(["construct",
                             "frobenius-example", "--q", "2", "--n", "3",
                             "-o", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        cfg, _ = cli.load_scheme(tmp_path / "det0.json")
        d1 = spectral.decompose(cfg)
        d2 = spectral.decompose(cfg)
        assert d1.pairs == d2.pairs
        for b1, b2 in zip(d1.blocks, d2.blocks):
            assert np.array_equal(b1.projector, b2.projector)
        # extension output files identical across runs
        exts = []
        for i in range(2):
            path = tmp_path / f"ext{i}.json"
            code = cli.main(["extend",
                             str(tmp_path / "det0.json"), "--point", "0",
                             "--method", "closure", "-o", str(path)])
            assert code == 0
            exts.append(path.read_bytes())
        assert exts[0] == exts[1]
