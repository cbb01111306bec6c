"""Wedderburn decomposition, pseudocyclicity ratios, Frame numbers,
the adjacency-algebra identity, and Terwilliger dimensions."""

import numpy as np
import pytest

import oracles
from schemelab import cc_core, constructors, extension, spectral
from schemelab.errors import NotAScheme

AFM_TOL = 1e-6


def test_frobenius_example_block_table(frob23):
    dec = spectral.decompose(frob23)
    assert sorted(b.pair for b in dec.blocks) == [(1, 1), (7, 1), (14, 2), (14, 2)]
    assert dec.blocks[dec.principal_index].pair == (1, 1)
    assert spectral.is_pseudocyclic_spectral(frob23, dec) == 7


def test_paley13_blocks(corpus):
    # rank-3 commutative scheme on 13 points with ratio 6 forces (6,1),(6,1)
    dec = spectral.decompose(corpus["paley-13"])
    assert sorted(b.pair for b in dec.blocks) == [(1, 1), (6, 1), (6, 1)]


def test_regular_z3_blocks(z3):
    dec = spectral.decompose(z3)
    assert [b.pair for b in dec.blocks] == [(1, 1), (1, 1), (1, 1)]
    assert spectral.is_pseudocyclic_spectral(z3, dec) == 1


def test_block_invariants_on_corpus(corpus):
    for name, cfg in corpus.items():
        dec = spectral.decompose(cfg)
        assert sum(m * d for m, d in dec.pairs) == cfg.n, name
        assert sum(d * d for m, d in dec.pairs) == cfg.rank, name
        assert all(m >= d for m, d in dec.pairs), name
        p0 = dec.blocks[dec.principal_index]
        assert p0.pair == (1, 1)
        assert np.abs(p0.projector - 1.0 / cfg.n).max() < 1e-8, name
        for b in dec.blocks:
            P = b.projector
            assert np.abs(P @ P - P).max() < 1e-8, name
            assert np.abs(P - P.conj().T).max() < 1e-8, name
        # commutative iff all degrees are 1
        assert cc_core.is_commutative(cfg) == all(d == 1 for _, d in dec.pairs), name


def test_spectral_agrees_with_combinatorial(corpus, dihedral4):
    for name, cfg in corpus.items():
        kc = cc_core.is_pseudocyclic_combinatorial(cfg)
        ks = spectral.is_pseudocyclic_spectral(cfg)
        if kc is None:
            assert ks is None, name
        else:
            assert ks == kc, name
    assert spectral.is_pseudocyclic_spectral(dihedral4) is None


def test_equal_nonprincipal_degrees_imply_commutative(corpus):
    # pseudocyclic with all non-principal n_P equal forces commutativity
    for name, cfg in corpus.items():
        if cc_core.is_pseudocyclic_combinatorial(cfg) is None:
            continue
        dec = spectral.decompose(cfg)
        degrees = {d for _, d in (b.pair for b in dec.nonprincipal)}
        if len(degrees) <= 1:
            assert cc_core.is_commutative(cfg), name


def test_frame_numbers(corpus, z3, frob23):
    dec = spectral.decompose(z3)
    assert spectral.frame_number(z3, dec) == 27
    paley5 = corpus["paley-5"]
    f5 = spectral.frame_number(paley5, spectral.decompose(paley5))
    assert f5.denominator == 1 and f5 > 0
    f23 = spectral.frame_number(frob23, spectral.decompose(frob23))
    assert f23 == 2 ** 52  # 64^10 * 7^9 / (7 * 14^8)
    for name, cfg in corpus.items():
        f = spectral.frame_number(cfg, spectral.decompose(cfg))
        assert f.denominator == 1 and f > 0, name


def test_afm_identity_residuals(corpus, frob23):
    for name, cfg in corpus.items():
        dec = spectral.decompose(cfg)
        assert spectral.verify_afm_identity(cfg, dec) < AFM_TOL, name
    # pseudocyclic case: both sides equal (n/k) I + ((k-1)/k) J
    k = 7
    dec = spectral.decompose(frob23)
    lhs = np.zeros((64, 64))
    for s in range(frob23.rank):
        coeff = cc_core.reg_number(frob23, int(frob23.star[s])) / int(frob23.valencies[s])
        lhs += coeff * frob23.adjacency(s)
    expected = (64 / k) * np.eye(64) + ((k - 1) / k) * np.ones((64, 64))
    assert np.abs(lhs - expected).max() < AFM_TOL


def test_decompose_reproducible(frob23):
    d1 = spectral.decompose(frob23)
    d2 = spectral.decompose(frob23)
    assert d1.pairs == d2.pairs
    for b1, b2 in zip(d1.blocks, d2.blocks):
        assert np.array_equal(b1.projector, b2.projector)
    # the draws are SplitMix64 streams: the reference outputs of seed 0
    assert cc_core._splitmix64(0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    w = spectral._center_weights(1000, spectral.DEFAULT_SEED)
    parts = np.concatenate([w.real, w.imag])
    assert parts.min() >= -1 and parts.max() < 1 and np.unique(parts).size == 2000


def test_decompose_matches_naive_eigenprojectors(corpus, c151k3):
    # the r x r path against n x n eigenprojections of a central element
    for name, cfg in dict(corpus, c151k3=c151k3).items():
        dec = spectral.decompose(cfg)
        naive = oracles.central_idempotents_naive(cfg)
        assert dec.pairs == [(m, d) for m, d, _ in naive], name
        # the idempotents as multisets: each naive one matches a distinct block
        unmatched = [b.coefficients for b in dec.blocks]
        for _, _, coeffs in naive:
            dist = [np.abs(e - coeffs).max() for e in unmatched]
            j = int(np.argmin(dist))
            assert dist[j] < 1e-8, name
            unmatched.pop(j)


def test_decompose_rejects_configurations():
    nonhom = cc_core.validate_config([[0, 2], [3, 1]])
    with pytest.raises(NotAScheme):
        spectral.decompose(nonhom)


def test_terwilliger_regular_z3(z3):
    # oracle: closure of {A(s)} + {point idempotents} in full matrix space
    gens = [z3.adjacency(s) for s in range(3)]
    for s in range(3):
        D = np.zeros((3, 3))
        D[np.flatnonzero(z3.colors[0] == s), np.flatnonzero(z3.colors[0] == s)] = 1
        gens.append(D)
    assert oracles.matrix_algebra_dimension(gens) == 9
    res = spectral.terwilliger_dimension(z3, 0)
    assert res.dimension == 9 and res.extension_dimension == 9 and res.coincides


def test_terwilliger_rank2_on_3_points():
    cfg = cc_core.validate_config([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    gens = [np.eye(3), np.ones((3, 3)) - np.eye(3),
            np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])]
    dim_oracle = oracles.matrix_algebra_dimension(gens)
    res = spectral.terwilliger_dimension(cfg, 0)
    assert res.dimension == dim_oracle == 5
    assert res.extension_dimension == 5 and res.coincides


def test_terwilliger_cyclotomic_13(c13k3):
    res = spectral.terwilliger_dimension(c13k3, 0)
    # independent oracle over full 13x13 matrices
    gens = [c13k3.adjacency(s) for s in range(c13k3.rank)]
    for s in range(c13k3.rank):
        pts = np.flatnonzero(c13k3.colors[0] == s)
        D = np.zeros((13, 13))
        D[pts, pts] = 1
        gens.append(D)
    assert res.dimension == oracles.matrix_algebra_dimension(gens)
    # the comparison with dim CS_alpha is recorded (coincidence not forced at
    # this rank)
    assert res.extension_dimension >= res.dimension


def test_decomposition_unstable_after_retries(z3, monkeypatch):
    calls = {"n": 0}

    def always_unstable(*args, **kwargs):
        calls["n"] += 1
        raise spectral._Unstable("forced")

    monkeypatch.setattr(spectral, "_attempt", always_unstable)
    with pytest.raises(spectral.DecompositionUnstable):
        spectral.decompose(z3)
    assert calls["n"] == 5


def test_terwilliger_degree_cap(monkeypatch):
    from schemelab.errors import TooLarge
    cfg = cc_core.validate_config(1 - np.eye(201, dtype=int))
    assert cfg.n == spectral.TERWILLIGER_POINT_CAP + 1

    def no_closure(*args, **kwargs):
        raise AssertionError("closure started above the cap")

    monkeypatch.setattr(extension, "coherent_closure", no_closure)
    with pytest.raises(TooLarge):
        spectral.terwilliger_dimension(cfg, 0)


def _terwilliger_generators(cfg, alpha):
    """The n x n generators of T_alpha: every A(s) and every E*_s."""
    return ([cfg.adjacency(s) for s in range(cfg.rank)]
            + [np.diag((cfg.colors[alpha] == s).astype(float)) for s in range(cfg.rank)])


def _shrikhande():
    # Cayley graph of Z4 x Z4 on {±(1,0), ±(0,1), ±(1,1)}: srg(16, 6, 2, 2)
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    pts = [(x, y) for x in range(4) for y in range(4)]
    return cc_core.validate_config(
        [[0 if p == q else 1 if ((p[0] - q[0]) % 4, (p[1] - q[1]) % 4) in conn else 2
          for q in pts] for p in pts])


@pytest.mark.parametrize("alpha", [0, 1])
def test_terwilliger_strictly_inside_extension_algebra(corpus, alpha):
    # T_alpha is a proper subalgebra of the extension algebra here
    for cfg, dims in ((_shrikhande(), (20, 31)), (corpus["paley-13"], (21, 29))):
        res = spectral.terwilliger_dimension(cfg, alpha)
        assert (res.dimension, res.extension_dimension) == dims
        assert not res.coincides
        oracle = oracles.matrix_algebra_dimension(_terwilliger_generators(cfg, alpha))
        assert res.dimension == oracle


def test_terwilliger_matches_matrix_oracle_on_small_corpus(corpus):
    for name, cfg in corpus.items():
        if cfg.n > 16:
            continue
        for alpha in (0, cfg.n - 1):
            res = spectral.terwilliger_dimension(cfg, alpha)
            oracle = oracles.matrix_algebra_dimension(_terwilliger_generators(cfg, alpha))
            assert res.dimension == oracle, (name, alpha)
            assert res.dimension <= res.extension_dimension, (name, alpha)


def test_terwilliger_cyclotomic_boundary(c67k2):
    # c29 k=2 did not finish in 150 s under the pairwise span closure
    from schemelab import constructors
    c29k2 = constructors.cyclotomic_scheme(constructors.FiniteField(29), 2)
    for cfg, dim in ((c29k2, 421), (c67k2, 2245)):
        res = spectral.terwilliger_dimension(cfg, 0)
        assert res.dimension == res.extension_dimension == dim
        assert res.coincides


def test_trivial_scheme_decomposition():
    trivial = cc_core.validate_config([[0]])
    dec = spectral.decompose(trivial)
    assert dec.pairs == [(1, 1)]
    assert spectral.is_pseudocyclic_spectral(trivial, dec) == 1
    assert spectral.frame_number(trivial, dec) == 1


def test_frame_number_cyclotomic_67(corpus):
    c67 = corpus["cyclotomic-67-k2"]
    dec = spectral.decompose(c67)
    # 33 non-principal blocks (2,1): 67^34 * 2^33 / 2^33
    assert spectral.frame_number(c67, dec) == 67 ** 34


def test_center_dimension_matches_matrix_level_oracle(frob23, corpus):
    # the number of central primitive idempotents equals the dimension of
    # the center computed directly from commutators of adjacency matrices
    for cfg in (frob23, corpus["paley-5"], corpus["dihedral-4"]):
        A = np.stack([cfg.adjacency(s) for s in range(cfg.rank)])
        rows = []
        for t in range(cfg.rank):
            comm = np.einsum("sij,jk->sik", A, A[t]) \
                - np.einsum("ij,sjk->sik", A[t], A)
            rows.append(comm.reshape(cfg.rank, -1))
        M = np.concatenate(rows, axis=1)
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[0] == 0:  # commutative: every commutator vanishes
            center_dim = cfg.rank
        else:
            center_dim = int((sv < 1e-8 * sv[0]).sum())
        assert center_dim == len(spectral.decompose(cfg).blocks)


def test_desk_scale_boundary():
    # the advertised working scale: degree about 500
    m = np.ones((500, 500), dtype=int) - np.eye(500, dtype=int)
    cfg = cc_core.validate_config(m)
    assert cc_core.is_pseudocyclic_combinatorial(cfg) == 499
    dec = spectral.decompose(cfg)
    assert dec.pairs == [(1, 1), (499, 1)]
    from schemelab import constructors
    c = constructors.cyclotomic_scheme(constructors.FiniteField(499), 6)
    assert (c.n, c.rank) == (499, 84)
    dec, peak = oracles.traced_peak(spectral.decompose, c)
    assert spectral.is_pseudocyclic_spectral(c, dec) == 6
    assert spectral.verify_afm_identity(c, dec) < 1e-6
    # r x r work only: an n x n eigensolve with one stored n x n projector
    # per block needed 344 MiB here
    assert peak < 32 * 2**20


def test_rank_167_center_solve_fits_in_memory():
    # c499 k=3: the full SVD of the (167^2, 167) center equations needed a
    # 5.8 GiB U matrix
    from schemelab import constructors
    c = constructors.cyclotomic_scheme(constructors.FiniteField(499), 3)
    assert c.rank == 167
    dec, peak = oracles.traced_peak(spectral.decompose, c)
    assert dec.pairs == [(1, 1)] + [(3, 1)] * 166
    # n x n projectors needed 660 MiB here, and the dense (167^2, 167)
    # center equations 75 MiB; a commutative scheme skips them
    assert peak < 16 * 2**20
    assert spectral.is_pseudocyclic_spectral(c, dec) == 3


def _dihedral_table(m):
    """Cayley table of the dihedral group of order 2m: element j*m + i is
    rho^i sigma^j, and (i, j)(k, l) = (i + (-1)^j k, j + l)."""
    j, i = np.divmod(np.arange(2 * m), m)
    return (j[:, None] + j) % 2 * m + (i[:, None] + (1 - 2 * j[:, None]) * i) % m


@pytest.mark.parametrize("cells", [None, 1])
def test_center_basis_matches_the_dense_svd(corpus, cells, monkeypatch):
    # the center folded into one r x r factor block by block spans the
    # null space of the whole (r^2, r) system; with one cell per block
    # every row of the tensor is its own block and every u its own fold
    if cells is not None:
        monkeypatch.setattr(cc_core, "BLOCK_CELLS", cells)
    d6 = constructors.regular_scheme(_dihedral_table(6))
    for name, cfg in dict(corpus, d6=d6).items():
        basis, dense = spectral._center_basis(cfg), oracles.center_basis_dense(cfg)
        assert basis.shape == dense.shape, name
        assert np.abs(basis.T @ basis - dense.T @ dense).max() < 1e-10, name
    assert spectral._center_basis(d6).shape == (6, 12)


def test_decompose_at_the_rank_cap():
    # the regular scheme of the dihedral group of order 200: rank 200 and
    # not commutative.  The dense (r^2, r) center SVD peaked at 125 MiB
    # traced (282 MB VmHWM) and took 0.6-1.6 s; folded into one r x r
    # factor, 3.1 MiB traced (39 MB VmHWM) and 0.6 s
    d100 = constructors.regular_scheme(_dihedral_table(100))
    assert d100.rank == spectral.RANK_CAP and not cc_core.is_commutative(d100)
    dec, peak = oracles.traced_peak(spectral.decompose, d100)
    # four linear characters and 49 of degree 2, and m_P = n_P in a
    # regular scheme
    assert dec.pairs == [(1, 1)] * 4 + [(2, 2)] * 49
    assert peak < 16 * 2**20


def test_terwilliger_at_the_point_cap():
    # the regular scheme of Z_200: its extension at a point is discrete, of
    # rank 40 000 = n^2.  The int64 coordinate arrays of the extension's
    # tensor, their np.unique and the 8 M block hits expanded at once
    # peaked at 983 MiB traced (1027 MB VmHWM); numbering the blocks by
    # the scheme's triples and expanding a chunk of directions at a time,
    # at 101.5 MiB (135 MB VmHWM)
    z200 = constructors.regular_scheme(constructors.cyclic_group_table(200))
    res, peak = oracles.traced_peak(spectral.terwilliger_dimension, z200, 0)
    assert res.dimension == res.extension_dimension == 40000 and res.coincides
    assert peak < 128 * 2**20
