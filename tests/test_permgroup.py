"""Group closure, orbital schemes, Frobenius test, automorphism search."""

import math
import time

import numpy as np
import pytest

import oracles
from schemelab import analysis, cc_core, constructors, extension, permgroup


def _agl15():
    F = constructors.FiniteField(5)
    shift = tuple((x + 1) % 5 for x in range(5))
    scale = tuple(F.mul(F.generator, x) for x in range(5))
    return permgroup.group_closure([shift, scale])


def test_compose_inverse_roundtrip():
    p = permgroup.parse_permutation("0 2 1 3")
    assert permgroup.compose(p, permgroup.inverse(p)) == permgroup.identity(4)
    with pytest.raises(ValueError):
        permgroup.parse_permutation("0 0 1")


def test_closure_orders():
    assert permgroup.group_closure([(1, 2, 0)]).order == 3
    assert permgroup.group_closure([], n=4).order == 1
    # Sym(12) from a 12-cycle and a transposition, with no element listed
    cycle = tuple(range(1, 12)) + (0,)
    swap = (1, 0) + tuple(range(2, 12))
    S12 = permgroup.group_closure([cycle, swap])
    assert S12.order == 479_001_600
    assert tuple(reversed(range(12))) in S12


def test_frobenius_example_group():
    # |G| = |H| |K| = 64 * 7 for (q, n) = (2, 3), and it is Frobenius
    G = constructors.frobenius_example_group(2, 3)
    assert G.order == 448
    assert permgroup.is_frobenius(G)
    # one fixed point plus nine orbits of size 7 for any point stabilizer
    orbit_sizes = sorted(len(o) for o in permgroup.point_stabilizer_orbits(G, 5))
    assert orbit_sizes == [1] + [7] * 9


def test_orbital_scheme_examples(z3):
    G = permgroup.group_closure([(1, 2, 0)])
    assert cc_core.same_partition(permgroup.orbital_scheme(G), z3)
    agl = _agl15()
    assert agl.order == 20
    assert permgroup.orbital_scheme(agl).rank == 2


def test_orbital_colors_are_group_invariant(corpus):
    rng = np.random.default_rng(11)
    groups = [permgroup.group_closure([(1, 2, 3, 0), (0, 3, 2, 1)]), _agl15()]
    for G in groups:
        cfg = permgroup.orbital_scheme(G)
        elements = oracles.group_elements_naive(G.generators, G.n)
        for _ in range(50):
            g = elements[int(rng.integers(G.order))]
            a, b = int(rng.integers(G.n)), int(rng.integers(G.n))
            assert cfg.colors[a, b] == cfg.colors[g[a], g[b]]


def test_non_transitive_group_gives_configuration():
    G = permgroup.group_closure([(1, 0, 2)])
    cfg = permgroup.orbital_scheme(G)
    assert not cfg.is_scheme
    assert len(cfg.fibers) == 2
    # two fibers at the root of the search
    A = permgroup.automorphism_group(cfg)
    assert sorted(oracles.group_elements_naive(A.generators, 3)) == \
        sorted(oracles.automorphisms_brute(cfg.colors))


def test_is_frobenius():
    assert permgroup.is_frobenius(_agl15())  # sharply 2-transitive
    z4 = permgroup.group_closure([(1, 2, 3, 0)])
    assert not permgroup.is_frobenius(z4)  # regular
    sym4 = permgroup.group_closure([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert sym4.order == 24
    assert not permgroup.is_frobenius(sym4)  # transpositions fix two points
    intransitive = permgroup.group_closure([(1, 0, 2)])
    assert not permgroup.is_frobenius(intransitive)


def test_point_stabilizer_orbits(frob23):
    agl = _agl15()
    assert permgroup.point_stabilizer_orbits(agl, 0) == [(0,), (1, 2, 3, 4)]
    trivial = permgroup.group_closure([], n=3)
    assert permgroup.point_stabilizer_orbits(trivial, 0) == [(0,), (1,), (2,)]


def test_automorphism_group_small_brute_force(z3):
    # oracle: all 6 permutations of 3 points
    auts = oracles.automorphisms_brute(z3.colors)
    G = permgroup.automorphism_group(z3)
    assert sorted(oracles.group_elements_naive(G.generators, 3)) == sorted(auts)
    assert G.order == 3


def test_automorphism_group_rank2_is_symmetric_group():
    cfg = cc_core.validate_config(np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    G = permgroup.automorphism_group(cfg)
    assert G.order == 24
    assert sorted(oracles.group_elements_naive(G.generators, 4)) == \
        sorted(oracles.automorphisms_brute(cfg.colors))


def test_automorphism_group_contains_constructing_group(corpus):
    # Aut(orbital_scheme(G)) >= G
    for G in (permgroup.group_closure([(1, 2, 3, 0), (0, 3, 2, 1)]), _agl15()):
        cfg = permgroup.orbital_scheme(G)
        auts = permgroup.automorphism_group(cfg)
        assert all(g in auts for g in oracles.group_elements_naive(G.generators, G.n))


def test_automorphism_fix_bound_on_schurian_pseudocyclic(corpus):
    # schurian pseudocyclic of valency k: every nonidentity automorphism
    # fixes at most k-1 points
    for name in ("paley-5", "cyclotomic-13-k3", "ag-2-3"):
        cfg = corpus[name]
        k = cc_core.is_pseudocyclic_combinatorial(cfg)
        G = permgroup.automorphism_group(cfg)
        e = permgroup.identity(G.n)
        for g in oracles.group_elements_naive(G.generators, G.n):
            if g != e:
                assert len(oracles.fixed_points(g)) <= k - 1, name


def test_stabilizer_orbits_match_extension_fibers(corpus):
    # Aut(cfg)_alpha orbits equal the fibers
    # of the alpha-extension on schurian members
    for name in ("cyclotomic-13-k3", "ag-2-3", "regular-Z4"):
        cfg = corpus[name]
        G = permgroup.automorphism_group(cfg)
        orbits = set(permgroup.point_stabilizer_orbits(G, 0))
        ext = extension.coherent_closure(cfg, {0})
        fibers = {tuple(int(x) for x in f) for f in ext.fibers}
        assert orbits == fibers, name


def test_search_budget_and_point_cap(c13k3, monkeypatch):
    from schemelab.errors import SearchBudgetExceeded, TooLarge
    with monkeypatch.context() as patch:
        patch.setattr(permgroup, "SEARCH_NODE_CAP", 3)
        with pytest.raises(SearchBudgetExceeded):
            permgroup.automorphism_group(c13k3)
    big = cc_core.validate_config(1 - np.eye(201, dtype=int))
    assert big.n == permgroup.AUT_POINT_CAP + 1

    def no_search(*args, **kwargs):
        raise AssertionError("search started above the cap")

    monkeypatch.setattr(permgroup, "search_group", no_search)
    with pytest.raises(TooLarge):
        permgroup.automorphism_group(big)


def test_automorphisms_contain_group_heavier_members(frob23):
    # Aut(orbital_scheme(G)) >= G for the non-abelian Frobenius family; here
    # automorphism group is exactly G
    G = constructors.frobenius_example_group(2, 3)
    A = permgroup.automorphism_group(frob23)
    assert A.order == 448
    assert all(g in A for g in oracles.group_elements_naive(G.generators, G.n))


def test_hollman_automorphisms_realize_psl(corpus):
    # conjugation action of PSL(2,8) is faithful; the scheme turns out to be
    # schurian with automorphism group of order |PSL(2,8)|
    A = permgroup.automorphism_group(corpus["hollman-8"])
    assert A.order == 504


def test_group_orbits_match_orbital_fibers():
    G = permgroup.group_closure([(1, 0, 2, 3), (0, 1, 3, 2)])
    assert G.orbits() == [(0, 1), (2, 3)]
    cfg = permgroup.orbital_scheme(G)
    assert {tuple(int(x) for x in f) for f in cfg.fibers} == {(0, 1), (2, 3)}


def test_automorphism_set_is_closed(corpus):
    rng = np.random.default_rng(3)
    G = permgroup.automorphism_group(corpus["paley-13"])
    elements = oracles.group_elements_naive(G.generators, G.n)
    assert len(elements) == G.order
    for _ in range(30):
        a = elements[int(rng.integers(G.order))]
        b = elements[int(rng.integers(G.order))]
        assert permgroup.compose(a, b) in G
        assert permgroup.inverse(a) in G


def test_orbital_scheme_fuzz_random_groups():
    import oracles
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        gens = [tuple(map(int, rng.permutation(n))) for _ in range(int(rng.integers(1, 3)))]
        G = permgroup.group_closure(gens)
        cfg = permgroup.orbital_scheme(G)   # must validate
        assert oracles.coherent_axioms_brute(cfg.colors) is None
        if n <= 6:
            auts = set(oracles.automorphisms_brute(cfg.colors))
            assert set(oracles.group_elements_naive(G.generators, n)) <= auts
            A = permgroup.automorphism_group(cfg)
            assert set(oracles.group_elements_naive(A.generators, n)) == auts


def _frobenius_by_elements(elements, n):
    """Transitive, not regular, and no non-identity element fixes two
    points, read off an element list."""
    if {g[0] for g in elements} != set(range(n)) or len(elements) == n:
        return False
    return all(len(oracles.fixed_points(g)) <= 1
               for g in elements if g != permgroup.identity(n))


def _stabilizer_orbits_by_elements(elements, n, alpha):
    stab = [g for g in elements if g[alpha] == alpha]
    return sorted({tuple(sorted({g[x] for g in stab})) for x in range(n)})


def _assert_matches_enumeration(G, name):
    elements = oracles.group_elements_naive(G.generators, G.n)
    assert G.order == len(elements), name
    assert all(g in G for g in elements), name
    assert permgroup.is_frobenius(G) == _frobenius_by_elements(elements, G.n), name
    for alpha in (0, G.n - 1):
        assert permgroup.point_stabilizer_orbits(G, alpha) == \
            _stabilizer_orbits_by_elements(elements, G.n, alpha), name
    return elements


def _fuzz_groups():
    """The random groups of the fuzz test, 40 of degree 2 to 6."""
    rng = np.random.default_rng(99)
    fuzz = []
    for _ in range(40):
        n = int(rng.integers(2, 7))
        gens = [tuple(map(int, rng.permutation(n)))
                for _ in range(int(rng.integers(1, 3)))]
        fuzz.append(permgroup.group_closure(gens))
    return fuzz


def test_bsgs_matches_enumeration(corpus):
    # corpus automorphism groups plus the random groups of the fuzz test:
    # generators preserve every color, the BSGS order and membership agree
    # with the breadth-first element list, and for n <= 8 the group is the
    # brute-force automorphism set
    cases = [(name, cfg) for name, cfg in corpus.items()]
    for i, G in enumerate(_fuzz_groups()):
        _assert_matches_enumeration(G, f"fuzz-{i}")
        cases.append((f"fuzz-{i}-orbitals", permgroup.orbital_scheme(G)))
    for name, cfg in cases:
        A = permgroup.automorphism_group(cfg)
        for g in A.generators:
            assert np.array_equal(cfg.colors[np.ix_(g, g)], cfg.colors), name
        elements = _assert_matches_enumeration(A, name)
        if cfg.n <= 8:
            assert set(elements) == set(oracles.automorphisms_brute(cfg.colors)), name


def test_orbit_ids_match_the_element_list(monkeypatch):
    # the fuzz groups and the groups passman5 and frob23 take the orbitals
    # of: pair ids and point orbits equal those read off the element list,
    # and joining the generators one at a time gives the labels of joining
    # them at once
    orbital_scheme, taken = permgroup.orbital_scheme, []
    monkeypatch.setattr(permgroup, "orbital_scheme",
                        lambda G: taken.append(G) or orbital_scheme(G))
    constructors.passman_scheme(5)
    monkeypatch.undo()
    groups = _fuzz_groups() + taken + [constructors.frobenius_example_group(2, 3)]
    assert [G.n for G in groups[-2:]] == [25, 64]
    for i, G in enumerate(groups):
        elements = oracles.group_elements_naive(G.generators, G.n)
        assert np.array_equal(permgroup.orbital_scheme(G).colors,
                              oracles.orbital_colors_naive(elements, G.n)), i
        assert G.orbits() == sorted(
            {tuple(sorted({g[x] for g in elements})) for x in range(G.n)}), i
        for shape in ((G.n,), (G.n, G.n)):
            seed = np.arange(G.n ** len(shape)).reshape(shape)
            joined = seed
            for g in G.generators:
                joined = permgroup._orbit_labels(joined, [g])
            assert np.array_equal(joined, permgroup._orbit_labels(seed, G.generators)), i


def test_search_order_past_the_int64_range():
    # 25! > 2^63: the product of the basic orbit sizes is a Python int
    k25 = cc_core.validate_config(np.ones((25, 25), dtype=int) - np.eye(25, dtype=int))
    assert permgroup.automorphism_group(k25).order == math.factorial(25)


def test_stabilizer_is_a_group():
    G = _agl15()
    H = G.stabilizer(2)
    assert H.order == 4 and all(g[2] == 2 for g in H.generators)
    assert H.orbits() == [(0, 1, 3, 4), (2,)]
    assert G.stabilizer(0).stabilizer(1).order == 1


def test_stabilizer_is_read_off_the_chain(monkeypatch):
    # G_alpha for the first base point alpha is the tail of the chain, with
    # no Schreier-Sims run (a second run cost is_frobenius 2.2 s on
    # Aut(K_61), 2 CPUs); any other alpha re-bases once.  Either way the
    # stabilizer equals the one Schreier-Sims builds from the strong
    # generators that fix alpha
    schreier_sims, calls = permgroup._schreier_sims, []

    def counted(*args):
        calls.append(args)
        return schreier_sims(*args)

    groups = _fuzz_groups() + [_agl15(), constructors.frobenius_example_group(2, 3)]
    monkeypatch.setattr(permgroup, "_schreier_sims", counted)
    for i, G in enumerate(groups):
        for alpha in sorted({*G.base[:1], 0, G.n - 1}):
            calls.clear()
            H = G.stabilizer(alpha)
            first = G.base[:1] == (alpha,)
            assert len(calls) == (0 if first else 1), (i, alpha)
            chain = G if first else permgroup.PermutationGroup(
                G.n, G.strong_generators, base=(alpha,))
            ref = permgroup.PermutationGroup(
                G.n, [s for s in chain.strong_generators if s[alpha] == alpha],
                base=chain.base[1:])
            assert (H.order, H.orbits(), H.base, H.strong_generators) == \
                (ref.order, ref.orbits(), ref.base, ref.strong_generators), (i, alpha)
            assert all(s in H for s in ref.strong_generators), (i, alpha)
    k12 = cc_core.validate_config(np.ones((12, 12), dtype=int) - np.eye(12, dtype=int))
    G = permgroup.automorphism_group(k12)
    calls.clear()
    assert not permgroup.is_frobenius(G) and calls == []


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_automorphisms_of_k12_at_once():
    # 12! = 479001600 automorphisms: listing them took hours; the BSGS
    # needs a base of 11 points and a handful of leaves
    k12 = cc_core.validate_config(np.ones((12, 12), dtype=int) - np.eye(12, dtype=int))
    G, t_aut = _timed(permgroup.automorphism_group, k12)
    assert G.order == 479_001_600
    schurian, t_schur = _timed(analysis.is_schurian, k12)
    assert schurian
    assert t_aut < 1.0 and t_schur < 1.0


def test_automorphisms_hollman16_and_c199k3_at_once():
    hollman16 = constructors.hollman_scheme(16)
    G, t_aut = _timed(permgroup.automorphism_group, hollman16)
    assert G.order == 4080
    assert not permgroup.is_frobenius(G)
    assert cc_core.same_partition(permgroup.orbital_scheme(G), hollman16)
    _, t_check = _timed(permgroup.is_frobenius, G)
    assert t_aut + t_check < 2.0
    c199k3 = constructors.cyclotomic_scheme(constructors.FiniteField(199), 3)
    G, t_aut = _timed(permgroup.automorphism_group, c199k3)
    assert G.order == 597
    frobenius, t_check = _timed(permgroup.is_frobenius, G)
    assert frobenius
    assert t_aut + t_check < 2.0
