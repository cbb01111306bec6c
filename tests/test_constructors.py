"""Finite fields and the scheme family constructors."""

import hashlib

import numpy as np
import pytest

import oracles
from schemelab import cc_core, cli, constructors, permgroup
from schemelab.constructors import FiniteField
from schemelab.errors import (
    NotAGroup,
    NotAnAffinePlane,
    OrderDoesNotDivide,
    TooLarge,
)
from conftest import PSEUDOCYCLIC_K


FIELDS = [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (13, 1), (67, 1),
          (3, 3), (2, 8), (3, 5), (7, 3), (19, 2)]


@pytest.mark.parametrize("p,m", FIELDS)
def test_field_modulus_irreducible_sympy_oracle(p, m):
    F = FiniteField(p, m)
    # sympy checks irreducibility of the chosen modulus (descending coeffs)
    from sympy.polys.galoistools import gf_irreducible_p
    from sympy.polys.domains import ZZ
    poly = [int(c) for c in reversed(F.modulus)]
    assert gf_irreducible_p(poly, p, ZZ)
    # and no smaller monic polynomial of degree m is irreducible
    if m > 1:
        code = sum(c * p ** j for j, c in enumerate(F.modulus[:-1]))
        for smaller in range(code):
            coeffs = []
            c = smaller
            for _ in range(m):
                coeffs.append(c % p)
                c //= p
            cand = [1] + [int(x) for x in reversed(coeffs)]
            assert not gf_irreducible_p(cand, p, ZZ)


@pytest.mark.parametrize("p,m", [(p, m) for p, m in FIELDS if p ** m <= 64])
def test_field_tables_match_sympy(p, m):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_from_int_poly, gf_mul, gf_rem
    F = FiniteField(p, m)
    modulus = [int(c) for c in reversed(F.modulus)]

    def poly(a):   # index -> GF(p)[x], high degree first
        return gf_from_int_poly([a // p ** j % p for j in reversed(range(m))], p)

    def index(f):
        return sum(int(c) * p ** j for j, c in enumerate(reversed(f)))

    for a in range(F.q):
        for b in range(F.q):
            want = index(gf_rem(gf_mul(poly(a), poly(b), p, ZZ), modulus, p, ZZ))
            assert F.mul_table[a, b] == want, (a, b)
    assert list(F.log_table[F.exp_table]) == list(range(F.q - 1))
    assert list(F.exp_table[F.log_table[1:]]) == list(range(1, F.q))
    assert not F.mul_table.flags.writeable and not F.add_table.flags.writeable


def test_field_arithmetic_axioms():
    F = FiniteField(2, 3)
    elems = range(F.q)
    for a in elems:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_generator_is_smallest_primitive():
    assert FiniteField(13).generator == 2
    assert FiniteField(5).generator == 2
    F67 = FiniteField(67)
    assert F67.generator == 2
    assert F67.element_order(2) == 66
    assert FiniteField(13).subgroup(3) == (1, 3, 9)
    assert FiniteField(13).subgroup(6) == (1, 3, 4, 9, 10, 12)
    assert FiniteField(67).subgroup(2) == (1, 66)
    with pytest.raises(OrderDoesNotDivide):
        FiniteField(13).subgroup(5)


def test_cyclotomic_parameters():
    paley5 = constructors.cyclotomic_scheme(FiniteField(5), 2)
    assert (paley5.n, paley5.rank) == (5, 3)
    assert cc_core.is_equivalenced(paley5) == 2
    c13 = constructors.cyclotomic_scheme(FiniteField(13), 3)
    assert (c13.n, c13.rank) == (13, 5)
    c67 = constructors.cyclotomic_scheme(FiniteField(67), 2)
    assert (c67.n, c67.rank) == (67, 34)
    assert cc_core.is_equivalenced(c67) == 2


def test_cyclotomic_matches_orbital_scheme_colorwise():
    # cyc(K, GF(q)) equals the orbital scheme of x -> kx + t color-for-color
    for (p, d) in ((13, 3), (5, 2)):
        F = FiniteField(p)
        cyc = constructors.cyclotomic_scheme(F, d)
        kgen = F.subgroup(d)
        k_elt = None
        for cand in kgen:
            if F.element_order(cand) == d:
                k_elt = cand
                break
        shift = tuple((x + 1) % p for x in range(p))
        scale = tuple(F.mul(k_elt, x) for x in range(p))
        orb = permgroup.orbital_scheme(permgroup.group_closure([shift, scale]))
        assert np.array_equal(cyc.colors, orb.colors)


def test_frobenius_example_parameters(frob23):
    assert (frob23.n, frob23.rank) == (64, 10)
    assert cc_core.is_equivalenced(frob23) == 7
    # A(a,b) A(a',b') via 3x3 matrix multiplication over GF(8): sanity of the
    # group law used by the constructor
    F = FiniteField(2, 3)

    def matmul(x, y):
        a, b = x
        a2, b2 = y
        return (F.add(a, a2), F.add(F.add(b, b2), F.mul(a, F.pow(a2, 2))))

    assert matmul((0, 0), (3, 5)) == (3, 5)
    a1, b1, a2, b2 = 3, 4, 6, 2
    full = np.array([[1, a1, b1], [0, 1, F.pow(a1, 2)], [0, 0, 1]], dtype=object)
    # compare against explicit 3x3 multiplication entry (1,3)
    e13 = F.add(F.add(b1, b2), F.mul(a1, F.pow(a2, 2)))
    assert matmul((a1, b1), (a2, b2)) == (F.add(a1, a2), e13)


def test_frobenius_example_rejects_bad_parameters():
    with pytest.raises(ValueError):
        constructors.frobenius_example_scheme(2, 4)
    with pytest.raises(TooLarge):
        constructors.frobenius_example_scheme(3, 3)


def test_affine_scheme_parameters(ag23, ag33):
    assert (ag23.n, ag23.rank) == (9, 5)
    assert cc_core.is_equivalenced(ag23) == 2
    assert (ag33.n, ag33.rank) == (27, 14)
    ag22 = constructors.affine_scheme(2, 2)
    assert (ag22.n, ag22.rank) == (4, 4)
    assert cc_core.is_equivalenced(ag22) == 1
    ag24 = constructors.affine_scheme(2, 4)
    assert (ag24.n, ag24.rank, cc_core.is_equivalenced(ag24)) == (16, 6, 3)


def test_affine_symmetry_and_tensor(corpus):
    for name in ("ag-2-3", "ag-2-4", "ag-3-3"):
        cfg = corpus[name]
        assert cc_core.is_symmetric(cfg)
        q = int(cfg.valencies[cfg.nondiagonal_colors[0]]) + 1
        for r in cfg.nondiagonal_colors:
            assert cfg.tensor[r, r, cfg.identity_color] == q - 1
            assert cfg.tensor[r, r, r] == q - 2


@pytest.mark.parametrize("dim,q", [(2, 2), (2, 4), (2, 5), (3, 3), (2, 9),
                                   (3, 4), (4, 2)])
def test_affine_scheme_matches_per_pair_loop(dim, q):
    field = FiniteField(*constructors.factor_prime_power(q))
    expected = oracles.affine_colors_naive(field, dim)
    assert np.array_equal(constructors.affine_scheme(dim, q).colors, expected)


def _ag23_lines():
    # lines of AG(2,3) with point (x, y) -> 3*y + x (12 lines, 4 classes)
    lines = []
    for m in range(3):          # y = m x + c
        for c in range(3):
            lines.append([3 * ((m * x + c) % 3) + x for x in range(3)])
    for c in range(3):          # vertical x = c
        lines.append([3 * y + c for y in range(3)])
    return lines


def test_affine_plane_ingestion_matches_affine_scheme(ag23):
    cfg = constructors.affine_plane_from_lines(9, _ag23_lines())
    assert cc_core.same_partition(cfg, ag23)


def test_affine_plane_violations():
    lines = _ag23_lines()
    lines[0] = [0, 1, 2, 3]
    with pytest.raises(NotAnAffinePlane):
        constructors.affine_plane_from_lines(9, lines)
    with pytest.raises(NotAnAffinePlane):
        constructors.affine_plane_from_lines(8, _ag23_lines())
    lines = _ag23_lines()
    lines[0], lines[3] = lines[3], lines[3]  # duplicate line
    with pytest.raises(NotAnAffinePlane):
        constructors.affine_plane_from_lines(9, lines)


def test_passman_parameters(corpus):
    p3 = corpus["passman-3"]
    assert (p3.n, p3.rank, cc_core.is_equivalenced(p3)) == (9, 3, 4)
    p5 = corpus["passman-5"]
    assert (p5.n, p5.rank, cc_core.is_equivalenced(p5)) == (25, 4, 8)
    assert cc_core.is_pseudocyclic_combinatorial(p5) == 8
    with pytest.raises(ValueError):
        constructors.passman_scheme(4)


def test_hollman_parameters(corpus):
    h8 = corpus["hollman-8"]
    assert (h8.n, h8.rank, cc_core.is_equivalenced(h8)) == (28, 4, 9)
    assert cc_core.is_symmetric(h8)
    assert cc_core.is_pseudocyclic_combinatorial(h8) == 9
    with pytest.raises(TooLarge):
        constructors.hollman_scheme(32)
    with pytest.raises(ValueError):
        constructors.hollman_scheme(4)


def test_regular_scheme(corpus, z3):
    assert z3.rank == 3
    assert cc_core.is_pseudocyclic_combinatorial(z3) == 1
    s3 = corpus["regular-S3"]
    assert s3.rank == 6
    assert not cc_core.is_commutative(s3)
    z2 = constructors.regular_scheme(constructors.cyclic_group_table(2))
    assert z2.rank == 2
    with pytest.raises(NotAGroup):
        constructors.regular_scheme([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup):
        # an order-5 loop with identity that is not associative:
        # (1*1)*2 = 2 but 1*(1*2) = 4
        constructors.regular_scheme([[0, 1, 2, 3, 4],
                                     [1, 0, 3, 4, 2],
                                     [2, 4, 0, 1, 3],
                                     [3, 2, 4, 0, 1],
                                     [4, 3, 1, 2, 0]])


def test_every_constructor_output_validates(corpus):
    # construction already validates; re-validate from raw colors as a
    # round-trip guard
    for name, cfg in corpus.items():
        again = cc_core.validate_config(cfg.colors)
        assert np.array_equal(again.colors, cfg.colors), name


def test_predicted_pseudocyclic_valencies(corpus):
    for name, k in PSEUDOCYCLIC_K.items():
        assert cc_core.is_pseudocyclic_combinatorial(corpus[name]) == k, name


def test_hollman_16(corpus):
    h16 = constructors.hollman_scheme(16)
    assert (h16.n, h16.rank, cc_core.is_equivalenced(h16)) == (120, 8, 17)
    assert cc_core.is_symmetric(h16)
    assert cc_core.is_pseudocyclic_combinatorial(h16) == 17


def test_coset_index_matches_cyclotomic_colors():
    F = FiniteField(13)
    cfg = constructors.cyclotomic_scheme(F, 3)
    for x in range(13):
        for y in range(13):
            if x != y:
                expected = 1 + F.coset_index(F.sub(y, x), 3)
                assert cfg.colors[x, y] == expected


def test_cyclotomic_over_extension_field():
    # GF(9), |K| = 2: the Paley scheme on 9 points
    F9 = FiniteField(3, 2)
    cfg = constructors.cyclotomic_scheme(F9, 2)
    assert (cfg.n, cfg.rank) == (9, 5)
    assert cc_core.is_pseudocyclic_combinatorial(cfg) == 2
    # color-for-color against the orbital scheme of x -> kx + t
    k_elt = next(a for a in F9.subgroup(2) if a != 1)
    gens = [tuple(F9.add(x, 1) for x in range(9)),
            tuple(F9.add(x, 3) for x in range(9)),
            tuple(F9.mul(k_elt, x) for x in range(9))]
    orb = permgroup.orbital_scheme(permgroup.group_closure(gens))
    assert np.array_equal(cfg.colors, orb.colors)
    # GF(16), |K| = 5: rank 4, pseudocyclic of valency 5
    F16 = FiniteField(2, 4)
    c16 = constructors.cyclotomic_scheme(F16, 5)
    assert (c16.n, c16.rank) == (16, 4)
    assert cc_core.is_pseudocyclic_combinatorial(c16) == 5


# sha256 prefixes of cli.dump_scheme, recorded from the per-pair Python
# affine loop and the polynomial-arithmetic field this table-built field
# replaced; perfbench's pinned files cover the other families.
GOLDEN = [
    (lambda: constructors.affine_scheme(2, 16), "7c6536b2b507f66d"),
    (lambda: constructors.affine_scheme(2, 19), "6be9c9030a875ec7"),
    (lambda: constructors.affine_scheme(3, 7), "627d8c66ddf3e650"),
    (lambda: constructors.affine_scheme(8, 2), "201cb952ca185738"),
    (lambda: constructors.cyclotomic_scheme(FiniteField(3, 2), 2), "3f3a57e5ef4270c2"),
    (lambda: constructors.cyclotomic_scheme(FiniteField(2, 4), 5), "82064517689665f8"),
    (lambda: constructors.cyclotomic_scheme(FiniteField(3, 3), 13), "4fde35162400d424"),
    (lambda: constructors.cyclotomic_scheme(FiniteField(2, 8), 3), "955883f4808c22f5"),
    (lambda: constructors.passman_scheme(7), "75308817e682e984"),
    (lambda: constructors.passman_scheme(9), "3ea575b16bf881cf"),
]


@pytest.mark.parametrize("build,digest", GOLDEN)
def test_golden_constructions(build, digest):
    assert hashlib.sha256(cli.dump_scheme(build())).hexdigest()[:16] == digest


def test_regular_scheme_associativity_check_stays_quadratic():
    # the check compares one (m, m) slice per a, never two (m, m, m) arrays
    cfg, peak = oracles.traced_peak(
        constructors.regular_scheme, constructors.cyclic_group_table(300))
    assert cfg.rank == 300
    assert peak < 32 * 2 ** 20


def test_field_over_the_point_cap_raises_before_building_tables():
    assert FiniteField(499).q == 499
    for p, m in ((503, 1), (1009, 1), (2, 9), (23, 2), (10 ** 18, 1), (2, 10 ** 9)):
        with pytest.raises(TooLarge):
            FiniteField(p, m)
