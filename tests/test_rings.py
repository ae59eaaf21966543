"""Finite rings by structure constants and the regularity hierarchy."""

import functools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endolab import homs, linalg, modules, rings, workspace
from endolab.verdicts import CapExceeded, Caps, InternalInconsistency, Verdict

ROOT = os.path.join(os.path.dirname(__file__), "..")

CAP = 4096


def ut2(modulus):
    return rings.matrix_ring_presentation(2, modulus, upper_triangular=True)


def mat2(modulus):
    return rings.matrix_ring_presentation(2, modulus)


def test_validate_builtin_constructions():
    for ring in (rings.zmod_ring(6), ut2(2), mat2(2),
                 rings.product_ring(rings.zmod_ring(2), rings.zmod_ring(3))):
        ok, msg = rings.validate_ring(ring)
        assert ok, msg


def test_validate_rejects_broken_identity():
    ring = rings.FiniteRing(moduli=(4,), mul=(((1,),),), one=(2,))
    ok, msg = rings.validate_ring(ring)
    assert not ok
    assert "identity" in msg or "one" in msg


def test_validate_rejects_nonassociative():
    # x*y = x+y is not associative with this "one"
    ring = rings.FiniteRing(moduli=(3,), mul=(((2,),),), one=(1,))
    ok, msg = rings.validate_ring(ring)
    assert not ok
    assert msg == "identity law: one * b_0 or b_0 * one != b_0"
    # unreduced structure constants, first failing triple (0, 0, 1)
    ring = rings.FiniteRing(moduli=(2, 2), mul=(((0, 3), (0, 1)), ((0, 1), (1, 1))), one=(1, 0))
    assert rings.validate_ring(ring) == (False, "associativity: (b_0 b_0) b_1 != b_0 (b_0 b_1)")


def test_validate_reads_unreduced_structure_constants():
    # Z/4 with b_0 * b_0 = 5 b_0 = b_0
    assert rings.validate_ring(rings.FiniteRing(moduli=(4,), mul=(((5,),),), one=(1,))) == (True, "")


def squarefree(n):
    return all(n % (p * p) for p in range(2, n))


@settings(max_examples=29, deadline=None)
@given(st.integers(2, 30))
def test_zn_regularity_iff_squarefree(n):
    ring = rings.zmod_ring(n)
    verdict = rings.is_regular(ring, CAP)
    assert verdict.value is squarefree(n)
    # commutative, so regular, unit regular and abelian regular coincide
    assert rings.is_unit_regular(ring, CAP).value is squarefree(n)
    assert rings.is_abelian_regular(ring, CAP).value is squarefree(n)


def test_regularity_witness_roundtrip():
    ring = rings.zmod_ring(6)
    for x in rings.enumerate_elements(ring, CAP):
        y = rings.regularity_witness(x)
        assert y is not None
        assert (x * y * x).coords == x.coords


def test_upper_triangular_not_regular():
    verdict = rings.is_regular(ut2(2), CAP)
    assert verdict.value is False
    x = verdict.witness
    assert rings.regularity_witness(x) is None


def test_full_matrix_ring_regular_not_abelian():
    ring = mat2(2)
    assert rings.is_regular(ring, CAP).value is True
    assert rings.is_unit_regular(ring, CAP).value is True
    assert rings.is_abelian_regular(ring, CAP).value is False


def regularity_hierarchy(ring, cap):
    """(abelian regular, unit regular, regular) of one ring."""
    return (rings.is_abelian_regular(ring, cap), rings.is_unit_regular(ring, cap),
            rings.is_regular(ring, cap))


def test_hierarchy_consistency():
    for ring in (rings.zmod_ring(4), rings.zmod_ring(6), ut2(2), mat2(2),
                 rings.product_ring(rings.zmod_ring(2), rings.zmod_ring(2))):
        abelian, unit, regular = regularity_hierarchy(ring, CAP)
        if abelian.value:
            assert unit.value and regular.value
        if unit.value:
            assert regular.value


def test_idempotents_of_z6():
    ring = rings.zmod_ring(6)
    vals = sorted(e.coords[0] for e in rings.idempotents(ring, CAP))
    assert vals == [0, 1, 3, 4]


def test_units_of_z6():
    ring = rings.zmod_ring(6)
    elems = rings.enumerate_elements(ring, CAP)
    vals = sorted(u.coords[0] for u in elems if rings.is_unit(u))
    assert vals == [1, 5]


def test_unit_detection_in_matrix_ring():
    ring = mat2(2)
    # e11 + e12 + e21 has determinant 1 mod 2: a unit
    u = ring.element((1, 1, 1, 0))
    assert rings.is_unit(u)
    # e11 is idempotent, not a unit
    assert not rings.is_unit(ring.element((1, 0, 0, 0)))


def test_cap_exceeded_is_loud():
    with pytest.raises(CapExceeded):
        rings.enumerate_elements(rings.zmod_ring(100), 50)
    verdict = rings.is_regular(rings.zmod_ring(100), 50)
    assert verdict.value is None


def test_element_arithmetic():
    ring = rings.zmod_ring(12)
    a, b = ring.element((7,)), ring.element((9,))
    assert (a * b).coords == (3,)
    assert ring.element(ring.one) * a == a or (ring.element(ring.one) * a).coords == a.coords


# ---------------------------------------------------------------------------
# The structural route: regular iff semisimple iff J(R) = 0
# ---------------------------------------------------------------------------


def _regular_by_enumeration(ring):
    """The reference: every element has a quasi-inverse."""
    return all(rings.regularity_witness(x) is not None
               for x in rings.enumerate_elements(ring, CAP))


def _stock_rings():
    out = [rings.zmod_ring(n) for n in range(1, 61)]
    for m in range(2, 7):
        out += [mat2(m), ut2(m)]
    out += [rings.matrix_ring_presentation(3, 2), rings.matrix_ring_presentation(3, 2, True),
            rings.matrix_ring_presentation(3, 3, True)]
    pairs = [(mat2(2), rings.zmod_ring(3)), (mat2(3), rings.zmod_ring(2)),
             (ut2(2), rings.zmod_ring(5)), (mat2(2), ut2(3)), (ut2(2), ut2(3)),
             (mat2(2), mat2(2)), (rings.zmod_ring(6), mat2(5)),
             (rings.matrix_ring_presentation(3, 2), rings.zmod_ring(7))]
    out += [rings.product_ring(a, b) for a, b in pairs]
    return out


def _workspace_modules(path):
    ws = workspace.parse_workspace(os.path.join(ROOT, path))
    members = [mem for corpus in ws.corpora.values() for mem in corpus]
    sums = [modules.direct_sum([mem.module for mem in fam])[0]
            for fam in workspace.same_ring_families(members)]
    return list(ws.modules.values()) + [mem.module for mem in members] + sums


def _end_rings():
    found = []
    for path in ("workspaces/demo.json", "perfbench/workspaces/families.json",
                 "perfbench/workspaces/search.json", "perfbench/workspaces/end-rings.json"):
        found += _workspace_modules(path)
    for seed in (7, 11):
        found += [mem.module for mem in workspace.random_modules(40, seed, Caps())]
    return [homs.end_ring(m) for m in found]


@pytest.fixture(scope="module")
def ring_pool():
    # Rings compare by value, so the dict keeps one presentation of each.
    return list(dict.fromkeys(r for r in _stock_rings() + _end_rings() if r.size() <= CAP))


def test_semisimplicity_equals_regularity_by_enumeration(ring_pool):
    structural = {ring: rings.is_semisimple(ring) for ring in ring_pool}
    mismatches = [(ring.name, ring.size()) for ring in ring_pool
                  if structural[ring] != _regular_by_enumeration(ring)]
    assert mismatches == []
    assert len(ring_pool) > 100 and 20 < sum(structural.values()) < len(ring_pool) - 20


def _quasi_inverses_by_matrices(x):
    """The reference: the rows x*b_j*x read off L_x·R_x."""
    ring = x.ring
    rows = linalg.mat_mod(
        linalg.mat_mul(ring.left_mul_matrix(x.coords), ring.right_mul_matrix(x.coords)),
        ring.moduli,
    )
    return linalg.solve_congruence_system(rows, x.coords, ring.moduli, ring.moduli)


def test_quasi_inverses_equal_the_matrix_product_rows(ring_pool):
    # 32 elements of each ring, drawn with a fixed seed, keep this to seconds
    draw = random.Random(0)
    mismatches = []
    for ring in ring_pool:
        elements = rings.enumerate_elements(ring, CAP)
        for x in draw.sample(elements, min(32, len(elements))):
            if rings._quasi_inverses(x) != _quasi_inverses_by_matrices(x):
                mismatches.append((ring.name, x.coords))
    assert mismatches == []


def test_centre_and_central_idempotents_equal_the_element_search(ring_pool):
    """Z(R) is the set of elements that commute with every basis element,
    and its primitive idempotents are the nonzero central idempotents that
    no other nonzero one lies under."""
    split = 0
    for ring in ring_pool:
        if ring.size() > 512:
            continue
        elements = rings.enumerate_elements(ring, CAP)
        central = {x.coords for x in elements if rings.is_central(x)}
        assert set(linalg.enumerate_subgroup(ring.centre, ring.moduli)) == central, ring.name
        idem = [e for e in elements if e.coords in central and (e * e).coords == e.coords
                and not e.is_zero()]
        want = {e.coords for e in idem
                if not any(f != e and (e * f).coords == f.coords for f in idem)}
        got = rings.primitive_central_idempotents(ring, CAP)
        assert len(got) == len(want) and set(got) == want, ring.name
        split += len(got) > 1
    assert split > 20
    ring = rings.product_ring(rings.zmod_ring(2), rings.zmod_ring(3))
    assert rings.primitive_central_idempotents(ring, 6) == ((1, 0), (0, 1))
    assert rings.primitive_central_idempotents(ring, 5) == ((1, 1),)


def test_centre_equals_the_kernel_of_the_full_commutator_system():
    """Against the k × k² system with every equation (j, s), none dropped,
    on each ring of the demo and benchmark workspaces and the random pool."""
    pool = list(workspace.RANDOM_RING_POOL)
    for path in ("workspaces/demo.json", "perfbench/workspaces/families.json",
                 "perfbench/workspaces/search.json", "perfbench/workspaces/end-rings.json"):
        pool += workspace.parse_workspace(os.path.join(ROOT, path)).rings.values()
    non_commutative = 0
    for ring in dict.fromkeys(pool):
        k = ring.basis_count
        rows = [[ring.mul[i][j][s] - ring.mul[j][i][s] for j in range(k) for s in range(k)]
                for i in range(k)]
        assert ring.centre == linalg.kernel_subgroup(rows, ring.moduli * k, ring.moduli), ring.name
        non_commutative += any(map(any, rows))
    assert len(dict.fromkeys(pool)) >= 30 and non_commutative >= 4


def test_is_central_equals_commuting_with_every_element(ring_pool):
    """``is_central`` reads the basis only; against every product with every
    element, on each pool ring of at most 512 elements (the brute force is
    quadratic in the ring's order)."""
    non_commutative = 0
    for ring in ring_pool:
        if ring.size() > 512:
            continue
        elements = rings.enumerate_elements(ring, CAP)
        central = [all((x * y).coords == (y * x).coords for y in elements) for x in elements]
        assert [rings.is_central(x) for x in elements] == central, ring.name
        non_commutative += not all(central)
    assert non_commutative > 20


def test_regular_ring_over_the_cap_stays_undecided():
    ring = rings.matrix_ring_presentation(3, 2)
    assert rings.is_semisimple(ring)
    verdict = rings.is_regular(ring, 100)
    assert verdict.value is None
    assert "512 ring elements exceeds cap 100" in verdict.reason
    unit = rings.is_unit_regular(ring, 100)
    assert (unit.value, unit.reason) == (None, verdict.reason)


@pytest.mark.parametrize("modulus", [2, 6])
def test_degenerate_trace_form_needs_a_higher_level(modulus):
    # Tr L_x = 2 tr(x) on M_2, so the level-0 ideal is all of M_2(F_2).
    chain = rings.radical_chain(mat2(modulus), 2)
    assert len(chain[0]) == 4
    assert chain[-1] == ()
    assert rings.is_semisimple(mat2(modulus))
    assert rings.is_regular(mat2(modulus), CAP).value is True


def test_structural_and_enumeration_disagreement_is_loud(monkeypatch):
    monkeypatch.setattr(rings, "is_semisimple", lambda ring: False)
    with pytest.raises(InternalInconsistency, match="regularity routes disagree"):
        rings.is_regular.__wrapped__(mat2(2), CAP)


# ---------------------------------------------------------------------------
# Unit-regularity: a finite ring has stable range one
# ---------------------------------------------------------------------------


def _has_unit_witness(x, is_unit):
    """The reference: search the quasi-inverse coset of x for a unit."""
    solved = rings._quasi_inverses(x)
    if solved is None:
        return False
    particular, homogeneous = solved
    return any(is_unit(x.ring.element(linalg.vec_mod([a + b for a, b in zip(particular, h)], x.ring.moduli)))
               for h in linalg.enumerate_subgroup(homogeneous, x.ring.moduli))


def test_unit_regularity_equals_the_per_element_unit_search(ring_pool):
    # Visit the elements the way an enumerating is_unit_regular would: all of
    # them in a unit-regular ring, and up to the first failure otherwise.
    mismatches = []
    for ring in ring_pool:
        is_unit = functools.lru_cache(maxsize=None)(rings.is_unit)
        want = Verdict.yes()
        for x in rings.enumerate_elements(ring, CAP):
            unit = _has_unit_witness(x, is_unit)
            if unit != (rings.regularity_witness(x) is not None):
                mismatches.append((ring.name, x.coords))
            if not unit:
                want = Verdict.no(witness=x, reason="no unit quasi-inverse")
                break
        got = rings.is_unit_regular(ring, CAP)
        assert (got.value, got.witness, got.reason) == (want.value, want.witness, want.reason)
    assert mismatches == []
