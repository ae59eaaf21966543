"""Preorders, incidence algebras, the tuple module, endomorphism comparison."""

import itertools

import pytest

from endolab import homs, incidence, lab, modules, rings
from endolab.rings import validate_ring
from endolab.verdicts import CapExceeded, Caps
from support import is_module_hom

CAPS = Caps()


def diamond():
    return incidence.preorder_from_pairs(
        ["1", "2", "3", "4"],
        [("1", "2"), ("1", "3"), ("1", "4"), ("2", "4"), ("3", "4")],
    )


def chain2():
    return incidence.preorder_from_pairs(["a", "b"], [("a", "b")])


def test_preorder_construction_and_validation():
    d = diamond()
    assert incidence.validate_preorder(d)
    assert d.relation[0][3] and not d.relation[3][0]
    assert not d.relation[1][2]
    assert d.bottom() == 0


def test_reflexive_closure_applied():
    p = incidence.preorder_from_pairs(["x"], [])
    assert p.relation == ((True,),)


def test_non_transitive_rejected():
    with pytest.raises(ValueError):
        incidence.preorder_from_pairs(["1", "2", "3"], [("1", "2"), ("2", "3")])


def test_diamond_algebra_shape():
    bundle = incidence.build_incidence_algebra(diamond(), rings.zmod_ring(2))
    assert len(bundle.pair_index) == 9
    assert bundle.ring.size() == 2 ** 9
    ok, msg = validate_ring(bundle.ring)
    assert ok, msg


def test_chain_algebra_matches_triangular_matrices():
    bundle = incidence.build_incidence_algebra(chain2(), rings.zmod_ring(4))
    assert len(bundle.pair_index) == 3
    ut = rings.matrix_ring_presentation(2, 4, upper_triangular=True)
    assert sorted(bundle.ring.moduli) == sorted(ut.moduli)
    ok, _ = validate_ring(bundle.ring)
    assert ok


def test_single_point_algebra_is_base():
    bundle = incidence.build_incidence_algebra(
        incidence.preorder_from_pairs(["x"], []), rings.zmod_ring(6))
    assert bundle.ring.size() == 6
    assert bundle.ring.moduli == (6,)


def test_noncommutative_base_rejected():
    ut = rings.matrix_ring_presentation(2, 2, upper_triangular=True)
    with pytest.raises(incidence.NonCommutativeBase):
        incidence.build_incidence_algebra(chain2(), ut)


def test_mx_construction():
    z4 = rings.zmod_ring(4)
    bundle = incidence.build_incidence_algebra(chain2(), z4)
    m = modules.regular_module(z4)
    mx = incidence.build_mx(m, bundle)
    assert mx.size() == 16
    ok, msg = modules.validate_module(mx)
    assert ok, msg


def test_unreduced_tables_give_the_reduced_algebra_and_module():
    # validate_ring and validate_module accept constants that are not reduced
    z4 = rings.zmod_ring(4)
    loose_z4 = rings.FiniteRing(moduli=(4,), mul=(((5,),),), one=(1,))
    assert validate_ring(loose_z4)[0]
    tight = incidence.build_incidence_algebra(diamond(), z4)
    loose = incidence.build_incidence_algebra(diamond(), loose_z4)
    assert loose.ring == tight.ring
    m = modules.FiniteModule(ring=z4, moduli=(2,), action=(((1,),),))
    loose_m = modules.FiniteModule(ring=loose_z4, moduli=(2,), action=(((3,),),))
    assert modules.validate_module(loose_m)[0]
    assert incidence.build_mx(loose_m, loose).action == incidence.build_mx(m, tight).action


def test_diagonal_pair_acts_as_idempotent_projection():
    z2 = rings.zmod_ring(2)
    bundle = incidence.build_incidence_algebra(diamond(), z2)
    m = modules.regular_module(z2)
    mx = incidence.build_mx(m, bundle)
    for w in range(4):
        pos = bundle.pair_index.index((w, w))  # Z/2 has one basis element
        coords = tuple(1 if i == pos else 0 for i in range(bundle.ring.basis_count))
        rho = mx.rho(coords)
        sq = tuple(
            tuple(sum(rho[i][k] * rho[k][j] for k in range(len(rho))) % 2
                  for j in range(len(rho)))
            for i in range(len(rho))
        )
        assert sq == rho
        # image is exactly the w-th coordinate copy
        img = [i for i, row in enumerate(rho) if any(row)]
        assert img == [w]


def _incend_check_per_hom(m, bundle, caps=CAPS):
    """Reference: lift every endomorphism of M, collect the images, and
    compare the lift of every composite with the composite of the lifts."""
    if bundle.preorder.bottom() is None:
        raise incidence.NoBottomElement("the preorder has no element below all others")
    if not incidence.is_cyclic(m, caps.elements):
        raise incidence.NotCyclic("the coefficient module is not cyclic")
    mx = incidence.build_mx(m, bundle)
    left, right = homs.hom_group(m, m), homs.hom_group(mx, mx)
    if left.size() > caps.homs or right.size() > caps.homs:
        raise CapExceeded(max(left.size(), right.size()), caps.homs, "endomorphisms")
    nx, rank = len(bundle.preorder.elements), m.rank

    def lift(phi):
        mat = [[0] * (nx * rank) for _ in range(nx * rank)]
        for b, r, c in itertools.product(range(nx), range(rank), range(rank)):
            mat[b * rank + r][b * rank + c] = phi.matrix[r][c]
        return modules.ModuleHom(mx, mx, tuple(tuple(row) for row in mat))

    def report(isomorphic, detail=""):
        return incidence.IsoReport(left.size(), right.size(), isomorphic, detail)

    lifted = [(phi, lift(phi)) for phi in left.iter_homs()]
    if not all(is_module_hom(big) for _, big in lifted):
        return report(False, "lift is not an R-module homomorphism")
    images = {right.coords_of(big) for _, big in lifted}
    if len(images) != left.size():
        return report(False, "lift not injective")
    if len(images) != right.size():
        return report(False, "lift not surjective")
    ident = lift(modules.identity_hom(m))
    if right.coords_of(ident) != right.coords_of(modules.identity_hom(mx)):
        return report(False, "lift not unital")
    for (phi, big_phi), (psi, big_psi) in itertools.product(lifted, repeat=2):
        if lift(psi.then(phi)).matrix != big_psi.then(big_phi).matrix:
            return report(False, "lift not multiplicative")
    return report(True)


def _incend(m, bundle, caps=CAPS):
    """``incend_check``, asserted equal to the per-hom reference, raised
    exceptions included."""
    outcomes = []
    for check in (incidence.incend_check, _incend_check_per_hom):
        try:
            outcomes.append(check(m, bundle, caps))
        except (ValueError, CapExceeded) as exc:
            outcomes.append(exc)
    got, want = outcomes
    observe = lambda o: (type(o), str(o)) if isinstance(o, Exception) else o
    assert observe(got) == observe(want)
    if isinstance(got, Exception):
        raise got
    return got


def test_incend_diamond_z2():
    z2 = rings.zmod_ring(2)
    bundle = incidence.build_incidence_algebra(diamond(), z2)
    report = _incend(modules.regular_module(z2), bundle)
    assert report.isomorphic
    assert report.left_size == report.right_size == 2


def test_incend_chain_z4():
    z4 = rings.zmod_ring(4)
    bundle = incidence.build_incidence_algebra(chain2(), z4)
    report = _incend(modules.regular_module(z4), bundle)
    assert report.isomorphic
    assert report.left_size == report.right_size == 4


def test_incend_single_point():
    z6 = rings.zmod_ring(6)
    bundle = incidence.build_incidence_algebra(
        incidence.preorder_from_pairs(["x"], []), z6)
    report = _incend(modules.regular_module(z6), bundle)
    assert report.isomorphic
    assert report.left_size == 6


def test_incend_requires_bottom_and_cyclic():
    z2 = rings.zmod_ring(2)
    nobot = incidence.preorder_from_pairs(["1", "2"], [])
    bundle = incidence.build_incidence_algebra(nobot, z2)
    with pytest.raises(incidence.NoBottomElement):
        _incend(modules.regular_module(z2), bundle)
    d = incidence.build_incidence_algebra(diamond(), z2)
    v4, _, _ = modules.direct_sum([modules.regular_module(z2)] * 2)
    with pytest.raises(incidence.NotCyclic):
        _incend(v4, d)


def test_abelian_endoregular_transfer():
    # the property transfers between M over A and M(X) over I(X, A)
    cases = [
        (rings.zmod_ring(2), diamond()),
        (rings.zmod_ring(4), chain2()),
        (rings.zmod_ring(6), chain2()),
    ]
    for base, poset in cases:
        bundle = incidence.build_incidence_algebra(poset, base)
        m = modules.regular_module(base)
        assert _incend(m, bundle).isomorphic
        mx = incidence.build_mx(m, bundle)
        left = lab.is_abelian_endoregular(m, CAPS)
        right = lab.is_abelian_endoregular(mx, CAPS)
        assert left.decided and right.decided
        assert left.value == right.value


def test_incend_with_its_guards_waived(monkeypatch):
    """Past the bottom-element and cyclicity guards both routes still agree:
    over an antichain End(M(X)) outgrows End(M), while Z/2 ⊕ Z/2 over a
    chain lifts isomorphically.  Past the hom cap both raise."""
    z2 = rings.zmod_ring(2)
    antichain = incidence.build_incidence_algebra(
        incidence.preorder_from_pairs(["1", "2"], []), z2)
    monkeypatch.setattr(incidence.Preorder, "bottom", lambda self: 0)
    assert _incend(modules.regular_module(z2), antichain) == incidence.IsoReport(
        2, 4, False, "lift not surjective")
    monkeypatch.setattr(incidence, "is_cyclic", lambda m, cap: True)
    v4, _, _ = modules.direct_sum([modules.regular_module(z2)] * 2)
    assert _incend(v4, incidence.build_incidence_algebra(chain2(), z2)).isomorphic
    with pytest.raises(CapExceeded):
        _incend(v4, incidence.build_incidence_algebra(diamond(), z2), Caps(homs=8))
