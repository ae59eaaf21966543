"""Standing mutation checks: each case breaks one fast route on purpose and
asserts that something notices.

A case monkeypatches one route, first confirms that the detector is quiet
on the unbroken code, and then asserts one of two outcomes under the break:
a named test-local reference disagrees with the library, or
``theorem_suites`` records a fail raised as ``InternalInconsistency``.  If a
later change weakens a cross-check so that a break goes unnoticed, its case
fails.  A fast path added, or a route removed, adds its case here.  Every
patch drops the cached hom groups and submodule lattices (``FreshTables``),
so no sweep table or lattice table filled by an unbroken run hides a break.
"""

import functools
import itertools
import math

import pytest

from endolab import homs, incidence, lab, linalg, modules, rings
from endolab.verdicts import Caps, Verdict, implies, undecided_on_cap
from support import is_module_hom
from test_homs import (
    _hom_system_by_columns, _orbit_walk_to_the_end, _summand_disagreements,
    _summand_oracle_modules)
from test_incidence import _incend
from test_linalg import (
    KERNEL_SYSTEM_CASES, UNIT_AFTER_A_TWO, _ReferenceSystem, _smith_reference,
    _stacked_on_diagonal, _structure_reference, _system_outcome)
from test_lab import (
    PRIMARY_LOCAL, _azumaya_per_element, _distributive_boolean_eager, _first_failure,
    _fully_invariant_submodules, _irregular_on, _irregular_orbit, _k_nonsingular_per_hom,
    _memoized, _observable, _polyform_per_hom, _prime_in_eager, _prime_quotients_eager,
    _sip_all_pairs, _ssp_all_pairs, _unit_converses_both_ways, e1R_plus_top, plane, reg, sum_2_3)
from test_modules import (
    _generated_by_closure, _generator_lists, _maximal_and_radical_by_all_pairs,
    _maximal_socle_radical_by_scans, _submodules_by_sum_closure)

CAPS = Caps()


def _drop_tables():
    """Forget every cached hom group, End ring and submodule lattice, and
    with them every sweep table and every table kept on a lattice."""
    homs.hom_group.cache_clear()
    homs.end_ring.cache_clear()
    modules.enumerate_submodules.cache_clear()


class FreshTables(pytest.MonkeyPatch):
    """A monkeypatch that drops every hom group and submodule lattice as
    each patch starts and once the patches are undone, so that no table
    filled on one side of a patch is read on the other: a broken route
    cannot read what the unbroken run found, nor leave what it found to the
    next run."""

    def setattr(self, *args, **kwargs):
        _drop_tables()
        super().setattr(*args, **kwargs)

    def undo(self):
        super().undo()
        _drop_tables()


@pytest.fixture
def monkeypatch():
    """Every case here patches through ``FreshTables``."""
    patches = FreshTables()
    yield patches
    patches.undo()


@pytest.fixture
def unmemoized(monkeypatch):
    """Every memoized route of ``lab`` and ``rings`` computes afresh, so no
    answer from another test hides a break, and no broken answer is kept."""
    for namespace in (lab, rings):
        for f in _memoized(namespace):
            monkeypatch.setattr(namespace, f.__name__, f.__wrapped__)
    return monkeypatch


def _inconsistencies(m):
    """The fails ``theorem_suites`` records for an ``InternalInconsistency``
    on m; a check's own false verdict is rendered as "false ..."."""
    report = lab.theorem_suites([lab.CorpusMember("probe", m)], CAPS)
    return [r for r in report.records if r.status == "fail" and not r.detail.startswith("false")]


def test_a_non_unit_in_the_orbit_unit_list(unmemoized):
    """With 2 counted as a unit, the sweeps of End(Z/4) skip the hom 2,
    whose kernel is no summand, and the summand route says yes."""
    m = reg(4)
    assert _inconsistencies(m) == []
    unmemoized.setattr(homs, "gcd", lambda a, b: 1 if a == 2 else math.gcd(a, b))
    assert _inconsistencies(m)


@undecided_on_cap
def _central_idempotents_by_elements(m, caps):
    """Reference: each idempotent of End(M) against every element."""
    ring = homs.end_ring(m)
    elements = rings.enumerate_elements(ring, caps.homs)
    for e in rings.idempotents(ring, caps.homs):
        if any((e * x).coords != (x * e).coords for x in elements):
            return Verdict.no(witness=e, reason="non-central idempotent in End")
    return Verdict.yes()


def test_is_central_on_the_first_basis_element_only(unmemoized):
    """On End(Z/2 ⊕ Z/2) = M2(F2) the first non-central idempotent commutes
    with the first basis element, so the witness moves."""
    m = plane()

    def first_basis_only(x):
        ring = x.ring
        b0 = tuple(1 if t == 0 else 0 for t in range(ring.basis_count))
        return ring.mul_coords(x.coords, b0) == ring.mul_coords(b0, x.coords)

    want = _observable(_central_idempotents_by_elements(m, CAPS))
    assert _observable(lab.idempotents_central_in_end(m, CAPS)) == want
    unmemoized.setattr(rings, "is_central", first_basis_only)
    assert _observable(lab.idempotents_central_in_end(m, CAPS)) != want


def _odometer_without_wrap_around(self):
    """``HomGroup._odometer`` with no add when a coordinate wraps to 0, so
    the matrices stop matching the coordinates they stand for."""
    moduli = self.codomain.moduli * self.domain.rank
    flat_gens = [[v for row in g.matrix for v in row] for g in self.gens]
    coords = [0] * len(self.orders)
    flat = (0,) * len(moduli)
    while True:
        yield flat
        i = len(self.orders) - 1
        while i >= 0:
            coords[i] += 1
            if coords[i] < self.orders[i]:
                flat = tuple((a + b) % d for a, b, d in zip(flat, flat_gens[i], moduli))
                break
            coords[i] = 0
            i -= 1
        if i < 0:
            return


def test_the_odometer_wrap_around_dropped(unmemoized):
    """End(Z/2 ⊕ Z/4) over Z/4 has orders (2, 2, 2, 4), and Z/2 ⊕ Z/4 is no
    square, so ``_irregular_orbit`` is a unit orbit.  With the unit orbit of
    an idempotent made irregular, the orbit sweep must report the
    orbit's first member in ``iter_homs`` order, as the per-element loop
    does.  Without the wrap-around add the walk still meets every hom here,
    but in another order, so for some orbit of two homs it meets the
    second one first."""
    z4 = reg(4)
    z2, _ = modules.quotient(z4, modules.submodule_generated(z4, [(2,)]))
    m, _, _ = modules.direct_sum([z2, z4])
    ring = homs.end_ring(m)
    moved = 0
    for e in rings.idempotents(ring, CAPS.homs):
        orbit = _irregular_orbit(m, e.coords)
        if len(orbit) < 2:
            continue
        with FreshTables.context() as injected:
            injected.setattr(rings, "regularity_witness", _irregular_on(ring, orbit))
            want = _observable(_azumaya_per_element(m, CAPS))
            assert want[0] is False
            assert _observable(lab.azumaya_agreement(m, CAPS)) == want
            injected.setattr(homs.HomGroup, "_odometer", _odometer_without_wrap_around)
            moved += _observable(lab.azumaya_agreement(m, CAPS)) != want
    assert moved


def test_radical_chain_stopped_after_level_zero(unmemoized):
    """The trace form of M2(F2) vanishes, so I_0 is the whole ring while
    J = 0: the radical route calls End(Z/2 ⊕ Z/2) non-regular, and the
    element search finds no element without a quasi-inverse."""
    m = plane()
    assert _inconsistencies(m) == []
    chain = rings.radical_chain
    unmemoized.setattr(rings, "radical_chain", lambda ring, p: chain(ring, p)[:1])
    assert _inconsistencies(m)


def _closure_disagreements(m):
    return [elems for elems in _generator_lists(m)
            if modules.submodule_generated(m, elems) != _generated_by_closure(m, elems)]


def test_submodule_generated_through_the_first_action_only(monkeypatch):
    """The first basis element of M2(F2) is the matrix unit E_11, so x·E_11
    misses most of xR, and often x itself."""
    m = modules.regular_module(rings.matrix_ring_presentation(2, 2))
    assert _closure_disagreements(m) == []

    def first_action_only(m, elems):
        rows = [linalg.vec_mat(x, m.action[0]) for x in elems]
        return modules.Submodule(m, linalg.subgroup_canonical_form(rows, m.moduli))

    monkeypatch.setattr(modules, "submodule_generated", first_action_only)
    assert _closure_disagreements(m)


def test_socle_keeps_its_first_minimal_submodule_only(unmemoized):
    """The socle of Z/2 ⊕ Z/2 is the whole plane.  Cut to its first line, a
    nonzero endomorphism that kills that line looks like one with an
    essential kernel, so the plane no longer looks K-nonsingular."""
    m = plane()
    want = _observable(_k_nonsingular_per_hom(m, CAPS))
    assert want[0] is True
    assert _observable(lab.is_k_nonsingular(m, CAPS)) == want

    def first_minimal_only(m, cap):
        nonzero = [s for s in modules.enumerate_submodules(m, cap) if not s.is_zero()]
        minimal = (s for s in nonzero if not any(t != s and s.contains_sub(t) for t in nonzero))
        return next(minimal, modules.zero_submodule(m))

    for namespace in (modules, lab):
        unmemoized.setattr(namespace, "socle", first_minimal_only)
    assert _observable(lab.is_k_nonsingular(m, CAPS)) != want


def test_incend_check_without_its_order_comparison(monkeypatch):
    """Over an antichain, with its bottom-element guard waived, End(M(X)) has
    order 4 and End(M) order 2.  Told that every lift is onto, the check
    calls them isomorphic, and the per-hom reference does not."""
    z2 = rings.zmod_ring(2)
    antichain = incidence.build_incidence_algebra(
        incidence.preorder_from_pairs(["1", "2"], []), z2)
    monkeypatch.setattr(incidence.Preorder, "bottom", lambda self: 0)
    m = modules.regular_module(z2)
    assert not _incend(m, antichain).isomorphic
    check = incidence.incend_check

    def always_isomorphic(m, bundle, caps=CAPS):
        report = check(m, bundle, caps)
        return incidence.IsoReport(report.left_size, report.right_size, True)

    monkeypatch.setattr(incidence, "incend_check", always_isomorphic)
    with pytest.raises(AssertionError):
        _incend(m, antichain)


def _flipped(v):
    return Verdict.no(reason="flipped") if v.value else Verdict.yes()


def test_the_summand_route_flipped_on_one_module(unmemoized):
    """Z/6 is endoregular; told otherwise by the summand route alone, the
    ring route and ``is_endoregular`` disagree."""
    m = reg(6)
    assert _inconsistencies(m) == []
    route = lab._endoregular_via_summands
    unmemoized.setattr(lab, "_endoregular_via_summands",
                       lambda n, caps: _flipped(route(n, caps)) if n == m else route(n, caps))
    assert _inconsistencies(m)


def test_is_semisimple_flipped_on_one_module(unmemoized):
    """End(Z/4) = Z/4 has radical 2Z/4.  Called semisimple, it is regular by
    the ring route while 2 has a kernel that is no summand."""
    m = reg(4)
    assert _inconsistencies(m) == []
    end = homs.end_ring(m)
    semisimple = rings.is_semisimple
    unmemoized.setattr(rings, "is_semisimple",
                       lambda ring: not semisimple(ring) if ring == end else semisimple(ring))
    assert _inconsistencies(m)


def _lattice_disagrees(m):
    """The library's submodules of m, computed afresh, differ from the sum
    closure over all of m."""
    got = modules.enumerate_submodules.__wrapped__(m, CAPS.submodules)
    return got != _submodules_by_sum_closure(m, CAPS.submodules)


def test_a_non_central_idempotent_accepted_as_central(monkeypatch):
    """E_11 of M2(F2) is idempotent but not central.  M·E_11 is then a left
    ideal, not a submodule, and the sum closures of M·E_11 and M·E_22 each
    reach all of M, so their sums repeat submodules."""
    ring = rings.matrix_ring_presentation(2, 2)
    m = modules.regular_module(ring)
    assert not _lattice_disagrees(m)
    primitive = rings.primitive_central_idempotents
    e11, e22 = (1, 0, 0, 0), (0, 0, 0, 1)
    monkeypatch.setattr(rings, "primitive_central_idempotents",
                        lambda r, cap: (e11, e22) if r == ring else primitive(r, cap))
    assert _lattice_disagrees(m)


def test_the_last_central_piece_dropped(monkeypatch):
    """Z/6 splits into the pieces 3Z/6 and 2Z/6; without the last one, only
    the submodules of the first are found."""
    m = reg(6)
    assert not _lattice_disagrees(m)
    pieces = modules.central_pieces
    monkeypatch.setattr(modules, "central_pieces", lambda m, cap: pieces(m, cap)[:-1])
    assert _lattice_disagrees(m)


def test_the_closure_skips_every_element_inside_a_found_submodule(monkeypatch):
    """The plane walks (0, 1) and (1, 0) first, and their sum is the whole
    plane.  Skipping each later element that lies in a submodule already
    found, instead of each whose cyclic submodule was found, loses the line
    generated by (1, 1)."""
    m = plane()
    assert not _lattice_disagrees(m)

    def skip_inside_any(m, piece):
        zero = modules.zero_submodule(m)
        seen = {zero.gens: zero}
        for x in m.elements() if piece.is_full() else piece.elements():
            if any(s.contains(x) for s in seen.values()):
                continue
            cyclic = modules.submodule_generated(m, [x])
            for a in list(seen.values()):
                s = modules.submodule_sum(a, cyclic)
                seen.setdefault(s.gens, s)
        return list(seen.values())

    monkeypatch.setattr(modules, "_sum_closure", skip_inside_any)
    assert _lattice_disagrees(m)


def _maximal_disagrees(m):
    """The library's maximal submodules or radical of m differ from the
    all-pairs scan."""
    got = modules.maximal_submodules(m, CAPS.submodules), modules.radical(m, CAPS.submodules)
    return got != _maximal_and_radical_by_all_pairs(m)


def test_the_maximal_scan_against_the_next_submodule_only(monkeypatch):
    """In Z/12 the line 6Z/12 lies in 2Z/12 but not in 4Z/12, the submodule
    after it in sorted order; tested against that one alone, it looks
    maximal."""
    m = reg(12)
    assert not _maximal_disagrees(m)

    def next_only(subs):
        return [s for s, t in zip(subs, [*subs[1:], None]) if t is None or not t.contains_sub(s)]

    monkeypatch.setattr(modules, "maximal_members", next_only)
    assert _maximal_disagrees(m)


def _lattice_tables_disagree(m):
    """The maximal submodules, socle or radical that the library reads off
    the lattice of m differ from the scans."""
    cap = CAPS.submodules
    got = modules.maximal_submodules(m, cap), modules.socle(m, cap), modules.radical(m, cap)
    return got != _maximal_socle_radical_by_scans(m, cap)


def _radical_without_the_last_maximal(lattice):
    """``SubmoduleLattice.radical`` as the meet of every maximal submodule
    but the last."""
    return functools.reduce(modules.submodule_intersect, lattice.maximal[:-1],
                            modules.full_submodule(lattice.ambient))


def test_the_radical_without_the_last_maximal_submodule(monkeypatch):
    """Z/6 has the maximal submodules 2Z/6 and 3Z/6, which meet in 0; without
    the last one the radical is 2Z/6."""
    m = reg(6)
    assert not _lattice_tables_disagree(m)
    monkeypatch.setattr(modules.SubmoduleLattice, "radical",
                        property(_radical_without_the_last_maximal))
    assert _lattice_tables_disagree(m)


def _socle_of_the_maximal_members(lattice):
    """``SubmoduleLattice.socle`` summing the maximal submodules in place of
    the minimal ones."""
    rows = [g for s in lattice.maximal for g in s.gens]
    return modules.Submodule(lattice.ambient,
                             linalg.subgroup_canonical_form(rows, lattice.ambient.moduli))


def test_the_socle_from_the_maximal_submodules(monkeypatch):
    """In Z/12 the minimal submodules 6Z/12 and 4Z/12 sum to 2Z/12, but the
    maximal ones, 2Z/12 and 3Z/12, sum to all of Z/12."""
    m = reg(12)
    assert not _lattice_tables_disagree(m)
    monkeypatch.setattr(modules.SubmoduleLattice, "socle", property(_socle_of_the_maximal_members))
    assert _lattice_tables_disagree(m)


def _first_failing_disagrees(g):
    got = g.first_failing(lambda f: lab._both_summands(*homs.kernel_and_image(f)))
    return got != _first_failure(g, lab._both_summands)


def test_a_primary_part_dropped(monkeypatch):
    """End(Z/18) = Z/2 × Z/9 fails only on its 3-part: the hom 3 has a
    kernel that is no summand.  Without that part the sweep finds nothing."""
    g = homs.hom_group(reg(18), reg(18))
    assert not _first_failing_disagrees(g)
    parts = homs.HomGroup.primary_parts
    monkeypatch.setattr(homs.HomGroup, "primary_parts",
                        lambda self: parts(self)[:-1] if len(parts(self)) > 1 else parts(self))
    assert _first_failing_disagrees(g)


def _irregular_at(m, matrix):
    """``rings.regularity_witness`` with the endomorphism of m of the given
    matrix made irregular, with its orbit, by ``_irregular_on``."""
    ring = homs.end_ring(m)
    e = ring.element(homs.hom_group(m, m).coords_of(modules.ModuleHom(m, m, matrix)))
    return _irregular_on(ring, _irregular_orbit(m, e.coords))


def test_the_azumaya_sweep_drops_the_last_primary_part(unmemoized):
    """In End((Z/2 ⊕ Z/3)²) the idempotent that is the identity on the second
    Z/3 and 0 elsewhere lies in the 3-part, the last one.  Made irregular
    with its orbit, the first disagreement is a hom whose 3-part is in that
    orbit; without the 3-part the sweep finds none.  End = M2(F2) × M2(F3)
    has the orders (6, 6, 6, 6)."""
    m, _, _ = modules.direct_sum([sum_2_3(), sum_2_3()])
    assert m.moduli == (2, 3, 2, 3)
    e3 = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1))
    unmemoized.setattr(rings, "regularity_witness", _irregular_at(m, e3))
    want = _observable(_azumaya_per_element(m, CAPS))
    assert want[0] is False
    assert _observable(lab.azumaya_agreement(m, CAPS)) == want
    parts = homs.HomGroup.primary_parts
    unmemoized.setattr(homs.HomGroup, "primary_parts",
                       lambda self: parts(self)[:-1] if len(parts(self)) > 1 else parts(self))
    assert _observable(lab.azumaya_agreement(m, CAPS)) != want


def _transposes(m, two_sided):
    """The flat-index permutation F -> Fᵀ of End(m), which is no P·F·Q."""
    n = m.rank
    return [tuple(c * n + r for r in range(n) for c in range(n))]


def test_the_azumaya_sweep_given_the_transpose(unmemoized):
    """On Z/2 ⊕ Z/2, with the idempotent [[1, 0], [1, 0]] made irregular
    together with its block-permutation image [[0, 1], [0, 1]], the first
    disagreement is [[0, 1], [0, 1]].  Swept by transposes, that hom is in
    the orbit of [[0, 0], [1, 1]], which comes first and is regular, so the
    sweep reports [[1, 0], [1, 0]] instead."""
    m = plane()
    unmemoized.setattr(rings, "regularity_witness", _irregular_at(m, ((1, 0), (1, 0))))
    want = _observable(_azumaya_per_element(m, CAPS))
    assert want[0] is False
    assert _observable(lab.azumaya_agreement(m, CAPS)) == want
    unmemoized.setattr(lab, "block_permutations", _transposes)
    assert _observable(lab.azumaya_agreement(m, CAPS)) != want


def _first_failing_without_the_fallback(self, pred, perms=()):
    """``HomGroup.first_failing`` returning the failing part's own hom, with
    no sweep of the whole group."""
    for part in self.primary_parts():
        for f in part.iter_orbit_representatives(perms):
            if not pred(f):
                return f
    return None


def test_the_fallback_sweep_returns_the_part_hom(monkeypatch):
    """In End(Z/12) the first failing hom is 2, but the first failing orbit
    representative of the 2-part, whose homs are 0, 3, 6 and 9, is 6."""
    g = homs.hom_group(reg(12), reg(12))
    assert not _first_failing_disagrees(g)
    monkeypatch.setattr(homs.HomGroup, "first_failing", _first_failing_without_the_fallback)
    assert _first_failing_disagrees(g)


def _product_keyed_by_one_index(self, i, j):
    """``ProductTable._product`` with its products kept under the first
    index only, so K_M L is read back for every later L."""
    if i not in self._products:
        if i not in self._images:
            self._images[i] = lab.product_images(self.fi[i])
        self._products[i] = lab.product_from_images(self._images[i], self.fi[j])
    return self._products[i]


def _prime_disagreements(m):
    return [n for n in _fully_invariant_submodules(m, CAPS) if not n.is_full()
            and _observable(lab.is_prime_in(n, CAPS)) != _observable(_prime_in_eager(n, CAPS))]


def test_the_product_table_keyed_by_one_index(monkeypatch):
    """In Z/4 the zero submodule is not prime: (2Z/4)_M (2Z/4) = 0.  Keyed by
    its first index, that pair reads back (2Z/4)_M Z/4 = 2Z/4, and zero
    looks prime."""
    m = reg(4)
    assert _prime_disagreements(m) == []
    monkeypatch.setattr(lab.ProductTable, "_product", _product_keyed_by_one_index)
    assert _prime_disagreements(m)


def _product_from_the_images_of_j(self, i, j):
    """``ProductTable._product`` reading the pair (i, j) from row j's
    images, so it computes K_j M K_j in place of K_i M K_j."""
    if (i, j) not in self._products:
        if j not in self._images:
            self._images[j] = lab.product_images(self.fi[j])
        self._products[i, j] = lab.product_from_images(self._images[j], self.fi[j])
    return self._products[i, j]


@undecided_on_cap
def _prime_quotients_reading_the_table_of_m(m, caps):
    """``check_prime_quotients`` reading M's product table, and so M's zero,
    for every quotient M/N, which tests 0 in M in place of 0 in M/N."""
    table = lab.ProductTable.of(m, caps)
    tests = (lab.ProductTable.prime_failure, lab.ProductTable.semiprime_failure)
    for n in table.fi:
        if n.is_full():
            continue
        holding = [test for test in tests if test(table, n) is None]
        for test in holding:
            witness = test(table, modules.zero_submodule(m))
            if witness is not None:
                return Verdict.no(witness=(n, witness), reason="quotient loses primeness")
    return Verdict.yes()


def test_the_prime_quotients_read_the_table_of_m(monkeypatch):
    """In Z/4 the submodule 2Z/4 is prime and Z/4 / 2Z/4 = Z/2 is prime, but
    0 is not prime in Z/4 itself: (2Z/4)_M (2Z/4) = 0."""
    m = reg(4)
    want = _observable(_prime_quotients_eager(m, CAPS))
    assert want[0] is True
    assert _observable(lab.check_prime_quotients(m, CAPS)) == want
    monkeypatch.setattr(lab, "check_prime_quotients", _prime_quotients_reading_the_table_of_m)
    assert _observable(lab.check_prime_quotients(m, CAPS)) != want


def test_the_product_table_reads_the_images_of_the_second_factor(monkeypatch):
    """In Z/4 the first pair outside zero with product inside is
    (2Z/4, 2Z/4).  Read from the second factor's images, (Z/4, 2Z/4)
    already gives (2Z/4)_M (2Z/4) = 0, and the witness moves."""
    m = reg(4)
    assert _prime_disagreements(m) == []
    monkeypatch.setattr(lab.ProductTable, "_product", _product_from_the_images_of_j)
    assert _prime_disagreements(m)


@undecided_on_cap
def _polyform_keyed_on_the_additive_type(m, caps=Caps()):
    """``is_polyform`` skipping a K whose extracted module has the additive
    type of an earlier one, though its action may differ."""
    scanned = set()
    for k_sub in modules.enumerate_submodules(m, caps.submodules):
        if k_sub.is_zero():
            continue
        inner, _ = modules.extract(k_sub)
        if inner.moduli in scanned:
            continue
        scanned.add(inner.moduli)
        hg = homs.hom_group(inner, m)
        if hg.size() > caps.homs:
            return Verdict.undecided(f"|Hom(K, M)| = {hg.size()} exceeds hom cap {caps.homs}")
        f = lab.first_essential_kernel_hom(hg, caps.submodules)
        if f is not None:
            return Verdict.no(
                witness=(k_sub, f), reason="partial homomorphism with essential kernel")
    return Verdict.yes()


def test_polyform_keyed_on_the_additive_type(monkeypatch):
    """In e1R ⊕ S, S the top of e1R, the semisimple submodule Soc ⊕ S of
    type (2, 2) passes first; keyed on that type, e1R is skipped, and the
    first failing K moves to the whole module."""
    m = e1R_plus_top()
    want = _observable(_polyform_per_hom(m, CAPS))
    assert want[0] is False
    assert _observable(lab.is_polyform(m, CAPS)) == want
    monkeypatch.setattr(lab, "is_polyform", _polyform_keyed_on_the_additive_type)
    assert _observable(lab.is_polyform(m, CAPS)) != want


def test_the_triple_filter_also_skips_disjoint_pairs(monkeypatch):
    """Any two distinct lines of Z/2 ⊕ Z/2 meet in 0, so every triple of
    lines, the only triples where distributivity can fail, is skipped, and
    the plane's summand lattice looks Boolean."""
    m = plane()
    want = _observable(_distributive_boolean_eager(m, CAPS))
    assert want[0] is False
    assert _observable(lab.is_distributive_boolean(m, CAPS)) == want
    triples = lab.SummandLattice.incomparable_triples

    def skipping_disjoint(self):
        return ((i, j, k) for i, j, k in triples(self) if not self.meet(j, k).is_zero())

    monkeypatch.setattr(lab.SummandLattice, "incomparable_triples", skipping_disjoint)
    assert _observable(lab.is_distributive_boolean(m, CAPS)) != want


def _intersecting_pairs(self):
    """``SummandLattice.incomparable_pairs`` skipping the pairs that meet in
    0 instead of the comparable ones."""
    pairs = itertools.combinations(range(len(self.summands)), 2)
    return ((i, j) for i, j in pairs if not self.meet(i, j).is_zero())


def test_ssp_skips_disjoint_pairs_instead_of_comparable_ones(monkeypatch):
    """In UT2(F2) the summands e22·R and (e12 + e22)·R meet in 0, and their
    sum, the second column, is no summand; with disjoint pairs skipped, the
    regular module looks SSP."""
    m = modules.regular_module(rings.matrix_ring_presentation(2, 2, upper_triangular=True))
    want = _observable(_ssp_all_pairs(m, CAPS))
    assert want[0] is False
    assert _observable(lab.has_ssp(m, CAPS)) == want
    monkeypatch.setattr(lab.SummandLattice, "incomparable_pairs", _intersecting_pairs)
    assert _observable(lab.has_ssp(m, CAPS)) != want


def _route_disagrees(name, m):
    """The library route of a Ker/Im predicate on m, read from ``lab`` so
    that ``unmemoized`` reaches it, differs from the plain sweep of End(m)
    in ``iter_homs`` order."""
    _, predicate, route, reason, _ = next(case for case in PRIMARY_LOCAL if case[0] == name)
    f = _first_failure(lab.end_homs(m, CAPS.homs), predicate)
    want = Verdict.yes() if f is None else Verdict.no(witness=f, reason=reason)
    return _observable(getattr(lab, route.__name__)(m, CAPS)) != _observable(want)


def _block_power_without_the_equal_block_check(m):
    """``homs.block_power`` checking the period of the moduli and that every
    action matrix is block-diagonal, but not that the blocks are equal."""
    n = m.rank
    for k in range(n, 1, -1):
        b = n // k
        if n % k or m.moduli != m.moduli[:b] * k:
            continue
        if all(mat[i][j] == 0 for mat in m.action
               for i in range(n) for j in range(n) if i // b != j // b):
            return k
    return 1


def test_block_power_without_the_equal_block_check(unmemoized):
    """D ⊕ F2 ⊕ F2 over the dual numbers D = F2[x]/(x²), with x acting as 0
    on each F2, has the moduli (2, 2, 2, 2) and a block-diagonal action, but
    x acts as a nonzero nilpotent on the first block only.  Taken for D²,
    swapping the blocks looks like an automorphism, orbits that differ
    merge, and the sweep misses the first hom whose kernel or image is no
    summand."""
    ring = rings.FiniteRing(moduli=(2, 2), mul=(((1, 0), (0, 1)), ((0, 1), (0, 0))), one=(1, 0))
    dual = modules.regular_module(ring)
    simple, _ = modules.quotient(dual, modules.submodule_generated(dual, [(0, 1)]))
    m, _, _ = modules.direct_sum([dual, simple, simple])
    assert homs.block_power(m) == 1
    assert not _route_disagrees("summands", m)
    unmemoized.setattr(homs, "block_power", _block_power_without_the_equal_block_check)
    assert _route_disagrees("summands", m)


def test_the_two_sided_group_for_ker_im_complementary(unmemoized):
    """On Z/2 ⊕ Z/2, diag(1, 0) has Ker ⊕ Im = M, but its row swap
    [[0, 0], [1, 0]] has Ker = Im.  Both lie in one two-sided orbit, so
    swept by that orbit the first failure moves."""
    m = plane()
    assert not _route_disagrees("complementary", m)
    block_permutations = homs.block_permutations
    unmemoized.setattr(lab, "block_permutations", lambda m, two_sided: block_permutations(m, True))
    assert _route_disagrees("complementary", m)


def test_ker_im_complementary_by_orders_alone(unmemoized):
    """For an endomorphism |Ker|·|Im| = |M| always, so the order product
    alone says yes everywhere.  On Z/2 ⊕ Z/2 the Ker/Im route then says yes
    while End(M) = M2(F2) has a non-central idempotent, and the suite
    records the route disagreement."""
    m = plane()
    assert _inconsistencies(m) == []
    unmemoized.setattr(lab, "_ker_im_complementary",
                       lambda ker, im: ker.order() * im.order() == ker.ambient.size())
    assert _inconsistencies(m)


def _unit_converses_with_no_hypothesis(m, caps):
    """``check_unit_converses`` as if no converse hypothesis ever held."""
    return implies(lab.is_unit_endoregular(m, caps),
                   lambda: Verdict.yes(reason="vacuous: no converse hypothesis holds"))


def test_unit_converses_with_no_hypothesis(unmemoized):
    """Z/6 is unit endoregular and both converse hypotheses hold there, so
    the reference passes with the reason "", where the broken check passes
    vacuously."""
    m = reg(6)
    got, want = _unit_converses_both_ways(m, CAPS)
    assert got == want == (True, "", None)
    unmemoized.setattr(lab, "check_unit_converses", _unit_converses_with_no_hypothesis)
    got, want = _unit_converses_both_ways(m, CAPS)
    assert got != want and got[1].startswith("vacuous: "), got


class _WalksKeyedWithoutThePermutations(dict):
    """``HomGroup._walks`` keeping one table entry for every permutation
    group, so a sweep reads the representatives of whichever group walked
    first."""

    def get(self, perms, default=None):
        return super().get((), default)

    def __setitem__(self, perms, walk):
        super().__setitem__((), walk)


def test_the_sweep_table_keyed_without_the_permutation_group(unmemoized):
    """The summand route sweeps End(Z/2 ⊕ Z/2) by two-sided block
    permutations and finds no failure.  The complementary route, sweeping
    next, then reads those representatives, in which [[0, 0], [1, 0]], the
    first hom with Ker = Im, lies in the orbit of diag(0, 1), met first
    and with Ker ⊕ Im = M, so the first failure moves."""
    m = plane()
    assert lab._endoregular_via_summands(m, CAPS).value is True
    assert not _route_disagrees("complementary", m)
    walks = functools.cached_property(lambda self: _WalksKeyedWithoutThePermutations())
    walks.__set_name__(homs.HomGroup, "_walks")
    unmemoized.setattr(homs.HomGroup, "_walks", walks)
    assert lab._endoregular_via_summands(m, CAPS).value is True
    assert _route_disagrees("complementary", m)


def _ker_im_keyed_by_the_first_row(self, f):
    """``HomGroup.kernel_and_image`` keeping (Ker, Im) under the first row of
    the matrix only, so another hom's pair is served for every later hom
    with the same first row."""
    ker_im = self._ker_im.get(f.matrix[0])
    if ker_im is None:
        ker_im = self._ker_im[f.matrix[0]] = homs.kernel_and_image(f)
    return ker_im


def test_another_homs_ker_im_served_from_the_table(unmemoized):
    """On Z/2 ⊕ Z/2 the zero hom, read first, has Ker = M and Im = 0, which
    are complementary, and [[0, 0], [1, 0]], with Ker = Im, shares its first
    row, so the first hom with M != Ker ⊕ Im moves."""
    m = plane()
    assert not _route_disagrees("complementary", m)
    unmemoized.setattr(homs.HomGroup, "kernel_and_image", _ker_im_keyed_by_the_first_row)
    assert _route_disagrees("complementary", m)


def test_the_summand_test_of_the_whole_module_answered_none(unmemoized):
    """Told that Z/6 is no summand of itself, the zero endomorphism, whose
    kernel is Z/6, looks like one without summand kernel and image, though
    End(Z/6) is regular: the two endoregular routes disagree."""
    m = reg(6)
    assert _inconsistencies(m) == []
    summand_test = homs.summand_test
    unmemoized.setattr(lab, "summand_test", lambda n: None if n.is_full() else summand_test(n))
    assert _inconsistencies(m)


def test_every_submodule_a_summand_counted_against_the_summands(monkeypatch):
    """With the summand count compared with itself, SSP and SIP answer yes
    at once everywhere.  In the regular module of UT2(F2) the sum of the
    summands e22·R and (e12 + e22)·R is no summand; in Z/4 ⊕ Z/2 over Z/4
    two summands meet in a submodule that is no summand."""
    ut2 = modules.regular_module(rings.matrix_ring_presentation(2, 2, upper_triangular=True))
    z4 = reg(4)
    z2, _ = modules.quotient(z4, modules.submodule_generated(z4, [(2,)]))
    cases = ((lab.has_ssp, _ssp_all_pairs, ut2),
             (lab.has_sip, _sip_all_pairs, modules.direct_sum([z4, z2])[0]))
    wants = [_observable(reference(m, CAPS)) for _, reference, m in cases]
    assert [want[0] for want in wants] == [False, False]
    assert [_observable(fast(m, CAPS)) for fast, _, m in cases] == wants
    init = lab.SummandLattice.__init__

    def counted_against_itself(self, lattice):
        init(self, lattice)
        self.every_submodule = len(self.summands) == len(
            [n for n in lattice if lab.summand_test(n) is not None])

    monkeypatch.setattr(lab.SummandLattice, "__init__", counted_against_itself)
    assert all(_observable(fast(m, CAPS)) != want for (fast, _, m), want in zip(cases, wants))


def _lattice_basis_without_the_untouched_reduction(gens, m):
    """``linalg.lattice_basis`` that leaves the rows above a pivot no
    generator reached as they are, instead of reducing them mod m_c."""
    k = len(m)
    work = [row for row in ([v % mm for v, mm in zip(g, m)] for g in gens) if any(row)]
    basis = []
    for c in range(k):
        mc = m[c]
        pivot = [0] * k
        pivot[c] = mc
        rest = range(c + 1, k)
        live = []
        for row in work:
            b = row[c]
            if b:
                a = pivot[c]
                q, r = divmod(b, a)
                if r:
                    g, s, t = linalg._xgcd(a, b)
                    u, v = a // g, b // g
                    for j in rest:
                        p, x = pivot[j], row[j]
                        pivot[j] = (s * p + t * x) % m[j]
                        row[j] = (u * x - v * p) % m[j]
                    pivot[c] = g
                else:
                    for j in rest:
                        if pivot[j]:
                            row[j] = (row[j] - q * pivot[j]) % m[j]
                row[c] = 0
                if not any(row):
                    continue
            live.append(row)
        work = live
        a = pivot[c]
        if a != mc:
            for above in basis:
                q = above[c] // a
                if q:
                    for j in range(c, k):
                        above[j] -= q * pivot[j]
        basis.append(pivot)
    return tuple(map(tuple, basis))


def test_the_reduction_above_an_untouched_pivot_dropped(monkeypatch):
    """Over Z/2 x Z/3 x Z/6 the generator (27, -10, 1) reaches columns 0 and
    1 only.  Reducing row 0 by the pivot of column 1 leaves -3 at column 2,
    which only the untouched pivot 6·e_2 brings back to 3."""
    gens, m = [(27, -10, 1)], (2, 3, 6)
    want = linalg.hermite_normal_form(_stacked_on_diagonal(gens, m), len(m))
    assert linalg.lattice_basis(gens, m) == want
    monkeypatch.setattr(linalg, "lattice_basis", _lattice_basis_without_the_untouched_reduction)
    assert linalg.lattice_basis(gens, m) != want


def _system_without_the_annihilation_check(self, a, out_moduli, in_moduli):
    """``CongruenceSystem.__init__`` that accepts any input moduli."""
    r, c = len(a), len(out_moduli)
    if len(in_moduli) != r:
        raise linalg.DimensionMismatch(f"{len(in_moduli)} input moduli vs {r} rows")
    lifted = []
    for i, row in enumerate(a):
        if len(row) != c:
            raise linalg.DimensionMismatch(f"row length {len(row)} vs {c} output moduli")
        lifted.append([*row, *(int(t == i) for t in range(r))])
    self.out_moduli = tuple(out_moduli)
    self.in_moduli = tuple(in_moduli)
    hnf = linalg.lattice_basis(lifted, self.out_moduli + self.in_moduli)
    self._solving = hnf[:c]
    self.homogeneous = tuple(
        row[c:] for i, row in enumerate(hnf[c:]) if row[c + i] != in_moduli[i])


def test_a_non_annihilating_input_modulus_accepted(monkeypatch):
    """x = 1 in Z/2 sent to 1 in Z/4 is no map, since 2·1 is not 0 mod 4.
    The reference refuses it; with the check dropped, the system answers
    x = 1 for b = 1 and x = 0 for b = 2, though 0 maps to 0, not 2."""
    case = ([(1,)], (4,), (2,), [(1,), (2,)])
    want = _system_outcome(_ReferenceSystem, *case)
    assert want[0] is ValueError
    assert _system_outcome(linalg.CongruenceSystem, *case) == want
    monkeypatch.setattr(linalg.CongruenceSystem, "__init__", _system_without_the_annihilation_check)
    assert _system_outcome(linalg.CongruenceSystem, *case) != want


def _orbit_walk_stopping_one_hom_early(self, perms):
    """``HomGroup._orbit_walk`` that ends once every hom not yet reached but
    one is ahead."""
    exponent = math.lcm(*self.orders)
    units = [u for u in range(2, exponent) if math.gcd(u, exponent) == 1]
    moduli = self.codomain.moduli * self.domain.rank
    size = self.size()
    ahead = set()
    for reached, flat in enumerate(self._odometer(), 1):
        if flat in ahead:
            ahead.remove(flat)
            continue
        for image in [flat, *(tuple(flat[i] for i in sigma) for sigma in perms)]:
            ahead.add(image)
            ahead.update(tuple(u * v % d for v, d in zip(image, moduli)) for u in units)
        ahead.discard(flat)
        yield flat
        if len(ahead) >= size - reached - 1:
            return


def test_the_orbit_walk_stopped_one_hom_early(unmemoized):
    """End(Z/2 ⊕ Z/2) = M2(F2) has no unit but 1, so with no permutation
    every hom is its own orbit, and a walk that stops one hom early never
    meets the last one."""
    m = plane()
    want = list(_orbit_walk_to_the_end(homs.hom_group(m, m), ()))
    assert len(want) == 16
    assert list(homs.hom_group(m, m)._orbit_walk(())) == want
    unmemoized.setattr(homs.HomGroup, "_orbit_walk", _orbit_walk_stopping_one_hom_early)
    assert list(homs.hom_group(m, m)._orbit_walk(())) != want


def _hom_system_without_well_definedness(dom, cod):
    """The reference ``_hom_system_by_columns`` without its last
    rank(dom)·rank(cod) equations, dom.moduli[i]·F[i][j] = 0 mod
    cod.moduli[j].  ``homs._hom_system`` drops the ones that vanish, so
    they need not come last there."""
    rows, out_moduli, in_moduli = _hom_system_by_columns(dom, cod)
    kept = len(out_moduli) - dom.rank * cod.rank
    return [row[:kept] for row in rows], out_moduli[:kept], in_moduli


def test_the_hom_system_without_well_definedness(monkeypatch):
    """Z/2 and Z/3, the submodules of Z/6, have only the zero hom between
    them.  Without 2·F = 0 mod 3 every 1×1 matrix commutes with the action,
    so the map 1 -> 1, which is not well defined, joins the group."""
    m6 = reg(6)
    s2, _ = modules.extract(modules.submodule_generated(m6, [(3,)]))
    s3, _ = modules.extract(modules.submodule_generated(m6, [(2,)]))
    assert all(is_module_hom(h) for h in homs.hom_group(s2, s3).iter_homs())
    monkeypatch.setattr(homs, "_hom_system", _hom_system_by_columns)
    assert all(is_module_hom(h) for h in homs.hom_group(s2, s3).iter_homs())
    monkeypatch.setattr(homs, "_hom_system", _hom_system_without_well_definedness)
    assert not all(is_module_hom(h) for h in homs.hom_group(s2, s3).iter_homs())


def _kernel_system_zero_mod_2(equations, unknowns):
    """``linalg.kernel_system`` whose zero test reads each column mod 2,
    whatever the equation's modulus."""
    kept = {}
    for col, d in equations:
        if any(v % 2 for v in col):
            kept[tuple(v % d for v in col), d] = None
    return [[col[x] for col, _ in kept] for x in range(unknowns)], tuple(d for _, d in kept)


def test_the_kernel_system_tests_zero_mod_2(monkeypatch):
    """Z/2, the submodule 2·Z/4, maps to Z/4 by 1 -> 0 or 2 only: the
    well-definedness equation 2·F = 0 mod 4 vanishes mod 2, so without it
    1 -> 1, which is not well defined, joins the group."""
    m4 = reg(4)
    s2, _ = modules.extract(modules.submodule_generated(m4, [(2,)]))
    assert all(is_module_hom(h) for h in homs.hom_group(s2, m4).iter_homs())
    monkeypatch.setattr(linalg, "kernel_system", _kernel_system_zero_mod_2)
    assert not all(is_module_hom(h) for h in homs.hom_group(s2, m4).iter_homs())


def _kernel_system_keyed_without_the_modulus(equations, unknowns):
    """``linalg.kernel_system`` that drops an equation whose reduced column
    an earlier one has, under any modulus."""
    kept = {}
    for col, d in equations:
        reduced = tuple(v % d for v in col)
        if any(reduced):
            kept.setdefault(reduced, d)
    return [[col[x] for col in kept] for x in range(unknowns)], tuple(kept.values())


def test_the_kernel_system_keyed_without_the_modulus(monkeypatch):
    """x + y even, then x + y ≡ 0 mod 4: the second equation has the first
    one's column, and keyed by the column alone it drops, though it halves
    the kernel.  Every hom system of the workspaces and the random modules
    keeps its kernel under this break, so the cases of ``kernel_system``
    are the detector."""
    outcome = lambda: [linalg.kernel_system(eqs, n) for eqs, n, _ in KERNEL_SYSTEM_CASES]
    want = [case[2] for case in KERNEL_SYSTEM_CASES]
    assert outcome() == want
    monkeypatch.setattr(linalg, "kernel_system", _kernel_system_keyed_without_the_modulus)
    assert outcome() != want


def _least_entry_up_to_2(self, pos):
    """``_Transform.least_entry`` that stops at the first entry ±1 or ±2."""
    best, least = None, 0
    for i in range(pos, self.rows):
        for j in range(pos, self.cols):
            v = abs(self.s[i][j])
            if v and (not least or v < least):
                best, least = (i, j), v
                if v <= 2:
                    return best
    return best


def test_the_pivot_scan_stopped_at_2(monkeypatch):
    """In diag(2, 1) the scan stopped at the 2 pivots on it, and the
    whole-block scan on the 1 after it: V moves.  A 1 in the row or column
    of the 2 would keep that scan from ending, since the 2 reduces it to
    itself, so the cases keep it out of both."""
    outcome = lambda: [linalg.smith_normal_form(rows) for rows in UNIT_AFTER_A_TWO]
    want = [_smith_reference(rows) for rows in UNIT_AFTER_A_TWO]
    assert outcome() == want
    monkeypatch.setattr(linalg._Transform, "least_entry", _least_entry_up_to_2)
    assert outcome() != want


def _structure_trivial_at_pivot_1(canon, m):
    """``linalg.subgroup_structure`` that takes e_i as the coefficient row
    wherever the pivot is 1, instead of m_i."""
    k = len(m)
    unit = lambda c, v: [v if j == c else 0 for j in range(k)]
    basis = []
    for row in canon:
        lead = next(j for j, v in enumerate(row) if v)
        basis += [unit(c, m[c]) for c in range(len(basis), lead)]
        basis.append(row)
    basis += [unit(c, m[c]) for c in range(len(basis), k)]
    c_rows = []
    for i in range(k):
        coeff = unit(i, 1)
        c_rows.append(coeff)
        if basis[i][i] == 1:
            continue
        rem = unit(i, m[i])
        for j in range(i, k):
            q = rem[j] // basis[j][j]
            coeff[j] = q
            if q:
                rem = [a - q * b for a, b in zip(rem, basis[j])]
    s, v, _ = linalg.smith_normal_form(c_rows, inverse=False)
    kept = [i for i in range(k) if s[i][i] > 1]
    return (tuple(linalg.vec_mod(linalg.vec_mat(v[i], basis), m) for i in kept),
            tuple(s[i][i] for i in kept))


def test_a_row_with_pivot_1_taken_for_trivial(monkeypatch):
    """Z/12 itself has the canonical form ((1,)); its row taken for 12·e_0,
    the subgroup looks like 0."""
    m = reg(12)
    canons = [n.gens for n in modules.enumerate_submodules(m, CAPS.submodules)]
    outcome = lambda: [linalg.subgroup_structure(canon, m.moduli) for canon in canons]
    want = [_structure_reference(canon, m.moduli) for canon in canons]
    assert outcome() == want
    monkeypatch.setattr(linalg, "subgroup_structure", _structure_trivial_at_pivot_1)
    assert outcome() != want


def test_the_span_read_without_its_last_row(monkeypatch):
    """Hom(Z/12, 4Z/12) is Z/3, one span row; without it, 4Z/12 has no
    projection, though 3Z/12 complements it."""
    disagreements = lambda: [n for m in _summand_oracle_modules() for n in _summand_disagreements(m)]
    assert disagreements() == []
    hom_group = homs.hom_group
    monkeypatch.setattr(homs, "hom_group",
                        lambda dom, cod: homs.HomGroup(dom, cod, hom_group(dom, cod).span[:-1]))
    assert disagreements()
