"""Module-level property deciders and the theorem suites."""

import ast
import collections
import functools
import glob
import itertools
import json
import math
import os
import re
import subprocess
import sys

import pytest

from endolab import homs, lab, linalg, modules, rings, workspace
from endolab.verdicts import (
    CapExceeded, Caps, InternalInconsistency, Verdict, assuming, both, implies, undecided_on_cap)
from support import zero_module

CAPS = Caps()


def z(n):
    return rings.zmod_ring(n)


def reg(n):
    return modules.regular_module(z(n), name=f"Z{n}")


def plane():
    m, _, _ = modules.direct_sum([reg(2), reg(2)])
    return m


def e1R():
    r = modules.regular_module(
        rings.matrix_ring_presentation(2, 2, upper_triangular=True))
    inner, _ = modules.extract(modules.submodule_generated(r, [(1, 0, 0)]))
    return inner


def sum_2_3():
    m6 = reg(6)
    s2, _ = modules.extract(modules.submodule_generated(m6, [(3,)]))
    s3, _ = modules.extract(modules.submodule_generated(m6, [(2,)]))
    total, _, _ = modules.direct_sum([s2, s3])
    return total


def test_endoregular_fixtures():
    assert lab.is_endoregular(reg(6), CAPS).value is True
    assert lab.is_endoregular(plane(), CAPS).value is True
    v = lab.is_endoregular(reg(4), CAPS)
    assert v.value is False


def test_abelian_endoregular_fixtures():
    assert lab.is_abelian_endoregular(e1R(), CAPS).value is True
    assert lab.is_abelian_endoregular(plane(), CAPS).value is False
    assert lab.is_abelian_endoregular(sum_2_3(), CAPS).value is True
    assert lab.is_abelian_endoregular(reg(6), CAPS).value is True


def test_unit_endoregular_fixtures():
    assert lab.is_unit_endoregular(plane(), CAPS).value is True
    assert lab.is_unit_endoregular(reg(4), CAPS).value is False
    zero = zero_module(z(2))
    assert lab.is_unit_endoregular(zero, CAPS).value is True


def test_ssp_sip():
    assert lab.has_ssp(reg(6), CAPS).value is True
    assert lab.has_sip(reg(6), CAPS).value is True
    assert lab.has_ssp(plane(), CAPS).value is True
    assert lab.has_sip(plane(), CAPS).value is True
    assert lab.has_ssp(reg(2), CAPS).value is True


def test_summand_lattice_shape():
    assert len(lab.SummandLattice.of(reg(6), CAPS).summands) == 4
    assert len(lab.SummandLattice.of(reg(2), CAPS).summands) == 2
    assert len(lab.SummandLattice.of(plane(), CAPS).summands) == 5
    assert lab.is_distributive_boolean(reg(6), CAPS).value is True
    assert lab.is_distributive_boolean(plane(), CAPS).value is False
    assert lab.is_distributive_boolean(reg(2), CAPS).value is True


def test_five_way_suite():
    assert all(v.value is True for v in lab.five_way_conditions(sum_2_3(), CAPS))
    assert all(v.value is False for v in lab.five_way_conditions(plane(), CAPS))
    assert all(v.value is True for v in lab.five_way_conditions(reg(2), CAPS))
    v = lab.check_five_way(reg(4), CAPS)
    assert v.value is True and v.reason == "hypothesis fails"


def test_unit_suite():
    assert lab.is_unit_endoregular(reg(6), CAPS).value is True
    assert lab.idempotents_central_in_end(reg(6), CAPS).value is True
    assert lab.check_unit_converses(reg(6), CAPS).value is True
    assert lab.idempotents_central_in_end(plane(), CAPS).value is False
    zero = zero_module(z(2))
    assert lab.is_unit_endoregular(zero, CAPS).value is True
    assert lab.check_unit_converses(zero, CAPS).value is True


def test_prime_semiprime_z12():
    m = reg(12)
    primes = lab.spec_of(m, CAPS)
    got = sorted(p.gens for p in primes)
    sub = lambda k: modules.submodule_generated(m, [(k,)])
    assert got == sorted([sub(2).gens, sub(3).gens])
    v = lab.is_semiprime_in(sub(4), CAPS)
    assert v.value is False
    assert v.witness.gens == sub(2).gens
    assert lab.is_semiprime_in(sub(6), CAPS).value is True
    assert lab.is_prime_in(sub(6), CAPS).value is False


def test_prime_errors():
    m = reg(12)
    with pytest.raises(lab.NotFullyInvariant):
        lab.is_prime_in(modules.full_submodule(m), CAPS)
    p = plane()
    line = [n for n in modules.enumerate_submodules(p, 512) if n.order() == 2][0]
    with pytest.raises(lab.NotFullyInvariant):
        lab.is_prime_in(line, CAPS)


def test_zero_prime_in_simple():
    m = reg(3)
    assert lab.is_prime_in(modules.zero_submodule(m), CAPS).value is True


def test_duo_fixtures():
    assert lab.is_duo(reg(12), CAPS).value is True
    assert lab.is_quasi_duo(reg(12), CAPS).value is True
    assert lab.is_quasi_duo(plane(), CAPS).value is False
    assert lab.is_quasi_duo(e1R(), CAPS).value is True


def test_subdirect_of_simples():
    assert lab.is_subdirect_of_simples(reg(6), CAPS).value is True
    assert lab.is_subdirect_of_simples(e1R(), CAPS).value is False
    assert lab.is_subdirect_of_simples(reg(2), CAPS).value is True


def test_k_nonsingular_polyform():
    assert lab.is_k_nonsingular(reg(4), CAPS).value is False
    assert lab.is_k_nonsingular(sum_2_3(), CAPS).value is True
    # the definitional implication on a handful of fixtures
    for m in (reg(4), reg(6), reg(12), plane(), e1R(), sum_2_3()):
        poly = lab.is_polyform(m, CAPS)
        knon = lab.is_k_nonsingular(m, CAPS)
        if poly.value:
            assert knon.value


def test_azumaya_agreement():
    for m in (reg(4), reg(6), reg(12), plane(), e1R()):
        assert lab.azumaya_agreement(m, CAPS).value is True


def test_theorem_suites_all_pass():
    members = [
        lab.CorpusMember("z4", reg(4), projective=True),
        lab.CorpusMember("z6", reg(6), projective=True),
        lab.CorpusMember("z12", reg(12), projective=True),
        lab.CorpusMember("plane", plane(), projective=True),
        lab.CorpusMember("e1R", e1R(), projective=True),
        lab.CorpusMember("s23", sum_2_3()),
    ]
    z6m = members[1]
    fams = [(z6m, z6m), (members[5], members[5])]
    report = lab.theorem_suites(members, CAPS, families=fams)
    assert not report.failed
    counts = report.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 0


def test_verdicts_skip_loudly_under_caps():
    tight = Caps(elements=8, submodules=4, homs=8)
    v = lab.is_endoregular(reg(12), tight)
    assert v.value is None
    assert "cap" in v.reason or "exceeds" in v.reason


TIGHT_CAPS = (
    Caps(1, 1, 1), Caps(4096, 1, 1), Caps(16, 16, 16),
    Caps(4096, 4, 8), Caps(8, 512, 4096), Caps(4096, 512, 16),
)


def _cap_corpus():
    zn = [modules.regular_module(z(n), name=f"Z/{n}") for n in (4, 6, 8, 12)]
    m2 = modules.regular_module(rings.matrix_ring_presentation(2, 2))
    return zn + [m2] + [mem.module for mem in workspace.random_modules(8, 5, Caps())]


@pytest.mark.parametrize("caps", TIGHT_CAPS, ids=str)
def test_cap_hits_become_undecided_verdicts_that_name_the_cap(caps):
    calls = [(cid, lambda m, f=f: f(m, caps, True)) for cid, f in lab.MEMBER_CHECKS]
    calls += [(name, lambda m, f=f: f(m, caps)) for name, f in lab.PROPERTY_FUNCS]
    cap_values = {str(v) for v in vars(caps).values()}
    skipped = 0
    for m in _cap_corpus():
        for name, call in calls:
            v = call(m)
            assert isinstance(v, Verdict), (name, m.name)
            if v.decided:
                continue
            skipped += 1
            hits = re.findall(r"exceeds (?:hom )?cap (\d+)", v.reason)
            assert hits and set(hits) <= cap_values, (name, m.name, v.reason)
    assert skipped


# ---------------------------------------------------------------------------
# One fully invariant scan, against the three loops it replaced
# ---------------------------------------------------------------------------


@undecided_on_cap
def _quasi_duo_loop(m, caps):
    for n in modules.maximal_submodules(m, caps.submodules):
        if not homs.is_fully_invariant(n):
            return Verdict.no(witness=n, reason="movable maximal submodule")
    return Verdict.yes()


@undecided_on_cap
def _duo_loop(m, caps):
    for n in modules.enumerate_submodules(m, caps.submodules):
        if not homs.is_fully_invariant(n):
            return Verdict.no(witness=n, reason="movable submodule")
    return Verdict.yes()


@undecided_on_cap
def _fully_invariant_route_loop(m, caps):
    endo = lab.is_endoregular(m, caps)
    if not endo.require():
        return Verdict.no(witness=endo.witness, reason="not endoregular")
    for n in modules.enumerate_submodules(m, caps.submodules):
        if homs.is_m_generated(n) and not homs.is_fully_invariant(n):
            return Verdict.no(witness=n, reason="movable M-generated submodule")
    return Verdict.yes()


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_fully_invariant_scans_equal_their_loops(caps):
    """``is_quasi_duo``, ``is_duo`` and the fully invariant route give the
    value, reason and witness of a loop over their submodules, on the memo
    and cap corpora."""
    pairs = (
        (lab.is_quasi_duo, _quasi_duo_loop),
        (lab.is_duo, _duo_loop),
        (lab.abelian_route_fully_invariant, _fully_invariant_route_loop),
    )
    outcomes = collections.Counter()
    for m in _memo_corpus() + _cap_corpus():
        for scan, loop in pairs:
            got = scan(m, caps)
            assert _observable(got) == _observable(loop(m, caps)), (scan.__name__, m.name)
            outcomes[got.value] += 1
    if caps == CAPS:
        assert outcomes[True] and outcomes[False], outcomes


# ---------------------------------------------------------------------------
# Prime and semiprime submodules from one product table, against the eager
# per-N loops that recompute every product K_M L for each N
# ---------------------------------------------------------------------------


def _fully_invariant_submodules(m, caps):
    """Reference: the fully invariant submodules, largest first, from a
    fresh scan of the lattice."""
    subs = [n for n in modules.enumerate_submodules(m, caps.submodules)
            if homs.is_fully_invariant(n)]
    return sorted(subs, key=lambda n: (-n.order(), n.gens))


@undecided_on_cap
def _prime_in_eager(n, caps):
    fi = _fully_invariant_submodules(n.ambient, caps)
    for k, l in itertools.product(fi, repeat=2):
        prod_kl = homs.product_from_images(homs.product_images(k), l)
        if n.contains_sub(prod_kl) and not n.contains_sub(k) and not n.contains_sub(l):
            return Verdict.no(witness=(k, l), reason="product inside, factors outside")
    return Verdict.yes()


@undecided_on_cap
def _semiprime_in_eager(n, caps):
    for k in _fully_invariant_submodules(n.ambient, caps):
        square = homs.product_from_images(homs.product_images(k), k)
        if n.contains_sub(square) and not n.contains_sub(k):
            return Verdict.no(witness=k, reason="square inside, factor outside")
    return Verdict.yes()


def _prime_module_eager(m, caps):
    if m.size() == 1:
        return Verdict.no(reason="zero module is not prime")
    return _prime_in_eager(modules.zero_submodule(m), caps)


def _semiprime_module_eager(m, caps):
    if m.size() == 1:
        return Verdict.no(reason="zero module is not semiprime")
    return _semiprime_in_eager(modules.zero_submodule(m), caps)


def _spec_eager(m, caps):
    fi = _fully_invariant_submodules(m, caps)
    return [n for n in fi if not n.is_full() and _prime_in_eager(n, caps).value is True]


@undecided_on_cap
def _fi_maximal_is_prime_eager(m, caps):
    fi = _fully_invariant_submodules(m, caps)
    for n in fi:
        if n.is_full() or any(
            k.contains_sub(n) and not n.contains_sub(k) and not k.is_full() for k in fi
        ):
            continue
        v = _prime_in_eager(n, caps)
        if not v.require():
            return Verdict.no(witness=(n, v.witness), reason="maximal fully invariant, not prime")
    return Verdict.yes()


@undecided_on_cap
def _prime_quotients_eager(m, caps):
    for n in _fully_invariant_submodules(m, caps):
        if n.is_full():
            continue
        for holds, quotient_test in (
            (_prime_in_eager, _prime_module_eager),
            (_semiprime_in_eager, _semiprime_module_eager),
        ):
            if not holds(n, caps).require():
                continue
            qv = quotient_test(modules.quotient(m, n)[0], caps)
            if not qv.require():
                return Verdict.no(witness=(n, qv.witness), reason="quotient loses primeness")
    return Verdict.yes()


def _spec_or_cap(spec, m, caps):
    try:
        return [n.gens for n in spec(m, caps)]
    except CapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_prime_and_semiprime_equal_the_eager_loops(caps):
    module_pairs = (
        (lab.check_fi_maximal_is_prime, _fi_maximal_is_prime_eager),
        (lab.check_prime_quotients, _prime_quotients_eager),
    )
    # A nonzero module is prime (semiprime) when its zero submodule is.
    zero_pairs = (
        (lambda m, c: lab.is_prime_in(modules.zero_submodule(m), c),
         lambda m, c: _prime_in_eager(modules.zero_submodule(m), c)),
        (lambda m, c: lab.is_semiprime_in(modules.zero_submodule(m), c),
         lambda m, c: _semiprime_in_eager(modules.zero_submodule(m), c)),
    )
    failures = collections.Counter()
    primes = 0
    for m in _cap_corpus() + _memo_corpus():
        spec = _spec_or_cap(lab.spec_of, m, caps)
        assert spec == _spec_or_cap(_spec_eager, m, caps), m.name
        primes += isinstance(spec, list) and len(spec)
        for fast, reference in module_pairs + (zero_pairs if m.size() > 1 else ()):
            got = fast(m, caps)
            assert _observable(got) == _observable(reference(m, caps)), (fast.__name__, m.name)
            failures[fast.__name__] += got.value is False
        try:
            fi = _fully_invariant_submodules(m, caps)
        except CapExceeded:
            continue
        for n in fi:
            if n.is_full():
                continue
            for fast, reference in (
                (lab.is_prime_in, _prime_in_eager),
                (lab.is_semiprime_in, _semiprime_in_eager),
            ):
                got = fast(n, caps)
                assert _observable(got) == _observable(reference(n, caps)), (
                    fast.__name__, m.name, n.gens)
                failures[fast.__name__] += got.value is False
    # The two checks are theorems and pass; the two predicates fail somewhere.
    predicates = (lab.is_prime_in, lab.is_semiprime_in)
    assert caps != CAPS or primes > 20 and all(failures[f.__name__] for f in predicates), failures


@pytest.fixture
def own_lattices(monkeypatch):
    """A lattice cache of the test's own, empty at the start, read by every
    namespace that binds ``enumerate_submodules``, and every memoized route
    computed afresh.  A lattice carries the names of the first equal module
    it was built for, so a test that clears the process's lattices would
    leave them to disagree with the memoized answers about names; clearing
    its own leaves both as they were."""
    lattices = functools.lru_cache(maxsize=None)(modules.enumerate_submodules.__wrapped__)
    for namespace in (modules, lab, workspace):
        monkeypatch.setattr(namespace, "enumerate_submodules", lattices)
    for namespace in (lab, rings):
        for f in _memoized(namespace):
            monkeypatch.setattr(namespace, f.__name__, f.__wrapped__)
    return lattices


def test_each_product_is_formed_once_per_lattice(monkeypatch, own_lattices):
    """Each K's images of Hom(M, K) are formed at most once per lattice, and
    each K_M L is read from them at most once, across every reader of the
    product tables: ``spec_of``, ``check_prime_quotients`` (for M and each
    M/N), ``check_fi_maximal_is_prime``, ``is_prime_in`` and
    ``is_semiprime_in``."""
    formed, computed = collections.Counter(), collections.Counter()
    factor_of = {}
    form, multiply = lab.product_images, lab.product_from_images

    def counted_images(k):
        formed[k] += 1
        images = form(k)
        factor_of[id(images)] = k
        return images

    def counted_product(images, l):
        computed[factor_of[id(images)], l] += 1
        return multiply(images, l)

    monkeypatch.setattr(lab, "product_images", counted_images)
    monkeypatch.setattr(lab, "product_from_images", counted_product)
    for n in (12, 30, 60):
        m = reg(n)
        for call in (lab.spec_of, lab.check_prime_quotients, lab.check_fi_maximal_is_prime):
            call(m, CAPS)
        for k in lab.ProductTable.of(m, CAPS).fi[1:]:
            lab.is_prime_in(k, CAPS)
            lab.is_semiprime_in(k, CAPS)
    assert computed and max(computed.values()) == 1, computed
    assert max(formed.values()) == 1, formed
    assert {k for k, _ in computed} == set(formed)


def _table_answers(m, caps):
    """Every answer read from the summand lattice or the product table of m
    (and of its quotients), as it reaches the output stream."""
    answers = [_observable(f(m, caps)) for f in (
        lab.has_ssp, lab.has_sip, lab.is_distributive_boolean,
        lab.check_fi_maximal_is_prime, lab.check_prime_quotients)]
    answers.append(_spec_or_cap(lab.spec_of, m, caps))
    answers.append(lab.analyze("probe", m, caps).summand_count)
    try:
        fi = _fully_invariant_submodules(m, caps)
    except CapExceeded:
        fi = []
    for n in fi:
        if not n.is_full():
            answers += [_observable(lab.is_prime_in(n, caps)),
                        _observable(lab.is_semiprime_in(n, caps))]
    return answers


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_shared_tables_answer_as_fresh_tables(caps, monkeypatch, own_lattices):
    """The summand lattices and product tables kept on the submodule
    lattices give the answers of a table built afresh for every read, in
    either order over the corpus, each run from an empty lattice cache.  A
    lattice keeps the names of the first equal module it was built for, so
    both runs of an order build their lattices from the same modules."""
    corpus = _cap_corpus() + _memo_corpus()
    for order in (corpus, corpus[::-1]):
        modules.enumerate_submodules.cache_clear()
        with monkeypatch.context() as fresh:
            fresh.setattr(lab.LatticeTable, "of", classmethod(
                lambda cls, m, caps: cls(modules.enumerate_submodules(m, caps.submodules))))
            want = [_table_answers(m, caps) for m in order]
        modules.enumerate_submodules.cache_clear()
        for m, answers in zip(order, want):
            assert _table_answers(m, caps) == answers, m.name


def test_lattice_tables_are_keyed_by_the_lattice(own_lattices):
    """A table is shared by every caps with the same submodule cap, and
    ``enumerate_submodules.cache_clear()`` drops it with its lattice."""
    m = reg(12)
    for table in (lab.SummandLattice, lab.ProductTable):
        kept = table.of(m, CAPS)
        assert table.of(modules.regular_module(z(12), name="other"), Caps(1, 512, 1)) is kept
        assert table.of(m, Caps(submodules=16)) is not kept
        modules.enumerate_submodules.cache_clear()
        assert table.of(m, CAPS) is not kept


def _product_corpus():
    """The corpus modules, the regular modules of UT2(Z/4) and Z/60, and the
    demo workspace's modules."""
    ut = modules.regular_module(
        rings.matrix_ring_presentation(2, 4, upper_triangular=True), name="UT2(Z/4)")
    path = os.path.join(os.path.dirname(__file__), "..", "workspaces", "demo.json")
    demo = list(workspace.parse_workspace(path).modules.values())
    return _cap_corpus() + _memo_corpus() + [ut, modules.regular_module(z(60))] + demo


def test_the_table_products_equal_the_product_definition():
    """Every K_M L that a product table reads from row K's images equals
    the sum of f(L) over the invariant-factor basis of Hom(M, K), which
    shares no code with the images, over every pair of fully invariant
    submodules, row by row as the searches fill the table."""
    # test_homs imports this module, so its reference is imported here
    from test_homs import _product_over_the_basis

    pairs = 0
    for m in _product_corpus():
        table = lab.ProductTable.of(m, CAPS)
        for i, j in itertools.product(range(len(table.fi)), repeat=2):
            want = _product_over_the_basis(table.fi[i], table.fi[j])
            assert table._product(i, j).gens == want, (m.name, i, j)
            pairs += 1
    assert pairs > 700, pairs


# ---------------------------------------------------------------------------
# Essential kernels through the socle, against the per-hom definition
# ---------------------------------------------------------------------------


def _is_essential_by_definition(n, cap):
    """n meets every nonzero submodule of its ambient in a nonzero element."""
    inside = set(n.elements())
    return all(
        k.is_zero() or any(any(x) and x in inside for x in k.elements())
        for k in modules.enumerate_submodules(n.ambient, cap)
    )


@undecided_on_cap
def _k_nonsingular_per_hom(m, caps):
    """Reference: test the kernel of every nonzero endomorphism in turn."""
    for phi in lab.end_homs(m, caps.homs).iter_homs():
        if not phi.is_zero() and _is_essential_by_definition(homs.kernel(phi), caps.submodules):
            return Verdict.no(witness=phi, reason="nonzero endomorphism with essential kernel")
    return Verdict.yes()


@undecided_on_cap
def _polyform_per_hom(m, caps):
    """Reference: test the kernel of every nonzero hom K -> M in turn."""
    for k_sub in modules.enumerate_submodules(m, caps.submodules):
        if k_sub.is_zero():
            continue
        inner, _ = modules.extract(k_sub)
        hg = homs.hom_group(inner, m)
        if hg.size() > caps.homs:
            return Verdict.undecided(f"|Hom(K, M)| = {hg.size()} exceeds hom cap {caps.homs}")
        for f in hg.iter_homs():
            if not f.is_zero() and _is_essential_by_definition(homs.kernel(f), caps.submodules):
                return Verdict.no(
                    witness=(k_sub, f), reason="partial homomorphism with essential kernel")
    return Verdict.yes()


def e1R_plus_top():
    """e1R ⊕ S, S its top e1R/Soc: of its two submodules of additive type
    (2, 2), the semisimple Soc ⊕ S comes first and passes, and e1R, which
    maps onto S with essential kernel, fails."""
    p = e1R()
    top, _ = modules.quotient(p, modules.socle(p, CAPS.submodules))
    total, _, _ = modules.direct_sum([p, top])
    return total


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_socle_predicates_equal_the_per_hom_definition(caps):
    for m in _cap_corpus() + _memo_corpus() + [e1R_plus_top()]:
        for fast, reference in (
            (lab.is_k_nonsingular, _k_nonsingular_per_hom),
            (lab.is_polyform, _polyform_per_hom),
        ):
            assert _observable(fast(m, caps)) == _observable(reference(m, caps)), (fast, m.name)


def test_is_essential_equals_the_definition_on_every_submodule():
    for m in _cap_corpus() + [plane(), e1R(), sum_2_3()]:
        for n in modules.enumerate_submodules(m, CAPS.submodules):
            assert modules.is_essential(n, CAPS.submodules) == _is_essential_by_definition(
                n, CAPS.submodules), (m.name, n.gens)


def _direct_summands(m, caps):
    """Reference: the direct summands, from a fresh scan of the lattice."""
    return [n for n in modules.enumerate_submodules(m, caps.submodules)
            if homs.summand_test(n) is not None]


@undecided_on_cap
def _distributive_boolean_by_triples(m, caps):
    """Reference: recompute every sum and intersection for every triple."""
    summands = _direct_summands(m, caps)
    for a in summands:
        if not any(modules.submodule_intersect(a, b).is_zero()
                   and modules.submodule_sum(a, b).is_full() for b in summands):
            return Verdict.no(witness=a, reason="summand without complement")
    for a, b, c in itertools.product(summands, repeat=3):
        lhs = modules.submodule_intersect(a, modules.submodule_sum(b, c))
        rhs = modules.submodule_sum(modules.submodule_intersect(a, b),
                                    modules.submodule_intersect(a, c))
        if lhs.gens != rhs.gens:
            return Verdict.no(witness=(a, b, c), reason="distributivity fails")
    return Verdict.yes()


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_distributive_boolean_equals_the_triple_loop(caps):
    failing = 0
    for m in _cap_corpus() + _memo_corpus() + [plane(), e1R(), sum_2_3()]:
        got = lab.is_distributive_boolean(m, caps)
        assert _observable(got) == _observable(_distributive_boolean_by_triples(m, caps)), m.name
        failing += got.value is False
    assert caps != CAPS or failing > 5


# ---------------------------------------------------------------------------
# SSP, SIP and the distributive summand lattice against the loops over every
# pair and triple, with eager tables, that they replaced
# ---------------------------------------------------------------------------


@undecided_on_cap
def _ssp_all_pairs(m, caps):
    """Reference: sum every pair of summands, comparable pairs included."""
    for a, b in itertools.combinations(_direct_summands(m, caps), 2):
        if homs.summand_test(modules.submodule_sum(a, b)) is None:
            return Verdict.no(witness=(a, b), reason="sum of summands not a summand")
    return Verdict.yes()


@undecided_on_cap
def _sip_all_pairs(m, caps):
    """Reference: intersect every pair of summands, comparable pairs included."""
    for a, b in itertools.combinations(_direct_summands(m, caps), 2):
        if homs.summand_test(modules.submodule_intersect(a, b)) is None:
            return Verdict.no(witness=(a, b), reason="intersection of summands not a summand")
    return Verdict.yes()


@undecided_on_cap
def _distributive_boolean_eager(m, caps):
    """Reference: the full tables of pairwise sums and intersections, a
    complement searched by sum and intersection, then every triple with B
    before C."""
    summands = _direct_summands(m, caps)
    n = len(summands)
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        meet[i][j] = meet[j][i] = modules.submodule_intersect(summands[i], summands[j])
        join[i][j] = join[j][i] = modules.submodule_sum(summands[i], summands[j])
    for i, a in enumerate(summands):
        if not any(meet[i][j].is_zero() and join[i][j].is_full() for j in range(n)):
            return Verdict.no(witness=a, reason="summand without complement")
    for i, a in enumerate(summands):
        for j, k in itertools.combinations(range(n), 2):
            lhs = modules.submodule_intersect(a, join[j][k])
            rhs = modules.submodule_sum(meet[i][j], meet[i][k])
            if lhs.gens != rhs.gens:
                return Verdict.no(
                    witness=(a, summands[j], summands[k]), reason="distributivity fails")
    return Verdict.yes()


def _summand_lattice_corpus():
    """The regular modules of the random ring pool, the squares of those with
    at most 8 elements, the memo corpus, e1R and Z/2 ⊕ Z/3.  SSP, SIP and
    distributivity each fail on several of them, at different pairs and
    triples."""
    pool = [modules.regular_module(r, name=r.name) for r in workspace.RANDOM_RING_POOL]
    squares = [modules.direct_sum([m, m])[0] for m in pool if m.size() <= 8]
    return pool + squares + _memo_corpus() + [e1R(), sum_2_3()]


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_summand_lattice_predicates_equal_the_all_pairs_loops(caps):
    pairs = (
        (lab.has_ssp, _ssp_all_pairs),
        (lab.has_sip, _sip_all_pairs),
        (lab.is_distributive_boolean, _distributive_boolean_eager),
    )
    failures = collections.Counter()
    for m in _summand_lattice_corpus():
        for fast, reference in pairs:
            got = fast(m, caps)
            assert _observable(got) == _observable(reference(m, caps)), (fast.__name__, m.name)
            failures[fast.__name__] += got.value is False
    assert caps != CAPS or all(failures[fast.__name__] > 2 for fast, _ in pairs), failures


def test_ssp_and_sip_take_no_pair_when_every_submodule_is_a_summand(monkeypatch):
    """Every submodule of (Z/3)³ is a summand: SSP and SIP hold with no sum
    or intersection made.  The shortcut skips incomparable pairs on several
    modules of the lattice corpus, where the all-pairs loops above agree
    with it."""
    cube = modules.direct_sum([reg(3)] * 3)[0]
    made = collections.Counter()
    for name in ("submodule_sum", "submodule_intersect"):
        op = getattr(lab, name)
        monkeypatch.setattr(lab, name, lambda a, b, op=op, name=name: made.update([name]) or op(a, b))
    assert lab.has_ssp(cube, CAPS).value is True and lab.has_sip(cube, CAPS).value is True
    assert made == {}
    lattices = [lab.SummandLattice.of(m, CAPS) for m in _summand_lattice_corpus()]
    skipped = [t for t in lattices if t.every_submodule and next(t.incomparable_pairs(), None)]
    assert len(skipped) > 5, len(skipped)


def test_triples_with_a_comparable_pair_are_distributive():
    """The rule that lets ``is_distributive_boolean`` skip a triple: when one
    of A, B, C contains another, A ∩ (B + C) = (A ∩ B) + (A ∩ C), with both
    sides computed in full, on every module of at most 16 elements."""
    checked = 0
    for m in _summand_lattice_corpus():
        if m.size() > 16:
            continue
        summands = _direct_summands(m, CAPS)
        index = range(len(summands))
        join = {(j, k): modules.submodule_sum(summands[j], summands[k])
                for j, k in itertools.product(index, repeat=2)}
        meet = {(j, k): modules.submodule_intersect(summands[j], summands[k])
                for j, k in itertools.product(index, repeat=2)}
        for i, j, k in itertools.product(index, repeat=3):
            if not any(summands[x].contains_sub(summands[y])
                       for x, y in itertools.permutations((i, j, k), 2)):
                continue
            lhs = modules.submodule_intersect(summands[i], join[j, k])
            rhs = modules.submodule_sum(meet[i, j], meet[i, k])
            assert lhs.gens == rhs.gens, (m.name, i, j, k)
            checked += 1
    assert checked > 10000


@undecided_on_cap
@assuming(lambda m, caps: lab.is_endoregular(m, caps))
def _ker_im_summands_per_power(m, caps):
    """Reference: size, then enumerate, every Hom(M^n, M^l) for n, l <= 2."""
    powers = {k: modules.direct_sum([m] * k)[0] for k in (1, 2)}
    pairs = [(n, l) for n in (1, 2) for l in (1, 2)]
    for n, l in pairs:
        size = homs.hom_group(powers[n], powers[l]).size()
        if size > caps.homs:
            return Verdict.undecided(f"|Hom(M^{n}, M^{l})| = {size} exceeds hom cap {caps.homs}")
    for n, l in pairs:
        for f in homs.hom_group(powers[n], powers[l]).iter_homs():
            if not lab._both_summands(*homs.kernel_and_image(f)):
                return Verdict.no(witness=f, reason="kernel or image not a summand")
    return Verdict.yes()


def test_power_check_equals_the_per_power_loop():
    # Caps(4096, 512, 30) lies between |End M| and |End M|^2 for several
    # members, so the |Hom(M^1, M^2)| message is reached as well.
    messages = collections.Counter()
    for caps in (CAPS,) + TIGHT_CAPS + (Caps(4096, 512, 30),):
        for m in _cap_corpus() + _memo_corpus():
            got = lab.check_ker_im_summands_in_powers(m, caps)
            want = _ker_im_summands_per_power(m, caps)
            assert (got.value, got.reason) == (want.value, want.reason), (caps, m.name)
            messages.update(re.findall(r"\|Hom\(M\^\d, M\^\d\)\|", got.reason))
    assert messages["|Hom(M^1, M^2)|"] and messages["|Hom(M^2, M^2)|"], messages


# ---------------------------------------------------------------------------
# Ker/Im sweeps on the primary parts and block-permutation orbits, against
# the plain sweep
# ---------------------------------------------------------------------------

# name, predicate, route, reason, and whether the route sweeps End(B^k) by
# two-sided block permutations (True) or by conjugates only (False)
PRIMARY_LOCAL = (
    ("summands", lab._both_summands, lab._endoregular_via_summands,
     "kernel or image not a summand", True),
    ("complementary", lab._ker_im_complementary, lab.abelian_route_ker_im, "M != Ker ⊕ Im",
     False),
)


def _first_failure(g, predicate):
    return next((f for f in g.iter_homs() if not predicate(*homs.kernel_and_image(f))), None)


def _power_blocks():
    """The rank-2 blocks of the held-out powers workspace."""
    path = os.path.join(os.path.dirname(__file__), "..", "workspaces", "held-out-powers.json")
    return list(workspace.parse_workspace(path).modules.values())


def _powers(corpus, cap):
    """M, M ⊕ M and M ⊕ M ⊕ M for each M of the corpus, as far as End stays
    within the cap."""
    found = []
    for m in corpus:
        found += [n for n in (modules.direct_sum([m] * k)[0] for k in (1, 2, 3))
                  if homs.hom_group(n, n).size() <= cap]
    return list(dict.fromkeys(found))


def test_first_failing_equals_the_first_failure_of_the_plain_sweep():
    multi_prime_failures = 0
    permuted = collections.Counter()
    for m in _powers(_cap_corpus() + _memo_corpus() + _power_blocks(), CAPS.homs):
        g = homs.hom_group(m, m)
        ker_im = {f.matrix: homs.kernel_and_image(f) for f in g.iter_homs()}
        for name, predicate, _, _, two_sided in PRIMARY_LOCAL:
            want = next((f for f in g.iter_homs() if not predicate(*ker_im[f.matrix])), None)
            perms = homs.block_permutations(m, two_sided)
            pred = lambda f: predicate(*ker_im[f.matrix])
            assert g.first_failing(pred, perms) == want, (m.name, g.orders, name)
            multi_prime_failures += want is not None and len(g.primary_parts()) > 1
            if perms:
                permuted[name, homs.block_power(m), want is not None] += 1
    assert multi_prime_failures >= 5
    # each predicate sweeps squares and cubes by block permutations, and the
    # summand predicate both fails and holds there
    assert all(permuted[name, k, True] + permuted[name, k, False] >= 4
               for name, *_ in PRIMARY_LOCAL for k in (2, 3)), permuted
    assert permuted["summands", 2, True] >= 2 and permuted["summands", 3, False] >= 2, permuted


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_ker_im_routes_equal_the_plain_sweep(caps):
    corpus = _cap_corpus() + _memo_corpus() + _powers(_power_blocks(), caps.homs)
    for m in corpus:
        for name, predicate, route, reason, _ in PRIMARY_LOCAL:

            @undecided_on_cap
            def plain(m, caps):
                f = _first_failure(lab.end_homs(m, caps.homs), predicate)
                return Verdict.yes() if f is None else Verdict.no(witness=f, reason=reason)

            assert _observable(route(m, caps)) == _observable(plain(m, caps)), (name, m.name)


def test_ker_plus_im_is_m_exactly_when_ker_meets_im_in_zero():
    """For every endomorphism f of the Ker/Im corpus, |Ker f|·|Im f| = |M|,
    so Ker f + Im f = M exactly when Ker f ∩ Im f = 0: the complementary
    predicate needs no order product, and ``abelian_route_ker_im`` is the
    converse hypothesis Im φ + Ker φ = M of ``check_unit_converses``."""
    seen = collections.Counter()
    for m in _powers(_cap_corpus() + _memo_corpus() + _power_blocks(), CAPS.homs):
        for f in homs.hom_group(m, m).iter_homs():
            ker, im = homs.kernel_and_image(f)
            assert ker.order() * im.order() == m.size(), (m.name, f.matrix)
            spans = modules.submodule_sum(ker, im).order() == m.size()
            assert spans == modules.submodule_intersect(ker, im).is_zero(), (m.name, f.matrix)
            seen[spans] += 1
    assert seen[True] and seen[False], seen


# ---------------------------------------------------------------------------
# The Azumaya sweep and the unit hypothesis, against per-element loops
# ---------------------------------------------------------------------------


def _azumaya_per_element(m, caps):
    """Reference: every element of End(m) in coordinate order."""
    ring, ends = homs.end_ring(m), homs.hom_group(m, m)
    if ends.size() > caps.homs:
        return Verdict.undecided(f"|End| = {ends.size()} exceeds hom cap {caps.homs}")
    for coords in itertools.product(*(range(o) for o in ends.orders)):
        phi = ends.from_coords(coords)
        witness = rings.regularity_witness(ring.element(coords)) is not None
        summands = lab._both_summands(*homs.kernel_and_image(phi))
        if witness != summands:
            return Verdict.no(
                witness=phi,
                reason=f"quasi-inverse {'exists' if witness else 'missing'} but "
                f"summand checks say {summands}",
            )
    return Verdict.yes()


def _crt_idempotents(n):
    """The integers e_p, one per prime p dividing n, with e_p ≡ 1 mod p^k and
    0 mod n/p^k, where p^k is the largest power of p dividing n."""
    found = []
    for p in linalg.prime_divisors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        found.append(n // q * pow(n // q, -1, q) % n)
    return found


def _irregular_orbit(m, coords):
    """The nonzero e_p·u·P·x·Q in End(m), as coordinates: x has the given
    coordinates, u runs over the units and e_p over the CRT idempotents of
    the exponent of End(m), and P, Q over the block permutations of m."""
    g = homs.hom_group(m, m)
    flat = [v for row in g.from_coords(coords).matrix for v in row]
    sigmas = [range(len(flat)), *homs.block_permutations(m, two_sided=True)]
    images = [g.coords_of(homs._unflatten(m, m, [flat[i] for i in sigma])) for sigma in sigmas]
    e = math.lcm(*g.orders)
    scalars = {u * ep % e for u in range(1, e + 1) if math.gcd(u, e) == 1
               for ep in _crt_idempotents(e)}
    orbit = {tuple(s * c % o for c, o in zip(y, g.orders)) for y in images for s in scalars}
    return orbit - {(0,) * len(g.orders)}


def _irregular_on(ring, orbit):
    """``rings.regularity_witness`` with no quasi-inverse for every x such
    that e_p·x lies in ``orbit`` for some CRT idempotent e_p.

    With ``orbit`` from ``_irregular_orbit`` the Azumaya sweep may still take
    its shortcuts: e_p is a central integer, so e_p·(u·P·x·Q) = u·P·(e_p·x)·Q
    and the set so made irregular is closed under the orbits.  It is also
    primary-local, since e_q·e_p·x = 0 for q ≠ p and 0 is not in ``orbit``:
    x has a quasi-inverse exactly when every e_p·x has one.
    """
    witness = rings.regularity_witness
    idempotents = _crt_idempotents(math.lcm(*ring.moduli))

    def patched(x):
        if any(tuple(ep * c % o for c, o in zip(x.coords, ring.moduli)) in orbit
               for ep in idempotents):
            return None
        return witness(x)

    return patched


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_azumaya_agreement_equals_the_per_element_loop(caps):
    """Unpatched, both sides agree everywhere.  Patched so that the last
    nonzero idempotent, closed under the orbits and primary components of
    ``_irregular_orbit``, has no quasi-inverse, both must report the first
    endomorphism so made irregular, which is often not the idempotent
    itself."""
    corpus = _cap_corpus() + _memo_corpus()
    for m in corpus:
        got = lab.azumaya_agreement(m, caps)
        assert _observable(got) == _observable(_azumaya_per_element(m, caps)), m.name
    moved = 0
    for m in corpus:
        ring = homs.end_ring(m)
        if ring.size() > caps.homs or ring.size() == 1:
            continue
        e = [e for e in rings.idempotents(ring, ring.size()) if not e.is_zero()][-1]
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(
                rings, "regularity_witness", _irregular_on(ring, _irregular_orbit(m, e.coords)))
            got = lab.azumaya_agreement(m, caps)
            assert _observable(got) == _observable(_azumaya_per_element(m, caps)), m.name
        assert got.value is False, m.name
        moved += ring.element(homs.hom_group(m, m).coords_of(got.witness)).coords != e.coords
    assert caps.homs < 16 or moved >= 5, moved


def test_azumaya_sides_keep_to_orbits_and_split_by_primes():
    """The two facts the Azumaya sweep rests on, on every module of the test
    corpus, with its squares and cubes, that has block power at least 2 or
    a composite End exponent, and |End| <= 256.  Having a quasi-inverse, and
    having summand kernel and image, each take the same value at φ and at
    every two-sided block permutation σ(φ) = P·φ·Q, and each holds at φ
    exactly when it holds at every e_p·φ.  So a disagreement of φ shows at
    some e_p·φ."""
    seen = collections.Counter()
    for m in _powers(_cap_corpus() + _memo_corpus() + _power_blocks(), 256):
        ring, ends = homs.end_ring(m), homs.hom_group(m, m)
        exponent = math.lcm(*ends.orders)
        primes = list(linalg.prime_divisors(exponent))
        power = homs.block_power(m)
        if power < 2 and exponent in (1, *primes):
            continue
        sides = {
            f.matrix: (rings.regularity_witness(ring.element(ends.coords_of(f))) is not None,
                       lab._both_summands(*homs.kernel_and_image(f)))
            for f in ends.iter_homs()
        }
        n = m.rank
        for matrix, got in sides.items():
            flat = [v for row in matrix for v in row]
            for sigma in homs.block_permutations(m, two_sided=True):
                moved = tuple(tuple(flat[sigma[r * n + c]] for c in range(n)) for r in range(n))
                assert sides[moved] == got, (m.name, matrix, sigma)
            parts = [sides[tuple(tuple(ep * v % d for v, d in zip(row, m.moduli))
                                 for row in matrix)] for ep in _crt_idempotents(exponent)]
            assert got == tuple(all(side) for side in zip(*parts)), (m.name, matrix)
            assert got[0] == got[1] or any(a != b for a, b in parts), (m.name, matrix)
        seen["permuted"] += power >= 2
        seen["split"] += len(primes) >= 2
    assert seen["permuted"] >= 5 and seen["split"] >= 5, seen


@undecided_on_cap
def _idempotents_commute_with_units(m, caps):
    """Reference: every idempotent of End(M) against every unit, each unit
    found by ``rings.is_unit``."""
    ring = homs.end_ring(m)
    units = [u for u in rings.enumerate_elements(ring, caps.homs) if rings.is_unit(u)]
    for e in rings.idempotents(ring, caps.homs):
        for u in units:
            if (e * u).coords != (u * e).coords:
                return Verdict.no(witness=(e, u), reason="idempotent/unit do not commute")
    return Verdict.yes()


@undecided_on_cap
def _im_plus_ker_always_full(m, caps):
    """Reference: the first endomorphism φ, in ``iter_homs`` order, with
    Im φ + Ker φ ≠ M."""
    full = lambda ker, im: modules.submodule_sum(im, ker).order() == m.size()
    f = _first_failure(lab.end_homs(m, caps.homs), full)
    return Verdict.yes() if f is None else Verdict.no(witness=f, reason="Im + Ker proper")


@undecided_on_cap
def _unit_converses_reference(m, caps, central=None):
    """Reference: ``check_unit_converses`` deciding its hypotheses on its
    own, by the Ker + Im sweep above and by ``central`` (default
    ``lab.idempotents_central_in_end``), not through the abelian routes."""
    central = central or lab.idempotents_central_in_end

    def conclusion():
        hyps = (_im_plus_ker_always_full(m, caps), central(m, caps))
        if not any(h.value for h in hyps):
            for h in hyps:
                h.require()
            return Verdict.yes(reason="vacuous: no converse hypothesis holds")
        if not lab.is_abelian_endoregular(m, caps).require():
            raise InternalInconsistency(f"{m.name}: a converse hypothesis holds, "
                                        "but it is not abelian endoregular")
        return Verdict.yes()

    return implies(lab.is_unit_endoregular(m, caps), conclusion)


def _unit_converses_both_ways(m, caps):
    """``check_unit_converses`` on m, and the reference, as observed."""
    got = lab.check_unit_converses(m, caps)
    return _observable(got), _observable(_unit_converses_reference(m, caps))


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_unit_converses_equal_the_check_deciding_its_own_hypotheses(caps):
    """Read from the abelian routes, the converse hypotheses give the same
    value, reason and witness as the Ker + Im sweep and the central
    idempotents of End(M), on the Ker/Im corpus; under the default caps the
    check both holds with a hypothesis and holds vacuously."""
    reasons = collections.Counter()
    for m in _powers(_cap_corpus() + _memo_corpus() + _power_blocks(), CAPS.homs):
        got, want = _unit_converses_both_ways(m, caps)
        assert got == want, (m.name, got, want)
        reasons[got[:2]] += 1
    vacuous = (True, "vacuous: no converse hypothesis holds")
    assert caps != CAPS or (reasons[True, ""] >= 5 and reasons[vacuous] >= 5), reasons


@pytest.mark.parametrize("caps", (CAPS,) + TIGHT_CAPS, ids=str)
def test_central_idempotents_equal_idempotents_commuting_with_units(caps):
    """The two readings of the unit hypothesis agree, and so does every
    ``check_unit_converses`` record built on either of them."""
    corpus = _cap_corpus() + _memo_corpus()
    false = 0
    for m in corpus:
        got = lab.idempotents_central_in_end(m, caps)
        want = _idempotents_commute_with_units(m, caps)
        assert got.value == want.value, m.name
        assert got.decided or got.reason == want.reason, m.name
        false += got.value is False
        converse = _unit_converses_reference(m, caps, _idempotents_commute_with_units)
        assert _observable(lab.check_unit_converses(m, caps)) == _observable(converse), m.name
    assert caps != CAPS or false >= 5, false


def test_analyze_computes_the_abelian_routes_once(monkeypatch):
    calls = []
    ker_im = lab.abelian_route_ker_im

    def counted(m, caps):
        calls.append(m.name)
        return ker_im(m, caps)

    monkeypatch.setattr(lab, "abelian_route_ker_im", counted)
    m = modules.regular_module(z(6), name="route-count-probe")
    rep = lab.analyze("probe", m, CAPS)
    assert calls == ["route-count-probe"]
    assert tuple(rep.routes.values()) == lab.abelian_endoregular_routes(m, CAPS)
    assert rep.properties["abelian endoregular"].value is True


def test_analyze_report():
    rep = lab.analyze("e1R", e1R(), CAPS)
    assert rep.end_size == 2
    assert rep.radical_order == 2
    assert rep.properties["abelian endoregular"].value is True
    assert rep.properties["subdirect product of simples"].value is False
    assert len(rep.spec) == 1
    lines = rep.lines()
    assert any("abelian endoregular: true" in ln for ln in lines)


# ---------------------------------------------------------------------------
# The route memo
# ---------------------------------------------------------------------------


def _memoized(namespace):
    return [
        f for f in vars(namespace).values()
        if hasattr(f, "__wrapped__") and f.__module__ == namespace.__name__
    ]


def _observable(v):
    """Everything of a verdict, or of a tuple of route verdicts, that reaches
    the output stream, names included."""
    if isinstance(v, bool):
        return v
    if isinstance(v, tuple):
        return tuple(_observable(route) for route in v)
    return v.value, v.reason, workspace.to_jsonable(v.witness)


def _memo_corpus():
    zn = [modules.regular_module(z(n), name=f"Z/{n}") for n in range(2, 13)]
    m2 = modules.regular_module(rings.matrix_ring_presentation(2, 2))
    randoms = [mem.module for mem in workspace.random_modules(12, 7, Caps())]
    return zn + [m2, plane()] + randoms


def test_memo_answers_equal_fresh_computation_in_either_order():
    module_routes = _memoized(lab)
    ring_routes = _memoized(rings)
    assert {f.__name__ for f in module_routes} == {
        "_endoregular_via_summands", "abelian_endoregular_routes"}
    assert {f.__name__ for f in ring_routes} == {"is_regular", "is_abelian_regular"}
    corpus = _memo_corpus()
    for order in (corpus, corpus[::-1]):
        for m in order:
            for f in module_routes:
                assert _observable(f(m, CAPS)) == _observable(f.__wrapped__(m, CAPS)), f
            ring = homs.end_ring(m)
            for f in ring_routes:
                got = f(ring, CAPS.homs)
                assert _observable(got) == _observable(f.__wrapped__(ring, CAPS.homs)), f
            for n in modules.enumerate_submodules(m, CAPS.submodules):
                got = modules.is_essential(n, CAPS.submodules)
                assert got == _is_essential_by_definition(n, CAPS.submodules)


def test_memo_keeps_equal_modules_with_different_names_apart():
    tight = Caps(homs=2)
    left = modules.regular_module(z(6), name="left")
    right = modules.regular_module(z(6), name="right")
    assert left == right
    for m, other in ((left, right), (right, left)):
        for f in (lab.is_endoregular, lab.is_abelian_endoregular):
            v = f(m, tight)
            assert v.value is None
            assert f"({m.name})" in v.reason
            assert other.name not in v.reason


# In a fresh process, analyze (Z/3)^3 and then (Z/3)^2 of the end-rings
# workspace, and print the details and witnesses of the (Z/3)^2 properties.
_ANALYZE_AFTER_A_LARGER_POWER = """
import json, sys
from endolab import lab, workspace
ws = workspace.parse_workspace(sys.argv[1])
for mid in ("(Z/3)^3", "(Z/3)^2"):
    report = lab.analyze(mid, ws.member(mid).module, ws.caps)
print(json.dumps([[v.reason, workspace.to_jsonable(v.witness)]
                  for v in report.properties.values()], ensure_ascii=False))
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "hom_group, end_ring, summand_test, is_m_generated, is_fully_invariant, "
    "enumerate_submodules and extract are cached by value, ignoring names, so "
    "they return objects named after an equal module that was analyzed first"))
def test_analyze_names_only_its_own_module():
    """The (Z/3)^2 report must not name (Z/3)^3, whose submodules extract to
    modules equal to (Z/3)^2.  The report of a fresh process names it 0
    times; after (Z/3)^3, 5 times."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workspaces",
                        "end-rings.json")
    src = os.path.dirname(os.path.dirname(lab.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _ANALYZE_AFTER_A_LARGER_POWER, path],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    if len(json.loads(out)) != len(lab.PROPERTY_FUNCS):
        pytest.fail("the report does not list every property")
    assert "(Z/3)^3" not in out


def test_memo_keys_on_caps():
    m = modules.regular_module(z(10), name="caps-probe")
    assert lab.is_endoregular(m, Caps()).value is True
    assert lab.is_endoregular(m, Caps(homs=2)).value is None
    assert lab.is_endoregular(m, Caps()).value is True


def test_memo_does_not_cache_exceptions(monkeypatch):
    calls = []

    def disagreeing_route(m, caps):
        calls.append(m.name)
        return Verdict.no(reason="forced disagreement")

    monkeypatch.setattr(lab, "_endoregular_via_summands", disagreeing_route)
    m = modules.regular_module(z(6), name="inconsistency-probe")
    for _ in range(2):
        with pytest.raises(InternalInconsistency):
            lab.is_endoregular(m, CAPS)
    assert calls == ["inconsistency-probe"] * 2


def _both(a, b):
    """Reference: the two-verdict conjunction that ``both`` replaced."""
    if a.value is False:
        return a
    if b.value is False:
        return b
    if a.value is True and b.value is True:
        return Verdict.yes()
    return Verdict.undecided(a.reason or b.reason)


def test_both_equals_the_pairwise_fold():
    pool = (Verdict.yes(), Verdict.no("w1", "r1"), Verdict.no("w2", "r2"),
            Verdict.undecided("a"), Verdict.undecided("b"))
    checked = 0
    for length in range(1, 5):
        for vs in itertools.product(pool, repeat=length):
            got, want = both(*vs), functools.reduce(_both, vs, Verdict.yes())
            assert (got.value, got.witness, got.reason) == (want.value, want.witness, want.reason), vs
            checked += 1
    assert checked == 5 + 25 + 125 + 625
    # a true part's reason is not an undecided conjunction's reason
    assert both(Verdict.yes("hypothesis fails"), Verdict.undecided("a")).reason == "a"


def test_route_disagreement_fails_with_its_message(monkeypatch):
    monkeypatch.setattr(
        lab, "abelian_route_ker_im", lambda m, caps: Verdict.no(reason="forced disagreement"))
    m = modules.regular_module(z(6), name="disagreement-probe")
    probe = lab.CorpusMember("probe", m)
    members_only = lab.theorem_suites([probe], CAPS).records
    report = lab.theorem_suites([probe], CAPS, families=[(probe, probe)])
    by_check = {r.check_id: r for r in report.records}
    for check_id in ("abelian-route-agreement", "five-way-agreement", "unit-converses"):
        rec = by_check[check_id]
        assert rec.status == "fail", check_id
        assert "independent routes disagree" in rec.detail, (check_id, rec.detail)
    # the family's check raises too, and is recorded after the member's
    assert len(members_only) == len(lab.MEMBER_CHECKS) == 15
    assert report.records[:15] == members_only
    family = report.records[15:]
    assert [(r.object_id, r.check_id, r.status) for r in family] == [
        ("probe+probe", "direct-sum-characterization", "fail")]
    assert "independent routes disagree" in family[0].detail, family[0].detail


def test_library_has_no_assert_statements():
    """Invariants raise InternalInconsistency: ``python -O`` strips asserts."""
    src = os.path.join(os.path.dirname(__file__), "..", "src", "endolab", "*.py")
    found = []
    for path in sorted(glob.glob(src)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
