"""Finite modules: validation, submodule lattices, quotients, extraction."""

import itertools
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endolab import linalg, modules, rings, workspace
from endolab.verdicts import CapExceeded, Caps
from support import is_module_hom, is_simple, zero_module
from test_lab import _memo_corpus

CAP = 512


def z(n):
    return rings.zmod_ring(n)


def reg(n):
    return modules.regular_module(z(n), name=f"Z{n}")


def ut2z2():
    return rings.matrix_ring_presentation(2, 2, upper_triangular=True)


def e1R():
    r = modules.regular_module(ut2z2(), name="UT2Z2")
    sub = modules.submodule_generated(r, [(1, 0, 0)])
    inner, _ = modules.extract(sub)
    return inner


def small_fixture_modules():
    v4, _, _ = modules.direct_sum([reg(2), reg(2)])
    return [reg(2), reg(4), reg(6), reg(12), v4, e1R(),
            modules.regular_module(ut2z2())]


def test_validate_builtin_modules():
    for m in small_fixture_modules():
        ok, msg = modules.validate_module(m)
        assert ok, msg


def test_validate_rejects_broken_action():
    # action that ignores the ring identity
    m = modules.FiniteModule(ring=z(4), moduli=(4,), action=(((2,),),))
    ok, msg = modules.validate_module(m)
    assert not ok
    assert msg


def test_zero_module():
    zm = zero_module(z(6))
    assert zm.size() == 1
    assert zm.moduli == ()
    ok, _ = modules.validate_module(zm)
    assert ok


def test_direct_sum_embeddings_and_projections():
    m6 = reg(6)
    s2, _ = modules.extract(modules.submodule_generated(m6, [(3,)]))
    s3, _ = modules.extract(modules.submodule_generated(m6, [(2,)]))
    m, embs, projs = modules.direct_sum([s2, s3])
    assert m.size() == 6
    for k, (e, p) in enumerate(zip(embs, projs)):
        assert is_module_hom(e)
        assert is_module_hom(p)
        comp = e.then(p)
        assert comp.matrix == modules.identity_hom(e.domain).matrix
    # mixed projection is zero
    assert embs[0].then(projs[1]).is_zero()


def test_submodule_counts_z12():
    subs = modules.enumerate_submodules(reg(12), CAP)
    # one submodule per divisor of 12
    assert len(subs) == 6
    orders = sorted(s.order() for s in subs)
    assert orders == [1, 2, 3, 4, 6, 12]


def test_submodule_counts_plane():
    v4, _, _ = modules.direct_sum([reg(2), reg(2)])
    subs = modules.enumerate_submodules(v4, CAP)
    # 0, three lines, the plane
    assert len(subs) == 5


def test_quotient_order_multiplicativity():
    for m in small_fixture_modules():
        for n in modules.enumerate_submodules(m, CAP):
            q, proj = modules.quotient(m, n)
            assert n.order() * q.size() == m.size()
            assert is_module_hom(proj)
            ok, msg = modules.validate_module(q)
            assert ok, msg


def test_extract_preserves_order_and_inclusion():
    for m in small_fixture_modules():
        for n in modules.enumerate_submodules(m, CAP):
            inner, incl = modules.extract(n)
            assert inner.size() == n.order()
            assert is_module_hom(incl)
            got = {incl.apply(x) for x in inner.elements()}
            assert got == set(n.elements())


def test_radical_socle_fixtures():
    assert modules.radical(reg(12), CAP).order() == 2   # <6>
    assert modules.socle(reg(12), CAP).order() == 6     # <2>
    assert modules.radical(reg(6), CAP).is_zero()
    assert modules.socle(reg(6), CAP).is_full()
    m = e1R()
    assert modules.radical(m, CAP).order() == 2
    assert not modules.radical(m, CAP).is_zero()


def test_simplicity():
    assert is_simple(reg(2), CAP)
    assert is_simple(reg(3), CAP)
    assert not is_simple(reg(4), CAP)
    assert not is_simple(zero_module(z(2)), CAP)


def test_essential_fixture():
    m = reg(4)
    two = modules.submodule_generated(m, [(2,)])
    assert modules.is_essential(two, CAP)
    m6 = reg(6)
    three = modules.submodule_generated(m6, [(3,)])
    assert not modules.is_essential(three, CAP)


def test_sum_intersect_lattice_identities():
    m = reg(12)
    subs = list(modules.enumerate_submodules(m, CAP))
    for a in subs:
        for b in subs:
            s = modules.submodule_sum(a, b)
            i = modules.submodule_intersect(a, b)
            assert s.contains_sub(a) and s.contains_sub(b)
            assert a.contains_sub(i) and b.contains_sub(i)
            assert s.order() * i.order() == a.order() * b.order()


def test_action_closure_of_generated_submodule():
    r = modules.regular_module(ut2z2())
    sub = modules.submodule_generated(r, [(0, 1, 0)])
    for x in sub.elements():
        for t in range(3):
            coords = tuple(1 if i == t else 0 for i in range(3))
            assert sub.contains(linalg.vec_mod(linalg.vec_mat(x, r.rho(coords)), r.moduli))


def _generated_by_closure(m, elems):
    """Reference: push the generators through every basis action matrix and
    re-canonicalize until the canonical form stops changing."""
    canon = linalg.subgroup_canonical_form([linalg.vec_mod(x, m.moduli) for x in elems], m.moduli)
    while True:
        rows = list(canon)
        for g in canon:
            for t in range(m.ring.basis_count):
                rows.append(linalg.vec_mod(linalg.vec_mat(g, m.action[t]), m.moduli))
        nxt = linalg.subgroup_canonical_form(rows, m.moduli)
        if nxt == canon:
            return modules.Submodule(m, canon)
        canon = nxt


def _generator_lists(m):
    """The empty list, every element, every pair and the whole module."""
    elements = list(m.elements())
    pairs = [list(p) for p in itertools.product(elements, repeat=2)]
    return [[]] + [[x] for x in elements] + pairs + [elements]


def _closure_corpus():
    return _memo_corpus() + [modules.regular_module(ut2z2()), e1R(), zero_module(z(6))]


def test_submodule_generated_equals_the_fixpoint_closure():
    for m in _closure_corpus():
        for elems in _generator_lists(m):
            want = _generated_by_closure(m, elems)
            assert modules.submodule_generated(m, elems) == want, (m.name, elems)


def test_socle_equals_the_sum_of_the_minimal_submodules_folded():
    for m in _closure_corpus():
        subs = modules.enumerate_submodules(m, CAP)
        acc = modules.zero_submodule(m)
        for s in subs:
            proper = [t for t in subs if not t.is_zero() and t != s]
            if not s.is_zero() and not any(s.contains_sub(t) for t in proper):
                acc = modules.submodule_sum(acc, s)
        assert modules.socle(m, CAP) == acc, m.name


# ---------------------------------------------------------------------------
# Submodules piece by piece over the central idempotents, against the sum
# closure over all of M and, on small modules, against element subsets
# ---------------------------------------------------------------------------

ROOT = os.path.join(os.path.dirname(__file__), "..")
WORKSPACES = ("workspaces/demo.json", "workspaces/held-out-zn12.json",
              "perfbench/workspaces/families.json", "perfbench/workspaces/search.json",
              "perfbench/workspaces/end-rings.json")


def _submodules_by_sum_closure(m, cap):
    """Reference: the cyclic submodules of all of M, closed under pairwise
    sums, with no split over the centre."""
    if m.size() > cap:
        raise CapExceeded(m.size(), cap, "module elements")
    seen = {(): modules.zero_submodule(m)}
    cyclic = []
    for x in m.elements():
        sub = modules.submodule_generated(m, [x])
        if sub.gens not in seen:
            seen[sub.gens] = sub
            cyclic.append(sub)
    frontier = list(cyclic)
    while frontier:
        fresh = []
        for a in frontier:
            for b in cyclic:
                s = modules.submodule_sum(a, b)
                if s.gens not in seen:
                    seen[s.gens] = s
                    fresh.append(s)
        frontier = fresh
    return tuple(sorted(seen.values(), key=lambda s: (s.order(), s.gens)))


def _submodules_by_subsets(m):
    """Oracle: every set of elements that holds 0 and is closed under + and
    under the action of each basis element."""
    zero = m.zero()
    rest = [x for x in m.elements() if x != zero]
    found = set()
    for keep in itertools.product((False, True), repeat=len(rest)):
        s = {zero, *itertools.compress(rest, keep)}
        if all(linalg.vec_mod([u + v for u, v in zip(a, b)], m.moduli) in s for a in s for b in s) and all(
                linalg.vec_mod(linalg.vec_mat(x, mat), m.moduli) in s for x in s for mat in m.action):
            found.add(frozenset(s))
    return found


def _lattice_corpus():
    """Every module and corpus member of the workspaces, the random modules
    of seed 11 and the base modules they are cut from."""
    found = []
    for path in WORKSPACES:
        ws = workspace.parse_workspace(os.path.join(ROOT, path))
        found += list(ws.modules.values())
        found += [mem.module for corpus in ws.corpora.values() for mem in corpus]
    found += [mem.module for mem in workspace.random_modules(300, 11, Caps())]
    for ring in workspace.RANDOM_RING_POOL:
        r = modules.regular_module(ring)
        found += [r, modules.direct_sum([r, r])[0]]
    return list(dict.fromkeys(found + _closure_corpus()))


def _submodules_or_cap(enumerate_, m):
    try:
        return enumerate_(m, CAP)
    except CapExceeded as exc:
        return str(exc)


def test_submodules_piece_by_piece_equal_the_sum_closure():
    split = 0
    for m in _lattice_corpus():
        got = _submodules_or_cap(modules.enumerate_submodules.__wrapped__, m)
        assert got == _submodules_or_cap(_submodules_by_sum_closure, m), m.name
        if m.size() <= CAP:
            pieces = modules.central_pieces(m, CAP)
            assert math.prod(piece.order() for piece in pieces) == m.size(), m.name
            split += len(pieces) > 1
    assert split >= 40


def test_submodules_of_small_modules_equal_the_closed_element_subsets():
    small = [m for m in _lattice_corpus() if m.size() <= 8]
    assert len(small) > 20
    for m in small:
        got = {frozenset(s.elements()) for s in modules.enumerate_submodules(m, CAP)}
        assert got == _submodules_by_subsets(m), m.name


def _maximal_and_radical_by_all_pairs(m):
    """Reference: the proper submodules that no other proper submodule
    contains, by membership alone over every pair, and their intersection."""
    proper = [s for s in modules.enumerate_submodules(m, CAP) if not s.is_full()]
    maxes = tuple(s for s in proper if not any(t != s and t.contains_sub(s) for t in proper))
    rad = modules.full_submodule(m)
    for s in maxes:
        rad = modules.submodule_intersect(rad, s)
    return maxes, rad


def test_maximal_submodules_and_radical_equal_the_all_pairs_scan():
    for m in _lattice_corpus():
        if m.size() <= CAP:
            got = modules.maximal_submodules(m, CAP), modules.radical(m, CAP)
            assert got == _maximal_and_radical_by_all_pairs(m), m.name


def _maximal_socle_radical_by_scans(m, cap):
    """Reference: the scans each call made before the lattice kept its
    tables.  The proper submodules that no proper one properly contains,
    the canonical form of the generators of the nonzero ones that properly
    contain no nonzero one, and the running meet of the first."""
    subs = modules.enumerate_submodules(m, cap)
    orders = [s.order() for s in subs]
    proper = list(zip(subs[:-1], orders[:-1]))
    maxes = tuple(s for s, o in proper
                  if not any(modules.properly_contains(t, s, ot, o) for t, ot in proper))
    nonzero = list(zip(subs[1:], orders[1:]))
    minimal = [s for s, o in nonzero
               if not any(modules.properly_contains(s, t, o, ot) for t, ot in nonzero)]
    rows = [g for s in minimal for g in s.gens]
    soc = modules.Submodule(m, linalg.subgroup_canonical_form(rows, m.moduli))
    if not maxes:
        return maxes, soc, modules.full_submodule(m)
    rad = maxes[0]
    for s in maxes[1:]:
        rad = modules.submodule_intersect(rad, s)
    return maxes, soc, rad


def _held_out_lattice_modules():
    """The modules of the held-out lattice and closure workspaces, whose
    lattices run to 26, 212 and 448 submodules, with their caps."""
    found = []
    for path in ("workspaces/held-out-lattices.json", "workspaces/held-out-closure.json"):
        ws = workspace.parse_workspace(os.path.join(ROOT, path))
        found += [(m, ws.caps.submodules) for m in ws.modules.values()]
    return found


def test_lattice_tables_equal_the_scans():
    """The maximal submodules, socle and radical kept on each lattice equal
    the scans, and ``maximal_submodules``, ``socle`` and ``radical`` read
    them from the lattice."""
    corpus = [(m, CAP) for m in _lattice_corpus() if m.size() <= CAP]
    held_out = _held_out_lattice_modules()
    assert max(len(modules.enumerate_submodules(m, cap)) for m, cap in held_out) == 448
    for m, cap in corpus + held_out:
        lattice = modules.enumerate_submodules(m, cap)
        assert (lattice.maximal, lattice.socle, lattice.radical) == (
            _maximal_socle_radical_by_scans(m, cap)), m.name
        assert modules.maximal_submodules(m, cap) is lattice.maximal
        assert modules.socle(m, cap) is lattice.socle
        assert modules.radical(m, cap) is lattice.radical


def test_enumerate_submodules_cap():
    with pytest.raises(CapExceeded):
        modules.enumerate_submodules(reg(12), cap=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), st.data())
def test_quotient_then_extract_sizes(n, data):
    m = reg(n)
    subs = modules.enumerate_submodules(m, CAP)
    sub = data.draw(st.sampled_from(list(subs)))
    q, _ = modules.quotient(m, sub)
    inner, _ = modules.extract(sub)
    assert q.size() * inner.size() == m.size()
