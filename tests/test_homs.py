"""Hom groups, endomorphism rings, traces, products, summand testing."""

import collections
import itertools
import math
import operator
import os

import pytest

from endolab import homs, linalg, modules, rings, workspace
from endolab.homs import (
    end_ring,
    find_embedding,
    find_isomorphism,
    hom_group,
    image,
    is_fully_invariant,
    is_m_generated,
    kernel,
    kernel_and_image,
    product_from_images,
    product_images,
    summand_test,
    trace,
)
from endolab.verdicts import CapExceeded, Caps
from support import is_module_hom
from test_lab import PRIMARY_LOCAL, _cap_corpus, _memo_corpus, _power_blocks
from test_linalg import _structure_reference

CAP = 4096


def z(n):
    return rings.zmod_ring(n)


def reg(n):
    return modules.regular_module(z(n), name=f"Z{n}")


def e1R():
    r = modules.regular_module(
        rings.matrix_ring_presentation(2, 2, upper_triangular=True))
    inner, _ = modules.extract(modules.submodule_generated(r, [(1, 0, 0)]))
    return inner


def plane():
    m, _, _ = modules.direct_sum([reg(2), reg(2)])
    return m


def test_hom_group_sizes():
    assert hom_group(reg(6), reg(6)).size() == 6
    m4 = reg(4)
    q2, _ = modules.quotient(m4, modules.submodule_generated(m4, [(2,)]))
    assert hom_group(m4, q2).size() == 2
    assert hom_group(plane(), plane()).size() == 16
    # no homs between coprime cyclic groups beyond zero
    m6 = reg(6)
    s2, _ = modules.extract(modules.submodule_generated(m6, [(3,)]))
    s3, _ = modules.extract(modules.submodule_generated(m6, [(2,)]))
    assert hom_group(s2, s3).size() == 1


def test_all_homs_are_module_homs():
    for m in (reg(6), plane(), e1R()):
        hg = hom_group(m, m)
        for h in hg.iter_homs():
            assert is_module_hom(h)


def test_hom_coords_roundtrip():
    hg = hom_group(reg(12), reg(12))
    for h in hg.iter_homs():
        assert hg.from_coords(hg.coords_of(h)).matrix == h.matrix


def test_kernel_image_orders_multiply():
    for m in (reg(6), reg(12), plane(), e1R()):
        for h in hom_group(m, m).iter_homs():
            assert kernel(h).order() * image(h).order() == m.size()


def test_kernel_and_image_equal_the_separate_computations():
    pool = [mem.module for mem in workspace.random_modules(40, 7, Caps())]
    pool += [reg(12), plane(), e1R()]
    seen = 0
    for a, b in itertools.product(pool, repeat=2):
        if a.ring != b.ring or hom_group(a, b).size() > 256:
            continue
        for h in hom_group(a, b).iter_homs():
            assert kernel_and_image(h) == (kernel(h), image(h))
            seen += 1
    assert seen > 500


def test_end_ring_is_a_ring_and_matches_composition():
    for m in (reg(6), plane(), e1R()):
        ring, ends = end_ring(m), hom_group(m, m)
        ok, msg = rings.validate_ring(ring)
        assert ok, msg
        elems = rings.enumerate_elements(ring, CAP)
        for x in elems:
            for y in elems:
                lhs = ends.from_coords((x * y).coords)
                rhs = ends.from_coords(y.coords).then(ends.from_coords(x.coords))
                assert lhs.matrix == rhs.matrix


def test_end_ring_size_pin():
    assert end_ring(e1R()).size() == 2
    assert end_ring(plane()).size() == 16


def test_trace_is_fully_invariant():
    for m in (reg(12), plane(), e1R()):
        for n in modules.enumerate_submodules(m, 512):
            inner, _ = modules.extract(n)
            t = trace(inner, m)
            assert is_fully_invariant(t)


def test_m_generated_trace_criterion():
    m = reg(12)
    for n in modules.enumerate_submodules(m, 512):
        # over a commutative principal ring, every submodule is a trace image
        assert is_m_generated(n)
    p = plane()
    for n in modules.enumerate_submodules(p, 512):
        assert is_m_generated(n)
    # e1R has a submodule that is not e1R-generated: its radical
    mm = e1R()
    rad = modules.radical(mm, 512)
    assert not is_m_generated(rad)


def _product(k, l):
    """K_M L as ``lab.ProductTable`` reads it: from the images of K."""
    return product_from_images(product_images(k), l)


def test_product_matches_ideal_product_in_z12():
    m = reg(12)
    sub = lambda k: modules.submodule_generated(m, [(k,)])
    assert _product(sub(2), sub(3)).gens == sub(6).gens
    assert _product(sub(2), sub(2)).gens == sub(4).gens
    assert _product(sub(3), sub(3)).gens == sub(9 % 12).gens


def test_summand_test_fixture_z6():
    m = reg(6)
    two = modules.submodule_generated(m, [(2,)])
    proj = summand_test(two)
    assert proj is not None
    assert proj.then(proj).matrix == proj.matrix
    assert image(proj).gens == two.gens


def test_summand_test_rejects_nonsummand():
    m = reg(4)
    two = modules.submodule_generated(m, [(2,)])
    assert summand_test(two) is None


def _summand_oracle_modules():
    z4 = z(4)
    yield reg(12)
    yield reg(8)
    yield modules.regular_module(rings.matrix_ring_presentation(2, 2))
    yield modules.regular_module(
        rings.matrix_ring_presentation(2, 4, upper_triangular=True))
    yield modules.FiniteModule(ring=z4, moduli=(2, 4), action=(((1, 0), (0, 1)),),
                               name="Z2+Z4")
    yield modules.direct_sum([reg(2)] * 3)[0]


def _complements(n, subs):
    """The K among ``subs`` with N ∩ K = 0 and N + K = M."""
    return [k for k in subs
            if modules.submodule_intersect(n, k).is_zero() and modules.submodule_sum(n, k).is_full()]


def _summand_disagreements(m):
    """The submodules of m on which ``summand_test``, computed afresh, and
    the complement search disagree."""
    subs = modules.enumerate_submodules(m, 512)
    return [n for n in subs
            if (summand_test.__wrapped__(n) is not None) != bool(_complements(n, subs))]


def test_summand_test_matches_complement_search():
    # N is a summand iff some submodule K has N ∩ K = 0 and N + K = M; then
    # M = N ⊕ K, so each such K is a summand too.
    for m in _summand_oracle_modules():
        subs = modules.enumerate_submodules(m, 512)
        for n in subs:
            complements = _complements(n, subs)
            proj = summand_test(n)
            assert (proj is not None) == bool(complements), (m.name, n.gens)
            for k in complements:
                assert summand_test(k) is not None, (m.name, n.gens, k.gens)
            if proj is not None:
                assert proj.then(proj).matrix == proj.matrix
                assert image(proj).gens == n.gens


def test_azumaya_fixture_z4():
    # multiplication by 2 has no quasi-inverse and non-summand kernel
    m = reg(4)
    h = modules.ModuleHom(m, m, ((2,),))
    x = end_ring(m).element(hom_group(m, m).coords_of(h))
    assert rings.regularity_witness(x) is None
    assert summand_test(kernel(h)) is None


def test_find_isomorphism_and_embedding():
    m6 = reg(6)
    s2a, _ = modules.extract(modules.submodule_generated(m6, [(3,)]))
    s2b, _ = modules.extract(modules.submodule_generated(m6, [(3,)]))
    iso = find_isomorphism(s2a, s2b, CAP)
    assert iso is not None
    assert find_isomorphism(s2a, m6, CAP) is None
    emb = find_embedding(s2a, m6, CAP)
    assert emb is not None
    assert kernel(emb).is_zero()


def _first_injective_of_iter_homs(a, b, cap):
    """Reference: list every hom under the cap and take the first injective
    one in ``iter_homs`` order."""
    if a.size() > b.size() or b.size() % a.size():
        return None
    g = hom_group(a, b)
    if g.size() > cap:
        raise CapExceeded(g.size(), cap, "homomorphisms")
    return next((h for h in list(g.iter_homs()) if kernel(h).order() == 1), None)


def _embedding_outcome(find, a, b, cap):
    try:
        h = find(a, b, cap)
    except CapExceeded as exc:
        return "cap", exc.total, exc.cap, exc.what
    return None if h is None else h.matrix


def test_find_embedding_equals_the_first_injective_hom_of_iter_homs():
    z4 = reg(4)
    z2_over_z4, _ = modules.quotient(z4, modules.submodule_generated(z4, [(2,)]))
    pool = [reg(2), z4, z2_over_z4, modules.direct_sum([z2_over_z4, z4])[0],
            reg(6), reg(12), plane(), e1R()]
    pool += [mem.module for mem in workspace.random_modules(40, 7, Caps())]
    kinds = collections.Counter()
    for (a, b), cap in itertools.product(itertools.product(pool, repeat=2), (16, CAP)):
        if a.ring != b.ring:
            continue
        want = _embedding_outcome(_first_injective_of_iter_homs, a, b, cap)
        assert _embedding_outcome(find_embedding, a, b, cap) == want, (a.name, b.name, cap)
        kinds["none" if want is None else "cap" if want[:1] == ("cap",) else "found"] += 1
    assert kinds["none"] and kinds["cap"] and kinds["found"], kinds


def test_fully_invariant_fixtures():
    p = plane()
    lines = [n for n in modules.enumerate_submodules(p, 512) if n.order() == 2]
    assert len(lines) == 3
    assert all(not is_fully_invariant(line) for line in lines)
    m = reg(12)
    assert all(is_fully_invariant(n) for n in modules.enumerate_submodules(m, 512))


# ---------------------------------------------------------------------------
# The odometer walk and the unit-scalar orbits, against from_coords
# ---------------------------------------------------------------------------

ROOT = os.path.join(os.path.dirname(__file__), "..")
WORKSPACES = ("workspaces/demo.json", "workspaces/tight-caps.json",
              "perfbench/workspaces/families.json", "perfbench/workspaces/search.json",
              "perfbench/workspaces/end-rings.json")


def _workspace_modules(paths):
    """The modules and corpus members of the workspaces."""
    found = []
    for path in paths:
        ws = workspace.parse_workspace(os.path.join(ROOT, path))
        found += list(ws.modules.values())
        found += [mem.module for corpus in ws.corpora.values() for mem in corpus]
    return found


@pytest.fixture(scope="module")
def corpus_modules():
    """The workspace modules and corpus members and the random modules of
    seeds 7 and 11, each once."""
    found = _workspace_modules(WORKSPACES)
    for seed in (7, 11):
        found += [mem.module for mem in workspace.random_modules(40, seed, Caps())]
    return list(dict.fromkeys(found))


@pytest.fixture(scope="module")
def orbit_groups(corpus_modules):
    """End(M) and End(M ⊕ M) of size <= 4096 for the corpus modules."""
    groups = []
    for m in corpus_modules:
        square = modules.direct_sum([m, m])[0]
        groups += [hom_group(m, m), hom_group(square, square)]
    return [g for g in dict.fromkeys(groups) if g.size() <= CAP]


def _all_coords(g):
    return list(itertools.product(*(range(o) for o in g.orders)))


def _orbit_leaders(g):
    """coords -> the least member, in lexicographic order, of its orbit
    under the units mod the exponent of the codomain."""
    e = math.lcm(*g.codomain.moduli)
    units = [u for u in range(1, e + 1) if math.gcd(u, e) == 1]
    return {
        c: min(tuple(u * x % o for x, o in zip(c, g.orders)) for u in units)
        for c in _all_coords(g)
    }


def test_iter_homs_equals_from_coords_in_product_order(orbit_groups):
    for g in orbit_groups:
        assert list(g.iter_homs()) == [g.from_coords(c) for c in _all_coords(g)]


def test_orbit_representatives_are_the_orbit_leaders(orbit_groups):
    total = reps = 0
    for g in orbit_groups:
        leaders = _orbit_leaders(g)
        homs_at = {c: g.from_coords(c) for c in leaders}
        coords_of = {h.matrix: c for c, h in homs_at.items()}
        got = [coords_of[h.matrix] for h in g.iter_orbit_representatives()]
        assert got == sorted(set(leaders.values()))
        leader_ker_im = {c: kernel_and_image(homs_at[c]) for c in got}
        for c, leader in leaders.items():
            assert kernel_and_image(homs_at[c]) == leader_ker_im[leader], (g, c)
        total += len(leaders)
        reps += len(got)
    assert reps < total


def _first_failure(hs, predicate):
    return next((h for h in hs if not predicate(*kernel_and_image(h))), None)


@pytest.mark.parametrize("predicate", [
    lambda ker, im: im.is_zero() or im.is_full(),
    lambda ker, im: ker.is_zero() or ker.order() * 2 > ker.ambient.size(),
], ids=["image-trivial", "kernel-zero-or-large"])
def test_orbit_sweep_finds_the_first_failure_of_the_full_sweep(orbit_groups, predicate):
    failures = 0
    for g in orbit_groups:
        want = _first_failure(g.iter_homs(), predicate)
        assert _first_failure(g.iter_orbit_representatives(), predicate) == want, g
        failures += want is not None
    assert failures > 10


def test_orbit_sweep_over_z2_yields_every_hom():
    cube = modules.direct_sum([plane(), reg(2)])[0]
    for m in (reg(2), plane(), cube):
        g = hom_group(m, m)
        assert list(g.iter_orbit_representatives()) == list(g.iter_homs())
        assert len(list(g.iter_homs())) == g.size()


# ---------------------------------------------------------------------------
# Primary parts, against the CRT idempotents
# ---------------------------------------------------------------------------


def _crt_idempotent(p, e):
    """e_p: 1 mod the p-part of e, 0 mod the rest of e."""
    q = 1
    while e % (q * p) == 0:
        q *= p
    rest = e // q
    return rest * pow(rest, -1, q) % e


def _smallest_prime(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


@pytest.fixture(scope="module")
def primary_groups(orbit_groups):
    sum_2_3 = modules.direct_sum([
        modules.extract(modules.submodule_generated(reg(6), [(k,)]))[0] for k in (3, 2)
    ])[0]
    extra = []
    for m in (reg(6), reg(12), reg(30), sum_2_3):
        square = modules.direct_sum([m, m])[0]
        extra += [hom_group(m, m), hom_group(square, square)]
    return list(dict.fromkeys(orbit_groups + extra))


def test_primary_parts_are_the_crt_images(primary_groups):
    multi_prime = 0
    for g in primary_groups:
        parts = g.primary_parts()
        assert math.prod(part.size() for part in parts) == g.size(), g.orders
        by_prime = {_smallest_prime(math.lcm(*part.orders)): part for part in parts if part.orders}
        assert len(by_prime) == len(parts) or g.size() == 1
        e = math.lcm(*g.codomain.moduli)
        moduli = g.codomain.moduli * g.domain.rank
        primes = [p for p in range(2, e + 1) if e % p == 0 and _smallest_prime(p) == p]
        idempotents = {p: _crt_idempotent(p, e) for p in primes}
        # per prime, one lookup table of v -> e_p * v mod d per coordinate
        tables = {p: [[e_p * v % d for v in range(d)] for d in moduli]
                  for p, e_p in idempotents.items()}
        images = {p: set() for p in idempotents}
        # the flattened matrices of iter_homs, without building each hom
        for flat in g._odometer():
            for p, table in tables.items():
                images[p].add(tuple(map(operator.getitem, table, flat)))
        for p, want in images.items():
            part = by_prime.get(p)
            got = {(0,) * len(moduli)}  # e_p·H = 0 when p does not divide |H|
            if part:
                got = {tuple(v for row in h.matrix for v in row) for h in part.iter_homs()}
            assert got == want, (g.orders, p)
        multi_prime += len(parts) > 1
    assert multi_prime >= 8


# ---------------------------------------------------------------------------
# Powers of a block and their block permutations
# ---------------------------------------------------------------------------


def _module(ring, moduli, action):
    m = modules.FiniteModule(ring, tuple(moduli), tuple(tuple(map(tuple, a)) for a in action))
    assert modules.validate_module(m) == (True, "")
    return m


@pytest.fixture(scope="module")
def blocks():
    """Modules that are no power of a smaller one: the rank-2 blocks of the
    held-out powers workspace, Z/2 ⊕ Z/4 over Z/4, and Z/n for a few n."""
    ws = workspace.parse_workspace(os.path.join(ROOT, "workspaces/held-out-powers.json"))
    z4 = reg(4)
    z2, _ = modules.quotient(z4, modules.submodule_generated(z4, [(2,)]))
    return list(ws.modules.values()) + [modules.direct_sum([z2, z4])[0], reg(2), reg(6)]


@pytest.fixture(scope="module")
def unequal_blocks():
    """Block-diagonal modules with repeating moduli that are no power: the
    blocks differ, or the diagonal blocks agree but an off-diagonal entry
    is nonzero."""
    ws = workspace.parse_workspace(os.path.join(ROOT, "workspaces/held-out-powers.json"))
    dual, split = ws.rings["f2-dual"], ws.rings["f2xf2"]
    one = [[int(i == j) for j in range(4)] for i in range(4)]
    return [
        # F2[x]/(x²) ⊕ (F2)², x acting as J on the first block and as 0 on the second
        _module(dual, [2] * 4, [one, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]),
        # (F2 × F2) ⊕ (F2 × F2) with the factors of the second copy swapped
        _module(split, [2] * 4, [[[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
                                 [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]]),
        # equal diagonal blocks J, J joined by the identity above the diagonal
        _module(dual, [2] * 4, [one, [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]]]),
    ]


def test_block_power_counts_the_copies_of_a_block(blocks, unequal_blocks):
    for b in blocks:
        assert homs.block_power(b) == 1, b.name
        for k in (2, 3, 4):
            assert homs.block_power(modules.direct_sum([b] * k)[0]) == k, (b.name, k)
    for m in unequal_blocks:
        assert homs.block_power(m) == 1, m.action
        assert homs.block_permutations(m, two_sided=True) == []
    # a power of a power counts every copy
    assert homs.block_power(modules.direct_sum([plane(), plane()])[0]) == 4


def _permuted(flat, sigma):
    return tuple(flat[i] for i in sigma)


def test_block_permutations_commute_with_every_action_matrix(blocks):
    """Each σ sends F to P·F·Q for block permutations P, Q.  With
    Π = σ(1) = P·Q, σ(ρ) = Π·ρ = ρ·Π for every action matrix ρ exactly when
    P and Q commute with ρ; Π = 1 for a conjugation.  σ also maps each
    generator of End to an endomorphism."""
    for b in blocks:
        for k in (2, 3):
            m = modules.direct_sum([b] * k)[0]
            n = m.rank
            flat = lambda mat: tuple(v for row in mat for v in row)
            unflat = lambda v: tuple(tuple(v[r * n:(r + 1) * n]) for r in range(n))
            one = flat(modules.identity_hom(m).matrix)
            gens = hom_group(m, m).gens
            for two_sided in (False, True):
                perms = homs.block_permutations(m, two_sided)
                assert len(perms) == math.factorial(k) ** (1 + two_sided) - 1
                products = set()
                for sigma in perms:
                    pi = unflat(_permuted(one, sigma))
                    assert sorted(pi) == sorted(unflat(one))
                    for rho in m.action:
                        got = unflat(_permuted(flat(rho), sigma))
                        assert got == linalg.mat_mul(pi, rho) == linalg.mat_mul(rho, pi)
                    for g in gens:
                        moved = modules.ModuleHom(m, m, unflat(_permuted(flat(g.matrix), sigma)))
                        assert is_module_hom(moved), (b.name, k, sigma)
                    products.add(pi)
                assert len(products) == (math.factorial(k) if two_sided else 1)


# ---------------------------------------------------------------------------
# The sweep table, shared by sweeps, against fresh groups
# ---------------------------------------------------------------------------


def _fresh(g):
    """A copy of g, a group of ``hom_group``, with an empty sweep table."""
    return homs.HomGroup(g.domain, g.codomain, g.span)


def test_sweeps_sharing_a_table_read_as_sweeps_of_fresh_groups():
    """End(M) and End(M ⊕ M) over the corpus of the Ker/Im routes, swept
    twice through one table by both permutation groups in both orders:
    first three representatives of a group, then the first failure of each
    predicate that keeps to its orbits, which stops there, then every
    representative.  Each sweep meets what it meets in a fresh group, and
    each (Ker, Im) in the table is that of the hom with its matrix."""
    summands, complementary = (case[1] for case in PRIMARY_LOCAL)
    corpus = _cap_corpus() + _memo_corpus() + _power_blocks()
    ends = [hom_group(n, n) for m in corpus for n in (m, modules.direct_sum([m, m])[0])]
    stopped = resumed = 0
    for g in dict.fromkeys(e for e in ends if e.size() <= CAP):
        m = g.domain
        # each permutation group, the predicates constant on its orbits, and
        # what fresh groups meet
        groups = []
        for perms, predicates in (
            (homs.block_permutations(m, two_sided=True), [summands]),
            (homs.block_permutations(m, two_sided=False), [summands, complementary]),
        ):
            reps = list(_fresh(g).iter_orbit_representatives(perms))
            fails = [_fresh(g).first_failing(lambda f: p(*kernel_and_image(f)), perms)
                     for p in predicates]
            groups.append((perms, predicates, reps, fails))
        for order in (groups, groups[::-1]):
            shared = _fresh(g)
            for _ in range(2):
                for perms, predicates, reps, fails in order:
                    prefix = itertools.islice(shared.iter_orbit_representatives(perms), 3)
                    assert list(prefix) == reps[:3], (m.name, perms)
                    got = [shared.first_failing(lambda f: p(*shared.kernel_and_image(f)), perms)
                           for p in predicates]
                    assert got == fails, (m.name, perms)
                    stopped += any(f is not None for f in fails)
                for perms, _, reps, _ in order:
                    assert list(shared.iter_orbit_representatives(perms)) == reps, m.name
                    resumed += len(reps) > 3
            for matrix, ker_im in shared._ker_im.items():
                assert ker_im == kernel_and_image(modules.ModuleHom(m, m, matrix)), m.name
    assert stopped >= 20 and resumed >= 20, (stopped, resumed)


def _orbit_walk_to_the_end(g, perms):
    """Reference: the flat matrix of each orbit representative of g, in
    ``iter_homs`` order, by a walk that reads the odometer to its last hom."""
    exponent = math.lcm(*g.orders)
    units = [u for u in range(2, exponent) if math.gcd(u, exponent) == 1]
    moduli = g.codomain.moduli * g.domain.rank
    ahead = set()
    for flat in g._odometer():
        if flat in ahead:
            ahead.remove(flat)
            continue
        for image in [flat, *(_permuted(flat, sigma) for sigma in perms)]:
            ahead.add(image)
            ahead.update(tuple(u * v % d for v, d in zip(image, moduli)) for u in units)
        ahead.discard(flat)
        yield flat


def test_the_orbit_walk_meets_the_representatives_of_a_walk_to_the_end(monkeypatch):
    """Over the corpus of the sweep-table test, for both permutation groups:
    the walk yields every representative that a walk over all homs does, in
    the same order, and reads the odometer no further than its last
    representative, which on many groups comes before the last hom."""
    corpus = _cap_corpus() + _memo_corpus() + _power_blocks()
    ends = [hom_group(n, n) for m in corpus for n in (m, modules.direct_sum([m, m])[0])]
    odometer = homs.HomGroup._odometer
    reads = [0]

    def counted(self):
        for flat in odometer(self):
            reads[0] += 1
            yield flat

    monkeypatch.setattr(homs.HomGroup, "_odometer", counted)
    cut = 0
    for g in dict.fromkeys(e for e in ends if e.size() <= CAP):
        for two_sided in (True, False):
            perms = homs.block_permutations(g.domain, two_sided)
            want = list(_orbit_walk_to_the_end(g, perms))
            reads[0] = 0
            assert list(_fresh(g)._orbit_walk(tuple(perms))) == want, (g.domain.name, two_sided)
            last = next(i for i, flat in enumerate(odometer(g)) if flat == want[-1])
            assert reads[0] == last + 1, (g.domain.name, two_sided)
            cut += last + 1 < g.size()
    assert cut >= 40, cut


# ---------------------------------------------------------------------------
# The hom system, against the column-then-transpose builder
# ---------------------------------------------------------------------------


def _hom_system_by_columns(dom, cod):
    """Reference: the hom system built one equation (a column) at a time,
    then transposed so that the unknowns F[i][j] index the rows."""
    nd, nc = dom.rank, cod.rank
    columns, out_moduli = [], []
    for t in range(dom.ring.basis_count):
        for u in range(nd):
            for v in range(nc):
                col = [0] * (nd * nc)
                for i in range(nd):
                    col[i * nc + v] += dom.action[t][u][i]
                for j in range(nc):
                    col[u * nc + j] -= cod.action[t][j][v]
                columns.append(col)
                out_moduli.append(cod.moduli[v])
    for i in range(nd):
        for j in range(nc):
            col = [0] * (nd * nc)
            col[i * nc + j] = dom.moduli[i]
            columns.append(col)
            out_moduli.append(cod.moduli[j])
    rows = [[col[x] for col in columns] for x in range(nd * nc)]
    in_moduli = tuple(cod.moduli[j] for i in range(nd) for j in range(nc))
    return rows, tuple(out_moduli), in_moduli


def _kept_equations(rows, out_moduli):
    """Each equation of a hom system as (column reduced mod its modulus,
    modulus)."""
    return [(tuple(row[x] % d for row in rows), d) for x, d in enumerate(out_moduli)]


@pytest.fixture(scope="module")
def same_ring_pairs():
    """Every same-ring pair (336 of them) of the demo and benchmark
    workspace modules and corpus members and 120 random modules of seed 7."""
    found = _workspace_modules(("workspaces/demo.json", "perfbench/workspaces/families.json",
                                "perfbench/workspaces/search.json",
                                "perfbench/workspaces/end-rings.json"))
    found += [mem.module for mem in workspace.random_modules(120, 7, Caps())]
    return [(a, b) for a, b in itertools.product(dict.fromkeys(found), repeat=2)
            if a.ring == b.ring]


def test_hom_system_equals_the_column_then_transpose_builder(same_ring_pairs):
    """Over the same-ring pairs, the hom system has the kernel of the
    reference, keeps no equation that vanishes mod its modulus or repeats
    another, and is no wider.  In some pairs one column is kept under
    moduli 2 and 4, where the two equations differ."""
    under_2_and_4 = 0
    for a, b in same_ring_pairs:
        rows, out_moduli, in_moduli = homs._hom_system(a, b)
        ref_rows, ref_out_moduli, ref_in_moduli = _hom_system_by_columns(a, b)
        assert in_moduli == ref_in_moduli, (a.name, b.name)
        assert (linalg.kernel_subgroup(rows, out_moduli, in_moduli)
                == linalg.kernel_subgroup(ref_rows, ref_out_moduli, in_moduli)), (a.name, b.name)
        kept = _kept_equations(rows, out_moduli)
        assert all(any(col) for col, _ in kept), (a.name, b.name)
        assert len(set(kept)) == len(kept) <= len(ref_out_moduli), (a.name, b.name)
        moduli_of = collections.defaultdict(set)
        for col, d in kept:
            moduli_of[col].add(d)
        under_2_and_4 += any({2, 4} <= ds for ds in moduli_of.values())
    assert len(same_ring_pairs) >= 300, len(same_ring_pairs)
    assert under_2_and_4 >= 1


# ---------------------------------------------------------------------------
# Structure, the span and End(M), against their references
# ---------------------------------------------------------------------------


def test_structure_equals_its_reference_on_every_hom_kernel(same_ring_pairs):
    """On each same-ring pair the span of the hom group is the hom kernel
    and the canonical form of the generators built from it, and its
    structure equals the reference; over 100 spans have one row."""
    one_row = 0
    for a, b in same_ring_pairs:
        g = hom_group(a, b)
        moduli = g.codomain.moduli * g.domain.rank
        assert g.span == linalg.kernel_subgroup(*homs._hom_system(a, b)), (a.name, b.name)
        assert linalg.subgroup_structure(g.span, moduli) == _structure_reference(g.span, moduli)
        flat = [homs._flatten(h.matrix) for h in g.gens]
        assert linalg.subgroup_canonical_form(flat, moduli) == g.span, (a.name, b.name)
        one_row += len(g.span) == 1
    assert one_row >= 100, one_row


def test_structure_equals_its_reference_on_every_submodule_of_the_corpora(corpus_modules):
    """The corpus modules, those of the lab corpora and the blocks of the
    held-out powers workspace, each with every submodule."""
    seen = 0
    for m in dict.fromkeys(corpus_modules + _cap_corpus() + _memo_corpus() + _power_blocks()):
        try:
            subs = modules.enumerate_submodules(m, 512)
        except CapExceeded:
            continue
        for n in subs:
            assert (linalg.subgroup_structure(n.gens, m.moduli)
                    == _structure_reference(n.gens, m.moduli)), (m.name, n.gens)
            seen += 1
    assert seen >= 300, seen


def _end_ring_by_composition(m):
    """Reference: the structure constants and the one of End(m), each
    product composed as a ``ModuleHom`` and read by ``coords_of``."""
    g = hom_group(m, m)
    mul = tuple(tuple(g.coords_of(b.then(a)) for b in g.gens) for a in g.gens)
    return g.orders, mul, g.coords_of(modules.identity_hom(m)) if g.gens else ()


def test_end_ring_equals_its_composition_reference(corpus_modules):
    for m in corpus_modules:
        ring = end_ring(m)
        assert (ring.moduli, ring.mul, ring.one) == _end_ring_by_composition(m), m.name


def _split_over_the_basis(n):
    """Reference: n is a summand, by the solve over the invariant-factor
    generators of Hom(M, n) and their orders."""
    if n.is_zero() or n.is_full():
        return True
    inner, inc = modules.extract(n)
    g = hom_group(n.ambient, inner)
    rows = [homs._flatten(inc.then(h).matrix) for h in g.gens]
    target = homs._flatten(modules.identity_hom(inner).matrix)
    return linalg.solve_congruence_system(
        rows, target, inner.moduli * inner.rank, g.orders) is not None


def _trace_over_the_basis(source, target):
    rows = [row for h in hom_group(source, target).gens for row in h.matrix]
    return linalg.subgroup_canonical_form(rows, target.moduli)


def _product_over_the_basis(k, l):
    m = k.ambient
    inner, inc = modules.extract(k)
    rows = [h.then(inc).apply(x) for h in hom_group(m, inner).gens for x in l.gens]
    return linalg.subgroup_canonical_form(rows, m.moduli)


def test_span_readers_equal_their_basis_references(corpus_modules):
    """``summand_test``, ``trace``, ``is_m_generated`` and
    ``product_images`` read the span; through the invariant-factor
    basis they give the same booleans and canonical forms, on every
    submodule, and every pair of the first 12, of the corpus modules with
    at most 64 submodules."""
    answers = collections.Counter()
    for m in corpus_modules:
        try:
            subs = modules.enumerate_submodules(m, 64)
        except CapExceeded:
            continue
        for n in subs:
            split = _split_over_the_basis(n)
            assert (summand_test.__wrapped__(n) is not None) == split, (m.name, n.gens)
            inner, _ = modules.extract(n)
            t = _trace_over_the_basis(m, inner)
            assert trace(m, inner).gens == t, (m.name, n.gens)
            generated = linalg.subgroup_order(t, inner.moduli) == inner.size()
            assert is_m_generated.__wrapped__(n) == generated, (m.name, n.gens)
            answers[split, generated] += 1
        for k, l in itertools.product(subs[:12], repeat=2):
            assert _product(k, l).gens == _product_over_the_basis(k, l), (m.name, k, l)
            answers["product"] += 1
    # a summand is M-generated, so (True, False) cannot occur
    assert all(answers[a] for a in ((True, True), (False, True), (False, False))), answers
