"""Decision procedures for module-level regularity and the theorem suites.

Every predicate that the theory characterizes in more than one way is
computed along every feasible route, and the routes are forced to agree;
a decided disagreement raises InternalInconsistency rather than being
resolved silently.  Enumeration caps turn into "undecided" verdicts, which
suites report as skips, never as passes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import linalg, rings
from .homs import (
    HomGroup,
    block_permutations,
    end_ring,
    find_embedding,
    find_isomorphism,
    hom_group,
    image,
    is_fully_invariant,
    is_m_generated,
    product_from_images,
    product_images,
    summand_test,
)
from .modules import (
    FiniteModule,
    ModuleHom,
    Submodule,
    SubmoduleLattice,
    coordinate_system,
    coordinates_in_subgroup,
    direct_sum,
    enumerate_submodules,
    extract,
    maximal_members,
    maximal_submodules,
    properly_contains,
    quotient,
    radical,
    socle,
    submodule_generated,
    submodule_intersect,
    submodule_sum,
    zero_submodule,
)
from .verdicts import (
    CapExceeded,
    Caps,
    InternalInconsistency,
    Verdict,
    agree,
    assuming,
    both,
    implies,
    memo,
    undecided_on_cap,
)


class NotFullyInvariant(ValueError):
    """Prime/semiprime tests require a proper fully invariant submodule."""


def end_homs(m: FiniteModule, cap: int) -> HomGroup:
    """End(m) as a hom group; raises CapExceeded past the cap, before any
    endomorphism is enumerated."""
    homs = hom_group(m, m)
    if homs.size() > cap:
        raise CapExceeded(homs.size(), cap, "endomorphisms")
    return homs


def first_essential_kernel_hom(homs: HomGroup, cap: int) -> Optional[ModuleHom]:
    """The first nonzero hom in ``iter_homs`` order whose kernel is
    essential, or None.

    A finite module's socle is its least essential submodule, so Ker f is
    essential iff f vanishes on Soc K: s @ f = 0 for every socle generator
    s, a congruence system linear in f's coordinates over the generators.

    ``iter_homs`` runs through the coordinates lexicographically.  The least
    nonzero member of a subgroup in that order is the last row of its
    canonical form: every member is zero before that row's pivot column, and
    there the least positive value is the pivot, taken by the row alone.
    """
    soc = socle(homs.domain, cap)
    rows = [tuple(v for s in soc.gens for v in g.apply(s)) for g in homs.gens]
    canon = linalg.kernel_subgroup(rows, homs.codomain.moduli * len(soc.gens), homs.orders)
    return homs.from_coords(canon[-1]) if canon else None


# ---------------------------------------------------------------------------
# Core predicates, route by route
# ---------------------------------------------------------------------------


def is_endoregular(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """End ring von Neumann regular; cross-checked against the kernel/image
    summand characterization.

    It keeps no memo: both routes, ``rings.is_regular`` and
    ``_endoregular_via_summands``, keep their own, so a repeated call only
    merges two remembered verdicts again, as ``is_abelian_endoregular``
    does, under a label that names the caller's module.
    """
    return agree(
        f"endoregular({m.name})",
        rings.is_regular(end_ring(m), caps.homs),
        _endoregular_via_summands(m, caps),
    )


@undecided_on_cap
def _sweep_ker_im(m: FiniteModule, caps: Caps, pred: Callable[[Submodule, Submodule], bool],
                  two_sided: bool, reason: str) -> Verdict:
    """"No" with the first endomorphism f, in ``iter_homs`` order, with
    ``pred(Ker f, Im f)`` false, else "yes": one ``HomGroup.first_failing``
    sweep of End(m) by ``block_permutations(m, two_sided)``.

    Each predicate passed here meets both conditions of ``first_failing``.
    Constant on the orbits: any predicate of (Ker f, Im f) is constant on
    the unit scalars.  For m = B^k each block permutation P is an
    automorphism of m, Ker(P·f·Q) = (Ker f)·P⁻¹ and Im(P·f·Q) = (Im f)·Q.
    Automorphisms keep summands, so ``_both_summands`` is constant on the
    two-sided orbits f -> P·f·Q.  ``_ker_im_complementary`` compares Ker f
    with Im f, so it needs the same automorphism on both sides and is
    constant on the conjugates P·f·P⁻¹.

    Primary-local, with e_p as in ``first_failing``: homs preserve primary
    components, so Ker(e_p·f) = (Ker f)_p ⊕ m_p′ and Im(e_p·f) = (Im f)_p,
    where m_p′ is the sum of the other primary components of m.  Being a
    summand and intersections split by primes, so each predicate holds at
    f iff it holds at e_p·f for every prime p, which is more than
    primary-local asks.  For ``_both_summands``, (Ker f)_p ⊕ m_p′ is a
    summand iff (Ker f)_p is, and (Im f)_p is one iff it is one of m_p.
    For ``_ker_im_complementary``, Ker(e_p·f) ∩ Im(e_p·f) =
    (Ker f ∩ Im f)_p.
    """
    homs = end_homs(m, caps.homs)
    phi = homs.first_failing(
        lambda f: pred(*homs.kernel_and_image(f)), block_permutations(m, two_sided))
    return Verdict.yes() if phi is None else Verdict.no(witness=phi, reason=reason)


@memo
def _endoregular_via_summands(m: FiniteModule, caps: Caps) -> Verdict:
    """Every endomorphism has summand kernel and image.  Memoized because
    every ``is_endoregular`` call reads it, and
    ``check_ker_im_summands_in_powers`` asks it of M ⊕ M, which is also the
    sum of a family (M, M)."""
    return _sweep_ker_im(m, caps, _both_summands, True, "kernel or image not a summand")


def _both_summands(ker: Submodule, im: Submodule) -> bool:
    """Ker and Im are both direct summands."""
    return summand_test(ker) is not None and summand_test(im) is not None


def azumaya_agreement(m: FiniteModule, caps: Caps) -> Verdict:
    """Per-endomorphism equivalence: quasi-inverse exists iff Ker and Im are
    direct summands.  True means zero disagreements over all of End(m).

    ``HomGroup.first_failing`` finds the first disagreement in
    ``iter_homs`` order, sweeping End(m), m = B^k, by the unit scalars and
    two-sided block permutations.  It may, because the agreement is constant
    on those orbits and primary-local.

    Constant on the orbits φ -> u·P·φ·Q, with u a unit scalar and P, Q
    block automorphisms: u·1, P and Q are units of R = End(m), and x is
    regular iff a·x·b is for units a, b: if x·y·x = x, then
    (a·x·b)(b⁻¹·y·a⁻¹)(a·x·b) = a·x·b, and back with a⁻¹, b⁻¹.
    Automorphisms keep summands, so Ker and Im stay summands or not.

    Primary-local: let e be the exponent of m and e_p the CRT idempotent
    integers.  They are central idempotents of R, so R = ∏_p e_p·R, and x
    is regular iff every e_p·x is regular in e_p·R, which is when e_p·x is
    regular in R (its other components are 0).  Ker(e_p·φ) =
    (Ker φ)_p ⊕ m_p′ and Im(e_p·φ) = (Im φ)_p, so both are summands iff the
    p-components of Ker φ and Im φ are.  If every e_p·φ agrees, then
    regularity and the summand test agree prime by prime, and so they agree
    at φ: a disagreement of φ shows at some e_p·φ.
    """
    ring, homs = end_ring(m), hom_group(m, m)
    if homs.size() > caps.homs:
        return Verdict.undecided(f"|End| = {homs.size()} exceeds hom cap {caps.homs}")

    def agrees(phi: ModuleHom) -> bool:
        regular = rings.regularity_witness(ring.element(homs.coords_of(phi))) is not None
        return regular == _both_summands(*homs.kernel_and_image(phi))

    phi = homs.first_failing(agrees, block_permutations(m, two_sided=True))
    if phi is None:
        return Verdict.yes()
    summands = _both_summands(*homs.kernel_and_image(phi))
    return Verdict.no(
        witness=phi,
        reason=f"quasi-inverse {'missing' if summands else 'exists'} but "
        f"summand checks say {summands}",
    )


def is_abelian_endoregular(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """Three routes: abelian regular End ring; M = Ker ⊕ Im for every
    endomorphism; endoregular with all M-generated submodules fully
    invariant.  All feasible routes must agree."""
    return agree(f"abelian_endoregular({m.name})", *abelian_endoregular_routes(m, caps))


ABELIAN_ROUTES = ("abelian via End ring", "abelian via Ker ⊕ Im", "abelian via fully invariant")


@memo
def abelian_endoregular_routes(m: FiniteModule, caps: Caps) -> tuple[Verdict, Verdict, Verdict]:
    """The verdicts of the three routes, named in ``ABELIAN_ROUTES``.

    Memoized here, not in ``is_abelian_endoregular``, so that ``analyze``
    reports the very verdicts that were merged.
    """
    return (
        rings.is_abelian_regular(end_ring(m), caps.homs),
        abelian_route_ker_im(m, caps),
        abelian_route_fully_invariant(m, caps),
    )


def abelian_route_ker_im(m: FiniteModule, caps: Caps) -> Verdict:
    return _sweep_ker_im(m, caps, _ker_im_complementary, False, "M != Ker ⊕ Im")


def _ker_im_complementary(ker: Submodule, im: Submodule) -> bool:
    """M = Ker ⊕ Im for an endomorphism: the two meet in 0.

    Im ≅ M/Ker, so |Ker|·|Im| = |M| always, and Ker + Im, of order
    |Ker|·|Im| / |Ker ∩ Im|, is M exactly when Ker ∩ Im = 0.
    """
    return submodule_intersect(ker, im).is_zero()


@undecided_on_cap
def abelian_route_fully_invariant(m: FiniteModule, caps: Caps) -> Verdict:
    endo = is_endoregular(m, caps)
    if not endo.require():
        return Verdict.no(witness=endo.witness, reason="not endoregular")
    return _first_movable(m_generated_submodules(m, caps), "movable M-generated submodule")


def _first_movable(subs: Iterable[Submodule], reason: str) -> Verdict:
    """"No" with the first of subs that is not fully invariant, else "yes":
    the one test of the fully invariant route, ``is_quasi_duo`` and
    ``is_duo``.  Lazy subs are tested only up to that first one."""
    movable = next((n for n in subs if not is_fully_invariant(n)), None)
    return Verdict.yes() if movable is None else Verdict.no(witness=movable, reason=reason)


def is_unit_endoregular(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    return rings.is_unit_regular(end_ring(m), caps.homs)


# ---------------------------------------------------------------------------
# Summand lattice
# ---------------------------------------------------------------------------


T = TypeVar("T", bound="LatticeTable")


class LatticeTable:
    """A table read off one submodule lattice, kept in its ``tables``.

    ``of(m, caps)`` reads the table of ``enumerate_submodules(m,
    caps.submodules)``, built the first time it is read.  A table is built
    from the lattice alone, and every test it makes of a member, such as
    ``summand_test`` or ``is_fully_invariant``, takes no cap.  So the table
    depends on nothing but the lattice's key (m, caps.submodules), and the
    one kept on the lattice answers every read with an equal key.
    """

    @classmethod
    def of(cls: type[T], m: FiniteModule, caps: Caps) -> T:
        lattice = enumerate_submodules(m, caps.submodules)
        table = lattice.tables.get(cls)
        if table is None:
            table = lattice.tables[cls] = cls(lattice)
        return table


class SummandLattice(LatticeTable):
    """The direct summands of a module and their pairwise sums and
    intersections, each computed the first time a test reads it, and the
    pairs and triples of summands in which none contains another.
    ``every_submodule`` says whether every submodule is a summand.

    ``summand_test`` takes no cap, so the table depends on the submodule
    lattice alone and is kept on it (``LatticeTable``)."""

    def __init__(self, lattice: SubmoduleLattice) -> None:
        self.summands = [n for n in lattice if summand_test(n) is not None]
        self.every_submodule = len(self.summands) == len(lattice)
        self.orders = [a.order() for a in self.summands]
        self._joins: dict[tuple[int, int], Submodule] = {}
        self._meets: dict[tuple[int, int], Submodule] = {}

    def join(self, i: int, j: int) -> Submodule:
        key = (min(i, j), max(i, j))
        if key not in self._joins:
            self._joins[key] = submodule_sum(self.summands[i], self.summands[j])
        return self._joins[key]

    def meet(self, i: int, j: int) -> Submodule:
        key = (min(i, j), max(i, j))
        if key not in self._meets:
            self._meets[key] = submodule_intersect(self.summands[i], self.summands[j])
        return self._meets[key]

    def _contains(self, i: int, j: int) -> bool:
        """Summand i properly contains summand j."""
        return properly_contains(self.summands[i], self.summands[j], self.orders[i], self.orders[j])

    def incomparable_pairs(self) -> Iterator[tuple[int, int]]:
        """The pairs i < j where neither summand contains the other, in
        ``itertools.combinations`` order."""
        pairs = itertools.combinations(range(len(self.summands)), 2)
        return ((i, j) for i, j in pairs if not (self._contains(i, j) or self._contains(j, i)))

    def incomparable_triples(self) -> Iterator[tuple[int, int, int]]:
        """The (i, j, k) with j < k and three pairwise incomparable
        summands, in the order of i, then ``itertools.combinations`` of j, k."""
        n = len(self.summands)
        contains = [[self._contains(i, j) for j in range(n)] for i in range(n)]
        comparable = [
            [i == j or contains[i][j] or contains[j][i] for j in range(n)] for i in range(n)
        ]
        for i, row in enumerate(comparable):
            free = [j for j, c in enumerate(row) if not c]
            for j, k in itertools.combinations(free, 2):
                if not comparable[j][k]:
                    yield i, j, k


def _pairs_combine_to_summands(m: FiniteModule, caps: Caps,
                               combine: Callable[[SummandLattice, int, int], Submodule],
                               reason: str) -> Verdict:
    """"No" with the first incomparable pair of summands whose ``combine``
    is not a summand, else "yes", which it is at once when every submodule
    is a summand."""
    lattice = SummandLattice.of(m, caps)
    if lattice.every_submodule:
        return Verdict.yes()
    for i, j in lattice.incomparable_pairs():
        if summand_test(combine(lattice, i, j)) is None:
            a, b = lattice.summands[i], lattice.summands[j]
            return Verdict.no(witness=(a, b), reason=reason)
    return Verdict.yes()


@undecided_on_cap
def has_ssp(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """Sum of any two direct summands is a direct summand.

    When every submodule is a summand, so is every sum, and SSP holds.
    Otherwise a pair where one summand contains the other has the larger
    one as its sum, a summand already, so only incomparable pairs are
    summed.
    """
    return _pairs_combine_to_summands(m, caps, SummandLattice.join, "sum of summands not a summand")


@undecided_on_cap
def has_sip(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """Intersection of any two direct summands is a direct summand.

    When every submodule is a summand, so is every intersection, and SIP
    holds.  Otherwise a pair where one summand contains the other has the
    smaller one as its intersection, a summand already, so only
    incomparable pairs are intersected.
    """
    return _pairs_combine_to_summands(
        m, caps, SummandLattice.meet, "intersection of summands not a summand")


@undecided_on_cap
def is_distributive_boolean(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """Summand lattice distributive (it is always complemented, so then
    Boolean): A ∩ (B + C) = (A ∩ B) + (A ∩ C) on every triple of summands.

    No complement is searched, since every summand A has one among the
    summands: ``summand_test(A)`` gives a projection p onto A, and
    B = Ker p = Im(1 − p) is a direct summand with M = A ⊕ B, that is
    |A|·|B| = |M| and A ∩ B = 0.

    The identity holds on every triple in which one summand contains
    another, so only pairwise incomparable triples are computed:

    - A ⊆ B: both sides are A.
    - B ⊆ A: both sides are B + (A ∩ C), by the modular law: B ⊆ A implies
      A ∩ (B + C) = B + (A ∩ C) (Anderson–Fuller, "Rings and Categories of
      Modules").
    - B ⊆ C: both sides are A ∩ C, since A ∩ B ⊆ A ∩ C.

    The identity is symmetric in B and C, which gives the other three
    cases, and it holds when B = C.  So the first failing triple of the
    product order has B before C, and since a skipped triple never fails,
    the incomparable triples with B before C find that same triple first.
    """
    lattice = SummandLattice.of(m, caps)
    summands = lattice.summands
    for i, j, k in lattice.incomparable_triples():
        lhs = submodule_intersect(summands[i], lattice.join(j, k))
        rhs = submodule_sum(lattice.meet(i, j), lattice.meet(i, k))
        if lhs.gens != rhs.gens:
            return Verdict.no(
                witness=(summands[i], summands[j], summands[k]), reason="distributivity fails"
            )
    return Verdict.yes()


# ---------------------------------------------------------------------------
# The five-way characterization of abelian endoregularity
# ---------------------------------------------------------------------------


def m_generated_submodules(m: FiniteModule, caps: Caps) -> Iterator[Submodule]:
    """Tested lazily: a caller that stops early tests no further submodule."""
    return (n for n in enumerate_submodules(m, caps.submodules) if is_m_generated(n))


@undecided_on_cap
def iso_equal(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """Isomorphic M-generated submodules are equal."""
    for a, b in itertools.combinations(m_generated_submodules(m, caps), 2):
        ea, _ = extract(a)
        eb, _ = extract(b)
        if find_isomorphism(ea, eb, caps.homs) is not None:
            return Verdict.no(witness=(a, b), reason="distinct isomorphic M-generated submodules")
    return Verdict.yes()


@undecided_on_cap
def no_double_embedding(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """No B ⊕ B embeds in M with B a nonzero M-generated submodule."""
    for b in m_generated_submodules(m, caps):
        if b.is_zero():
            continue
        eb, _ = extract(b)
        doubled, _, _ = direct_sum([eb, eb])
        if find_embedding(doubled, m, caps.homs) is not None:
            return Verdict.no(witness=b, reason="B ⊕ B embeds with B nonzero")
    return Verdict.yes()


@undecided_on_cap
def disjoint_hom_zero(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """Hom(A, B) = 0 for M-generated submodules with A ∩ B = 0."""
    for a, b in itertools.permutations(m_generated_submodules(m, caps), 2):
        if not submodule_intersect(a, b).is_zero():
            continue
        ea, _ = extract(a)
        eb, _ = extract(b)
        if hom_group(ea, eb).size() != 1:
            return Verdict.no(witness=(a, b), reason="nonzero hom between disjoint submodules")
    return Verdict.yes()


def five_way_conditions(m: FiniteModule, caps: Caps = Caps()) -> tuple[Verdict, ...]:
    """The five conditions that are equivalent on an endoregular module:
    abelian endoregular, iso_equal, no_double_embedding, disjoint_hom_zero
    and a Boolean summand lattice."""
    return (
        is_abelian_endoregular(m, caps),
        iso_equal(m, caps),
        no_double_embedding(m, caps),
        disjoint_hom_zero(m, caps),
        is_distributive_boolean(m, caps),
    )


# ---------------------------------------------------------------------------
# Prime and semiprime submodules
# ---------------------------------------------------------------------------


class ProductTable(LatticeTable):
    """The fully invariant submodules of a module, largest first (the
    witness search order), and their products K_M L, each computed the
    first time a test reads it.

    The images G·inc of Hom(M, K_i) in End(M) depend on K_i alone, so each
    row i forms them once, the first time a pair (i, ·) is multiplied, and
    every K_i M L of that row is read from them.

    ``is_fully_invariant``, ``product_images`` and ``product_from_images``
    take no cap, so the table depends on the submodule lattice alone and is
    kept on it (``LatticeTable``).
    """

    def __init__(self, lattice: SubmoduleLattice) -> None:
        self.fi = sorted((n for n in lattice if is_fully_invariant(n)),
                         key=lambda n: (-n.order(), n.gens))
        self._images: dict[int, list[linalg.IntMatrix]] = {}
        self._products: dict[tuple[int, int], Submodule] = {}

    def _product(self, i: int, j: int) -> Submodule:
        """K_i M K_j, from row i's images, computed on first read."""
        if (i, j) not in self._products:
            if i not in self._images:
                self._images[i] = product_images(self.fi[i])
            self._products[i, j] = product_from_images(self._images[i], self.fi[j])
        return self._products[i, j]

    def _first_inside(self, n: Submodule, diagonal: bool) -> Optional[tuple[Submodule, Submodule]]:
        """The search of both failures, in ``itertools.product`` order over the
        submodules outside n; the diagonal pairs each K with itself."""
        outside = [i for i, k in enumerate(self.fi) if not n.contains_sub(k)]
        pairs = zip(outside, outside) if diagonal else itertools.product(outside, repeat=2)
        for i, j in pairs:
            if n.contains_sub(self._product(i, j)):
                return self.fi[i], self.fi[j]
        return None

    def prime_failure(self, n: Submodule) -> Optional[tuple[Submodule, Submodule]]:
        """The first (K, L) with K ⊄ n, L ⊄ n and K_M L ⊆ n, or None."""
        return self._first_inside(n, diagonal=False)

    def semiprime_failure(self, n: Submodule) -> Optional[Submodule]:
        """The first K with K ⊄ n and K_M K ⊆ n, or None."""
        pair = self._first_inside(n, diagonal=True)
        return None if pair is None else pair[0]


@undecided_on_cap
def is_prime_in(n: Submodule, caps: Caps = Caps()) -> Verdict:
    """n proper fully invariant, and K_M L ⊆ n forces K ⊆ n or L ⊆ n for
    fully invariant K, L."""
    _require_proper_fully_invariant(n)
    pair = ProductTable.of(n.ambient, caps).prime_failure(n)
    if pair is not None:
        return Verdict.no(witness=pair, reason="product inside, factors outside")
    return Verdict.yes()


@undecided_on_cap
def is_semiprime_in(n: Submodule, caps: Caps = Caps()) -> Verdict:
    _require_proper_fully_invariant(n)
    k = ProductTable.of(n.ambient, caps).semiprime_failure(n)
    if k is not None:
        return Verdict.no(witness=k, reason="square inside, factor outside")
    return Verdict.yes()


def _require_proper_fully_invariant(n: Submodule) -> None:
    if n.is_full():
        raise NotFullyInvariant("prime/semiprime submodules must be proper")
    if not is_fully_invariant(n):
        raise NotFullyInvariant("submodule is not fully invariant")


def spec_of(m: FiniteModule, caps: Caps = Caps()) -> list[Submodule]:
    """All prime submodules of m, read from its product table."""
    table = ProductTable.of(m, caps)
    return [n for n in table.fi if not n.is_full() and table.prime_failure(n) is None]


# ---------------------------------------------------------------------------
# Duo, subdirect products, singularity
# ---------------------------------------------------------------------------


@undecided_on_cap
def is_quasi_duo(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    return _first_movable(maximal_submodules(m, caps.submodules), "movable maximal submodule")


@undecided_on_cap
def is_duo(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    return _first_movable(enumerate_submodules(m, caps.submodules), "movable submodule")


@undecided_on_cap
def is_subdirect_of_simples(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """For finite modules: radical zero (every proper submodule sits under a
    maximal one, so the canonical map into the simple quotients embeds)."""
    rad = radical(m, caps.submodules)
    if rad.is_zero():
        return Verdict.yes()
    return Verdict.no(witness=rad, reason="nonzero radical")


@undecided_on_cap
def is_k_nonsingular(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """No nonzero endomorphism has essential kernel."""
    phi = first_essential_kernel_hom(end_homs(m, caps.homs), caps.submodules)
    if phi is not None:
        return Verdict.no(witness=phi, reason="nonzero endomorphism with essential kernel")
    return Verdict.yes()


@undecided_on_cap
def is_polyform(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    """No nonzero partial homomorphism K -> M has kernel essential in K.

    Hom(K, M) is scanned once per extracted module: a K whose extracted
    module equals an earlier one's is skipped.  Both the cap check and
    ``first_essential_kernel_hom`` read only that module's value, through
    ``hom_group``, which is keyed by value, so they repeat exactly; the
    earlier K passed both, or the loop would have returned, so the first
    failing K and its witness (K, f) are unchanged.
    """
    scanned: set[FiniteModule] = set()
    for k_sub in enumerate_submodules(m, caps.submodules):
        if k_sub.is_zero():
            continue
        inner, _ = extract(k_sub)
        if inner in scanned:
            continue
        scanned.add(inner)
        homs = hom_group(inner, m)
        if homs.size() > caps.homs:
            return Verdict.undecided(
                f"|Hom(K, M)| = {homs.size()} exceeds hom cap {caps.homs}"
            )
        f = first_essential_kernel_hom(homs, caps.submodules)
        if f is not None:
            return Verdict.no(
                witness=(k_sub, f),
                reason="partial homomorphism with essential kernel",
            )
    return Verdict.yes()


@undecided_on_cap
def idempotents_central_in_end(m: FiniteModule, caps: Caps = Caps()) -> Verdict:
    for e in rings.idempotents(end_ring(m), caps.homs):
        if not rings.is_central(e):
            return Verdict.no(witness=e, reason="non-central idempotent in End")
    return Verdict.yes()


# ---------------------------------------------------------------------------
# Reports and theorem suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusMember:
    """A validated module with an id and a projectivity tag.

    projective is set only for constructions that are projective by
    construction (direct summands of the regular module); theorems that
    hypothesize quasi-projectivity run only on tagged members.
    """

    id: str
    module: FiniteModule
    projective: bool = False


@dataclass(frozen=True)
class ResultRecord:
    """One (object, check) outcome: pass, fail, or skip."""

    object_id: str
    check_id: str
    status: str
    detail: str = ""
    witness: object = None


@dataclass
class SuiteReport:
    records: list[ResultRecord]

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.records)


def _record(object_id: str, check_id: str, check: Callable[[], Verdict]) -> ResultRecord:
    """Run one theorem check.  Checks phrase the claim so that True means the
    theorem holds; a check that raises InternalInconsistency fails."""
    try:
        v = check()
    except InternalInconsistency as exc:
        return ResultRecord(object_id, check_id, "fail", str(exc))
    if v.value is True:
        return ResultRecord(object_id, check_id, "pass", v.reason)
    if v.value is False:
        return ResultRecord(object_id, check_id, "fail", v.describe(), v.witness)
    return ResultRecord(object_id, check_id, "skip", v.reason)


@undecided_on_cap
def check_route_agreement(m: FiniteModule, caps: Caps) -> Verdict:
    """The three abelian-endoregularity routes agree wherever decided."""
    is_abelian_endoregular(m, caps).require()
    return Verdict.yes()


# A hypothesis is a lambda rather than the route itself, so that the route
# name is looked up on each call, like every other call in this module.
@assuming(lambda m, caps: is_endoregular(m, caps))
def check_ssp_sip(m: FiniteModule, caps: Caps) -> Verdict:
    """Endoregular modules have both summand-closure properties."""
    return both(has_ssp(m, caps), has_sip(m, caps))


@undecided_on_cap
@assuming(lambda m, caps: is_endoregular(m, caps))
def check_generated_iff_summand(m: FiniteModule, caps: Caps) -> Verdict:
    """On an endoregular module, M-generated submodules are exactly the
    direct summands."""
    for n in enumerate_submodules(m, caps.submodules):
        if is_m_generated(n) != (summand_test(n) is not None):
            return Verdict.no(witness=n, reason="M-generated and summand status differ")
    return Verdict.yes()


@undecided_on_cap
@assuming(lambda m, caps: is_abelian_endoregular(m, caps))
def check_summands_inherit(m: FiniteModule, caps: Caps) -> Verdict:
    """Direct summands and M-generated submodules of an abelian endoregular
    module are abelian endoregular."""
    for n in enumerate_submodules(m, caps.submodules):
        if summand_test(n) is None and not is_m_generated(n):
            continue
        inner, _ = extract(n)
        if not is_abelian_endoregular(inner, caps).require():
            return Verdict.no(witness=n, reason="submodule not abelian endoregular")
    return Verdict.yes()


@undecided_on_cap
@assuming(lambda m, caps: is_endoregular(m, caps))
def check_ker_im_summands_in_powers(m: FiniteModule, caps: Caps) -> Verdict:
    """For endoregular M and homs between small finite powers of M, kernels
    and images are direct summands.

    Each f: M^n -> M^l with n, l <= 2, padded with zeros, is a corner of an
    F in End(M ⊕ M): Ker F is Ker f or Ker f ⊕ M, Im F is Im f or Im f ⊕ 0,
    and by the modular law these are summands exactly when Ker f and Im f
    are.  So the check is the summand route of endoregularity on M ⊕ M,
    ``_endoregular_via_summands(M ⊕ M)``, run once every
    |Hom(M^n, M^l)| = |End M|^(n·l) is within the hom cap.  That route is
    memoized, so the sum of a family (M, M) reuses its answer.
    """
    end_size = hom_group(m, m).size()
    for n, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
        if end_size ** (n * l) > caps.homs:
            return Verdict.undecided(
                f"|Hom(M^{n}, M^{l})| = {end_size ** (n * l)} exceeds hom cap {caps.homs}"
            )
    square, _, _ = direct_sum([m, m])
    return _endoregular_via_summands(square, caps)


@undecided_on_cap
@assuming(lambda m, caps: both(is_quasi_duo(m, caps), is_subdirect_of_simples(m, caps)))
def check_central_idempotents_from_subdirect(m: FiniteModule, caps: Caps) -> Verdict:
    """A quasi-duo subdirect product of simples has central idempotents in
    its endomorphism ring; with endoregularity it is abelian endoregular."""
    central = idempotents_central_in_end(m, caps)
    if central.value is not True:
        return central
    if is_endoregular(m, caps).require():
        return is_abelian_endoregular(m, caps)
    return Verdict.yes()


def check_subdirect_characterization(m: FiniteModule, caps: Caps, projective: bool) -> Verdict:
    """Quasi-duo endoregular with zero radical implies abelian endoregular
    with zero radical; the converse holds for projective members."""
    rad_zero = is_subdirect_of_simples(m, caps)
    cond1 = both(is_quasi_duo(m, caps), is_endoregular(m, caps), rad_zero)
    cond2 = both(is_abelian_endoregular(m, caps), rad_zero)
    forward = implies(cond1, lambda: cond2)
    if forward.value is not True or not projective:
        return forward
    return implies(cond2, lambda: cond1)


@undecided_on_cap
@assuming(lambda m, caps: is_abelian_endoregular(m, caps))
def check_prime_iff_maximal(m: FiniteModule, caps: Caps) -> Verdict:
    """On projective abelian endoregular members, prime submodules are
    exactly the maximal ones, and the module is quasi-duo."""
    qd = is_quasi_duo(m, caps)
    if not qd.require():
        return Verdict.no(witness=qd.witness, reason="not quasi-duo")
    primes = {p.gens for p in spec_of(m, caps)}
    maxes = {n.gens for n in maximal_submodules(m, caps.submodules)}
    if primes != maxes:
        return Verdict.no(
            witness=(sorted(primes), sorted(maxes)),
            reason="prime and maximal submodule sets differ",
        )
    return Verdict.yes()


@undecided_on_cap
def check_fi_maximal_is_prime(m: FiniteModule, caps: Caps) -> Verdict:
    """On projective members, a submodule maximal in the lattice of fully
    invariant submodules is prime."""
    table = ProductTable.of(m, caps)
    # M is the largest fully invariant submodule, so it leads table.fi
    for n in maximal_members(table.fi[1:]):
        pair = table.prime_failure(n)
        if pair is not None:
            return Verdict.no(witness=(n, pair), reason="maximal fully invariant, not prime")
    return Verdict.yes()


@undecided_on_cap
def check_prime_quotients(m: FiniteModule, caps: Caps) -> Verdict:
    """Zero is prime (semiprime) in M/N whenever N is prime (semiprime) in M.

    M and each quotient M/N read the product table kept on their lattice,
    so M/0 = M reads M's."""
    table = ProductTable.of(m, caps)
    tests = (ProductTable.prime_failure, ProductTable.semiprime_failure)
    for n in table.fi:
        if n.is_full():
            continue
        holding = [test for test in tests if test(table, n) is None]
        if not holding:
            continue
        q, _ = quotient(m, n)
        q_table, zero = ProductTable.of(q, caps), zero_submodule(q)
        for test in holding:
            witness = test(q_table, zero)
            if witness is not None:
                return Verdict.no(witness=(n, witness), reason="quotient loses primeness")
    return Verdict.yes()


@undecided_on_cap
def check_fi_summand_descends(m: FiniteModule, caps: Caps) -> Verdict:
    """A fully invariant direct summand L of M with L ≤ N stays fully
    invariant inside N."""
    subs = enumerate_submodules(m, caps.submodules)
    fi_summands = [
        l for l in subs if is_fully_invariant(l) and summand_test(l) is not None
    ]
    for n in subs:
        inner, inc = extract(n)
        system = coordinate_system(inc.matrix, inner.moduli, m.moduli)
        for l in fi_summands:
            if not n.contains_sub(l):
                continue
            # l, rewritten in the coordinates of the extracted n
            inside = submodule_generated(inner, [coordinates_in_subgroup(g, system) for g in l.gens])
            if not is_fully_invariant(inside):
                return Verdict.no(witness=(l, n), reason="full invariance lost in submodule")
    return Verdict.yes()


def check_polyform_implies_k_nonsingular(m: FiniteModule, caps: Caps) -> Verdict:
    return implies(is_polyform(m, caps), lambda: is_k_nonsingular(m, caps))


@undecided_on_cap
@assuming(lambda m, caps: is_endoregular(m, caps))
def check_five_way(m: FiniteModule, caps: Caps) -> Verdict:
    """On endoregular members, the five characterizations all agree."""
    conditions = five_way_conditions(m, caps)
    agree("five-way characterization", *conditions)
    for v in conditions:
        v.require()
    return Verdict.yes()


@undecided_on_cap
def check_unit_converses(m: FiniteModule, caps: Caps) -> Verdict:
    """On a unit endoregular module, each converse hypothesis that holds
    forces abelian endoregularity; vacuous when neither holds.

    Each hypothesis is read from an abelian route.  The first,
    Im φ + Ker φ = M for every endomorphism φ, is ``abelian_route_ker_im``:
    Im φ ≅ M/Ker φ, so |Ker φ|·|Im φ| = |M| and
    |Ker φ + Im φ| = |M| / |Ker φ ∩ Im φ|, and Ker φ + Im φ = M exactly
    when Ker φ ∩ Im φ = 0.

    The second, that idempotents of End(M) commute with units, means that
    they are central.  In any ring, e·x·(1−e) and (1−e)·x·e square to 0, so
    1 + e·x·(1−e) and 1 + (1−e)·x·e are units.  An idempotent e that
    commutes with both has e·x·(1−e) = 0 = (1−e)·x·e, so e·x = e·x·e = x·e.
    It is read only once ``is_unit_endoregular`` has found End(M) regular,
    and a regular ring is abelian regular exactly when its idempotents are
    central, so it is the End-ring route ``rings.is_abelian_regular``, which
    enumerates End(M) under the same ring-element cap.

    A hypothesis that holds is a route that says yes, and then
    ``is_abelian_endoregular`` says yes or raises InternalInconsistency.
    """

    def conclusion() -> Verdict:
        end_ring_route, ker_im_route, _ = abelian_endoregular_routes(m, caps)
        if not (ker_im_route.require() or end_ring_route.require()):
            return Verdict.yes(reason="vacuous: no converse hypothesis holds")
        is_abelian_endoregular(m, caps).require()
        return Verdict.yes()

    return implies(is_unit_endoregular(m, caps), conclusion)


MEMBER_CHECKS = (
    ("azumaya-agreement", lambda m, caps, proj: azumaya_agreement(m, caps)),
    ("abelian-route-agreement", lambda m, caps, proj: check_route_agreement(m, caps)),
    ("endoregular-implies-ssp-sip", lambda m, caps, proj: check_ssp_sip(m, caps)),
    ("generated-iff-summand", lambda m, caps, proj: check_generated_iff_summand(m, caps)),
    ("summands-inherit-abelian", lambda m, caps, proj: check_summands_inherit(m, caps)),
    ("power-hom-summands", lambda m, caps, proj: check_ker_im_summands_in_powers(m, caps)),
    ("five-way-agreement", lambda m, caps, proj: check_five_way(m, caps)),
    ("unit-converses", lambda m, caps, proj: check_unit_converses(m, caps)),
    ("subdirect-central-idempotents",
     lambda m, caps, proj: check_central_idempotents_from_subdirect(m, caps)),
    ("subdirect-characterization",
     lambda m, caps, proj: check_subdirect_characterization(m, caps, proj)),
    ("prime-iff-maximal",
     lambda m, caps, proj: check_prime_iff_maximal(m, caps) if proj
     else Verdict.undecided("needs a projective member")),
    ("fi-maximal-is-prime",
     lambda m, caps, proj: check_fi_maximal_is_prime(m, caps) if proj
     else Verdict.undecided("needs a projective member")),
    ("prime-quotients", lambda m, caps, proj: check_prime_quotients(m, caps)),
    ("fi-summand-descends", lambda m, caps, proj: check_fi_summand_descends(m, caps)),
    ("polyform-implies-k-nonsingular",
     lambda m, caps, proj: check_polyform_implies_k_nonsingular(m, caps)),
)


@undecided_on_cap
def check_direct_sum_family(members: Sequence[CorpusMember], caps: Caps) -> Verdict:
    """The direct sum is abelian endoregular iff each factor is and each
    embedded factor is fully invariant in the sum."""
    total, embeddings, _ = direct_sum([mem.module for mem in members])
    lhs = is_abelian_endoregular(total, caps)
    factor_checks = []
    for mem, emb in zip(members, embeddings):
        factor_checks.append(is_abelian_endoregular(mem.module, caps))
        sub = image(emb)
        factor_checks.append(
            Verdict.yes() if is_fully_invariant(sub)
            else Verdict.no(witness=sub, reason="factor not fully invariant in sum")
        )
    rhs = both(*factor_checks)
    if lhs.require() == rhs.require():
        return Verdict.yes()
    return Verdict.no(
        witness=(lhs.witness, rhs.witness),
        reason=f"sides differ: {lhs.describe()} vs {rhs.describe()}",
    )


def theorem_suites(
    corpus: Sequence[CorpusMember],
    caps: Caps = Caps(),
    families: Sequence[Sequence[CorpusMember]] = (),
) -> SuiteReport:
    """Run each of ``MEMBER_CHECKS`` over each corpus member, then
    ``check_direct_sum_family`` over the given families (of at most 3
    members).  Both names are read on each call, so a tracer may rebind them."""
    checks = itertools.chain(
        ((mem.id, check_id, functools.partial(fn, mem.module, caps, mem.projective))
         for mem in corpus for check_id, fn in MEMBER_CHECKS),
        (("+".join(mem.id for mem in fam), "direct-sum-characterization",
          functools.partial(check_direct_sum_family, fam, caps)) for fam in families),
    )
    return SuiteReport([_record(*check) for check in checks])


# ---------------------------------------------------------------------------
# Per-module property report
# ---------------------------------------------------------------------------


PROPERTY_FUNCS = (
    ("endoregular", is_endoregular),
    ("abelian endoregular", is_abelian_endoregular),
    ("unit endoregular", is_unit_endoregular),
    ("quasi-duo", is_quasi_duo),
    ("duo", is_duo),
    ("subdirect product of simples", is_subdirect_of_simples),
    ("SSP", has_ssp),
    ("SIP", has_sip),
    ("distributive Boolean summand lattice", is_distributive_boolean),
    ("K-nonsingular", is_k_nonsingular),
    ("polyform", is_polyform),
)


@dataclass
class PropertyReport:
    """What ``analyze`` found.  A count or the spectrum that a cap stopped is
    None, and ``undecided`` maps its field name to the cap's reason."""

    module_id: str
    properties: dict[str, Verdict]
    routes: dict[str, Verdict]
    radical_order: Optional[int]
    socle_order: Optional[int]
    end_size: int
    summand_count: Optional[int]
    spec: Optional[list[Submodule]]
    undecided: dict[str, str]

    def _shown(self, name: str, show: Callable = str) -> str:
        value = getattr(self, name)
        return f"undecided ({self.undecided[name]})" if value is None else str(show(value))

    def lines(self) -> list[str]:
        out = [f"module {self.module_id}"]
        out.append(f"  |End| = {self.end_size}")
        out.append(f"  |Rad| = {self._shown('radical_order')}, |Soc| = {self._shown('socle_order')}")
        out.append(f"  direct summands: {self._shown('summand_count')}")
        out.append(f"  prime submodules: {self._shown('spec', len)}")
        for name, v in self.properties.items():
            out.append(f"  {name}: {v.describe()}")
        for name, v in self.routes.items():
            out.append(f"  route {name}: {v.describe()}")
        return out


def analyze(module_id: str, m: FiniteModule, caps: Caps = Caps()) -> PropertyReport:
    props = {name: fn(m, caps) for name, fn in PROPERTY_FUNCS}
    routes = dict(zip(ABELIAN_ROUTES, abelian_endoregular_routes(m, caps)))
    undecided: dict[str, str] = {}

    def unless_capped(name: str, compute: Callable):
        try:
            return compute()
        except CapExceeded as exc:
            undecided[name] = str(exc)
            return None

    return PropertyReport(
        module_id=module_id,
        properties=props,
        routes=routes,
        radical_order=unless_capped("radical_order", lambda: radical(m, caps.submodules).order()),
        socle_order=unless_capped("socle_order", lambda: socle(m, caps.submodules).order()),
        summand_count=unless_capped(
            "summand_count", lambda: len(SummandLattice.of(m, caps).summands)),
        spec=unless_capped("spec", lambda: spec_of(m, caps)),
        end_size=hom_group(m, m).size(),
        undecided=undecided,
    )
