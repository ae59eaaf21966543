"""Hom groups, endomorphism rings, traces, products and summand tests.

Hom_R(M, N) is computed exactly: an integer matrix F represents an R-map
iff it commutes with every action matrix and is well-defined modulo the
codomain moduli.  Both conditions are linear congruences in the entries of
F, so the full hom group falls out of one congruence-system solve as a
subgroup of ⊕ Z/d^N in invariant-factor form.  Nothing here needs an
enumeration cap except ``find_embedding``, which sweeps a hom group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Callable, Iterator, Optional, Sequence

from . import linalg
from .linalg import IntMatrix, IntVector
from .modules import (
    FiniteModule,
    ModuleHom,
    Submodule,
    coordinate_system,
    coordinates_in_subgroup,
    extract,
    identity_hom,
)
from .rings import FiniteRing
from .verdicts import CapExceeded, InternalInconsistency


def _flatten(matrix: IntMatrix) -> IntVector:
    """The flat layout of a hom's matrix: row by row, as one vector whose
    entries take the codomain's moduli once per domain row."""
    return tuple(v for row in matrix for v in row)


def _unflatten(dom: FiniteModule, cod: FiniteModule, flat: Sequence[int]) -> ModuleHom:
    """The hom dom -> cod whose flat layout is ``flat``."""
    nc = cod.rank
    return ModuleHom(dom, cod, tuple(tuple(flat[r * nc:(r + 1) * nc]) for r in range(dom.rank)))


@dataclass(frozen=True)
class HomGroup:
    """Hom_R(M, N) as an abelian group with matrix generators.

    ``span`` is a generating set in the flat layout, all that
    ``summand_test``, ``trace`` and ``product_images`` read.  For a
    group of ``hom_group`` it is the canonical form, and the first read of
    ``gens``, ``orders``, ``size()``, coordinates or a sweep builds the
    basis from it.  A primary part's span is its scaled basis, given with
    its orders at once and not canonical, so a part is never rebuilt from
    its fields.  ``orders`` are the invariant factors (each > 1, dividing
    chain), so every hom is uniquely sum(c_i * gens_i) with
    0 <= c_i < orders_i and |Hom| = prod(orders).

    A group carries its sweep table, filled as sweeps read it: the orbit
    representatives met so far per permutation group, the (Ker, Im) pairs
    read through ``kernel_and_image``, and its primary parts, each with a
    table of its own.  The basis and the table live as long as the group,
    which ``hom_group`` keeps.
    """

    domain: FiniteModule
    codomain: FiniteModule
    span: IntMatrix

    @property
    def _moduli(self) -> tuple[int, ...]:
        """The moduli of the entries of the flat layout."""
        return self.codomain.moduli * self.domain.rank

    @cached_property
    def _basis(self) -> tuple[IntMatrix, tuple[int, ...]]:
        """The invariant-factor generators in the flat layout, and their
        orders, built from the span on first read; the zero group has none."""
        return linalg.subgroup_structure(self.span, self._moduli) if self.span else ((), ())

    @cached_property
    def gens(self) -> tuple[ModuleHom, ...]:
        return tuple(_unflatten(self.domain, self.codomain, g) for g in self._basis[0])

    @property
    def orders(self) -> tuple[int, ...]:
        return self._basis[1]

    def size(self) -> int:
        return prod(self.orders)

    def from_coords(self, coords: Sequence[int]) -> ModuleHom:
        gens, moduli = self._basis[0], self._moduli
        flat = [0] * len(moduli)
        for c, g in zip(coords, gens):
            if c:
                for x, v in enumerate(g):
                    flat[x] += c * v
        return _unflatten(self.domain, self.codomain, linalg.vec_mod(flat, moduli))

    @cached_property
    def _coordinates(self) -> linalg.CongruenceSystem:
        """The generators' coordinate system, factored once per hom group."""
        gens, orders = self._basis
        return coordinate_system(gens, orders, self._moduli)

    def coords_of(self, h: ModuleHom) -> IntVector:
        """Unique coefficient vector of a hom over the generators."""
        return coordinates_in_subgroup(_flatten(h.matrix), self._coordinates)

    def _odometer(self) -> Iterator[IntVector]:
        """The flattened matrix of every hom, coordinates in lexicographic
        order (last coordinate fastest), each one generator add from the
        one before.

        Stepping coordinate i adds g_i.  When c_i wraps from o_i - 1 to 0,
        the add still happens: o_i * g_i = 0, so the sum returns to c_i = 0
        and the carry moves on to coordinate i - 1.
        """
        flat_gens, orders = self._basis
        moduli = self._moduli
        coords = [0] * len(orders)
        flat = (0,) * len(moduli)
        while True:
            yield flat
            i = len(orders) - 1
            while i >= 0:
                flat = tuple([(a + b) % d for a, b, d in zip(flat, flat_gens[i], moduli)])
                coords[i] += 1
                if coords[i] < orders[i]:
                    break
                coords[i] = 0
                i -= 1
            if i < 0:
                return

    def iter_homs(self) -> Iterator[ModuleHom]:
        """Every hom: ``from_coords`` of each coordinate vector in
        ``itertools.product`` order, built by the odometer walk."""
        for flat in self._odometer():
            yield _unflatten(self.domain, self.codomain, flat)

    def iter_orbit_representatives(self, perms: Sequence[IntVector] = ()) -> Iterator[ModuleHom]:
        """The first hom, in ``iter_homs`` order, of each orbit of the
        group G = U × Σ, where U is the units acting by scalar
        multiplication and Σ is the identity together with ``perms``, a
        group of permutations of the flat matrix indices: σ sends the
        flattened F to (F[σ(0)], F[σ(1)], ...).

        Let e be the exponent of the codomain and u a unit mod e.  Integers
        are central, so y -> u*y is an automorphism of the codomain, and
        Ker(u*f) = Ker f, Im(u*f) = u*Im f = Im f.  Any predicate of
        (Ker f, Im f) is therefore constant on a unit orbit.  u*f depends
        only on u mod the group's exponent lcm(o_i), which divides e, and
        every unit mod it lifts to a unit mod e, so the units mod lcm(o_i)
        give the same orbits; when lcm(o_i) <= 2 they fix every hom.  The
        caller vouches that each σ maps the group onto itself and keeps its
        predicate (``block_permutations``); σ permutes entries and u scales
        them, so the two commute and G is a group.

        Its orbits partition the group, and each is met first at its least
        member in ``iter_homs`` order.  If a predicate is constant on every
        orbit, the first hom to fail it is the least of its orbit, so it is
        yielded here and every hom before it passes: a sweep of the
        representatives finds the same first failure as ``iter_homs``.
        The walk runs once per permutation group: the representatives it
        meets are kept in the group's sweep table, a later sweep reads them
        there, and only a sweep that reads past them resumes the walk, so a
        sweep that stops early walks no further than it reads.
        """
        perms = tuple(perms)
        walk = self._walks.get(perms)
        if walk is None:
            walk = self._walks[perms] = ([], self._orbit_walk(perms))
        found, rest = walk
        for i in itertools.count():
            if i == len(found):
                flat = next(rest, None)
                if flat is None:
                    return
                found.append(flat)
            yield _unflatten(self.domain, self.codomain, found[i])

    @cached_property
    def _walks(self) -> dict[tuple[IntVector, ...], tuple[list[IntVector], Iterator[IntVector]]]:
        """Per permutation group, the orbit representatives met so far, as
        flat matrices, and the paused walk that meets the rest."""
        return {}

    def _orbit_walk(self, perms: tuple[IntVector, ...]) -> Iterator[IntVector]:
        """The flat matrix of each orbit representative, in ``iter_homs``
        order.  ``ahead`` holds the orbit members not yet reached, keyed by
        flat matrix, at most the size of the group, and is dropped when the
        walk ends.  A representative's orbit is met first at it, so ``ahead``
        only holds homs not yet reached; once it holds all of them, no
        representative is left and the walk ends there.
        """
        exponent = lcm(*self.orders)
        units = [u for u in range(2, exponent) if gcd(u, exponent) == 1]
        moduli = self._moduli
        size = self.size()
        ahead: set[IntVector] = set()
        for reached, flat in enumerate(self._odometer(), 1):
            if flat in ahead:
                ahead.remove(flat)
                continue
            for image in [flat, *(tuple([flat[i] for i in sigma]) for sigma in perms)]:
                ahead.add(image)
                ahead.update(tuple([u * v % d for v, d in zip(image, moduli)]) for u in units)
            ahead.discard(flat)
            yield flat
            if len(ahead) == size - reached:
                return

    def primary_parts(self) -> tuple["HomGroup", ...]:
        """The p-primary subgroups H_p, one per prime p dividing the
        group's exponent lcm(o_i), or ``(self,)`` when there is at most one.

        H_p has the generators (o_i / p^{v_p(o_i)})·g_i of orders
        p^{v_p(o_i)}, dropping v_p(o_i) = 0.  The orders still form a
        dividing chain, so H_p is in invariant-factor form and
        ``iter_orbit_representatives`` applies to it unchanged.  They are
        its span and, known already, its basis.  The parts are built once
        per group, so each keeps its own sweep table.
        """
        return self._primary_parts

    @cached_property
    def _primary_parts(self) -> tuple["HomGroup", ...]:
        primes = list(linalg.prime_divisors(lcm(*self.orders)))
        if len(primes) <= 1:
            return (self,)
        moduli = self._moduli
        parts = []
        for p in primes:
            gens, orders = [], []
            for g, o in zip(*self._basis):
                q = 1
                while o % (q * p) == 0:
                    q *= p
                if q > 1:
                    gens.append(tuple([o // q * v % d for v, d in zip(g, moduli)]))
                    orders.append(q)
            part = HomGroup(self.domain, self.codomain, tuple(gens))
            part.__dict__["_basis"] = part.span, tuple(orders)  # as cached_property keeps it
            parts.append(part)
        return tuple(parts)

    @cached_property
    def _ker_im(self) -> dict[IntMatrix, tuple[Submodule, Submodule]]:
        return {}

    def kernel_and_image(self, f: ModuleHom) -> tuple[Submodule, Submodule]:
        """(Ker f, Im f) of a hom f of this group, factored once per group
        and kept in its sweep table under f's matrix."""
        ker_im = self._ker_im.get(f.matrix)
        if ker_im is None:
            ker_im = self._ker_im[f.matrix] = kernel_and_image(f)
        return ker_im

    def first_failing(
        self, pred: Callable[[ModuleHom], bool], perms: Sequence[IntVector] = (),
    ) -> Optional[ModuleHom]:
        """The first hom f, in ``iter_homs`` order, with ``pred(f)`` false, or
        None, found by sweeping the orbit representatives of
        ``iter_orbit_representatives(perms)``.

        The caller vouches for two conditions on ``pred``.  It is constant
        on the orbits of the unit scalars and ``perms``.  It is
        primary-local: when it fails at f, it fails at e_p·f for some prime
        p, where e is the exponent of the codomain and e_p the CRT
        idempotent integer, e_p ≡ 1 mod p^k and 0 mod e/p^k.

        As f runs over H, e_p·f runs over H_p = e_p·H, the parts of
        ``primary_parts`` (e_p·f = 0 for every f when p does not divide the
        exponent of H, and the zero hom is in every part).  If no part
        fails, no hom of H fails, since its failure would show at some
        e_p·f.  A "yes" thus takes Σ_p |H_p| homs, not Π_p |H_p|, each part
        swept one hom per orbit: a unit mod p^k acts on H_p as its CRT lift,
        a unit mod e, and the integer e_p commutes with every permutation of
        matrix entries, so σ(e_p·f) = e_p·σ(f) and each σ maps H_p onto
        itself.  With a single part, that part is H and its first failure is
        the answer.  Otherwise a failing part sends the sweep over H itself,
        which fails too, since H_p lies in H.  Either way
        ``iter_orbit_representatives`` yields the first failing hom of the
        swept group, so no verdict or witness depends on ``perms``.
        """
        parts = self.primary_parts()
        for part in parts:
            failing = next(
                (f for f in part.iter_orbit_representatives(perms) if not pred(f)),
                None,
            )
            if failing is None:
                continue
            if len(parts) == 1:
                return failing
            for f in self.iter_orbit_representatives(perms):
                if not pred(f):
                    return f
            raise InternalInconsistency(
                "a primary part of a hom group fails the predicate, but no hom does")
        return None


def block_power(m: FiniteModule) -> int:
    """The largest k such that m is ``direct_sum([B] * k)`` for some B, or 1.

    That holds exactly when the moduli repeat with period b = rank/k and
    every action matrix is block-diagonal with k equal b×b blocks.
    """
    n = m.rank
    for k in range(n, 1, -1):
        b = n // k
        if n % k or m.moduli != m.moduli[:b] * k:
            continue
        if all(
            mat[i][j] == (mat[i % b][j % b] if i // b == j // b else 0)
            for mat in m.action for i in range(n) for j in range(n)
        ):
            return k
    return 1


def block_permutations(m: FiniteModule, two_sided: bool) -> list[IntVector]:
    """Permutations of the flat matrix indices of End(m), m = B^k with
    k = ``block_power(m)``: f -> P·f·Q over all block permutations P, Q when
    ``two_sided``, else the conjugates f -> P·f·P⁻¹.  The identity is left
    out, and there are none when k = 1.

    A block permutation moves the k copies of B and keeps the order inside
    each.  The moduli repeat with period b and the action matrices are
    block-diagonal with equal blocks, so P is well defined and commutes
    with every action matrix: it is an automorphism of m, and P·f·Q is an
    endomorphism with entries already reduced.  Entry (i, j) of P·f·Q is
    f[π(i)][τ(j)], with π and τ the index maps of P and Q⁻¹.
    """
    k = block_power(m)
    n = m.rank
    b = n // k
    index_maps = [
        tuple(p[i // b] * b + i % b for i in range(n)) for p in itertools.permutations(range(k))
    ]
    pairs = (
        itertools.product(index_maps, repeat=2) if two_sided else ((p, p) for p in index_maps)
    )
    # both orders start with the identity pair
    return [tuple(r * n + c for r in rows for c in cols) for rows, cols in pairs][1:]


def _hom_system(dom: FiniteModule, cod: FiniteModule) -> tuple[list[list[int]], tuple[int, ...], tuple[int, ...]]:
    """Linear system whose solutions (flattened F) are exactly the R-maps.

    Row i·nc + j holds the coefficients of the unknown F[i][j].  The
    equations are entry (u, v) of ρ_dom·F = F·ρ_cod, mod cod.moduli[v], for
    each basis element, then dom.moduli[i]·F[i][j] = 0 mod cod.moduli[j],
    for each (i, j).  Each is built from the nonzero action entries alone,
    and ``linalg.kernel_system`` keeps those that constrain F: an equation
    that vanishes mod its modulus, or repeats an earlier one, adds no
    column, and the solutions stay those of the full system.
    """
    nd, nc = dom.rank, cod.rank
    size = nd * nc

    def equations() -> Iterator[tuple[list[int], int]]:
        for rho_d, rho_c in zip(dom.action, cod.action):
            cod_cols = [[(j, rho_c[j][v]) for j in range(nc) if rho_c[j][v]] for v in range(nc)]
            for u in range(nd):
                dom_row = [(i, a) for i, a in enumerate(rho_d[u]) if a]
                for v in range(nc):
                    col = [0] * size
                    for i, a in dom_row:
                        col[i * nc + v] += a
                    for j, b in cod_cols[v]:
                        col[u * nc + j] -= b
                    yield col, cod.moduli[v]
        for i in range(nd):
            for j in range(nc):
                col = [0] * size
                col[i * nc + j] = dom.moduli[i]
                yield col, cod.moduli[j]

    rows, out_moduli = linalg.kernel_system(equations(), size)
    return rows, out_moduli, cod.moduli * nd


@lru_cache(maxsize=None)
def hom_group(dom: FiniteModule, cod: FiniteModule) -> HomGroup:
    """Compute Hom_R(M, N) exactly (no caps involved)."""
    if dom.ring != cod.ring:
        raise ValueError("hom_group requires modules over the same ring")
    if dom.rank == 0 or cod.rank == 0:
        return HomGroup(dom, cod, ())
    a, out_moduli, in_moduli = _hom_system(dom, cod)
    return HomGroup(dom, cod, linalg.kernel_subgroup(a, out_moduli, in_moduli))


def kernel(h: ModuleHom) -> Submodule:
    """Ker h, via the homogeneous solutions of x @ F = 0 (mod codomain)."""
    canon = linalg.kernel_subgroup(h.matrix, h.codomain.moduli, h.domain.moduli)
    return Submodule(h.domain, canon)


def image(h: ModuleHom) -> Submodule:
    """Im h; the rows of the matrix generate it, and it is action-closed."""
    canon = linalg.subgroup_canonical_form(h.matrix, h.codomain.moduli)
    return Submodule(h.codomain, canon)


def kernel_and_image(h: ModuleHom) -> tuple[Submodule, Submodule]:
    """(Ker h, Im h) from one factorization of x @ F = y (mod codomain)."""
    system = linalg.CongruenceSystem(h.matrix, h.codomain.moduli, h.domain.moduli)
    return Submodule(h.domain, system.homogeneous), Submodule(h.codomain, system.image)


# ---------------------------------------------------------------------------
# Endomorphism rings
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def end_ring(m: FiniteModule) -> FiniteRing:
    """End_R(M) as a FiniteRing on the generators of ``hom_group(m, m)``,
    with structure constants from composing them.

    The element with coordinates c is the endomorphism
    ``hom_group(m, m).from_coords(c)``, and a hom h is the element
    ``ring.element(hom_group(m, m).coords_of(h))``.  Multiplication is
    composition: x*y is "apply y first, then x", matching the usual
    left-action composition (x∘y)(m) = x(y(m)).  So b_i * b_j is the
    matrix product g_j·g_i, read through the group's coordinate system,
    whose solve reduces it mod the moduli.
    """
    homs = hom_group(m, m)
    mats = [g.matrix for g in homs.gens]
    coords = lambda mat: coordinates_in_subgroup(_flatten(mat), homs._coordinates)
    mul = tuple(tuple(coords(linalg.mat_mul(b, a)) for b in mats) for a in mats)
    one = homs.coords_of(identity_hom(m)) if mats else ()
    return FiniteRing(
        moduli=homs.orders, mul=mul, one=one,
        name=f"End({m.name})" if m.name else "End",
    )


# ---------------------------------------------------------------------------
# Traces, products, invariance and summands
# ---------------------------------------------------------------------------


def trace(source: FiniteModule, target: FiniteModule) -> Submodule:
    """Sum of the images of all homs source -> target, read off the span."""
    homs = hom_group(source, target)
    rows = [row for g in homs.span for row in _unflatten(source, target, g).matrix]
    canon = linalg.subgroup_canonical_form(rows, target.moduli)
    return Submodule(target, canon)


@lru_cache(maxsize=None)
def is_m_generated(n: Submodule) -> bool:
    """n is an epimorphic image of copies of its ambient module.

    For finite modules this is equivalent to the trace of the ambient in
    the extracted module being everything.
    """
    inner, _ = extract(n)
    return trace(n.ambient, inner).order() == inner.size()


def product_images(k: Submodule) -> list[IntMatrix]:
    """The matrices G·inc, one per span row G of Hom(M, K), that carry the
    ambient M into itself through K.  The product K_M L, the sum of f(L)
    over f in Hom(M, K), is read from them for every L (``product_from_images``),
    so ``lab.ProductTable`` forms them once per K."""
    m = k.ambient
    inner_k, inc = extract(k)
    return [_unflatten(m, inner_k, g).then(inc).matrix for g in hom_group(m, inner_k).span]


def product_from_images(images: Sequence[IntMatrix], l: Submodule) -> Submodule:
    """K_M L from the ``product_images`` of K: the canonical form of the
    rows of L·G·inc over every image G·inc."""
    rows: list[IntVector] = []
    for a in images:
        rows += linalg.mat_mul(l.gens, a)
    return Submodule(l.ambient, linalg.subgroup_canonical_form(rows, l.ambient.moduli))


@lru_cache(maxsize=None)
def is_fully_invariant(n: Submodule) -> bool:
    """phi(n) inside n for every endomorphism; generators of End suffice."""
    bundle_homs = hom_group(n.ambient, n.ambient)
    for g in bundle_homs.gens:
        for x in n.gens:
            if not n.contains(g.apply(x)):
                return False
    return True


@lru_cache(maxsize=None)
def summand_test(n: Submodule) -> Optional[ModuleHom]:
    """Idempotent projection of the ambient module onto n, if one exists.

    n is a summand iff its inclusion splits: some f in Hom(M, n) has
    inc-then-f equal to the identity of n.  That condition is linear in the
    coefficients of f over the span rows of Hom(M, n), each taken mod that
    row's additive order, so one congruence solve decides it, and
    f-then-inc is then an idempotent with image exactly n.  N = 0 and N = M
    need no solve: their projections are 0 and the identity.
    """
    m = n.ambient
    if n.is_zero():
        return ModuleHom(m, m, ((0,) * m.rank,) * m.rank)
    if n.is_full():
        return identity_hom(m)
    inner, inc = extract(n)
    homs = hom_group(m, inner)
    moduli = homs._moduli
    rows = [_flatten(inc.then(_unflatten(m, inner, g)).matrix) for g in homs.span]
    orders = [lcm(*map(lambda v, d: d // gcd(v, d), g, moduli)) for g in homs.span]
    target = _flatten(identity_hom(inner).matrix)
    solved = linalg.solve_congruence_system(rows, target, inner.moduli * inner.rank, orders)
    if solved is None:
        return None
    particular, _ = solved
    f = linalg.vec_mod(linalg.vec_mat(particular, homs.span), moduli)
    proj = _unflatten(m, inner, f).then(inc)
    if proj.then(proj).matrix != proj.matrix:
        raise InternalInconsistency("summand projection is not idempotent")
    if image(proj).gens != n.gens:
        raise InternalInconsistency("summand projection has the wrong image")
    return proj


# ---------------------------------------------------------------------------
# Isomorphism / embedding search
# ---------------------------------------------------------------------------


def find_isomorphism(a: FiniteModule, b: FiniteModule, cap: int) -> Optional[ModuleHom]:
    """A bijective R-hom a -> b, or None; raises CapExceeded past the cap.

    Quick-rejects on additive invariants; equal invariant factors mean equal
    orders, so an injective hom is bijective.
    """
    if linalg.abelian_group_type(a.moduli) != linalg.abelian_group_type(b.moduli):
        return None
    return find_embedding(a, b, cap)


def find_embedding(a: FiniteModule, b: FiniteModule, cap: int) -> Optional[ModuleHom]:
    """The first injective R-hom a -> b in ``iter_homs`` order, or None;
    raises CapExceeded past the cap.  Ker(u*f) = Ker f for a unit scalar u,
    so that hom leads its orbit, and only the orbit representatives are read.
    """
    if a.size() > b.size() or b.size() % a.size():
        return None
    homs = hom_group(a, b)
    if homs.size() > cap:
        raise CapExceeded(homs.size(), cap, "homomorphisms")
    return next((h for h in homs.iter_orbit_representatives() if kernel(h).order() == 1), None)
