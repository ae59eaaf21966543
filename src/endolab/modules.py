"""Finite right modules over a structure-constant ring.

A module is an additive group ⊕ Z/d_j together with one action matrix per
ring basis element, using the row-vector convention: elements are rows and
``x * r = x @ rho(r)`` with rho extended additively.  With this convention
rho is a multiplicative homomorphism, so right modules need no
anti-homomorphism bookkeeping.

Submodules are identified by the canonical generator matrix of their
underlying subgroup; since the subgroup is action-closed, the canonical
form is a bit-exact identity for the submodule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import prod
from typing import Iterator, Sequence

from . import linalg, rings
from .linalg import IntMatrix, IntVector, ModuliVector
from .rings import FiniteRing
from .verdicts import CapExceeded, InternalInconsistency


@dataclass(frozen=True)
class FiniteModule:
    ring: FiniteRing
    moduli: ModuliVector
    action: tuple[IntMatrix, ...]  # one rank x rank matrix per ring basis element
    name: str = field(default="", compare=False)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def size(self) -> int:
        return prod(self.moduli)

    def rho(self, r: Sequence[int]) -> IntMatrix:
        """Action matrix of the ring element with coordinates r."""
        n = self.rank
        out = [[0] * n for _ in range(n)]
        for t, coeff in enumerate(r):
            if not coeff:
                continue
            mat = self.action[t]
            for i in range(n):
                row = mat[i]
                orow = out[i]
                for j in range(n):
                    orow[j] += coeff * row[j]
        return tuple(linalg.vec_mod(row, self.moduli) for row in out)

    def zero(self) -> IntVector:
        return (0,) * self.rank

    def elements(self) -> Iterator[IntVector]:
        return itertools.product(*(range(d) for d in self.moduli))


@dataclass(frozen=True)
class ModuleHom:
    """R-linear map between finite modules, as a rank_dom x rank_cod matrix."""

    domain: FiniteModule
    codomain: FiniteModule
    matrix: IntMatrix

    def apply(self, x: Sequence[int]) -> IntVector:
        if not self.matrix:  # rank-0 domain: the only value is 0
            return self.codomain.zero()
        return linalg.vec_mod(linalg.vec_mat(x, self.matrix), self.codomain.moduli)

    def then(self, nxt: "ModuleHom") -> "ModuleHom":
        """Diagrammatic composition: apply self first, then ``nxt``."""
        if self.codomain != nxt.domain:
            raise ValueError("composition mismatch")
        mat = linalg.mat_mod(linalg.mat_mul(self.matrix, nxt.matrix), nxt.codomain.moduli)
        return ModuleHom(self.domain, nxt.codomain, mat)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.matrix)


def identity_hom(m: FiniteModule) -> ModuleHom:
    return ModuleHom(m, m, linalg.identity_matrix(m.rank))


def action_span(m: FiniteModule) -> IntMatrix:
    """The image of the ring in End_Z(m): the canonical form of the
    additive span of the action matrices, each flattened row by row, so
    that entry (i, j) is read mod moduli[j].

    rho(r) is an integer combination of the rho(b_t), so the span is every
    rho(r).  The submodules of m are the subgroups this image keeps, and
    its endomorphisms the additive maps that commute with it, so two
    modules with equal moduli and equal spans have equal lattices and End
    rings, whatever their rings (restriction of scalars, Anderson–Fuller).
    """
    rows = [tuple(v for row in mat for v in row) for mat in m.action]
    return linalg.subgroup_canonical_form(rows, m.moduli * m.rank)


def validate_module(m: FiniteModule) -> tuple[bool, str]:
    """Check the right-module laws on the presentation; (ok, first violation)."""
    ring = m.ring
    k = ring.basis_count
    n = m.rank
    if any(d < 1 for d in m.moduli):
        return False, "moduli: every additive order must be >= 1"
    if len(m.action) != k:
        return False, "action: one matrix per ring basis element required"
    for t in range(k):
        mat = m.action[t]
        if len(mat) != n or any(len(row) != n for row in mat):
            return False, f"action[{t}]: matrix must be {n} x {n}"
        for j in range(n):
            for s in range(n):
                if (m.moduli[j] * mat[j][s]) % m.moduli[s]:
                    return False, f"action[{t}]: row {j} not annihilated by its order"
                if (ring.moduli[t] * mat[j][s]) % m.moduli[s]:
                    return False, (
                        f"action[{t}]: not annihilated by the order {ring.moduli[t]} of b_{t}")
    if linalg.mat_mod(m.rho(ring.one), m.moduli) != linalg.mat_mod(
        linalg.identity_matrix(n), m.moduli
    ):
        return False, "identity action: rho(one) must act as the identity"
    # each action[t] is annihilated by c_t, so rho reads the table unreduced
    for i in range(k):
        for j in range(k):
            lhs = linalg.mat_mod(linalg.mat_mul(m.action[i], m.action[j]), m.moduli)
            rhs = m.rho(ring.mul[i][j])
            if lhs != rhs:
                return False, f"multiplicativity: rho(b_{i})rho(b_{j}) != rho(b_{i} b_{j})"
    return True, ""


def regular_module(ring: FiniteRing, name: str = "") -> FiniteModule:
    """The ring acting on itself by right multiplication."""
    k = ring.basis_count
    action = []
    for t in range(k):
        basis = tuple(1 if s == t else 0 for s in range(k))
        action.append(ring.right_mul_matrix(basis))
    return FiniteModule(
        ring=ring, moduli=ring.moduli, action=tuple(action),
        name=name or (f"{ring.name}-regular" if ring.name else "regular"),
    )


def direct_sum(
    summands: Sequence[FiniteModule],
) -> tuple[FiniteModule, list[ModuleHom], list[ModuleHom]]:
    """Block-diagonal direct sum with its embeddings and projections."""
    if not summands:
        raise ValueError("direct_sum of an empty family is ambiguous; pass a zero module (empty moduli)")
    ring = summands[0].ring
    if any(m.ring != ring for m in summands):
        raise ValueError("direct_sum requires all summands over the same ring")
    moduli = tuple(d for m in summands for d in m.moduli)
    total = len(moduli)
    action = []
    for t in range(ring.basis_count):
        mat = [[0] * total for _ in range(total)]
        off = 0
        for m in summands:
            block = m.action[t]
            for i in range(m.rank):
                for j in range(m.rank):
                    mat[off + i][off + j] = block[i][j]
            off += m.rank
        action.append(tuple(tuple(row) for row in mat))
    name = " + ".join(m.name or "?" for m in summands)
    big = FiniteModule(ring=ring, moduli=moduli, action=tuple(action), name=name)
    embeddings = []
    projections = []
    off = 0
    for m in summands:
        emb = [[0] * total for _ in range(m.rank)]
        prj = [[0] * m.rank for _ in range(total)]
        for i in range(m.rank):
            emb[i][off + i] = 1
            prj[off + i][i] = 1
        embeddings.append(ModuleHom(m, big, tuple(tuple(r) for r in emb)))
        projections.append(ModuleHom(big, m, tuple(tuple(r) for r in prj)))
        off += m.rank
    return big, embeddings, projections


# ---------------------------------------------------------------------------
# Submodules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Submodule:
    """Action-closed subgroup in canonical generator form."""

    ambient: FiniteModule
    gens: IntMatrix

    def order(self) -> int:
        return linalg.subgroup_order(self.gens, self.ambient.moduli)

    def contains(self, x: Sequence[int]) -> bool:
        return linalg.subgroup_membership(x, self.gens, self.ambient.moduli)

    def contains_sub(self, other: "Submodule") -> bool:
        return all(self.contains(g) for g in other.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_full(self) -> bool:
        return self.order() == self.ambient.size()

    def elements(self) -> list[IntVector]:
        return linalg.enumerate_subgroup(self.gens, self.ambient.moduli)


def zero_submodule(m: FiniteModule) -> Submodule:
    return Submodule(m, ())


def full_submodule(m: FiniteModule) -> Submodule:
    gens = linalg.identity_matrix(m.rank)
    return Submodule(m, linalg.subgroup_canonical_form(gens, m.moduli))


def submodule_generated(m: FiniteModule, elems: Sequence[Sequence[int]]) -> Submodule:
    """Smallest action-closed subgroup containing ``elems``.

    xR is the additive span of the x * b_t over the ring basis, and x itself
    lies in that span because 1 is an integer combination of the b_t.  So
    one canonical form of the rows x @ rho(b_t), over every x and t, is the
    submodule.
    """
    rows = [linalg.vec_mat(x, mat) for x in elems for mat in m.action]
    return Submodule(m, linalg.subgroup_canonical_form(rows, m.moduli))


def submodule_sum(a: Submodule, b: Submodule) -> Submodule:
    if a.ambient != b.ambient:
        raise ValueError("submodule sum: ambient mismatch")
    canon = linalg.subgroup_canonical_form(a.gens + b.gens, a.ambient.moduli)
    return Submodule(a.ambient, canon)


def submodule_intersect(a: Submodule, b: Submodule) -> Submodule:
    if a.ambient != b.ambient:
        raise ValueError("submodule intersection: ambient mismatch")
    canon = linalg.subgroup_intersection(a.gens, b.gens, a.ambient.moduli)
    return Submodule(a.ambient, canon)


def central_pieces(m: FiniteModule, cap: int) -> list[Submodule]:
    """The nonzero pieces M·e_i over the primitive central idempotents e_i
    of the ring; just M when its centre exceeds ``cap``.

    M·e_i is the span of the rows of rho(e_i), and a submodule because
    (x·e_i)·r = (x·r)·e_i.
    """
    pieces = (
        Submodule(m, linalg.subgroup_canonical_form(m.rho(e), m.moduli))
        for e in rings.primitive_central_idempotents(m.ring, cap)
    )
    return [piece for piece in pieces if not piece.is_zero()]


class SubmoduleLattice(tuple):
    """The submodules of a module, as ``enumerate_submodules`` returns them,
    and the tables read off them.

    It is a tuple of the submodules, sorted by order and generators, so 0,
    the one submodule of order 1, comes first, and M, the one of the
    largest order, comes last.  ``orders``, ``maximal``, ``socle`` and
    ``radical`` are built the first time they are read, and ``tables``
    holds what ``lab`` reads off the lattice (``lab.LatticeTable``).  All
    of them live as long as the lattice, which ``enumerate_submodules``
    caches, so clearing that cache drops them.
    """

    @property
    def ambient(self) -> FiniteModule:
        return self[0].ambient

    @cached_property
    def tables(self) -> dict:
        return {}

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(s.order() for s in self)

    @cached_property
    def maximal(self) -> tuple[Submodule, ...]:
        """The maximal submodules: the proper ones that no proper one
        properly contains."""
        return tuple(maximal_members(self[:-1]))

    @cached_property
    def socle(self) -> Submodule:
        """Sum of the minimal submodules: one canonical form of their generators."""
        nonzero, orders = self[1:], self.orders[1:]
        minimal = [s for s, o in zip(nonzero, orders)
                   if not any(properly_contains(s, t, o, ot) for t, ot in zip(nonzero, orders))]
        rows = [g for s in minimal for g in s.gens]
        return Submodule(self.ambient, linalg.subgroup_canonical_form(rows, self.ambient.moduli))

    @cached_property
    def radical(self) -> Submodule:
        """Intersection of the maximal submodules (the whole module if none)."""
        if not self.maximal:
            return full_submodule(self.ambient)
        return reduce(submodule_intersect, self.maximal)


@lru_cache(maxsize=None)
def enumerate_submodules(m: FiniteModule, cap: int) -> SubmoduleLattice:
    """Every submodule, canonical and duplicate-free, sorted by order and
    generators.

    Let e be a central idempotent of R and N a submodule.  N is closed under
    the action, so Ne ⊆ N, and likewise N(1-e) ⊆ N; every x in N is
    xe + x(1-e), so N = Ne ⊕ N(1-e), with Ne ⊆ Me and N(1-e) ⊆ M(1-e)
    (an x in Me ∩ M(1-e) is x = xe = x(1-e)e = 0).  Over the primitive
    central idempotents e_1..e_r, N is thus the direct sum of the
    submodules N·e_i of the pieces M·e_i (``central_pieces``), and any
    choice of one submodule N_i per piece gives a distinct submodule
    N_1 + ... + N_r, since (N_1 + ... + N_r)·e_i = N_i.  Each piece's
    submodules are the sums of its cyclic ones (``_sum_closure``).
    """
    total = m.size()
    if total > cap:
        raise CapExceeded(total, cap, "module elements")
    lattices = [_sum_closure(m, piece) for piece in central_pieces(m, cap)]
    subs = lattices[0] if lattices else [zero_submodule(m)]
    for lattice in lattices[1:]:
        subs = [submodule_sum(a, b) for a in subs for b in lattice]
    return SubmoduleLattice(sorted(subs, key=lambda s: (s.order(), s.gens)))


def _sum_closure(m: FiniteModule, piece: Submodule) -> list[Submodule]:
    """The piece's submodules, in one pass over its elements: each new cyclic
    submodule xR is added to every submodule found so far.  Those are all
    the sums of the cyclic submodules walked before x, so an xR among them
    adds nothing new."""
    zero = zero_submodule(m)
    seen = {zero.gens: zero}
    # M itself is walked by coordinates, with no Smith form of its generators
    for x in m.elements() if piece.is_full() else piece.elements():
        cyclic = submodule_generated(m, [x])
        if cyclic.gens in seen:
            continue
        for a in list(seen.values()):
            s = submodule_sum(a, cyclic)
            seen.setdefault(s.gens, s)
    return list(seen.values())


def properly_contains(big: Submodule, small: Submodule, big_order: int, small_order: int) -> bool:
    """big ⊋ small, given their orders.  That needs |small| to divide |big|
    properly; only then are the generators of small tested for membership."""
    return big_order > small_order and big_order % small_order == 0 and big.contains_sub(small)


def maximal_members(subs: Sequence[Submodule]) -> list[Submodule]:
    """The members of ``subs`` that no other member properly contains, in
    the order given; each order is computed once."""
    orders = [s.order() for s in subs]
    return [s for s, o in zip(subs, orders)
            if not any(properly_contains(t, s, ot, o) for t, ot in zip(subs, orders))]


def maximal_submodules(m: FiniteModule, cap: int) -> tuple[Submodule, ...]:
    return enumerate_submodules(m, cap).maximal


def radical(m: FiniteModule, cap: int) -> Submodule:
    return enumerate_submodules(m, cap).radical


def socle(m: FiniteModule, cap: int) -> Submodule:
    return enumerate_submodules(m, cap).socle


def is_essential(n: Submodule, cap: int) -> bool:
    """n meets every nonzero submodule of its ambient nontrivially.

    Every nonzero submodule of a finite module contains a simple one, so
    that holds iff n contains every simple submodule, that is, the socle.
    """
    return n.contains_sub(socle(n.ambient, cap))


# ---------------------------------------------------------------------------
# Quotients and extraction
# ---------------------------------------------------------------------------


def quotient(m: FiniteModule, n: Submodule) -> tuple[FiniteModule, ModuleHom]:
    """M/N with its canonical projection.

    Coordinates come from the Smith form of the lifted lattice of N, so
    repeated quotient calls are bit-identical.  Coordinates of order 1 are
    dropped (the zero module has empty moduli).
    """
    if n.ambient != m:
        raise ValueError("quotient: submodule of a different module")
    k = m.rank
    basis = linalg.lattice_basis(n.gens, m.moduli)
    s, v, vinv = linalg.smith_normal_form(basis) if k else ((), (), ())
    orders = tuple(s[i][i] for i in range(k))
    kept = [i for i in range(k) if orders[i] > 1]
    qmod = tuple(orders[i] for i in kept)
    # projection: x -> (x @ Vinv) restricted to kept coordinates
    proj = tuple(
        tuple(vinv[r][i] % qmod[t] for t, i in enumerate(kept)) for r in range(k)
    )
    # lift: kept coordinate i -> row i of V
    lift = tuple(tuple(v[i]) for i in kept)
    action = []
    for t in range(m.ring.basis_count):
        mat = linalg.mat_mul(linalg.mat_mul(lift, m.action[t]), [
            [vinv[r][i] for i in kept] for r in range(k)
        ])
        action.append(tuple(linalg.vec_mod(row, qmod) for row in mat))
    q = FiniteModule(
        ring=m.ring, moduli=qmod, action=tuple(action),
        name=f"({m.name})/N" if m.name else "quotient",
    )
    return q, ModuleHom(m, q, proj)


@lru_cache(maxsize=None)
def extract(n: Submodule) -> tuple[FiniteModule, ModuleHom]:
    """A standalone module isomorphic to n, with its inclusion hom.

    Coordinates are the invariant-factor generators of the subgroup, so the
    extraction is canonical per submodule.
    """
    m = n.ambient
    gens, orders = linalg.subgroup_structure(n.gens, m.moduli)
    inner = FiniteModule(
        ring=m.ring,
        moduli=orders,
        action=_extracted_action(m, gens, orders),
        name=f"sub({m.name})" if m.name else "sub",
    )
    return inner, ModuleHom(inner, m, gens)


def _extracted_action(
    m: FiniteModule, gens: IntMatrix, orders: tuple[int, ...]
) -> tuple[IntMatrix, ...]:
    system = coordinate_system(gens, orders, m.moduli)
    return tuple(
        tuple(coordinates_in_subgroup(linalg.vec_mat(g, m.action[t]), system) for g in gens)
        for t in range(m.ring.basis_count)
    )


def coordinate_system(
    gens: IntMatrix, orders: tuple[int, ...], m: ModuliVector
) -> linalg.CongruenceSystem:
    """The prepared solve for coefficients over invariant-factor generators."""
    system = linalg.CongruenceSystem(gens, m, orders)
    if system.homogeneous != ():
        raise InternalInconsistency("invariant-factor generators must give unique coordinates")
    return system


def coordinates_in_subgroup(x: Sequence[int], system: linalg.CongruenceSystem) -> IntVector:
    """Unique coefficients c with sum(c_i * gens_i) = x, over a coordinate_system."""
    coords = system.particular(x)
    if coords is None:
        raise ValueError("element lies outside the subgroup")
    return coords
