"""Finite preorders, their incidence algebras over a commutative base ring,
and the coordinate-tuple module construction.

The incidence algebra I(X, A) has one basis block e_{xy} per comparable pair
xRy; the product is convolution, so e_{xy} e_{zw} = e_{xw} when y = z (the
pair (x, w) is comparable by transitivity) and 0 otherwise.  A must be
commutative so scalars slide past the pair basis.  Both the algebra and the
tuple module M(X) are read off the structure constants of A and the action
table of M, and ``incend_check`` compares End_A(M) with End(M(X)) by the
orders of the two hom groups alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .homs import hom_group
from .modules import FiniteModule, submodule_generated
from .rings import FiniteRing, validate_ring
from .verdicts import CapExceeded, Caps, InternalInconsistency


class NonCommutativeBase(ValueError):
    """Incidence algebras are only built over commutative coefficient rings."""


class NotCyclic(ValueError):
    """The endomorphism comparison needs a cyclic coefficient module."""


class NoBottomElement(ValueError):
    """The endomorphism comparison needs an element below every other."""


@dataclass(frozen=True)
class Preorder:
    """Finite reflexive transitive relation on named elements."""

    elements: tuple[str, ...]
    relation: tuple[tuple[bool, ...], ...]

    def pairs(self) -> list[tuple[int, int]]:
        """Comparable index pairs in row-major order: the algebra basis."""
        n = len(self.elements)
        return [(i, j) for i in range(n) for j in range(n) if self.relation[i][j]]

    def bottom(self) -> Optional[int]:
        for i in range(len(self.elements)):
            if all(self.relation[i]):
                return i
        return None


def preorder_from_pairs(
    elements: Sequence[str], related: Sequence[tuple[str, str]]
) -> Preorder:
    """Build a preorder from element names and related pairs.

    The reflexive closure is applied automatically; a non-transitive input is
    rejected rather than silently closed, since closure would change the
    algebra being asked about.
    """
    names = tuple(elements)
    if len(set(names)) != len(names):
        raise ValueError("duplicate element names")
    index = {x: i for i, x in enumerate(names)}
    n = len(names)
    rel = [[i == j for j in range(n)] for i in range(n)]
    for x, y in related:
        if x not in index or y not in index:
            raise ValueError(f"relation pair ({x}, {y}) names an unknown element")
        rel[index[x]][index[y]] = True
    broken = _intransitive_triple(rel)
    if broken is not None:
        i, k, j = (names[t] for t in broken)
        raise ValueError(f"relation is not transitive: {i} R {k} R {j} but not {i} R {j}")
    return Preorder(names, tuple(tuple(r) for r in rel))


def _intransitive_triple(rel: Sequence[Sequence[bool]]) -> Optional[tuple[int, int, int]]:
    """The first (i, k, j) with i R k and k R j but not i R j, or None."""
    triples = itertools.product(range(len(rel)), repeat=3)
    return next(((i, k, j) for i, k, j in triples if rel[i][k] and rel[k][j] and not rel[i][j]),
                None)


def validate_preorder(x: Preorder) -> bool:
    n = len(x.elements)
    if len(x.relation) != n or any(len(r) != n for r in x.relation):
        return False
    if any(not x.relation[i][i] for i in range(n)):
        return False
    return _intransitive_triple(x.relation) is None


@dataclass(frozen=True)
class IncidenceAlgebraBundle:
    ring: FiniteRing
    base: FiniteRing
    preorder: Preorder
    pair_index: tuple[tuple[int, int], ...]


def build_incidence_algebra(x: Preorder, a: FiniteRing) -> IncidenceAlgebraBundle:
    """The incidence algebra I(X, A) as an explicit structure-constant ring."""
    if not validate_preorder(x):
        raise ValueError("invalid preorder")
    na = a.basis_count
    # validate_ring accepts unreduced constants, so reduce the table once
    table = [[linalg.vec_mod(a.mul[s][t], a.moduli) for t in range(na)] for s in range(na)]
    for s, t in itertools.combinations(range(na), 2):
        if table[s][t] != table[t][s]:
            raise NonCommutativeBase("coefficient ring is not commutative")

    pairs = tuple(x.pairs())
    dim = len(pairs) * na
    moduli = tuple(a.moduli[t] for _ in pairs for t in range(na))

    pair_pos = {p: k for k, p in enumerate(pairs)}
    related = x.relation
    mul = []
    for (p, s) in ((p, s) for p in pairs for s in range(na)):
        row = []
        for (q, t) in ((q, t) for q in pairs for t in range(na)):
            coords = [0] * dim
            if p[1] == q[0] and related[p[0]][q[1]]:
                target = pair_pos[(p[0], q[1])]
                coords[target * na:(target + 1) * na] = table[s][t]
            row.append(tuple(coords))
        mul.append(tuple(row))

    one = [0] * dim
    for i in range(len(x.elements)):
        k = pair_pos[(i, i)]
        one[k * na:(k + 1) * na] = a.one

    ring = FiniteRing(
        moduli=moduli,
        mul=tuple(mul),
        one=tuple(one),
        name=f"I(X,{a.name})" if a.name else "I(X,A)",
    )
    ok, msg = validate_ring(ring)
    if not ok:
        raise InternalInconsistency(f"incidence algebra fails a ring axiom: {msg}")
    return IncidenceAlgebraBundle(ring=ring, base=a, preorder=x, pair_index=pairs)


def build_mx(m: FiniteModule, bundle: IncidenceAlgebraBundle) -> FiniteModule:
    """M^(X) as a right module over I(X, A).

    A tuple (m_x) hit by f returns the tuple y ↦ Σ_x m_x f(x, y); on basis
    elements e_{uv} ⊗ a this moves block u to block v through the action
    of a and kills everything else.
    """
    a = bundle.base
    if m.ring != a:
        raise ValueError("module is not over the coefficient ring of the algebra")
    nx = len(bundle.preorder.elements)
    rank = m.rank
    moduli = m.moduli * nx
    scalars = [linalg.mat_mod(mat, m.moduli) for mat in m.action]

    action = []
    for u, v in bundle.pair_index:
        for scalar in scalars:
            rows = []
            for block in range(nx):
                for r in range(rank):
                    row = [0] * (nx * rank)
                    if block == u:
                        row[v * rank:(v + 1) * rank] = scalar[r]
                    rows.append(tuple(row))
            action.append(tuple(rows))

    return FiniteModule(
        ring=bundle.ring,
        moduli=moduli,
        action=tuple(action),
        name=f"{m.name}(X)" if m.name else "M(X)",
    )


@dataclass(frozen=True)
class IsoReport:
    left_size: int
    right_size: int
    isomorphic: bool
    detail: str = ""


def is_cyclic(m: FiniteModule, cap: int) -> bool:
    if m.size() > cap:
        raise CapExceeded(m.size(), cap, "module elements")
    if m.size() == 1:
        return True
    return any(
        submodule_generated(m, [x]).is_full() for x in m.elements()
    )


def incend_check(
    m: FiniteModule, bundle: IncidenceAlgebraBundle, caps: Caps = Caps()
) -> IsoReport:
    """Decide End_A(M) ≅ End_R(M(X)) for cyclic M and X with a bottom element.

    The candidate isomorphism is Φ(φ) = diag(φ, …, φ), acting on each
    coordinate of a tuple (m_x).  It is additive, sends 1 to 1 and ψ∘φ to
    Φ(ψ)∘Φ(φ), and it is injective because X has a bottom element and so is
    non-empty.  It commutes with each basis element e_{uv} ⊗ a of R = I(X, A),
    which moves block u to block v through the action of a, because φ is
    A-linear.  So Φ is an injective ring map End_A(M) → End_R(M(X)), and it
    is onto exactly when the two rings have the same order.  Only the orders
    of the two hom groups are computed; no End ring is built or enumerated.
    The cyclicity test enumerates M, so its order is bounded by
    ``caps.elements``; the sizes of both endomorphism rings stay bounded by
    ``caps.homs`` as the input contract.
    """
    if bundle.preorder.bottom() is None:
        raise NoBottomElement("the preorder has no element below all others")
    if not is_cyclic(m, caps.elements):
        raise NotCyclic("the coefficient module is not cyclic")

    mx = build_mx(m, bundle)
    sizes = (hom_group(m, m).size(), hom_group(mx, mx).size())
    if max(sizes) > caps.homs:
        raise CapExceeded(max(sizes), caps.homs, "endomorphisms")
    if sizes[0] != sizes[1]:
        return IsoReport(*sizes, False, "lift not surjective")
    return IsoReport(*sizes, True)
