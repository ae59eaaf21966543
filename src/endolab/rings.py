"""Finite associative unital rings presented by structure constants.

A ring is an additive group ⊕ Z/c_i with basis b_1..b_k, a multiplication
table giving the coordinates of every b_i * b_j, and the coordinates of the
identity.  All regularity predicates work on this presentation: the
per-element quasi-inverse search is a linear congruence solve (the map
y -> xyx is additive in y), only the universal quantifier over elements
enumerates, guarded by a cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from typing import Iterator, Optional, Sequence

from . import linalg
from .linalg import IntMatrix, IntVector, ModuliVector
from .verdicts import CapExceeded, InternalInconsistency, Verdict, memo, undecided_on_cap


@dataclass(frozen=True)
class FiniteRing:
    """Structure-constant presentation of a finite associative unital ring.

    ``mul[i][j]`` holds the coordinates of b_i * b_j; ``one`` the coordinates
    of the multiplicative identity.  Instances are immutable; validate with
    :func:`validate_ring` before trusting any derived computation.
    """

    moduli: ModuliVector
    mul: tuple[tuple[IntVector, ...], ...]
    one: IntVector
    name: str = field(default="", compare=False)

    @property
    def basis_count(self) -> int:
        return len(self.moduli)

    def size(self) -> int:
        return prod(self.moduli)

    def element(self, coords: Sequence[int]) -> "RingElement":
        return RingElement(linalg.vec_mod(tuple(coords), self.moduli), self)

    def zero(self) -> "RingElement":
        return self.element((0,) * self.basis_count)

    def add_coords(self, x: Sequence[int], y: Sequence[int]) -> IntVector:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def mul_coords(self, x: Sequence[int], y: Sequence[int]) -> IntVector:
        k = self.basis_count
        out = [0] * k
        for i in range(k):
            xi = x[i]
            if not xi:
                continue
            row = self.mul[i]
            for j in range(k):
                yj = y[j]
                if not yj:
                    continue
                t = row[j]
                c = xi * yj
                for s in range(k):
                    out[s] += c * t[s]
        return tuple(v % m for v, m in zip(out, self.moduli))

    def right_mul_matrix(self, y: Sequence[int]) -> IntMatrix:
        """Matrix of x -> x*y on coordinates (row-vector convention)."""
        k = self.basis_count
        rows = []
        for i in range(k):
            basis = tuple(1 if t == i else 0 for t in range(k))
            rows.append(self.mul_coords(basis, y))
        return tuple(rows)

    def left_mul_matrix(self, y: Sequence[int]) -> IntMatrix:
        k = self.basis_count
        rows = []
        for i in range(k):
            basis = tuple(1 if t == i else 0 for t in range(k))
            rows.append(self.mul_coords(y, basis))
        return tuple(rows)


@dataclass(frozen=True)
class RingElement:
    coords: IntVector
    ring: FiniteRing

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.ring.add_coords(self.coords, other.coords), self.ring)

    def __neg__(self) -> "RingElement":
        return RingElement(
            tuple((-c) % m for c, m in zip(self.coords, self.ring.moduli)), self.ring
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.ring.mul_coords(self.coords, other.coords), self.ring)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self) -> str:
        return f"RingElement{self.coords}"


def validate_ring(ring: FiniteRing) -> tuple[bool, str]:
    """Check all presentation invariants; return (ok, first violated axiom)."""
    k = ring.basis_count
    m = ring.moduli
    if any(v < 1 for v in m):
        return False, "moduli: every additive order must be >= 1"
    if len(ring.mul) != k or any(len(row) != k for row in ring.mul):
        return False, "structure constants: table must be k x k"
    if any(len(ring.mul[i][j]) != k for i in range(k) for j in range(k)):
        return False, "structure constants: each product must have k coordinates"
    if len(ring.one) != k:
        return False, "identity: coordinate vector must have k entries"
    for i in range(k):
        for j in range(k):
            t = ring.mul[i][j]
            for s in range(k):
                if (m[i] * t[s]) % m[s] or (m[j] * t[s]) % m[s]:
                    return False, (
                        f"well-definedness: c_{i}*T[{i}][{j}] or c_{j}*T[{i}][{j}] "
                        f"nonzero mod moduli"
                    )
    basis = [tuple(1 if t == i else 0 for t in range(k)) for i in range(k)]
    for i in range(k):
        for j in range(k):
            for l in range(k):
                lhs = ring.mul_coords(ring.mul_coords(basis[i], basis[j]), basis[l])
                rhs = ring.mul_coords(basis[i], ring.mul_coords(basis[j], basis[l]))
                if lhs != rhs:
                    return False, f"associativity: (b_{i} b_{j}) b_{l} != b_{i} (b_{j} b_{l})"
    one = linalg.vec_mod(ring.one, m)
    for i in range(k):
        if ring.mul_coords(one, basis[i]) != basis[i] or ring.mul_coords(basis[i], one) != basis[i]:
            return False, f"identity law: one * b_{i} or b_{i} * one != b_{i}"
    return True, ""


def iter_elements(ring: FiniteRing) -> Iterator[RingElement]:
    for coords in itertools.product(*(range(m) for m in ring.moduli)):
        yield RingElement(coords, ring)


def enumerate_elements(ring: FiniteRing, cap: int) -> list[RingElement]:
    """All elements of the ring; raises CapExceeded when |R| > cap."""
    total = ring.size()
    if total > cap:
        raise CapExceeded(total, cap, "ring elements")
    return list(iter_elements(ring))


def _quasi_inverses(x: RingElement) -> Optional[tuple[IntVector, IntMatrix]]:
    """The coset of all y with x*y*x = x as (particular, homogeneous), or None.

    y -> xyx is additive, so the coset is one congruence solve over the
    images x*b_j*x of the basis elements.
    """
    ring = x.ring
    k = ring.basis_count
    rows = []
    for j in range(k):
        basis = tuple(1 if t == j else 0 for t in range(k))
        rows.append(ring.mul_coords(ring.mul_coords(x.coords, basis), x.coords))
    return linalg.solve_congruence_system(rows, x.coords, ring.moduli, ring.moduli)


def regularity_witness(x: RingElement) -> Optional[RingElement]:
    """Some y with x*y*x = x, or None.  Decided by an exact linear solve."""
    ring = x.ring
    solved = _quasi_inverses(x)
    if solved is None:
        return None
    particular, _ = solved
    y = ring.element(particular)
    if (x * y * x).coords != x.coords:
        raise InternalInconsistency(f"quasi-inverse check failed for {x!r}")
    return y


@memo
@undecided_on_cap
def is_regular(ring: FiniteRing, cap: int) -> Verdict:
    """Every element has a quasi-inverse (von Neumann regularity)."""
    for x in enumerate_elements(ring, cap):
        if regularity_witness(x) is None:
            return Verdict.no(witness=x, reason="element with no quasi-inverse")
    return Verdict.yes()


def idempotents(ring: FiniteRing, cap: int) -> list[RingElement]:
    return [e for e in enumerate_elements(ring, cap) if (e * e).coords == e.coords]


def is_central(x: RingElement) -> bool:
    """x commutes with every basis element (enough, by bilinearity)."""
    ring = x.ring
    k = ring.basis_count
    for i in range(k):
        basis = tuple(1 if t == i else 0 for t in range(k))
        if ring.mul_coords(x.coords, basis) != ring.mul_coords(basis, x.coords):
            return False
    return True


@memo
@undecided_on_cap
def is_abelian_regular(ring: FiniteRing, cap: int) -> Verdict:
    """Regular with all idempotents central; cross-checked via reducedness.

    The second route (regular with no nonzero square-zero element) must give
    the same answer; a mismatch raises InternalInconsistency.
    """
    reg = is_regular(ring, cap)
    if not reg.require():
        return Verdict.no(witness=reg.witness, reason="not regular")
    elems = enumerate_elements(ring, cap)
    route_idem = Verdict.yes()
    for e in elems:
        if (e * e).coords == e.coords and not is_central(e):
            route_idem = Verdict.no(witness=e, reason="non-central idempotent")
            break
    route_nil = Verdict.yes()
    for x in elems:
        if not x.is_zero() and (x * x).is_zero():
            route_nil = Verdict.no(witness=x, reason="nonzero square-zero element")
            break
    if route_idem.value != route_nil.value:
        raise InternalInconsistency(
            f"abelian-regularity routes disagree on {ring.name or ring}: "
            f"idempotents {route_idem.describe()} vs nilpotents {route_nil.describe()}"
        )
    return route_idem


def units(ring: FiniteRing, cap: int) -> list[RingElement]:
    """All two-sided units, each found by one linear solve per candidate."""
    return [u for u in enumerate_elements(ring, cap) if is_unit(u)]


def is_unit(x: RingElement) -> bool:
    """Some right inverse v of x (one linear solve) is also a left inverse."""
    ring = x.ring
    one = linalg.vec_mod(ring.one, ring.moduli)
    solved = linalg.solve_congruence_system(
        ring.left_mul_matrix(x.coords), one, ring.moduli, ring.moduli
    )
    return solved is not None and ring.mul_coords(solved[0], x.coords) == one


@memo
@undecided_on_cap
def is_unit_regular(ring: FiniteRing, cap: int) -> Verdict:
    """Every x admits a unit quasi-inverse u with x*u*x = x."""
    for x in enumerate_elements(ring, cap):
        if not _has_unit_witness(x):
            return Verdict.no(witness=x, reason="no unit quasi-inverse")
    return Verdict.yes()


def _has_unit_witness(x: RingElement) -> bool:
    ring = x.ring
    solved = _quasi_inverses(x)
    if solved is None:
        return False
    particular, homogeneous = solved
    for h in linalg.enumerate_subgroup(homogeneous, ring.moduli):
        cand = ring.element(ring.add_coords(particular, h))
        if is_unit(cand):
            return True
    return False


def regularity_hierarchy(ring: FiniteRing, cap: int) -> tuple[Verdict, Verdict, Verdict]:
    """(abelian regular, unit regular, regular); the implications must cascade."""
    ab = is_abelian_regular(ring, cap)
    un = is_unit_regular(ring, cap)
    re = is_regular(ring, cap)
    if ab.value and un.value is False:
        raise InternalInconsistency("abelian regular ring that is not unit regular")
    if un.value and re.value is False:
        raise InternalInconsistency("unit regular ring that is not regular")
    return ab, un, re


# ---------------------------------------------------------------------------
# Stock presentations (used by generators, fixtures and tests)
# ---------------------------------------------------------------------------


def zmod_ring(n: int) -> FiniteRing:
    """Z/n with a single basis element 1."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return FiniteRing(moduli=(n,), mul=(((1,),),), one=(1,), name=f"Z/{n}")


def matrix_ring_presentation(
    n: int, modulus: int, upper_triangular: bool = False, name: str = ""
) -> FiniteRing:
    """Full (or upper triangular) n x n matrices over Z/modulus.

    Basis elements are the matrix units e_pq in row-major order; for the
    triangular case only pairs with p <= q appear.
    """
    pairs = [(p, q) for p in range(n) for q in range(n) if not upper_triangular or p <= q]
    index = {pq: i for i, pq in enumerate(pairs)}
    k = len(pairs)
    mul = []
    for (p, q) in pairs:
        row = []
        for (r, s) in pairs:
            coords = [0] * k
            if q == r and (p, s) in index:
                coords[index[(p, s)]] = 1
            row.append(tuple(coords))
        mul.append(tuple(row))
    one = [0] * k
    for p in range(n):
        one[index[(p, p)]] = 1
    default = f"{'UT' if upper_triangular else 'Mat'}{n}(Z/{modulus})"
    return FiniteRing(
        moduli=(modulus,) * k, mul=tuple(mul), one=tuple(one), name=name or default
    )


def product_ring(a: FiniteRing, b: FiniteRing, name: str = "") -> FiniteRing:
    """Direct product ring with componentwise operations."""
    ka, kb = a.basis_count, b.basis_count
    k = ka + kb
    zero_a, zero_b = (0,) * ka, (0,) * kb
    mul = []
    for i in range(k):
        row = []
        for j in range(k):
            if i < ka and j < ka:
                row.append(a.mul[i][j] + zero_b)
            elif i >= ka and j >= ka:
                row.append(zero_a + b.mul[i - ka][j - ka])
            else:
                row.append((0,) * k)
        mul.append(tuple(row))
    return FiniteRing(
        moduli=a.moduli + b.moduli,
        mul=tuple(mul),
        one=a.one + b.one,
        name=name or f"{a.name} x {b.name}",
    )
