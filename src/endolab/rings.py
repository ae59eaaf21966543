"""Finite associative unital rings presented by structure constants.

A ring is an additive group ⊕ Z/c_i with basis b_1..b_k, a multiplication
table giving the coordinates of every b_i * b_j, and the coordinates of the
identity.  All regularity predicates work on this presentation: the
per-element quasi-inverse search is a linear congruence solve (the map
y -> xyx is additive in y), and a universal quantifier over elements
enumerates, guarded by a cap.

``is_regular`` enumerates only to say no.  A finite ring is regular iff it
is semisimple, iff its Jacobson radical is 0, and ``is_semisimple`` decides
that from the structure constants with one linear solve per level of the
Rónyai / Cohen–Ivanyos–Wales radical sequence.  ``is_unit_regular`` reads
``is_regular``: a finite ring has stable range one (Bass, "K-theory and
stable algebra", Publ. IHES 22, 1964), so regular elements are unit-regular.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm, prod
from typing import Optional, Sequence

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

    @cached_property
    def centre(self) -> IntMatrix:
        """Canonical generators of the centre Z(R), solved once per ring.

        x is central iff x·b_j = b_j·x for every basis element b_j, so Z(R)
        is one kernel of the additive map x -> (x·b_j - b_j·x)_j.  Its
        equation (j, s) is coordinate s of that map, mod moduli[s], with
        coefficient b_i·b_j - b_j·b_i at x_i; ``linalg.kernel_system`` drops
        those that constrain nothing, such as all k equations of a central
        b_j.
        """
        k = self.basis_count
        equations = (
            ([self.mul[i][j][s] - self.mul[j][i][s] for i in range(k)], self.moduli[s])
            for j in range(k) for s in range(k)
        )
        rows, out_moduli = linalg.kernel_system(equations, k)
        return linalg.kernel_subgroup(rows, out_moduli, self.moduli)

    @cached_property
    def _central_atoms(self) -> tuple[IntVector, ...]:
        """The primitive central idempotents, from one walk over Z(R) per
        ring: each block e, starting from 1, splits into e·f and e - e·f at
        every central idempotent f.  ``primitive_central_idempotents``
        bounds the walk by a cap."""
        blocks = [linalg.vec_mod(self.one, self.moduli)]
        for f in linalg.enumerate_subgroup(self.centre, self.moduli):
            if self.mul_coords(f, f) != f:
                continue
            split = []
            for e in blocks:
                ef = self.mul_coords(e, f)
                rest = linalg.vec_mod([a - b for a, b in zip(e, ef)], self.moduli)
                split.extend(x for x in (ef, rest) if any(x))
            blocks = split
        return tuple(blocks)


@dataclass(frozen=True)
class RingElement:
    coords: IntVector
    ring: FiniteRing

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
                lhs = ring.mul_coords(ring.mul[i][j], basis[l])
                rhs = ring.mul_coords(basis[i], ring.mul[j][l])
                if lhs != rhs:
                    return False, f"associativity: (b_{i} b_{j}) b_{l} != b_{i} (b_{j} b_{l})"
    one = linalg.vec_mod(ring.one, m)
    for i in range(k):
        if ring.mul_coords(one, basis[i]) != basis[i] or ring.mul_coords(basis[i], one) != basis[i]:
            return False, f"identity law: one * b_{i} or b_{i} * one != b_{i}"
    return True, ""


def _require_within_cap(ring: FiniteRing, cap: int) -> None:
    total = ring.size()
    if total > cap:
        raise CapExceeded(total, cap, "ring elements")


def enumerate_elements(ring: FiniteRing, cap: int) -> list[RingElement]:
    """All elements of the ring; raises CapExceeded when |R| > cap."""
    _require_within_cap(ring, cap)
    return [
        RingElement(coords, ring)
        for coords in itertools.product(*(range(m) for m in ring.moduli))
    ]


def _quasi_inverses(x: RingElement) -> Optional[tuple[IntVector, IntMatrix]]:
    """The coset of all y with x*y*x = x as (particular, homogeneous), or None.

    y -> xyx is additive, so the coset is one congruence solve over the
    images x*b_j*x of the basis elements.
    """
    ring = x.ring
    rows = [ring.mul_coords(xb, x.coords) for xb in ring.left_mul_matrix(x.coords)]
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
    """Every element has a quasi-inverse (von Neumann regularity).

    A finite ring is regular iff it is semisimple, so ``is_semisimple``
    answers yes without enumerating.  A no enumerates the elements in
    coordinate order for the first one with no quasi-inverse; finding none
    means the two routes disagree.  The cap holds on both paths.
    """
    _require_within_cap(ring, cap)
    if is_semisimple(ring):
        return Verdict.yes()
    for x in enumerate_elements(ring, cap):
        if regularity_witness(x) is None:
            return Verdict.no(witness=x, reason="element with no quasi-inverse")
    raise InternalInconsistency(
        f"regularity routes disagree on {ring.name or ring}: the radical is nonzero, "
        f"but every element has a quasi-inverse"
    )


def is_semisimple(ring: FiniteRing) -> bool:
    """J(R) = 0, decided from the structure constants alone.

    If p^2 divides the characteristic n (the lcm of the moduli), then
    (n/p)·1 is a nonzero central nilpotent.  Otherwise R is the product of
    its p-parts R_p, one F_p-algebra for each prime p | n, and
    J(R) = ⊕ J(R_p) with each J(R_p) the last ideal of ``radical_chain``.
    """
    n = lcm(*ring.moduli)
    for p in linalg.prime_divisors(n):
        if n % (p * p) == 0 or radical_chain(ring, p)[-1]:
            return False
    return True


def radical_chain(ring: FiniteRing, p: int) -> list[IntMatrix]:
    """The ideals I_0 ⊇ I_1 ⊇ ... ⊇ I_l = J(R_p) of the p-part R_p.

    R needs a squarefree characteristic divisible by p; then R_p is an
    F_p-algebra with basis u_a = (c_i/p)·b_i over the i with p | c_i, and
    each ideal is a tuple of independent rows over that basis.  Rónyai,
    "Computing the structure of finite algebras" (J. Symb. Comp. 9, 1990);
    Cohen, Ivanyos and Wales, "Finding the radical of an algebra of linear
    transformations" (JPAA 117/118, 1997): with d = dim R_p and
    l = floor(log_p d), I_{-1} = R_p and

        I_i = {x in I_{i-1} : g_i(x·u_b) = 0 for every b},
        g_i(x) = (Tr(L~_x^(p^i)) mod p^(i+1)) / p^i,

    where L~_x is an integer lift of the left multiplication by x.  g_i is
    F_p-linear on I_{i-1}, so it is a functional w with g_i(y) = w·y there,
    and each level is one kernel over F_p of the rows x·W, where
    W[a][b] = w·(u_a u_b).  g_0 is the trace, linear on all of R_p, with
    w_s = Tr L_{u_s}.  The chain stops early at 0.
    """
    consts = _p_part(ring, p)
    d = len(consts)
    fp = (p,) * d
    basis = linalg.identity_matrix(d)
    functional = tuple(sum(consts[s][j][j] for j in range(d)) % p for s in range(d))
    chain = []
    level = 0
    while True:
        gram = tuple(
            tuple(sum(t * w for t, w in zip(prod_ab, functional)) % p for prod_ab in row)
            for row in consts
        )
        rows = [linalg.vec_mat(x, gram) for x in basis]
        kept = linalg.kernel_subgroup(rows, fp, (p,) * len(basis))
        basis = tuple(linalg.vec_mod(linalg.vec_mat(y, basis), fp) for y in kept)
        chain.append(basis)
        level += 1
        if not basis or p**level > d:
            return chain
        values = [_power_trace(x, consts, p, level) for x in basis]
        solved = linalg.solve_congruence_system(
            tuple(zip(*basis)), values, (p,) * len(basis), fp
        )
        if solved is None:
            raise InternalInconsistency("no functional takes given values on independent rows")
        functional = solved[0]


def _p_part(ring: FiniteRing, p: int) -> tuple[tuple[IntVector, ...], ...]:
    """Structure constants of R_p over u_a = (c_i/p)·b_i, p | c_i.

    u_a·u_b = (c_i/p)(c_j/p)·b_i b_j is p-torsion, so its coordinate at
    each such s is a multiple of c_s/p, and that multiple mod p is its
    coordinate at u_s.
    """
    m = ring.moduli
    part = [(i, m[i] // p) for i in range(len(m)) if m[i] % p == 0]
    return tuple(
        tuple(
            tuple((si * sj * ring.mul[i][j][s] % m[s]) // ss for s, ss in part)
            for j, sj in part
        )
        for i, si in part
    )


def _power_trace(
    x: Sequence[int], consts: tuple[tuple[IntVector, ...], ...], p: int, level: int
) -> int:
    """g_level(x) of ``radical_chain``: Tr(L~_x^(p^level)) mod p^(level+1),
    divided by p^level, for the lift of L_x with entries in [0, p)."""
    d = len(x)
    mod = p ** (level + 1)
    base = [
        [sum(x[a] * consts[a][j][c] for a in range(d)) % p for c in range(d)]
        for j in range(d)
    ]
    moduli = (mod,) * d
    power, exponent = linalg.identity_matrix(d), p**level
    while exponent:
        if exponent & 1:
            power = linalg.mat_mod(linalg.mat_mul(power, base), moduli)
        exponent >>= 1
        if exponent:
            base = linalg.mat_mod(linalg.mat_mul(base, base), moduli)
    trace = sum(power[j][j] for j in range(d)) % mod
    value, rest = divmod(trace, p**level)
    if rest:
        raise InternalInconsistency(
            f"trace {trace} mod {mod} of a power is not a multiple of {mod // p}"
        )
    return value


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


def primitive_central_idempotents(ring: FiniteRing, cap: int) -> tuple[IntVector, ...]:
    """The primitive central idempotents e_1..e_r of R, or (1,) when
    |Z(R)| > cap.

    The central idempotents form a Boolean algebra, and e_1..e_r are its
    atoms: pairwise orthogonal, summing to 1, each split by no other
    central idempotent.
    """
    if linalg.subgroup_order(ring.centre, ring.moduli) > cap:
        return (linalg.vec_mod(ring.one, ring.moduli),)
    return ring._central_atoms


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


def is_unit(x: RingElement) -> bool:
    """Some right inverse v of x (one linear solve) is also a left inverse."""
    ring = x.ring
    one = linalg.vec_mod(ring.one, ring.moduli)
    solved = linalg.solve_congruence_system(
        ring.left_mul_matrix(x.coords), one, ring.moduli, ring.moduli
    )
    return solved is not None and ring.mul_coords(solved[0], x.coords) == one


def is_unit_regular(ring: FiniteRing, cap: int) -> Verdict:
    """Every x admits a unit quasi-inverse u with x*u*x = x.

    If x*y*x = x, then yR + (1-yx)R = R, and stable range one gives a unit
    u = y + (1-yx)t, with xux = x.  So this is ``is_regular``, first witness
    and memo included, with its own reason for a no.
    """
    regular = is_regular(ring, cap)
    if regular.value is False:
        return Verdict.no(witness=regular.witness, reason="no unit quasi-inverse")
    return regular


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
