"""Exact integer linear algebra over Z and over products of Z/m.

Everything downstream (rings, modules, hom computation) reduces to three
primitives implemented here, all built on the row Hermite normal form of a
lattice that contains diag(moduli):

* Solving linear congruence systems ``x @ A = b (mod m)`` where each output
  coordinate carries its own modulus.  ``CongruenceSystem`` factors A with
  one HNF, then solves for each right-hand side by forward substitution.
* A canonical (Howell/Hermite-style) generator matrix for subgroups of
  ``Z/m_1 x ... x Z/m_k``, so that subgroup equality is bit-equality.
* Subgroup intersection, one Zassenhaus HNF of the two lifted lattices.

All three compute that HNF with ``lattice_basis``, a modular HNF: since
m_j * e_j lies in the lattice, every entry of column j is kept reduced mod
m_j, each column takes one extended-gcd step per generator that is
nonzero there, and the rows above a pivot are reduced as soon as its
column is done.  ``hermite_normal_form`` is the general routine over Z; it
serves ``integer_kernel`` and is the reference the tests compare against.

``kernel_system`` assembles a kernel's system from a stream of equations,
keeping only those that constrain the unknowns: an equation that is zero
modulo its own modulus, or repeats an earlier one, leaves the solution set
as it is, and would only widen every HNF row.

The Smith normal form gives invariant factors only: subgroup structure
(whose HNF is read off a canonical form), quotients and group types.

All arithmetic uses Python's arbitrary-precision integers; intermediate
entries in a reduction can exceed any fixed word size.

Matrices are tuples of tuples of ints (row-major).  Moduli vectors are
tuples of ints ``m_j >= 1``; ``m_j == 1`` marks a zero coordinate that is
kept positionally so embedding indices stay stable.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import mod, mul, neg
from typing import Iterable, Iterator, Optional, Sequence

from .verdicts import InternalInconsistency

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
ModuliVector = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Raised when matrix/vector shapes or moduli lengths are incompatible."""


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0]) if b else 0}")
    if not b:
        return tuple(() for _ in a)
    cols = list(zip(*b))
    return tuple(tuple([sum(map(mul, ra, col)) for col in cols]) for ra in a)


def vec_mat(x: Sequence[int], a: Sequence[Sequence[int]]) -> IntVector:
    if len(x) != len(a):
        raise DimensionMismatch(f"vector length {len(x)} vs {len(a)} rows")
    return tuple([sum(map(mul, x, col)) for col in zip(*a)])


def vec_mod(x: Sequence[int], m: ModuliVector) -> IntVector:
    if len(x) != len(m):
        raise DimensionMismatch(f"vector length {len(x)} vs {len(m)} moduli")
    return tuple(map(mod, x, m))


def mat_mod(a: Sequence[Sequence[int]], m: ModuliVector) -> IntMatrix:
    return tuple(vec_mod(row, m) for row in a)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class _Transform:
    """Mutable S with the column transform V and its inverse Vinv, so that
    U A Vinv = S where U, the product of the row operations, is not kept.
    A Vinv not kept has no rows, so the column operations pass it by."""

    def __init__(self, a: Sequence[Sequence[int]], inverse: bool):
        self.s = [list(row) for row in a]
        self.rows = len(self.s)
        self.cols = len(self.s[0]) if self.s else 0
        self.v = [list(row) for row in identity_matrix(self.cols)]
        self.vinv = [list(row) for row in identity_matrix(self.cols)] if inverse else []

    # Row operations act on S alone.  Column operations act on S and Vinv on
    # the right and on V by the inverse operation on the left.

    def row_swap(self, i: int, j: int) -> None:
        self.s[i], self.s[j] = self.s[j], self.s[i]

    def row_addmul(self, src: int, dst: int, k: int) -> None:
        if k == 0:
            return
        srow, drow = self.s[src], self.s[dst]
        for c in range(self.cols):
            drow[c] += k * srow[c]

    def row_negate(self, i: int) -> None:
        self.s[i] = [-v for v in self.s[i]]

    def col_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        self.v[i], self.v[j] = self.v[j], self.v[i]
        for row in self.vinv:
            row[i], row[j] = row[j], row[i]

    def col_addmul(self, src: int, dst: int, k: int) -> None:
        if k == 0:
            return
        for row in self.s:
            row[dst] += k * row[src]
        vsrc, vdst = self.v[src], self.v[dst]
        for c in range(self.cols):
            vsrc[c] -= k * vdst[c]
        for row in self.vinv:
            row[dst] += k * row[src]

    def least_entry(self, pos: int) -> Optional[tuple[int, int]]:
        """The first least nonzero |entry| of S, row by row, from (pos, pos)
        on, or None; none is below 1, so the scan stops at the first ±1."""
        best, least = None, 0
        for i in range(pos, self.rows):
            row = self.s[i]
            for j in range(pos, self.cols):
                v = abs(row[j])
                if v and (not least or v < least):
                    best, least = (i, j), v
                    if v == 1:
                        return best
        return best


def smith_normal_form(
    a: Sequence[Sequence[int]], inverse: bool = True,
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: (S, V, Vinv) with U A Vinv = S for some unimodular U.

    V is unimodular and Vinv is its inverse, so A Vinv and S have the same
    row lattice.  S is diagonal with nonnegative entries d_1 | d_2 | ...,
    zeros last.  Total on all integer matrices, including empty ones.
    With ``inverse`` false, Vinv is not kept and comes back as ().
    """
    t = _Transform(a, inverse)
    n = min(t.rows, t.cols)

    for pos in range(n):
        while True:
            best = t.least_entry(pos)
            if best is None:
                break
            t.row_swap(pos, best[0])
            t.col_swap(pos, best[1])
            if t.s[pos][pos] < 0:
                t.row_negate(pos)
            pivot = t.s[pos][pos]
            dirty = False
            for i in range(pos + 1, t.rows):
                q = t.s[i][pos] // pivot
                t.row_addmul(pos, i, -q)
                if t.s[i][pos]:
                    dirty = True
            for j in range(pos + 1, t.cols):
                q = t.s[pos][j] // pivot
                t.col_addmul(pos, j, -q)
                if t.s[pos][j]:
                    dirty = True
            if not dirty:
                break

    # Enforce the divisibility chain d_1 | d_2 | ... with zeros last.
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a_, b_ = t.s[i][i], t.s[i + 1][i + 1]
            if a_ == 0 and b_ != 0:
                t.row_swap(i, i + 1)
                t.col_swap(i, i + 1)
                changed = True
            elif a_ != 0 and b_ % a_ != 0:
                # Merge diag(a, b) into diag(gcd, lcm) via one extra column.
                t.col_addmul(i + 1, i, 1)
                while t.s[i + 1][i] or t.s[i][i + 1]:
                    if t.s[i + 1][i]:
                        if t.s[i][i] == 0 or (t.s[i + 1][i] and abs(t.s[i + 1][i]) < abs(t.s[i][i])):
                            t.row_swap(i, i + 1)
                        q = t.s[i + 1][i] // t.s[i][i]
                        t.row_addmul(i, i + 1, -q)
                    if t.s[i][i + 1]:
                        if t.s[i][i] == 0:
                            t.col_swap(i, i + 1)
                        q = t.s[i][i + 1] // t.s[i][i]
                        t.col_addmul(i, i + 1, -q)
                if t.s[i][i] < 0:
                    t.row_negate(i)
                if t.s[i + 1][i + 1] < 0:
                    t.row_negate(i + 1)
                changed = True

    for i in range(n):
        if t.s[i][i] < 0:
            t.row_negate(i)

    to_t = lambda m: tuple(tuple(row) for row in m)
    return to_t(t.s), to_t(t.v), to_t(t.vinv)


def snf_diagonal(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    s, _, _ = smith_normal_form(a, inverse=False)
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)))


# ---------------------------------------------------------------------------
# Hermite normal form (row-style, upper echelon)
# ---------------------------------------------------------------------------


def hermite_normal_form(rows: Iterable[Sequence[int]], ncols: int) -> IntMatrix:
    """Row HNF of the lattice spanned by ``rows`` inside Z^ncols.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Zero rows are dropped.  The result is the unique echelon basis of the
    row lattice, hence usable as a canonical form.
    """
    mat = [list(r) for r in rows]
    for r in mat:
        if len(r) != ncols:
            raise DimensionMismatch(f"row length {len(r)} vs {ncols} columns")
    rank = 0
    pivot_cols = []
    for c in range(ncols):
        while True:
            nz = [i for i in range(rank, len(mat)) if mat[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[rank], mat[i0] = mat[i0], mat[rank]
            if mat[rank][c] < 0:
                mat[rank] = [-v for v in mat[rank]]
            head = mat[rank]
            clean = True
            for i in range(rank + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // head[c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], head)]
                    if mat[i][c]:
                        clean = False
            if clean:
                pivot_cols.append(c)
                rank += 1
                break
    return _reduce_above_pivots(mat[:rank], pivot_cols)


def _reduce_above_pivots(mat: list[list[int]], pivot_cols: Sequence[int]) -> IntMatrix:
    """Reduce the entries above each pivot of an echelon basis into
    [0, pivot), left to right so a reduction never dirties an
    already-canonical column."""
    for k, c in enumerate(pivot_cols):
        head = mat[k]
        piv = head[c]
        for i in range(k):
            q = mat[i][c] // piv
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], head)]
    return tuple(tuple(r) for r in mat)


# ---------------------------------------------------------------------------
# Subgroups of  Z/m_1 x ... x Z/m_k
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a > 0 and b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def lattice_basis(gens: Iterable[Sequence[int]], m: ModuliVector) -> IntMatrix:
    """Full-rank k x k HNF basis of the integer lattice lifting the subgroup.

    The subgroup of the finite group generated by ``gens`` corresponds to
    the lattice L spanned by the generator rows together with diag(m); since
    diag(m) has full rank the HNF is square upper-triangular with diagonal
    entries dividing the moduli.

    Modular HNF (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987):
    m_j * e_j lies in L, so every working entry in column j is kept reduced
    mod m_j.  Column c's pivot row starts as m_c * e_c and absorbs each
    working row that is nonzero at c by one extended-gcd 2x2 unimodular
    step, which leaves that row zero at c; rows that become zero are
    dropped.  The rows are zero left of c, so only columns > c change, and
    a divisible step skips the columns where the pivot row is zero.  Once
    column c is done, the rows above its pivot are reduced at c into
    [0, pivot) on columns >= c, left to right as in ``_reduce_above_pivots``;
    a column no row reached has pivot row m_c * e_c, which takes them mod
    m_c.  The HNF is unique, so the result equals ``hermite_normal_form`` of
    the generators stacked on diag(m).
    """
    k = len(m)
    work = []
    for g in gens:
        if len(g) != k:
            raise DimensionMismatch(f"generator length {len(g)} vs {k} moduli")
        row = list(map(mod, g, m))
        if any(row):
            work.append(row)
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
                    g, s, t = _xgcd(a, b)
                    u, v = a // g, b // g
                    for j in rest:
                        p, x = pivot[j], row[j]
                        pivot[j] = (s * p + t * x) % m[j]
                        row[j] = (u * x - v * p) % m[j]
                    pivot[c] = g
                else:
                    for j in rest:
                        p = pivot[j]
                        if p:
                            row[j] = (row[j] - q * p) % m[j]
                row[c] = 0
                if not any(row):
                    continue
            live.append(row)
        work = live
        a = pivot[c]
        if a == mc:
            for above in basis:
                above[c] %= mc
        else:
            for above in basis:
                q = above[c] // a
                if q:
                    for j in range(c, k):
                        above[j] -= q * pivot[j]
        basis.append(pivot)
    return tuple(map(tuple, basis))


def subgroup_canonical_form(gens: Iterable[Sequence[int]], m: ModuliVector) -> IntMatrix:
    """Canonical generator matrix of the subgroup generated by ``gens``.

    Two generator sets span the same subgroup iff their canonical forms are
    identical tuples.  The zero subgroup canonicalizes to the empty matrix.
    Rows whose pivot equals its modulus are dropped: such a row is m_c * e_c,
    since no generator touched column c, so order and membership read the
    remaining HNF rows directly.
    """
    basis = lattice_basis(gens, m)
    return tuple(row for i, row in enumerate(basis) if row[i] != m[i])


def _pivots(canon: Sequence[Sequence[int]]) -> Iterator[tuple[Sequence[int], int]]:
    """Each row of a canonical form with its leading (pivot) column."""
    c = 0
    for row in canon:
        while not row[c]:
            c += 1
        yield row, c


def subgroup_membership(x: Sequence[int], canon: Sequence[Sequence[int]], m: ModuliVector) -> bool:
    """True iff x lies in the subgroup with the given canonical form: forward
    substitution along its rows leaves every entry 0 mod its modulus."""
    if len(x) != len(m):
        raise DimensionMismatch(f"vector length {len(x)} vs {len(m)} moduli")
    rem = x
    c = 0
    for row in canon:
        while not row[c]:
            c += 1
        q, r = divmod(rem[c], row[c])
        if r:
            return False
        if q:
            rem = [a - q * b for a, b in zip(rem, row)]
    return not any(map(mod, rem, m))


def subgroup_order(canon: Sequence[Sequence[int]], m: ModuliVector) -> int:
    """Order of the subgroup with the given canonical form: m_c / pivot per
    row, since every dropped row m_c * e_c has index 1 in Z/m_c."""
    return prod(m[c] // row[c] for row, c in _pivots(canon))


def subgroup_structure(
    canon: Sequence[Sequence[int]], m: ModuliVector
) -> tuple[IntMatrix, tuple[int, ...]]:
    """Invariant-factor generators of a subgroup of the finite group.

    Returns rows g_1..g_r (reduced mod m) and orders s_1 | s_2 | ... > 1
    such that the subgroup is the internal direct sum of the cyclic groups
    <g_i> with |<g_i>| = s_i, and every element is uniquely
    sum(c_i * g_i) with 0 <= c_i < s_i.

    ``canon`` must be a canonical form (pivot columns that do not increase
    raise ``InternalInconsistency``): the HNF B of the lifted lattice less
    its rows m_c * e_c, which are put back to read B off with no second HNF.
    diag(m) = C @ B: row i of C is e_i where B has m_i * e_i, else forward
    substitution from column i.  With U C Vinv = S, the rows V @ B of the
    s_i > 1 are the generators, and only those rows are formed.
    """
    k = len(m)
    unit = lambda c, v: [v if j == c else 0 for j in range(k)]
    basis: list[Sequence[int]] = []
    for row in canon:
        lead = next((j for j, v in enumerate(row) if v), k)
        if lead < len(basis) or lead == k:
            raise InternalInconsistency("pivot columns of a canonical form must increase")
        basis += [unit(c, m[c]) for c in range(len(basis), lead)]
        basis.append(row)
    basis += [unit(c, m[c]) for c in range(len(basis), k)]
    c_rows = []
    for i in range(k):
        coeff = unit(i, 1)
        c_rows.append(coeff)
        if basis[i][i] == m[i]:
            continue
        rem = unit(i, m[i])
        for j in range(i, k):
            q = rem[j] // basis[j][j]
            coeff[j] = q
            if q:
                rem = [a - q * b for a, b in zip(rem, basis[j])]
        if any(rem):
            raise InternalInconsistency("diag(m) is not in the lattice of the subgroup")
    s, v, _ = smith_normal_form(c_rows, inverse=False)
    kept = [i for i in range(k) if s[i][i] > 1]
    return tuple(vec_mod(vec_mat(v[i], basis), m) for i in kept), tuple(s[i][i] for i in kept)


def enumerate_subgroup(canon: Sequence[Sequence[int]], m: ModuliVector) -> list[IntVector]:
    """All elements of the subgroup (for oracles and small-scale checks)."""
    gens, orders = subgroup_structure(canon, m)
    elems = [(0,) * len(m)]
    for g, o in zip(gens, orders):
        step = list(elems)
        cur = list(g)
        for _ in range(1, o):
            elems.extend(vec_mod([a + b for a, b in zip(e, cur)], m) for e in step)
            cur = [a + b for a, b in zip(cur, g)]
    return elems


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> IntMatrix:
    """HNF basis of {z in Z^r : z @ M = 0} for the r x ncols matrix M.

    The HNF of [M, I_r] has, below its rows with a pivot among the first
    ncols columns, exactly a basis of the kernel in its last r columns.
    """
    r = len(rows)
    lifted = [list(row) + [int(t == i) for t in range(r)] for i, row in enumerate(rows)]
    return tuple(row[ncols:] for row in hermite_normal_form(lifted, ncols + r) if not any(row[:ncols]))


def subgroup_intersection(
    a_canon: Sequence[Sequence[int]],
    b_canon: Sequence[Sequence[int]],
    m: ModuliVector,
) -> IntMatrix:
    """Canonical form of the intersection of two subgroups of ⊕ Z/m_j.

    Zassenhaus on the lifted lattices L_a and L_b: the HNF of the lattice
    {(x, x) : x in L_a} + {(y, 0) : y in L_b} has, below its rows with a
    pivot in the left half, exactly the HNF of L_a ∩ L_b in its right half.
    That lattice is spanned by the rows (a, a) and (b, 0), for a in
    ``a_canon`` and b in ``b_canon``, together with diag(m ++ m), because
    (m_j e_j, m_j e_j) is the sum of two of the diagonal rows; so it is one
    ``lattice_basis`` over m ++ m.  The intersection contains diag(m), so
    its rows whose pivot equals the modulus drop out as in
    ``subgroup_canonical_form``.
    """
    k = len(m)
    stacked = [list(r) + list(r) for r in a_canon] + [list(r) + [0] * k for r in b_canon]
    hnf = lattice_basis(stacked, tuple(m) + tuple(m))
    return tuple(row[k:] for i, row in enumerate(hnf[k:]) if row[k + i] != m[i])


# ---------------------------------------------------------------------------
# Congruence systems
# ---------------------------------------------------------------------------


class CongruenceSystem:
    """``x @ A = b  (mod out_moduli coordinatewise)``, factored once for many b.

    The unknown x has one coordinate per row of A, and ``in_moduli`` gives
    the modulus each coordinate of x is taken by (so every solution set is
    a coset inside the finite group ⊕ Z/in_moduli_i).  Each in_moduli[i]
    must annihilate row i of A modulo the output moduli, otherwise the
    reduction would be unsound and a ValueError is raised.

    The factorization is one ``lattice_basis`` of ``[A, I]`` over
    out_moduli ++ in_moduli: the row HNF of the lattice spanned by
    ``[[A, I], [diag(out_moduli), 0], [0, diag(in_moduli)]]``, whose
    vectors are the pairs (x @ A, x) up to multiples of the moduli.  Its
    rows with zeros in the first c = len(out_moduli) columns are the HNF of
    the homogeneous solutions, so dropping those whose pivot equals its
    modulus gives ``homogeneous``, the canonical generator matrix of that
    group over in_moduli.  The other rows solve any right-hand side by
    forward substitution, and their left blocks are the HNF of the image
    span(A) + diag(out_moduli), so dropping those whose pivot equals its
    modulus gives ``image``, the canonical form of {x @ A} over out_moduli.
    """

    def __init__(
        self,
        a: Sequence[Sequence[int]],
        out_moduli: ModuliVector,
        in_moduli: ModuliVector,
    ):
        r = len(a)
        c = len(out_moduli)
        if len(in_moduli) != r:
            raise DimensionMismatch(f"{len(in_moduli)} input moduli vs {r} rows")
        zeros = [0] * r
        lifted = []
        for i, row in enumerate(a):
            if len(row) != c:
                raise DimensionMismatch(f"row length {len(row)} vs {c} output moduli")
            n = in_moduli[i]
            if any(map(mod, map(mul, row, [n] * c), out_moduli)):
                j = next(j for j, (v, d) in enumerate(zip(row, out_moduli)) if n * v % d)
                raise ValueError(
                    f"in_moduli[{i}]={n} does not annihilate A[{i}][{j}]={row[j]} "
                    f"mod {out_moduli[j]}"
                )
            lifted_row = [*row, *zeros]
            lifted_row[c + i] = 1
            lifted.append(lifted_row)
        self.out_moduli = tuple(out_moduli)
        self.in_moduli = tuple(in_moduli)
        hnf = lattice_basis(lifted, self.out_moduli + self.in_moduli)
        # The lattice has full rank and contains diag(out_moduli, in_moduli),
        # so row i of the HNF pivots on column i: the first c rows solve, and
        # the last r rows are the homogeneous solutions.
        self._solving = hnf[:c]
        self.homogeneous: IntMatrix = tuple(
            row[c:] for i, row in enumerate(hnf[c:]) if row[c + i] != in_moduli[i]
        )

    @cached_property
    def image(self) -> IntMatrix:
        """Canonical form of {x @ A mod out_moduli}: equal to
        ``subgroup_canonical_form(A, out_moduli)``, read off the solving rows."""
        c = len(self.out_moduli)
        return tuple(
            row[:c] for i, row in enumerate(self._solving) if row[i] != self.out_moduli[i]
        )

    def particular(self, b: Sequence[int]) -> Optional[IntVector]:
        """Some x with x @ A = b (mod out_moduli), reduced mod in_moduli, or None."""
        c = len(self.out_moduli)
        if len(b) != c:
            raise DimensionMismatch(f"rhs length {len(b)} vs {c} output moduli")
        # Subtracting q times each solving row from b ++ 0 clears b column
        # by column and leaves -x in the last len(in_moduli) entries.
        rem = [*map(mod, b, self.out_moduli), *[0] * len(self.in_moduli)]
        for j, row in enumerate(self._solving):
            q, rest = divmod(rem[j], row[j])
            if rest:
                return None
            if q:
                rem = [v - q * w for v, w in zip(rem, row)]
        return tuple(map(mod, map(neg, rem[c:]), self.in_moduli))


def solve_congruence_system(
    a: Sequence[Sequence[int]],
    b: Sequence[int],
    out_moduli: ModuliVector,
    in_moduli: ModuliVector,
) -> Optional[tuple[IntVector, IntMatrix]]:
    """Solve ``x @ A = b  (mod out_moduli)`` once; see ``CongruenceSystem``.

    Returns None when no solution exists, else ``(particular, homogeneous)``:
    the coset particular + <homogeneous> is the full solution set.
    """
    system = CongruenceSystem(a, out_moduli, in_moduli)
    particular = system.particular(b)
    if particular is None:
        return None
    return particular, system.homogeneous


def kernel_subgroup(
    a: Sequence[Sequence[int]],
    out_moduli: ModuliVector,
    in_moduli: ModuliVector,
) -> IntMatrix:
    """Canonical generators of {x : x @ A = 0 (mod out_moduli)} over in_moduli."""
    return CongruenceSystem(a, out_moduli, in_moduli).homogeneous


def kernel_system(
    equations: Iterable[tuple[Sequence[int], int]], unknowns: int
) -> tuple[list[list[int]], ModuliVector]:
    """``(A, out_moduli)`` of the system x @ A = 0 made of the equations
    that constrain x, for ``kernel_subgroup``.

    Each equation is a pair (column, d): sum_i column[i]·x_i ≡ 0 mod d, with
    one coefficient per unknown.  The column is reduced mod d, and an
    equation is dropped when it reduces to zero, since 0 ≡ 0 holds for
    every x, or when an earlier equation has the same reduced column and
    modulus, since it then holds exactly where that one does.  The kept
    equations keep their order, and A has one row per unknown and one
    column per kept equation, so a system where every equation drops is
    ``unknowns`` rows of width zero.  The solution set is that of the whole
    stream, hence so is the canonical form ``kernel_subgroup`` returns.
    """
    kept: dict[tuple[tuple[int, ...], int], None] = {}
    for col, d in equations:
        reduced = tuple([v % d for v in col])
        if any(reduced):
            kept[reduced, d] = None
    return [[col[x] for col, _ in kept] for x in range(unknowns)], tuple(d for _, d in kept)


def abelian_group_type(m: ModuliVector) -> tuple[int, ...]:
    """Invariant factors (>1) of ⊕ Z/m_i, a canonical additive isomorphism type."""
    if not m:
        return ()
    k = len(m)
    diag = [[m[i] if j == i else 0 for j in range(k)] for i in range(k)]
    return tuple(d for d in snf_diagonal(diag) if d > 1)


def prime_divisors(n: int) -> Iterator[int]:
    """The primes dividing n >= 1, in increasing order, by trial division.

    A generator, so a caller that stops at the first prime factors no
    further.
    """
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        yield n
