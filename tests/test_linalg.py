"""Exact linear algebra: normal forms, canonical subgroup bases, congruence
solving.  Property tests compare against brute-force oracles on small sizes."""

import itertools
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.matrices.normalforms import smith_normal_form

from endolab import linalg
from endolab.verdicts import InternalInconsistency


def small_matrix(max_dim=8, lo=-100, hi=100):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    )


def moduli_vectors(max_len=3, choices=(2, 3, 4, 6, 8)):
    return st.lists(st.sampled_from(choices), min_size=1, max_size=max_len).map(tuple)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_snf_reconstruction(rows):
    # U A Vinv = S for a unimodular U iff A Vinv and S, which have the same
    # number of rows, span the same row lattice.
    s, v, vinv = linalg.smith_normal_form(rows)
    width = len(rows[0])
    a_vinv = linalg.mat_mul(rows, vinv)
    assert linalg.hermite_normal_form(a_vinv, width) == linalg.hermite_normal_form(s, width)
    assert linalg.mat_mul(a_vinv, v) == tuple(tuple(r) for r in rows)


@settings(max_examples=150, deadline=None)
@given(small_matrix())
def test_snf_divisibility_chain(rows):
    diag = linalg.snf_diagonal(rows)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)


@settings(max_examples=100, deadline=None)
@given(small_matrix(max_dim=5, lo=-20, hi=20))
def test_snf_inverses_are_inverses(rows):
    _, v, vinv = linalg.smith_normal_form(rows)
    assert linalg.mat_mul(v, vinv) == linalg.identity_matrix(len(v))
    assert abs(sympy.Matrix(v).det()) == 1


@settings(max_examples=400, deadline=None)
@given(small_matrix(max_dim=6, lo=-30, hi=30))
def test_snf_diagonal_matches_sympy(rows):
    theirs = smith_normal_form(sympy.Matrix(rows), domain=ZZ)
    diag = [abs(int(theirs[i, i])) for i in range(min(theirs.shape))]
    want = tuple([d for d in diag if d] + [0] * diag.count(0))
    assert linalg.snf_diagonal(rows) == want


def test_snf_fixture_diag():
    # classic 2x2 with nontrivial invariant factors
    assert linalg.snf_diagonal([[2, 4], [6, 8]]) == (2, 4)
    assert linalg.snf_diagonal([[1, 0], [0, 1]]) == (1, 1)
    assert linalg.snf_diagonal([[0, 0], [0, 0]]) == (0, 0)


def _smith_reference(a):
    """``smith_normal_form`` as a loop that scans the whole working block for
    its least entry and always keeps Vinv."""
    s = [list(row) for row in a]
    rows, cols = len(s), len(s[0]) if s else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    vinv = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]

    def row_addmul(src, dst, k):
        s[dst] = [x + k * y for x, y in zip(s[dst], s[src])]

    def row_negate(i):
        s[i] = [-x for x in s[i]]

    def col_swap(i, j):
        if i != j:
            for row in s + vinv:
                row[i], row[j] = row[j], row[i]
            v[i], v[j] = v[j], v[i]

    def col_addmul(src, dst, k):
        for row in s + vinv:
            row[dst] += k * row[src]
        v[src] = [x - k * y for x, y in zip(v[src], v[dst])]

    n = min(rows, cols)
    for pos in range(n):
        while True:
            entries = [(abs(s[i][j]), i, j) for i in range(pos, rows) for j in range(pos, cols)
                       if s[i][j]]
            if not entries:
                break
            least = min(e[0] for e in entries)
            _, i0, j0 = next(e for e in entries if e[0] == least)
            row_swap(pos, i0)
            col_swap(pos, j0)
            if s[pos][pos] < 0:
                row_negate(pos)
            pivot = s[pos][pos]
            dirty = False
            for i in range(pos + 1, rows):
                row_addmul(pos, i, -(s[i][pos] // pivot))
                dirty = dirty or bool(s[i][pos])
            for j in range(pos + 1, cols):
                col_addmul(pos, j, -(s[pos][j] // pivot))
                dirty = dirty or bool(s[pos][j])
            if not dirty:
                break
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a_, b_ = s[i][i], s[i + 1][i + 1]
            if a_ == 0 and b_ != 0:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                changed = True
            elif a_ != 0 and b_ % a_ != 0:
                col_addmul(i + 1, i, 1)
                while s[i + 1][i] or s[i][i + 1]:
                    if s[i + 1][i]:
                        if s[i][i] == 0 or abs(s[i + 1][i]) < abs(s[i][i]):
                            row_swap(i, i + 1)
                        row_addmul(i, i + 1, -(s[i + 1][i] // s[i][i]))
                    if s[i][i + 1]:
                        if s[i][i] == 0:
                            col_swap(i, i + 1)
                        col_addmul(i, i + 1, -(s[i][i + 1] // s[i][i]))
                for j in (i, i + 1):
                    if s[j][j] < 0:
                        row_negate(j)
                changed = True
    for i in range(n):
        if s[i][i] < 0:
            row_negate(i)
    as_tuple = lambda mat: tuple(map(tuple, mat))
    return as_tuple(s), as_tuple(v), as_tuple(vinv)


@settings(max_examples=300, deadline=None)
@given(small_matrix())
def test_snf_equals_its_full_scan_reference(rows):
    """S, V and Vinv are those of the whole-block scan, and without Vinv,
    S and V still are."""
    want = _smith_reference(rows)
    assert linalg.smith_normal_form(rows) == want
    assert linalg.smith_normal_form(rows, inverse=False) == (*want[:2], ())


# Matrices whose first entry of least absolute value, ±1, comes after a ±2
# that has no ±1 in its row or column.
UNIT_AFTER_A_TWO = [[[2, 0], [0, 1]], [[0, -2, 0], [3, 0, -1]], [[2, 0, 0], [0, 3, 0], [0, 0, -1]],
                    [[4, 2, 0], [0, 0, 1]], [[2, 4], [6, 1]]]


def test_snf_with_a_unit_after_a_two():
    """The scan goes on past the 2 to the 1, which the whole-block scan
    picks too."""
    for rows in UNIT_AFTER_A_TWO:
        assert linalg.smith_normal_form(rows) == _smith_reference(rows), rows


# ---------------------------------------------------------------------------
# Hermite normal form and canonical subgroup bases
# ---------------------------------------------------------------------------


def test_hnf_echelon_fixture():
    h = linalg.hermite_normal_form([[0, 0, 1, 1], [0, 1, 1, 0], [2, 0, 0, 0],
                                    [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 4)
    for row in h:
        assert all(v >= 0 for v in row)
    # pivots strictly to the right as we go down
    pivots = [next(j for j, v in enumerate(row) if v) for row in h]
    assert pivots == sorted(pivots)


def brute_subgroup(gens, m):
    elems = {tuple(0 for _ in m)}
    frontier = [tuple(v % mm for v, mm in zip(g, m)) for g in gens]
    while frontier:
        g = frontier.pop()
        new = set()
        for e in elems:
            s = tuple((a + b) % mm for a, b, mm in zip(e, g, m))
            if s not in elems:
                new.add(s)
        if new:
            elems |= new
            frontier.extend(new)
        elif g not in elems:
            elems.add(g)
            frontier.append(g)
    return frozenset(elems)


def assert_reads_enumeration(canon, m, want):
    """``subgroup_order`` and ``subgroup_membership``, read off a canonical
    form, agree with the enumerated subgroup ``want`` on every element of
    the ambient group, also given as x + m and as -x."""
    assert linalg.subgroup_order(canon, m) == len(want)
    for x in itertools.product(*(range(mm) for mm in m)):
        inside = x in want
        assert linalg.subgroup_membership(x, canon, m) == inside, x
        assert linalg.subgroup_membership([v + mm for v, mm in zip(x, m)], canon, m) == inside, x
        assert linalg.subgroup_membership([-v for v in x], canon, m) == inside, x


@st.composite
def lattice_cases(draw):
    """(rows, m) for ``lattice_basis``: k = 0 and empty generator lists,
    moduli equal to 1, zero and duplicate rows, entries negative or >= m_j."""
    m = tuple(draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12)), max_size=5)))
    k = len(m)
    row = st.one_of(
        st.just((0,) * k),
        st.lists(st.integers(-40, 40), min_size=k, max_size=k).map(tuple),
    )
    rows = draw(st.lists(row, max_size=5))
    if rows and draw(st.booleans()):
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    return rows, m


def _stacked_on_diagonal(rows, m):
    return list(rows) + [[mm if j == i else 0 for j in range(len(m))] for i, mm in enumerate(m)]


@settings(max_examples=500, deadline=None)
@given(lattice_cases())
def test_modular_lattice_basis_equals_integer_hnf(case):
    rows, m = case
    basis = linalg.lattice_basis(rows, m)
    assert basis == linalg.hermite_normal_form(_stacked_on_diagonal(rows, m), len(m))
    if math.prod(m) <= 144:
        assert brute_subgroup(basis, m) == brute_subgroup(rows, m)


@st.composite
def wide_lattice_cases(draw):
    """(rows, m) shaped like the ``[A, I]`` systems ``CongruenceSystem``
    factors: up to 16 rows over up to 160 columns, each a sparse row of A,
    with entries negative or >= m_j, followed by e_i.  Most columns
    of A meet no generator, and reducing the rows above a pivot leaves
    negative entries in later columns."""
    r = draw(st.integers(1, 16))
    c = draw(st.integers(0, 160 - r))
    out_m = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9)), min_size=c, max_size=c))
    in_m = draw(st.lists(st.sampled_from((2, 3, 4, 6, 8, 9, 12)), min_size=r, max_size=r))
    rows = []
    for i in range(r):
        a = [0] * c
        if c:
            for j, v in draw(st.lists(st.tuples(st.integers(0, c - 1), st.integers(-40, 40)),
                                      max_size=4)):
                a[j] = v
        rows.append(a + [int(t == i) for t in range(r)])
    return rows, tuple(out_m + in_m)


@settings(max_examples=60, deadline=None)
@given(wide_lattice_cases())
def test_modular_lattice_basis_equals_integer_hnf_on_wide_systems(case):
    rows, m = case
    basis = linalg.lattice_basis(rows, m)
    assert basis == linalg.hermite_normal_form(_stacked_on_diagonal(rows, m), len(m))


@st.composite
def divisible_after_xgcd_cases(draw):
    """(rows, m) over up to 40 columns in which, at some column c with
    m_c > 2, one row takes an extended-gcd step into the pivot m_c·e_c and
    a later row then takes a divisible step into the new pivot, both with
    entries after c, and, at times, a row between them changes the pivot
    and its nonzero columns by a second extended-gcd step."""
    k = draw(st.integers(2, 40))
    m = list(draw(st.lists(st.sampled_from((2, 3, 4, 6, 8, 9, 12)), min_size=k, max_size=k)))
    c = draw(st.integers(0, k - 2))
    m[c] = draw(st.sampled_from((4, 6, 8, 9, 12)))
    tail = st.lists(st.integers(-40, 40), min_size=k - c - 1, max_size=k - c - 1)
    heads = [draw(st.integers(1, m[c] - 1))]
    if draw(st.booleans()):
        heads.append(draw(st.integers(1, m[c] - 1)))
    g = math.gcd(m[c], *heads)
    heads.append(g * draw(st.integers(1, m[c] // g - 1)))
    rows = [[0] * c + [b] + draw(tail) for b in heads]
    rows += draw(st.lists(st.lists(st.integers(-40, 40), min_size=k, max_size=k), max_size=3))
    return rows, tuple(m)


@settings(max_examples=150, deadline=None)
@given(divisible_after_xgcd_cases())
def test_modular_lattice_basis_equals_integer_hnf_when_a_divisible_step_follows_an_xgcd_step(case):
    rows, m = case
    basis = linalg.lattice_basis(rows, m)
    assert basis == linalg.hermite_normal_form(_stacked_on_diagonal(rows, m), len(m))


# (rows, m) in which, at column 0, the first two rows take extended-gcd
# steps into m_0·e_0, the second making column 2 of the pivot row nonzero,
# and the third takes a divisible step that needs that column.
DIVISIBLE_AFTER_XGCD_CASES = [
    ([(6, 1, 0), (4, 0, 1), (2, 0, 0)], (12, 12, 12)),
    ([(6, 0, 0, 5), (9, 0, 1, 0), (3, 2, 0, 0)], (12, 4, 6, 8)),
]


def test_lattice_basis_fixtures_with_a_divisible_step_after_two_xgcd_steps():
    for rows, m in DIVISIBLE_AFTER_XGCD_CASES:
        want = linalg.hermite_normal_form(_stacked_on_diagonal(rows, m), len(m))
        assert linalg.lattice_basis(rows, m) == want, (rows, m)


def test_modular_lattice_basis_edge_fixtures():
    assert linalg.lattice_basis([], ()) == ()
    assert linalg.lattice_basis([(), ()], ()) == ()
    assert linalg.lattice_basis([], (1, 3)) == ((1, 0), (0, 3))
    assert linalg.lattice_basis([(5, -1)], (1, 3)) == ((1, 0), (0, 1))
    assert linalg.lattice_basis([(4, 6), (4, 6), (0, 0)], (8, 9)) == ((4, 0), (0, 3))
    assert linalg.lattice_basis([(-2, 7)], (4, 4)) == ((2, 1), (0, 2))
    # reducing row 0 by the pivot of column 1 leaves -3 at column 2, which
    # no generator reaches
    assert linalg.lattice_basis([(27, -10, 1)], (2, 3, 6)) == ((1, 0, 3), (0, 1, 2), (0, 0, 6))
    with pytest.raises(linalg.DimensionMismatch):
        linalg.lattice_basis([(1,)], (2, 2))


@settings(max_examples=200, deadline=None)
@given(
    moduli_vectors(),
    st.data(),
)
def test_canonical_form_matches_brute_force(m, data):
    k = len(m)
    gens = data.draw(st.lists(
        st.lists(st.integers(-6, 12), min_size=k, max_size=k).map(tuple),
        min_size=0, max_size=3,
    ))
    canon = linalg.subgroup_canonical_form(gens, m)
    want = brute_subgroup(gens, m)
    assert frozenset(linalg.enumerate_subgroup(canon, m)) == want
    assert_reads_enumeration(canon, m, want)
    for row in canon:
        for j, v in enumerate(row):
            assert 0 <= v < m[j]
    # canonicity: shuffles and redundant generators do not change the form
    gens2 = list(gens) + list(gens[:1])
    random.Random(0).shuffle(gens2)
    assert linalg.subgroup_canonical_form(gens2, m) == canon


def test_structure_gives_invariant_factors():
    m = (12,)
    gens, orders = linalg.subgroup_structure([(4,)], m)
    assert orders == (3,)
    assert linalg.subgroup_order(linalg.subgroup_canonical_form(gens, m), m) == 3
    gens, orders = linalg.subgroup_structure([(2, 0), (0, 2)], (4, 4))
    assert orders == (2, 2)


def _structure_reference(canon, m):
    """``subgroup_structure`` through a second HNF: the integer HNF B of the
    canonical rows stacked on diag(m), every row of C with diag(m) = C·B by
    forward substitution from column 0, the Smith form of C with Vinv kept,
    and the whole of V·B."""
    k = len(m)
    if k == 0:
        return (), ()
    basis = linalg.hermite_normal_form(_stacked_on_diagonal(canon, m), k)
    c_rows = []
    for i in range(k):
        rem = [m[i] if j == i else 0 for j in range(k)]
        coeff = [0] * k
        for j, row in enumerate(basis):
            q = rem[j] // row[j]
            coeff[j] = q
            rem = [a - q * b for a, b in zip(rem, row)]
        assert not any(rem)
        c_rows.append(coeff)
    s, v, _ = _smith_reference(c_rows)
    new_basis = _mat_mul_reference(v, basis)
    kept = [i for i in range(k) if s[i][i] > 1]
    return (tuple(tuple(x % mm for x, mm in zip(new_basis[i], m)) for i in kept),
            tuple(s[i][i] for i in kept))


@st.composite
def one_row_subgroups(draw):
    """(canon, m) with k >= 9: the canonical form of one row with pivot
    d | m_c, d < m_c, at column c, whose later entries x_j have
    (m_c / d)·x_j = 0 mod m_j, so the lattice below the pivot is diag(m)
    and the row is the whole form."""
    k = draw(st.integers(9, 16))
    m = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12)), min_size=k, max_size=k))
    c = draw(st.integers(0, k - 1))
    m[c] = draw(st.sampled_from((2, 3, 4, 6, 8, 9, 12)))
    d = draw(st.sampled_from([d for d in range(1, m[c]) if m[c] % d == 0]))
    row = [0] * c + [d]
    for mj in m[c + 1:]:
        step = mj // math.gcd(mj, m[c] // d)
        row.append(step * draw(st.integers(0, mj)) % mj)
    return (tuple(row),), tuple(m)


@settings(max_examples=200, deadline=None)
@given(one_row_subgroups())
def test_structure_equals_its_reference_on_wide_one_row_subgroups(case):
    canon, m = case
    assert linalg.subgroup_canonical_form(canon, m) == canon
    assert linalg.subgroup_structure(canon, m) == _structure_reference(canon, m)


@settings(max_examples=100, deadline=None)
@given(st.integers(9, 14).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-20, 20), min_size=k, max_size=k), max_size=4),
    st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12)), min_size=k, max_size=k).map(tuple))))
def test_structure_equals_its_reference_on_wide_subgroups(case):
    gens, m = case
    canon = linalg.subgroup_canonical_form(gens, m)
    assert linalg.subgroup_structure(canon, m) == _structure_reference(canon, m)


def test_structure_rejects_pivot_columns_that_do_not_increase():
    for rows in ([(0, 1), (1, 0)], [(0, 2), (0, 1)], [(0, 0)]):
        with pytest.raises(InternalInconsistency):
            linalg.subgroup_structure(rows, (4, 4))


def test_abelian_group_type():
    assert linalg.abelian_group_type((6,)) == (6,)
    assert linalg.abelian_group_type((2, 3)) == (6,)
    assert linalg.abelian_group_type((2, 4)) == (2, 4)
    assert linalg.abelian_group_type(()) == ()


def test_subgroup_intersection_fixture():
    m = (12,)
    a = linalg.subgroup_canonical_form([(2,)], m)
    b = linalg.subgroup_canonical_form([(3,)], m)
    inter = linalg.subgroup_intersection(a, b, m)
    assert frozenset(linalg.enumerate_subgroup(inter, m)) == {(0,), (6,)}


@settings(max_examples=200, deadline=None)
@given(moduli_vectors(), st.data())
def test_subgroup_intersection_is_canonical_form_of_enumerated_intersection(m, data):
    gens = st.lists(
        st.lists(st.integers(-6, 12), min_size=len(m), max_size=len(m)).map(tuple),
        min_size=0, max_size=3,
    )
    a = linalg.subgroup_canonical_form(data.draw(gens), m)
    b = linalg.subgroup_canonical_form(data.draw(gens), m)
    common = set(linalg.enumerate_subgroup(a, m)) & set(linalg.enumerate_subgroup(b, m))
    inter = linalg.subgroup_intersection(a, b, m)
    assert inter == linalg.subgroup_canonical_form(common, m)
    assert_reads_enumeration(inter, m, common)


# ---------------------------------------------------------------------------
# Congruence solving
# ---------------------------------------------------------------------------


@st.composite
def congruence_systems(draw):
    """(A, out_moduli, in_moduli) with rows scaled so in_moduli annihilate
    them modulo out_moduli."""
    out_m = draw(moduli_vectors(max_len=2))
    in_m = draw(moduli_vectors(max_len=2, choices=(2, 3, 4, 6)))
    a = []
    for i in range(len(in_m)):
        row = []
        for j in range(len(out_m)):
            step = out_m[j] // math.gcd(in_m[i], out_m[j])
            row.append(step * draw(st.integers(0, 3)))
        a.append(tuple(row))
    return a, out_m, in_m


def brute_solutions(a, b, out_m, in_m):
    return {
        x
        for x in itertools.product(*(range(mm) for mm in in_m))
        if all(
            sum(x[i] * a[i][j] for i in range(len(in_m))) % out_m[j] == b[j] % out_m[j]
            for j in range(len(out_m))
        )
    }


def rhs(out_m):
    return st.lists(st.integers(0, 7), min_size=len(out_m), max_size=len(out_m)).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_congruence_agrees_with_enumeration(data):
    a, out_m, in_m = data.draw(congruence_systems())
    b = data.draw(rhs(out_m))

    solved = linalg.solve_congruence_system(a, b, out_m, in_m)
    want = brute_solutions(a, b, out_m, in_m)
    if solved is None:
        assert not want
    else:
        particular, homogeneous = solved
        got = {
            tuple((p + s) % mm for p, s, mm in zip(particular, shift, in_m))
            for shift in linalg.enumerate_subgroup(homogeneous, in_m)
        }
        assert got == want


@settings(max_examples=150, deadline=None)
@given(congruence_systems())
def test_kernel_subgroup_is_canonical_form_of_enumerated_kernel(system):
    a, out_m, in_m = system
    kernel = brute_solutions(a, (0,) * len(out_m), out_m, in_m)
    canon = linalg.kernel_subgroup(a, out_m, in_m)
    assert canon == linalg.subgroup_canonical_form(kernel, in_m)
    assert_reads_enumeration(canon, in_m, kernel)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_prepared_system_solves_every_rhs(data):
    a, out_m, in_m = data.draw(congruence_systems())
    system = linalg.CongruenceSystem(a, out_m, in_m)
    images = {
        tuple(sum(x[i] * a[i][j] for i in range(len(in_m))) % out_m[j] for j in range(len(out_m)))
        for x in itertools.product(*(range(mm) for mm in in_m))
    }
    for b in data.draw(st.lists(rhs(out_m), min_size=1, max_size=6)):
        x = system.particular(b)
        assert (x is None) == (linalg.solve_congruence_system(a, b, out_m, in_m) is None)
        assert (x is None) == (tuple(v % mm for v, mm in zip(b, out_m)) not in images)
        if x is not None:
            assert all(0 <= v < mm for v, mm in zip(x, in_m))
            assert x in brute_solutions(a, b, out_m, in_m)


@settings(max_examples=150, deadline=None)
@given(congruence_systems())
def test_prepared_system_image_is_canonical_form_of_rows(system):
    a, out_m, in_m = system
    image = linalg.CongruenceSystem(a, out_m, in_m).image
    assert image == linalg.subgroup_canonical_form(a, out_m)
    assert_reads_enumeration(image, out_m, brute_subgroup(a, out_m))


@settings(max_examples=200, deadline=None)
@given(moduli_vectors(max_len=4), st.data())
def test_last_canonical_row_is_least_nonzero_member(m, data):
    gens = data.draw(st.lists(
        st.lists(st.integers(-6, 12), min_size=len(m), max_size=len(m)).map(tuple),
        max_size=3,
    ))
    canon = linalg.subgroup_canonical_form(gens, m)
    nonzero = sorted(x for x in brute_subgroup(gens, m) if any(x))
    assert (canon[-1] if canon else None) == (nonzero[0] if nonzero else None)


def test_solve_rejects_unannihilated_rows():
    with pytest.raises(ValueError):
        linalg.solve_congruence_system([(1,)], (0,), (4,), (2,))


def test_kernel_subgroup_fixture():
    # x * 2 = 0 mod 4 over Z/4: kernel {0, 2}
    canon = linalg.kernel_subgroup([(2,)], (4,), (4,))
    assert frozenset(linalg.enumerate_subgroup(canon, (4,))) == {(0,), (2,)}


# (equations, unknowns) and the system ``kernel_system`` builds from them.
# The column (1, 1) under moduli 2 and 4 is two equations, x + y is even
# and x + y ≡ 0 mod 4; (2, 0) vanishes mod 2 but not mod 4; (3, 5) reduces
# to the kept (1, 1) mod 2, and (4, 0) reduces to zero mod 4.
KERNEL_SYSTEM_CASES = [
    ([((1, 1), 2), ((1, 1), 4), ((2, 0), 2), ((2, 0), 4), ((3, 5), 2), ((4, 0), 4)], 2,
     ([[1, 1, 2], [1, 1, 0]], (2, 4, 4))),
    ([((1, 1), 4), ((1, 1), 2)], 2, ([[1, 1], [1, 1]], (4, 2))),
    ([((2, 4, 0), 2), ((0, 0, 0), 5), ((3, 6, 9), 3)], 3, ([[], [], []], ())),
    ([], 2, ([[], []], ())),
]


def test_kernel_system_keeps_each_constraining_equation_once():
    for equations, unknowns, want in KERNEL_SYSTEM_CASES:
        assert linalg.kernel_system(equations, unknowns) == want, equations


@st.composite
def equation_streams(draw):
    """(equations, unknowns) over moduli 2 and 4, drawn from a pool of at
    most four columns, so that one column often comes under both moduli."""
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=4))
    eqs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from((2, 4))), max_size=8))
    return eqs, n


@settings(max_examples=150, deadline=None)
@given(equation_streams())
def test_kernel_system_has_the_kernel_of_every_equation(stream):
    """Over Z/4 in every unknown, the kept equations cut out the same
    kernel as the whole stream, each taken as a column of A."""
    eqs, n = stream
    rows, out_m = linalg.kernel_system(eqs, n)
    in_m = (4,) * n
    full = [[col[x] for col, _ in eqs] for x in range(n)]
    kernel = brute_solutions(full, (0,) * len(eqs), tuple(d for _, d in eqs), in_m)
    assert linalg.kernel_subgroup(rows, out_m, in_m) == linalg.subgroup_canonical_form(kernel, in_m)


def test_integer_kernel():
    ker = linalg.integer_kernel([(2, 4)], 2)
    # left kernel of the 1x2 matrix inside Z^1 is trivial
    assert ker == ()
    ker = linalg.integer_kernel([(1, 1), (1, 1)], 2)
    assert len(ker) == 1
    x = ker[0]
    assert x[0] + x[1] == 0


# ---------------------------------------------------------------------------
# Kernels against their loop references
# ---------------------------------------------------------------------------


def _mat_mul_reference(a, b):
    if a and b and len(a[0]) != len(b):
        raise linalg.DimensionMismatch(
            f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0]) if b else 0}")
    if not b:
        return tuple(() for _ in a)
    cols = range(len(b[0]))
    return tuple(tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in cols) for ra in a)


def _vec_mat_reference(x, a):
    if len(x) != len(a):
        raise linalg.DimensionMismatch(f"vector length {len(x)} vs {len(a)} rows")
    if not a:
        return ()
    return tuple(sum(x[k] * a[k][j] for k in range(len(a))) for j in range(len(a[0])))


def _vec_mod_reference(x, m):
    if len(x) != len(m):
        raise linalg.DimensionMismatch(f"vector length {len(x)} vs {len(m)} moduli")
    return tuple(v % mm for v, mm in zip(x, m))


def _membership_reference(x, canon, m):
    if len(x) != len(m):
        raise linalg.DimensionMismatch(f"vector length {len(x)} vs {len(m)} moduli")
    rem = list(x)
    for row in canon:
        c = next(j for j, v in enumerate(row) if v)
        q, r = divmod(rem[c], row[c])
        if r:
            return False
        rem = [a - q * b for a, b in zip(rem, row)]
    return not any(v % mm for v, mm in zip(rem, m))


class _ReferenceSystem:
    """``CongruenceSystem`` checked entry by entry, factored by
    ``hermite_normal_form`` of [A, I] stacked on diag(out_moduli ++
    in_moduli), and solved by forward substitution over indices."""

    def __init__(self, a, out_moduli, in_moduli):
        r, c = len(a), len(out_moduli)
        if len(in_moduli) != r:
            raise linalg.DimensionMismatch(f"{len(in_moduli)} input moduli vs {r} rows")
        for i, row in enumerate(a):
            if len(row) != c:
                raise linalg.DimensionMismatch(f"row length {len(row)} vs {c} output moduli")
            for j, v in enumerate(row):
                if (in_moduli[i] * v) % out_moduli[j]:
                    raise ValueError(
                        f"in_moduli[{i}]={in_moduli[i]} does not annihilate A[{i}][{j}]={v} "
                        f"mod {out_moduli[j]}")
        self.out_moduli, self.in_moduli = tuple(out_moduli), tuple(in_moduli)
        lifted = [list(row) + [int(t == i) for t in range(r)] for i, row in enumerate(a)]
        m = self.out_moduli + self.in_moduli
        hnf = linalg.hermite_normal_form(_stacked_on_diagonal(lifted, m), len(m))
        self._solving = hnf[:c]
        self.homogeneous = tuple(
            row[c:] for i, row in enumerate(hnf[c:]) if row[c + i] != in_moduli[i])
        self.image = tuple(
            row[:c] for i, row in enumerate(self._solving) if row[i] != out_moduli[i])

    def particular(self, b):
        c = len(self.out_moduli)
        if len(b) != c:
            raise linalg.DimensionMismatch(f"rhs length {len(b)} vs {c} output moduli")
        rem = [v % m for v, m in zip(b, self.out_moduli)]
        x = [0] * len(self.in_moduli)
        for j, row in enumerate(self._solving):
            q, rest = divmod(rem[j], row[j])
            if rest:
                return None
            for t in range(j, c):
                rem[t] -= q * row[t]
            for i, v in enumerate(row[c:]):
                x[i] += q * v
        return tuple(v % m for v, m in zip(x, self.in_moduli))


def _outcome(f, *args):
    """What f returns, or the type and text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


def _system_outcome(cls, a, out_m, in_m, rhs):
    """The factored system, its image and a solve of each right-hand side,
    or the error ``cls`` raises."""
    system = _outcome(cls, a, out_m, in_m)
    if isinstance(system, tuple):
        return system
    return (system._solving, system.homogeneous, system.image,
            [_outcome(system.particular, b) for b in rhs])


def _matrices(rows, width):
    entry = st.integers(-50, 50)
    return st.lists(st.lists(entry, min_size=width, max_size=width).map(tuple),
                    min_size=rows, max_size=rows)


@st.composite
def product_cases(draw):
    """(a, b, x, m): a is r x n; b has n or n + 1 rows, x n or n + 1
    entries and m n or n + 1 moduli; shapes may be empty, entries negative."""
    r, n, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(_matrices(r, n))
    b = draw(_matrices(n + draw(st.integers(0, 1)), c))
    x = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n + 1))
    m = tuple(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n + 1)))
    return a, b, x, m


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_products_equal_their_loop_references(case):
    a, b, x, m = case
    assert _outcome(linalg.mat_mul, a, b) == _outcome(_mat_mul_reference, a, b)
    assert _outcome(linalg.vec_mat, x, b) == _outcome(_vec_mat_reference, x, b)
    assert _outcome(linalg.vec_mod, x, m) == _outcome(_vec_mod_reference, x, m)


@settings(max_examples=300, deadline=None)
@given(moduli_vectors(max_len=4), st.data())
def test_membership_equals_its_loop_reference(m, data):
    """x is a combination of the generators plus multiples of the moduli,
    or arbitrary, with one entry too many at times."""
    gens = data.draw(st.lists(
        st.lists(st.integers(-6, 12), min_size=len(m), max_size=len(m)).map(tuple), max_size=3))
    canon = linalg.subgroup_canonical_form(gens, m)
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens) + 1,
                                    max_size=len(gens) + 1))
        x = [coeffs[-1] * mm + sum(k * g[j] for k, g in zip(coeffs, gens)) for j, mm in enumerate(m)]
    else:
        x = data.draw(st.lists(st.integers(-30, 30), min_size=len(m), max_size=len(m) + 1))
    want = _outcome(_membership_reference, x, canon, m)
    assert _outcome(linalg.subgroup_membership, x, canon, m) == want


@st.composite
def any_congruence_systems(draw):
    """(A, out_moduli, in_moduli, rhs): a system of ``congruence_systems``
    or one with arbitrary entries, which in_moduli rarely annihilate, at
    times with one input modulus or one entry of a row too many, and
    right-hand sides of which some have one entry too many."""
    if draw(st.booleans()):
        a, out_m, in_m = draw(congruence_systems())
    else:
        out_m = draw(moduli_vectors(max_len=3))
        in_m = draw(moduli_vectors(max_len=3, choices=(2, 3, 4, 6)))
        a = draw(_matrices(len(in_m), len(out_m)))
    if draw(st.integers(0, 5)) == 3:
        in_m = in_m + (2,)
    if a and draw(st.integers(0, 5)) == 3:
        a = [a[0] + (0,)] + list(a[1:])
    rhs = draw(st.lists(st.lists(st.integers(-9, 9), min_size=len(out_m), max_size=len(out_m) + 1),
                        max_size=4))
    return a, out_m, in_m, rhs


@settings(max_examples=300, deadline=None)
@given(any_congruence_systems())
def test_congruence_system_equals_its_reference(case):
    want = _system_outcome(_ReferenceSystem, *case)
    assert _system_outcome(linalg.CongruenceSystem, *case) == want
