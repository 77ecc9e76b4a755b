from fractions import Fraction
import random

import pytest
from hypothesis import given, strategies as st

from partalg.linalg import (
    PRIME,
    _eliminate_mod_p,
    bareiss_det,
    invert,
    rank,
    rref,
    singular,
)
from partalg.scalars import Poly


def naive_det(matrix):
    # cofactor expansion; fine as an oracle for n <= 5
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = Fraction(matrix[0][j]) * naive_det(minor)
        total += term if j % 2 == 0 else -term
    return total


small_ints = st.integers(min_value=-6, max_value=6)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_bareiss_matches_cofactor(matrix):
    assert bareiss_det(matrix) == naive_det(matrix)


def test_bareiss_stays_integral():
    rng = random.Random(7)
    m = [[rng.randrange(-9, 10) for _ in range(6)] for _ in range(6)]
    d = bareiss_det(m)
    assert isinstance(d, int)
    assert d == naive_det(m)


def test_bareiss_on_polynomials():
    x = Poly.x()
    m = [[x, Poly.const(1)], [Poly.const(1), x]]
    assert bareiss_det(m) == x**2 - 1
    m3 = [
        [x, Poly.const(1), Poly.const(0)],
        [Poly.const(1), x, Poly.const(1)],
        [Poly.const(0), Poly.const(1), x],
    ]
    assert bareiss_det(m3) == x**3 - 2 * x


def test_bareiss_singular_and_empty():
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 0], [1, 2]]) == 0
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank(m) == 2


def test_rref_idempotent():
    m = [[2, 4], [1, 3]]
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert reduced == again and pivots == pivots2


def test_invert_round_trip():
    m = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    inv = invert(m)
    n = len(m)
    for i in range(n):
        for j in range(n):
            entry = sum(Fraction(m[i][k]) * inv[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)
    with pytest.raises(ValueError):
        invert([[1, 2], [2, 4]])


def random_low_rank(rng, rows, cols, inner, entry):
    """A rows x cols product of random rows x inner and inner x cols
    factors (rank at most inner), with zero rows and columns mixed in."""
    left = [[entry() for _ in range(inner)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(inner)]
    m = [
        [sum(row[t] * right[t][c] for t in range(inner)) for c in range(cols)]
        for row in left
    ]
    for r in rng.sample(range(rows), rows // 4):
        m[r] = [0] * cols
    for c in rng.sample(range(cols), cols // 4):
        for row in m:
            row[c] = 0
    return m


def rank_cases():
    rng = random.Random(5)
    entries = [
        lambda: rng.randint(-3, 3),
        lambda: rng.choice((0, 0, 1)),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        lambda: rng.randint(-(2**64), 2**64),
        lambda: Fraction(rng.randint(-(2**61), 2**61), rng.randint(1, 2**61)),
    ]
    cases = [[], [[]], [[0, 0]], [[0], [0]], [[Fraction(1, 3)]]]
    for entry in entries:
        for _ in range(12):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            inner = rng.randint(0, min(rows, cols) + 1)
            cases.append(random_low_rank(rng, rows, cols, inner, entry))
    return cases


def test_rank_matches_rref():
    for m in rank_cases():
        expected = len(rref(m)[1])
        assert rank(m) == expected, m
        if m and m[0]:
            assert rank([list(col) for col in zip(*m)]) == expected, m


def test_rank_leaves_input_alone():
    m = [[Fraction(1, 2), 2], [1, 4]]
    copy = [row[:] for row in m]
    assert rank(m) == 1
    assert m == copy


def test_rank_and_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    for m in rank_cases():
        if m and m[0]:
            assert rank(m) == sympy.Matrix(m).rank(), m
    rng = random.Random(7)
    entries = [
        lambda: rng.randint(-8, 8),
        lambda: rng.choice((0, 0, 0, 1)),
        lambda: rng.randint(-(2**64), 2**64),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
    ]
    for entry in entries:
        for size in range(1, 8):
            for _ in range(4):
                m = [[entry() for _ in range(size)] for _ in range(size)]
                if size > 2 and rng.random() < 0.3:
                    m[-1] = [3 * a - b for a, b in zip(m[0], m[1])]
                assert bareiss_det(m) == sympy.Matrix(m).det(), m


def square_cases():
    rng = random.Random(11)
    entries = [
        lambda: rng.randint(-3, 3),
        lambda: rng.choice((0, 0, 1)),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        lambda: rng.randint(-(2**64), 2**64),
    ]
    cases = [[], [[0]], [[5]], [[Fraction(1, 3)]], [[0, 0], [1, 2]]]
    for entry in entries:
        for _ in range(12):
            size = rng.randint(1, 9)
            inner = rng.randint(size - 2, size)
            cases.append(random_low_rank(rng, size, size, max(inner, 0), entry))
            cases.append([[entry() for _ in range(size)] for _ in range(size)])
    return cases


def test_singular_matches_bareiss():
    cases = square_cases()
    verdicts = [singular(m) for m in cases]
    assert verdicts == [bareiss_det(m) == 0 for m in cases]
    assert True in verdicts and False in verdicts


def test_singular_against_sympy():
    sympy = pytest.importorskip("sympy")
    for m in square_cases():
        if m:
            assert singular(m) == (sympy.Matrix(m).det() == 0), m


def test_singular_refuses_non_square():
    with pytest.raises(ValueError):
        singular([[1, 2]])


def test_singular_small_kernel_needs_no_integer_elimination(elimination_moduli):
    assert singular([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert singular([[Fraction(1, 2), 1], [1, 2]])
    assert not singular([[2, 1], [1, 3]])
    assert elimination_moduli == [PRIME] * 3


def test_singular_falls_back_when_p_divides_the_determinant(elimination_moduli):
    rng = random.Random(3)
    m = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(5)]
    for i in range(5):
        m[i][i] += 100  # diagonally dominant, so det != 0
    m[2] = [PRIME * v for v in m[2]]
    det = bareiss_det(m)
    assert det % PRIME == 0 and det != 0
    elimination_moduli.clear()
    assert not singular(m)
    assert not singular([[PRIME]])
    assert elimination_moduli == [PRIME, None] * 2


def test_singular_falls_back_when_the_kernel_is_too_large_to_lift(elimination_moduli):
    rng = random.Random(4)
    first = [rng.randint(2**40, 2**41) for _ in range(3)]
    second = [rng.randint(2**40, 2**41) for _ in range(3)]
    m = [first, second, [a - 3 * b for a, b in zip(first, second)]]
    assert bareiss_det(m) == 0
    elimination_moduli.clear()
    assert singular(m)
    assert elimination_moduli == [PRIME, None]


def list_eliminate_mod_p(rows):
    """The list-based elimination mod PRIME that the packed kernel
    replaced, kept as its oracle: each pivot row scaled so its pivot is
    1, each update (a - lead * b) mod p.  Returns the pivot rows."""
    m = [[v % PRIME for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inverse = pow(m[row][col], -1, PRIME)
        top = m[row] = [v * inverse % PRIME for v in m[row]]
        tail = top[col + 1 :]
        for r in range(row + 1, nrows):
            target = m[r]
            lead = target[col]
            if lead:
                target[col + 1 :] = [(a - lead * b) % PRIME for a, b in zip(target[col + 1 :], tail)]
                target[col] = 0
        row += 1
    assert not any(any(r) for r in m[row:])
    return m[:row]


def worst_growth(size):
    """L U mod PRIME with L unit lower triangular, ones below the
    diagonal, and U unit upper triangular, PRIME - 1 above it: at every
    pivot each row below has lead 1 and the scaled pivot tail is all
    PRIME - 1, so each update adds (PRIME - 1)**2 to every slot."""
    return [[(-min(i, j) + (1 if j <= i else -1)) % PRIME for j in range(size)] for i in range(size)]


def packed_cases():
    rng = random.Random(8)
    entries = [
        lambda: rng.randint(-3, 3),
        lambda: rng.choice((0, 0, 1)),
        lambda: rng.randint(-(2**64), 2**64),
        lambda: rng.randrange(PRIME),
    ]
    cases = [[], [[]], [[0]], [[5]], [[PRIME]], [[0] * 6 for _ in range(5)]]
    cases += [[[PRIME - 1] * size for _ in range(size)] for size in (1, 2, 7, 32, 64)]
    for entry in entries:
        for rows, cols in [(12, 12), (40, 8), (8, 40)]:
            cases.append([[entry() for _ in range(cols)] for _ in range(rows)])
            cases.append(random_low_rank(rng, rows, cols, min(rows, cols) // 2, entry))
        m = [[entry() for _ in range(9)] for _ in range(9)]
        for row in m:
            row[4] = 0
        cases.append(m)
    return cases


def test_packed_elimination_matches_list_oracle():
    for m in packed_cases():
        assert _eliminate_mod_p(m) == list_eliminate_mod_p(m), m


def test_packed_elimination_survives_worst_slot_growth():
    for size in (2, 9, 100):
        m = worst_growth(size)
        echelon = _eliminate_mod_p(m)
        assert echelon == list_eliminate_mod_p(m)
        assert len(echelon) == size
        assert all(row[i + 1 :] == [PRIME - 1] * (size - 1 - i) for i, row in enumerate(echelon))


def test_packed_elimination_matches_list_oracle_on_gram_matrices():
    from partalg.structure import gram

    for n in range(2, 6):
        m = gram(5, n, "regular", want_det=False).matrix
        echelon = _eliminate_mod_p(m)
        assert echelon == list_eliminate_mod_p(m)
        assert len(echelon) == rank(m)


@pytest.mark.parametrize(
    "call, matrix",
    [
        (rank, [[1], [2, 3]]),
        (rank, [[1, 2], [2]]),
        (rref, [[1, 2], [3]]),
        (invert, [[1, 0, 0], [0, 1, 0]]),
        (invert, [[1], [0, 1]]),
        (bareiss_det, [[1, 2], [3]]),
        (singular, [[1], [2, 3]]),
    ],
)
def test_malformed_matrices_raise_value_error(call, matrix):
    with pytest.raises(ValueError):
        call(matrix)
