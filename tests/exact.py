"""The generator in exact arithmetic over the Gaussian rationals Q(i).

Every float is a dyadic rational, so fractions.Fraction turns a float
parameter point into its exact generator.  The seven basis superoperators
are rebuilt here from the operator definitions with stdlib fractions only:
a Gaussian rational is a pair (real, imaginary) of Fractions, and a matrix
is a sparse dict {(row, col): pair} without zero entries.  Row-major
vectorization as in the package, vec(A rho B) = (A kron B^T) vec(rho);
single-spin index 0, 1, 2 holds m = +1, 0, -1.

The ladder operators S+- carry sqrt(2), which is not rational, but it only
ever enters the master equation squared: each channel is quadratic in its
jump operator, D[sqrt(2) J] = 2 D[J], and the exchange is a product of one
raising and one lowering operator.  The basis is therefore built from
S+- / sqrt(2), whose entries are 0 and 1, with the factor 2 applied exactly.

Ranks over Q(i) are half the ranks over Q of the real embedding
[[Re, -Im], [Im, Re]], taken by sparse Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction

Gaussian = tuple[Fraction, Fraction]
Sparse = dict[tuple[int, int], Gaussian]

M_VALUES = (1, 0, -1)

_ZERO = Fraction(0)
ONE: Gaussian = (Fraction(1), _ZERO)
HALF: Gaussian = (Fraction(1, 2), _ZERO)
I: Gaussian = (_ZERO, Fraction(1))


def _times(x: Gaussian, y: Gaussian) -> Gaussian:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _negative(x: Gaussian) -> Gaussian:
    return (-x[0], -x[1])


def _accumulate(products) -> Sparse:
    # Sum the (key, value) pairs by key and drop the entries that cancel.
    out: Sparse = {}
    for key, value in products:
        total = out.get(key, (_ZERO, _ZERO))
        out[key] = (total[0] + value[0], total[1] + value[1])
    return {key: value for key, value in out.items() if value != (_ZERO, _ZERO)}


def combination(*terms: tuple[Gaussian, Sparse]) -> Sparse:
    """sum_j c_j A_j over the pairs (c_j, A_j)."""
    return _accumulate((key, _times(c, value))
                       for c, matrix in terms for key, value in matrix.items())


def _product(a: Sparse, b: Sparse) -> Sparse:
    return _accumulate(((r, c), _times(x, y))
                       for (r, k), x in a.items() for (k2, c), y in b.items() if k == k2)


def _kron(a: Sparse, b: Sparse, dim_b: int) -> Sparse:
    return {(ra * dim_b + rb, ca * dim_b + cb): _times(x, y)
            for (ra, ca), x in a.items() for (rb, cb), y in b.items()}


def _transpose(a: Sparse) -> Sparse:
    return {(c, r): x for (r, c), x in a.items()}


def _conjugate(a: Sparse) -> Sparse:
    return {key: (x[0], -x[1]) for key, x in a.items()}


def _identity(dim: int) -> Sparse:
    return {(i, i): ONE for i in range(dim)}


_SZ: Sparse = {(0, 0): ONE, (2, 2): _negative(ONE)}
_RAISING: Sparse = {(0, 1): ONE, (1, 2): ONE}  # S+ / sqrt(2)
_LOWERING: Sparse = _transpose(_RAISING)  # S- / sqrt(2)


def _on(op: Sparse, site: str) -> Sparse:
    return _kron(op, _identity(3), 3) if site == "A" else _kron(_identity(3), op, 3)


def _commutator(ham: Sparse) -> Sparse:
    """rho -> -i [H, rho] as a superoperator."""
    return combination((_negative(I), _kron(ham, _identity(9), 9)),
                       (I, _kron(_identity(9), _transpose(ham), 9)))


def _dissipator(jump: Sparse) -> Sparse:
    """D[J] rho = J rho J^dag - {J^dag J, rho} / 2 as a superoperator."""
    jdj = _product(_transpose(_conjugate(jump)), jump)
    return combination((ONE, _kron(jump, _conjugate(jump), 9)),
                       (_negative(HALF), _kron(jdj, _identity(9), 9)),
                       (_negative(HALF), _kron(_identity(9), _transpose(jdj), 9)))


def basis_superoperators() -> list[Sparse]:
    """The seven basis superoperators, one per SystemParams field in order.

    The channels are (1/2) D[S+- Sz] = D[(S+- / sqrt(2)) Sz]; the exchange
    Hamiltonian (i/2)(S+_A S-_B - S+_B S-_A) equals i times the same
    difference of the ladder operators over sqrt(2); delta drives Sz_A and
    omega_ref drives Sz_A + Sz_B.
    """
    sz_a, sz_b = _on(_SZ, "A"), _on(_SZ, "B")
    exchange = combination(
        (I, _product(_on(_RAISING, "A"), _on(_LOWERING, "B"))),
        (_negative(I), _product(_on(_RAISING, "B"), _on(_LOWERING, "A"))),
    )
    return [
        _dissipator(_product(_on(_RAISING, "A"), sz_a)),
        _dissipator(_product(_on(_LOWERING, "A"), sz_a)),
        _dissipator(_product(_on(_RAISING, "B"), sz_b)),
        _dissipator(_product(_on(_LOWERING, "B"), sz_b)),
        _commutator(exchange),
        _commutator(sz_a),
        _commutator(combination((ONE, sz_a), (ONE, sz_b))),
    ]


BASIS = basis_superoperators()


def generator(weights) -> Sparse:
    """The exact generator of seven weights (floats or rationals), field order."""
    return combination(*(((Fraction(w), _ZERO), basis) for w, basis in zip(weights, BASIS)))


def _excitation_sectors() -> list[list[int]]:
    # vec index 9 r + c holds rho[r, c], with excitation difference
    # M(r) - M(c) for M = m_A + m_B; joint index 3 a + b holds
    # |M_VALUES[a], M_VALUES[b]>.
    total = [M_VALUES[j // 3] + M_VALUES[j % 3] for j in range(9)]
    return [[i for i in range(81) if total[i // 9] - total[i % 9] == k]
            for k in range(-4, 5)]


SECTORS = _excitation_sectors()
"""Vec indices of the nine excitation-difference sectors, k = -4..4."""


def rank(matrix: Sparse, indices: list[int]) -> int:
    """Exact rank over Q(i) of the square submatrix of matrix on indices."""
    at = {index: j for j, index in enumerate(indices)}
    d = len(indices)
    real: list[dict[int, Fraction]] = [{} for _ in range(2 * d)]
    for (r, c), (re, im) in matrix.items():
        if r in at and c in at:
            i, j = at[r], at[c]
            for row, col, value in ((i, j, re), (i, d + j, -im),
                                    (d + i, j, im), (d + i, d + j, re)):
                if value:
                    real[row][col] = value
    return _rational_rank([row for row in real if row]) // 2


def _rational_rank(rows: list[dict[int, Fraction]]) -> int:
    # Gaussian elimination over Q, pivoting on the sparsest remaining row.
    count = 0
    while rows:
        rows.sort(key=len, reverse=True)
        pivot = rows.pop()
        col, value = next(iter(pivot.items()))
        count += 1
        for row in rows:
            factor = row.get(col)
            if factor is None:
                continue
            factor = factor / value
            for c, v in pivot.items():
                new = row.get(c, _ZERO) - factor * v
                if new:
                    row[c] = new
                else:
                    del row[c]
        rows = [row for row in rows if row]
    return count


def kernel_dimension(weights) -> int:
    """dim ker L over Q(i): the sum of the nullities of the nine sector blocks."""
    gen = generator(weights)
    return sum(len(sector) - rank(gen, sector) for sector in SECTORS)


def steady_state(weights) -> list[complex]:
    """The exact steady state's 19 k = 0 entries, rounded to complex at the end.

    The k = 0 block with its first population row replaced by the trace
    row, right-hand side (1, 0, ..., 0), solved over Q in the real
    embedding by Gauss-Jordan elimination; the entries are in ascending vec
    order, as operators.SECTOR_ENTRIES.  The point must have a unique
    steady state.
    """
    gen = generator(weights)
    sector = SECTORS[4]
    at = {index: j for j, index in enumerate(sector)}
    d = len(sector)
    # Rows of [A | b] over the unknowns (Re x, Im x): Re and Im of each row.
    rows = [[_ZERO] * (2 * d + 1) for _ in range(2 * d)]
    for (r, c), (re, im) in gen.items():
        if r in at and c in at and at[r] != 0:
            i, j = at[r], at[c]
            rows[i][j], rows[i][d + j] = re, -im
            rows[d + i][j], rows[d + i][d + j] = im, re
    for j, index in enumerate(sector):
        if index // 9 == index % 9:
            rows[0][j] = rows[d][d + j] = Fraction(1)
    rows[0][2 * d] = Fraction(1)
    for col in range(2 * d):
        pivot = next(i for i in range(col, 2 * d) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = rows[col][col]
        rows[col] = [value / scale for value in rows[col]]
        for i in range(2 * d):
            factor = rows[i][col]
            if i != col and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [complex(float(rows[j][2 * d]), float(rows[d + j][2 * d])) for j in range(d)]
