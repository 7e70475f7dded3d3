"""Exact dense linear algebra over arbitrary-precision rationals.

Matrix entries are ``fractions.Fraction`` values, so every result here is
exact: ranks, characteristic polynomials, generated-algebra dimensions,
centralizer dimensions and the block-gluing linear solves all certify their
answers over Q (which, for rational input, agree with the answers over C).

There is one elimination kernel, ``IntSpan``: rows are cleared of
denominators and reduced fraction-free with gcd stripping (Bareiss, Math.
Comp. 22, 1968), which keeps the intermediate entries small.  A rank is the
dimension of a span; kernels, linear solves and inverses are one
back-substitution over its pivot rows with the free variables set to 0.
Pivot columns are an invariant of the row space, so those answers are
unique.  The commutator and coboundary systems behind centralizers, the
block-equivalence probe and the gluing solves come from one row builder,
``coboundary_rows``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class NotNilpotentError(ValueError):
    """Raised when an operation requires a nilpotent matrix."""


class NoSolutionError(ValueError):
    """Raised when a linear system has no exact solution."""


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rat_from_str(s) -> Fraction:
    """Parse a JSON rational: a string matching -?d+(/d+)? with a nonzero
    denominator.  Anything else, an exponent or a non-string included,
    raises ValueError; so do numerals longer than int() accepts."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError("rational must be a string 'p' or 'p/q', got %.40r" % (s,))
    num, _, den = s.partition("/")
    if den and not int(den):
        raise ValueError("zero denominator in %.40r" % (s,))
    return Fraction(int(num), int(den or 1))


def json_list(x) -> list:
    """x if it is a JSON array (a string or an object is not)."""
    if type(x) is not list:
        raise ValueError("expected a JSON array, got %.40r" % (x,))
    return x


# ---------------------------------------------------------------------------
# Matrices


class Mat:
    """Immutable square matrix with Fraction entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be non-empty and square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *args):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zero(n: int) -> "Mat":
        return Mat([[ZERO] * n for _ in range(n)])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_entries(n: int, entries: dict[tuple[int, int], Fraction]) -> "Mat":
        """Build an n x n matrix from a sparse {(row, col): value} dict (0-based)."""
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), v in entries.items():
            rows[i][j] = Fraction(v)
        return Mat(rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "Mat(%r)" % (self.rows,)

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        return Mat([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in row] for row in self.rows])

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        cols = list(zip(*other.rows))
        return Mat([[sum((a * b for a, b in zip(row, col) if a and b), ZERO)
                     for col in cols] for row in self.rows])

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat([[c * a for a in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def inv(self) -> "Mat":
        """Exact inverse, column j solving self x = e_j over the span of the
        rows of [self | I]; raises NoSolutionError if singular."""
        n = self.n
        span = IntSpan(2 * n, (list(row) + [ONE if j == i else ZERO for j in range(n)]
                               for i, row in enumerate(self.rows)))
        if max(span.pivots) >= n:
            raise NoSolutionError("matrix is singular")
        cols = [span.back_substitute(n + j) for j in range(n)]
        return Mat([[col[i] for col in cols] for i in range(n)])

    def conjugate_by(self, p: "Mat") -> "Mat":
        """Return p^-1 @ self @ p."""
        return p.inv() @ self @ p

    def _check(self, other: "Mat"):
        if self.n != other.n:
            raise ValueError("matrix sizes differ: %d vs %d" % (self.n, other.n))

    def to_dict(self) -> dict:
        return {"n": self.n,
                "entries": [[str(x) for x in row] for row in self.rows]}

    @staticmethod
    def from_dict(d: dict) -> "Mat":
        m = Mat([[rat_from_str(x) for x in json_list(row)]
                 for row in json_list(d["entries"])])
        if type(d["n"]) is not int or m.n != d["n"]:
            raise ValueError("matrix size field disagrees with entries")
        return m


def mat_sum(ms: Sequence[Mat]) -> Mat:
    out = Mat.zero(ms[0].n)
    for m in ms:
        out = out + m
    return out


# ---------------------------------------------------------------------------
# The elimination kernel (fraction-free)


def _normalize_int_row(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        row = [v // g for v in row]
    return row


def _int_row(row: Sequence[Fraction]) -> list[int]:
    """Clear denominators of a rational row and strip its integer content."""
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return _normalize_int_row([x.numerator * (den // x.denominator) for x in row])


class IntSpan:
    """Incrementally built row space over Q, rows kept integer-normalized.

    An inserted row is reduced fraction-free against the stored rows in
    insertion order and kept, if nonzero, with its first nonzero column as
    pivot.  So row i vanishes in the pivot columns of rows 0..i-1, and the
    pivots are exactly the pivot columns of the reduced row echelon form.
    """

    def __init__(self, width: int, rows: Iterable[Sequence[Fraction]] = ()):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.insert(row)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, row: list[int]) -> list[int]:
        for piv, prow in zip(self.pivots, self.rows):
            if row[piv]:
                c = row[piv]
                pv = prow[piv]
                row = _normalize_int_row([pv * a - c * b for a, b in zip(row, prow)])
        return row

    def insert(self, row: Sequence[Fraction]) -> bool:
        """Add a rational vector; True iff it enlarged the span."""
        irow = self._reduce(_int_row(row))
        if not any(irow):
            return False
        piv = next(i for i, v in enumerate(irow) if v)
        self.rows.append(irow)
        self.pivots.append(piv)
        return True

    def back_substitute(self, col: int) -> list[Fraction]:
        """The x that is 0 off the pivot columns and has, for every stored
        row, sum over pivots p of row[p] * x[p] equal to row[col].

        With col an appended right-hand side this solves the system with
        free variables 0; with col a free column, e_col - x is the kernel
        vector of that column.  Rows are solved last to first, so the
        pivots each row meets are already known.
        """
        x = [ZERO] * self.width
        done: list[int] = []
        for piv, row in zip(reversed(self.pivots), reversed(self.rows)):
            acc = row[col] - sum(row[p] * x[p] for p in done if row[p])
            x[piv] = Fraction(acc, row[piv])
            done.append(piv)
        return x


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of a list of rational rows."""
    return IntSpan(len(rows[0]) if rows else 0, rows).dim


def rank(m: Mat) -> int:
    """Rank of m over Q (equal to the rank over C for rational matrices)."""
    return rational_rank(m.rows)


# ---------------------------------------------------------------------------
# Polynomials


class Poly:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly([])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Poly(%r)" % (list(self.coeffs),)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly([c * a for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly([ZERO] * k + list(self.coeffs))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quo = [ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(ONE / self.coeffs[-1])

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def valuation(self) -> int:
        """Multiplicity of the root 0 (degree+1 of trailing zeros)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        return next(k for k, c in enumerate(self.coeffs) if c != 0)

    def to_list(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def charpoly(m: Mat) -> Poly:
    """Exact characteristic polynomial det(x*I - m), monic of degree n.

    Computed by similarity reduction to Hessenberg form followed by the
    recurrence on leading principal minors; division-safe over Q.
    """
    n = m.n
    a = [list(row) for row in m.rows]
    # Hessenberg reduction by exact similarity transforms.
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != col + 1:
            a[col + 1], a[piv] = a[piv], a[col + 1]
            for r in range(n):
                a[r][col + 1], a[r][piv] = a[r][piv], a[r][col + 1]
        pv = a[col + 1][col]
        for r in range(col + 2, n):
            if a[r][col] != 0:
                f = a[r][col] / pv
                a[r] = [x - f * y for x, y in zip(a[r], a[col + 1])]
                for i in range(n):
                    a[i][col + 1] += f * a[i][r]
    # p_k = (x - a[k][k]) p_{k-1} - sum_i a[i][k] (prod of subdiagonal) p_{i-1}
    polys = [Poly([ONE])]
    for k in range(n):
        pk = Poly([-a[k][k], ONE]) * polys[k]
        prod = ONE
        for i in range(k - 1, -1, -1):
            prod *= a[i + 1][i]
            if prod == 0:
                break
            if a[i][k] != 0:
                pk = pk - polys[i].scale(a[i][k] * prod)
        polys.append(pk)
    return polys[n]


# ---------------------------------------------------------------------------
# Jordan structure of nilpotent matrices


def jordan_type_nilpotent(m: Mat) -> tuple[int, ...]:
    """Partition of n giving the Jordan block sizes of a nilpotent matrix.

    The number of blocks of size >= k equals rank(m^(k-1)) - rank(m^k).
    Raises NotNilpotentError if m^n != 0.
    """
    n = m.n
    ranks = [n]
    power = m
    while ranks[-1] > 0 and len(ranks) <= n:
        ranks.append(rank(power))
        if ranks[-1] > 0:
            power = power @ m
    if ranks[-1] != 0:
        raise NotNilpotentError("matrix is not nilpotent")
    # counts[k] = number of blocks of size >= k+1
    counts = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    sizes = []
    for s in range(len(counts), 0, -1):
        exact = counts[s - 1] - (counts[s] if s < len(counts) else 0)
        sizes.extend([s] * exact)
    assert sum(sizes) == n
    return tuple(sorted(sizes, reverse=True))


def kernel_basis(m: Mat) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of m: one vector per free column fc, with
    1 at fc and 0 at the other free columns."""
    span = IntSpan(m.n, m.rows)
    basis = []
    for fc in range(m.n):
        if fc not in span.pivots:
            vec = [-x for x in span.back_substitute(fc)]
            vec[fc] = ONE
            basis.append(tuple(vec))
    return basis


def nilpotent_jordan_basis(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Exact P with P^-1 @ m @ P the nilpotent Jordan matrix of m's type.

    Blocks come out in weakly decreasing size order. Raises
    NotNilpotentError for non-nilpotent input.
    """
    n = m.n
    jtype = jordan_type_nilpotent(m)
    t = max(jtype)
    kernels: list[list[tuple[Fraction, ...]]] = [[]]
    power = Mat.identity(n)
    for _ in range(t):
        power = power @ m
        kernels.append(kernel_basis(power))
    # chain = [top, m top, m^2 top, ...]; a chain started at `level` ends in
    # ker(m) after level-1 extensions
    chains: list[list[tuple[Fraction, ...]]] = []
    carried: list[tuple[tuple[Fraction, ...], list]] = []
    for level in range(t, 0, -1):
        span = IntSpan(n)
        for v in kernels[level - 1]:
            span.insert(v)
        for v, chain in carried:
            ok = span.insert(v)
            assert ok, "chain image dependent modulo lower kernel"
            chain.append(v)
        for v in kernels[level]:
            if span.insert(v):
                chains.append([v])
        if level > 1:
            carried = [(apply_mat(m, ch[-1]), ch) for ch in chains]
    cols: list[tuple[Fraction, ...]] = []
    chains.sort(key=len, reverse=True)
    for chain in chains:
        cols.extend(reversed(chain))
    p = Mat(list(zip(*cols)))
    return p, jtype


def apply_mat(m: Mat, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((a * x for a, x in zip(row, v) if a and x), ZERO) for row in m.rows)


def jordan_nilpotent_matrix(parts: Sequence[int]) -> Mat:
    """Nilpotent Jordan matrix with blocks of the given sizes, in order."""
    n = sum(parts)
    entries = {}
    pos = 0
    for b in parts:
        for k in range(b - 1):
            entries[(pos + k, pos + k + 1)] = ONE
        pos += b
    return Mat.from_entries(n, entries)


# ---------------------------------------------------------------------------
# Generated algebra and centralizer


def algebra_closure_dim(ms: Sequence[Mat]) -> int:
    """Dimension of the unital associative algebra generated by ms.

    Breadth-first multiplication with rank-based deduplication, capped at
    n^2 basis elements; the value n^2 certifies irreducibility (Burnside).
    """
    if not ms:
        raise ValueError("need at least one matrix")
    n = ms[0].n
    for m in ms:
        if m.n != n:
            raise ValueError("matrices must share a size")
    span = IntSpan(n * n)
    ident = Mat.identity(n)
    queue = []
    for cand in [ident, *ms]:
        if span.insert([x for row in cand.rows for x in row]):
            queue.append(cand)
    while queue and span.dim < n * n:
        w = queue.pop(0)
        for g in ms:
            prod = w @ g
            if span.insert([x for row in prod.rows for x in row]):
                queue.append(prod)
                if span.dim == n * n:
                    break
    return span.dim


def coboundary_rows(pairs: Sequence[tuple[Mat, Mat]]) -> list[list[Fraction]]:
    """Rows of the linear map (D_j) -> sum_j (A_j D_j - D_j B_j).

    All blocks are square of one size b.  Row u*b + v gives entry (u, v) of
    the image; the unknowns are the entries of D_0, D_1, ... in row-major
    order, one block after the other.
    """
    b = pairs[0][0].n
    width = len(pairs) * b * b
    rows = []
    for u in range(b):
        for v in range(b):
            row = [ZERO] * width
            for j, (aj, bj) in enumerate(pairs):
                base = j * b * b
                for k in range(b):
                    row[base + k * b + v] += aj.rows[u][k]
                    row[base + u * b + k] -= bj.rows[k][v]
            rows.append(row)
    return rows


def centralizer_dim(ms: Sequence[Mat]) -> int:
    """Dimension of {X : [X, m] = 0 for all m in ms}; 1 certifies triviality."""
    if not ms:
        raise ValueError("need at least one matrix")
    n = ms[0].n
    if any(m.n != n for m in ms):
        raise ValueError("matrices must share a size")
    rows = [row for m in ms for row in coboundary_rows([(m, m)]) if any(row)]
    return n * n - rational_rank(rows)


# ---------------------------------------------------------------------------
# Linear solving


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve rows * x = rhs; the solution with free variables 0.

    The pivot columns are those of the reduced row echelon form, so the
    solution is unique and deterministic.  Raises NoSolutionError when the
    system is inconsistent.
    """
    if not rows:
        return []
    width = len(rows[0])
    span = IntSpan(width + 1, (list(row) + [b] for row, b in zip(rows, rhs)))
    if width in span.pivots:
        raise NoSolutionError("inconsistent linear system")
    return span.back_substitute(width)[:width]


def solve_coboundary_sum(pairs: Sequence[tuple[Mat, Mat]], target: Mat) -> list[Mat]:
    """Solve sum_j (A_j D_j - D_j A'_j) = target for the blocks D_j.

    All blocks are square of one size. The solution is the deterministic
    one with free variables 0 (see solve_linear). Raises NoSolutionError
    when the target lies outside the image, which signals equivalent
    representations or a deficient image.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    b = pairs[0][0].n
    for aj, apj in pairs:
        if aj.n != b or apj.n != b:
            raise ValueError("all blocks must share one size")
    if target.n != b:
        raise ValueError("target block has wrong size")
    x = solve_linear(coboundary_rows(pairs), [v for row in target.rows for v in row])
    return [Mat([[x[j * b * b + i * b + v] for v in range(b)] for i in range(b)])
            for j in range(len(pairs))]
