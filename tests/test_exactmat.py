"""Exact linear algebra: ranks, charpolys, Jordan types, algebra spans."""

import random
from fractions import Fraction

import pytest

from deligne_simpson.exactmat import (
    Mat,
    NoSolutionError,
    NotNilpotentError,
    Poly,
    algebra_closure_dim,
    centralizer_dim,
    charpoly,
    jordan_nilpotent_matrix,
    jordan_type_nilpotent,
    kernel_basis,
    mat_sum,
    nilpotent_jordan_basis,
    poly_gcd,
    rank,
    rat_from_str,
    rational_rank,
    solve_coboundary_sum,
    solve_linear,
)

F = Fraction


def ex2_triple():
    a1 = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    a2 = Mat([[0, -1, 0], [0, 0, 0], [1, 0, 0]])
    a3 = Mat([[0, 0, 0], [0, 0, -1], [-1, 0, 0]])
    return [a1, a2, a3]


def random_invertible(n, rng):
    while True:
        p = Mat([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        try:
            p.inv()
            return p
        except NoSolutionError:
            continue


class TestRank:
    def test_zero_matrix(self):
        assert rank(Mat.zero(3)) == 0

    def test_ex2_second_matrix_rank_two(self):
        assert rank(ex2_triple()[1]) == 2

    def test_ex1_third_matrix_rank_two(self):
        # third matrix of the cyclic construction at n=6: -E_{2,3} + E_{6,1}
        n = 6
        a3 = Mat.from_entries(n, {(1, 2): F(-1), (n - 1, 0): F(1)})
        assert rank(a3) == 2

    def test_rank_of_powers_non_increasing(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = Mat([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            powers = [Mat.identity(n)]
            for _ in range(n):
                powers.append(powers[-1] @ m)
            ranks = [rank(pw) for pw in powers]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_rational_entries(self):
        m = Mat([[F(1, 2), F(1, 3)], [F(3, 2), F(1, 1)]])
        assert rank(m) == 1


class TestCharpoly:
    def test_identity_2x2(self):
        assert charpoly(Mat.identity(2)) == Poly([1, -2, 1])

    def test_one_by_one(self):
        assert charpoly(Mat([[F(3, 2)]])) == Poly([F(-3, 2), 1])

    def test_cyclic_shape_lambda_n_plus_a(self):
        # nonzero entries at (k, k+1) and (n, 1): char poly x^4 + a, a != 0
        n = 4
        entries = {(k, k + 1): F(k + 2) for k in range(n - 1)}
        entries[(n - 1, 0)] = F(3)
        m = Mat.from_entries(n, entries)
        cp = charpoly(m)
        assert cp.degree == 4 and cp[4] == 1
        assert cp[1] == cp[2] == cp[3] == 0
        assert cp[0] != 0

    def test_two_row_shape_lambda_n_plus_b_lambda(self):
        # nonzero entries at (k, k+1), (n-1, 1), (n, 2): char poly x^5 + b x
        n = 5
        entries = {(k, k + 1): F(1) for k in range(n - 1)}
        entries[(n - 2, 0)] = F(2)
        entries[(n - 1, 1)] = F(-3)
        m = Mat.from_entries(n, entries)
        cp = charpoly(m)
        assert cp.degree == 5 and cp[5] == 1
        assert cp[0] == 0 and cp[2] == cp[3] == cp[4] == 0
        assert cp[1] != 0

    def test_similarity_invariance(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 6)
            m = Mat([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
            p = random_invertible(n, rng)
            assert charpoly(m.conjugate_by(p)) == charpoly(m)

    def test_matches_determinant_and_trace(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(2, 5)
            m = Mat([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                     for _ in range(n)])
            cp = charpoly(m)
            assert cp[n - 1] == -sum(m.rows[i][i] for i in range(n))
            # det(xI - m) at x=0 is (-1)^n det(m); check against kernel
            if cp[0] != 0:
                assert not kernel_basis(m)


class TestJordanType:
    def test_zero_4x4(self):
        assert jordan_type_nilpotent(Mat.zero(4)) == (1, 1, 1, 1)

    def test_ex1_third_matrix_n6(self):
        n = 6
        a3 = Mat.from_entries(n, {(1, 2): F(-1), (n - 1, 0): F(1)})
        assert jordan_type_nilpotent(a3) == (2, 2, 1, 1)

    def test_single_block(self):
        m = jordan_nilpotent_matrix([6])
        assert jordan_type_nilpotent(m) == (6,)

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            jordan_type_nilpotent(Mat.identity(2))

    def test_round_trip_with_jordan_matrix(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(2, 7)
            parts = []
            left = n
            while left:
                b = rng.randint(1, left)
                parts.append(b)
                left -= b
            parts.sort(reverse=True)
            m = jordan_nilpotent_matrix(parts)
            p = random_invertible(n, rng)
            assert jordan_type_nilpotent(m.conjugate_by(p)) == tuple(parts)

    def test_partition_sums_to_n(self):
        for mats in (ex2_triple(),):
            for m in mats:
                assert sum(jordan_type_nilpotent(m)) == m.n


class TestNilpotentJordanBasis:
    def test_reconstructs_jordan_form(self):
        rng = random.Random(17)
        for _ in range(12):
            n = rng.randint(2, 6)
            parts = []
            left = n
            while left:
                b = rng.randint(1, left)
                parts.append(b)
                left -= b
            parts.sort(reverse=True)
            q = random_invertible(n, rng)
            m = jordan_nilpotent_matrix(parts).conjugate_by(q)
            p, jtype = nilpotent_jordan_basis(m)
            assert jtype == tuple(parts)
            assert m.conjugate_by(p) == jordan_nilpotent_matrix(parts)


class TestAlgebraClosure:
    def test_identity_alone(self):
        assert algebra_closure_dim([Mat.identity(2)]) == 1

    def test_ex2_is_full_algebra(self):
        assert algebra_closure_dim(ex2_triple()) == 9

    def test_ex0_quadruple_is_full_algebra(self):
        a1 = Mat([[0, 1], [0, 0]])
        a3 = Mat([[0, 0], [1, 0]])
        assert algebra_closure_dim([a1, -a1, a3, -a3]) == 4

    def test_full_algebra_forces_trivial_centralizer(self):
        mats = ex2_triple()
        assert algebra_closure_dim(mats) == 9
        assert centralizer_dim(mats) == 1


class TestCentralizer:
    def test_identity_alone(self):
        assert centralizer_dim([Mat.identity(2)]) == 4

    def test_ex2_trivial(self):
        assert centralizer_dim(ex2_triple()) == 1

    def test_block_diagonal_of_inequivalent_triples(self):
        # ex2 direct sum with its double: two inequivalent irreducibles,
        # so the centralizer is the two-dimensional scalar-per-block space
        triple = ex2_triple()
        big = []
        for m in triple:
            rows = [[F(0)] * 6 for _ in range(6)]
            for i in range(3):
                for j in range(3):
                    rows[i][j] = m.rows[i][j]
                    rows[i + 3][j + 3] = 2 * m.rows[i][j]
            big.append(Mat(rows))
        assert centralizer_dim(big) == 2


class TestCoboundarySolver:
    def test_scalar_pair_no_solution(self):
        a = Mat.identity(2).scale(3)
        with pytest.raises(NoSolutionError):
            solve_coboundary_sum([(a, a)], Mat.identity(2))

    def test_zero_target_gives_zero_blocks(self):
        t1 = ex2_triple()
        t2 = [m.scale(2) for m in t1]
        pairs = list(zip(t1, t2))
        out = solve_coboundary_sum(pairs, Mat.zero(3))
        assert all(d.is_zero() for d in out)

    def test_inequivalent_triples_surjective(self):
        t1 = ex2_triple()
        t2 = [m.scale(2) for m in t1]
        pairs = list(zip(t1, t2))
        rng = random.Random(5)
        for _ in range(4):
            target = Mat([[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
            ds = solve_coboundary_sum(pairs, target)
            back = mat_sum([a @ d - d @ ap for (a, ap), d in zip(pairs, ds)])
            assert back == target


class TestPoly:
    def test_gcd_and_squarefree(self):
        x = Poly([0, 1])
        p = (x - Poly([1])) * (x - Poly([1])) * (x - Poly([2]))
        g = poly_gcd(p, p.derivative())
        assert g == (x - Poly([1]))

    def test_divmod_roundtrip(self):
        rng = random.Random(23)
        for _ in range(10):
            a = Poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))])
            b = Poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree or r.is_zero()


class TestRationalGrammar:
    def test_accepts_integers_and_fractions(self):
        assert rat_from_str("-3") == F(-3)
        assert rat_from_str("6/4") == F(3, 2)
        assert rat_from_str("-0/7") == 0

    def test_rejects_everything_else(self):
        for bad in ("1e400", "1e999999999", "1.5", " 1", "+1", "1/-2", "1/",
                    "", "0x10", "١", "1_000", 5, None, F(1, 2)):
            with pytest.raises(ValueError):
                rat_from_str(bad)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError):
            rat_from_str("1/0")

    def test_matrix_entries_must_be_nested_arrays(self):
        with pytest.raises(ValueError):
            Mat.from_dict({"n": 2, "entries": ["12", "34"]})
        with pytest.raises(ValueError):
            Mat.from_dict({"n": True, "entries": [["1"]]})


def _random_rational_matrix(rng, rows, cols):
    """Rank-deficient about half the time: a product through a narrower
    inner dimension, with some entries zeroed."""
    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)
    if rng.random() < 0.5:
        inner = rng.randint(0, min(rows, cols))
        left = [[entry() for _ in range(inner)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(inner)]
        return [[sum((left[i][k] * right[k][j] for k in range(inner)), F(0))
                 for j in range(cols)] for i in range(rows)]
    return [[entry() for _ in range(cols)] for _ in range(rows)]


class TestKernelAgainstSympy:
    """The one elimination kernel against sympy's independent rref."""

    @pytest.fixture(autouse=True)
    def sympy(self):
        self.sp = pytest.importorskip("sympy")

    def to_sympy(self, rows):
        return self.sp.Matrix([[self.sp.Rational(x.numerator, x.denominator)
                                for x in row] for row in rows])

    def from_sympy(self, v):
        return tuple(F(int(x.p), int(x.q)) for x in v)

    def test_rank(self):
        rng = random.Random(101)
        for _ in range(60):
            rows = _random_rational_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert rational_rank(rows) == self.to_sympy(rows).rank()
            n = len(rows)
            square = Mat(_random_rational_matrix(rng, n, n))
            assert rank(square) == self.to_sympy(square.rows).rank()

    def test_kernel_basis_equals_nullspace(self):
        rng = random.Random(102)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = Mat(_random_rational_matrix(rng, n, n))
            ours = kernel_basis(m)
            theirs = [self.from_sympy(v) for v in self.to_sympy(m.rows).nullspace()]
            assert ours == theirs

    def test_solve_linear_equals_rref_solution(self):
        rng = random.Random(103)
        inconsistent = 0
        for _ in range(80):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            rows = _random_rational_matrix(rng, r, c)
            if rng.random() < 0.5:   # consistent by construction
                x0 = [F(rng.randint(-2, 2)) for _ in range(c)]
                rhs = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in rows]
            else:
                rhs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)]
            aug = [list(row) + [b] for row, b in zip(rows, rhs)]
            red, pivots = self.to_sympy(aug).rref()
            if c in pivots:
                inconsistent += 1
                with pytest.raises(NoSolutionError):
                    solve_linear(rows, rhs)
                continue
            expected = [F(0)] * c
            for i, p in enumerate(pivots):
                expected[p] = F(int(red[i, c].p), int(red[i, c].q))
            assert solve_linear(rows, rhs) == expected
        assert inconsistent > 5

    def test_inverse(self):
        rng = random.Random(104)
        singular = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            m = Mat(_random_rational_matrix(rng, n, n))
            sm = self.to_sympy(m.rows)
            if sm.det() == 0:
                singular += 1
                with pytest.raises(NoSolutionError):
                    m.inv()
                continue
            expected = [self.from_sympy(sm.inv().row(i)) for i in range(n)]
            assert m.inv().rows == tuple(expected)
        assert singular > 5

    def test_centralizer_dim(self):
        # vec(XM - MX) = (M^T kron I - I kron M) vec(X), stacked over M
        sp = self.sp
        rng = random.Random(105)
        for _ in range(30):
            n = rng.randint(1, 4)
            ms = [Mat(_random_rational_matrix(rng, n, n))
                  for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                ms = [jordan_nilpotent_matrix([n])] + ms[:1]
            eye = sp.eye(n)
            system = sp.Matrix.vstack(*[
                sp.kronecker_product(self.to_sympy(m.rows).T, eye)
                - sp.kronecker_product(eye, self.to_sympy(m.rows)) for m in ms])
            assert centralizer_dim(ms) == n * n - system.rank()


class TestStructureAgainstSympy:
    """charpoly, nilpotent Jordan types and algebra closures against sympy,
    on seeded small integer matrices."""

    @pytest.fixture(autouse=True)
    def sympy(self):
        self.sp = pytest.importorskip("sympy")

    def to_sympy(self, m):
        return self.sp.Matrix([[int(x) for x in row] for row in m.rows])

    def random_int_mat(self, rng, n):
        return Mat([[F(rng.randint(-3, 3)) if rng.random() < 0.7 else F(0)
                     for _ in range(n)] for _ in range(n)])

    def random_nilpotent(self, rng, n):
        """A strictly upper triangular integer matrix conjugated by a
        unimodular one, so the entries stay integers."""
        m = Mat([[F(rng.randint(-2, 2)) if j > i and rng.random() < 0.6 else F(0)
                  for j in range(n)] for i in range(n)])
        eye = {(k, k): F(1) for k in range(n)}
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = F(rng.choice((-1, 1)))
            m = (Mat.from_entries(n, eye | {(i, j): c}) @ m
                 @ Mat.from_entries(n, eye | {(i, j): -c}))
        return m

    def test_charpoly(self):
        x = self.sp.Symbol("x")
        rng = random.Random(201)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = self.random_int_mat(rng, n)
            if rng.random() < 0.3:
                m = self.random_nilpotent(rng, n)
            theirs = self.to_sympy(m).charpoly(x).all_coeffs()[::-1]
            assert charpoly(m).coeffs == tuple(F(int(c)) for c in theirs)

    def test_jordan_type_nilpotent(self):
        rng = random.Random(202)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = self.random_nilpotent(rng, n)
            jm = self.to_sympy(m).jordan_form(calc_transform=False)
            sizes, run = [], 1
            for i in range(n):
                if i + 1 < n and jm[i, i + 1] == 1:
                    run += 1
                else:
                    sizes.append(run)
                    run = 1
            assert jordan_type_nilpotent(m) == tuple(sorted(sizes, reverse=True))

    def test_algebra_closure_dim(self):
        sp = self.sp
        from sympy.polys.matrices import DomainMatrix
        rng = random.Random(203)
        for trial in range(30):
            n = rng.randint(2, 4)
            gens = [self.random_int_mat(rng, n) for _ in range(2)]
            if trial % 3 == 1:     # upper triangular: a proper subalgebra
                gens = [Mat([[a if j >= i else F(0) for j, a in enumerate(row)]
                             for i, row in enumerate(g.rows)]) for g in gens]
            elif trial % 3 == 2:   # one nilpotent generator
                gens = [self.random_nilpotent(rng, n)]
            sgens = [sp.ImmutableMatrix(self.to_sympy(g)) for g in gens]
            level = {sp.ImmutableMatrix(sp.eye(n))}
            words = set(level)
            dim = 1
            for _ in range(n * n + 1):
                level = {w * g for w in level for g in sgens}
                words |= level
                stacked = sp.Matrix([list(w) for w in words])
                grown = DomainMatrix.from_Matrix(stacked).to_field().rank()
                if grown == dim:
                    break
                dim = grown
            else:
                raise AssertionError("word lengths never stabilized")
            assert algebra_closure_dim(gens) == dim
