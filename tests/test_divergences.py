import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from banditbounds.divergences import (
    bernoulli_kl,
    bernoulli_kl_vec,
    kl_lower_inverse,
    kl_upper_inverse,
    pinsker_gap,
)
from reference import SimplexVector

unit = st.floats(min_value=0.0, max_value=1.0)
interior = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)


class TestBernoulliKl:
    def test_equal_arguments_give_zero(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            assert bernoulli_kl(p, p) == 0.0

    def test_half_vs_quarter(self):
        # 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75) = 0.5 ln(4/3)
        expected = 0.5 * math.log(4.0 / 3.0)
        assert bernoulli_kl(0.5, 0.25) == pytest.approx(expected, abs=1e-15)
        assert bernoulli_kl(0.5, 0.25) == pytest.approx(0.1438410362258904, abs=1e-12)

    def test_zero_empirical_closed_form(self):
        assert bernoulli_kl(0.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)
        assert bernoulli_kl(1.0, 0.25) == pytest.approx(-math.log(0.25), abs=1e-15)

    def test_boundary_reference_is_infinite(self):
        assert bernoulli_kl(0.5, 0.0) == math.inf
        assert bernoulli_kl(0.5, 1.0) == math.inf
        assert bernoulli_kl(0.0, 0.0) == 0.0
        assert bernoulli_kl(1.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bernoulli_kl(-0.1, 0.5)
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 1.5)
        with pytest.raises(ValueError):
            bernoulli_kl(math.nan, 0.5)

    @given(unit, interior)
    def test_pinsker_inequality(self, p, q):
        assert bernoulli_kl(p, q) >= 2.0 * (p - q) ** 2 - 1e-12

    @given(unit, unit, interior, interior, st.floats(min_value=0.0, max_value=1.0))
    def test_joint_convexity(self, p1, p2, q1, q2, lam):
        lhs = bernoulli_kl(lam * p1 + (1 - lam) * p2, lam * q1 + (1 - lam) * q2)
        rhs = lam * bernoulli_kl(p1, q1) + (1 - lam) * bernoulli_kl(p2, q2)
        assert lhs <= rhs + 1e-9

    def test_positive_unless_equal(self):
        grid = np.linspace(0.0, 1.0, 21)
        for p in grid:
            for q in grid[1:-1]:
                kl = bernoulli_kl(float(p), float(q))
                if p == q:
                    assert kl == 0.0
                else:
                    assert kl > 0.0

    def test_vectorized_matches_scalar(self):
        # (0.5, 1e-310): p / q overflows, so the log ratio is split.
        p = np.array([0.0, 0.3, 0.5, 1.0, 0.999, 0.5])
        q = np.array([0.5, 0.3, 0.25, 0.75, 0.001, 1e-310])
        vec = bernoulli_kl_vec(p, q)
        for i in range(p.size):
            assert vec[i] == pytest.approx(
                bernoulli_kl(float(p[i]), float(q[i])), abs=1e-14
            )

    def test_vectorized_infinities(self):
        vec = bernoulli_kl_vec(np.array([0.5, 0.0]), np.array([0.0, 0.0]))
        assert vec[0] == math.inf
        assert vec[1] == 0.0


class TestKlInverses:
    def test_zero_budget_returns_p_hat(self):
        assert kl_upper_inverse(0.3, 0.0) == 0.3
        assert kl_lower_inverse(0.3, 0.0) == 0.3

    def test_closed_form_edges(self):
        for c in (0.01, 0.5, 2.0):
            assert kl_upper_inverse(0.0, c) == pytest.approx(
                1.0 - math.exp(-c), abs=1e-10
            )
            assert kl_lower_inverse(1.0, c) == pytest.approx(math.exp(-c), abs=1e-10)

    def test_round_trip_interior(self):
        q_up = kl_upper_inverse(0.3, 0.1)
        assert 0.3 <= q_up <= 1.0
        assert abs(bernoulli_kl(0.3, q_up) - 0.1) <= 1e-10
        q_lo = kl_lower_inverse(0.7, 0.1)
        assert 0.0 <= q_lo <= 0.7
        assert abs(bernoulli_kl(0.7, q_lo) - 0.1) <= 1e-10

    @given(interior, st.floats(min_value=1e-6, max_value=5.0))
    def test_round_trip_property(self, p_hat, c):
        # The returned point always respects the budget, and it is tight to
        # one float step: nudging q one ulp further toward the boundary
        # already (nearly) exhausts or exceeds the budget.  This is the
        # sharpest round trip double precision can express -- near the
        # simplex boundary the kl value of adjacent floats moves in jumps,
        # so an exact value match is not always representable.
        q = kl_upper_inverse(p_hat, c)
        assert p_hat <= q <= 1.0
        assert bernoulli_kl(p_hat, q) <= c + 1e-12
        assert bernoulli_kl(p_hat, math.nextafter(q, 1.0)) >= c - 1e-10
        q = kl_lower_inverse(p_hat, c)
        assert 0.0 <= q <= p_hat
        assert bernoulli_kl(p_hat, q) <= c + 1e-12
        assert bernoulli_kl(p_hat, math.nextafter(q, 0.0)) >= c - 1e-10

    def test_monotone_in_budget_and_capped(self):
        budgets = [0.0, 0.05, 0.2, 1.0, 5.0, 50.0]
        values = [kl_upper_inverse(0.4, c) for c in budgets]
        assert values == sorted(values)
        assert kl_upper_inverse(0.4, math.inf) == 1.0
        assert kl_lower_inverse(0.4, math.inf) == 0.0
        # A huge finite budget saturates at the simplex edge.
        assert kl_upper_inverse(0.4, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            kl_upper_inverse(0.3, -0.1)
        with pytest.raises(ValueError):
            kl_lower_inverse(0.3, math.nan)


class TestPinskerGap:
    def test_values(self):
        assert pinsker_gap(0.0) == 0.0
        assert pinsker_gap(2.0) == 1.0
        assert pinsker_gap(0.5) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            pinsker_gap(-1.0)


class TestSimplexVector:
    def test_constructors_and_accessors(self):
        u = SimplexVector.uniform(4)
        assert u.n_arms == 4
        assert u.min_weight() == pytest.approx(0.25, abs=1e-15)

    def test_weights_read_only(self):
        u = SimplexVector.uniform(3)
        with pytest.raises(ValueError):
            u.weights[0] = 0.9
