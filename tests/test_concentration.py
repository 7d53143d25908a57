"""Tests for the concentration toolkit.

The dominance numbers for the hand-built two-step chain are derived by
direct enumeration on paper:

* support (0, 1/2, 1), constant conditional mean 1/2;
* the first value is 0 or 1 with probability 1/2 each; after a 0 the next
  value is surely 1/2, after a 1 it is again 0 or 1 with probability 1/2;
* for f(x) = (x1 + x2)^2 the chain pays
  1/2 * (1/2)^2 + 1/4 * 1^2 + 1/4 * 2^2 = 11/8 = 1.375,
  while two i.i.d. Bernoulli(1/2) draws pay
  1/4 * 0 + 1/2 * 1 + 1/4 * 4 = 3/2, so the dominance gap is 1/8.
"""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditbounds import (
    BudgetError,
    DependentChainSpec,
    azuma_alt_bound,
    bernoulli_convex_expectation,
    bernoulli_kl_moment,
    bernoulli_kl_vec,
    convex_domination_gap,
    convex_test_functions,
    dependent_convex_expectation,
    hoeffding_azuma_bound,
    midpoint_convexity_probe,
    pinsker_gap,
    random_constant_mean_chain,
    simulate_profile_walks,
)
from banditbounds import concentration, harness
from banditbounds.concentration import (
    _PATH_BLOCK,
    _PROFILE_STREAM,
    _WALK_BLOCK,
    _conditional_segment,
    _stream,
    _walk_signs,
)
from reference import (
    bit_loop_expectation,
    conditional_of,
    depth_first_chain,
    scalar_convex_test_functions,
    table_of,
    tree_walk_expectation,
)


class TestKlMoment:
    def test_frozen_values(self):
        # N=1, p=1/2: both outcomes give kl(., 1/2) = ln 2, so each term is
        # (1/2) * e^{ln 2} = 1 and the moment is exactly 2.
        assert bernoulli_kl_moment(1, 0.5) == pytest.approx(2.0, rel=1e-14)
        # N=2, p=1/2: outcomes 0 and 1 contribute (1/4) * e^{2 ln 2} = 1 each,
        # the middle outcome contributes 1/2; total 5/2.
        assert bernoulli_kl_moment(2, 0.5) == pytest.approx(2.5, rel=1e-14)

    def test_cap_on_light_grid(self):
        for length in (1, 2, 3, 5, 8, 13, 20):
            for p in (0.03, 0.1, 0.3, 0.5, 0.7, 0.97):
                moment = bernoulli_kl_moment(length, p)
                assert moment <= (length + 1) * (1.0 + 1e-12)
                assert moment >= 1.0

    def test_degenerate_p(self):
        assert bernoulli_kl_moment(7, 0.0) == 1.0
        assert bernoulli_kl_moment(7, 1.0) == 1.0

    def test_array_of_p_is_the_scalar_calls(self):
        p_grid = np.concatenate([[0.0, 1e-160, 1.0 - 2.0**-52, 1.0], np.arange(0.01, 1.0, 0.01)])
        for length in range(1, 26):
            got = bernoulli_kl_moment(length, p_grid)
            assert got.tobytes() == np.array([bernoulli_kl_moment(length, float(p)) for p in p_grid]).tobytes()

    def test_matches_the_exact_moment(self):
        # For p in (0, 1) the binomial weight cancels against exp(N kl), so
        # E_N = sum_k C(N,k) k^k (N-k)^(N-k) / N^N whatever p is (0^0 = 1).
        # A kl kernel off by 1e-9 relative moves E_N by about 1e-8.
        p_grid = np.arange(0.01, 1.0, 0.01)
        for length in range(1, concentration.MOMENT_MAX_LENGTH + 1):
            terms = (math.comb(length, k) * k**k * (length - k) ** (length - k) for k in range(length + 1))
            exact = float(Fraction(sum(terms), length**length))
            np.testing.assert_allclose(bernoulli_kl_moment(length, p_grid), exact, rtol=1e-13, atol=0.0)

    def test_budget(self):
        with pytest.raises(BudgetError):
            bernoulli_kl_moment(26, 0.5)
        with pytest.raises(ValueError):
            bernoulli_kl_moment(0, 0.5)


def two_step_chain() -> DependentChainSpec:
    return DependentChainSpec(
        length=2,
        support=(0.0, 0.5, 1.0),
        transitions=table_of({(): (0.5, 0.0, 0.5), (0,): (0.0, 1.0, 0.0), (2,): (0.5, 0.0, 0.5)}, 3, 2),
        mean=0.5,
    )


class TestDependentChains:
    def test_two_step_chain_by_hand(self):
        chain = two_step_chain()
        f = lambda xs: (xs[:, 0] + xs[:, 1]) ** 2  # noqa: E731
        assert dependent_convex_expectation(chain, f) == pytest.approx(1.375, abs=1e-14)
        assert bernoulli_convex_expectation(2, 0.5, f) == pytest.approx(1.5, abs=1e-14)
        assert convex_domination_gap(chain, f) == pytest.approx(0.125, abs=1e-13)

    def test_iid_chain_matches_direct_enumeration(self):
        for length, p in ((3, 0.3), (5, 0.62), (6, 0.5)):
            chain = DependentChainSpec.iid_bernoulli(length, p)
            for name, f in convex_test_functions(length, p):
                lhs = dependent_convex_expectation(chain, f)
                rhs = bernoulli_convex_expectation(length, p, f)
                assert lhs == pytest.approx(rhs, abs=1e-12), name

    def test_linear_function_has_no_gap(self):
        # The dominance inequality is tight for affine f: both sides equal
        # N * mean by the tower rule.
        chain = two_step_chain()
        f_sum = lambda xs: xs.sum(axis=1)  # noqa: E731
        assert dependent_convex_expectation(chain, f_sum) == pytest.approx(
            1.0, abs=1e-13
        )
        assert convex_domination_gap(chain, f_sum) == pytest.approx(0.0, abs=1e-13)

    def test_constant_chain_strict_gap(self):
        # A constant chain concentrates all mass at the mean; for strictly
        # convex f the Bernoulli side pays the full variance.
        chain = DependentChainSpec.constant(3, 0.5)
        f = lambda xs: xs.sum(axis=1) ** 2  # noqa: E731
        assert dependent_convex_expectation(chain, f) == pytest.approx(2.25, abs=1e-13)
        # E[S^2] = Var + (E S)^2 = 3/4 + 9/4 = 3 for S ~ Bin(3, 1/2).
        assert convex_domination_gap(chain, f) == pytest.approx(0.75, abs=1e-13)

    def test_rejects_drifting_conditional_mean(self):
        with pytest.raises(ValueError, match="constant-mean"):
            DependentChainSpec(
                length=2,
                support=(0.0, 1.0),
                transitions=table_of({(): (0.5, 0.5), (0,): (0.2, 0.8), (1,): (0.5, 0.5)}, 2, 2),
                mean=0.5,
            )

    def test_rejects_non_probability_conditional(self):
        with pytest.raises(ValueError, match="sums to"):
            DependentChainSpec(
                length=1,
                support=(0.0, 1.0),
                transitions=table_of({(): (0.4, 0.5)}, 2, 1),
                mean=0.5,
            )
        with pytest.raises(ValueError, match="negative"):
            DependentChainSpec(
                length=1,
                support=(0.0, 1.0),
                transitions=table_of({(): (-0.1, 1.1)}, 2, 1),
                mean=0.5,
            )

    @pytest.mark.parametrize(
        "support, transitions",
        [
            # Accepted unchecked, this chain's only path is (1, 1), and the
            # domination gaps come out negative.
            ((0.0, 0.5, 1.0), lambda prefix: (math.nan, 0.0, 1.0)),
            # Accepted unchecked, this chain has no path at all.
            ((0.0, 1.0), {(): (math.nan, math.nan)}),
        ],
    )
    def test_rejects_nan_conditional(self, support, transitions):
        with pytest.raises(ValueError, match=r"at prefix \(\)"):
            DependentChainSpec(length=2, support=support, transitions=table_of(transitions, len(support), 2), mean=0.5)

    def test_unreachable_prefixes_are_not_required(self):
        # two_step_chain never reaches prefix (1,), so its conditional may be
        # omitted: no path starts with the value 1/2.
        chain = two_step_chain()
        assert 0.5 not in chain.path_values[:, 0]

    def test_path_budget(self):
        # The budget is checked before the table's shape, and before
        # iid_bernoulli builds its table: 2**21 > 10**6.
        with pytest.raises(BudgetError):
            DependentChainSpec(length=21, support=(0.0, 1.0), transitions=np.empty((0, 2)), mean=0.5)
        for length in (21, 10**8):  # 2**10**8 alone would take 12.5 MB
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError):
                    DependentChainSpec.iid_bernoulli(length, 0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, length
        with pytest.raises(BudgetError):
            bernoulli_convex_expectation(21, 0.5, lambda xs: np.zeros(len(xs)))

    def test_a_one_point_table_is_bounded_by_the_budget(self):
        # One support point gives one path at any length, but a table of
        # ``length`` rows: a table of more rows than the budget is rejected
        # before it is copied or walked.
        with mock.patch.object(concentration, "PATH_BUDGET", 1000):
            chain = DependentChainSpec.constant(1000, 0.5)
            assert chain.transitions.shape == (1000, 1) and chain.path_values.shape == (1, 1000)
            with pytest.raises(BudgetError, match="table of 1001 rows"):
                DependentChainSpec.constant(1001, 0.5)
            with pytest.raises(BudgetError, match="table of 1001 rows"):
                random_constant_mean_chain(1001, np.random.default_rng(3))  # u < 0.1: a constant chain

    def test_errors_name_the_first_bad_prefix_of_the_first_bad_level(self):
        bad = (0.2, 0.8)  # mean 0.8, not 0.5
        base = {(): (0.5, 0.5), (0,): (0.5, 0.5), (1,): (0.5, 0.5)}
        base.update({p: (0.5, 0.5) for p in itertools.product(range(2), repeat=2)})
        cases = [
            ({(0,): bad, (1,): bad}, r"mean 0\.8.* at prefix \(1,\)"),  # path order: (1,) before (0,)
            ({(0,): bad, (1, 1): bad}, r"at prefix \(0,\)"),  # a depth-first walk names (1, 1)
            ({(0,): (-0.5, 1.5), (1,): (0.5, 0.6)}, r"negative or nan probability at prefix \(0,\)"),
            ({(1,): (0.5, 0.6)}, r"prefix \(1,\) sums to 1\.1"),
        ]
        for changes, message in cases:
            table = table_of({**base, **changes}, 2, 3)
            with pytest.raises(ValueError, match=message):
                DependentChainSpec(length=3, support=(0.0, 1.0), transitions=table, mean=0.5)

    def test_function_and_mapping_build_the_same_chain(self):
        def conditional(prefix):
            # two_step_chain's rule: after a 0 the next value is surely 1/2.
            return (0.0, 1.0, 0.0) if prefix == (0,) else (0.5, 0.0, 0.5)

        from_function = DependentChainSpec(
            length=2, support=(0.0, 0.5, 1.0), transitions=table_of(conditional, 3, 2), mean=0.5
        )
        from_mapping = two_step_chain()
        assert from_function.path_values.tobytes() == from_mapping.path_values.tobytes()
        assert from_function.path_probs.tobytes() == from_mapping.path_probs.tobytes()

    def test_random_chains_are_valid_and_dominated(self):
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(900, 0)))
        sizes = set()
        for _ in range(25):
            length = int(rng.integers(2, 5))
            chain = random_constant_mean_chain(length, rng)
            assert chain.length == length
            sizes.add(len(chain.support))
            if len(chain.support) == 1:
                assert chain.support == (chain.mean,)
            for name, f in convex_test_functions(chain.length, chain.mean):
                assert convex_domination_gap(chain, f) >= -1e-12, name
        assert sizes == {1, 2, 3}

    def test_chain_stream_layout(self):
        # u, then the constant's value or the support, the mean and one
        # random(n) for the n prefixes of the full m-ary tree, whose rank
        # table the chain keeps.
        length = 3
        kinds = set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            chain = random_constant_mean_chain(length, rng)
            replay = np.random.default_rng(seed)
            u = replay.random()
            if u < 0.1:
                assert chain.support == (replay.random(),)
                kinds.add(1)
            else:
                m = 2 if u < 0.3 else 3
                kinds.add(m)
                support = np.sort(replay.random(m))
                while np.min(np.diff(support)) <= 0.05:
                    support = np.sort(replay.random(m))
                spread = support[-1] - support[0]
                mean = replay.uniform(support[0] + 0.05 * spread, support[-1] - 0.05 * spread)
                t = replay.random(sum(m**d for d in range(length)))
                assert chain.support == tuple(support) and chain.mean == mean
                assert chain.transitions.shape == (len(t), m)
                v0, v1 = _conditional_segment(chain.support, mean)
                prefixes = [p for d in range(length) for p in itertools.product(range(m), repeat=d)]
                for prefix in prefixes:
                    rank = sum(m**d for d in range(len(prefix))) + sum(j * m ** (len(prefix) - 1 - i) for i, j in enumerate(prefix))
                    q = tuple(chain.transitions[rank])
                    assert q == tuple(np.where(v0 == v1, v0, t[rank] * v0 + (1.0 - t[rank]) * v1))
                _, path_probs = depth_first_chain(length, chain.support, chain.transitions, mean)
                assert chain.path_probs.tobytes() == path_probs.tobytes()
            assert rng.bit_generator.state == replay.bit_generator.state
        assert kinds == {1, 2, 3}

    @pytest.mark.parametrize("seed, m", [(0, 3), (2, 2)])
    def test_an_over_budget_chain_fails_before_its_draws(self, seed, m):
        # u fixes m, and m**N is checked before the support or the tree is
        # drawn: 3**13 > 10**6, 2**20 > 10**6; 2**13 paths fit the budget.
        for length in (13, 20, 40) if m == 2 else (13, 40):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (replay.random() >= 0.3) == (m == 3)
            if m ** length <= concentration.PATH_BUDGET:
                assert len(random_constant_mean_chain(length, rng).support) == m
                continue
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError, match=rf"{m}\*\*{length} paths"):
                    random_constant_mean_chain(length, rng)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert rng.bit_generator.state == replay.bit_generator.state  # u alone was read

    def test_count_rule_on_the_convex_family_and_the_probe(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="length must be an integer"):
                convex_test_functions(bad, 0.3)
            with pytest.raises(ValueError, match="length must be an integer"):
                midpoint_convexity_probe(lambda xs: xs.sum(axis=1) ** 2, bad)
            with pytest.raises(ValueError, match="length must be an integer"):
                DependentChainSpec.constant(bad, 0.3)

    def test_midpoint_probe(self):
        for name, f in convex_test_functions(3, 0.4):
            assert midpoint_convexity_probe(f, 3), name
        concave = lambda xs: -(xs.sum(axis=1) ** 2)  # noqa: E731
        assert not midpoint_convexity_probe(concave, 3)


class TestConditionalVertices:
    """On m <= 3 points the feasible conditionals form a segment, whose
    vertices are the two ends ``_conditional_segment`` returns."""

    @pytest.mark.parametrize(
        "support, at, expected",
        [
            # A mean at an end of the support: both ends are its unit vector.
            ((0.1, 0.4, 0.8), 0, [[1.0, 0.0, 0.0]]),
            # At the middle point: e_1, then the (0, 2) mix.
            ((0.1, 0.4, 0.8), 1, [[0.0, 1.0, 0.0], [0.4 / 0.7, 0.0, 1.0 - 0.4 / 0.7]]),
            ((0.2, 0.7), 0, [[1.0, 0.0]]),
            ((0.2, 0.7), 1, [[0.0, 1.0]]),
            ((0.1, 0.4, 0.8), 2, [[0.0, 0.0, 1.0]]),
            ((0.3,), 0, [[1.0]]),
        ],
    )
    def test_each_vertex_once_at_a_support_mean(self, support, at, expected):
        v0, v1 = _conditional_segment(support, support[at])
        vertices = [v0] if np.array_equal(v0, v1) else [v0, v1]
        assert len(vertices) == len(expected)
        np.testing.assert_allclose(vertices, expected, rtol=0.0, atol=1e-15)
        for v in vertices:
            assert float(v @ np.asarray(support)) == pytest.approx(support[at], abs=1e-15)

    def test_interior_mean_on_three_points_has_two_vertices(self):
        for mean, expected in (
            (0.3, [[1.0 / 3.0, 2.0 / 3.0, 0.0], [5.0 / 7.0, 0.0, 2.0 / 7.0]]),
            (0.6, [[2.0 / 7.0, 0.0, 5.0 / 7.0], [0.0, 0.5, 0.5]]),
        ):
            v0, v1 = _conditional_segment((0.1, 0.4, 0.8), mean)
            assert not np.array_equal(v0, v1)
            np.testing.assert_allclose([v0, v1], expected, rtol=0.0, atol=1e-15)


@st.composite
def pure_conditionals(draw):
    """(length, support, conditional, mean) for a chain of length 1-6 on 1-3
    support points whose conditional is a pure function of the prefix: points
    of the feasible segment, the endpoints (which hold zeros) included."""
    length = draw(st.integers(1, 6))
    support = draw(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True).map(sorted)
        .filter(lambda v: len(v) == 1 or min(np.diff(v)) > 1e-3)
    )
    mean = draw(st.sampled_from(support) | st.floats(support[0], support[-1]))
    v0, v1 = _conditional_segment(tuple(support), mean)
    ts = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=12))
    rows = [(t * v0 + (1.0 - t) * v1).tolist() for t in ts]

    def conditional(prefix):
        return rows[sum((j + 1) * 5**i for i, j in enumerate(prefix)) % len(rows)]

    return length, tuple(support), conditional, mean


class TestLevelWalk:
    @settings(max_examples=200, deadline=None)
    @given(pure_conditionals())
    def test_matches_the_depth_first_reference(self, args):
        length, support, conditional, mean = args
        table = table_of(conditional, len(support), length)
        chain = DependentChainSpec(length=length, support=support, transitions=table, mean=mean)
        path_values, path_probs = depth_first_chain(length, support, table, mean)
        assert chain.transitions is not table
        assert chain.transitions.tobytes() == table.tobytes()
        assert chain.path_values.shape == path_values.shape
        assert chain.path_values.tobytes() == path_values.tobytes()
        assert chain.path_probs.tobytes() == path_probs.tobytes()


class TestRankTables:
    @settings(max_examples=200, deadline=None)
    @given(pure_conditionals())
    def test_table_function_and_mapping_build_the_same_chain(self, args):
        # The function and its mapping give one table, nan at unreachable
        # prefixes; it builds the chain the full table builds.
        length, support, conditional, mean = args
        m = len(support)
        mapping = {p: conditional(p) for d in range(length) for p in itertools.product(range(m), repeat=d)}
        table = table_of(conditional, m, length)
        assert table.tobytes() == table_of(mapping, m, length).tobytes()
        full = np.array(list(mapping.values()), dtype=float).reshape(-1, m)  # rank order
        chains = [DependentChainSpec(length=length, support=support, transitions=t, mean=mean) for t in (table, full)]
        assert chains[0].path_values.tobytes() == chains[1].path_values.tobytes()
        assert chains[0].path_probs.tobytes() == chains[1].path_probs.tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({1: (0.2, 0.0, 0.8), 3: (0.2, 0.0, 0.8)}, r"mean 0\.8.* at prefix \(2,\)"),  # path order: (2,) first
            ({1: (0.2, 0.0, 0.8), 10: (0.2, 0.0, 0.8)}, r"mean 0\.8.* at prefix \(0,\)"),  # the first bad level
            ({12: (-0.5, 1.0, 0.5)}, r"negative or nan probability at prefix \(2, 2\)"),
            ({10: (np.nan, 0.0, 1.0), 11: (np.nan,) * 3}, r"negative or nan probability at prefix \(2, 0\)"),
            ({5: (0.5, 0.1, 0.5)}, r"prefix \(0, 1\) sums to 1\.1"),
        ],
    )
    def test_a_bad_reachable_row_fails_alike_in_every_form(self, bad, message):
        # Support (0, 1/2, 1), mean 1/2: the root and every prefix split
        # evenly between 0 and 1, except that prefix (0,) surely moves to 1/2.
        # Prefix (a, b) has rank 4 + 3a + b; (2, 1), rank 11, is unreachable.
        rows = np.tile([0.5, 0.0, 0.5], (13, 1))
        rows[1] = (0.0, 1.0, 0.0)
        for rank, row in bad.items():
            rows[rank] = row
        prefixes = [p for d in range(3) for p in itertools.product(range(3), repeat=d)]  # rank order
        forms = (rows, table_of(conditional_of(rows, 3), 3, 3), table_of(dict(zip(prefixes, rows.tolist())), 3, 3))
        errors = []
        for transitions in forms:
            with pytest.raises(ValueError, match=message) as info:
                DependentChainSpec(length=3, support=(0.0, 0.5, 1.0), transitions=transitions, mean=0.5)
            errors.append(str(info.value))
        assert len(set(errors)) == 1

    def test_unreachable_rows_are_never_read(self):
        # The root never draws 1/2, so prefix (1,) (rank 2) and its children
        # (ranks 7-9) are unreachable; nan there changes nothing.
        rows = np.tile([0.5, 0.0, 0.5], (13, 1))
        bad = rows.copy()
        bad[[2, 7, 8, 9]] = np.nan
        chains = [DependentChainSpec(length=3, support=(0.0, 0.5, 1.0), transitions=t, mean=0.5) for t in (rows, bad)]
        assert chains[0].path_values.tobytes() == chains[1].path_values.tobytes()
        assert chains[0].path_probs.tobytes() == chains[1].path_probs.tobytes()
        assert len(chains[0].path_probs) == 8

    @pytest.mark.parametrize("shape", [(13, 2), (12, 3), (14, 3), (39,), (13, 3, 1), (27, 3)])
    def test_a_mis_shaped_table_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"rank table is float64 .*, expected real \(sum_\(d<3\) 3\*\*d, 3\)"):
            DependentChainSpec(length=3, support=(0.0, 0.5, 1.0), transitions=np.full(shape, 1.0 / 3.0), mean=0.5)

    @pytest.mark.parametrize("dtype", [complex, str, object])
    def test_a_table_of_other_than_real_numbers_is_rejected(self, dtype):
        # The dtype is checked before the float copy is taken.
        with pytest.raises(ValueError, match="rank table is"):
            DependentChainSpec(length=1, support=(0.0, 1.0), transitions=np.full((1, 2), 0.5).astype(dtype), mean=0.5)
        assert DependentChainSpec(length=1, support=(0.0, 1.0), transitions=np.eye(2, dtype=int)[:1], mean=0.0)

    @pytest.mark.parametrize("transitions", [{(): (0.5, 0.5)}, lambda prefix: (0.5, 0.5)])
    def test_a_mapping_or_a_function_is_not_a_table(self, transitions):
        with pytest.raises(ValueError, match=r"rank table is object \(\)"):
            DependentChainSpec(length=1, support=(0.0, 1.0), transitions=transitions, mean=0.5)

    def test_a_chain_keeps_a_read_only_copy_of_its_table(self):
        # A write to the caller's table after construction leaves the chain
        # as it was, and the chain's own table cannot be written.
        rows = np.tile([0.5, 0.0, 0.5], (13, 1))
        chain = DependentChainSpec(length=3, support=(0.0, 0.5, 1.0), transitions=rows, mean=0.5)
        before = [a.tobytes() for a in (chain.transitions, chain.path_values, chain.path_probs)]
        rows[0] = (0.2, 0.0, 0.8)
        assert [a.tobytes() for a in (chain.transitions, chain.path_values, chain.path_probs)] == before
        with pytest.raises(ValueError, match="read-only"):
            chain.transitions[0] = (0.2, 0.0, 0.8)
        rebuilt = DependentChainSpec(length=3, support=chain.support, transitions=chain.transitions, mean=0.5)
        assert rebuilt.path_probs.tobytes() == chain.path_probs.tobytes()

    def test_constant_chain_is_a_table(self):
        chain = DependentChainSpec.constant(4, 0.3)
        assert chain.transitions.shape == (4, 1)
        assert chain.path_values.tolist() == [[0.3] * 4] and chain.path_probs.tolist() == [1.0]


class TestOracleChainBytes:
    """The `oracles` campaign's chains and domination gaps, pinned by SHA-256:
    a change to how a chain is built or walked may not move one byte."""

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "b00bea66167023a1f9c9d4a8284582073d8c4f27a071c7e254ef7d6fdb79080c"),
            (1, "8a8e2d9acf6592ba1b7a9219fcf2b21b7133e6ab4855869dd374d5324345d49c"),
            (5, "df838e81d7543437ab2a992b6a6d69a3785edbc5c62b3f70ca117b229eabbc29"),
        ],
    )
    def test_oracle_chains_and_gaps_keep_their_bytes(self, seed, digest):
        # The draws of harness._domination_checks at the default chain count.
        rng = _stream(seed, harness._CHAIN_STREAM)
        sha = hashlib.sha256()
        gaps = []
        for _ in range(harness.ExperimentConfig(mode="oracles").chain_count):
            chain = random_constant_mean_chain(int(rng.integers(2, 7)), rng)
            sha.update(chain.path_values.tobytes())
            sha.update(chain.path_probs.tobytes())
            gaps += [convex_domination_gap(chain, f) for _, f in convex_test_functions(chain.length, chain.mean)]
        sha.update(np.array(gaps).tobytes())
        assert len(gaps) == 600
        assert sha.hexdigest() == digest


@st.composite
def small_chains(draw):
    """Constant-mean chains of length <= 5 on <= 3 support points; each
    reachable prefix mixes two ends of the feasible segment, drawn when
    ``table_of`` asks for its row."""
    length = draw(st.integers(1, 5))
    support = draw(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True).map(sorted)
        .filter(lambda v: len(v) == 1 or min(np.diff(v)) > 1e-3)
    )
    mean = draw(st.floats(support[0], support[-1]))
    if len(support) == 1:
        return DependentChainSpec.constant(length, mean)
    ends = _conditional_segment(tuple(support), mean)

    def conditional(prefix):
        a, b = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        t = draw(st.floats(0.0, 1.0))
        return t * ends[a] + (1.0 - t) * ends[b]

    table = table_of(conditional, len(support), length)
    return DependentChainSpec(length=length, support=tuple(support), transitions=table, mean=mean)


def _bit_rows(length):
    return np.array([[float((b >> i) & 1) for i in range(length)] for b in range(2**length)])


class TestPathKernel:
    """The path-matrix kernel against the scalar tree walk and bit loop."""

    def _check(self, chain):
        scalar = dict(scalar_convex_test_functions(chain.length, chain.mean))
        n, mean = chain.length, chain.mean
        bits = _bit_rows(n)
        # The Bernoulli paths of positive probability: all 2^N, or the
        # constant one when the mean is 0 or 1.
        live_bits = bits if 0.0 < mean < 1.0 else np.full((1, n), mean)
        for name, f in convex_test_functions(n, mean):
            g = scalar[name]
            sides = (
                (chain.path_values, lambda: dependent_convex_expectation(chain, f),
                 lambda: tree_walk_expectation(chain, g)),
                (live_bits, lambda: bernoulli_convex_expectation(n, mean, f),
                 lambda: bit_loop_expectation(n, mean, g)),
            )
            for rows, kernel, reference in sides:
                if np.isinf(f(rows)).any():
                    # kl_moment passed the cap on a possible path, where the
                    # path's weight has underflowed: the kernel refuses.
                    with pytest.raises(ValueError, match="infinite"):
                        kernel()
                else:
                    assert kernel() == pytest.approx(reference(), rel=1e-12, abs=1e-12), name
            # Row by row, the array function is the scalar one.
            for rows in (chain.path_values, bits):
                np.testing.assert_allclose(f(rows), [g(tuple(r)) for r in rows], rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(small_chains())
    def test_drawn_chains_match_the_references(self, chain):
        assert chain.path_values.shape == (len(chain.path_probs), chain.length)
        assert math.fsum(chain.path_probs) == pytest.approx(1.0, abs=1e-12)
        self._check(chain)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.floats(0.0, 1.0))
    def test_iid_and_constant_chains_match_the_references(self, length, p):
        self._check(DependentChainSpec.iid_bernoulli(length, p))
        self._check(DependentChainSpec.constant(length, p))

    def test_cached_bit_rows_are_read_only_and_exact(self):
        # All 2^N paths fold as one block up to N = 14, and only those are kept.
        assert 2**14 <= _PATH_BLOCK < 2**15
        for length in range(1, 15):
            bits, ones = concentration._bit_rows(length, 0, 2**length)
            assert concentration._bit_rows(length, 0, 2**length)[0] is bits
            assert not bits.flags.writeable and not ones.flags.writeable
            assert bits.tobytes() == _bit_rows(length).tobytes()
            assert ones.tolist() == _bit_rows(length).sum(axis=1).astype(int).tolist()
            fresh = concentration._bit_rows.__wrapped__(length, 0, 2**length)
            assert bits.tobytes() == fresh[0].tobytes() and ones.tobytes() == fresh[1].tobytes()
        kept = concentration._bit_rows.cache_info().currsize
        bernoulli_convex_expectation(15, 0.3, lambda xs: xs.sum(axis=1))
        assert concentration._bit_rows.cache_info().currsize == kept

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 800), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_max_and_kl_moment_keep_their_bits(self, length, rows, seed, mean):
        # max folds np.maximum over the columns, and kl_moment runs the
        # kernel on every row: numpy's max, and one kernel call per
        # distinct sample mean, give the same bytes.
        xs = np.random.default_rng(seed).random((rows, length))
        xs[xs < 0.3] = 0.0
        xs[xs > 0.7] = 1.0
        family = dict(convex_test_functions(length, mean))
        assert family["max"](xs).tobytes() == xs.max(axis=1).tobytes()
        x_bar, row_of = np.unique(np.clip(xs.sum(axis=1) / length, 0.0, 1.0), return_inverse=True)
        with np.errstate(over="ignore"):
            exponent = length * bernoulli_kl_vec(x_bar, mean)
            expected = np.where(exponent < concentration._EXP_CAP, np.exp(exponent), math.inf)[row_of]
        assert family["kl_moment"](xs).tobytes() == expected.tobytes()

    def test_paths_follow_the_walk_and_are_read_only(self):
        chain = two_step_chain()
        assert chain.path_values.tolist() == [[1.0, 1.0], [1.0, 0.0], [0.0, 0.5]]
        assert chain.path_probs.tolist() == [0.25, 0.25, 0.5]
        with pytest.raises(ValueError):
            chain.path_probs[0] = 1.0

    def test_kl_moment_caps_to_inf_without_overflow(self):
        # kl(1 || 1e-305) = 702.3 reaches the cap of 700; kl(1 || 0) is inf.
        # A warning would fail the test: pytest turns warnings into errors.
        f = dict(convex_test_functions(1, 1e-305))["kl_moment"]
        assert f(np.array([[1.0], [1e-305]])).tolist() == [math.inf, 1.0]
        f = dict(convex_test_functions(2, 0.0))["kl_moment"]
        assert f(np.array([[1.0, 1.0], [0.0, 0.0]])).tolist() == [math.inf, 1.0]

    @pytest.mark.parametrize("p", [4.497e-191, 1e-160])
    def test_kl_moment_at_a_tiny_mean_raises_instead_of_losing_mass(self, p):
        # exp(2 kl(1 || p)) passes the cap where p^2 underflows, to 0 at the
        # first mean and to a subnormal at the second; the folds once gave
        # 1.5 and inf where the exact moment is 2.5.
        assert bernoulli_kl_moment(2, p) == pytest.approx(2.5, rel=1e-12)
        f = dict(convex_test_functions(2, p))["kl_moment"]
        with pytest.raises(ValueError, match="infinite"):
            bernoulli_convex_expectation(2, p, f)
        with pytest.raises(ValueError, match="infinite"):
            dependent_convex_expectation(DependentChainSpec.iid_bernoulli(2, p), f)

    def test_kl_moment_expectation_is_exact_or_raises(self):
        # Around the cap, each Bernoulli fold of kl_moment matches the exact
        # moment to 1e-12 or raises; both outcomes occur.
        outcomes = set()
        for length in (1, 2, 3, 7, 16):
            for c in (600.0, 699.0, 699.99, 700.01, 705.0, 760.0):
                for p in (math.exp(-c / length), 1.0 - 2.0**-52):
                    f = dict(convex_test_functions(length, p))["kl_moment"]
                    try:
                        got = bernoulli_convex_expectation(length, p, f)
                    except ValueError:
                        outcomes.add("raised")
                        continue
                    assert got == pytest.approx(bernoulli_kl_moment(length, p), rel=1e-12), (length, p)
                    outcomes.add("matched")
        assert outcomes == {"raised", "matched"}
        # Just inside the cap, 2 kl(1 || 1e-150) = 690.8: exact.
        f = dict(convex_test_functions(2, 1e-150))["kl_moment"]
        assert bernoulli_convex_expectation(2, 1e-150, f) == pytest.approx(2.5, rel=1e-12)

    def test_bernoulli_side_at_the_budget_folds_in_blocks(self):
        # The whole (2^19, 19) path matrix would take 80 MB; blocks of
        # _PATH_BLOCK paths keep the peak a small fraction of that.
        length, p = 19, 0.3
        whole = 2**length * length * 8
        assert 2**length > 4 * _PATH_BLOCK
        tracemalloc.start()
        try:
            values = {
                name: bernoulli_convex_expectation(length, p, f)
                for name, f in convex_test_functions(length, p)
            }
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole / 4
        assert values["max"] == pytest.approx(1.0 - (1.0 - p) ** length, rel=1e-12)
        mean = length * p
        assert values["square_sum"] == pytest.approx(mean * (1.0 - p) + mean**2, rel=1e-12)


class TestMartingaleBounds:
    def test_azuma_alt_frozen_value(self):
        assert azuma_alt_bound(100, -1.0, 1.0, 0.05) == pytest.approx(
            39.015004268602226, rel=1e-12
        )

    def test_azuma_alt_scaling_and_identity(self):
        base = azuma_alt_bound(100, -1.0, 1.0, 0.05)
        assert azuma_alt_bound(100, -2.0, 2.0, 0.05) == pytest.approx(
            2.0 * base, rel=1e-14
        )
        # The radius is the Pinsker translation of the kl budget.
        for n, delta, (low, high) in (
            (10, 0.1, (-1.0, 1.0)),
            (500, 0.01, (-0.25, 0.75)),
            (3162, 0.05, (-2.0, 0.5)),
        ):
            direct = azuma_alt_bound(n, low, high, delta)
            via_pinsker = (high - low) * n * pinsker_gap(math.log((n + 1) / delta) / n)
            assert direct == pytest.approx(via_pinsker, rel=1e-13)

    def test_azuma_alt_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            azuma_alt_bound(10, 0.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            azuma_alt_bound(10, 0.5, 1.0, 0.05)  # low must be <= 0
        with pytest.raises(ValueError):
            azuma_alt_bound(0, -1.0, 1.0, 0.05)

    def test_hoeffding_frozen_value(self):
        widths = np.full(100, 2.0)  # ranges [-1, 1]
        assert hoeffding_azuma_bound(widths, 0.05) == pytest.approx(
            27.16203031481239, rel=1e-12
        )

    def test_hoeffding_zero_width_ranges(self):
        assert hoeffding_azuma_bound(np.zeros(5), 0.05) == 0.0

    def test_equal_range_ratio(self):
        # With identical per-step ranges the two radii differ exactly by
        # sqrt(ln((N+1)/delta) / ln(2/delta)).
        for n, delta in ((10, 0.1), (100, 0.05), (1000, 0.01)):
            alt = azuma_alt_bound(n, -1.0, 1.0, delta)
            classical = hoeffding_azuma_bound(np.full(n, 2.0), delta)
            expected = math.sqrt(math.log((n + 1) / delta) / math.log(2.0 / delta))
            assert alt / classical == pytest.approx(expected, rel=1e-13)

    def test_range_validation(self):
        for bad in ([1.0, -0.5], [2.0, np.nan], [np.inf, 1.0], [], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="widths"):
                hoeffding_azuma_bound(np.array(bad), 0.05)
        # A zero-width step is a.s. 0 and adds nothing.
        assert hoeffding_azuma_bound(np.array([0.0, 3.0, 0.0]), 0.05) == hoeffding_azuma_bound(np.array([3.0]), 0.05)

    @pytest.mark.parametrize("profile", ["equal", "one_spike"])
    def test_walk_profile_widths_keep_the_range_form(self, profile):
        # compare-concentration passes 2 * steps for the ranges [-steps, steps]:
        # steps - (-steps) is exactly 2 * steps, so every cell keeps its bytes.
        for n in (25, 100, 400, 1600):
            steps = np.ones(n)
            if profile == "one_spike":
                steps[0] = 5.0
            for delta in (0.2, 0.1, 0.05, 0.01):
                range_form = math.sqrt(0.5 * float(np.sum((steps - -steps) ** 2)) * math.log(2.0 / delta))
                assert hoeffding_azuma_bound(2.0 * steps, delta) == range_form


def _walks_from_one_draw(profiles, trials, seed):
    """Reference: one integers(0, 2) draw of (trials, 2W) signs, W = ceil(longest / 2),
    and np.dot of each profile with its prefix of each trial's row."""
    words = -(-max(steps.size for steps in profiles) // 2)
    signs = 2.0 * _stream(seed, _PROFILE_STREAM).integers(0, 2, size=(trials, 2 * words)) - 1.0
    sums = np.empty((len(profiles), trials))
    for j, steps in enumerate(profiles):
        for i in range(trials):
            sums[j, i] = float(np.dot(steps, signs[i, : steps.size]))
    return sums


class TestSimulators:
    def test_profile_walk_prefix_stability(self):
        # Trajectory i depends only on (seed, i): enlarging the batch keeps
        # the earlier trajectories bit-identical.
        steps = [np.array([1.0, 2.0, 5.0]), np.ones(7)]
        small = simulate_profile_walks(steps, trials=5, seed=9)
        large = simulate_profile_walks(steps, trials=12, seed=9)
        assert np.array_equal(small, large[:, :5])
        # Across block boundaries too: 40 trials span three blocks.
        assert 40 > 2 * _WALK_BLOCK
        assert np.array_equal(small, simulate_profile_walks(steps, trials=40, seed=9)[:, :5])

    def test_profile_walks(self):
        steps = np.array([1.0, 2.0, 5.0])
        sums = simulate_profile_walks([steps], trials=25, seed=11)
        assert sums.shape == (1, 25)
        assert np.all(np.abs(sums) <= steps.sum() + 1e-12)
        sums2 = simulate_profile_walks([steps], trials=25, seed=11)
        assert np.array_equal(sums, sums2)

    def test_profile_walk_validation(self):
        with pytest.raises(ValueError):
            simulate_profile_walks([], trials=5, seed=0)
        with pytest.raises(ValueError):
            simulate_profile_walks([np.array([])], trials=5, seed=0)
        with pytest.raises(ValueError):
            simulate_profile_walks([np.ones(3), np.array([1.0, 0.0])], trials=5, seed=0)
        with pytest.raises(ValueError):
            simulate_profile_walks([np.array([1.0, np.nan])], trials=5, seed=0)
        with pytest.raises(ValueError):
            simulate_profile_walks([np.ones((2, 2))], trials=5, seed=0)
        with pytest.raises(ValueError):
            simulate_profile_walks([np.array([1.0])], trials=0, seed=0)

    def test_raw_bit_signs_are_the_integers_draw(self):
        # Bit 31, then bit 63, of each raw word is what integers(0, 2) reads
        # from the same stream: two trials of W words each, at odd and even
        # lengths, are the rows of a (2, 2W) draw.
        for seed in range(50):
            for n in (1, 2, 3, 25, 1599, 1600):
                words = (n + 1) // 2
                signs = _walk_signs(_stream(seed, _PROFILE_STREAM).bit_generator.random_raw((2, words)))
                bits = _stream(seed, _PROFILE_STREAM).integers(0, 2, size=(2, 2 * words))
                assert signs.shape == (2, n + n % 2)
                assert np.array_equal(signs, 2.0 * bits - 1.0), (seed, n)

    @pytest.mark.parametrize("trials", [15, 16, 17, 33, 1023, 1024, 1025, 2049])
    def test_blocks_spawn_the_documented_streams(self, trials):
        # The block size only splits the one stream's words: sums are the
        # same bytes with a block of 1, 7, 16 or 1 024 trials.
        steps = [np.ones(3), np.array([5.0, 1.0, 1.0, 1.0])]
        sums = []
        for block in (1, 7, 16, 1024):
            with mock.patch.object(concentration, "_WALK_BLOCK", block):
                sums.append(simulate_profile_walks(steps, trials, seed=4).tobytes())
        assert sums == sums[:1] * 4

    def test_walk_memory_does_not_grow_with_trials(self):
        # Signs are drawn a block at a time: past the (P, trials) output,
        # the peak is the same at 2 000 and at 20 000 trials.
        steps = [np.ones(n) for n in (25, 100, 400, 1600)]
        steps += [np.concatenate(([5.0], np.ones(n - 1))) for n in (25, 100, 400, 1600)]
        simulate_profile_walks(steps, 1, seed=0)  # first-call allocations stay out
        extra = []
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                simulate_profile_walks(steps, trials, seed=0)
                extra.append(tracemalloc.get_traced_memory()[1] - len(steps) * trials * 8)
            finally:
                tracemalloc.stop()
        assert abs(extra[1] - extra[0]) <= 0.1 * extra[0], extra

    @given(
        profiles=st.lists(
            st.lists(
                st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
            ),
            min_size=1,
            max_size=5,
        ),
        trials=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_profiles_match_drawing_alone(self, profiles, trials, seed):
        # Each profile's sums are what np.dot gives on its prefix of one
        # integers(0, 2) draw of every trial's signs.
        profiles = [np.array(p) for p in profiles]
        sums = simulate_profile_walks(profiles, trials, seed)
        reference = _walks_from_one_draw(profiles, trials, seed)
        assert sums.tobytes() == reference.tobytes()
