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

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditbounds import (
    BudgetError,
    DependentChainSpec,
    MartingaleRange,
    azuma_alt_bound,
    bernoulli_convex_expectation,
    bernoulli_kl_moment,
    convex_domination_gap,
    convex_test_functions,
    dependent_convex_expectation,
    hoeffding_azuma_bound,
    midpoint_convexity_probe,
    pinsker_gap,
    random_constant_mean_chain,
    simulate_profile_walks,
)
from banditbounds.concentration import _PATH_BLOCK, _PROFILE_STREAM, _conditional_vertices, _stream
from reference import bit_loop_expectation, scalar_convex_test_functions, tree_walk_expectation


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

    def test_budget(self):
        with pytest.raises(BudgetError):
            bernoulli_kl_moment(26, 0.5)
        with pytest.raises(ValueError):
            bernoulli_kl_moment(0, 0.5)


def two_step_chain() -> DependentChainSpec:
    return DependentChainSpec(
        length=2,
        support=(0.0, 0.5, 1.0),
        transitions={
            (): (0.5, 0.0, 0.5),
            (0,): (0.0, 1.0, 0.0),
            (2,): (0.5, 0.0, 0.5),
        },
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
                transitions={(): (0.5, 0.5), (0,): (0.2, 0.8), (1,): (0.5, 0.5)},
                mean=0.5,
            )

    def test_rejects_non_probability_conditional(self):
        with pytest.raises(ValueError, match="sums to"):
            DependentChainSpec(
                length=1,
                support=(0.0, 1.0),
                transitions={(): (0.4, 0.5)},
                mean=0.5,
            )
        with pytest.raises(ValueError, match="negative"):
            DependentChainSpec(
                length=1,
                support=(0.0, 1.0),
                transitions={(): (-0.1, 1.1)},
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
            DependentChainSpec(length=2, support=support, transitions=transitions, mean=0.5)

    def test_rejects_missing_prefix_and_wrong_shape(self):
        with pytest.raises(ValueError, match="missing conditional"):
            DependentChainSpec(
                length=2,
                support=(0.0, 1.0),
                transitions={(): (0.5, 0.5), (0,): (0.5, 0.5)},
                mean=0.5,
            )
        with pytest.raises(ValueError, match="wrong length"):
            DependentChainSpec(
                length=1,
                support=(0.0, 1.0),
                transitions={(): (1.0,)},
                mean=0.5,
            )

    def test_unreachable_prefixes_are_not_required(self):
        # two_step_chain never reaches prefix (1,), so its conditional may be
        # omitted; construction already succeeded above, just re-affirm.
        chain = two_step_chain()
        assert (1,) not in chain.transitions

    def test_path_budget(self):
        class CountingChain(DependentChainSpec):
            # Counts the calls the construction walk makes to a function.
            calls = 0

            def __post_init__(self):
                conditional = self.transitions

                def counted(prefix):
                    CountingChain.calls += 1
                    return conditional(prefix)

                object.__setattr__(self, "transitions", counted)
                super().__post_init__()

        CountingChain.iid_bernoulli(3, 0.5)
        assert CountingChain.calls == 7  # the prefixes of length 0, 1 and 2
        CountingChain.calls = 0
        with pytest.raises(BudgetError):
            CountingChain.iid_bernoulli(21, 0.5)  # 2^21 > 10^6
        assert CountingChain.calls == 0  # the budget is checked before the walk
        with pytest.raises(BudgetError):
            bernoulli_convex_expectation(21, 0.5, lambda xs: np.zeros(len(xs)))

    def test_function_and_mapping_build_the_same_chain(self):
        def conditional(prefix):
            # two_step_chain's rule: after a 0 the next value is surely 1/2.
            return (0.0, 1.0, 0.0) if prefix == (0,) else (0.5, 0.0, 0.5)

        from_function = DependentChainSpec(
            length=2, support=(0.0, 0.5, 1.0), transitions=conditional, mean=0.5
        )
        assert from_function.transitions == two_step_chain().transitions

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

    def test_midpoint_probe(self):
        for name, f in convex_test_functions(3, 0.4):
            assert midpoint_convexity_probe(f, 3), name
        concave = lambda xs: -(xs.sum(axis=1) ** 2)  # noqa: E731
        assert not midpoint_convexity_probe(concave, 3)


@st.composite
def small_chains(draw):
    """Constant-mean chains of length <= 5 on <= 3 support points; each
    reachable prefix mixes two vertices of the feasible conditionals."""
    length = draw(st.integers(1, 5))
    support = draw(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True).map(sorted)
        .filter(lambda v: len(v) == 1 or min(np.diff(v)) > 1e-3)
    )
    mean = draw(st.floats(support[0], support[-1]))
    if len(support) == 1:
        return DependentChainSpec.constant(length, mean)
    vertices = _conditional_vertices(tuple(support), mean)

    def conditional(_prefix):
        a, b = draw(st.integers(0, len(vertices) - 1)), draw(st.integers(0, len(vertices) - 1))
        t = draw(st.floats(0.0, 1.0))
        return tuple(t * vertices[a] + (1.0 - t) * vertices[b])

    return DependentChainSpec(length=length, support=tuple(support), transitions=conditional, mean=mean)


def _bit_rows(length):
    return np.array([[float((b >> i) & 1) for i in range(length)] for b in range(2**length)])


class TestPathKernel:
    """The path-matrix kernel against the scalar tree walk and bit loop."""

    def _check(self, chain):
        scalar = dict(scalar_convex_test_functions(chain.length, chain.mean))
        for name, f in convex_test_functions(chain.length, chain.mean):
            g = scalar[name]
            assert dependent_convex_expectation(chain, f) == pytest.approx(
                tree_walk_expectation(chain, g), rel=1e-12, abs=1e-12
            ), name
            assert bernoulli_convex_expectation(chain.length, chain.mean, f) == pytest.approx(
                bit_loop_expectation(chain.length, chain.mean, g), rel=1e-12, abs=1e-12
            ), name
            # Row by row, the array function is the scalar one.
            for rows in (chain.path_values, _bit_rows(chain.length)):
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
        ranges = MartingaleRange.equal(100, -1.0, 1.0)
        assert hoeffding_azuma_bound(ranges, 0.05) == pytest.approx(
            27.16203031481239, rel=1e-12
        )

    def test_hoeffding_zero_width_ranges(self):
        ranges = MartingaleRange(np.zeros(5), np.zeros(5))
        assert hoeffding_azuma_bound(ranges, 0.05) == 0.0

    def test_equal_range_ratio(self):
        # With identical per-step ranges the two radii differ exactly by
        # sqrt(ln((N+1)/delta) / ln(2/delta)).
        for n, delta in ((10, 0.1), (100, 0.05), (1000, 0.01)):
            alt = azuma_alt_bound(n, -1.0, 1.0, delta)
            classical = hoeffding_azuma_bound(MartingaleRange.equal(n, -1.0, 1.0), delta)
            expected = math.sqrt(math.log((n + 1) / delta) / math.log(2.0 / delta))
            assert alt / classical == pytest.approx(expected, rel=1e-13)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            MartingaleRange(np.array([0.5]), np.array([1.0]))  # low > 0
        with pytest.raises(ValueError):
            MartingaleRange(np.array([-1.0]), np.array([-0.5]))  # high < 0
        with pytest.raises(ValueError):
            MartingaleRange(np.array([-1.0, -1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            MartingaleRange(np.array([-np.inf]), np.array([1.0]))
        ranges = MartingaleRange.equal(3, -1.0, 2.0)
        assert ranges.n_steps == 3
        with pytest.raises(ValueError):
            ranges.lows[0] = 5.0  # read-only


def _walks_one_profile_at_a_time(profiles, trials, seed):
    """Reference: each profile draws its own signs, at its own length."""
    sums = np.empty((len(profiles), trials))
    for j, steps in enumerate(profiles):
        for i in range(trials):
            rng = _stream(seed, _PROFILE_STREAM, i)
            signs = 2.0 * rng.integers(0, 2, size=steps.size) - 1.0
            sums[j, i] = float(np.dot(steps, signs))
    return sums


class TestSimulators:
    def test_profile_walk_prefix_stability(self):
        # Trajectory i depends only on (seed, i): enlarging the batch keeps
        # the earlier trajectories bit-identical.
        steps = [np.array([1.0, 2.0, 5.0]), np.ones(7)]
        small = simulate_profile_walks(steps, trials=5, seed=9)
        large = simulate_profile_walks(steps, trials=12, seed=9)
        assert np.array_equal(small, large[:, :5])

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

    def test_shorter_sign_draw_is_a_prefix(self):
        # The walk simulator draws each trial once, at the longest profile,
        # and relies on this numpy behaviour, which its API does not promise.
        for i in range(300):
            longest = _stream(0, _PROFILE_STREAM, i).integers(0, 2, size=1600)
            for n in (1, 25, 100, 400):
                draw = _stream(0, _PROFILE_STREAM, i).integers(0, 2, size=n)
                assert np.array_equal(draw, longest[:n]), (i, n)

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
        profiles = [np.array(p) for p in profiles]
        sums = simulate_profile_walks(profiles, trials, seed)
        reference = _walks_one_profile_at_a_time(profiles, trials, seed)
        assert sums.tobytes() == reference.tobytes()
