"""Reward arithmetic on the published candidate table, exponent calibration,
argmax selection, and Pareto filtering against a brute-force filter."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from d2m.errors import (D2mError, DegenerateCalibration, EmptyRecord, InvalidConfig,
                        NonPositiveLatency, OutOfRange)
from d2m.tradeoff import (
    CandidateEvaluation,
    calibrate_w,
    evaluate_candidates,
    pareto_frontier,
    read_candidates_csv,
    reward,
    write_candidates_csv,
)

# retained depth, measured latency (ms), average benchmark score
CANDIDATE_TABLE = [
    (13, 135.78, 29.85),
    (15, 148.84, 39.06),
    (17, 161.89, 42.76),
    (19, 174.95, 47.31),
    (21, 188.00, 47.50),
    (23, 201.05, 47.93),
]
BASE_LATENCY = 195.87
EXPECTED_REWARDS = [31.54, 40.70, 44.00, 48.12, 47.79, 47.74]


def table_candidates():
    return [CandidateEvaluation(config_id=f"L{d}", retained_depth=d, latency_ms=lat, score=s)
            for d, lat, s in CANDIDATE_TABLE]


class TestReward:
    def test_published_rows(self):
        for (depth, lat, score), expected in zip(CANDIDATE_TABLE, EXPECTED_REWARDS):
            assert reward(score, lat, BASE_LATENCY, -0.15) == pytest.approx(expected, abs=0.02)

    def test_unit_ratio_returns_score(self):
        for w in (-0.15, 0.0, 0.3, -2.0):
            assert reward(42.5, 100.0, 100.0, w) == 42.5

    def test_monotonicity(self):
        slow = reward(40.0, 200.0, 100.0, -0.15)
        fast = reward(40.0, 150.0, 100.0, -0.15)
        assert fast > slow
        assert reward(41.0, 150.0, 100.0, -0.15) > reward(40.0, 150.0, 100.0, -0.15)

    def test_non_positive_latency(self):
        with pytest.raises(NonPositiveLatency):
            reward(1.0, 0.0, 100.0, -0.15)
        with pytest.raises(NonPositiveLatency):
            reward(1.0, 10.0, -5.0, -0.15)

    @pytest.mark.parametrize("args, error", [
        ((1.0, float("nan"), 100.0, -0.15), NonPositiveLatency),
        ((1.0, 10.0, float("inf"), -0.15), NonPositiveLatency),
        ((1.0, 10.0, float("nan"), -0.15), NonPositiveLatency),
        ((float("nan"), 10.0, 100.0, -0.15), InvalidConfig),
        ((1.0, 10.0, 100.0, float("nan")), InvalidConfig),
        ((1.0, 10.0, 100.0, float("-inf")), InvalidConfig),
        # finite inputs whose reward is not: the power overflows, the product
        # does, and a ratio that underflows to zero meets a negative power
        ((1e308, 1.0, 1e-300, 100.0), OutOfRange),
        ((1e308, 1.0, 0.5, 1.0), OutOfRange),
        ((1e308, 1e-300, 1e300, -1.0), OutOfRange),
    ])
    def test_non_finite_inputs(self, args, error):
        with pytest.raises(error):
            reward(*args)

    @given(score=st.floats(allow_nan=False, allow_infinity=False),
           latency=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           base=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           exponent=st.floats(allow_nan=False, allow_infinity=False))
    def test_finite_or_refused(self, score, latency, base, exponent):
        """Over finite positive latencies and finite scores and exponents, a
        reward is a finite float or a D2mError, never an OverflowError."""
        try:
            value = reward(score, latency, base, exponent)
        except D2mError:
            return
        assert isinstance(value, float) and math.isfinite(value)


class TestCalibrateW:
    def test_platform_rule(self):
        w = calibrate_w(2, 1.11)
        assert -0.1516 <= w <= -0.1496
        assert w == pytest.approx(-0.1506, abs=1e-4)

    def test_latency_indifferent(self):
        assert calibrate_w(2, 1.0) == 0.0

    def test_factor_composition_consistency(self):
        assert calibrate_w(4, 1.11 ** 2) == pytest.approx(calibrate_w(2, 1.11), abs=1e-12)

    def test_neutral_trade_identity(self):
        # scaling latency by f while scoring gain g leaves the reward fixed
        for factor, gain in ((2, 1.11), (3, 1.25), (1.5, 1.02)):
            w = calibrate_w(factor, gain)
            base = reward(10.0, 100.0, 100.0, w)
            traded = reward(10.0 * gain, 100.0 * factor, 100.0, w)
            assert traded == pytest.approx(base, rel=1e-12)

    def test_degenerate_factor(self):
        with pytest.raises(DegenerateCalibration):
            calibrate_w(1.0, 1.11)
        with pytest.raises(DegenerateCalibration):
            calibrate_w(2.0, 0.0)

    @pytest.mark.parametrize("factor, gain", [
        (float("inf"), 1.1),
        (float("nan"), 1.1),
        (2.0, float("inf")),
        (2.0, float("nan")),
    ], ids=["factor-inf", "factor-nan", "gain-inf", "gain-nan"])
    def test_non_finite_inputs(self, factor, gain):
        with pytest.raises(DegenerateCalibration, match="finite"):
            calibrate_w(factor, gain)


class TestEvaluateCandidates:
    def test_table_rewards_and_argmax(self):
        evaluated, best = evaluate_candidates(table_candidates(), BASE_LATENCY, -0.15)
        for cand, expected in zip(evaluated, EXPECTED_REWARDS):
            assert cand.reward == pytest.approx(expected, abs=0.02)
        assert best.retained_depth == 19

    def test_single_candidate_is_argmax(self):
        only = CandidateEvaluation("solo", 10, 50.0, 30.0)
        _, best = evaluate_candidates([only], 100.0, -0.15)
        assert best.config_id == "solo"

    def test_reward_tie_broken_by_lower_latency(self):
        # equal rewards by construction: same score, same latency ratio impact at w=0
        a = CandidateEvaluation("a", 1, 120.0, 40.0)
        b = CandidateEvaluation("b", 2, 80.0, 40.0)
        _, best = evaluate_candidates([a, b], 100.0, 0.0)
        assert best.config_id == "b"

    def test_argmax_invariant_under_latency_rescale(self):
        cands = table_candidates()
        _, best = evaluate_candidates(cands, BASE_LATENCY, -0.15)
        scaled = [CandidateEvaluation(c.config_id, c.retained_depth, c.latency_ms * 3.7,
                                      c.score) for c in cands]
        _, best_scaled = evaluate_candidates(scaled, BASE_LATENCY * 3.7, -0.15)
        assert best_scaled.config_id == best.config_id

    def test_empty_rejected(self):
        with pytest.raises(EmptyRecord):
            evaluate_candidates([], 100.0, -0.15)


def brute_force_frontier(points):
    keep = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i != j and q[0] <= p[0] and q[1] >= p[1] and q != p:
                dominated = True
        if not dominated:
            keep.append(p)
    return sorted(keep)


class TestParetoFrontier:
    def test_three_point_example(self):
        assert pareto_frontier([(100, 40), (120, 50), (130, 45)]) == [(100, 40), (120, 50)]

    def test_single_point(self):
        assert pareto_frontier([(5.0, 1.0)]) == [(5.0, 1.0)]

    def test_identical_points_both_survive(self):
        assert pareto_frontier([(10.0, 3.0), (10.0, 3.0)]) == [(10.0, 3.0), (10.0, 3.0)]

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            pts = [(float(lat), float(score))
                   for lat, score in zip(rng.integers(1, 50, n), rng.integers(1, 50, n))]
            assert sorted(pareto_frontier(pts)) == brute_force_frontier(pts)

    def test_sorted_by_latency(self):
        rng = np.random.default_rng(7)
        pts = [(float(v), float(s)) for v, s in rng.uniform(1, 100, size=(50, 2))]
        frontier = pareto_frontier(pts)
        assert frontier == sorted(frontier)


class TestCandidatesCsv:
    def test_round_trip(self, tmp_path):
        evaluated, _ = evaluate_candidates(table_candidates(), BASE_LATENCY, -0.15)
        path = tmp_path / "rewards.csv"
        write_candidates_csv(evaluated, path, header_comment="w=-0.15")
        back = read_candidates_csv(path)
        assert [c.config_id for c in back] == [c.config_id for c in evaluated]
        # rewards are serialized at table precision (two decimals)
        assert back[3].reward == pytest.approx(48.12, abs=0.005)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "candidates.csv"
        path.write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            read_candidates_csv(path)

    @pytest.mark.parametrize("row", ["L1,one,1.0,1.0,", "L1,1.5,1.0,1.0,", "L1,1,fast,1.0,",
                                     "L1,1,1.0,1.0,high", "L1,1,-1.0,1.0,", "L1,1,0,1.0,",
                                     "L1,1,inf,1.0,", "L1,1,1.0,-inf,"])
    def test_rejects_malformed_cell(self, tmp_path, row):
        path = tmp_path / "candidates.csv"
        path.write_text(f"config_id,depth,latency_ms,score,reward\n{row}\n", encoding="utf-8")
        with pytest.raises(InvalidConfig, match="L1"):
            read_candidates_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "candidates.csv"
        path.write_text("config_id,depth,latency_ms,score,reward\n", encoding="utf-8")
        with pytest.raises(EmptyRecord):
            read_candidates_csv(path)
