"""Reward arithmetic on the published candidate table, exponent calibration,
argmax selection, and Pareto filtering against a brute-force filter."""

import math
import re
import tempfile
from pathlib import Path

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

    @pytest.mark.parametrize("base, exponent, error, message", [
        (math.nan, -0.15, NonPositiveLatency, "base_latency_ms must be finite and positive"),
        (math.inf, -0.15, NonPositiveLatency, "base_latency_ms must be finite and positive"),
        (0.0, -0.15, NonPositiveLatency, "base_latency_ms must be finite and positive"),
        (100.0, math.nan, InvalidConfig, "exponent must be finite"),
        (100.0, -math.inf, InvalidConfig, "exponent must be finite"),
    ], ids=["base-nan", "base-inf", "base-0", "exponent-nan", "exponent-minus-inf"])
    def test_a_bad_knob_is_named_before_any_candidate(self, base, exponent, error, message):
        # the knob's own rule, as ``reward`` refuses it, not the first candidate's
        with pytest.raises(error, match=f"^{message}, got ") as refusal:
            evaluate_candidates(table_candidates(), base, exponent)
        with pytest.raises(error) as direct:
            reward(1.0, 1.0, base, exponent)
        assert str(refusal.value) == str(direct.value)

    def test_empty_frontier_rejected(self):
        with pytest.raises(EmptyRecord, match="^pareto_frontier needs at least one candidate$"):
            pareto_frontier([])


def candidates_at(points):
    """One candidate per (latency, score) point, named by its position."""
    return [CandidateEvaluation(f"c{i}", 1, float(lat), float(score))
            for i, (lat, score) in enumerate(points)]


def cells(candidates):
    return [(c.latency_ms, c.score) for c in candidates]


def brute_force_frontier(candidates):
    keep = []
    for p in candidates:
        dominated = False
        for q in candidates:
            if (q.latency_ms <= p.latency_ms and q.score >= p.score
                    and (q.latency_ms, q.score) != (p.latency_ms, p.score)):
                dominated = True
        if not dominated:
            keep.append(p)
    return sorted(keep, key=lambda c: (c.latency_ms, c.config_id))


# few values, so latencies, scores, ids and whole candidates repeat
REPEATING_CANDIDATES = st.lists(st.builds(
    CandidateEvaluation, config_id=st.sampled_from("abc"), retained_depth=st.integers(1, 3),
    latency_ms=st.sampled_from([1.0, 2.0, 3.0, 4.0]),
    score=st.sampled_from([-1.0, 0.0, 0.5, 2.0])), min_size=1, max_size=12)


class TestParetoFrontier:
    def test_three_point_example(self):
        frontier = pareto_frontier(candidates_at([(100, 40), (120, 50), (130, 45)]))
        assert cells(frontier) == [(100, 40), (120, 50)]

    def test_single_point(self):
        only = candidates_at([(5.0, 1.0)])
        assert pareto_frontier(only) == only

    def test_identical_points_both_survive(self):
        a, b = candidates_at([(10.0, 3.0), (10.0, 3.0)])
        assert pareto_frontier([b, a]) == [a, b]
        assert pareto_frontier([a, a]) == [a, a]

    @given(candidates=REPEATING_CANDIDATES.flatmap(
        lambda cs: st.lists(st.sampled_from(cs), max_size=4).map(lambda extra: cs + extra)))
    def test_matches_brute_force_on_random_inputs(self, candidates):
        assert pareto_frontier(candidates) == brute_force_frontier(candidates)

    def test_sorted_by_latency(self):
        rng = np.random.default_rng(7)
        frontier = pareto_frontier(candidates_at(rng.uniform(1, 100, size=(50, 2))))
        assert frontier == sorted(frontier, key=lambda c: (c.latency_ms, c.config_id))


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
        # a latency that parses but is not finite and positive is refused as
        # the reward refuses it; any other bad cell as a malformed row
        bad_latency = row in ("L1,1,-1.0,1.0,", "L1,1,0,1.0,", "L1,1,inf,1.0,")
        with pytest.raises(NonPositiveLatency if bad_latency else InvalidConfig,
                           match=f"^{re.escape(str(path))}: .*L1"):
            read_candidates_csv(path)

    @given(latency=st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
           | st.floats(-1e6, 1e6),
           score=st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-1e6, 1e6))
    def test_one_refusal_per_bad_cell(self, latency, score):
        """The reader, the evaluation and the reward accept the same cells,
        and refuse the others with one class and one message, after the
        file's and the candidate's prefixes. Finite cells stay within 1e6,
        so no accepted cell's reward leaves float range."""
        def refusal(call, prefix):
            try:
                call()
            except D2mError as exc:
                assert str(exc).startswith(prefix), exc
                return type(exc), str(exc)[len(prefix):]
            return None

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "candidates.csv"
            path.write_text(f"config_id,depth,latency_ms,score,reward\n"
                            f"L1,1,{latency!r},{score!r},\n", encoding="utf-8")
            read = refusal(lambda: read_candidates_csv(path), f"{path}: candidate L1: ")
        evaluated = refusal(lambda: evaluate_candidates(
            [CandidateEvaluation("L1", 1, latency, score)], 1.0, -0.15), "candidate L1: ")
        assert read == evaluated == refusal(lambda: reward(score, latency, 1.0, -0.15), "")

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "candidates.csv"
        path.write_text("config_id,depth,latency_ms,score,reward\n", encoding="utf-8")
        with pytest.raises(EmptyRecord):
            read_candidates_csv(path)
