"""Block search against an independently written reference simulation, plus
threshold-sweep behaviour and depth selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2m.config import FusionBlock, SearchThresholds, validate_plan
from d2m.errors import DepthUnreachable, InvalidConfig
from d2m.search import plan_from_depth, search, threshold_sweep, write_sweep_csv
from d2m.similarity import SimilarityMatrices, build_matrices
from d2m.traceio import synth_trace


def reference_block(s_out, s_mlp, delta_norm, base, size, delta, epsilon, lam):
    """The score of block (base, size) if every offset clears both cosine bars
    and the norm tolerance, all strictly, else None. Plain lists, 1-based."""
    cells = [(base - 1, base + k - 1) for k in range(1, size + 1)]
    for row, col in cells:
        if not (s_out[row][col] > 1 - delta and s_mlp[row][col] > 1 - delta
                and delta_norm[row][col] < epsilon):
            return None
    parts = [(s_out[row][col] + s_mlp[row][col]) / 2 - lam * delta_norm[row][col]
             for row, col in cells]
    return sum(parts) / size


def reference_search(s_out, s_mlp, delta_norm, delta, epsilon, lam, sizes):
    """Deliberately independent re-simulation of the greedy block search,
    written over plain dicts and 1-based indexing throughout."""
    num_layers = len(s_out)
    scored = []
    for base in range(1, num_layers + 1):
        for size in sorted(sizes):
            if base + size > num_layers:
                continue
            score = reference_block(s_out, s_mlp, delta_norm, base, size, delta, epsilon, lam)
            if score is not None:
                scored.append({"score": score, "base": base, "size": size})
    scored.sort(key=lambda c: (-c["score"], c["base"], c["size"]))
    taken = set()
    mapping = {}
    for cand in scored:
        span = set(range(cand["base"], cand["base"] + cand["size"] + 1))
        if span & taken:
            continue
        taken |= span
        mapping[cand["base"]] = sorted(span - {cand["base"]})
    pruned = sorted(x for members in mapping.values() for x in members)
    kept = [i for i in range(1, num_layers + 1) if i not in pruned]
    return kept, pruned, mapping


def random_matrices(rng, num_layers, quantize=False):
    """Symmetric cosine-like matrices plus a non-negative norm-gap matrix."""
    def sym(raw):
        m = (raw + raw.T) / 2
        np.fill_diagonal(m, 1.0)
        return m

    s_out = sym(rng.uniform(0.5, 1.0, size=(num_layers, num_layers)))
    s_mlp = sym(rng.uniform(0.5, 1.0, size=(num_layers, num_layers)))
    gap = rng.uniform(0.0, 0.3, size=(num_layers, num_layers))
    gap = (gap + gap.T) / 2
    np.fill_diagonal(gap, 0.0)
    if quantize:
        s_out, s_mlp, gap = (np.round(m, 2) for m in (s_out, s_mlp, gap))
        np.fill_diagonal(s_out, 1.0)
        np.fill_diagonal(s_mlp, 1.0)
    return SimilarityMatrices(s_out=s_out, s_mlp=s_mlp, delta_norm=gap)


# Thresholds of the property test, and value grids that put matrix entries
# exactly on every cosine bar 1 - delta and every norm tolerance epsilon.
GRID_DELTAS = (0.0, 0.05, 0.1, 0.5)
GRID_EPSILONS = (0.0, 0.05, 0.1, 0.5)
GRID_COSINES = (1.0, 0.99, *(1.0 - d for d in GRID_DELTAS[1:]), 0.3, float("nan"))
GRID_GAPS = (*GRID_EPSILONS, 0.02, float("nan"))


@st.composite
def grid_matrices(draw):
    num_layers = draw(st.integers(1, 7))

    def symmetric(grid):
        # a few values per matrix make equal scores common, which exercises
        # the base, then size tie-break
        palette = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3, unique=True))
        cells = num_layers * num_layers
        values = draw(st.lists(st.sampled_from(palette), min_size=cells, max_size=cells))
        m = np.array(values).reshape(num_layers, num_layers)
        return np.triu(m) + np.triu(m, 1).T

    return SimilarityMatrices(s_out=symmetric(GRID_COSINES), s_mlp=symmetric(GRID_COSINES),
                              delta_norm=symmetric(GRID_GAPS))


def as_reference(plan):
    return (list(plan.keep_layers), sorted(plan.prune_layers),
            {b.base: list(b.redundant) for b in plan.blocks})


def block_score(mats, base, size, delta, epsilon, lam=1.0):
    """``reference_block`` over SimilarityMatrices."""
    return reference_block(mats.s_out.tolist(), mats.s_mlp.tolist(), mats.delta_norm.tolist(),
                           base, size, delta, epsilon, lam)


def accepted(mats, base, size, delta, epsilon):
    """Whether the sweep, offered blocks of this one size, accepts (base, size)."""
    plan = threshold_sweep(mats, [delta], [epsilon], block_sizes=(size,))[0].plan
    return FusionBlock(base, tuple(range(base + 1, base + size + 1))) in plan.blocks


class TestBlockPredicates:
    def matrices(self):
        return build_matrices(synth_trace(5, 6, 8, [(2, 1, 0.0)], seed=1))

    def test_exact_duplicate_block_valid(self):
        mats = self.matrices()
        for bar in (0.01, 0.5):
            assert block_score(mats, 2, 1, bar, bar) is not None
            assert accepted(mats, 2, 1, bar, bar)

    def test_zero_delta_never_valid(self):
        mats = self.matrices()
        assert block_score(mats, 2, 1, 0.0, 0.5) is None
        assert threshold_sweep(mats, [0.0], [0.5])[0].plan.blocks == ()

    def test_threshold_arithmetic(self):
        base = np.eye(3)
        s = base.copy()
        s[0, 1] = s[1, 0] = 0.97
        np.fill_diagonal(s, 1.0)
        mats = SimilarityMatrices(s_out=s, s_mlp=s.copy(), delta_norm=np.zeros((3, 3)))
        assert block_score(mats, 1, 1, 0.02, 0.5) is None
        assert not accepted(mats, 1, 1, 0.02, 0.5)
        assert block_score(mats, 1, 1, 0.05, 0.5) is not None
        assert accepted(mats, 1, 1, 0.05, 0.5)

    def test_perfect_duplicate_scores_one(self):
        mats = self.matrices()
        assert block_score(mats, 2, 1, 0.5, 0.5, lam=7.3) == pytest.approx(1.0, abs=1e-9)

    def test_score_arithmetic(self):
        s = np.eye(2)
        s[0, 1] = s[1, 0] = 0.9
        gap = np.zeros((2, 2))
        gap[0, 1] = gap[1, 0] = 0.1
        mats = SimilarityMatrices(s_out=s, s_mlp=s.copy(), delta_norm=gap)
        assert block_score(mats, 1, 1, 0.5, 0.5) == pytest.approx(0.8, abs=1e-12)
        # search agrees: block (1, 1) scores 0.8, so a rival (2, 1) that
        # overlaps it at layer 2 wins just above that score and loses just below
        for rival, winner in ((0.8 + 1e-9, 2), (0.8 - 1e-9, 1)):
            s3 = np.eye(3)
            s3[0, 1] = s3[1, 0] = 0.9
            s3[1, 2] = s3[2, 1] = rival
            gap3 = np.zeros((3, 3))
            gap3[0, 1] = gap3[1, 0] = 0.1
            plan = search(SimilarityMatrices(s_out=s3, s_mlp=s3.copy(), delta_norm=gap3),
                          SearchThresholds(cos_threshold=0.5, norm_tolerance=0.5,
                                           block_sizes=(1,)))
            assert [b.base for b in plan.blocks] == [winner]

    def test_score_matches_hand_sum(self):
        rng = np.random.default_rng(9)
        mats = random_matrices(rng, 6)
        lam = 0.7
        expected = np.mean([
            (mats.s_out[1, 1 + k] + mats.s_mlp[1, 1 + k]) / 2 - lam * mats.delta_norm[1, 1 + k]
            for k in range(1, 4)
        ])
        assert block_score(mats, 2, 3, 1.0, 1.0, lam) == pytest.approx(expected, abs=1e-12)


class TestSearch:
    def test_nothing_similar_empty_plan(self):
        mats = build_matrices(synth_trace(5, 6, 8, seed=3))
        plan = search(mats, SearchThresholds(cos_threshold=1e-6, norm_tolerance=1e-6))
        assert plan.prune_layers == frozenset()
        assert plan.keep_layers == (1, 2, 3, 4, 5)
        assert plan.blocks == ()

    def test_greedy_occupancy_blocks_lower_scored_overlap(self):
        # blocks (1,1) at 0.95 and (2,1) at 0.99: the higher-scored (2,1) wins
        # and occupies layers 2..3, so (1,1) is rejected because layer 2 is its
        # redundant member
        s = np.eye(4)
        s[0, 1] = s[1, 0] = 0.95
        s[1, 2] = s[2, 1] = 0.99
        mats = SimilarityMatrices(s_out=s, s_mlp=s.copy(), delta_norm=np.zeros((4, 4)))
        plan = search(mats, SearchThresholds(cos_threshold=0.2, norm_tolerance=0.1,
                                             block_sizes=(1,)))
        assert plan.prune_layers == frozenset({3})
        assert plan.keep_layers == (1, 2, 4)
        assert plan.blocks == (FusionBlock(base=2, redundant=(3,)),)

    def test_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            num_layers = int(rng.integers(2, 11))
            mats = random_matrices(rng, num_layers, quantize=trial % 4 == 0)
            delta = float(rng.uniform(0.05, 0.5))
            epsilon = float(rng.uniform(0.02, 0.3))
            lam = float(rng.choice([0.0, 0.5, 1.0]))
            plan = search(mats, SearchThresholds(cos_threshold=delta, norm_tolerance=epsilon,
                                                 score_penalty=lam))
            kept, pruned, mapping = reference_search(
                mats.s_out.tolist(), mats.s_mlp.tolist(), mats.delta_norm.tolist(),
                delta, epsilon, lam, (1, 2, 3))
            assert list(plan.keep_layers) == kept
            assert sorted(plan.prune_layers) == pruned
            assert {b.base: list(b.redundant) for b in plan.blocks} == mapping
            validate_plan(plan, num_layers)

    @settings(max_examples=300)
    @given(mats=grid_matrices(), lam=st.sampled_from((0.0, 0.5, 1.0, 2.0)),
           sizes=st.sets(st.integers(1, 4), min_size=1))
    def test_search_and_sweep_equal_reference_at_bars_and_nan(self, mats, lam, sizes):
        lists = (mats.s_out.tolist(), mats.s_mlp.tolist(), mats.delta_norm.tolist())
        cells = threshold_sweep(mats, GRID_DELTAS, GRID_EPSILONS, score_penalty=lam,
                                block_sizes=tuple(sizes))
        assert [(c.cos_threshold, c.norm_tolerance) for c in cells] == \
            [(d, e) for d in GRID_DELTAS for e in GRID_EPSILONS]
        for cell in cells:
            expected = reference_search(*lists, cell.cos_threshold, cell.norm_tolerance,
                                        lam, sizes)
            assert as_reference(cell.plan) == expected
            assert cell.pruned_count == len(expected[1])
            if 0.0 < cell.cos_threshold and 0.0 < cell.norm_tolerance:
                plan = search(mats, SearchThresholds(
                    cos_threshold=cell.cos_threshold, norm_tolerance=cell.norm_tolerance,
                    score_penalty=lam, block_sizes=tuple(sorted(sizes))))
                assert plan == cell.plan

    def test_accepted_blocks_are_valid_and_replay_consistent(self):
        rng = np.random.default_rng(77)
        mats = random_matrices(rng, 9)
        th = SearchThresholds(cos_threshold=0.3, norm_tolerance=0.2)
        plan = search(mats, th)

        def score(base, size):
            return block_score(mats, base, size, th.cos_threshold, th.norm_tolerance,
                               th.score_penalty)

        for block in plan.blocks:
            assert score(block.base, len(block.redundant)) is not None
        # replaying acceptance in score order against the final occupancy
        # reproduces exactly the accepted block set
        occupied = set()
        for block in plan.blocks:
            occupied |= {block.base, *block.redundant}
        accepted = set()
        candidates = []
        for base in range(1, 10):
            for size in (1, 2, 3):
                if base + size <= 9 and score(base, size) is not None:
                    candidates.append((score(base, size), base, size))
        taken = set()
        for score, base, size in sorted(candidates, key=lambda c: (-c[0], c[1], c[2])):
            span = set(range(base, base + size + 1))
            if not span & taken:
                taken |= span
                accepted.add((base, size))
        assert accepted == {(b.base, len(b.redundant)) for b in plan.blocks}

    def test_determinism(self):
        rng = np.random.default_rng(31)
        mats = random_matrices(rng, 8, quantize=True)
        th = SearchThresholds(cos_threshold=0.4, norm_tolerance=0.25)
        assert search(mats, th) == search(mats, th)


class TestThresholdSweep:
    def fixture_matrices(self):
        trace = synth_trace(
            8, 32, 16,
            [(2, 1, 0.01), (5, 1, 0.05), (5, 2, 0.03)],
            seed=13,
        )
        return build_matrices(trace)

    def test_zero_delta_prunes_nothing(self):
        cells = threshold_sweep(self.fixture_matrices(), [0.0], [0.1])
        assert cells[0].pruned_count == 0

    @pytest.mark.parametrize("penalty", [-1.0, float("nan"), float("inf")])
    def test_score_penalty_checked_like_search(self, penalty):
        with pytest.raises(InvalidConfig, match="score_penalty"):
            threshold_sweep(self.fixture_matrices(), [0.05], [0.1], score_penalty=penalty)

    @settings(max_examples=80)
    @given(penalty=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0]),
                             st.floats(-4, 4)),
           sizes=st.lists(st.one_of(st.integers(-2, 4), st.sampled_from([2.0, 1.0, True, False])),
                          max_size=4).map(tuple))
    def test_search_and_sweep_agree_on_every_knob(self, penalty, sizes):
        mats = self.fixture_matrices()
        outcomes = []
        for run in (lambda: search(mats, SearchThresholds(0.05, 0.1, penalty, sizes)),
                    lambda: threshold_sweep(mats, [0.05], [0.1], penalty, sizes)[0].plan):
            try:
                outcomes.append(run())
            except InvalidConfig as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        counts = all(type(n) is int and n >= 1 for n in sizes)
        valid = math.isfinite(penalty) and penalty >= 0 and sizes and counts
        assert isinstance(outcomes[0], str) != bool(valid), outcomes[0]

    @pytest.mark.parametrize("cos_grid, norm_grid", [([], [0.1]), ([0.05], [])])
    def test_empty_grid_rejected(self, cos_grid, norm_grid):
        name = "cos_grid" if not cos_grid else "norm_grid"
        with pytest.raises(InvalidConfig,
                           match=rf"^{name} must be a non-empty list of finite values, got \[\]$"):
            threshold_sweep(self.fixture_matrices(), cos_grid, norm_grid)

    def test_candidate_count_monotone_in_thresholds(self):
        mats = self.fixture_matrices()
        deltas = [1e-5, 1e-4, 1e-3, 1e-2, 0.1]
        epsilons = [1e-4, 1e-3, 1e-2, 0.1]

        def count_valid(d, e):
            total = 0
            for base in range(1, 9):
                for size in (1, 2, 3):
                    if base + size <= 8 and block_score(mats, base, size, d, e) is not None:
                        total += 1
            return total

        counts = {(d, e): count_valid(d, e) for d in deltas for e in epsilons}
        for d_lo, d_hi in zip(deltas, deltas[1:]):
            for e in epsilons:
                assert counts[(d_lo, e)] <= counts[(d_hi, e)]
        for e_lo, e_hi in zip(epsilons, epsilons[1:]):
            for d in deltas:
                assert counts[(d, e_lo)] <= counts[(d, e_hi)]

    def test_pruned_count_monotone_on_fixture(self):
        mats = self.fixture_matrices()
        deltas = [1e-5, 1e-4, 1e-3, 1e-2, 0.1]
        epsilons = [1e-4, 1e-3, 1e-2, 0.1]
        cells = threshold_sweep(mats, deltas, epsilons)
        grid = {(c.cos_threshold, c.norm_tolerance): c.pruned_count for c in cells}
        for d_lo, d_hi in zip(deltas, deltas[1:]):
            for e in epsilons:
                assert grid[(d_lo, e)] <= grid[(d_hi, e)]
        for e_lo, e_hi in zip(epsilons, epsilons[1:]):
            for d in deltas:
                assert grid[(d, e_lo)] <= grid[(d, e_hi)]

    def test_sweep_csv(self, tmp_path):
        cells = threshold_sweep(self.fixture_matrices(), [0.001, 0.01], [0.01])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(cells, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "delta,epsilon,pruned_count"
        assert len(lines) == 3


class TestQwenLikeFixtureRegression:
    """A 24-layer synthetic trace with three planted redundancy clusters;
    sweep grid and depth selection pinned from the first run."""

    DELTAS = [1e-5, 1e-4, 5e-4, 2e-3, 1e-2]
    EPSILONS = [1e-3, 5e-3, 2e-2, 1e-1]
    # rows follow DELTAS, columns EPSILONS
    PINNED_GRID = [
        [1, 1, 1, 1],
        [3, 3, 3, 3],
        [3, 5, 5, 5],
        [3, 6, 6, 6],
        [3, 6, 6, 6],
    ]

    def matrices(self):
        trace = synth_trace(
            24, 128, 64,
            [(5, 1, 0.04), (10, 1, 0.02), (10, 2, 0.01),
             (17, 1, 0.006), (17, 2, 0.003), (17, 3, 0.0015)],
            seed=40,
        )
        return build_matrices(trace)

    def test_sweep_grid_matches_pinned_values(self):
        cells = threshold_sweep(self.matrices(), self.DELTAS, self.EPSILONS)
        grid = {(c.cos_threshold, c.norm_tolerance): c.pruned_count for c in cells}
        for i, d in enumerate(self.DELTAS):
            for j, e in enumerate(self.EPSILONS):
                assert grid[(d, e)] == self.PINNED_GRID[i][j], (d, e)

    def test_sweep_monotone_on_fixture(self):
        for row_lo, row_hi in zip(self.PINNED_GRID, self.PINNED_GRID[1:]):
            assert all(a <= b for a, b in zip(row_lo, row_hi))
        for row in self.PINNED_GRID:
            assert all(a <= b for a, b in zip(row, row[1:]))

    def test_depth_19_of_24_pinned_cell(self):
        cells = threshold_sweep(self.matrices(), self.DELTAS, self.EPSILONS)
        delta, epsilon, plan = plan_from_depth(cells, target_kept=19)
        assert (delta, epsilon) == (5e-4, 5e-3)
        assert sorted(plan.prune_layers) == [11, 12, 18, 19, 20]
        assert len(plan.keep_layers) == 19


class TestPlanFromDepth:
    def test_full_depth_needs_smallest_delta(self):
        mats = build_matrices(synth_trace(6, 16, 12, [(3, 1, 0.02)], seed=21))
        cells = threshold_sweep(mats, [1e-6, 1e-3, 0.1], [0.05])
        delta, epsilon, plan = plan_from_depth(cells, target_kept=6)
        assert delta == 1e-6
        assert plan.prune_layers == frozenset()

    def test_target_reachable_cell(self):
        mats = build_matrices(synth_trace(6, 16, 12, [(3, 1, 0.02)], seed=21))
        cells = threshold_sweep(mats, [1e-6, 1e-2, 0.1], [0.05])
        delta, epsilon, plan = plan_from_depth(cells, target_kept=5)
        assert len(plan.keep_layers) == 5
        assert delta == 1e-2  # smallest delta achieving the target

    def test_unreachable_depth(self):
        mats = build_matrices(synth_trace(4, 8, 8, seed=22))
        cells = threshold_sweep(mats, [1e-4], [1e-3])
        with pytest.raises(DepthUnreachable):
            plan_from_depth(cells, target_kept=1)
