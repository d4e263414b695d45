import numpy as np
import pytest

from probo.errors import ConfigError, ProboError
from probo.optimizer import BoxBounds, FocusSearchConfig, focus_search, latin_hypercube

UNIT = BoxBounds(lower=[0.0], upper=[1.0])
UNIT2 = BoxBounds(lower=[0.0, 0.0], upper=[1.0, 1.0])


def inside(bounds, x):
    """Whether point x lies in the closed box."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return bool(np.all(x >= bounds.lower) and np.all(x <= bounds.upper))


def sq_dist_to(target):
    target = np.asarray(target)

    def objective(P):
        return np.sum((P - target) ** 2, axis=1)

    return objective


def one_round(objective, bounds, n_evals, seed):
    """Focus search with one round and one restart: a plain random search."""
    return focus_search(objective, bounds,
                        FocusSearchConfig(evals_per_round=n_evals, rounds=1, restarts=1), seed)


def random_search(objective, bounds, n_evals, seed):
    """Reference random search: best of n_evals uniform draws."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(bounds.lower, bounds.upper, size=(n_evals, bounds.dimension))
    scores = objective(pts)
    i = int(np.argmin(scores))
    return pts[i], float(scores[i])


# ------------------------------------------------------------------ bounds

@pytest.mark.parametrize("lower, upper", [([-np.inf], [1.0]), ([0.0], [np.inf]),
                                          ([-np.inf], [np.inf]), ([0.0, 0.0], [1.0, np.inf])])
def test_bounds_must_be_finite(lower, upper):
    with pytest.raises(ValueError, match="bounds must be finite"):
        BoxBounds(lower=lower, upper=upper)


def test_bounds_validation():
    with pytest.raises(ValueError):
        BoxBounds(lower=[0.0], upper=[0.0])
    with pytest.raises(ValueError):
        BoxBounds(lower=[0.0, 1.0], upper=[1.0])
    b = BoxBounds(lower=[-1.0, 0.0], upper=[1.0, 2.0])
    assert b.dimension == 2
    assert inside(b, [0.0, 1.0])
    assert not inside(b, [0.0, 3.0])


@pytest.mark.parametrize("lower, upper", [([-1e308], [1e308]), ([0.0, -1e308], [1.0, 1e308]),
                                          ([-np.finfo(float).max], [np.finfo(float).max])])
def test_bounds_whose_span_overflows_are_rejected(lower, upper):
    with pytest.raises(ValueError, match="span overflows") as err:
        BoxBounds(lower=lower, upper=upper)
    assert f"{np.asarray(lower, dtype=float)} / {np.asarray(upper, dtype=float)}" in str(err.value)


def test_widest_finite_span_is_accepted():
    b = BoxBounds(lower=[-8e307], upper=[8e307])
    assert np.isfinite(b.span).all()


def test_clip_matches_np_clip():
    b = BoxBounds(lower=[-1.0, 0.0, 2.0], upper=[1.0, 0.5, 3.0])
    X = np.random.default_rng(0).normal(0.0, 3.0, size=(500, 3))
    X[0] = b.lower
    X[1] = b.upper
    assert np.array_equal(b.clip(X), np.clip(X, b.lower, b.upper))
    assert np.array_equal(b.clip(X[7]), np.clip(X[7], b.lower, b.upper))


def test_focus_config_validation():
    with pytest.raises(ValueError):
        FocusSearchConfig(evals_per_round=0)
    with pytest.raises(ValueError):
        FocusSearchConfig(shrink_factor=1.0)
    cfg = FocusSearchConfig()
    assert cfg.evals_per_round == 1000
    assert cfg.restarts == 5


# --------------------------------------------------------------------- lhs

def test_lhs_single_point_inside_bounds():
    b = BoxBounds(lower=[-2.0, 3.0], upper=[-1.0, 5.0])
    pts = latin_hypercube(1, b, seed=0)
    assert pts.shape == (1, 2)
    assert inside(b, pts[0])


@pytest.mark.parametrize("n", [5, 10, 50])
def test_lhs_stratification_every_dimension(n):
    b = BoxBounds(lower=[0.0, -1.0], upper=[1.0, 1.0])
    pts = latin_hypercube(n, b, seed=1)
    for j in range(2):
        unit = (pts[:, j] - b.lower[j]) / (b.upper[j] - b.lower[j])
        strata = np.floor(unit * n).astype(int)
        assert sorted(strata) == list(range(n))


@pytest.mark.parametrize("n, named", [(1.5, "an integer"), (True, "an integer"),
                                      ("3", "an integer"), (None, "an integer"),
                                      (0, "positive"), (-2, "positive")])
def test_lhs_size_must_be_a_positive_integer(n, named):
    with pytest.raises(ConfigError, match=f"n must be {named}"):
        latin_hypercube(n, UNIT2)


def test_lhs_deterministic_under_seed():
    a = latin_hypercube(10, UNIT2, seed=42)
    b = latin_hypercube(10, UNIT2, seed=42)
    assert np.array_equal(a, b)
    c = latin_hypercube(10, UNIT2, seed=43)
    assert not np.array_equal(a, c)


# ------------------------------------------------- one-round focus search

def test_random_search_single_eval_returns_that_point():
    point, score = one_round(sq_dist_to([0.5]), UNIT, n_evals=1, seed=2)
    rng = np.random.default_rng(2)
    expected = rng.uniform(UNIT.lower, UNIT.upper, size=(1, 1))[0]
    assert np.array_equal(point, expected)
    assert score == pytest.approx(float((expected[0] - 0.5) ** 2))


def test_random_search_improves_with_budget():
    # same seed draws the same prefix, so more evaluations cannot hurt
    scores = [one_round(sq_dist_to([0.3]), UNIT, n, seed=3)[1]
              for n in (1, 10, 100, 1000)]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_random_search_constant_objective():
    point, score = one_round(lambda P: np.full(len(P), 4.2), UNIT2, 25, seed=4)
    assert score == 4.2
    assert inside(UNIT2, point)


def test_random_search_all_nonfinite_errors():
    with pytest.raises(ProboError):
        one_round(lambda P: np.full(len(P), np.nan), UNIT, 10, seed=5)


def test_random_search_ignores_partial_nonfinite():
    def holey(P):
        s = np.sum(P**2, axis=1)
        return np.where(P[:, 0] > 0.5, np.nan, s)

    point, score = one_round(holey, UNIT, 200, seed=6)
    assert point[0] <= 0.5
    assert np.isfinite(score)


# ------------------------------------------------------------- incumbents

def masked_best_of(scores):
    """Index of the smallest finite score through a mask, or None."""
    finite = np.isfinite(scores)
    if not finite.any():
        return None
    return int(np.argmin(np.where(finite, scores, np.inf)))


def scripted(scores):
    """An objective that returns these scores, whatever the points."""
    scores = np.asarray(scores, dtype=float)
    return lambda P: scores.copy()


@pytest.mark.parametrize("scores, expected", [
    ([3.0, 1.0, 2.0], 1),
    ([1.0, 0.0, 0.0, -0.0, 5.0], 1),  # ties and signed zeros: the first
    ([2.0, 2.0, 2.0], 0),
    ([np.nan, 4.0, 3.0, np.nan], 2),
    ([np.inf, 4.0, -np.inf, 4.0], 1),
    ([-np.inf, np.nan, 7.0], 2),
    ([np.nan, np.inf, -np.inf], None),
    ([np.nan], None),
    ([-1e308, -np.inf], 0),
])
def test_best_of(scores, expected):
    # one round of two restarts, the first all NaN: the search returns the
    # second restart's point of the smallest finite score, the first of ties
    m = len(scores)
    cfg = FocusSearchConfig(evals_per_round=m, rounds=1, restarts=2)
    objective = scripted([np.nan] * m + scores)
    assert masked_best_of(np.asarray(scores)) == expected
    if expected is None:
        with pytest.raises(ProboError, match="non-finite scores at every point"):
            focus_search(objective, UNIT, cfg, seed=0)
        return
    point, score = focus_search(objective, UNIT, cfg, seed=0)
    drawn = np.random.default_rng(0).random((2, m, 1))
    assert np.array_equal(point, drawn[1, expected]) and score == scores[expected]


def test_best_of_matches_the_masked_index():
    # over one round, the pick is the masked index in (restart, point) order
    rng = np.random.default_rng(13)
    for seed in range(300):
        restarts, m = int(rng.integers(1, 4)), int(rng.integers(1, 15))
        scores = rng.integers(-3, 4, size=restarts * m).astype(float)
        holes = rng.random(len(scores))
        scores[holes < 0.1] = np.nan
        scores[(holes >= 0.1) & (holes < 0.15)] = -np.inf
        scores[(holes >= 0.15) & (holes < 0.2)] = np.inf
        expected = masked_best_of(scores)
        if expected is None:
            continue
        cfg = FocusSearchConfig(evals_per_round=m, rounds=1, restarts=restarts)
        point, score = focus_search(scripted(scores), UNIT2, cfg, seed=seed)
        drawn = np.random.default_rng(seed).random((restarts * m, 2))
        assert np.array_equal(point, drawn[expected]) and score == scores[expected]


# ------------------------------------------------------------- focus search

def looped_focus_search(objective, bounds, config, rng):
    """The focus search rule as a loop over restarts: per round one
    rng.random((restarts, evals_per_round, d)) draw scaled to each restart's
    box, one objective call on all the points in restart order, and each
    restart recentred on its own round's best finite point, or left as it is
    if it has none.  The reference for focus_search's bits."""
    R, m, d = config.restarts, config.evals_per_round, bounds.dimension
    boxes = [(bounds.lower, bounds.upper)] * R
    best_point, best_score = None, np.inf
    for _ in range(config.rounds):
        draw = rng.random((R, m, d))
        pts = [lo + (hi - lo) * draw[r] for r, (lo, hi) in enumerate(boxes)]
        scores = np.asarray(objective(np.concatenate(pts)), dtype=float).reshape(R, m)
        for r, (lo, hi) in enumerate(boxes):
            idx = masked_best_of(scores[r])
            if idx is None:
                continue
            best = pts[r][idx]
            if scores[r, idx] < best_score:
                best_point, best_score = best.copy(), float(scores[r, idx])
            half = 0.5 * config.shrink_factor * (hi - lo)
            boxes[r] = (np.clip(best - half, bounds.lower, bounds.upper),
                        np.clip(best + half, bounds.lower, bounds.upper))
    return best_point, best_score


def holey_objective(target, seen):
    """Squared distance to target, recording every batch; the first batch is
    all NaN, and the next three hold NaN and -inf holes."""
    def objective(P):
        seen.append(P.copy())
        s = np.sum((P - target) ** 2, axis=1)
        if len(seen) == 1:
            return np.full(len(P), np.nan)
        if len(seen) <= 4:
            s[::3] = np.nan
            s[1::7] = -np.inf
        return s
    return objective


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("shrink_factor", [0.5, 0.3])
def test_focus_search_keeps_the_bits_of_the_uniform_draw(d, shrink_factor):
    rng = np.random.default_rng(100 + d)
    lower = rng.uniform(-50.0, 50.0, size=d)
    bounds = BoxBounds(lower=lower, upper=lower + 10.0 ** rng.uniform(-3, 3, size=d))
    target = rng.uniform(bounds.lower, bounds.upper)
    cfg = FocusSearchConfig(evals_per_round=97, rounds=5, restarts=3,
                            shrink_factor=shrink_factor)
    seen, ref_seen = [], []
    gen, ref_gen = np.random.default_rng(d), np.random.default_rng(d)
    point, score = focus_search(holey_objective(target, seen), bounds, cfg, gen)
    ref_point, ref_score = looped_focus_search(holey_objective(target, ref_seen),
                                               bounds, cfg, ref_gen)
    assert len(seen) == len(ref_seen) == 5
    assert all(np.array_equal(a, b) for a, b in zip(seen, ref_seen))
    assert np.array_equal(point, ref_point) and score == ref_score
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_focus_search_scales_each_round_into_its_restarts_boxes(d):
    # the default 5 x 1,000 points a round; round 1 has the bits of numpy's
    # broadcast scaling of the same draw, and each later round's points lie
    # in their restart's box, recentred on that restart's best point
    rng = np.random.default_rng(200 + d)
    lower = rng.uniform(-50.0, 50.0, size=d)
    bounds = BoxBounds(lower=lower, upper=lower + 10.0 ** rng.uniform(-3, 3, size=d))
    target = rng.uniform(bounds.lower, bounds.upper)
    seen = []
    cfg = FocusSearchConfig()
    focus_search(lambda P: seen.append(P.copy()) or np.sum((P - target) ** 2, axis=1),
                 bounds, cfg, seed=d)
    R, m = cfg.restarts, cfg.evals_per_round
    first = bounds.lower + np.random.default_rng(d).random((R, m, d)) * bounds.span
    assert seen[0].tobytes() == first.reshape(R * m, d).tobytes()
    lo = np.broadcast_to(bounds.lower, (R, d))
    hi = np.broadcast_to(bounds.upper, (R, d))
    for batch in seen:
        pts = batch.reshape(R, m, d)
        assert np.all((pts >= lo[:, None]) & (pts <= hi[:, None]))
        best = pts[np.arange(R), np.sum((pts - target) ** 2, axis=2).argmin(axis=1)]
        half = 0.5 * cfg.shrink_factor * (hi - lo)
        lo, hi = bounds.clip(best - half), bounds.clip(best + half)


def test_focus_search_scores_one_batch_per_round():
    shapes = []

    def recording(P):
        shapes.append(P.shape)
        return np.sum(P**2, axis=1)

    cfg = FocusSearchConfig(evals_per_round=30, rounds=4, restarts=3)
    focus_search(recording, UNIT2, cfg, seed=0)
    assert shapes == [(cfg.restarts * cfg.evals_per_round, 2)] * cfg.rounds


def test_focus_search_restarts_are_independent():
    # each restart searched alone, from its slice of every round's draw and a
    # pointwise objective with holes, draws the points the search drew for it
    bounds = BoxBounds(lower=[-2.0, 1.0], upper=[3.0, 1.5])
    target = np.array([0.7, 1.2])

    def pointwise(P):
        s = np.sum((P - target) ** 2, axis=1)
        return np.where(np.sin(40.0 * P[:, 0]) > 0.7, np.nan, s)

    seen = []
    cfg = FocusSearchConfig(evals_per_round=25, rounds=5, restarts=4, shrink_factor=0.4)
    focus_search(lambda P: seen.append(P.copy()) or pointwise(P), bounds, cfg, seed=21)
    rng = np.random.default_rng(21)
    draws = [rng.random((cfg.restarts, cfg.evals_per_round, 2)) for _ in range(cfg.rounds)]
    m = cfg.evals_per_round
    finals = set()
    for r in range(cfg.restarts):
        lo, hi = bounds.lower, bounds.upper
        for batch, draw in zip(seen, draws):
            pts = lo + (hi - lo) * draw[r]
            assert np.array_equal(batch[r * m:(r + 1) * m], pts)
            best = pts[masked_best_of(pointwise(pts))]
            half = 0.5 * cfg.shrink_factor * (hi - lo)
            lo = np.clip(best - half, bounds.lower, bounds.upper)
            hi = np.clip(best + half, bounds.lower, bounds.upper)
        finals.add((tuple(lo), tuple(hi)))
    assert len(finals) == cfg.restarts  # the restarts end in boxes of their own


def test_focus_search_keeps_the_box_of_a_restart_without_finite_scores():
    # round 1: restart 0 all NaN, restart 1 has -inf and NaN holes; round 2
    # draws restart 0 from the full box again and restart 1 from a shrunk one
    seen = []
    m = 20

    def objective(P):
        seen.append(P.copy())
        s = np.sum((P - 0.3) ** 2, axis=1)
        if len(seen) == 1:
            s[:m] = np.nan
            s[m::2] = -np.inf
            s[m + 1::4] = np.nan
        return s

    cfg = FocusSearchConfig(evals_per_round=m, rounds=2, restarts=2)
    focus_search(objective, UNIT, cfg, seed=3)
    rng = np.random.default_rng(3)
    first, second = rng.random((2, m, 1)), rng.random((2, m, 1))
    assert np.array_equal(seen[1][:m], second[0])
    scores = np.sum((first[1] - 0.3) ** 2, axis=1)
    scores[::2] = -np.inf
    scores[1::4] = np.nan
    best = first[1][masked_best_of(scores)]
    lo, hi = np.clip(best - 0.25, 0.0, 1.0), np.clip(best + 0.25, 0.0, 1.0)
    assert np.array_equal(seen[1][m:], lo + (hi - lo) * second[1])


def test_focus_search_needs_one_finite_score_in_any_restart():
    cfg = FocusSearchConfig(evals_per_round=10, rounds=3, restarts=3)
    with pytest.raises(ProboError, match="non-finite scores at every point"):
        focus_search(lambda P: np.full(len(P), -np.inf), UNIT2, cfg, seed=1)
    # one finite score, in the last restart of the last round, is the result
    calls = []

    def last_only(P):
        calls.append(None)
        s = np.full(len(P), np.nan)
        if len(calls) == cfg.rounds:
            s[-1] = 2.5
        return s

    point, score = focus_search(last_only, UNIT2, cfg, seed=1)
    rng = np.random.default_rng(1)
    for _ in range(cfg.rounds):
        drawn = rng.random((cfg.restarts, cfg.evals_per_round, 2))
    assert score == 2.5 and np.array_equal(point, drawn[-1, -1])


def test_focus_search_ties_go_to_the_first_point_drawn():
    # a constant objective ties everywhere: the first round's first restart's
    # first point wins over every later round, restart and point
    b = BoxBounds(lower=[-1.0, 2.0], upper=[1.0, 5.0])
    cfg = FocusSearchConfig(evals_per_round=15, rounds=3, restarts=4)
    point, score = focus_search(lambda P: np.full(len(P), 4.2), b, cfg, seed=6)
    first = np.random.default_rng(6).random((cfg.restarts, cfg.evals_per_round, 2))[0, 0]
    assert np.array_equal(point, b.lower + (b.upper - b.lower) * first) and score == 4.2


def test_focus_search_finds_known_optimum():
    cfg = FocusSearchConfig()
    for bounds, target in ((UNIT, [0.37]), (UNIT2, [0.3, 0.7])):
        for seed in range(3):
            point, score = focus_search(sq_dist_to(target), bounds, cfg, seed=seed)
            assert np.linalg.norm(point - np.asarray(target)) < 1e-3


def test_focus_search_degenerates_to_random_search():
    cfg = FocusSearchConfig(evals_per_round=500, rounds=1, restarts=1)
    obj = sq_dist_to([0.8])
    fp, fs = focus_search(obj, UNIT, cfg, seed=7)
    rp, rs = random_search(obj, UNIT, 500, seed=7)
    assert np.array_equal(fp, rp)
    assert fs == rs


def test_focus_search_returns_best_evaluated_point():
    seen = []

    def recording(P):
        s = np.sum((P - 0.25) ** 2, axis=1)
        seen.append(s.min())
        return s

    cfg = FocusSearchConfig(evals_per_round=50, rounds=3, restarts=2)
    _, score = focus_search(recording, UNIT, cfg, seed=8)
    assert score == min(seen)
    assert len(seen) == cfg.rounds


def test_focus_search_not_worse_than_first_round():
    cfg = FocusSearchConfig(evals_per_round=40, rounds=4, restarts=2)
    obj = sq_dist_to([0.6])
    _, score = focus_search(obj, UNIT, cfg, seed=9)
    rng = np.random.default_rng(9)
    first = obj(rng.uniform(UNIT.lower, UNIT.upper, size=(40, 1))).min()
    assert score <= first


def test_focus_search_stays_inside_bounds():
    b = BoxBounds(lower=[-3.0, 2.0], upper=[-1.0, 4.0])
    cfg = FocusSearchConfig(evals_per_round=30, rounds=3, restarts=2)
    point, _ = focus_search(sq_dist_to([-3.0, 2.0]), b, cfg, seed=10)  # corner pull
    assert inside(b, point)


def test_focus_search_deterministic():
    cfg = FocusSearchConfig(evals_per_round=30, rounds=2, restarts=2)
    a = focus_search(sq_dist_to([0.1]), UNIT, cfg, seed=11)
    b = focus_search(sq_dist_to([0.1]), UNIT, cfg, seed=11)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


# ------------------------------------------------------- grid reference

def test_grid_agrees_with_random_search_on_convex_objective():
    obj = sq_dist_to([0.4])
    grid = np.linspace(0.0, 1.0, 101)[:, None]
    grid_point = grid[np.argmin(obj(grid))]
    rp, _ = one_round(obj, UNIT, 500, seed=12)
    assert abs(grid_point[0] - rp[0]) < 0.05  # same basin at grid resolution
    assert obj(grid_point[None, :])[0] <= 1e-4
