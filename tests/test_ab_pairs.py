"""tools/ab_pairs.py's summary of paired benchmark results, on canned
detail and result lines: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
END_TO_END = [
    {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "iter_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(iters, p50, rss=None, attempted=10, failed=0, digest="d0", units=2):
    """The last two stdout lines of one perfbench run: detail, then result."""
    metrics = {"iters_per_s": {"value": iters, "unit": "1/s"},
               "iter_ms.p50": {"value": p50, "unit": "ms"}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    detail = {"units_run": units, "digest": digest, "window_s": 20.0}
    return [json.dumps({"detail": detail}),
            json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": metrics})]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_the_parents_spread(ab_pairs):
    parent = [line(100.0 + i, 10.0) for i in range(10)]
    # iters_per_s: the change wins 9 of 10, and its median, 110.5, is past the
    # parent's 104.5 by more than the parent's quartile distance 4.5;
    # iter_ms.p50: one tie and nine losses
    change = [line(99.0, 10.0)] + [line(106.0 + i, 10.5) for i in range(1, 10)]
    s = ab_pairs.summarize(parent, change, END_TO_END)
    it = s["metrics"]["iters_per_s"]
    assert it["parent"] == (102.25, 104.5, 106.75)
    assert it["change"] == (108.25, 110.5, 112.75)
    assert (it["wins"], it["losses"], it["pairs"]) == (9, 1, 10)
    assert it["gain"] and it["within_bound"]
    assert it["relative"] == pytest.approx(6.0 / 104.5)
    p50 = s["metrics"]["iter_ms.p50"]
    assert (p50["wins"], p50["losses"]) == (0, 9)
    assert not p50["gain"] and p50["within_bound"]  # 10.5 is within 25% of 10
    assert "peak_rss_mb" not in s["metrics"]  # no run reported it
    assert s["parent"] == s["change"] == {"attempted": 100, "failed": 0, "units_run": (2, 2)}
    assert s["digests_agree"] == [True] * 10


def test_eight_wins_in_ten_or_a_gain_inside_the_spread_is_no_gain(ab_pairs):
    parent = [line(100.0 + 10 * (i % 2), 10.0) for i in range(10)]
    change = [line(p + 1.0, 10.0) for p in (100.0 + 10 * (i % 2) for i in range(10))]
    s = ab_pairs.summarize(parent, change, END_TO_END)
    assert s["metrics"]["iters_per_s"]["wins"] == 10
    assert not s["metrics"]["iters_per_s"]["gain"]  # 1.0 against a spread of 10
    change[:2] = [line(99.0, 10.0), line(109.0, 10.0)]
    assert ab_pairs.summarize(parent, change, END_TO_END)["metrics"]["iters_per_s"]["wins"] == 8


def test_a_median_past_the_bound_and_failed_operations_are_reported(ab_pairs):
    parent = [line(100.0, 10.0, rss=70.0) for _ in range(3)]
    change = [line(100.0, 10.0, rss=77.5, attempted=12, failed=1) for _ in range(3)]
    s = ab_pairs.summarize(parent, change, END_TO_END)
    assert not s["metrics"]["peak_rss_mb"]["within_bound"]  # 10.7% over a 10% bound
    assert s["change"] == {"attempted": 36, "failed": 3, "units_run": (2, 2)}
    text = ab_pairs.format_summary(s)
    assert "3 pairs; operations attempted/failed: parent 30/0, change 36/3" in text
    # the last line, with no unresolved note: the parent's runs do not spread
    assert text.endswith("peak_rss_mb (MB, lower is better): parent 70 [70, 70], change 77.5 "
                         "[77.5, 77.5], -10.71%; change won 0 and lost 3 of 3; gain no, within "
                         "bound NO")


def test_digests_that_differ_and_the_units_each_side_ran_are_reported(ab_pairs):
    parent = [line(100.0, 10.0, rss=71.3, units=1), line(100.0, 10.0, rss=71.8, units=2),
              line(100.0, 10.0, rss=71.4, units=1)]
    change = [line(100.0, 10.0, rss=71.9, units=2), line(100.0, 10.0, rss=71.9, units=2,
                                                         digest="d1"), line(100.0, 10.0, units=3)]
    s = ab_pairs.summarize(parent, change, END_TO_END)
    assert s["digests_agree"] == [True, False, True]
    assert (s["parent"]["units_run"], s["change"]["units_run"]) == ((1, 2), (2, 3))
    text = ab_pairs.format_summary(s)
    assert "units_run: parent 1-2, change 2-3" in text
    assert "digests agree in 2 of 3 pairs; they DIFFER in pairs [1]" in text


def test_a_parent_spread_past_the_bound_is_unresolved(ab_pairs):
    # setup_s-like spread: parent quartiles 0.35-0.45 around 0.4 against a
    # 10% bound, so a change median 5% worse cannot be told apart
    bound = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    parent = [line(1.0, 1.0, rss=v) for v in (0.3, 0.35, 0.4, 0.45, 0.5)]
    change = [line(1.0, 1.0, rss=v) for v in (0.32, 0.37, 0.42, 0.47, 0.52)]
    s = ab_pairs.summarize(parent, change, bound)
    m = s["metrics"]["peak_rss_mb"]
    assert m["unresolved"] and m["within_bound"]
    assert ab_pairs.format_summary(s).endswith(
        "; unresolved: the parent's quartiles spread past the bound")
    # every change run better than every parent run resolves it
    better = [line(1.0, 1.0, rss=v) for v in (0.1, 0.12, 0.14, 0.16, 0.18)]
    assert not ab_pairs.summarize(parent, better, bound)["metrics"]["peak_rss_mb"]["unresolved"]
    # a spread inside the bound is resolved either way
    tight = [line(1.0, 1.0, rss=v) for v in (0.39, 0.395, 0.4, 0.405, 0.41)]
    assert not ab_pairs.summarize(tight, change, bound)["metrics"]["peak_rss_mb"]["unresolved"]


def test_unpaired_results_are_rejected(ab_pairs):
    with pytest.raises(ValueError, match="2 parent results but 1 change results"):
        ab_pairs.summarize([line(1.0, 1.0)] * 2, [line(1.0, 1.0)], END_TO_END)
