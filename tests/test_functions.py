import math

import numpy as np
import pytest

from probo.errors import ConfigError, ProboError
from probo.functions import (
    ackley,
    gramacy_lee,
    load_tabulated_target,
    rastrigin,
    registry_lookup,
    registry_names,
    rosenbrock,
    schwefel,
    sphere,
)


# ---------------------------------------------------------------- registry

def test_registry_covers_required_dimensions():
    dims = {registry_lookup(n).dimension for n in registry_names()}
    assert {1, 2, 3, 4, 7} <= dims


def test_sphere_minimum_at_origin():
    assert sphere(np.zeros(3)) == 0.0
    assert registry_lookup("sphere-2d")(np.zeros(2)) == 0.0


def test_ackley_minimum_checked_independently():
    # straight transcription of the standard form, evaluated separately
    x = np.zeros(2)
    direct = (-20 * math.exp(-0.2 * math.sqrt(np.mean(x**2)))
              - math.exp(np.mean(np.cos(2 * math.pi * x))) + 20 + math.e)
    assert direct == pytest.approx(0.0, abs=1e-12)
    assert ackley(x) == pytest.approx(direct, abs=1e-12)
    assert registry_lookup("ackley-2d").known_optimum == 0.0


def test_rastrigin_and_rosenbrock_minima():
    assert rastrigin(np.zeros(2)) == 0.0
    assert rosenbrock(np.ones(3)) == 0.0
    assert rosenbrock(np.ones(4)) == 0.0


def test_schwefel_near_zero_at_standard_minimizer():
    x = np.full(4, 420.9687)
    assert abs(schwefel(x)) < 1e-2  # constant is only known to four decimals
    assert registry_lookup("schwefel-4d").known_optimum is None


def test_gramacy_lee_is_wiggly():
    # many sign changes of the slope over the domain
    xs = np.linspace(0.5, 2.5, 400)
    vals = np.array([gramacy_lee(np.array([x])) for x in xs])
    turns = np.sum(np.diff(np.sign(np.diff(vals))) != 0)
    assert turns > 10


def test_all_registry_functions_finite_at_bound_corners():
    for name in registry_names():
        tf = registry_lookup(name)
        for corner in (tf.bounds.lower, tf.bounds.upper):
            assert math.isfinite(tf(corner))


def test_unknown_name_lists_available():
    with pytest.raises(ProboError, match="sphere-1d"):
        registry_lookup("nope")


def test_bounds_match_dimension():
    for name in registry_names():
        tf = registry_lookup(name)
        assert tf.bounds.dimension == tf.dimension


# --------------------------------------------------------- tabulated target

def write_csv(tmp_path, text, name="target.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_linear_midpoint(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "0,0\n1,2\n"))
    assert tf([0.5]) == pytest.approx(1.0)
    assert tf.dimension == 1


def test_knots_are_exact(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "x,y\n0,1.5\n2,-3\n5,0.25\n"))
    assert tf([0.0]) == 1.5
    assert tf([2.0]) == -3.0
    assert tf([5.0]) == 0.25


def test_rows_sorted_by_x(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "5,0\n0,10\n2.5,5\n"))
    assert np.array_equal(tf.bounds.lower, [0.0])
    assert np.array_equal(tf.bounds.upper, [5.0])
    assert tf([1.25]) == pytest.approx(7.5)


def test_outside_domain_rejected(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "0,0\n1,2\n"))
    with pytest.raises(ProboError, match="domain"):
        tf([1.5])


def test_negation_for_maximization(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "0,0\n1,2\n"), negate=True)
    assert tf([1.0]) == -2.0


def test_too_few_rows(tmp_path):
    with pytest.raises(ProboError, match="two data rows"):
        load_tabulated_target(write_csv(tmp_path, "x,y\n1,2\n"))


def test_non_numeric_cell(tmp_path):
    with pytest.raises(ProboError, match="non-numeric"):
        load_tabulated_target(write_csv(tmp_path, "0,0\n1,zap\n2,3\n"))


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_non_finite_x_rejected_with_its_line(tmp_path, cell):
    path = write_csv(tmp_path, f"x,y\n0,0\n{cell},1\n2,3\n")
    with pytest.raises(ProboError, match=f"{path}:3: non-finite x"):
        load_tabulated_target(path)
    path = write_csv(tmp_path, f"x,y\n0,{cell}\n1,1\n2,inf\n", name="y.csv")
    with pytest.raises(ProboError, match=f"{path}:2: non-finite y"):
        load_tabulated_target(path)


def test_header_row_is_skipped(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "x,3\n2,3\n4,5\n"))
    assert np.array_equal(tf.bounds.lower, [2.0])
    assert tf([4.0]) == 5.0


def test_header_is_the_first_non_blank_row(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "\nx,y\n0,0\n1,1\n"))
    assert np.array_equal(tf.bounds.lower, [0.0])
    assert tf([1.0]) == 1.0


@pytest.mark.parametrize("header", ["", "x,y\n"])
def test_byte_order_mark_is_dropped(tmp_path, header):
    path = tmp_path / "target.csv"
    path.write_text(header + "0.5,1\n1.0,2\n1.5,3\n", encoding="utf-8-sig")
    tf = load_tabulated_target(path)
    assert np.array_equal(tf.evaluate.xs, [0.5, 1.0, 1.5])
    assert np.array_equal(tf.evaluate.ys, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("text, line", [("x1,x2,y\n0,1,2\n1,2,3\n", 1),
                                        ("0,1\n1,2,3\n2,3\n", 2)])
def test_a_third_non_blank_cell_is_rejected(tmp_path, text, line):
    path = write_csv(tmp_path, text)
    with pytest.raises(ProboError, match=f"{path}:{line}: expected two columns"):
        load_tabulated_target(path)


def test_blank_trailing_cells_are_accepted(tmp_path):
    tf = load_tabulated_target(write_csv(tmp_path, "0.5,1,\n1.0,2, ,\n"))
    assert np.array_equal(tf.evaluate.ys, [1.0, 2.0])


def test_first_row_with_a_numeric_x_is_data(tmp_path):
    path = write_csv(tmp_path, "0,zap\n1,2\n2,3\n")
    with pytest.raises(ProboError, match=f"{path}:1: non-numeric cell"):
        load_tabulated_target(path)


@pytest.mark.parametrize("negate", ["no", 1, None])
def test_negate_must_be_a_bool(tmp_path, negate):
    with pytest.raises(ConfigError, match="negate"):
        load_tabulated_target(write_csv(tmp_path, "0,0\n1,2\n"), negate=negate)


def test_duplicate_x_rejected(tmp_path):
    with pytest.raises(ProboError, match="distinct"):
        load_tabulated_target(write_csv(tmp_path, "0,0\n0,1\n1,2\n"))


def test_missing_file():
    with pytest.raises(ProboError, match="cannot read"):
        load_tabulated_target("/nonexistent/missing.csv")
