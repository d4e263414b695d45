"""tools/bench_grid.py on one cell of its grid: the record's schema, not
its timings."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_grid.py"


def test_one_cell_gives_a_record_of_the_grid_schema():
    spec = importlib.util.spec_from_file_location("bench_grid", TOOL)
    bench_grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_grid)
    assert len(bench_grid.CELLS) == 24 and (60, 3, 0.1) in bench_grid.CELLS
    record = json.loads(json.dumps(bench_grid.measure([(10, 1, 0.1)], repeats=3)))
    assert record["layer"] == "kernels.kernel_matrix"
    env = record["environment"]
    assert {"python", "numpy", "scipy", "blas_core", "exp_dispatch", "threads"} <= set(env)
    (cell,) = record["cells"]
    assert (cell["n"], cell["d"], cell["lengthscale"], cell["points"], cell["repeats"]) == (
        10, 1, 0.1, 5000, 3)
    for kind in ("raw_us", "scaled_us"):
        q = cell[kind]
        assert set(q) == {"q1", "median", "q3"} and 0.0 < q["q1"] <= q["median"] <= q["q3"]
    assert cell["reference_median_us"] > 0.0
