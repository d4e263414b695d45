"""Every file a fixed set of small commands writes keeps its bytes
(tests/golden.py says how and when golden.json is rewritten)."""

import json

import pytest

from golden import CASES, GOLDEN, JOBS, case_digests, moved, versions

RECORDED = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case, jobs", [(case, jobs) for case in CASES
                                        for jobs in JOBS.get(case, (None,))])
def test_outputs_match_the_golden_digests(tmp_path, case, jobs):
    files = moved(RECORDED["outputs"][case], case_digests(case, tmp_path / "out", jobs))
    where = f"{case} --jobs {jobs}" if jobs else case
    differ = [f"{name} {RECORDED.get(name)} recorded, {version} here"
              for name, version in versions().items() if RECORDED.get(name) != version]
    assert files == [], (f"{where}: these files moved: {files}"
                         + "".join(f"; {d}" for d in differ))


def test_a_differing_blas_kernel_is_named(monkeypatch, tmp_path):
    monkeypatch.setitem(RECORDED, "blas_core", "NoSuchCore")
    monkeypatch.setitem(RECORDED["outputs"], "sensitivity", {"ad_summary.csv": "0" * 64})
    with pytest.raises(AssertionError, match=f"blas_core NoSuchCore recorded, "
                                             f"{versions()['blas_core']} here"):
        test_outputs_match_the_golden_digests(tmp_path, "sensitivity", "1")
