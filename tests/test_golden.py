"""Every file a fixed set of small commands writes keeps its bytes
(tests/golden.py says how and when golden.json is rewritten)."""

import json

import pytest

from golden import CASES, GOLDEN, JOBS, case_digests, versions

RECORDED = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case, jobs", [(case, jobs) for case in CASES
                                        for jobs in JOBS.get(case, (None,))])
def test_outputs_match_the_golden_digests(tmp_path, case, jobs):
    got = case_digests(case, tmp_path / "out", jobs)
    want = RECORDED["outputs"][case]
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    where = f"{case} --jobs {jobs}" if jobs else case
    differ = [f"{name} {RECORDED[name]} recorded, {version} here"
              for name, version in versions().items() if RECORDED[name] != version]
    assert moved == [], (f"{where}: these files moved: {moved}"
                         + "".join(f"; {d}" for d in differ))
