import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:  # later examples use the names of earlier ones
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert namespace["result"].ads
