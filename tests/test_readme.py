"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    # the flat-state residual, then cluster count and the two gap edges
    assert len(lines) == 2
    assert float(lines[0]) < 1e-6
    count, edge_neg, edge_pos = lines[1].split()
    assert int(count) > 0 and float(edge_neg) < 0.0 < float(edge_pos)
