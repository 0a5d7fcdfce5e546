"""The README's library quick tour, run as written."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = README.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0].split("```", 1)[0], str(README), "exec"), namespace)
    states = namespace["states"]
    assert len(states) == 11
    assert states[-1].time == pytest.approx(10 * 5e-5)
