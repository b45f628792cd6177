"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run_in_order():
    """Every fenced python block runs, in order and in one namespace, as a
    reader pasting them into one session would; the disc example ends
    Optimal at the objective its comment states."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    namespace = {}
    disc = None
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        if 'name="disc-example"' in block:
            disc = namespace["report"]
    assert disc is not None
    assert disc.status == "Optimal"
    assert abs(disc.final_objective - 1.5278638) <= 1e-6
