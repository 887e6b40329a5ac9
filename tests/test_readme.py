"""The README's Python examples run as written, and finish promptly."""
import re
import time
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order_within_the_budget():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    t0 = time.perf_counter()
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), namespace)
    assert time.perf_counter() - t0 < 20.0
    # the library example's comment states the step count its run takes
    (steps,) = re.findall(r"^result = run\(scn\) +# (\d+) steps$", blocks[0], re.M)
    assert namespace["result"].summary["steps"] == int(steps)
