"""README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_python_blocks_run_in_order():
    # later blocks use the names earlier ones define, as a reader would
    # running them one after another in one session
    blocks = _python_blocks()
    assert len(blocks) >= 3, "expected the quick start, rate check and sweep examples"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["report"].passed
