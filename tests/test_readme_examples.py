"""Every python example in README.md runs as written.

Each ```python block is executed on its own, in a fresh namespace, so a
block that leans on another block's imports or names fails here.
"""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs_on_its_own(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "readme_example"})
