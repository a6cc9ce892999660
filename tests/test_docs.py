"""The documentation's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    # the Library section's example, with its closing assert on check()
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_package_layout_lists_every_module():
    # one row per module of src/nonelliptic, and no row for a deleted one
    text = README.read_text(encoding="utf-8")
    section = text.split("## Package layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    package = README.parent / "src" / "nonelliptic"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(rows) == sorted(modules)
