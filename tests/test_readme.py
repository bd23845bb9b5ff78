"""The README's library sketch runs against the package as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"## {section}\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", body, re.DOTALL)
    assert match, f"no python block under '## {section}'"
    return match.group(1)


def test_library_sketch_runs():
    namespace = {}
    exec(compile(_python_block("Library sketch"), "README.md", "exec"), namespace)
    assert namespace["report"].fidelity >= namespace["report"].bound - 1e-9
    assert namespace["rec"].cp_map.dim_out == 2
