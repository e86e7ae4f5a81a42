"""The README's "Library use" block runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # Each print line carries its expected output as a trailing comment.
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected and capsys.readouterr().out.splitlines() == expected
