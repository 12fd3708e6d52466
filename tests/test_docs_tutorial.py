"""docs/TUTORIAL.md runs as written."""

import re
from pathlib import Path

TUTORIAL = Path(__file__).resolve().parents[1] / "docs" / "TUTORIAL.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    # One namespace, like the interactive session the tutorial walks
    # through; the blocks write cryo5_10K.lib and mapped.v to the cwd.
    blocks = re.findall(r"```python\n(.*?)```", TUTORIAL.read_text(), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for index, block in enumerate(blocks, 1):
        exec(compile(block, f"{TUTORIAL.name} python block {index}", "exec"), namespace)
    assert (tmp_path / "cryo5_10K.lib").stat().st_size > 0
    assert (tmp_path / "mapped.v").stat().st_size > 0
