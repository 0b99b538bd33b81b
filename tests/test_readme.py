import contextlib
import io
import re
from pathlib import Path

from prodsys.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_and_prints_what_it_says():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    dim, defect, full = out.getvalue().split()
    assert dim == "6"
    assert float(defect) < 1e-12
    assert full == "True"


def test_config_example_runs(tmp_path):
    # the documented layout, the one-block bare matrix included, stays runnable
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "cfg.json"
    path.write_text(block)
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
