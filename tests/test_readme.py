import contextlib
import io
import re
from pathlib import Path

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
