import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import prodsys
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


def test_dotted_names_resolve():
    # a backticked dotted name rooted in prodsys, at a module or at a name one
    # defines (`bimodule.extension`, `Bimodule.right_parts`), names what exists
    modules = {m.name: importlib.import_module(f"prodsys.{m.name}")
               for m in pkgutil.iter_modules(prodsys.__path__) if not m.name.startswith("_")}
    roots = {"prodsys": prodsys, **modules}
    for module in modules.values():
        roots.update((k, v) for k, v in vars(module).items()
                     if str(getattr(v, "__module__", "")).startswith("prodsys"))
    missing, seen = [], 0
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text()):
        head, *attrs = name.split(".")
        if head not in roots:
            continue
        obj, seen = roots[head], seen + 1
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    assert seen > 20 and missing == []
