"""The benchmark tracer still finds every name it wraps.

`perfbench/tracer.py` resolves each traced function or method by name, so
deleting or renaming one breaks `perfbench/run.py --trace 1`.  The module
is loaded from its file and only installed and uninstalled here.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target_and_restores_it(monkeypatch):
    tracer = load_tracer(monkeypatch)
    t = tracer.Tracer()
    t.install()
    try:
        sites = t.patch_sites()
    finally:
        t.uninstall()
    assert sites
    assert tracer.restored(sites) == []
