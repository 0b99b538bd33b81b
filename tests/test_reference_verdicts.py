"""`prodsys all` still gives the committed verdict reference of every workload.

The benchmark compares the check ids and verdicts of each workload run with
`perfbench/reference/<workload>.csv`; a drift there would first show as a
failed benchmark.  This test runs the same configurations in process, at
the benchmark seeds, and compares them through `perfbench/verdicts.py`.
The perfbench modules are loaded from their files, as in
`test_tracer_targets.py`, and nothing under `perfbench/` is written.
"""

import json

import pytest

from prodsys.cli import main

from conftest import PERFBENCH, load_module

WORKLOADS = ("lindblad_m2", "pair_tower", "markov_heat")


@pytest.mark.parametrize("seed", [307, 11])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_all_matches_the_verdict_reference(monkeypatch, tmp_path, capsys, workload, seed):
    workloads = load_module(monkeypatch, "workloads")
    load_module(monkeypatch, "tracer")
    verdicts = load_module(monkeypatch, "verdicts")
    config = workloads.WORKLOADS[workload](seed)
    workloads.check_shape(workload, config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main(["all", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", str(seed)])
    capsys.readouterr()
    reference = verdicts.load_reference(PERFBENCH / "reference" / f"{workload}.csv")
    attempted, failed, reasons = verdicts.compare(reference, verdicts.read_outputs(tmp_path / "out"))
    assert (rc, failed) == (0, 0), reasons
    assert attempted == len(reference)
