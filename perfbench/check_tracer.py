"""Self-checks of the benchmark: tracer, layer metrics, verdicts, workloads.

    python3 -m pytest perfbench/check_tracer.py

The file name keeps these checks out of the repository's default test run;
they exercise the benchmark's own code, not the program.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import prodsys.cells  # noqa: E402
import prodsys.cli  # noqa: E402
import prodsys.dilation  # noqa: E402
from layers import LAYER_METRICS, run_metrics, span_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer, restored, self_times  # noqa: E402
from verdicts import SuiteOutput, compare, load_reference, read_outputs  # noqa: E402
from workloads import WORKLOADS, check_shape  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        (0.0, 10.0, -1),   # 0: root
        (1.0, 3.0, 0),     # 1: child of root
        (2.0, 5.0, 0),     # 2: child of root, overlapping 1
        (1.5, 2.5, 1),     # 3: grandchild, covered by 1 only
        (9.0, 12.0, 0),    # 4: child sticking out of root, clipped to 9..10
        (6.0, 6.0, 0),     # 5: empty child
    ]
    assert self_times(spans) == pytest.approx([10 - (4 + 1), 2 - 1, 3, 1, 3, 0])


def test_tracer_wraps_every_importer_and_restores_every_original():
    orig_rt = prodsys.cells.relative_tensor
    orig_cell = prodsys.cells.CellSystem.__dict__["cell"]
    orig_suite = prodsys.cli.RUNNERS["cells"]
    tracer = Tracer()
    tracer.install()
    try:
        assert prodsys.cells.relative_tensor is not orig_rt
        assert prodsys.dilation.relative_tensor is prodsys.cells.relative_tensor
        assert prodsys.cli.RUNNERS["cells"] is not orig_suite
        sites = tracer.patch_sites()
    finally:
        tracer.uninstall()
    assert restored(sites) == []
    assert prodsys.cells.relative_tensor is orig_rt
    assert prodsys.dilation.relative_tensor is orig_rt
    assert prodsys.cells.CellSystem.__dict__["cell"] is orig_cell
    assert prodsys.cli.RUNNERS["cells"] is orig_suite
    assert prodsys.cli.suite_cells is orig_suite


def test_traced_csvs_are_byte_identical_and_metrics_complete(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"delta": "1/4", "levels": 3}}))
    argv = ["all", "--config", str(config), "--seed", "5", "--out"]
    assert prodsys.cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert prodsys.cli.main(argv + [str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    plain = sorted((tmp_path / "plain").glob("*.csv"))
    assert plain
    for path in plain:
        assert (tmp_path / "traced" / path.name).read_bytes() == path.read_bytes()

    outputs = read_outputs(tmp_path / "traced")
    metrics = run_metrics(span_metrics(tracer), {s: o.meta for s, o in outputs.items()},
                          sum(len(o.checks) for o in outputs.values()), 0.1)
    assert list(metrics) == [name for name, _, _ in LAYER_METRICS]
    assert metrics["cli.dilate.levels"] == 3
    assert metrics["bimodule.gram_quotient.calls"] > 0
    assert metrics["algebra.solve.calls"] > 0
    durations = [end - start for _, start, end, _, _ in tracer.spans]
    assert sum(tracer.self_times()) == pytest.approx(max(durations))


def test_benchmark_json_declares_what_the_benchmark_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        assert (HERE / "reference" / f"{name}.csv").is_file()


def _outputs_from(reference):
    outputs = {}
    for suite, cid, verdict in reference:
        outputs.setdefault(suite, SuiteOutput()).checks.append((cid, verdict, "0"))
    return outputs


def test_a_wrong_reference_entry_makes_the_fail_ratio_nonzero():
    reference = load_reference(HERE / "reference" / "lindblad_m2.csv")
    outputs = _outputs_from(reference)
    assert compare(reference, outputs)[:2] == (len(reference), 0)

    wrong = list(reference)
    i = next(k for k, row in enumerate(wrong) if row[1].startswith("dim("))
    wrong[i] = (wrong[i][0], wrong[i][1].replace("=16", "=17"), "pass")
    attempted, failed, reasons = compare(wrong, outputs)
    assert (attempted, failed) == (len(reference) + 1, 2)  # missing + unlisted
    assert any("missing" in r for r in reasons)

    flipped = [(s, c, "FAIL") if k == 0 else (s, c, v) for k, (s, c, v) in enumerate(reference)]
    assert compare(flipped, outputs)[1] == 1


def test_a_suite_without_csv_fails_all_its_reference_checks():
    reference = load_reference(HERE / "reference" / "pair_tower.csv")
    outputs = _outputs_from(reference)
    lost = len(outputs.pop("dilate").checks)
    assert compare(reference, outputs)[:2] == (len(reference), lost)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_are_seeded_and_shaped(name):
    make = WORKLOADS[name]
    assert make(7) == make(7)
    for seed in (1, 2, 3):
        check_shape(name, make(seed))
    if name != "pair_tower":
        assert make(1) != make(2)


def test_shape_check_rejects_a_broken_markov_model():
    config = WORKLOADS["markov_heat"](1)
    config["markov"]["laplacian"][0][1] += 0.1
    with pytest.raises(ValueError):
        check_shape("markov_heat", config)
