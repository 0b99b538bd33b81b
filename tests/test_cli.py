import csv
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import prodsys.cli
import prodsys.dilation
from prodsys.cells import CellSystem
from prodsys.algebra import expm, make_algebra
from prodsys.cli import (
    SUITES, complex_matrix, element_from_config, load_config, main, suite_classify, suite_dilate,
    suite_heat, suite_roundtrip,
)
from prodsys.dilation import TruncatedLimit, TruncationError
from prodsys.partition import uniform

from conftest import SEED, reversible_chain


def test_complex_matrix_parsing():
    data = [[[1.0, 2.0], [0.0, -1.0]], [[0.5, 0.0], [3.0, 4.0]]]
    m = complex_matrix(data)
    assert m.shape == (2, 2)
    assert m[0, 0] == 1 + 2j
    assert m[1, 1] == 3 + 4j
    # a one-block element is its bare matrix, or the list of its one block
    alg = make_algebra([2])
    for layout in (data, [data]):
        assert np.array_equal(element_from_config(alg, layout).mats[0], m)


def test_default_config_is_stochastic_pair():
    cfg = load_config(None, None, 1.0)
    assert cfg.algebra.blocks == (1, 1)
    assert cfg.levels == 4


def test_all_suites_pass_on_defaults(tmp_path):
    assert main(["all", "--out", str(tmp_path)]) == 0
    for name in ["check-cp", "cells", "refine", "roundtrip", "dilate", "classify", "heat"]:
        assert (tmp_path / f"{name}.csv").exists()


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["cells", "--out", str(out1)]) == 0
    assert main(["cells", "--out", str(out2)]) == 0
    assert (out1 / "cells.csv").read_bytes() == (out2 / "cells.csv").read_bytes()


def test_csv_schema(tmp_path):
    main(["refine", "--out", str(tmp_path)])
    lines = (tmp_path / "refine.csv").read_text().splitlines()
    assert lines[0].startswith("# seed")
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "suite,check_id,anchor,defect,tolerance,pass"
    assert all(line.split(",")[-1] == "pass" for line in body[1:])


def test_configured_lindblad_semigroup(tmp_path):
    config = {
        "algebra": [2],
        "state": {"weights": [1.0]},
        "semigroup": {
            "builtin": "lindblad",
            "jumps": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        },
        "grid": {"delta": "1/4", "levels": 3},
        "partitions": ["1/2", "1/4,1/4"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["check-cp", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["roundtrip", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_configured_markov_model(tmp_path):
    config = {
        "markov": {
            "mu": [0.5, 0.5],
            "laplacian": [[1.0, -1.0], [-1.0, 1.0]],
        },
        "grid": {"delta": "1/4", "levels": 3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["heat", "--config", str(path), "--out", str(tmp_path)]) == 0


NAN = float("nan")


@pytest.mark.parametrize("suite, config", [
    ("check-cp", {"semigroup": {"generator": [[[NAN, 0.0], [0.0, 0.0]],
                                              [[0.0, 0.0], [0.0, 0.0]]]}}),
    ("heat", {"markov": {"mu": [0.5, 0.5], "laplacian": [[NAN, -1.0], [-1.0, 1.0]]}}),
    ("heat", {"markov": {"mu": [NAN, 0.5], "laplacian": [[1.0, -1.0], [-1.0, 1.0]]}}),
])
def test_non_finite_config_exits_2(tmp_path, capsys, suite, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))  # json writes the bare NaN token and reads it back
    assert main([suite, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def fresh_python(probe: str) -> str:
    """Standard output of a fresh interpreter running the probe with this prodsys."""
    src = str(Path(prodsys.dilation.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only; importing it more than doubles the start-up time
    out = fresh_python("import sys, prodsys.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_all_on_defaults_loads_no_numpy_random(tmp_path):
    # the probes draw from the standard library's random module: numpy.random loads
    # OpenSSL through secrets and hmac, the largest single cost of a cold run
    out = fresh_python("import sys, prodsys.cli; "
                       f"rc = prodsys.cli.main(['all', '--out', {str(tmp_path)!r}]); "
                       "print(rc, 'numpy.random' in sys.modules)")
    assert out.splitlines()[-1] == "0 False"


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"semigroup": {"builtin": "unknown-thing"}}))
    assert main(["cells", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("markov", [{"graph": "bogus"}, {"states": 0}])
def test_invalid_markov_model_is_a_configuration_error(tmp_path, capsys, markov):
    # the model is built with the configuration, before any suite runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"markov": markov}))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_classify_scales_every_equivalence_tolerance(monkeypatch):
    # --tol-scale reaches all three equivalence decisions of the suite
    tols, real = [], prodsys.cli.cocycle_equivalence

    def recording(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(prodsys.cli, "cocycle_equivalence", recording)
    assert suite_classify(load_config(None, None, 10.0)).passed
    assert tols == [pytest.approx(1e-8)] * 3


@pytest.mark.parametrize("config", [
    {"algebra": [2]},
    {"algebra": [1, 1, 1], "state": {"weights": [0.2, 0.3, 0.5]}},
])
def test_stochastic_pair_on_another_algebra_exits_2(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["check-cp", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "stochastic_pair" in capsys.readouterr().err


def test_configured_density_state_is_used(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"state": {"density": [[[[0.9, 0.0]]], [[[0.1, 0.0]]]]}}))
    cfg = load_config(str(path), None, 1.0)
    assert [complex(d[0, 0]) for d in cfg.sf.state.density] == [0.9, 0.1]


def test_tiny_tolerance_scale_fails(tmp_path):
    assert main(["cells", "--out", str(tmp_path), "--tol-scale", "1e-20"]) == 1


def test_truncation_error_is_surfaced(tmp_path, capsys, monkeypatch):
    # a tower of no levels is refused with the configuration; a suite that
    # asks past the horizon reports the truncation and the admissible time
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"delta": "1/4", "levels": 0}}))
    assert main(["dilate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err

    def beyond_horizon(cfg):
        raise TruncationError("time 2 beyond horizon, max admissible 1", max_time=Fraction(1))

    monkeypatch.setitem(prodsys.cli.RUNNERS, "dilate", beyond_horizon)
    assert main(["dilate", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "truncation error" in err and "max admissible time: 1" in err


@pytest.mark.parametrize("grid, tol_scale", [
    ({"levels": 0}, "1"),
    ({"levels": -2}, "1"),
    ({"delta": "0"}, "1"),
    ({"delta": "-1/4"}, "1"),
    ({}, "nan"),
    ({}, "-1"),
    ({}, "0"),
    ({}, "inf"),
    ({"delta": "1/0"}, "1"),
], ids=["levels-0", "levels-negative", "delta-0", "delta-negative",
        "tol-nan", "tol-negative", "tol-0", "tol-inf", "delta-zero-denominator"])
def test_bad_grid_or_tolerance_scale_is_a_configuration_error(tmp_path, capsys, grid, tol_scale):
    # no crash, and no verdict: a nan or negative scale fails most checks and
    # an infinite one passes every check that it scales
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": grid}))
    out = tmp_path / "out"
    argv = ["all", "--config", str(path), "--out", str(out), "--tol-scale", tol_scale]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"algebra": [1], "semigroup": {"builtin": "unitary_conjugation", "hamiltonian": [[1, 0]]}},
    {"algebra": [2], "semigroup": {"builtin": "lindblad", "jumps": 5}},
    [{"algebra": [2]}],
    {"grid": {"levels": 2.5}},
    {"semigroup": "stochastic_pair"},
    {"algebra": 2},
    {"algebra": [1, 1], "semigroup": {"builtin": "unitary_conjugation",
                                      "hamiltonian": [[[[1, 0]]], [[[1, 0], [0, 0]]]]}},
    {"partitions": ["1/0"]},
    {"grid": {"delta": "1/4", "level": 2}},
    {"state": {"weights": [0.5, 0.5], "density": [[[[1, 0]]], [[[0, 0]]]]}},
    {"algebra": [1, 1], "semigroup": {"builtin": "identity", "generator": [[[0, 0]] * 2] * 2}},
], ids=["entry-not-a-pair", "jumps-not-a-list", "top-level-array", "levels-not-an-integer",
        "section-not-an-object", "algebra-not-a-list", "block-of-the-wrong-size",
        "partition-zero-denominator", "grid-key-not-read", "state-weights-and-density",
        "identity-with-a-generator"])
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, config):
    # a malformed field stops the run before any suite: no traceback, no
    # run on a silently truncated value, and no key silently left unread
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, key", [
    ({"grid": {"delta": "1/4", "level": 2}}, "'level'"),
    ({"state": {"weights": [0.5, 0.5], "density": []}}, "'density'"),
    ({"semigroup": {"builtin": "identity", "generator": []}}, "'generator'"),
    ({"semigroup": {"builtin": "lindblad", "jumps": [], "hamiltonain": []}}, "'hamiltonain'"),
    ({"markov": {"graph": "cycle", "mu": [1.0]}}, "'mu'"),
    ({"partition": ["1"]}, "'partition'"),
])
def test_a_key_that_is_not_read_is_named(tmp_path, config, key):
    # each section is read for one variant, and any other key in it is refused by name
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=f"not read: {key}"):
        load_config(str(path), None, 1.0)


@pytest.mark.parametrize("config, out_is_file", [
    ({"algebra": [2.7], "semigroup": {"builtin": "identity"}}, False),
    ({"markov": {"states": 2.9}}, False),
    ({"markov": {"states": "4"}}, False),
    ({"seed": 2.5}, False),
    ({"grid": {"levels": True}}, False),
    ({"partitions": 5}, False),
    ({"partitions": [5]}, False),
    ({"seed": [1]}, False),
    ({"grid": {"delta": [1]}}, False),
    ({"state": {"weights": "ab"}}, False),
    ({"state": {"density": [[[[1, 0]]]]}}, False),
    ({}, True),
], ids=["block-size-not-an-integer", "states-not-an-integer", "states-a-string",
        "seed-not-an-integer", "levels-a-boolean", "partitions-not-a-list",
        "partition-not-a-string", "seed-a-list", "delta-a-list", "weights-a-string",
        "density-one-block-short", "out-names-a-file"])
def test_value_of_the_wrong_kind_stops_before_any_suite(tmp_path, capsys, config, out_is_file):
    # each value is checked where it is read: no suite runs on a truncated
    # value, and none ends in a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    if out_is_file:
        out.write_text("kept")
    assert main(["all", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and captured.out == ""
    assert out.read_text() == "kept" if out_is_file else not out.exists()


def test_float_delta_reads_exactly(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"delta": 0.25}}))
    assert load_config(str(path), None, 1.0).delta == Fraction(1, 4)


@pytest.mark.parametrize("delta", ["1e-400", "1e400"], ids=["rounds-to-zero", "overflows"])
def test_grid_step_that_is_no_usable_float_is_a_configuration_error(tmp_path, capsys, delta):
    # grid times are keyed and evaluated as floats: at 1e-400 every time would
    # evaluate to the identity map, and 1e400 overflows
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"delta": delta}}))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "configuration error: the grid needs delta > 0" in captured.err
    assert delta in captured.err and captured.out == ""
    assert not out.exists()


def test_non_cp_semigroup_ends_only_the_suites_that_build_its_cells(tmp_path, capsys):
    # the generator [[1, -1], [0, 0]] on the two-point algebra gives
    # T_t(x)_0 = e^t x_0 + (1 - e^t) x_1, not positive: check-cp records FAIL
    # rows, the cell suites stop on its GNS coupling, and classify and heat,
    # which build their own semigroups, still run
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"semigroup": {"generator": [[[1, 0], [-1, 0]], [[0, 0], [0, 0]]]}}))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "suite cells: not completely positive" in err
    assert {f.name for f in out.glob("*.csv")} == {
        "check-cp.csv", "classify.csv", "heat.csv", "heat_kernel.csv"}
    assert ",FAIL" in (out / "check-cp.csv").read_text()


@pytest.mark.parametrize("suite", ["roundtrip", "dilate", "all"])
def test_an_empty_coupling_ends_its_suite_with_one_line_naming_the_time(tmp_path, capsys, suite):
    # at delta = 1e30 e^{tL} evaluates to the zero map, whose GNS coupling
    # keeps nothing: each suite that builds on it prints one line naming the
    # time and counts as failed, and the next suite still runs.  classify's
    # inner semigroups and heat's chain evaluate to non-finite maps at that
    # time, and their suites end the same way, each with one line
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"delta": "1e30", "levels": 2}}))
    out = tmp_path / "out"
    assert main([suite, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    failed = ["cells", "roundtrip", "dilate"] if suite == "all" else [suite]
    non_finite = [f"suite classify: e^(tL) at t = {10**30} has NaN or infinite entries",
                  "suite heat: e^(tL) at t = 1e+30 has NaN or infinite entries"]
    assert err == [f"suite {name}: the GNS coupling at t = {10**30} kept no direction: "
                   "T_t evaluated to the zero map" for name in failed] + (
        non_finite if suite == "all" else [])
    assert {f.name for f in out.glob("*.csv")} == (
        {"check-cp.csv", "refine.csv"} if suite == "all" else set())


@pytest.mark.parametrize("config", [
    {"grid": {"delta": "1e154", "levels": 2}},
    {"grid": {"delta": "1e200", "levels": 2}},
    {"grid": {"delta": "1e300", "levels": 2}},
    {"grid": {"delta": "5e307", "levels": 3}},
    {"grid": {"delta": "1e308", "levels": 2}},
    {"grid": {"delta": "1e308", "levels": 1},
     "semigroup": {"generator": [[[-2, 0], [2, 0]], [[0, 0], [0, 0]]]}},
], ids=["1e154", "1e200", "1e300", "5e307-levels3", "1e308", "tL-overflows"])
def test_a_grid_near_the_float_range_ends_each_suite_in_records_or_one_line(
        tmp_path, capsys, config):
    # the square of an unscaled tL overflows from ||tL||_1 ~ 3.6e154 on, and a
    # time past the float range (2 delta + 3 delta, or 2 delta) or a tL with
    # an infinite entry has no e^{tL} to compute: no suite ends in a traceback,
    # each one writes its CSV or prints one line, and the run exits 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    written = {f.stem for f in out.glob("*.csv")}
    assert sorted(line.split(":")[0] for line in err) == sorted(
        f"suite {name}" for name in SUITES if name not in written)


def test_a_model_error_ends_the_heat_suite_with_one_line(tmp_path, capsys):
    # at delta = 1e20 the chain's kernel is finite but its path weights are not
    # all positive: the heat suite prints the model's message and counts as failed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"delta": "1e20", "levels": 2}}))
    assert main(["heat", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "suite heat: path weights must be strictly positive for the dilation tower"]


def test_heat_suite_exponentiates_each_time_once(monkeypatch):
    """Kernels, path measures, cells and the dilation share one e^{tL} per time."""
    calls = []

    def counting_expm(a):
        calls.append(a)
        return expm(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("prodsys") and getattr(module, "expm", None) is expm:
            monkeypatch.setattr(module, "expm", counting_expm)
    cfg = load_config(None, None, 1.0)
    suite_heat(cfg)
    assert len(calls) == 4
    lap, d = cfg.markov.laplacian, float(cfg.delta)
    times = sorted(float(a[0, 0].real / -lap[0, 0]) for a in calls)
    assert times == pytest.approx(sorted([d, d / 2, 1.0, 0.5]), rel=1e-15)


@pytest.mark.parametrize("levels", [2, 4])
def test_capped_depths_are_recorded(levels):
    # roundtrip ranks, and heat builds its tower, at no more than 3 parts:
    # the depth used is in the meta lines, not silently below the grid's
    cfg = load_config(None, None, 1.0)
    cfg.levels = levels
    assert suite_roundtrip(cfg).meta == {"rank-parts": str(min(levels, 3))}
    assert suite_heat(cfg).meta == {"levels": str(min(levels, 3))}


def lindblad_config(tmp_path, **fields):
    """Path of a generic 2x2 Lindblad config drawn from seed 307, with `fields` set.

    The draws are those of the lindblad_m2 benchmark workload at seed 307.
    """
    rng = np.random.default_rng(307)

    def pairs(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    v, h, w = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    density = w @ w.conj().T + 0.4 * np.eye(2)
    density /= np.trace(density).real
    config = {
        "algebra": [2],
        "state": {"density": [pairs((density + density.conj().T) / 2)]},
        "semigroup": {"builtin": "lindblad", "jumps": [pairs(v)],
                      "hamiltonian": pairs((h + h.conj().T) / 2)},
        **fields,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return path


def lindblad_tower_config(tmp_path):
    """A generic 2x2 Lindblad config at 3 levels of 1/4: cells of dims 16, 64, 256."""
    path = lindblad_config(tmp_path, grid={"delta": "1/4", "levels": 3})
    return load_config(str(path), None, 1.0)


def test_fine_grid_unit_law_failure_is_a_verdict(tmp_path, capsys):
    # the lindblad_m2 workload at grid step 1/1024: the unit law fails on
    # tower level 2, so the orbit rank is not decided; every suite still
    # writes its CSV and the run exits 1
    path = lindblad_config(tmp_path, partitions=["1", "1/2,1/2", "1/3,1/3,1/3"],
                           grid={"delta": "1/1024", "levels": 4},
                           markov={"graph": "cycle", "states": 3})
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out), "--seed", "307"]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(f.name for f in out.glob("*.csv")) == sorted(
        f"{name}.csv" for name in SUITES + ("dilate_residuals", "heat_kernel"))
    rows = list(csv.reader((out / "dilate.csv").read_text().splitlines()))
    meta = {r[0]: r[1] for r in rows if r[0].startswith("# ")}
    level, defect = meta["# unit-law"].split()[1::2]
    assert level == "2" and 1e-8 < float(defect) < 1e-4
    checks = {r[1]: r[3:] for r in rows if r[0] == "dilate"}
    assert list(checks) == DILATE_CHECKS
    assert checks["minimality"][0] == "inf" and checks["minimality"][2] == "FAIL"


def test_all_passes_on_a_fine_lindblad_grid(tmp_path, capsys):
    # the lindblad_m2 workload at grid step 1/64: generating-rank and
    # minimality are decided one part at a time, and every check passes
    path = lindblad_config(tmp_path, partitions=["1", "1/2,1/2", "1/3,1/3,1/3"],
                           grid={"delta": "1/64", "levels": 4},
                           markov={"graph": "cycle", "states": 3})
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "307"]) == 0
    capsys.readouterr()


DILATE_CHECKS = ["compression", "minimality", "continuity-sup",
                 "cocycle-law", "cocycle-roundtrip", "corner-isometry"]


def test_dilate_suite_builds_no_relative_tensor(tmp_path, monkeypatch):
    # every dilation goes through the cells, so no relative tensor of two
    # levels is formed; the collapses of the top cell are applied to column
    # blocks, never formed
    cfg = lindblad_tower_config(tmp_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("the dilation formed a relative tensor")

    top, collapse = uniform(Fraction(3, 4), 3), CellSystem.collapse

    def no_top_collapse(self, p, a):
        if p == top:
            raise AssertionError(f"the dilation formed the collapse of the top cell at {a}")
        return collapse(self, p, a)

    monkeypatch.setattr(prodsys.dilation, "relative_tensor", forbidden)
    monkeypatch.setattr(TruncatedLimit, "split", forbidden)
    monkeypatch.setattr(CellSystem, "collapse", no_top_collapse)
    rep = suite_dilate(cfg)
    assert rep.meta["levels"] == "3"
    assert [c.check_id for c in rep.checks] == DILATE_CHECKS
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_dilate_suite_memory_on_warm_lindblad_tower(tmp_path):
    # with the three level cells built, the suite allocates their action
    # stacks and thin factors, about 13 MiB; forming the 256 x 1024
    # collapses of the top cell instead takes the peak near 27 MiB
    cfg = lindblad_tower_config(tmp_path)
    for k in range(1, 4):
        cfg.cells.cell(uniform(k * cfg.delta, k))
    tracemalloc.start()
    try:
        rep = suite_dilate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.meta["levels"] == "3"
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_dilate_suite_memory_on_deep_pair_tower(tmp_path):
    # the 16-level stochastic pair tower: 2 * 2^16 orbit words and cocycle
    # values up to level 16, checked on factors of the top dimension 18
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"delta": "1/16", "levels": 16}}))
    cfg = load_config(str(path), None, 1.0)
    tracemalloc.start()
    try:
        rep = suite_dilate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.meta["levels"] == "16"
    assert [c.check_id for c in rep.checks] == DILATE_CHECKS
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def chain6_config(tmp_path):
    """The seeded reversible chain on six states, as a markov config."""
    mu, lap = reversible_chain(SEED, 6)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"markov": {"mu": mu.tolist(), "laplacian": lap.tolist()}}))
    return load_config(str(path), None, 1.0)


def test_heat_suite_memory_on_six_state_chain(tmp_path):
    # a seeded reversible chain on six states: 1296 slot columns for the
    # two-part cell match and a 1296-dim top level for the dilation, checked
    # on the 216 glued columns and the 6 corner columns
    cfg = chain6_config(tmp_path)
    tracemalloc.start()
    try:
        rep = suite_heat(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kernel = [f"kernel-{law}[{t}]" for t in (0.25, 1.0)
              for law in ("symmetry", "mass", "composition")]
    assert [c.check_id for c in rep.checks] == kernel + [
        "path-mass", "cell-match(1)", "cell-dims(1)", "cell-match(1/2,1/2)",
        "cell-dims(1/2,1/2)", "adjoint-mass", "dilation-direct", "dilation-formula"]
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert peak < 50 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
