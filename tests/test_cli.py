import json

import pytest

from prodsys.cli import complex_matrix, load_config, main


def test_complex_matrix_parsing():
    m = complex_matrix([[[1.0, 2.0], [0.0, -1.0]], [[0.5, 0.0], [3.0, 4.0]]])
    assert m.shape == (2, 2)
    assert m[0, 0] == 1 + 2j
    assert m[1, 1] == 3 + 4j


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


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"semigroup": {"builtin": "unknown-thing"}}))
    assert main(["cells", "--config", str(path), "--out", str(tmp_path)]) == 2


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


def test_truncation_error_is_surfaced(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": {"delta": "1/4", "levels": 0}}))
    assert main(["dilate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "truncation error" in err
