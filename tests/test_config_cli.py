import json

import pytest

from fibercell import ConfigError, RunConfig, parse_config, validate_config
from fibercell.cli import main


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_empty_config_gets_defaults(tmp_path):
    config = parse_config(_write_config(tmp_path, {}))
    assert config.radius == 0.25
    assert config.height == 1.0
    assert config.n_div == 64
    assert config.eps_list == [0.4, 0.2, 0.1, 0.05]
    assert config.n_terms == 500


def test_defaults_declared_once():
    assert validate_config({}) == RunConfig()


def test_nondecreasing_eps_list_rejected(tmp_path):
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(_write_config(tmp_path, {"eps_list": [0.1, 0.2]}))


def test_geometry_violation_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(_write_config(tmp_path, {"radius": 0.6}))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(_write_config(tmp_path, {"raduis": 0.2}))
    # the eigensolver seeds itself, so a seed key would change no number
    with pytest.raises(ConfigError, match="unknown config keys"):
        validate_config({"seed": 20240817})


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(str(path))


def test_field_level_messages():
    with pytest.raises(ConfigError, match="n_div"):
        validate_config({"n_div": 4})
    with pytest.raises(ConfigError, match="n_terms"):
        validate_config({"n_terms": 10})


def test_config_hash_stability():
    assert RunConfig().config_hash() == RunConfig().config_hash()
    assert RunConfig().config_hash() != RunConfig(radius=0.2).config_hash()


def _fast_config(tmp_path, **overrides):
    doc = {"n_div": 16, "eps_list": [0.4, 0.2], "j_max": 4, "k_total": 2,
           "n_terms": 60}
    doc.update(overrides)
    return _write_config(tmp_path, doc)


def test_cli_mesh_command(tmp_path):
    out = tmp_path / "out"
    code = main(["mesh", "--config", _fast_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    assert (out / "mesh.txt").exists()
    meta = json.loads((out / "mesh.meta.json").read_text())
    assert "config_hash" in meta and "mesh_hash" in meta


def test_cli_limit_spectrum_and_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = _fast_config(tmp_path, j_max=10)
    assert main(["limit-spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["limit-spectrum", "--config", cfg, "--out", str(out2)]) == 0
    data1 = (out1 / "limit_roots.csv").read_bytes()
    data2 = (out2 / "limit_roots.csv").read_bytes()
    assert data1 == data2  # byte-identical outputs for identical config

    lines = data1.decode().splitlines()
    lams = [float(line.split(",")[2]) for line in lines[2:]]
    assert lams == sorted(lams)
    assert all(lam < 92.531 for lam in lams)


def test_cli_eps_spectrum(tmp_path):
    out = tmp_path / "out"
    code = main(["eps-spectrum", "--config", _fast_config(tmp_path),
                 "--out", str(out), "--threads", "2"])
    assert code == 0
    lines = (out / "eps_spectrum.csv").read_text().splitlines()
    assert lines[1] == "k,j,rank,lambda_eps,residual"
    assert len(lines) == 2 + 2


def test_cli_converge(tmp_path):
    out = tmp_path / "out"
    code = main(["converge", "--config", _fast_config(tmp_path),
                 "--out", str(out), "--threads", "2"])
    assert code == 0
    assert (out / "convergence.csv").exists()
    assert (out / "convergence.json").exists()


def test_cli_converge_ignores_j_max(tmp_path):
    # the merge needs modes 1..k_total only; j_max is no cap on it
    rows = {}
    for j_max in (1, 8):
        out = tmp_path / f"j{j_max}"
        cfg = _fast_config(tmp_path, j_max=j_max, k_total=4)
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        rows[j_max] = (out / "convergence.csv").read_text().splitlines()[1:]
    assert len(rows[1]) == 1 + 2 * 4
    assert rows[1] == rows[8]


def test_cli_validate_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["validate", "--config", _fast_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["passed"] is True


def test_cli_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = _write_config(tmp_path, {"eps_list": [0.1, 0.2]})
    code = main(["mesh", "--config", bad, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "config"


def test_cli_compute_failure_exit_code(tmp_path, capsys):
    # off-center geometry known to land below the 15-degree floor at n_div=8
    cfg = _write_config(tmp_path, {"center": [0.47, 0.51], "radius": 0.31,
                                   "n_div": 8})
    code = main(["mesh", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "compute"
