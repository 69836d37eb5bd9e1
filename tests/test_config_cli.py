import dataclasses
import json

import pytest

import fibercell as fc
from fibercell import ConfigError, RunConfig, parse_config, validate_config
from fibercell import cli
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


@pytest.mark.parametrize("text,match", [
    (None, "cannot read config file"), ("[0.4, 0.2]", "root must be a JSON object")])
def test_parse_config_refusals(tmp_path, text, match):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        parse_config(str(path))


@pytest.mark.parametrize("name", ["bogus", "", "MESH"])
def test_run_command_refusals(tmp_path, name):
    with pytest.raises(ConfigError, match="unknown command"):
        cli.run_command(name, RunConfig(out_dir=str(tmp_path)))
    assert not any(tmp_path.iterdir())


def test_field_level_messages():
    with pytest.raises(ConfigError, match="n_div"):
        validate_config({"n_div": 4})
    with pytest.raises(ConfigError, match="n_terms"):
        validate_config({"n_terms": 10})


def test_direct_construction_is_validated():
    # RunConfig(...) and dataclasses.replace run the same checks as a file
    with pytest.raises(ConfigError, match="^eig_tol: must be finite and positive, got True$"):
        RunConfig(eig_tol=True)
    with pytest.raises(ConfigError, match="^n_div: must be an integer >= 8, got 4$"):
        RunConfig(n_div=4)
    with pytest.raises(ConfigError, match="^disk of radius 0.6 centered at "
                                          r"\(0.5, 0.5\) is not strictly inside"):
        dataclasses.replace(RunConfig(), radius=0.6)


def test_numbers_stored_as_floats():
    # 1 and 1.0 spell the same config, so they hash alike
    config = RunConfig(side=1, center=[0.5, 0.5], height=1, eps_list=[1, 0.5])
    assert config == RunConfig(side=1.0, center=(0.5, 0.5), height=1.0,
                               eps_list=[1.0, 0.5])
    assert type(config.side) is float and type(config.eps_list[0]) is float
    assert config.config_hash() == RunConfig(eps_list=[1.0, 0.5]).config_hash()


@pytest.mark.parametrize("key, value", [
    ("side", True), ("radius", True), ("height", True), ("eig_tol", True),
    ("root_tol", True), ("j_max", True), ("k_total", True),
    ("n_terms", True), ("center", [True, 0.5]), ("eps_list", [True]),
])
def test_boolean_is_not_a_number(key, value):
    # bool subclasses int, so eig_tol=true would pass as a 1.0 tolerance
    with pytest.raises(ConfigError, match=f"^{key}: "):
        validate_config({key: value})
    with pytest.raises(ConfigError, match=f"^{key}: "):
        RunConfig(**{key: value})


@pytest.mark.parametrize("text", [
    '{"center": [NaN, 0.5]}', '{"eig_tol": Infinity}', '{"root_tol": Infinity}',
    '{"side": Infinity}', '{"height": Infinity}',
], ids=["center", "eig_tol", "root_tol", "side", "height"])
def test_non_finite_numbers_rejected(tmp_path, text):
    # json.load reads NaN and Infinity; eig_tol=Infinity would turn off the
    # residual gate
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="finite"):
        parse_config(str(path))


@pytest.mark.parametrize("key, value", [
    ("side", 10 ** 401), ("radius", 10 ** 401), ("height", 10 ** 401),
    ("eig_tol", 10 ** 401), ("center", [10 ** 401, 0.5]), ("eps_list", [10 ** 401]),
    ("n_div", 10 ** 401), ("k_total", 10 ** 401),
])
def test_int_too_large_for_a_float_is_not_a_number(key, value):
    # ints passed the finiteness test, so a 401-digit side raised
    # OverflowError at float() instead of a ConfigError
    with pytest.raises(ConfigError, match=f"^{key}: "):
        RunConfig(**{key: value})


def test_cli_refuses_int_too_large_for_a_float(tmp_path, capsys):
    # it was reported as {"error": "compute"} with exit 1
    path = tmp_path / "config.json"
    path.write_text('{"side": 1' + "0" * 400 + "}")
    code = main(["mesh", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_cli_rejects_infinite_eig_tol(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"eig_tol": Infinity}')
    code = main(["converge", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_cli_too_tall_cell_is_a_compute_failure(tmp_path, capsys):
    # any finite positive height is a valid config; its limit roots are not
    cfg = _write_config(tmp_path, {"height": 1e5})
    code = main(["limit-spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "compute"


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
                 "--out", str(out)])
    assert code == 0
    lines = (out / "eps_spectrum.csv").read_text().splitlines()
    assert lines[1] == "k,j,rank,lambda_eps,residual"
    assert len(lines) == 2 + 2


def test_cli_converge(tmp_path):
    out = tmp_path / "out"
    code = main(["converge", "--config", _fast_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    assert (out / "convergence.csv").exists()
    assert (out / "convergence.json").exists()


def test_cli_converge_ignores_j_max(tmp_path):
    # the merge needs modes 1..k_total only, so j_max is no cap on it; and
    # n_terms sizes only the S(lambda) series, which converge never sums
    rows = []
    for key, value in (("j_max", 1), ("j_max", 8), ("n_terms", 50), ("n_terms", 500)):
        out = tmp_path / f"{key}{value}"
        cfg = _fast_config(tmp_path, k_total=4, **{key: value})
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        rows.append((out / "convergence.csv").read_text().splitlines()[1:])
    assert len(rows[0]) == 1 + 2 * 4
    assert all(other == rows[0] for other in rows[1:])


def test_cli_converge_honours_root_tol(tmp_path):
    # converge brackets its limit roots to the same root_tol as limit-spectrum
    cfg = _write_config(tmp_path, {"n_div": 16, "eps_list": [0.4], "k_total": 3,
                                   "root_tol": 1e-3})
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert main(["limit-spectrum", "--config", cfg, "--out", str(tmp_path / "l")]) == 0
    rows = json.loads((tmp_path / "c" / "convergence.json").read_text())["rows"]
    roots = json.loads((tmp_path / "l" / "limit_roots.json").read_text())["roots"]
    lam = {root["j"]: root["lambda"] for root in roots}
    assert rows and all(row["lambda_limit"] == lam[row["j"]] for row in rows)


def test_cli_validate_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["validate", "--config", _fast_config(tmp_path),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["passed"] is True


def test_cli_validate_failure_names_the_check(tmp_path, monkeypatch, capsys):
    # a mode merge off by 1e-6 relative fails the Kronecker check alone
    merge = cli.discrete_mode_merge
    monkeypatch.setattr(cli, "discrete_mode_merge",
                        lambda *args: merge(*args) * (1 + 1e-6))
    out = tmp_path / "out"
    assert main(["validate", "--config", _fast_config(tmp_path),
                 "--out", str(out)]) == 1
    doc = json.loads((out / "validate.json").read_text())
    assert doc["passed"] is False
    assert [line.split(" mismatch ")[0] for line in doc["failures"]] == [
        "kron/merge at eps=1.0", "kron/merge at eps=0.2"]
    assert json.loads(capsys.readouterr().err)["message"].startswith(
        "validation failed: kron/merge at eps=1.0 mismatch 1.00e-06")


def test_cli_validate_checks_the_sector_merge(tmp_path, monkeypatch):
    # merged_spectrum off by 1e-6 relative fails the sector/whole check alone
    merge = cli.merged_spectrum
    monkeypatch.setattr(cli, "merged_spectrum", lambda *args, **kwargs: [
        dataclasses.replace(e, value=e.value * (1 + 1e-6))
        for e in merge(*args, **kwargs)])
    out = tmp_path / "out"
    assert main(["validate", "--config", _fast_config(tmp_path),
                 "--out", str(out)]) == 1
    doc = json.loads((out / "validate.json").read_text())
    assert [line.split(" mismatch ")[0] for line in doc["failures"]] == [
        "sector/whole at eps=1.0", "sector/whole at eps=0.2"]


def test_cli_validate_shares_one_operator_set(tmp_path, monkeypatch):
    # one set serves every pencil, merge and disk solve on validate's coarse
    # mesh; the others are those the two oracles build for themselves, at
    # most 5 in all (25 when each pencil built its own, 6 with a disk set)
    built, init = [], fc.CellOperators.__init__

    def spy(self, mesh):
        built.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(fc.CellOperators, "__init__", spy)
    assert main(["validate", "--out", str(tmp_path)]) == 0
    assert len(built) <= 5


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


CONVERGENCE_CSV = """\
# config_hash=cafe
eps,k,j,lambda_eps,bound,slack,lambda_limit,gap,e_F,e_M
0.10000000000000001,1,1,12.5,20,7.5,0.33333333333333331,9.9999999999999995e-21,0.25,0.002
0.10000000000000001,2,1,40.125,61,20.875,0.66666666666666663,2.9999999999999998e-15,0.5,1
"""

CONVERGENCE_JSON = """\
{
  "c_h": 0.5,
  "config_hash": "cafe",
  "eig_tol": 1e-09,
  "mesh_hash": "abc",
  "mu1_discrete": 93.0,
  "mu1_exact": 92.5,
  "n_div": 16,
  "reorderings": [
    {
      "eps": 0.1,
      "j": 1,
      "k": 2
    }
  ],
  "rows": [
    {
      "bound": 20.0,
      "e_F": 0.25,
      "e_M": 0.002,
      "eps": 0.1,
      "gap": 1e-20,
      "j": 1,
      "k": 1,
      "lambda_eps": 12.5,
      "lambda_limit": 0.3333333333333333,
      "rank": 1,
      "slack": 7.5
    },
    {
      "bound": 61.0,
      "e_F": 0.5,
      "e_M": 1.0,
      "eps": 0.1,
      "gap": 3e-15,
      "j": 1,
      "k": 2,
      "lambda_eps": 40.125,
      "lambda_limit": 0.6666666666666666,
      "rank": 2,
      "slack": 20.875
    }
  ],
  "version": "0.1.0"
}
"""


def test_result_file_format(tmp_path, params):
    # CSV: ints as they are, floats to 17 significant digits; JSON: sorted
    # keys, two-space indent, shortest float repr; both end in a newline
    rows = [fc.ReportRow(eps=0.1, k=1, j=1, rank=1, lambda_eps=12.5, bound=20.0,
                         slack=7.5, lambda_limit=1 / 3, gap=1e-20, e_F=0.25, e_M=2e-3),
            fc.ReportRow(eps=0.1, k=2, j=1, rank=2, lambda_eps=40.125, bound=61.0,
                         slack=20.875, lambda_limit=2 / 3, gap=3e-15, e_F=0.5, e_M=1.0)]
    report = fc.ConvergenceReport(rows=rows, n_div=16, mu1_exact=92.5,
                                  mu1_discrete=93.0, c_h=0.5,
                                  roots=[], mesh_hash="abc", eig_tol=1e-9,
                                  reorderings=[{"eps": 0.1, "k": 2, "j": 1}])
    report.write_csv(tmp_path / "convergence.csv", "cafe")
    report.write_json(tmp_path / "convergence.json", "cafe")
    assert (tmp_path / "convergence.csv").read_bytes() == CONVERGENCE_CSV.encode()
    assert (tmp_path / "convergence.json").read_bytes() == CONVERGENCE_JSON.encode()

    roots = fc.limit_eigenvalues(params, 3)
    fc.write_roots_csv(roots, params, tmp_path / "limit_roots.csv", "cafe")
    lines = (tmp_path / "limit_roots.csv").read_text().split("\n")
    assert lines == ["# config_hash=cafe", "j,gamma_j,lambda_k,S,delta_check"] + [
        f"{root.j},{root.gamma_j:.17g},{root.lam:.17g},{root.mean_u0:.17g},"
        f"{fc.delta(root.lam, params):.17g}" for root in roots] + [""]
