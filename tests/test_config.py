import pytest

from gridcap.acopf import SolverOptions
from gridcap.config import ConfigError, load_config, parse_config, solver_options_from


def test_parse_key_value_lines():
    text = """
    # solver knobs
    feas_tol = 1e-7
    max_iter = 150   # inline comment
    voll_rate = 2500
    """
    cfg = parse_config(text)
    assert cfg == {"feas_tol": 1e-7, "max_iter": 150, "voll_rate": 2500.0}
    assert isinstance(cfg["max_iter"], int)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("feas_tol 1e-7")


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError, match="not numeric"):
        parse_config("feas_tol = tight")


def test_defaults_when_empty():
    opts = solver_options_from({})
    assert opts == SolverOptions()


def test_flag_overrides_beat_config():
    opts = solver_options_from(
        {"feas_tol": 1e-7, "max_iter": 150},
        overrides={"max_iter": 99, "kkt_tol": None},
    )
    assert opts.feas_tol == 1e-7  # from config
    assert opts.max_iter == 99  # flag wins
    assert opts.kkt_tol == SolverOptions().kkt_tol  # None override ignored


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        solver_options_from({}, overrides={"turbo": 1.0})


def test_unknown_config_keys_ignored():
    opts = solver_options_from({"not_a_knob": 5.0})
    assert opts == SolverOptions()


def test_unknown_config_key_warns_with_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "solver.conf"
    cfg.write_text("feas_tol = 1e-7\nkkt_toll = 1e-3\nmu_init = 0.2\n")
    opts = solver_options_from(load_config(cfg))
    err = capsys.readouterr().err
    assert f"{cfg}, line 2: unknown config key 'kkt_toll'" in err
    assert f"{cfg}, line 3: unknown config key 'mu_init'" in err
    assert "feas_tol" not in err
    assert opts == SolverOptions(feas_tol=1e-7)


def test_malformed_line_names_file(tmp_path):
    cfg = tmp_path / "solver.conf"
    cfg.write_text("max_iter = 50\nfeas_tol 1e-7\n")
    with pytest.raises(ConfigError, match=f"{cfg}, line 2"):
        load_config(cfg)
