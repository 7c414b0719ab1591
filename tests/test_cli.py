"""Tests for the experiment driver: config resolution, outputs, exit codes."""

import hashlib
import json
import math

import pytest

from series_mirage import cli
from series_mirage.cli import ConfigError, main, parse_config
from series_mirage.errors import DivergenceError
from series_mirage.expsum import TimePoly


class TestParseConfig:
    def test_example3_defaults(self):
        cfg = parse_config("example3")
        assert cfg["gamma"] == 2.0
        assert cfg["order"] == 20
        assert cfg["method"] == "all"
        assert (cfg["t0"], cfg["t1"], cfg["t_steps"]) == (0.0, 2.0, 21)

    def test_flag_overrides_default(self):
        cfg = parse_config("example4", overrides={"gamma": -2.0, "order": 5})
        assert cfg["gamma"] == -2.0
        assert cfg["order"] == 5

    def test_order_cap_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("example3", overrides={"order": 100})

    def test_operator_size_cap(self):
        assert parse_config("operator", overrides={"grid_n": 2048})["grid_n"] == 2048
        with pytest.raises(ConfigError, match="grid_n must be <= 2048"):
            parse_config("operator", overrides={"grid_n": 2049})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            parse_config("example9")

    def test_unused_flag_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("classify", overrides={"gamma": 1.0})

    def test_grid_power_of_two(self):
        with pytest.raises(ConfigError):
            parse_config("nls-reference", overrides={"grid_n": 48})

    def test_operator_dimension_not_power_of_two_ok(self):
        cfg = parse_config("operator", overrides={"grid_n": 10})
        assert cfg["grid_n"] == 10

    def test_config_file_then_flags(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"order": 8, "gamma": 1.5}))
        cfg = parse_config("example3", config_file=f, overrides={"order": 6})
        assert cfg["order"] == 6  # flag wins
        assert cfg["gamma"] == 1.5  # file wins over default

    def test_config_file_unknown_key(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"mystery": 1}))
        with pytest.raises(ConfigError):
            parse_config("example3", config_file=f)

    def test_config_file_bad_json(self, tmp_path):
        f = tmp_path / "run.json"
        f.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config("example3", config_file=f)

    @pytest.mark.parametrize("key", ["gamma", "order"])
    def test_numeric_keys_reject_booleans(self, tmp_path, key):
        f = tmp_path / "run.json"
        f.write_text(json.dumps({key: True}))
        with pytest.raises(ConfigError):
            parse_config("example3", config_file=f)

    def test_nls_reference_needs_two_checkpoints(self):
        with pytest.raises(ConfigError):
            parse_config("nls-reference", overrides={"t_steps": 1})
        assert parse_config("nls-reference", overrides={"t_steps": 2})["t_steps"] == 2

    def test_nls_domain_must_fit_plane_wave(self):
        with pytest.raises(ConfigError):
            parse_config("nls-reference", overrides={"grid_L": 7.0})
        cfg = parse_config("nls-reference", overrides={"grid_L": 4 * math.pi, "grid_n": 128})
        assert cfg["grid_L"] == pytest.approx(4 * math.pi)


class TestParamTable:
    def test_every_flag_maps_to_one_entry(self):
        parser = cli.build_parser()
        flags = {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if action.dest not in ("help", "out", "config")
        }
        assert flags == {
            "--method", "--order", "--gamma", "--grid-n", "--n", "--grid-L", "--L",
            "--t0", "--t1", "--t", "--t-steps", "--dt",
        }
        for flag in flags:
            owners = [p.key for p in cli.PARAMS.values() if flag in p.flags]
            assert len(owners) == 1, (flag, owners)

    def test_defaults_are_table_keys_within_range(self):
        for name, experiment in cli.EXPERIMENTS.items():
            for key, value in experiment.defaults.items():
                assert cli.PARAMS[key].coerce(value) == value, (name, key)

    def test_flag_strings_and_file_values_coerce_alike(self):
        order = cli.PARAMS["order"]
        assert order.coerce("7") == order.coerce(7) == order.coerce(7.0) == 7
        for bad in ("7.5", 7.5, "x", None, True, 65, -1):
            with pytest.raises(ConfigError):
                order.coerce(bad)
        grid_L = cli.PARAMS["grid_L"]
        assert grid_L.coerce("2.5") == 2.5
        for bad in ("nan", float("inf"), 0.0, -1.0, False):
            with pytest.raises(ConfigError):
                grid_L.coerce(bad)


class TestMainExitCodes:
    def test_success_writes_files(self, tmp_path, capsys):
        rc = main(["example1", "--order", "6", "--out", str(tmp_path / "e1")])
        assert rc == 0
        for name in ("manifest.json", "terms.csv", "errors.csv"):
            assert (tmp_path / "e1" / name).exists()
        assert "example1" in capsys.readouterr().out

    def test_config_error_exits_one(self, tmp_path, capsys):
        rc = main(["example1", "--order", "100", "--out", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        rc = main(["example1", "--frobnicate"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["nls-reference", "--grid-n", "48"], None),
            (["nls-reference", "--grid-L", "7"], None),
            (["nls-reference", "--t-steps", "1"], None),
            (["example1", "--order", "2.5"], None),
            (["example3", "--gamma", "nan"], None),
            (["gaussian-free", "--n", "4"], None),
            (["operator", "--n", "1"], None),
            (["example3"], {"mystery": 1}),
            (["example3"], {"gamma": True}),
            (["gaussian-free"], {"sigma": 0}),
            (["operator", "--n", "20000"], None),
        ],
    )
    def test_config_errors_exit_one(self, tmp_path, capsys, argv, config):
        if config is not None:
            f = tmp_path / "run.json"
            f.write_text(json.dumps(config))
            argv = argv + ["--config", str(f)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_under_regular_file_exits_one(self, tmp_path, capsys, sub):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["classify", "--out", str(blocker / sub)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert main(["classify", "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_cross_check_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        def corrupted(u0, eq, order):
            sol = cli.taylor_series(u0, eq, order)
            broken = list(sol.terms)
            broken[1] = TimePoly.from_expsum(broken[1].coeff(1) * 2.0, 1)
            return type(sol)(tuple(broken), sol.equation, sol.method)

        monkeypatch.setitem(
            cli.EXPERIMENTS, "example2",
            cli.Experiment(cli._run_series, cli.EXPERIMENTS["example2"].defaults),
        )
        monkeypatch.setattr(cli, "adm_series", corrupted)
        rc = main(["example2", "--order", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert "cross-check" in capsys.readouterr().err

    def test_relative_cross_check_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        # term 20 of example3 is 1/20! ~ 4e-19: a 1e-9 relative error in it
        # passes the absolute check and must fail the relative one
        taylor = cli.taylor_series

        def corrupted(u0, eq, order):
            sol = taylor(u0, eq, order)
            broken = list(sol.terms)
            broken[20] = TimePoly.from_expsum(broken[20].coeff(20) * (1.0 + 1e-9), 20)
            return type(sol)(tuple(broken), sol.equation, sol.method)

        monkeypatch.setattr(cli, "taylor_series", corrupted)
        rc = main(["example3", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cross-check" in err and "at term 20" in err

    def test_single_method_cross_check_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        # one method alone is still checked, against the closed form
        adm = cli.adm_series

        def corrupted(u0, eq, order):
            sol = adm(u0, eq, order)
            broken = list(sol.terms)
            broken[1] = TimePoly.from_expsum(broken[1].coeff(1) * 2.0, 1)
            return type(sol)(tuple(broken), sol.equation, sol.method)

        monkeypatch.setattr(cli, "adm_series", corrupted)
        rc = main(["example3", "--method", "adm", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cross-check" in err and "adm series and the closed form" in err
        assert "at term 1" in err
        assert not (tmp_path / "terms.csv").exists()

    @pytest.mark.parametrize(
        "argv, term",
        [
            (["example3", "--gamma", "1e300"], "hpm series term 2"),
            (["example4", "--method", "adm", "--gamma", "1e200", "--order", "64"], "adm series term 2"),
        ],
    )
    def test_series_overflow_exits_three(self, tmp_path, capsys, argv, term):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and term in err and "Traceback" not in err

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        def blow_up(state, gamma, dt, steps):
            raise DivergenceError("non-finite field after step 7")

        monkeypatch.setattr(cli, "split_step_nls", blow_up)
        rc = main(["nls-reference", "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["example1", "--t1", "200"], ["operator", "--t", "800"]]
    )
    def test_tail_bound_overflow_exits_three(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_free_propagation_phase_overflow_exits_three(self, tmp_path, capsys):
        # k^2 t overflows at t = 1e308; at t = 1e200 the phase is still finite
        assert main(["gaussian-free", "--t", "1e308", "--out", str(tmp_path / "a")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "k^2 t" in err and "Traceback" not in err
        assert main(["gaussian-free", "--t", "1e200", "--out", str(tmp_path / "b")]) == 0

    def test_tail_bound_amplitude_overflow_exits_three(self, tmp_path, capsys):
        # example1's 2cosh(2x) overflows at x = 400
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"x1": 400.0}))
        assert main(["example1", "--config", str(f), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("config, code", [
        ({"h": 1e-200}, 3),
        ({"h": 1e-160}, 3),
        ({"h": 0.01, "grid_n": 256, "t1": 1e-5}, 0),
        ({"h": 0.001, "t1": 1e-6}, 0),
    ])
    def test_operator_small_spacing(self, tmp_path, capsys, config, code):
        f = tmp_path / "run.json"
        f.write_text(json.dumps(config))
        assert main(["operator", "--config", str(f), "--out", str(tmp_path / "out")]) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("sigma, code", [(1e-300, 3), (1e-200, 3), (1e-160, 2), (1e-3, 2)])
    def test_gaussian_free_small_sigma(self, tmp_path, capsys, sigma, code):
        # sigma^2 underflows (exit 3), or the grid cannot resolve the packet,
        # whose sampled L2 norm is then far from 1 (exit 2); nothing is written
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"sigma": sigma}))
        assert main(["gaussian-free", "--config", str(f), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"sigma={sigma!r}" in err
        assert ("spacing 0.078125" in err and "L2 norm" in err) == (code == 2)
        assert not list((tmp_path / "out").iterdir())


class TestSeriesExperiments:
    def test_example1_terms_cover_methods(self, tmp_path):
        out = tmp_path / "e1"
        assert main(["example1", "--order", "4", "--out", str(out)]) == 0
        lines = (out / "terms.csv").read_text().splitlines()
        assert lines[0] == "method,term,t_power,re_coeff,im_coeff,re_alpha,im_alpha"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"hpm", "adm", "taylor"}

    def test_example3_single_method(self, tmp_path):
        out = tmp_path / "e3"
        assert main(["example3", "--method", "taylor", "--order", "4", "--out", str(out)]) == 0
        lines = (out / "terms.csv").read_text().splitlines()
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"taylor"}

    def test_example4_gamma_flag(self, tmp_path):
        out = tmp_path / "e4"
        assert main(["example4", "--gamma", "-2", "--order", "4", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gamma"] == -2.0

    @pytest.mark.parametrize("gamma", ["-3", "-4", "-6"])
    def test_strong_defocusing_coupling_passes_cross_check(self, tmp_path, gamma):
        # float cancellation in the trinomial sum would put adm 7e-12..4e-7 off hpm
        assert main(["example4", "--gamma", gamma, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("gamma", ["1.000001", "1.001"])
    def test_near_cancelling_coupling_passes_cross_check(self, tmp_path, gamma):
        # a float w'' + g w would cancel to (g - 1) w and lose ~eps/|g - 1|
        assert main(["example3", "--gamma", gamma, "--out", str(tmp_path)]) == 0

    def test_errors_table_has_bound_column(self, tmp_path):
        out = tmp_path / "e2"
        assert main(["example2", "--order", "4", "--out", str(out)]) == 0
        lines = (out / "errors.csv").read_text().splitlines()
        assert lines[0] == "order,time,sup_error,bound"
        assert lines[1].split(",")[3] != ""

    def test_manifest_lists_every_default(self, tmp_path):
        out = tmp_path / "e3"
        assert main(["example3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("method", "order", "gamma", "t0", "t1", "t_steps", "x0", "x1", "x_steps"):
            assert key in manifest
        assert set(manifest["outputs"]) == {"errors.csv", "terms.csv"}


class TestOtherExperiments:
    def test_operator_run(self, tmp_path):
        out = tmp_path / "op"
        assert main(["operator", "--n", "8", "--t", "1", "--order", "20", "--out", str(out)]) == 0
        lines = (out / "errors.csv").read_text().splitlines()
        assert len(lines) == 22  # header + orders 0..20
        last = lines[-1].split(",")
        assert float(last[2]) < 1e-8  # converged well below the bound by N=20
        state = (out / "state.csv").read_text().splitlines()
        assert state[0] == "index,re,im"
        assert len(state) == 9

    def test_gaussian_free_run(self, tmp_path):
        out = tmp_path / "gf"
        assert main(["gaussian-free", "--out", str(out)]) == 0
        state = (out / "state.csv").read_text().splitlines()
        assert state[0].startswith("# L=40.0 n=512 time=1.0")

    def test_nls_reference_run(self, tmp_path):
        out = tmp_path / "nls"
        assert main(["nls-reference", "--t", "0.5", "--out", str(out)]) == 0
        lines = (out / "errors.csv").read_text().splitlines()
        errs = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(errs) < 1e-10  # plane wave tracked to reference accuracy

    def test_classify_run(self, tmp_path):
        out = tmp_path / "cls"
        assert main(["classify", "--out", str(out)]) == 0
        text = (out / "classification.csv").read_text()
        assert "example1,1+2cosh(2x),unbounded" in text
        assert "example2,exp(3ix),bounded-not-l2" in text
        assert "gaussian-packet" in text and "square-integrable" in text

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envout"))
        assert main(["classify"]) == 0
        assert (tmp_path / "envout" / "classification.csv").exists()


#: sha256 of the outputs that are correctly rounded pure Python, hence the same
#: on every platform; errors.csv and state.csv depend on libm and the FFT and
#: are left out
PINNED_SHA256 = {
    ("example1", "terms.csv"): "e66fd6c3b6d51fc9d673c89ef90d4151220987734737fff9ed9a39aada0c334c",
    ("example2", "terms.csv"): "63985cda4d8d0479cc7b91ba469a4d9ba84b3250d0be7d6ab2c403b79583d19d",
    ("example3", "terms.csv"): "c2f653529686a5eb7abc3f41894d8903b40a8d9824f304b415490d966564cf96",
    ("example4", "terms.csv"): "ac5ad31c038ba75b15d69971127ee2390244c893dc76a651647de36edb9d9325",
    ("classify", "classification.csv"): "bc81ac472a4dc1301c919345e58af7a2ae1b8ab8179f3074131f2ee2702371a3",
}


@pytest.mark.parametrize("experiment, name", sorted(PINNED_SHA256))
def test_default_outputs_are_byte_identical_to_pinned(tmp_path, experiment, name):
    assert main([experiment, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == PINNED_SHA256[experiment, name]
