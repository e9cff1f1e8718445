import json
import warnings

import numpy as np
import pytest

import stiefel_dec as sd
from stiefel_dec.cli import main
from stiefel_dec.errors import ConfigError
from stiefel_dec.harness import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INGESTION,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    ExperimentConfig,
    parse_config,
    read_config_echo,
    resolve,
    run_experiment,
    spectral_report,
)

SMALL = dict(
    algorithm="drgta", graph="ring", n=3, t=1, alpha=1.0, schedule="user",
    beta_hat=0.05, d=8, r=2, m=10, gap=0.8, max_iters=20, tol_ds=0, tol_grad=0, seed=5,
)


def quiet_resolve(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return resolve(cfg)


def quiet_run(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(cfg)


class TestParseConfig:
    def test_paper_style_flags_accepted(self):
        cfg = parse_config(
            flags=dict(
                algorithm="drgta", graph="ring", n=32, t=1, alpha=1.0,
                schedule="user", beta_hat=0.05, problem="synthetic",
                d=100, r=5, m=1000, gap=0.8,
            )
        )
        assert cfg.algorithm == "drgta" and cfg.n == 32 and cfg.beta_hat == 0.05

    def test_compact_er_form(self):
        cfg = parse_config(flags=dict(graph="er(0.4)", n=8))
        assert cfg.graph == "er" and cfg.er_p == 0.4

    def test_er_probability_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config(flags=dict(graph="er(1.2)", n=8))
        with pytest.raises(ConfigError):
            parse_config(flags=dict(graph="er", er_p=0.0, n=8))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(flags=dict(momentum=0.9))

    def test_gossip_rounds_key_rejected(self):
        with pytest.raises(ConfigError, match="gossip_rounds"):
            parse_config(flags={"gossip_rounds": True})

    def test_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(algorithm="drdgd", n=4, seed=1)))
        cfg = parse_config(file=path, flags=dict(seed=9))
        assert cfg.algorithm == "drdgd" and cfg.n == 4 and cfg.seed == 9

    def test_bad_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("not json")
        with pytest.raises(ConfigError):
            parse_config(file=path)

    def test_tracking_with_diminishing_warns(self):
        with pytest.warns(RuntimeWarning):
            parse_config(flags=dict(algorithm="drgta", schedule="diminishing"))

    def test_field_validation(self):
        for bad in (
            dict(algorithm="adam"),
            dict(n=1),
            dict(gap=1.5),
            dict(batch_size=0),
            dict(init="warm"),
            dict(problem="dsv"),  # missing data_path
            dict(delta2=0.3),
            dict(tol_ds=-1.0),
        ):
            with pytest.raises(ConfigError):
                parse_config(flags=bad)

    @pytest.mark.parametrize("field", ["max_iters", "max_epochs"])
    def test_error_names_the_wrong_field(self, field):
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            parse_config(flags={field: -1})


class TestResolve:
    def test_auto_t_uses_minimum_rounds(self):
        cfg = parse_config(flags=dict(SMALL, t=0))
        res = quiet_resolve(cfg)
        w = sd.metropolis_weights(sd.ring_graph(cfg.n))
        assert res.t == sd.min_communication_rounds(w)
        assert res.header["t_min"] == res.t

    def test_auto_alpha_uses_cap(self):
        cfg = parse_config(flags=dict(SMALL, alpha=0.0, t=0))
        res = quiet_resolve(cfg)
        assert res.alpha == res.header["alpha_bar"]

    def test_alpha_above_cap_warns_not_fails(self):
        cfg = parse_config(flags=dict(SMALL, t=1, alpha=1.0))
        with pytest.warns(RuntimeWarning, match="alpha"):
            res = resolve(cfg)
        assert res.alpha == 1.0

    def test_deterministic_beta_rescaling(self):
        cfg = parse_config(flags=dict(SMALL))
        res = quiet_resolve(cfg)
        assert np.isclose(res.schedule.base, 0.05 / 10.0)

    def test_stochastic_beta_rescaling(self):
        cfg = parse_config(flags=dict(SMALL, algorithm="drsgd", max_epochs=200))
        res = quiet_resolve(cfg)
        assert np.isclose(res.schedule.base, 0.05 / (10.0 * np.sqrt(200.0)))

    def test_raw_beta_scale(self):
        cfg = parse_config(flags=dict(SMALL, beta_scale="raw", beta_hat=3e-3))
        res = quiet_resolve(cfg)
        assert res.schedule.base == 3e-3

    def test_mix_rounds_carry_t(self):
        res = quiet_resolve(parse_config(flags=dict(SMALL, t=2)))
        assert res.t == res.mix_rounds == 2
        assert np.array_equal(res.mix_matrix.w, sd.metropolis_weights(res.graph).w)

    def test_constant_schedule_estimates_xi(self):
        cfg = parse_config(flags=dict(SMALL, algorithm="drsgd", schedule="constant"))
        res = quiet_resolve(cfg)
        assert res.constants.xi > 0.0 and res.constants.xi_is_estimate
        assert "xi_estimate" in res.header

    def test_shared_init_is_exact_consensus(self):
        cfg = parse_config(flags=dict(SMALL))
        res = quiet_resolve(cfg)
        assert res.swarm0.consensus_error_sq == 0.0

    def test_independent_init_spreads(self):
        cfg = parse_config(flags=dict(SMALL, init="independent"))
        res = quiet_resolve(cfg)
        assert res.swarm0.consensus_error_sq > 1e-3


class TestRunExperiment:
    def test_csv_schema_and_row_count(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = parse_config(flags=dict(SMALL, out=str(out)))
        outcome = quiet_run(cfg)
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == CSV_HEADER
        assert len(body) - 1 == len(outcome.result.records)
        assert len(outcome.result.records) == cfg.max_iters + 1
        assert any(l.startswith("# config: ") for l in comments)
        assert any("sigma2" in l for l in comments if l.startswith("# constants:"))

    def test_empty_cells_for_missing_values(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = parse_config(
            flags=dict(algorithm="drcs", graph="ring", n=4, d=8, r=2,
                       max_iters=5, tol_consensus=0, seed=3, out=str(out))
        )
        quiet_run(cfg)
        first_row = out.read_text().splitlines()[4].split(",")
        # grad_norm_sq, f_bar, ds_oracle empty on consensus runs; elapsed off
        assert first_row[3] == "" and first_row[4] == "" and first_row[5] == ""
        assert first_row[7] == ""

    def test_timing_flag_fills_elapsed(self, tmp_path):
        out = tmp_path / "t.csv"
        cfg = parse_config(flags=dict(SMALL, max_iters=2, timing=True, out=str(out)))
        quiet_run(cfg)
        last = out.read_text().splitlines()[-1].split(",")
        assert last[7] != "" and float(last[7]) >= 0.0

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "d.csv"
        cfg = parse_config(flags=dict(SMALL, algorithm="drsgd", max_epochs=3, out=str(out)))
        quiet_run(cfg)
        first = out.read_bytes()
        quiet_run(cfg)
        assert out.read_bytes() == first

    def test_config_echo_round_trip(self, tmp_path):
        out = tmp_path / "e.csv"
        cfg = parse_config(flags=dict(SMALL, out=str(out)))
        quiet_run(cfg)
        first = out.read_bytes()
        echoed = read_config_echo(out)
        cfg2 = parse_config(flags=echoed)
        assert cfg2 == cfg
        quiet_run(cfg2)  # writes to the same path recorded in the echo
        assert out.read_bytes() == first

    def test_not_converged_reports_code_5_but_writes_log(self, tmp_path):
        out = tmp_path / "n.csv"
        cfg = parse_config(flags=dict(SMALL, max_iters=3, tol_ds=1e-8, tol_grad=1e-8, out=str(out)))
        outcome = quiet_run(cfg)
        assert outcome.code == EXIT_NO_CONVERGENCE
        assert out.exists() and len(out.read_text().splitlines()) == 4 + 4

    def test_monotone_consensus_decrease(self, tmp_path):
        cfg = parse_config(
            flags=dict(algorithm="drcs", graph="ring", n=4, d=10, r=2, max_iters=100, seed=2)
        )
        outcome = quiet_run(cfg)
        assert outcome.code == EXIT_OK and outcome.result.stop == "consensus_tol"
        errs = [rec.consensus_err_sq for rec in outcome.result.records]
        assert all(b <= a + 1e-18 for a, b in zip(errs, errs[1:]))


class TestSpectralReport:
    def test_ring4_values(self):
        cfg = parse_config(flags=dict(graph="ring", n=4, r=1))
        text = spectral_report(cfg)
        lines = dict(l.split(" ", 1) for l in text.splitlines())
        assert lines["sigma2"] == "0.333333333333"
        assert lines["t_min"] == "2"
        assert lines["t"] == "2"
        assert abs(float(lines["L_t"]) - 8.0 / 9.0) <= 1e-12
        assert abs(float(lines["mu_t"]) - 8.0 / 9.0) <= 1e-12
        assert lines["alpha_bar"] == "1"

    def test_complete_graph(self):
        cfg = parse_config(flags=dict(graph="complete", n=6, r=2))
        lines = dict(l.split(" ", 1) for l in spectral_report(cfg).splitlines())
        assert float(lines["sigma2"]) <= 1e-12
        assert lines["t_min"] == "1"

    def test_rho_in_unit_interval(self):
        for flags in (
            dict(graph="ring", n=8, r=3),
            dict(graph="er(0.5)", n=12, r=2, seed=3),
            dict(graph="complete", n=5, r=1),
        ):
            lines = dict(
                l.split(" ", 1) for l in spectral_report(parse_config(flags=flags)).splitlines()
            )
            assert 0.0 < float(lines["rho_t"]) < 1.0


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(
            [
                "run", "--algorithm", "drgta", "--graph", "ring", "--n", "3",
                "--t", "1", "--alpha", "1", "--beta-hat", "0.05", "--d", "8",
                "--r", "2", "--m", "10", "--gap", "0.8", "--max-iters", "10",
                "--tol-ds", "0", "--tol-grad", "0", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.exists()
        assert "drgta" in capsys.readouterr().out

    def test_config_error_is_2(self, capsys):
        code = main(["run", "--graph", "er(1.2)", "--n", "8"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_ingestion_error_is_3(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1,2\n3,4\n5,x\n")
        code = main(
            ["run", "--algorithm", "drdgd", "--problem", "dsv", "--data", str(data),
             "--n", "2", "--r", "1", "--max-iters", "2"]
        )
        assert code == EXIT_INGESTION
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_data_is_3(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("1,2\n3,4\n5,nan\n6,7\n")
        code = main(
            ["run", "--algorithm", "drdgd", "--problem", "dsv", "--data", str(data),
             "--n", "2", "--r", "1", "--max-iters", "2"]
        )
        assert code == EXIT_INGESTION
        assert "line 3: non-finite field 'nan'" in capsys.readouterr().err

    def test_gossip_rounds_is_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gossip-rounds"])
        assert exc.value.code == EXIT_CONFIG
        # an old config or log echo that still carries the key
        cfg_file = tmp_path / "old.json"
        cfg_file.write_text(json.dumps(dict(algorithm="drcs", gossip_rounds=False)))
        assert main(["run", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert "gossip_rounds" in capsys.readouterr().err

    def test_degenerate_mean_is_4(self, capsys):
        # find a seed whose two independent 1-d draws are antipodal
        seed = next(
            s for s in range(100)
            if sd.random_stiefel(1, 1, np.random.default_rng([s, 1, 0])).data[0, 0]
            != sd.random_stiefel(1, 1, np.random.default_rng([s, 1, 1])).data[0, 0]
        )
        code = main(
            ["run", "--algorithm", "drcs", "--graph", "ring", "--n", "2",
             "--d", "1", "--r", "1", "--init", "independent",
             "--delta2", "0.1666", "--max-iters", "3", "--seed", str(seed)]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical error" in capsys.readouterr().err

    def test_no_convergence_is_5(self, tmp_path):
        out = tmp_path / "nc.csv"
        code = main(
            ["run", "--algorithm", "drgta", "--graph", "ring", "--n", "3",
             "--t", "1", "--alpha", "1", "--beta-hat", "0.05", "--d", "8",
             "--r", "2", "--m", "10", "--max-iters", "3", "--seed", "5",
             "--out", str(out)]
        )
        assert code == EXIT_NO_CONVERGENCE and out.exists()

    def test_consensus_subcommand(self, tmp_path):
        out = tmp_path / "cons.csv"
        code = main(
            ["consensus", "--graph", "ring", "--n", "4", "--d", "8", "--r", "2",
             "--max-iters", "100", "--seed", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert read_config_echo(out)["algorithm"] == "drcs"

    def test_spectral_subcommand(self, capsys):
        code = main(["spectral", "--graph", "ring", "--n", "4", "--r", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sigma2 0.333333333333" in out and "t_min 2" in out

    def test_oracle_subcommand(self, tmp_path, capsys):
        dest = tmp_path / "oracle.txt"
        code = main(
            ["oracle", "--n", "3", "--d", "8", "--r", "2", "--m", "10", "--gap", "0.8",
             "--seed", "1", "--out", str(dest)]
        )
        assert code == EXIT_OK
        mat = np.loadtxt(dest, comments="#")
        assert mat.shape == (8, 2)
        assert np.abs(mat.T @ mat - np.eye(2)).max() <= 1e-12

    def test_dsv_problem_end_to_end(self, tmp_path):
        rng = np.random.default_rng(31)
        data = tmp_path / "blocks.csv"
        rows = rng.standard_normal((25, 6))
        data.write_text("\n".join(",".join(f"{v:.8f}" for v in row) for row in rows))
        out = tmp_path / "dsv.csv"
        code = main(
            ["run", "--algorithm", "drdgd", "--problem", "dsv", "--data", str(data),
             "--n", "3", "--r", "2", "--t", "1", "--alpha", "1", "--beta-hat", "0.05",
             "--max-iters", "30", "--tol-ds", "0", "--tol-grad", "0",
             "--seed", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        echo = read_config_echo(out)
        assert echo["problem"] == "dsv" and echo["data_path"] == str(data)
        # 25 rows over 3 agents: mean sample count (9+8+8)/3, beta rescaled by it
        constants_line = next(
            l for l in out.read_text().splitlines() if l.startswith("# constants:")
        )
        header = json.loads(constants_line[len("# constants: "):])
        assert np.isclose(header["mean_m"], 25.0 / 3.0)
        assert np.isclose(header["beta"], 0.05 / (25.0 / 3.0))

    def test_consensus_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(graph="ring", n=4, d=8, r=2, max_iters=50, seed=2)))
        out = tmp_path / "file.csv"
        code = main(["consensus", "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_OK and out.exists()
