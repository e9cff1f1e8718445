import errno
import inspect
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from stiefel_dec import algorithms, cli, errors, harness, manifold, network, problems
from stiefel_dec.cli import main
from stiefel_dec.errors import ConfigError
from stiefel_dec.harness import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_INGESTION,
    EXIT_INTERRUPTED,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    ExperimentConfig,
    ResolvedExperiment,
    parse_config,
    resolve,
    run_experiment,
    spectral_report,
)

SMALL = dict(
    algorithm="drgta", graph="ring", n=3, t=1, alpha=1.0, schedule="user",
    beta_hat=0.05, d=8, r=2, m=10, gap=0.8, max_iters=20, tol_ds=0, tol_grad=0, seed=5,
)

# the exit code and stderr prefix of each error class raised from a run
CLI_OUTCOMES = {
    errors.StiefelDecError: (EXIT_CONFIG, "error: "),
    errors.ParameterError: (EXIT_CONFIG, "error: "),
    errors.ConfigError: (EXIT_CONFIG, "config error: "),
    errors.IngestionError: (EXIT_INGESTION, "ingestion error: "),
    errors.NumericalError: (EXIT_NUMERICAL, "numerical error: "),
}


def quiet_resolve(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return resolve(cfg)


def quiet_run(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_experiment(cfg)


def config_echo(path) -> dict:
    """The resolved config a log echoes on its '# config:' header line."""
    line = next(l for l in Path(path).read_text(encoding="utf-8").splitlines() if l.startswith("# config: "))
    return json.loads(line[len("# config: "):])


def log_rows(path) -> list:
    """The complete rows of a CSV log, as far as they are on disk."""
    lines = path.read_text(encoding="utf-8").split("\n") if path.exists() else []
    return lines[4:-1]  # after the # lines and the column line; the last piece is unterminated


def write_rows(path, scale):
    """Write 25 comma-separated Gaussian rows of width 6, times scale; return them."""
    rows = np.random.default_rng(31).standard_normal((25, 6)) * scale
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    return rows


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

    def test_er_p_beside_the_compact_er_form_must_agree(self, capsys):
        assert parse_config(flags=dict(graph="er(0.3)", er_p=0.3)).er_p == 0.3
        with pytest.raises(ConfigError, match=r"^er_p: got 0\.5, but graph 'er\(0\.3\)' sets 0\.3$"):
            parse_config(flags=dict(graph="er(0.3)", er_p=0.5))
        assert main(["spectral", "--graph", "er(0.3)", "--er-p", "0.5"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: er_p: got 0.5, but graph 'er(0.3)' sets 0.3\n"

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

    @pytest.mark.parametrize("field", sorted(harness.CHOICES))
    def test_value_outside_its_choices_is_rejected(self, field):
        message = f"{field}: must be one of {harness.CHOICES[field]}, got 'bogus'"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(flags={field: "bogus"})

    @pytest.mark.parametrize("field", ["max_iters", "max_epochs", "seed"])
    def test_error_names_the_wrong_field(self, field):
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            parse_config(flags={field: -1})

    @pytest.mark.parametrize(
        "flags,message",
        [
            (dict(n=8.0), "n: must be an integer, got 8.0"),
            (dict(n=True), "n: must be an integer, got True"),
            (dict(alpha="1"), "alpha: must be a number, got '1'"),
            (dict(timing=1), "timing: must be a boolean, got 1"),
            (dict(out=3), "out: must be a string, got 3"),
        ],
    )
    def test_mistyped_value_names_its_field(self, flags, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(flags=flags)

    def test_optional_fields_take_none_and_floats_take_ints(self):
        cfg = parse_config(flags=dict(out=None, tol_ds=None, alpha=1, er_p=1))
        assert cfg.out is None and cfg.tol_ds is None and cfg.alpha == 1

    @pytest.mark.parametrize(
        "flags,message",
        [
            (dict(batch_size=0), "batch_size: must be positive, got 0"),
            (dict(t=-1), "t: must be >= 0 (0 = auto), got -1"),
            (dict(tol_ds=-1.0), "tol_ds: must be >= 0, got -1.0"),
            (dict(max_iters=2**53 + 1), "max_iters: must be <= 9007199254740992, got 9007199254740993"),
            (dict(max_epochs=10**400), f"max_epochs: must be <= 9007199254740992, got {10**400}"),
            # the consensus region takes sqrt(r), which a DSV problem reaches without r <= d
            (dict(problem="dsv", data_path="in.csv", r=10**400), f"r: must be <= 9007199254740992, got {10**400}"),
        ],
        ids=["positive", "auto", "nonnegative", "max-iters-above", "max-epochs-1e400", "r-1e400"],
    )
    def test_declared_bound_names_its_field(self, flags, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(flags=flags)

    def test_perturb_beside_independent_starts_is_rejected(self):
        # the nudge moves the shared start; independent starts would silently ignore it
        message = "perturb: nudges the shared start, which init 'independent' does not use; got 0.5"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(flags=dict(init="independent", perturb=0.5))
        assert parse_config(flags=dict(init="independent", perturb=0.0)).perturb == 0.0

    def test_round_caps_and_r_take_every_count_a_float_holds_exactly(self):
        cfg = parse_config(flags=dict(max_iters=2**53, max_epochs=2**53, r=2**53, d=2**53, m=2**53))
        assert cfg.max_iters == cfg.max_epochs == cfg.r == harness.MAX_COUNT


def field_flag(f) -> str:
    """The flag a config field is declared with: --name, and --data for data_path."""
    return "--data" if f.name == "data_path" else "--" + f.name.replace("_", "-")


def field_sample(f) -> tuple:
    """(flag text or None for a switch, value) of a value of field f other than its
    default, which a config with a data_path takes on its own."""
    kind = f.type.partition(" | ")[0]
    if kind == "bool":
        return None, True
    if f.metadata["choices"]:
        value = next(c for c in f.metadata["choices"] if c != f.default)
        return value, value
    if kind == "int":
        return str(f.default + 1), f.default + 1
    if kind == "float":
        value = (f.default or 1.0) / 2.0
        return repr(value), value
    return "in.csv", "in.csv"


class TestFieldTable:
    """The CLI parser against the ExperimentConfig declarations it is built from."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("f", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_flag_gives_its_value_on_the_declared_commands_only(self, capsys, f):
        # and is rejected elsewhere, as spectral --out and oracle --algorithm are
        parser = cli.build_parser()
        text, value = field_sample(f)
        for command in harness.COMMANDS:
            argv = [command, field_flag(f)] + ([] if text is None else [text])
            if command not in f.metadata["commands"]:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
                assert "unrecognized arguments" in capsys.readouterr().err
                continue
            flags = {k: v for k, v in vars(parser.parse_args(argv)).items() if k not in ("command", "config")}
            assert flags == {f.name: value}
            assert getattr(parse_config(flags=dict(dict(data_path="in.csv"), **flags)), f.name) == value


class TestResolve:
    def test_auto_t_uses_minimum_rounds(self):
        cfg = parse_config(flags=dict(SMALL, t=0))
        res = quiet_resolve(cfg)
        w = network.metropolis_weights(network.ring_graph(cfg.n))
        assert res.t == network.min_communication_rounds(w)
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

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("rule, flags", [
        ("drgta_max_stepsize", dict(algorithm="drgta")),
        ("drsgd_diminishing_schedule", dict(algorithm="drsgd", schedule="diminishing")),
        ("drsgd_constant_schedule", dict(algorithm="drsgd", schedule="constant")),
    ])
    def test_theory_reads_alpha_clamped_to_alpha_bar(self, monkeypatch, rule, flags, alpha):
        # one alpha policy: the run keeps its alpha, warned of above alpha_bar; the header's
        # rho_t and every stepsize rule read alpha clamped to alpha_bar, and rho_t there
        seen = {}
        rule_fn = getattr(harness, rule)

        def spy(*args, **kwargs):
            seen.update(inspect.signature(rule_fn).bind(*args, **kwargs).arguments)
            return rule_fn(*args, **kwargs)

        monkeypatch.setattr(harness, rule, spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = resolve(parse_config(flags=dict(SMALL, alpha=alpha, **flags)))
        rate = network.consensus_rate_params(res.mix_matrix, manifold.ConsensusRegionParams(r=SMALL["r"]))
        assert 0.5 < rate.alpha_bar < 1.0 and res.alpha == res.header["alpha"] == alpha
        warned = [w for w in caught if str(w.message).startswith("alpha = 1 exceeds the theoretical cap")]
        assert len(warned) == (alpha > rate.alpha_bar)
        assert seen["alpha"] == min(alpha, rate.alpha_bar)
        assert res.header["rho_t"] == seen["rho_t"] == rate.rho(min(alpha, rate.alpha_bar))

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

    def test_mix_matrix_is_w_to_the_t(self):
        # the set-up hands the run W^t itself, to be mixed with once per gossip step; the
        # one round per step is a class constant, not a field a resolve could set
        res = quiet_resolve(parse_config(flags=dict(SMALL, t=2)))
        assert res.t == 2 and res.mix_rounds == 1
        assert "mix_rounds" not in {f.name for f in fields(ResolvedExperiment)}
        assert np.array_equal(res.mix_matrix.w, network.matrix_power(network.metropolis_weights(res.graph), 2).w)

    @pytest.mark.parametrize("build, flags", [
        (quiet_resolve, dict(SMALL, t=1)),
        (spectral_report, dict(graph="complete", n=6)),  # t = t_min = 1
    ], ids=["resolve-drgta-t1", "spectral-complete6"])
    def test_t1_setup_builds_one_mixing_matrix(self, monkeypatch, build, flags):
        # W^1 is W: the rate report and the run read the Metropolis matrix itself
        built = []

        def counting(self, _orig=network.MixingMatrix.__post_init__):
            built.append(self)
            _orig(self)

        monkeypatch.setattr(network.MixingMatrix, "__post_init__", counting)
        build(parse_config(flags=flags))
        assert len(built) == 1

    def test_constant_schedule_estimates_xi(self):
        cfg = parse_config(flags=dict(SMALL, algorithm="drsgd", schedule="constant"))
        res = quiet_resolve(cfg)
        assert res.header["xi_estimate"] > 0.0

    def test_shared_init_is_exact_consensus(self):
        cfg = parse_config(flags=dict(SMALL))
        res = quiet_resolve(cfg)
        assert res.swarm0.consensus_error_sq == 0.0

    def test_independent_init_spreads(self):
        cfg = parse_config(flags=dict(SMALL, init="independent"))
        res = quiet_resolve(cfg)
        assert res.swarm0.consensus_error_sq > 1e-3

    # the constants line of each algorithm's log, key for key: a key that nothing reads
    # cannot come back unnoticed
    RATES = ["alpha", "alpha_bar", "delta1", "delta2", "gamma_t", "l_t", "mu_t", "rho_t", "sigma2", "t", "t_min"]
    PROBLEM = RATES + ["beta", "d_bound", "l_big", "l_g", "mean_m", "schedule"]

    @pytest.mark.parametrize("flags,keys", [
        (dict(algorithm="drcs"), RATES),
        (dict(algorithm="drdgd"), PROBLEM),
        (dict(algorithm="drsgd", schedule="constant"), PROBLEM + ["xi_estimate"]),
        (dict(algorithm="drgta", schedule="user"), PROBLEM + ["beta_bar"]),
    ])
    def test_header_keys(self, flags, keys):
        assert sorted(quiet_resolve(parse_config(flags=dict(SMALL, **flags))).header) == sorted(keys)

    @pytest.mark.parametrize("init", ["shared", "independent"])
    def test_shared_start_is_drawn_once(self, init, monkeypatch):
        entropies = []

        def counting(d, r, rng):
            entropies.append(rng.bit_generator.seed_seq.entropy)
            return manifold.random_stiefel(d, r, rng)

        monkeypatch.setattr(harness, "random_stiefel", counting)
        cfg = parse_config(flags=dict(SMALL, algorithm="drsgd", schedule="constant", init=init))
        res = quiet_resolve(cfg)
        shared = [cfg.seed, 1]
        assert entropies.count(shared) == 1
        assert len(entropies) == 1 + (cfg.n if init == "independent" else 0)
        # xi is estimated at the shared point, wherever the swarm starts
        x0 = manifold.random_stiefel(cfg.d, cfg.r, np.random.default_rng(shared))
        assert res.header["xi_estimate"] == problems.estimate_xi(res.locals_, x0, np.random.default_rng([cfg.seed, 3]))
        assert all(np.array_equal(x, x0.data) == (init == "shared") for x in res.swarm0.x)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_independent_starts_are_distinct(self, seed):
        # SeedSequence zero-pads its entropy: an agent stream [seed, 1, 0] would be the shared [seed, 1]
        cfg = parse_config(flags=dict(SMALL, init="independent", seed=seed))
        x0 = manifold.random_stiefel(cfg.d, cfg.r, np.random.default_rng([seed, 1]))
        starts = [*quiet_resolve(cfg).swarm0.x, x0.data]
        assert len(starts) == cfg.n + 1
        assert not any(np.array_equal(a, b) for a, b in itertools.combinations(starts, 2))


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

    def test_streamed_log_is_the_write_csv_of_its_records(self, tmp_path):
        # the rows written as the run goes are the bytes write_csv gives the finished records
        out, batch = tmp_path / "s.csv", tmp_path / "b.csv"
        cfg = parse_config(flags=dict(SMALL, algorithm="drsgd", max_epochs=3, out=str(out)))
        outcome = quiet_run(cfg)
        harness.write_csv(batch, cfg, quiet_resolve(cfg).header, outcome.result.records)
        assert out.read_bytes() == batch.read_bytes()

    def test_config_echo_round_trip(self, tmp_path):
        out = tmp_path / "e.csv"
        cfg = parse_config(flags=dict(SMALL, out=str(out)))
        quiet_run(cfg)
        first = out.read_bytes()
        echoed = config_echo(out)
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

    def test_diminishing_tracking_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(parse_config(flags=dict(SMALL, schedule="diminishing", max_iters=2)))
        texts = [str(w.message) for w in caught]
        assert sum("designed for a constant stepsize" in t for t in texts) == 1

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
        assert [l.split(" ", 1)[0] for l in text.splitlines()] == [
            "n", "edges", "sigma2", "lambda_min", "t_min", "rho_t",  # rho_t at t_min, alpha_bar
            "t", "L_t", "mu_t", "alpha_bar", "gamma_t", "rho_t",
        ]
        assert lines["n"] == "4"
        assert lines["edges"] == "0-1 0-3 1-2 2-3"
        assert lines["lambda_min"] == "-0.333333333333"
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

    @pytest.mark.parametrize(
        "value,message",
        [
            ({"n": 8.0}, "n: must be an integer, got 8.0"),
            ({"seed": 1.5}, "seed: must be an integer, got 1.5"),
            ({"t": "1"}, "t: must be an integer, got '1'"),
            ({"perturb": float("nan")}, "perturb: must be finite, got nan"),  # json writes NaN
            ({"seed": -1}, "seed: must be >= 0, got -1"),
            ({"graph": 5}, "graph: must be a string, got 5"),  # not parsed as 'er(p)' first
        ],
    )
    def test_mistyped_config_file_value_is_2(self, tmp_path, capsys, value, message):
        cfg_file = tmp_path / "f.json"
        cfg_file.write_text(json.dumps(value))
        assert main(["run", "--config", str(cfg_file), "--max-iters", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "flag,value",
        [("--alpha", "nan"), ("--tol-ds", "nan"), ("--tol-grad", "nan"), ("--beta-hat", "nan"),
         ("--beta-hat", "inf"), ("--er-p", "inf"), ("--divisor", "nan")],
    )
    def test_non_finite_float_is_2(self, tmp_path, capsys, flag, value):
        # nan fails no range test: --alpha nan would run at alpha_bar, --tol-ds nan never stop
        out = tmp_path / "o.csv"
        assert main(["run", flag, value, "--max-iters", "3", "--out", str(out)]) == EXIT_CONFIG
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"config error: {field}: must be finite, got {float(value)!r}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_t_is_2_naming_t(self, tmp_path, capsys):
        # W^t by repeated squaring drifts from doubly stochastic by about t * eps; on the
        # default ring t = 3e5 still stays within the 1e-12 row-sum check and 1e6 does not
        assert main(["spectral", "--t", "300000"]) == EXIT_OK
        assert "t 300000" in capsys.readouterr().out.splitlines()
        out = tmp_path / "o.csv"
        for command in (["spectral"], ["run", "--max-iters", "3", "--out", str(out)]):
            assert main(command + ["--t", "1000000"]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: t: W^1000000 is not doubly stochastic in floating point "
                "(mixing matrix rows do not sum to 1); use a smaller t\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize("n", ["8193", "200000", "100000000"])
    def test_agent_count_above_the_dense_w_cap_is_2_naming_n(self, tmp_path, capsys, monkeypatch, n):
        # rejected before any graph or W is built: a dense W at n = 2e5 would be 298 GiB,
        # and n = 1e8 would first build 1e8 ring edges
        def unreachable(*args, **kwargs):
            raise AssertionError("built a graph for a rejected config")

        for owner, name in ((harness, "ring_graph"), (harness, "metropolis_weights"), (harness, "resolve"),
                            (cli, "spectral_report")):
            monkeypatch.setattr(owner, name, unreachable)
        out = tmp_path / "o.csv"
        for command in (["spectral"], ["run", "--d", "2", "--r", "1", "--m", "1", "--max-iters", "1", "--out", str(out)]):
            assert main(command + ["--n", n]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: n: at most 8192 agents (the mixing matrix is a dense n x n array), got {n}\n"
            )
        assert not out.exists()
        assert ExperimentConfig(n=harness.MAX_AGENTS).n == 8192  # the cap itself is accepted

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unallocatable_problem_is_2_naming_its_sizes(self, tmp_path, capsys):
        # the draw of n m = 8e11 rows of d = 30 is 175 TiB, more than the address space:
        # malloc refuses it at once, so no test process comes near the memory limit
        out = tmp_path / "o.csv"
        for command in (["run", "--max-iters", "1", "--out", str(out)], ["oracle"]):
            assert main(command + ["--m", "100000000000"]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: n, m, d: n=8, m=100000000000, d=30: the problem's arrays cannot "
                                  "be allocated (Unable to allocate 175. TiB")
            assert "Traceback" not in err
        assert not out.exists()

    def test_unallocatable_dsv_problem_is_2_naming_n_and_the_data(self, tmp_path, capsys, monkeypatch):
        # wide rows whose (n, d, d) Gram stack malloc refuses, stood in for by the error it raises
        def refused(*args):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(harness, "load_dsv_partition", refused)
        assert main(["oracle", "--problem", "dsv", "--data", "wide.csv", "--n", "2", "--r", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: n, data_path: n=2: the problem's arrays cannot be allocated (Unable to allocate 14.6 TiB)\n"
        )

    def test_unallocatable_drcs_start_is_2_naming_n_d_and_r(self, tmp_path, capsys, monkeypatch):
        # drcs builds no problem: the shared start of 1e12 x 1 doubles is 7.28 TiB, which
        # malloc refuses at once; the swarm's (n, d, r) draw after it is covered too
        out = tmp_path / "o.csv"
        command = ["run", "--algorithm", "drcs", "--r", "1", "--max-iters", "1", "--out", str(out)]
        assert main(command + ["--d", "1000000000000"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: n, d, r: n=8, d=1000000000000, r=1: the start's arrays cannot "
                              "be allocated (Unable to allocate 7.28 TiB")
        assert "Traceback" not in err

        def refused(*args):
            raise MemoryError("Unable to allocate 2.00 TiB")

        monkeypatch.setattr(harness, "perturbed_swarm", refused)
        assert main(command + ["--d", "30"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: n, d, r: n=8, d=30, r=1: the start's arrays cannot be allocated (Unable to allocate 2.00 TiB)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,message",
        [
            (["run", "--m", "10000000000000000"],
             "n, m, d: n=8, m=10000000000000000, d=30: the problem's arrays cannot be allocated "
             "(19200000000000000000 bytes, past numpy's largest array)"),
            (["oracle", "--m", "100000000000000000"],
             "n, m, d: n=8, m=100000000000000000, d=30: the problem's arrays cannot be allocated "
             "(192000000000000000000 bytes, past numpy's largest array)"),
            (["run", "--algorithm", "drcs", "--d", "1000000000000000000000", "--r", "1"],
             "n, d, r: n=8, d=1000000000000000000000, r=1: the start's arrays cannot be allocated "
             "(64000000000000000000000 bytes, past numpy's largest array)"),
        ],
        ids=["m-1e16", "oracle-m-1e17", "drcs-d-1e21"],
    )
    def test_sizes_past_numpys_largest_array_are_2(self, tmp_path, capsys, command, message):
        # numpy refuses these with a ValueError (array is too big, maximum dimension
        # exceeded) before malloc sees them; the byte count is checked first
        out = tmp_path / "o.csv"
        assert main(command + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--algorithm", "drsgd", "--max-epochs"],
        ["run", "--algorithm", "drdgd", "--schedule", "constant", "--max-iters"],
    ], ids=["drsgd-epochs", "drdgd-constant-iters"])
    def test_round_cap_past_the_float_range_is_2(self, tmp_path, capsys, command):
        # the drsgd stepsize takes sqrt(max_epochs) and the constant rule k_max + 1.0
        huge = "1" + "0" * 400
        assert main(command + [huge, "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        name = command[-1][2:].replace("-", "_")
        assert capsys.readouterr().err == f"config error: {name}: must be <= 9007199254740992, got {huge}\n"

    def test_config_file_int_past_the_digit_limit_is_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "f.json"
        cfg_file.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert main(["run", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot read config file: Exceeds the limit")

    def test_synthetic_rows_below_d_are_2_naming_m(self, tmp_path, capsys):
        # n m = 6 rows cannot carry a full spectrum in d = 30; drcs builds no problem, so any m passes
        out = tmp_path / "o.csv"
        for command in (["run", "--max-iters", "1", "--out", str(out)], ["oracle"], ["spectral"]):
            assert main(command + ["--n", "2", "--m", "3", "--d", "30"]) == EXIT_CONFIG
            assert capsys.readouterr().err == "config error: m: need n * m >= d rows for a full spectrum, got n * m = 6 < d = 30\n"
        assert not out.exists()
        assert ExperimentConfig(n=2, m=15, d=30).m == 15  # n m = d is a full spectrum
        assert ExperimentConfig(algorithm="drcs", n=2, m=3, d=30).m == 3

    def test_alpha_with_no_contraction_is_2_naming_alpha(self, tmp_path, capsys):
        # 1 - gamma_t * alpha rounds to 1, so W^t would not contract the swarm at all
        out = tmp_path / "o.csv"
        for command in (["spectral"], ["run", "--max-iters", "3", "--out", str(out)]):
            assert main(command + ["--alpha", "1e-300"]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: alpha: 1e-300 leaves no contraction in floating point "
                "(contraction factor out of range: rho^2 = 1); use a larger alpha\n"
            )
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv, message", [
        ("spectral --delta1 0.5", "delta1: need 0 < delta1 <= delta2/(5 sqrt(r)) = 0.0149071, got 0.5"),
        ("spectral --graph er(0.01) --n 20", "er_p: no connected ER(20, 0.01) sample in 1000 tries"),
        ("spectral --graph er(1e-320) --n 3", "er_p: no connected ER(3, 1e-320) sample in 1000 tries"),
        ("run --algorithm drcs --d 1 --r 1 --n 3 --max-iters 1", "d, r: St(1, 1) has no tangent direction to nudge the start along"),
        ("run --perturb 0.1 --d 1 --r 1 --n 3 --max-iters 1", "d, r: St(1, 1) has no tangent direction to nudge the start along"),
        # the nudged start's retraction fails in one of two ways, and the message says which
        ("run --perturb 1e200 --max-iters 2", "perturb: a nudge of norm 1e+200 overflows in floating point "
         "(retraction step is not finite); use a smaller perturb"),
        ("run --algorithm drcs --d 3 --r 3 --n 4 --perturb 30 --max-iters 3",
         "perturb: a nudge of norm 30.0 is too large to retract accurately (retraction Gram matrix is "
         "ill-conditioned (w_min/w_max = 2.217e-03 <= 7.105e-03)); use a smaller perturb"),
    ], ids=["delta1-above-cap", "er-no-connected-sample", "er-p-subnormal", "drcs-d1-r1", "perturb-d1-r1",
            "perturb-overflow", "perturb-ill-conditioned"])
    def test_set_up_error_names_its_field(self, capsys, argv, message):
        # raised where the set-up builds the region, the graph or the nudged start
        assert main(argv.split()) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("target", ["missing.csv", ".", "latin1.csv"])
    def test_unreadable_data_is_3(self, tmp_path, capsys, monkeypatch, command, target):
        monkeypatch.chdir(tmp_path)  # "." is a directory, missing.csv is not there
        (tmp_path / "latin1.csv").write_bytes("1,2\n3,4\n5,\u00e9\n".encode("latin-1"))
        code = main([command, "--problem", "dsv", "--data", target, "--n", "3", "--r", "2"])
        assert code == EXIT_INGESTION
        err = capsys.readouterr().err
        assert err.startswith(f"ingestion error: cannot read {target}: ") and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,target", [
        (["run", "--max-iters", "1"], "."),
        (["run", "--max-iters", "1"], "nodir/x.csv"),
        (["oracle"], "nodir/x.txt"),
    ])
    def test_unwritable_out_is_2(self, tmp_path, capsys, monkeypatch, command, target):
        monkeypatch.chdir(tmp_path)  # "." is a directory, nodir is not there
        code = main(command + ["--n", "3", "--d", "8", "--r", "2", "--m", "10", "--out", target])
        assert code == EXIT_CONFIG
        reason = os.strerror(errno.EISDIR if target == "." else errno.ENOENT)
        assert capsys.readouterr().err == f"config error: out: cannot write {target}: {reason}\n"

    @pytest.mark.parametrize("command", [["run", "--max-iters", "1"], ["oracle"]])
    def test_empty_out_is_2(self, tmp_path, capsys, monkeypatch, command):
        # an empty path is a path that cannot be written, not "no log", from a flag or a file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.json").write_text('{"out": ""}')
        for source in (["--out", ""], ["--config", "f.json"]):
            assert main(command + ["--n", "3", "--d", "8", "--r", "2", "--m", "10"] + source) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: out: cannot write : {os.strerror(errno.ENOENT)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_unwritable_out_fails_before_the_first_round(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: pytest.fail("ran with an unwritable --out"))
        target = tmp_path / "nodir" / "x.csv"
        code = main(["run", "--n", "3", "--d", "8", "--r", "2", "--m", "10", "--out", str(target)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: out: cannot write {target}: {os.strerror(errno.ENOENT)}\n"

    def test_log_header_is_on_disk_when_run_starts(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.csv"
        out.write_text("an older log\n")  # replaced when the run opens its log
        seen = []

        def stop(*args, **kwargs):
            seen.append(out.read_text())
            raise errors.ParameterError("stopped")

        monkeypatch.setattr(harness, "run", stop)
        code = main(["run", "--n", "3", "--d", "8", "--r", "2", "--m", "10", "--out", str(out)])
        assert code == EXIT_CONFIG and capsys.readouterr().err == "error: stopped\n"
        lines = seen[0].splitlines()
        assert lines[0] == f"# stiefel-dec {harness.__version__}" and lines[3] == CSV_HEADER
        assert lines[1].startswith("# config: ") and lines[2].startswith("# constants: ")
        assert len(lines) == 4 and out.read_text() == seen[0]

    def test_sigterm_handler_is_set_only_while_main_runs(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "spectral_report", lambda cfg: seen.append(signal.getsignal(signal.SIGTERM)) or "")
        before = signal.getsignal(signal.SIGTERM)
        assert main(["spectral"]) == EXIT_OK
        assert seen == [signal.default_int_handler] and signal.getsignal(signal.SIGTERM) is before
        # off the main thread no handler can be set, and main runs without one
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(["spectral"])))
        worker.start()
        worker.join()
        assert codes == [EXIT_OK] and seen[1] is before and signal.getsignal(signal.SIGTERM) is before

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_signal_exits_130_with_the_rows_so_far(self, tmp_path, signum):
        # a long run signalled once, after its log holds a row; SIGINT is set to its default
        # disposition, which a non-interactive shell's background jobs would have ignored
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parent.parent))
        argv = [sys.executable, "-m", "stiefel_dec.cli", "run", "--tol-ds", "0", "--tol-grad", "0", "--out", "log.csv"]
        (tmp_path / "long").mkdir(), (tmp_path / "capped").mkdir()  # one log name, echoed alike
        long_log, capped_log = tmp_path / "long" / "log.csv", tmp_path / "capped" / "log.csv"
        proc = subprocess.Popen(
            argv + ["--max-iters", "1000000"], cwd=long_log.parent, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 60.0
            while proc.poll() is None and not log_rows(long_log) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert proc.poll() is None and log_rows(long_log), "the run ended or wrote no row in 60 s"
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == EXIT_INTERRUPTED and "Traceback" not in err
        rows = log_rows(long_log)
        k = int(rows[-1].split(",")[0])
        # one interrupted line, after the set-up's stepsize warnings; the log can be one row
        # ahead of the round it names, for a signal between a row's write and run keeping it
        named = [re.fullmatch(r"interrupted: last recorded round (\d+)", l) for l in err.splitlines()]
        assert [m is not None for m in named].count(True) == 1 and named[-1], err
        assert int(named[-1][1]) in (k, k - 1), err
        # the log is the first rows of an uninterrupted run capped at k rounds
        proc = subprocess.run(argv + ["--max-iters", str(k)], cwd=capped_log.parent, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert rows == log_rows(capped_log)
        head, capped_head = (p.read_text().splitlines()[:4] for p in (long_log, capped_log))
        assert head[0] == capped_head[0] and head[2:] == capped_head[2:]
        assert config_echo(long_log) == dict(config_echo(capped_log), max_iters=1000000)

    @pytest.mark.parametrize("error", list(CLI_OUTCOMES), ids=lambda e: e.__name__)
    def test_each_error_class_exits_with_its_code(self, capsys, monkeypatch, error):
        def fail(cfg):
            raise error("boom")

        monkeypatch.setattr(cli, "run_experiment", fail)
        code, prefix = CLI_OUTCOMES[error]
        assert main(["run"]) == code
        assert capsys.readouterr().err == f"{prefix}boom\n"

    def test_one_error_class_per_outcome(self):
        assert {v for v in vars(errors).values() if isinstance(v, type)} == set(CLI_OUTCOMES)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_drsgd_zero_epochs_writes_row_0(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        code = main(["run", "--algorithm", "drsgd", "--max-epochs", "0", "--n", "3", "--d", "8",
                     "--r", "2", "--m", "10", "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE and capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert lines[3] == CSV_HEADER and [line.split(",")[0] for line in lines[4:]] == ["0"]
        # the default drsgd stepsize of a one-epoch run: beta_hat / (sqrt(1) mean_m)
        assert json.loads(lines[2][len("# constants: "):])["beta"] == 0.05 / 10.0

    @pytest.mark.parametrize("scale,divisor", [(1e154, "1"), (1.0, "1e-300")])
    def test_gram_overflow_is_3(self, tmp_path, capsys, scale, divisor):
        data = tmp_path / "big.csv"
        write_rows(data, scale)
        for command in (["run", "--algorithm", "drdgd", "--max-iters", "2"], ["oracle"]):
            code = main(command + ["--problem", "dsv", "--data", str(data), "--n", "3", "--r", "2",
                                   "--divisor", divisor])
            err = capsys.readouterr().err
            assert code == EXIT_INGESTION and "not finite" in err and "--divisor" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algorithm,scale", [("drgta", 1e80), ("drdgd", 1e100)])
    def test_non_finite_metric_row_is_4(self, tmp_path, capsys, algorithm, scale):
        # the gradient norm at the start overflows; near 1e80 l_big is near 1e160, and
        # every drgta header constant computed from it must still be finite
        data, out = tmp_path / "big.csv", tmp_path / "big_log.csv"
        write_rows(data, scale)
        code = main(["run", "--algorithm", algorithm, "--problem", "dsv", "--data", str(data),
                     "--n", "4", "--r", "2", "--max-iters", "5", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical error: round 0: grad_norm_sq is not finite: inf" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 4 and lines[3] == CSV_HEADER
        if algorithm == "drgta":
            constants = json.loads(lines[2][len("# constants: "):])
            assert all(np.isfinite(v) for v in constants.values() if not isinstance(v, str))

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
            if manifold.random_stiefel(1, 1, np.random.default_rng([s, 6, 0])).data[0, 0]
            != manifold.random_stiefel(1, 1, np.random.default_rng([s, 6, 1])).data[0, 0]
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_is_4(self, capsys):
        code = main(["run", "--beta-hat", "1e300", "--beta-scale", "raw", "--max-iters", "20"])
        assert code == EXIT_NUMERICAL
        assert "numerical error: round 1: retraction step is not finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_writes_partial_log(self, tmp_path):
        out = tmp_path / "nf.csv"
        code = main(["run", "--beta-hat", "1e300", "--beta-scale", "raw", "--max-iters", "20",
                     "--out", str(out)])
        assert code == EXIT_NUMERICAL
        lines = out.read_text().splitlines()
        assert len(lines) == 4 + 1 and lines[3] == CSV_HEADER and lines[4].startswith("0,")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lost_orthonormality_is_4_and_writes_partial_log(self, tmp_path, capsys, monkeypatch):
        # from its third call the retraction returns columns off the manifold by 1e-11
        calls = []

        def drifting(x, xi, _orig=algorithms.polar_retract):
            calls.append(None)
            return _orig(x, xi) * (1.0 + 1e-11 * (len(calls) >= 3))

        monkeypatch.setattr(algorithms, "polar_retract", drifting)
        out = tmp_path / "o.csv"
        code = main(["run", "--algorithm", "drdgd", "--max-iters", "10", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical error: round 3: columns are not orthonormal" in capsys.readouterr().err
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == CSV_HEADER and [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mid_epoch_breakdown_is_4_naming_its_round(self, tmp_path, capsys, monkeypatch):
        # the 150th gradient of a default drsgd run (100 steps an epoch) is 1e4 times too
        # large but finite: its retraction Gram matrix stays positive definite, with
        # w_min / w_max about 2.6e-7, so the step raises there, 50 steps before the row
        calls = []

        def huge(x, step, _orig=problems.EigLocal.batch_egrad):
            calls.append(None)
            return _orig(x, step) * (1e4 if len(calls) == 150 else 1.0)

        monkeypatch.setattr(problems.EigLocal, "batch_egrad", staticmethod(huge))
        out = tmp_path / "o.csv"
        code = main(["run", "--algorithm", "drsgd", "--max-epochs", "3", "--out", str(out)])
        assert code == EXIT_NUMERICAL and len(calls) == 150
        err = capsys.readouterr().err
        assert err == ("numerical error: round 2: retraction Gram matrix is ill-conditioned "
                       "(w_min/w_max = 2.649e-07 <= 7.105e-03)\n")
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == CSV_HEADER and [r.split(",")[0] for r in rows[1:]] == ["0", "1"]

    def test_package_import_loads_no_module(self):
        # the CLI can pin BLAS before numpy loads only while the package imports nothing
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parent.parent))
        probe = (
            "import sys, stiefel_dec; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'stiefel_dec.')))); "
            "print(sorted(n for n in vars(stiefel_dec) if not n.startswith('_')))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n"

    def test_non_finite_step_prints_no_overflow_warning(self, tmp_path):
        # numpy's warnings reach stderr only outside pytest's capture, so run the CLI itself
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "stiefel_dec.cli", "run", "--beta-hat", "1e300",
             "--beta-scale", "raw", "--max-iters", "20"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_NUMERICAL
        assert "round 1: retraction step is not finite" in proc.stderr
        assert "overflow" not in proc.stderr

    def test_csv_is_the_same_at_one_and_two_blas_threads(self, tmp_path):
        # the CLI pins BLAS to one thread before numpy loads, so the paper-shape run's rows do
        # not depend on the thread count the environment asks for
        bodies = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parent.parent),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"threads{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "stiefel_dec.cli", "run", "--n", "32", "--m", "1000", "--d", "100",
                 "--r", "5", "--graph", "er(0.3)", "--t", "1", "--max-iters", "5", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_NO_CONVERGENCE, proc.stderr
            bodies.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert len(bodies[0]) == 1 + 6 and bodies[0] == bodies[1]

    def test_overflowing_perturbation_is_2_naming_perturb(self, tmp_path):
        # a nudge whose retraction overflows is a configuration error, with no numpy warning
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "stiefel_dec.cli", "run", "--perturb", "1e200",
             "--max-iters", "2", "--out", "o.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.endswith(
            "config error: perturb: a nudge of norm 1e+200 overflows in floating point "
            "(retraction step is not finite); use a smaller perturb\n"
        )
        assert "overflow encountered" not in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_stepsize_runs_to_the_cap(self, tmp_path):
        # a large but finite step is a poor configuration, not an invalid one
        out = tmp_path / "big.csv"
        code = main(
            ["run", "--beta-hat", "1e5", "--beta-scale", "raw", "--max-iters", "50",
             "--out", str(out)]
        )
        assert code == EXIT_NO_CONVERGENCE
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == CSV_HEADER
        assert len(rows[1:]) == 51 and rows[-1].startswith("50,")

    def test_consensus_subcommand(self, tmp_path, capsys):
        # pure gossip contraction is run --algorithm drcs; there is no second name for it
        out = tmp_path / "cons.csv"
        code = main(
            ["run", "--algorithm", "drcs", "--graph", "ring", "--n", "4", "--d", "8", "--r", "2",
             "--max-iters", "100", "--seed", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert config_echo(out)["algorithm"] == "drcs"
        with pytest.raises(SystemExit) as exc:
            main(["consensus", "--max-iters", "1"])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice: 'consensus'" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_drsgd_non_finite_step_is_4_and_writes_partial_log(self, tmp_path, capsys):
        out = tmp_path / "nf.csv"
        code = main(["run", "--algorithm", "drsgd", "--beta-hat", "1e300", "--beta-scale", "raw",
                     "--max-epochs", "3", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "numerical error: round 1: retraction step is not finite" in capsys.readouterr().err
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == CSV_HEADER and [r.split(",")[0] for r in rows[1:]] == ["0"]

    @pytest.mark.parametrize(
        "argv, powers",
        [
            (["run", "--algorithm", "drcs", "--t", "3", "--max-iters", "2"], [3]),
            (["run", "--algorithm", "drsgd", "--t", "2", "--max-epochs", "1"], [2]),
            (["spectral", "--t", "3", "--alpha", "0.5"], [3, 8]),  # t_min = 8 on the ring of 8
            (["run", "--algorithm", "drgta", "--t", "1", "--max-iters", "2"], []),  # W^1 is W
        ],
        ids=["drcs-t3", "drsgd-t2", "spectral-alpha", "drgta-t1"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_each_power_of_w_is_built_once(self, argv, powers, monkeypatch, tmp_path):
        # the rate reports and the run share one W^t
        calls = []

        def counting(a, t, _orig=np.linalg.matrix_power):
            calls.append(t)
            return _orig(a, t)

        monkeypatch.setattr(np.linalg, "matrix_power", counting)
        out = [] if argv[0] == "spectral" else ["--out", str(tmp_path / "o.csv")]
        assert main(argv + out) in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert calls == powers

    def test_huge_perturbation_runs(self, tmp_path):
        # a tangent nudge of norm 1e7 is built as a stack, with no absolute tangency check
        out = tmp_path / "cons.csv"
        code = main(["run", "--algorithm", "drcs", "--perturb", "1e7", "--max-iters", "3",
                     "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        assert len(out.read_text().splitlines()) == 4 + 4  # three comment lines, the header, k = 0..3

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

    @pytest.mark.parametrize("problem", ["synthetic", "dsv"])
    def test_oracle_value_is_minus_the_top_eigenvalues_over_2n(self, tmp_path, problem):
        # f(x*) = -(sum of the r largest eigenvalues of sum_i G_i) / (2n); the
        # sum of the blocks' Gram matrices is the Gram matrix of all the rows
        n, r = 3, 2
        if problem == "synthetic":  # the harness seeds its synthetic data with [seed, 0]
            args = ["--d", "8", "--m", "10", "--seed", "1"]
            rows = problems.synthesize_eigengap_data(n, 10, 8, r, 0.8, seed=[1, 0])[0].rows
        else:  # 25 rows over 3 agents: blocks of 9, 8 and 8
            data = tmp_path / "rows.csv"
            rows = write_rows(data, 1.0)
            args = ["--problem", "dsv", "--data", str(data)]
        dest = tmp_path / "oracle.txt"
        assert main(["oracle", "--n", str(n), "--r", str(r), *args, "--out", str(dest)]) == EXIT_OK
        line = next(x for x in dest.read_text().splitlines() if x.startswith("# f(x*) = "))
        expected = -np.linalg.eigvalsh(rows.T @ rows)[-r:].sum() / (2 * n)
        assert abs(float(line.split("= ")[1]) - expected) <= 1e-12 * abs(expected)

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
        echo = config_echo(out)
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
        code = main(["run", "--algorithm", "drcs", "--config", str(cfg_file), "--out", str(out)])
        assert code == EXIT_OK and out.exists()

    def test_oracle_writes_the_config_files_out(self, tmp_path, capsys, monkeypatch):
        # oracle reads out from --config as run does, and --out still overrides it
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(dict(n=3, d=8, r=2, m=10, seed=1, out="sol.txt")))
        assert main(["oracle", "--config", str(cfg_file)]) == EXIT_OK
        assert capsys.readouterr().out == "wrote sol.txt\n"
        assert main(["oracle", "--n", "3", "--d", "8", "--r", "2", "--m", "10", "--seed", "1"]) == EXIT_OK
        assert (tmp_path / "sol.txt").read_text() == capsys.readouterr().out
        assert main(["oracle", "--config", str(cfg_file), "--out", "flag.txt"]) == EXIT_OK
        assert capsys.readouterr().out == "wrote flag.txt\n"
        assert (tmp_path / "flag.txt").read_text() == (tmp_path / "sol.txt").read_text()
