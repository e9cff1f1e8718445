"""scripts/cli_digests.py: its configuration list against the CLI's parser, and the
--against comparator on logs held in memory."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stiefel_dec import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_digests.py"
spec = importlib.util.spec_from_file_location("cli_digests", SCRIPT)
cli_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digests)


def test_every_config_parses(capsys):
    # a removed subcommand or flag must not leave the digest list broken
    parser = cli.build_parser()
    rejected = []
    for name, line in cli_digests.CONFIGS:
        try:
            parser.parse_args(cli_digests.cli_args(line))
        except SystemExit:  # argparse's exit on an unknown subcommand or flag
            rejected.append(name)
    assert rejected == [], capsys.readouterr().err


R = 2
DIAMETER = 2.0 * math.sqrt(R)
HEADER = "k,consensus_err_sq,linf_err,grad_norm_sq,f_bar,ds_oracle,beta_k,elapsed_ms"
# (consensus_err_sq, linf_err, grad_norm_sq, f_bar, ds_oracle) per row
ROWS = [
    (0.0, 0.0, 5025.446184621523, -52.85542468474226, 2.5986607251530494),
    (1.5085002934308708e-4, 0.014265307764518767, 1.8654e-14, -55.40331034400456, 2.578295435763635),
    (8.112690705661617e-06, 0.00334609626706245, 6.3e-14, -58.10108106579622, 2.5573394875254136),
]
F_SCALE = max(abs(row[3]) for row in ROWS)


CONSTANTS = {"alpha": 1.0, "l_g": 358.657308930916, "schedule": "user", "t": 1}


def outcome(rows=ROWS, code=5, stop="max_rounds", constants=CONSTANTS, beta=0.0005):
    """A run_cli outcome: exit code, stdout summary, log bytes, error line."""
    lines = ["# stiefel-dec 0.1.0", f'# config: {{"algorithm": "drgta", "r": {R}}}',
             f"# constants: {json.dumps(constants, sort_keys=True)}", HEADER]
    for k, row in enumerate(rows):
        lines.append(",".join([str(k), *map(repr, row), "" if k == 0 else repr(beta), ""]))
    summary = f"drgta: {len(rows) - 1} rounds, stop={stop}  ds={rows[-1][4]:.3e}  log=out.csv\n"
    return code, summary.encode(), ("\n".join(lines) + "\n").encode(), "-"


def perturbed(col, delta, rows=ROWS):
    """ROWS with delta added to column col of every row after the first."""
    return [row if k == 0 else tuple(v + delta * (j == col) for j, v in enumerate(row))
            for k, row in enumerate(rows)]


def test_identical_logs_pass():
    problems, worst = cli_digests.compare(outcome(), outcome())
    assert problems == [] and set(worst.values()) == {0.0}


@pytest.mark.parametrize("col, scale", [(1, DIAMETER), (3, F_SCALE), (4, DIAMETER)])
def test_perturbation_of_1e_14_scale_passes(col, scale):
    problems, worst = cli_digests.compare(outcome(), outcome(perturbed(col, 1e-14 * scale)))
    assert problems == []
    assert 0.0 < max(worst.values()) <= 1e-12


def test_ds_oracle_change_of_1e_9_fails():
    problems, _ = cli_digests.compare(outcome(), outcome(perturbed(4, 1e-9)))
    assert problems == [f"ds_oracle off by {1e-9 / DIAMETER:.1e} S"]


def test_extra_row_fails():
    problems, _ = cli_digests.compare(outcome(), outcome(ROWS + [ROWS[-1]]))
    assert "3 rows vs 4" in problems


def test_different_exit_code_fails():
    problems, _ = cli_digests.compare(outcome(), outcome(code=0))
    assert problems == ["exit 5 vs 0"]


def test_different_stop_fails():
    problems, _ = cli_digests.compare(outcome(), outcome(stop="ds_tol"))
    assert problems == ["stdout differs"]


def test_constant_moved_by_1e_15_relative_passes():
    moved = dict(CONSTANTS, l_g=CONSTANTS["l_g"] * (1 + 1e-15))
    problems, worst = cli_digests.compare(outcome(), outcome(constants=moved))
    assert problems == [] and 0.0 < worst["constants"] <= 1e-12


def test_constant_moved_by_1e_9_relative_fails():
    moved = dict(CONSTANTS, l_g=CONSTANTS["l_g"] * (1 + 1e-9))
    problems, worst = cli_digests.compare(outcome(), outcome(constants=moved))
    assert [p.split()[0] for p in problems] == ["constants"] and worst["constants"] > 1e-12


@pytest.mark.parametrize("change", [{"xi": 0.0}, {"schedule": "constant"}, {"t": 2}, {"t": 1.0}],
                         ids=["added-key", "string", "int", "int-to-float"])
def test_constants_keys_and_other_values_must_match(change):
    problems, _ = cli_digests.compare(outcome(), outcome(constants=dict(CONSTANTS, **change)))
    assert problems == ["header lines differ"]


@pytest.mark.parametrize("rel, ok", [(1e-15, True), (1e-9, False)])
def test_beta_k_is_compared_relative_to_its_size(rel, ok):
    problems, worst = cli_digests.compare(outcome(), outcome(beta=0.0005 * (1 + rel)))
    assert (problems == []) == ok and 0.0 < worst["beta_k"]
    assert ok or [p.split()[0] for p in problems] == ["beta_k"]


def test_oracle_value_is_compared_like_f_bar():
    def report(value):
        return 0, b"wrote out.csv\n", f"# centralized solution\n# f(x*) = {value!r}\n0.6 0.8\n".encode(), "-"

    assert cli_digests.compare(report(-16.17528168831654), report(-16.175281688316543))[0] == []
    assert cli_digests.compare(report(-16.17528168831654), report(-16.1752816883))[0] != []


def solution(x, value=-16.17528168831654):
    """An oracle outcome: the report of the d x r solution x."""
    lines = ["# centralized leading-eigenvector solution", f"# f(x*) = {value!r}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in x]
    return 0, b"wrote out.csv\n", ("\n".join(lines) + "\n").encode(), "-"


X = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 2)))[0]


def test_oracle_solution_with_a_flipped_column_passes():
    problems, worst = cli_digests.compare(solution(X), solution(X * [1.0, -1.0]))
    assert problems == [] and worst["oracle_ds"] <= 1e-15


def test_oracle_solution_with_a_column_rotated_by_1e_9_fails():
    # column 0 turned by 1e-9 rad toward a direction outside the span
    w = np.linalg.qr(np.column_stack([X, np.ones(8)]))[0][:, 2]
    y = X.copy()
    y[:, 0] = np.cos(1e-9) * X[:, 0] + np.sin(1e-9) * w
    problems, worst = cli_digests.compare(solution(X), solution(y))
    assert [p.split()[0] for p in problems] == ["oracle_ds"]
    assert worst["oracle_ds"] == pytest.approx(1e-9 / DIAMETER, rel=1e-3)


def test_oracle_solutions_of_other_shapes_fail():
    problems, _ = cli_digests.compare(solution(X), solution(X[:, :1]))
    assert problems == ["solution shapes differ"]


@pytest.mark.parametrize("argv", [[], ["--against", "other-src"]])
@pytest.mark.parametrize("error, code", [("traceback", 1), ("-", 0)])
def test_traceback_exits_1_in_both_modes(monkeypatch, capsys, argv, error, code):
    # both trees print the same traceback, so the --against comparison alone would PASS
    monkeypatch.setattr(cli_digests, "CONFIGS", [("one", "run --max-iters 1")])
    monkeypatch.setattr(cli_digests, "run_cli", lambda args, src: (1, b"", None, error))
    assert cli_digests.main(argv) == code
    assert ("traceback: one" in capsys.readouterr().err) == (error == "traceback")
