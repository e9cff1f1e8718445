"""The names the benchmark in perfbench/ reads from the package.

perfbench/ has its own pytest run, so without this file a rename in the
package would break the benchmark while the tests here still pass. These
checks import the benchmark's modules and read their code; they start no
process and leave perfbench/ untouched.
"""

import ast
import inspect
import sys
import warnings
from pathlib import Path

import pytest

from stiefel_dec import algorithms, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _worker_tree():
    return ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))


def _run_call():
    """The algorithms.run(...) call in worker.execute."""
    execute = next(
        n for n in _worker_tree().body if isinstance(n, ast.FunctionDef) and n.name == "execute"
    )
    return next(
        n for n in ast.walk(execute)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "algorithms.run"
    )


def _res_fields():
    """Every attribute the worker reads directly off a resolved experiment (res.X)."""
    return sorted(
        {
            n.attr
            for n in ast.walk(_worker_tree())
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "res"
        }
    )


@pytest.mark.parametrize(
    "owner, attr, span", tracer.layer_table(), ids=lambda v: v if isinstance(v, str) else None
)
def test_traced_layer_exists(owner, attr, span):
    assert attr in vars(owner), f"{span}: {owner.__name__}.{attr} is gone"


def test_run_accepts_worker_keywords():
    call = _run_call()
    keywords = [k.arg for k in call.keywords]
    assert "rounds" in keywords
    inspect.signature(algorithms.run).bind(*[None] * len(call.args), **dict.fromkeys(keywords))


def test_resolve_returns_worker_fields():
    fields = _res_fields()
    assert {"mix_matrix", "mix_rounds", "t", "graph"} <= set(fields)
    cfg = harness.parse_config(flags=WORKLOADS["gta-ring8"].config_flags(0, max_rounds=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = harness.resolve(cfg)
    missing = [f for f in fields if not hasattr(res, f)]
    assert not missing, f"resolve() result lacks {missing}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_worker_records_a_capped_execution(name, tmp_path):
    spec = WORKLOADS[name]
    cfg = harness.parse_config(flags=spec.config_flags(0, max_rounds=2))
    out = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res, result, times = worker.execute(cfg, out)
    rec = worker.record(spec, cfg, res, result, times, out, capped=True)
    assert rec["failures"] == []
    assert rec["rounds"] == 2
    assert rec["messages"] == 2 * len(res.graph.edges) * res.t * rec["mixes"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_execution_passes_its_checks(name, tmp_path):
    # the benchmark's --trace 1 wraps every layer; a layer whose kind changed
    # (say a cached_property turned into a property) breaks only this path
    spec = WORKLOADS[name]
    cfg = harness.parse_config(flags=spec.config_flags(0, max_rounds=2))
    out = tmp_path / "run.csv"
    spans = tracer.Tracer()
    spans.install(tracer.layer_table())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res, result, times = worker.execute(cfg, out)
    finally:
        spans.uninstall()
    rec = worker.record(spec, cfg, res, result, times, out, capped=True)
    assert rec["failures"] == []
    mixes = spans.phase("algorithms.run")["network.mix"][0]
    assert mixes == worker.mixes_expected(cfg, res, rec["rounds"])


def test_worker_epoch_length_matches_steps_per_epoch(tmp_path):
    # worker.mixes_expected keeps its own copy of the drsgd epoch-length rule; 41 rows
    # over 4 agents are blocks of 11, 10, 10, 10, so with batches of 5 only agent 0
    # needs 3 steps per pass and the epoch is the maximum, 3 steps
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(",".join(str((7 * i + j) % 11) for j in range(4)) for i in range(41)) + "\n")
    cfg = harness.parse_config(
        flags=dict(algorithm="drsgd", problem="dsv", data_path=str(path), n=4, r=2, batch_size=5, max_epochs=2)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = harness.resolve(cfg)
    assert res.locals_.counts.tolist() == [11, 10, 10, 10]
    for rounds in (1, 2, 7):
        expected = rounds * algorithms.steps_per_epoch(res.locals_, cfg.batch_size)
        assert worker.mixes_expected(cfg, res, rounds) == expected == 3 * rounds
