"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The smoke runs use tiny inputs and start a few dozen short CLI processes.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _last_line(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv, sizes=workloads.TINY) == 0
    result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0


def test_traced_run_reports_every_layer_and_restores_bindings(capsys):
    before = _bindings()
    argv = ["--workload", "sequential-code", "--seed", "4", "--seconds", "0", "--trace", "1"]
    assert run.main(argv, sizes=workloads.TINY) == 0
    result = _last_line(capsys)
    assert result["correct"], result
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["estimators.mixture_steps"]["value"] > 0
    assert _bindings() == before


def _bindings() -> dict:
    """Identity of every attribute of the uctseries modules and their classes."""
    out = {}
    for module in spans.uctseries_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    out[(module.__name__, name, attr)] = id(raw)
    return out


def test_wrappers_intercept_every_binding_and_restore():
    from uctseries import cli, coding, estimators, realvalued

    before = _bindings()
    tracer = spans.Tracer()
    seq = workloads.SymbolSeq(workloads.BINARY, np.array([0, 1, 1, 0, 1]))
    with spans.Wrappers(tracer):
        for fn in (estimators.r_log2prob, cli.r_log2prob, coding.r_log2prob,
                   realvalued.r_log2prob):
            fn(seq)
        estimators.MixtureEstimator(workloads.BINARY).append(1)
    names = [s.name for s in tracer.spans]
    assert names.count("estimators.r_log2prob") == 4
    assert "estimators.mixture_step" in names
    kt = [s for s in tracer.spans if s.name == "estimators.kt_log2prob"]
    assert sum(s.count for s in kt) == sum(max(0, 5 - m) for m in range(5)) * 4
    assert _bindings() == before


def _span(name, start, end, parent, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_of_nested_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25) and
    # d [20, 35) which overlap; b holds e [60, 95), which runs past b.
    tree = [
        _span("root", 0, 100, None),
        _span("a", 10, 40, 0),
        _span("b", 50, 90, 0),
        _span("c", 15, 25, 1),
        _span("d", 20, 35, 1),
        _span("e", 60, 95, 2),
    ]
    own = spans.self_times(tree)
    assert own == [100 - 30 - 40, 30 - 20, 40 - 30, 10, 15, 35]
    total = spans.Totals(tree)
    assert total.incl["a"] == 30 and total.own["root"] == 30


def test_self_times_add_up_to_operation_wall_time():
    tracer = spans.Tracer()
    with spans.Wrappers(tracer):
        with tracer.operation("one"):
            workloads.short_trials(workloads.TINY, seed=1)
    own = spans.self_times(tracer.spans)
    sums = spans.op_self_sums(tracer.spans, own)
    assert len(sums) == 1
    ((self_sum, wall),) = sums.values()
    assert self_sum == wall > 0


def test_wrong_outputs_are_counted_not_raised(tmp_path):
    inputs = workloads.Inputs(workloads.TINY, 5, tmp_path)
    ops = {op.name: op for op in workloads.operations(inputs)}
    env = run._child_env()
    checker = run.Checker()
    # a correct report, then the same report with a wrong value
    _, (good,) = ops["estimate_s"].timed(env)
    bad = workloads.CliResult(good.code, dict(good.report, log2_prob=good.report["log2_prob"] + 1))
    checker.add(ops["estimate_s"], [good, bad])
    # a container with a flipped payload byte
    ops["compress_s"].timed(env)
    container = tmp_path / "seq.uct"
    blob = bytearray(container.read_bytes())
    blob[20] ^= 0xFF
    container.write_bytes(bytes(blob))
    _, tampered = ops["decompress_s"].timed(env)
    checker.add(ops["decompress_s"], tampered)
    # a malformed report
    checker.add(ops["predict_s"], [workloads.CliResult(0, {"command": "predict"})])
    checker.run(inputs.ref)
    assert checker.attempted == 4
    assert checker.failed == 3
    assert any("decompressed" in p or "exit code" in p for p in checker.problems)


def test_inputs_depend_only_on_seed(tmp_path):
    files = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        files.append(workloads.Inputs(workloads.TINY, seed, tmp_path / name).files)
    assert files[0] == files[1] != files[2]
