"""Tests of the benchmark itself: input generation, oracles, span arithmetic.

Run from the repository root:

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import belllab.cli  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _plan_view(plan):
    return [(c.argv, c.kind, c.spec, c.expect_exit) for c in plan.commands], plan.files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.generate(workload, 7, "scen")
    second = workloads.generate(workload, 7, "scen")
    assert _plan_view(first) == _plan_view(second)


@pytest.mark.parametrize("workload", ("scenario-mix", "lhv-fuzz"))
def test_different_seed_gives_different_inputs(workload):
    first = workloads.generate(workload, 7, "scen")
    second = workloads.generate(workload, 8, "scen")
    assert _plan_view(first) != _plan_view(second)
    if workload == "scenario-mix":
        assert first.files != second.files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_amount_of_work(workload):
    def cost(seed):
        plan = workloads.generate(workload, seed, "scen")
        kinds = sorted(c.kind for c in plan.commands)
        return kinds, sum(run._work(c) for c in plan.commands)

    assert cost(1) == cost(2) == cost(3)


def _issue(argv):
    code, out, _ = run.Client(belllab.cli).issue(argv)
    return code, out


def test_scenario_mix_commands_pass_their_oracles(tmp_path):
    plan = workloads.generate("scenario-mix", 3, str(tmp_path))
    plan.write_files()
    assert len(plan.commands) >= 1000
    for command in plan.commands:
        code, out = _issue(command.argv)
        assert oracles.check_command(command, code, out) is None, command.argv


def _first(plan, kind, **spec):
    return next(c for c in plan.commands
                if c.kind == kind and all(c.spec.get(k) == v for k, v in spec.items()))


def _perturbed_margin(out: str, path: list, delta: float) -> str:
    report = json.loads(out)
    target = report
    for key in path:
        target = target[key]
    target["margin"] += delta
    return json.dumps(report)


@pytest.mark.parametrize("replacement", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_oracle_rejects_non_finite_numbers(tmp_path, replacement):
    plan = workloads.generate("scenario-mix", 3, str(tmp_path))
    plan.write_files()
    command = _first(plan, "evaluate")
    code, out = _issue(command.argv)
    assert oracles.check_command(command, code, out) is None
    report = json.loads(out)
    broken = json.dumps(report).replace(
        json.dumps(report["verdicts"][0]["lhs"]), replacement, 1)
    assert broken != json.dumps(report)
    assert oracles.check_command(command, code, broken) is not None


def test_oracle_rejects_perturbed_evaluate_margin(tmp_path):
    plan = workloads.generate("scenario-mix", 3, str(tmp_path))
    plan.write_files()
    for kind in ("evaluate", "reproduce"):
        command = _first(plan, kind)
        code, out = _issue(command.argv)
        broken = _perturbed_margin(out, ["verdicts", 0], 1e-6)
        assert "margin" in oracles.check_command(command, code, broken)


def test_oracle_rejects_perturbed_sweep_row(tmp_path):
    plan = workloads.generate("scenario-mix", 3, str(tmp_path))
    plan.write_files()
    command = _first(plan, "sweep", format="csv")
    code, out = _issue(command.argv)
    lines = out.splitlines()
    coord, lhs, rhs, margin = lines[3].split(",")
    lines[3] = ",".join([coord, lhs, rhs, repr(float(margin) + 1e-6)])
    assert "margin" in oracles.check_command(command, code, "\n".join(lines) + "\n")
    lines[3] = ",".join([coord, lhs, rhs, "nan"])
    assert oracles.check_command(command, code, "\n".join(lines) + "\n") is not None


@pytest.mark.parametrize("inequality, optimum", [
    ("general", 0.0),
    ("dispersion_free", 12.0),
    ("chsh", 2.0 * math.sqrt(2.0) - 2.0),
])
def test_oracle_checks_lattice_optimum(inequality, optimum):
    command = workloads._search(inequality, "planar-epr", "45")
    code, out = _issue(command.argv)
    assert oracles.check_command(command, code, out) is None
    assert json.loads(out)["grid"]["verdict"]["margin"] == pytest.approx(optimum, abs=1e-9)
    broken = _perturbed_margin(out, ["grid", "verdict"], 1e-6)
    assert oracles.check_command(command, code, broken) is not None


def test_oracle_rejects_wrong_lhv_max_margin():
    command = workloads.Command(
        ("lhv-check", "--models", "50", "--points", "8", "--seed", "11"), "lhv-check",
        {"models": 50, "points": 8, "bound": 5.0, "seed": 11})
    code, out = _issue(command.argv)
    assert oracles.check_command(command, code, out) is None
    report = json.loads(out)
    report["max_margin"] -= 1e-3
    assert "max_margin" in oracles.check_command(command, code, json.dumps(report))


def test_oracle_checks_exit_code_of_malformed_scenarios(tmp_path):
    plan = workloads.generate("scenario-mix", 3, str(tmp_path))
    plan.write_files()
    malformed = [c for c in plan.commands if c.kind == "malformed"]
    assert {c.spec["variant"] for c in malformed} == set(range(workloads.MALFORMED_VARIANTS))
    for command in malformed:
        code, out = _issue(command.argv)
        assert oracles.check_command(command, code, out) is None
        assert oracles.check_command(command, 0, out) is not None


def test_self_time_subtracts_child_spans():
    spans = [
        [0, "cli.main", 0.0, 10.0, -1, 0, None],
        [1, "search.grid_search", 1.0, 4.0, 0, 0, 100],
        [2, "search.evaluate_point", 3.0, 3.5, 1, 0, None],
        [3, "geometry.gram_of", 5.0, 6.0, 0, 0, None],
    ]
    summary = tracing.aggregate(spans)
    functions = summary["functions"]
    assert functions["cli.main"]["self_s"] == pytest.approx(6.0)
    assert functions["search.grid_search"]["self_s"] == pytest.approx(2.5)
    assert functions["search.grid_search"]["count"] == 100
    assert summary["layers"]["search"] == pytest.approx(3.0)
    assert summary["layers"]["geometry"] == pytest.approx(1.0)
    metrics = tracing.per_layer_metrics(summary, traced_wall_s=11.0, untraced_wall_s=10.0)
    assert metrics["search.grid_search.ns_per_point"][0] == pytest.approx(3e7)
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.1)


def test_tracer_restores_patched_functions():
    import belllab.search

    before = (belllab.cli.main, belllab.cli.grid_search, belllab.search.evaluate_point)
    tracer = tracing.Tracer()
    restore = tracer.install(belllab.cli, belllab.search)
    try:
        assert belllab.cli.main is not before[0]
        code, out = _issue(["search", "--inequality", "chsh", "--space", "planar-epr",
                            "--resolution", "45", "--refine"])
    finally:
        restore()
    assert (belllab.cli.main, belllab.cli.grid_search, belllab.search.evaluate_point) == before
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "search.grid_search", "search.refine", "search.evaluate_point"} <= names
    assert code == 0 and out == _issue(["search", "--inequality", "chsh", "--space",
                                        "planar-epr", "--resolution", "45", "--refine"])[1]


def test_runner_refuses_a_checkout_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as excinfo:
        run._import_cli()
    assert excinfo.value.code != 0
