"""Tests of the benchmark itself: traced and untraced runs give
byte-identical outputs, the tracer restores every function it wrapped, a
time limit inside the lattice solve is charged to the lattices layer, an
error the program raises is a wrong answer unless it is a known way of
giving no verdict, and BENCHMARK.json names exactly the metrics the
benchmark prints.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import inspect
import json
import random
import signal
import sys

import pytest

import run
import tracer
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

# Instances too slow for a unit test; the A5 seed takes the whole time limit.
SLOW = ("B4 pair", "D5 w0 seed", "A5 w0 seed", "A4 height", "D4 height")


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def small_round(name: str, size: int = 12):
    bs = run.import_braidseed()
    workload = workloads.WORKLOADS[name]
    instances = workload.round(bs, workload.contexts(bs), random.Random(7))
    return bs, [inst for inst in instances if not inst.label.startswith(SLOW)][:size]


def function_bindings(bs) -> dict:
    namespaces = [bs.package, *bs.layers.values()]
    return {
        (ns.__name__, attr): value
        for ns in namespaces
        for attr, value in vars(ns).items()
        if inspect.isfunction(value)
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_match_untraced(name):
    bs, instances = small_round(name)
    assert instances
    untraced = run.measure(instances, 0, run.HostSpeed(), keep_renders=True)
    before = function_bindings(bs)
    with tracer.Tracer(bs.package, bs.layers, run.InstanceTimeout) as tr:
        wrapped = function_bindings(bs)
        traced = run.measure(instances, 0, run.HostSpeed(), keep_renders=True)
    after = function_bindings(bs)
    assert traced.renders == untraced.renders
    assert traced.items == untraced.items
    assert any(calls for calls, _, _ in tr.spans.values())
    assert any(wrapped[key] is not fn for key, fn in before.items())
    assert all(after[key] is fn for key, fn in before.items())


def test_shared_bindings_are_wrapped_everywhere():
    bs = run.import_braidseed()
    with tracer.Tracer(bs.package, bs.layers, run.InstanceTimeout):
        for layer, name in [("words", "neighbor_index"), ("qlaurent", "torus_product"),
                            ("cartan", "finite_type_data")]:
            wrapper = getattr(bs.layers[layer], name)
            users = [m for m in bs.layers.values() if getattr(m, name, None) is not None]
            assert len(users) >= 2
            assert all(getattr(m, name) is wrapper for m in users)
            assert wrapper.__wrapped__ is not wrapper


def test_time_limit_in_lattice_solve_is_charged_to_lattices():
    bs = run.import_braidseed()
    contexts = workloads.longest_contexts(bs)
    frontier = workloads.frontier_instance(bs, "A5", *contexts["A5"])
    with tracer.Tracer(bs.package, bs.layers, run.InstanceTimeout) as tr:
        output, elapsed = run.attempt(frontier, 0.5)
    assert isinstance(output, run.Failure)
    assert tr.counts.get("lattices.timeouts") == 1
    assert tr.stack == []


def raising(error):
    def run_():
        raise error

    return workloads.Instance("raises", run_, lambda output: 1)


def test_only_budget_exhaustion_and_the_known_overflow_are_undecided():
    bs = run.import_braidseed()
    errors = bs.errors
    undecided = [
        errors.NotConnected("budget ran out", definitive=False),
        errors.BudgetExhausted("budget ran out"),
    ]
    for error in undecided:
        output, _ = run.attempt(raising(error), 1.0)
        assert isinstance(output, run.Failure)
    wrong = [
        errors.NotConnected("component enumerated", definitive=True),
        errors.NoIntegralSolution("no solution"),
        errors.NonExactDivision("remainder"),
        OverflowError("raised outside lattices._size_reduce"),
        ValueError("bug"),
    ]
    for error in wrong:
        with pytest.raises(workloads.WrongAnswer):
            run.attempt(raising(error), 1.0)

    def overflow():
        return bs.lattices._size_reduce([10**400], [[1]], [0])

    output, _ = run.attempt(workloads.Instance("overflow", overflow, None), 1.0)
    assert isinstance(output, run.Failure)
    assert "_size_reduce" in output.reason


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    bs, instances = small_round("campaign-sweep")
    tally = run.measure(instances, 0, run.HostSpeed())
    metrics, _ = run.end_to_end(tally, 0.1, run.peak_rss_mb())
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expected = {name: (unit, better) for name, unit, better, _ in tracer.PER_LAYER}
    expected.update({name: (unit, better) for name, unit, better in run.OVERHEAD_METRICS})
    assert len(spec["per_layer"]) == len(expected)
    assert per_layer == expected
