"""Self-tests of the benchmark harness: fast and untimed.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import children  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PINS = workloads.load_pins()


def _span(name, start, end, parent=None, counts=None):
    return spans.Span(name, start, end, parent, "cmd", counts or {})


# --- self-time arithmetic ---------------------------------------------------

def test_self_time_of_nested_and_sibling_spans():
    trace = [
        _span("cli.main", 0.0, 10.0),
        _span("cc_core.validate_config", 1.0, 4.0, 0, {"rank": 7}),
        _span("cc_core.canonicalize_colors", 2.0, 3.0, 1),
        _span("spectral.decompose", 5.0, 9.0, 0, {"blocks": 3}),
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]

    totals = spans.command_totals(trace, wall_s=12.0)
    assert totals["cli.startup_s"] == 2.0
    assert totals["cli.self_s"] == 3.0
    assert totals["cc_core.self_s"] == 3.0
    assert totals["cc_core.validate_config.self_s"] == 2.0
    assert totals["cc_core.validate_config.rank"] == 7
    assert totals["cc_core.canonicalize_colors.calls"] == 1
    assert totals["spectral.decompose.blocks"] == 3
    assert spans.accounted_s(totals) == 12.0
    assert spans.adds_up(totals, 12.0)
    assert not spans.adds_up(totals, 13.0)


def test_overlapping_children_are_covered_once():
    trace = [_span("cli.main", 0.0, 10.0),
             _span("cli.load_scheme", 1.0, 4.0, 0),
             _span("cli.write_scheme", 3.0, 6.0, 0)]
    assert spans.self_times(trace)[0] == 5.0


def test_recursive_spans_of_one_function_sum_their_self_times():
    trace = [_span("cli.main", 0.0, 4.0),
             _span("permgroup.compose", 1.0, 3.0, 0),
             _span("permgroup.compose", 1.5, 2.0, 1)]
    totals = spans.command_totals(trace, wall_s=4.0)
    assert totals["permgroup.compose.self_s"] == 2.0
    assert totals["permgroup.compose.calls"] == 2


# --- failure rule -----------------------------------------------------------

def _run(code=0, stdout="", stderr="", timed_out=False, wall_s=1.0, rss_mb=50.0):
    return children.Run(wall_s, rss_mb, code, timed_out, stdout, stderr)


def _expected(command):
    pin = PINS["answers"][command.id]
    return pin, lambda out: workloads.answer_matches(command, pin, out)


def _good_stdout(command):
    pin = PINS["answers"][command.id]
    answer = dict(pin["json"], **{field: 0.0 for field in pin.get("below", {})})
    if command.point is not None:
        answer["point"] = command.point
    return json.dumps(answer) + "\n"


@pytest.mark.parametrize("run_, kind", [
    (_run(code=3), "exit"),
    (_run(stdout='{"property": "schurian", "schurian": false}\n'), "answer"),
    (_run(code=None, timed_out=True, wall_s=60.2), "timeout"),
    (_run(code=1, stderr="numpy._core._exceptions._ArrayMemoryError: Unable to allocate"),
     "memory"),
    (_run(code=None), "signal"),
])
def test_each_failure_is_counted_and_charged_the_limits(run_, kind):
    command = next(c for c in workloads.plan("check", 0) if c.id == "check.k8.schurian")
    pin, answer_ok = _expected(command)
    assert children.failure_kind(run_, pin["exit"], answer_ok) == kind
    assert children.charged(run_, kind) == (60.0, 4096.0)

    passed = run.Outcome("check.ag33.t4", 2.0, 40.0, None)
    failed = run.Outcome(command.id, *children.charged(run_, kind), kind)
    metrics = run.end_to_end([[passed, failed]], [1.0])
    assert metrics["pass_s"] == 62.0
    assert metrics["peak_rss_mb"] == 4096.0
    assert metrics["ok_frac"] == 0.5


def test_a_correct_answer_passes_and_is_not_charged():
    for workload in ("extend", "analyze", "check"):
        for command in workloads.plan(workload, 5):
            pin, answer_ok = _expected(command)
            stdout = _good_stdout(command) if pin["exit"] == 0 else ""
            run_ = _run(code=pin["exit"], stdout=stdout, wall_s=0.5, rss_mb=30.0)
            assert children.failure_kind(run_, pin["exit"], answer_ok) is None
            assert children.charged(run_, None) == (0.5, 30.0)


def test_float_fields_are_held_to_their_bound():
    command = next(c for c in workloads.plan("analyze", 0) if c.id == "analyze.k8")
    pin, answer_ok = _expected(command)
    good = json.loads(_good_stdout(command))
    assert answer_ok(json.dumps(dict(good, afm_residual=1e-12)))
    assert not answer_ok(json.dumps(dict(good, afm_residual=1e-6)))
    del good["afm_residual"]
    assert not answer_ok(json.dumps(good))


def test_real_child_timeout_and_memory_error_are_caught(tmp_path):
    env = dict(os.environ)
    slow = children.run_child(["-c", "import time; time.sleep(30)"], env, str(tmp_path),
                              wall_limit=0.3)
    assert slow.timed_out and slow.code is None
    assert children.failure_kind(slow, 0, lambda out: True) == "timeout"

    # Larger than the 4 GiB address-space ceiling, so allocation fails at once.
    hungry = children.run_child(["-c", "bytearray(5 << 30)"], env, str(tmp_path))
    assert not hungry.timed_out and hungry.code == 1
    assert children.failure_kind(hungry, 0, lambda out: True) == "memory"


# --- seeds ------------------------------------------------------------------

def test_seeds_change_points_and_order_but_no_pinned_answer():
    plans = {seed: workloads.plan("extend", seed) for seed in range(6)}
    orders = {tuple(c.id for c in p) for p in plans.values()}
    points = {tuple(sorted((c.id, c.point) for c in p)) for p in plans.values()}
    assert len(orders) > 1 and len(points) > 1
    assert workloads.plan("extend", 3) == plans[3]
    for p in plans.values():
        assert sorted(c.id for c in p) == sorted(s.id for s in workloads.WORKLOADS["extend"])
        for command in p:
            assert 0 <= command.point < workloads.INPUTS[command.input][1]
            pin, answer_ok = _expected(command)
            assert "point" not in pin["json"]
            assert answer_ok(_good_stdout(command))


def test_only_extend_commands_take_a_point():
    for workload in workloads.WORKLOADS:
        for command in workloads.plan(workload, 1):
            assert (command.point is not None) == (command.id.startswith("extend."))
            assert "--threads" not in command.args


# --- pins -------------------------------------------------------------------

def test_every_command_and_input_is_pinned():
    assert set(PINS["answers"]) == {s.id for s in workloads.ALL_SPECS}
    assert set(PINS["files"]) == set(workloads.INPUTS)


def test_pins_agree_with_known_values():
    answers = {cid: pin.get("json", {}) for cid, pin in PINS["answers"].items()}
    # K8 is the complete graph on 8 points (rank 2), so Aut = S_8 of order 8!.
    assert answers["analyze.k8"]["degree"] == 8 and answers["analyze.k8"]["rank"] == 2
    assert answers["check.k8.schurian"]["schurian"] is True
    assert answers["check.frob23.frobenius-aut"]["aut_order"] == 448
    assert answers["check.frob23.frobenius-aut"]["frobenius"] is True
    assert answers["check.c67k2.frobenius-aut"]["aut_order"] == 67 * 2
    assert answers["check.c67k2.frobenius-aut"]["frobenius"] is True
    assert answers["extend.c67k2"]["rank"] == 2245
    assert answers["extend.c67k2"]["fibers"] == "1x1 + 33x2"
    assert answers["check.c499k6.design"]["params"] == [499, 6, 5]
    c499k3 = answers["analyze.c499k3"]
    assert len(c499k3["blocks"]) == 167 and c499k3["pseudocyclic_spectral"] == 3
    assert PINS["answers"]["check.c151k3.t4"]["exit"] == 4
    for cid, pin in PINS["answers"].items():
        if cid.startswith("analyze."):
            assert pin["below"] == {"afm_residual": 1e-9}


# --- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_file_names_what_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END.items())
    assert {(m["name"], m["unit"]) for m in bench["per_layer"]} == set(run.per_layer_units().items())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS) - {"defects"}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (9, 0)
    assert run.tail_percentile(list(range(20))) == (50, 9)
