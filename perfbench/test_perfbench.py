"""Tests of the benchmark itself, on smoke-sized configurations.

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys

import pytest

import run
from hostspeed import HostSpeed, kref
from tracing import ITERATION_SPAN, Span, Tracer, instrumented, self_time_by_name, self_times
from workloads import ACCURACY_CONFIG, AccuracyDrift, CliFiles, MatrixRestarts


@pytest.fixture(autouse=True, scope="module")
def package():
    run.bootstrap()


SMOKE = {
    "accuracy_drift": AccuracyDrift({**ACCURACY_CONFIG, "n_seeds": 2, "duration_s": 60.0}),
    "matrix_restarts": MatrixRestarts({"duration_s": 120.0, "restart_every_s": 60.0}),
    "cli_files": CliFiles({"duration_s": 30.0}),
}


def traced_then_plain(wl, tmp_path, seed=3):
    state = wl.prepare(seed, str(tmp_path))
    tracer = Tracer()
    first = {}
    iters = [run.run_iteration(wl, state, tracer, i, traced=i == 0) for i in range(2)]
    for it in iters:
        run.check(it, None, first)
    return tracer, iters


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_counts_agree_with_untraced_outputs(name, tmp_path):
    tracer, (traced, plain) = traced_then_plain(SMOKE[name], tmp_path)
    assert traced.problems == [] and plain.problems == []
    assert traced.failed_ops == [] and plain.failed_ops == []
    c = traced.counts
    kinds = c["detector.channel"] + c["detector.guard"] + c["detector.pre_start"]
    assert kinds == c["detector.packets"]
    assert c["detector.packets"] == c["simkit.packets"] > 0
    assert 0 < c["simkit.packets"] <= c["simkit.beacons"]
    for key, value in plain.counts.items():
        assert c[key] == value, key


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_self_times_fit_inside_the_iteration(name, tmp_path):
    tracer, (traced, _) = traced_then_plain(SMOKE[name], tmp_path)
    spans = [sp for sp in tracer.spans if sp.iteration == traced.index]
    assert spans[0].name == ITERATION_SPAN
    selfs = self_times(spans)
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= traced.wall_s
    assert sum(selfs) == pytest.approx(spans[0].end - spans[0].start)


def test_every_layer_named_in_the_benchmark_is_traced_on_some_workload(tmp_path):
    seen = set()
    for name, wl in SMOKE.items():
        (tmp_path / name).mkdir()
        tracer, _ = traced_then_plain(wl, tmp_path / name)
        seen |= {n for per_iter in self_time_by_name(tracer.spans).values() for n in per_iter}
    assert set(run.SELF_TIME_NAMES) <= seen


def test_tampered_digest_or_count_registers_as_failure(tmp_path):
    wl = SMOKE["matrix_restarts"]
    state = wl.prepare(3, str(tmp_path))
    it = run.run_iteration(wl, state, Tracer(), 0, traced=False)
    digest = it.ops[0].digests["matrix.csv"]

    good = {"digests": {"matrix.csv": digest}, "counts": dict(it.counts)}
    run.check(it, good, {})
    assert it.failed_ops == []

    tampered = {"digests": {"matrix.csv": "0" * len(digest)}}
    run.check(it, tampered, {})
    assert it.failed_ops == ["run_compatibility_matrix"]

    it = run.run_iteration(wl, state, Tracer(), 1, traced=False)
    run.check(it, {"counts": {"simkit.packets": it.counts["simkit.packets"] + 1}}, {})
    assert it.failed_ops == ["run_compatibility_matrix"]


def test_self_time_arithmetic_on_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 8.0, 9.5, 0, 0),  # overlaps b: covered once
        Span("root", 20.0, 21.0, None, 1),
        Span("a", 20.25, 20.5, 5, 1),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5, 0.75, 0.25])
    by_name = self_time_by_name(spans)
    assert by_name[0]["a"] == pytest.approx(2.0)
    assert by_name[1]["a"] == pytest.approx(0.25)


def test_wrappers_go_where_callers_look_functions_up():
    from blechannel import cli, detector, harness, simkit

    originals = (simkit.simulate_reception, detector.classify_trace, harness.simulate_scenario)
    with instrumented(Tracer(), timed=True):
        assert harness.simulate_reception is not originals[0]
        assert harness.simulate_reception is simkit.simulate_reception
        assert cli.classify_trace is not originals[1]
        assert cli.simulate_scenario is not originals[2]
    after = (simkit.simulate_reception, detector.classify_trace, harness.simulate_scenario)
    assert after == originals
    assert cli.classify_trace is originals[1]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix_restarts", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    p, value = run.tail_percentile([float(v) for v in range(20)])
    assert p == 50 and value == pytest.approx(9.5)
    assert run.tail_percentile([float(v) for v in range(100)])[0] == 90


def test_kref_integrates_the_sampled_rate():
    # Half the time at 1000 blocks/s, half at 500: 1.5 kblocks in 2 s.
    assert kref(2.0, [0.001, 0.002]) == pytest.approx(1.5)


def test_host_speed_samples_while_its_body_runs_and_restores_the_timer():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed(period_s=0.01) as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(speed.block_s) >= 5
    assert speed.kref_per_s() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_iteration_cost_is_wall_time_at_the_sampled_speed(tmp_path):
    wl = SMOKE["matrix_restarts"]
    it = run.run_iteration(wl, wl.prepare(3, str(tmp_path)), Tracer(), 0, traced=False)
    assert it.kref_per_s > 0
    assert it.run_kref == pytest.approx(it.wall_s * it.kref_per_s)
    assert it.cpu_kref == pytest.approx(it.cpu_s * it.kref_per_s)
