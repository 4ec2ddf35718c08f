"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Run from the repository root; takes a few minutes, because each workload is
run once untraced and once traced at its minimum size.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
from workloads import WORKLOADS, cycle, job_list_hash, load_shipped  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)], capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_with_its_unit():
    """A tiny run of each workload emits every metric of BENCHMARK.json with
    its unit, and the traced run keeps the layers apart."""
    spec = _benchmark_json()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] >= run.MIN_JOBS
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            if not trace:
                continue
            calls = {name: m["value"] for name, m in result["metrics"].items()
                     if name.endswith(".calls")}
            assert calls["cli.main.calls"] > 0
            if workload != "continuous":
                assert calls["quad.integrate_vector.calls"] == 0
            if workload != "atomic":
                assert all(v == 0 for n, v in calls.items() if n.startswith("field_sim."))
            if workload != "closed_form":
                assert all(v == 0 for n, v in calls.items() if n.startswith("entropy1d."))
            assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_invalid_config_counts_as_failed():
    """A job whose config the library rejects is counted, not dropped."""
    jobs = cycle("closed_form", 4, 0, [])
    bad = {"kind": "spectrum", "config": {
        "params": {"c": 1.0, "D": 1.0},
        "measure": {"atoms": [{"mu": 2.0, "mass": 1.0}, {"mu": 1.0, "mass": 1.0}],
                    "segments": []}},
        "argv": ["spectrum", "--config", "{config}", "--lmax", "8", "--times", "0",
                 "--out", "{out}"]}
    jobs.insert(1, bad)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK_DIR)
    try:
        done, records = run.run_stream("closed_form", 4, 0.0, work, [], jobs=jobs)
    finally:
        shutil.rmtree(work)
    assert len(done) == len(records) == len(jobs)
    failed = [r for r in records if r["error"] is not None]
    assert len(failed) == 1 and failed[0]["kind"] == "spectrum"
    assert failed[0]["error"].startswith("exit 2") and not failed[0]["check_failed"]
    assert all(r["scaled_latency_s"] > 0 for r in records)
    values, _ = run.end_to_end(records, [1.0])
    assert values["success_fraction"] == (len(jobs) - 1) / len(jobs)


def test_trace_check_catches_faults():
    """The trace self-check fails when a job's outermost span is missing,
    doubled, of the wrong function, or longer than the job's latency."""
    from tracing import Tracer, layer_metrics

    def check(roots, latencies):
        tracer = Tracer()
        for job, name, dur in roots:
            tracer.job = job
            idx = tracer._open(tracer._name_id(name))
            tracer._close(idx)
            tracer.start[idx], tracer.end[idx] = 10.0 * job, 10.0 * job + dur
        return layer_metrics(tracer, latencies, sum(latencies), 0, 0, 0)[1]

    assert check([(0, "cli.main", 1.0), (1, "field_sim.truncation_error_mc", 2.0)],
                 [1.5, 2.5])["ok"]
    for roots, latencies in (
            ([(0, "cli.main", 1.0)], [1.5, 2.5]),                       # job 1 untraced
            ([(0, "cli.main", 1.0), (0, "cli.main", 0.2)], [1.5]),      # two roots
            ([(0, "kernel.transfer", 1.0)], [1.5]),                     # wrong root
            ([(0, "cli.main", 1.0)], [0.5])):                           # longer than job
        assert not check(roots, latencies)["ok"], roots


def test_same_seed_same_jobs():
    """The job list is a function of the seed alone, also across interpreters."""
    shipped = load_shipped(run.ROOT)

    def digest(seed):
        return job_list_hash([j for w in WORKLOADS for k in range(3)
                              for j in cycle(w, seed, k, shipped)])

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads as w; "
            "s = w.load_shipped(sys.argv[2]); "
            "print(w.job_list_hash([j for n in w.WORKLOADS for k in range(3) "
            "for j in w.cycle(n, 5, k, s)]))")
    out = subprocess.run([sys.executable, "-c", code, HERE, run.ROOT], capture_output=True,
                         text=True, timeout=60, env=dict(os.environ, PYTHONHASHSEED="123"))
    assert out.stdout.strip() == digest(5)


def test_refuses_without_sources():
    """With only BENCHMARK.json and perfbench/, it exits non-zero, no result."""
    os.makedirs(run.WORK_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.WORK_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "atomic", "--seed", "1",
             "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=bare,
            timeout=180, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
