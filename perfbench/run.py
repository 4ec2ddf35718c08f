"""hyperdiff benchmark: seeded streams of user jobs, run as a closed loop.

    python3 perfbench/run.py --workload continuous --seed 1 --seconds 15 --trace 0

Run from the repository root. One client in one process runs the workload's
jobs one after another, each starting when the previous one has finished.
A job is one CLI run through ``hyperdiff.cli.main(argv)`` in process, writing
CSV and a manifest into a scratch directory under ``.perfbench_work/``;
``truncation_mc`` jobs call ``field_sim.truncation_error_mc`` directly, since
no subcommand runs it. The seed draws POOL_CYCLES cycles of jobs (see
workloads.py); the stream runs them in turn, whole cycles at a time, until
the timed job time reaches ``--seconds`` and at least MIN_JOBS jobs have run.
After each job, untimed, its outputs are checked (checks.py) and deleted:
the first run of a job gets the full check, a repeat must reproduce the
first run's outputs bit for bit.

Timings are scaled to a nominal host speed. On a small virtual machine that
shares its host, the speed of the same code moves by up to 2x from one
second to the next and stays slow or fast for seconds to minutes, which
decides a raw timing more than the program does. So, untimed, a fixed loop
of interpreter and small-array numpy work (``reference_s``) is timed before
each job, after the last job and around each set-up sample, and each
latency is multiplied by REFERENCE_S over the median of the reference times
taken just around it (``local_references``). A value then reads as the
time the job takes on a host that runs the reference loop in REFERENCE_S;
the unscaled totals are printed beside the metrics.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a third of
the stream with every job run twice in a row, untraced and then with every
public function of the package wrapped (tracing.py), and prints per-layer
metrics; per-job records and spans are written to ``.perfbench_out/``.
``--workload all`` runs each workload in a fresh process and prints every
metric side by side.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A job fails if it
exits non-zero, raises, or fails its output check; ``correct`` is false if
any job's output check failed or the trace's self-check did not hold.
"""

import os
import sys

# Pinned before numpy is imported, here and in every child process: default
# BLAS threading on a small machine makes timings swing by an order of
# magnitude. HYPERDIFF_THREADS is left unset so the library uses its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HYPERDIFF_THREADS", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
sys.path[:0] = [SRC]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from workloads import WORKLOADS, cycle, job_list_hash, load_shipped  # noqa: E402

MIN_JOBS = 100          # p90 then has at least ten samples beyond it
POOL_CYCLES = 3         # distinct job cycles per run, repeated in turn
SETUP_SAMPLES = 15      # fresh interpreters timed per run for setup_s
WALL_LIMIT_S = 120.0    # stop starting jobs after this much real time
REFERENCE_S = 0.0025    # reference loop time that scaled timings refer to
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "success_fraction": "1", "peak_rss_mb": "MB",
}


_REFERENCE_INPUT = []


def reference_s() -> float:
    """Seconds the reference loop takes now: about REFERENCE_S, on the
    2-vCPU virtual machine the benchmark was tuned on, when it ran fast.
    It uses only the standard library and numpy, so no change to hyperdiff
    changes it."""
    import numpy as np
    if not _REFERENCE_INPUT:
        _REFERENCE_INPUT.append(np.linspace(0.0, 1.0, 4096))
    started = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += math.sqrt(i) * (i % 7)
    a = _REFERENCE_INPUT[0]
    for _ in range(40):
        a = np.cos(a) * 0.5 + np.sqrt(a * a + 1.0)
    return time.perf_counter() - started


def local_references(refs: list[float]) -> list[float]:
    """For timed steps i = 0 .. len(refs) - 2, where refs[i] was taken just
    before step i and refs[-1] after the last step: the median of the
    reference times before the previous step, before step i and after it."""
    return [statistics.median(refs[max(0, i - 1):i + 2]) for i in range(len(refs) - 1)]


def _digest(out: str, result) -> str:
    """SHA-256 of a job's outputs: every file but the manifest (which records
    the run time), or the returned value of a direct library call."""
    h = hashlib.sha256(repr(result).encode())
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _run_job(job: dict, index: int, work: str, tracer=None, reference: str | None = None) -> dict:
    """Run one job closed-loop: prepare, time the call, then check untimed.

    Without a reference the outputs get the job's full check; with one, from
    an earlier run of the same job, they must match it bit for bit.
    """
    from hyperdiff import cli, field_sim
    from hyperdiff.measure import measure_from_dict, params_from_dict
    from checks import CHECKS, CheckFailed

    job_dir = os.path.join(work, f"job{index}")
    os.makedirs(job_dir)
    config = os.path.join(job_dir, "config.json")
    out = os.path.join(job_dir, "out")
    if job["config"] is not None:
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(job["config"], fh)
    argv = [a.replace("{config}", config).replace("{out}", out) for a in job["argv"]]
    if job["kind"] == "truncation_mc":
        params = params_from_dict(job["config"]["params"])
        measure = measure_from_dict(job["config"]["measure"])

    sink = io.StringIO()
    error = None
    result = None
    if tracer is not None:
        tracer.job = index
        tracer.install()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if job["kind"] == "truncation_mc":
                call = job["call"]
                result = field_sim.truncation_error_mc(
                    call["l_inner"], call["l_outer"], measure, params, call["time"],
                    n_runs=call["n_runs"], master_seed=call["master_seed"])
            else:
                code = cli.main(argv)
                if code != 0:
                    error = f"exit {code}: {sink.getvalue().strip()}"
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        error = f"raised {exc!r}"
    latency = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()

    check_failed = False
    digest = None
    if error is None:
        try:
            digest = _digest(out, result)
            if reference is None:
                CHECKS[job["kind"]](job, out, result)
            elif digest != reference:
                raise CheckFailed("outputs differ from an earlier run of the same job")
        except CheckFailed as exc:
            error, check_failed = f"check: {exc}", True
        except Exception as exc:  # malformed output the check could not read
            error, check_failed = f"check raised {exc!r}", True
    n_bytes = n_files = 0
    if os.path.isdir(out):
        files = [os.path.join(out, f) for f in os.listdir(out)]
        n_files = len(files)
        n_bytes = sum(os.path.getsize(f) for f in files)
    shutil.rmtree(job_dir)
    return {"kind": job["kind"], "cycle": job.get("cycle"), "template": job.get("template"),
            "latency_s": latency, "error": error, "check_failed": check_failed,
            "digest": digest, "bytes": n_bytes, "files": n_files}


def run_stream(workload: str, seed: int, seconds: float, work: str, shipped: list[dict],
               jobs: list[dict] | None = None, tracer=None) -> tuple[list[dict], list[dict]]:
    """Run whole cycles until `seconds` of job time and MIN_JOBS jobs, or the
    given job list. Returns (jobs run, per-job records).

    The stream repeats the seed's POOL_CYCLES cycles in turn. No cycle is
    started after WALL_LIMIT_S of real time, so a slow host runs fewer whole
    cycles rather than a cut one (stream_cut_short() then says so). The first
    run of each job is fully checked; later runs must reproduce its output
    digest. Each record also gets its reference time and scaled latency.
    With a tracer, each job runs twice in a row, untraced and then
    traced, so both see the same machine conditions; the record is the traced
    run's, with the untraced latency alongside.
    """
    references: dict = {}
    refs: list[float] = []
    wall_start = time.perf_counter()
    done_jobs: list[dict] = []
    records: list[dict] = []
    timed = 0.0
    k = 0
    while True:
        if jobs is not None:
            if k:
                break
            batch = jobs
        else:
            if timed >= seconds and len(records) >= MIN_JOBS:
                break
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                break
            batch = cycle(workload, seed, k % POOL_CYCLES, shipped)
        k += 1
        for job in batch:
            key = (job.get("cycle"), job.get("template"))
            refs.append(reference_s())
            rec = _run_job(job, len(records), work, None, references.get(key))
            if key not in references and rec["error"] is None:
                references[key] = rec["digest"]
            if tracer is not None:
                plain = rec
                rec = _run_job(job, len(records), work, tracer, references.get(key))
                rec["plain_latency_s"] = plain["latency_s"]
                if plain["error"] is not None:
                    rec.update(error=plain["error"], check_failed=plain["check_failed"])
            done_jobs.append(job)
            records.append(rec)
            timed += rec["latency_s"]
    refs.append(reference_s())
    for rec, ref in zip(records, local_references(refs)):
        rec["reference_s"] = ref
        rec["scaled_latency_s"] = rec["latency_s"] * REFERENCE_S / ref
    return done_jobs, records


def stream_cut_short(records: list[dict], seconds: float) -> bool:
    """Whether the wall-clock limit ended a stream before its targets."""
    return sum(r["latency_s"] for r in records) < seconds or len(records) < MIN_JOBS


def setup_samples(workload: str, work: str,
                  n: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to having run the warm-up
    job, and the reference time around each sample."""
    samples = []
    refs = []
    for i in range(n):
        refs.append(reference_s())
        probe_dir = os.path.join(work, f"setup{i}")
        os.makedirs(probe_dir)
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload, probe_dir],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - spawned)
        shutil.rmtree(probe_dir)
    refs.append(reference_s())
    return samples, local_references(refs)


def run_record(workload: str, seed: int, seconds: float, trace: int, jobs: list[dict]) -> dict:
    import numpy as np
    import scipy
    commit = "unknown"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "job_list_sha256": job_list_hash(jobs), "git_commit": commit,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "HYPERDIFF_THREADS")},
    }


def _percentile(values: list[float], q: float) -> float:
    import numpy as np
    # Interpolating next to an infinite latency would give nan.
    method = "linear" if all(map(math.isfinite, values)) else "higher"
    return float(np.percentile(values, q, method=method))


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts, from scaled job
    latencies and scaled set-up samples."""
    ok = sum(r["error"] is None for r in records)
    # A failed job misses every latency limit: it ranks above all others.
    latencies = [r["scaled_latency_s"] if r["error"] is None else math.inf for r in records]
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": ok / sum(r["scaled_latency_s"] for r in records),
        "job_p50_ms": 1e3 * _percentile(latencies, 50),
        "job_p90_ms": 1e3 * _percentile(latencies, 90),
        "success_fraction": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = f"n={len(records)}"
    samples = {
        "setup_s": f"n={len(setup)}", "jobs_per_s": n, "job_p50_ms": n,
        "job_p90_ms": f"{n}, {len(records) - math.ceil(0.9 * len(records))} above",
        "success_fraction": n, "peak_rss_mb": "n=1",
    }
    return values, samples


def _report(records: list[dict]) -> None:
    refs = [r["reference_s"] for r in records]
    print(f"  reference loop: median {1e3 * statistics.median(refs):.3f} ms, range "
          f"{1e3 * min(refs):.3f}-{1e3 * max(refs):.3f} ms (scaled timings refer to "
          f"{1e3 * REFERENCE_S:g} ms); job time {sum(r['latency_s'] for r in records):.2f} s "
          f"unscaled, {sum(r['scaled_latency_s'] for r in records):.2f} s scaled")
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["latency_s"])
    for kind, lat in sorted(by_kind.items()):
        print(f"  {kind:14s} jobs {len(lat):4d}  median {1e3 * statistics.median(lat):9.2f} ms"
              f"  max {1e3 * max(lat):9.2f} ms  (unscaled)")
    for r in records:
        if r["error"] is not None:
            print(f"  FAILED {r['kind']}: {r['error'][:300]}")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        shipped = load_shipped(ROOT)
        if not trace:
            setup, setup_refs = setup_samples(workload, work)
            jobs, records = run_stream(workload, seed, seconds, work, shipped)
            cut = stream_cut_short(records, seconds)
            values, samples = end_to_end(
                records, [x * REFERENCE_S / ref for x, ref in zip(setup, setup_refs)])
            units = END_TO_END
            check = None
        else:
            from tracing import Tracer, layer_metrics, unit
            tracer = Tracer()
            jobs, records = run_stream(workload, seed, seconds / 3, work, shipped, tracer=tracer)
            cut = stream_cut_short(records, seconds / 3)
            plain_wall = sum(r["plain_latency_s"] for r in records)
            realisations = sum(_realisations(j) for j in jobs)
            values, check = layer_metrics(
                tracer, [r["latency_s"] for r in records], plain_wall, realisations,
                output_bytes=sum(r["bytes"] for r in records),
                output_files=sum(r["files"] for r in records))
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"))
            units = {name: unit(name) for name in values}
            samples = None
        record = run_record(workload, seed, seconds, trace, jobs)
        record["cut_short_by_wall_limit"] = cut
        if not trace:
            record["setup_samples_s"] = setup
            record["setup_references_s"] = setup_refs
    finally:
        shutil.rmtree(work, ignore_errors=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"jobs-{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"run_record": record, "jobs": records}, fh)
    failed = sum(r["error"] is not None for r in records)
    correct = not any(r["check_failed"] for r in records) and (check is None or check["ok"])
    print("run_record " + json.dumps(record, sort_keys=True))
    print(f"workload {workload}: {len(jobs)} jobs, {failed} failed")
    if cut:
        print(f"WARNING: stream cut short by the {WALL_LIMIT_S:.0f} s wall-clock limit before "
              f"reaching {MIN_JOBS} jobs and the requested job time")
    _report(records)
    if check is not None:
        print("trace_check " + json.dumps(check, sort_keys=True))
    for name, value in values.items():
        count = f"  ({samples[name]})" if samples else ""
        print(f"  {name:48s} {value!r:>24} {units[name]}{count}")
    return {"correct": correct, "attempted": len(jobs), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def _realisations(job: dict) -> int:
    """Field realisations a job draws, counted from its arguments."""
    if job["kind"] == "truncation_mc":
        return job["call"]["n_runs"]
    if job["kind"] == "simulate":
        argv = job["argv"]
        return 1 + (int(argv[argv.index("--ensemble") + 1]) if "--ensemble" in argv else 0)
    return 0


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a fresh process; metrics side by side."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise RuntimeError(f"workload {workload} exited {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':48s}" + "".join(f"{w:>16s}" for w in WORKLOADS) + "  unit")
    for name in names:
        cells = "".join(f"{results[w]['metrics'][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name:48s}{cells}  {results[WORKLOADS[0]]['metrics'][name]['unit']}")
    print(f"{'jobs attempted / failed':48s}"
          + "".join(f"{results[w]['attempted']} / {results[w]['failed']}".rjust(16)
                    for w in WORKLOADS))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyperdiff", "__init__.py")):
        print(f"error: no hyperdiff sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.trace)
        print(json.dumps({"workloads": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
