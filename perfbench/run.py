"""Benchmark for the frameness toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's seeded inputs under .perfbench_work/, imports
frameness once untimed to warm the file cache, then runs the job list in one
fresh worker process (perfbench/worker.py) for S seconds and checks every
output.  The worker also times ``import frameness`` in fresh probe processes
spread over the run.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  perfbench/RATIONALE.md says why each workload and metric is
there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
SETUP_PROBES = 8


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env(root: str) -> dict:
    """The package from src/, and BLAS threads capped at the cores this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cap = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, cap))
        except ValueError:
            wanted = cap
        env[var] = str(max(1, min(wanted, cap)))
    return env


def _environment(env: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem_bytes = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": _nproc(),
        "mem_total_mb": round(mem_bytes / 2**20),
    }


def _warm_import(env: dict) -> None:
    """One untimed import in a fresh process, so that every timed one finds the files cached."""
    subprocess.run([sys.executable, "-c", "import frameness, frameness.cli"], env=env,
                   capture_output=True, timeout=60, check=True)


def _run_worker(spec: dict, workdir: str, env: dict) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    # the worker finishes the pass it is in when the run length is up
    timeout = 2 * spec["seconds"] + 120
    with open(os.path.join(workdir, "worker.stderr"), "w+") as err:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                  env=env, stdout=subprocess.DEVNULL, stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker exceeded {timeout:g} s") from None
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{err.read()[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "frameness", "__init__.py")):
        return _fail("src/frameness not found; run from the root of a frameness checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, os.path.join(root, "src"))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    env = _worker_env(root)
    os.makedirs(WORK_ROOT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(root, WORK_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workloads.Inputs(workdir)
        jobs = workloads.WORKLOADS[args.workload](args.seed, inputs)
        environment = _environment(env)
        _warm_import(env)
        spec = {"jobs": jobs, "seconds": args.seconds, "trace": bool(args.trace),
                "setup_probes": 0 if args.trace else SETUP_PROBES,
                "result": os.path.join(workdir, "result.json"),
                "trace_path": os.path.join(root, WORK_ROOT, f"trace-{tag}.jsonl")}
        result = _run_worker(spec, workdir, env)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = [result["setup_s"]] + result["setup_probes_s"]
    end_to_end = {
        "wall_s": (result["wall_s"], "s"),
        "cpu_s": (result["cpu_s"], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    if args.trace:
        units = dict(tracer.METRICS)
        measured = {name: (value, units[name]) for name, value in result["layers"].items()}
        expected = [m["name"] for m in bench["per_layer"]]
    else:
        measured = end_to_end
        expected = [m["name"] for m in bench["end_to_end"]]
    if sorted(measured) != sorted(expected):
        return _fail(f"metrics {sorted(measured)} differ from BENCHMARK.json {sorted(expected)}")
    metrics = {name: {"value": measured[name][0], "unit": measured[name][1]} for name in expected}

    selftest = result["selftest"]
    correct = result["failed"] == 0 and not selftest["missed"] and selftest["checked"] > 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment, "inputs": inputs.records,
              "setup_samples_s": setup, "error_rate": result["failed"] / result["attempted"],
              "correct": correct, "metrics": metrics, "worker": result}
    with open(os.path.join(root, WORK_ROOT, f"last-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(environment, sort_keys=True))
    for rec in inputs.records:
        print(f"input {rec['name']}: d={rec['dim']} bytes={rec['bytes']}")
    for job_id, rec in result["jobs"].items():
        walls = rec["wall"] or [0.0]
        print(f"job {job_id}: median {statistics.median(walls):.4f} s over {len(rec['wall'])} "
              f"untraced runs, {rec['failed']} failed; {rec['detail'].splitlines()[0] if rec['detail'] else ''}")
    print(f"passes {result['passes']}{', traced ' + str(result['traced_passes']) if args.trace else ''}; "
          f"error_rate {record['error_rate']:.4f} ({result['failed']}/{result['attempted']}); "
          f"checker self-test {selftest['checked'] - len(selftest['missed'])}/{selftest['checked']} "
          f"perturbed outputs rejected")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
