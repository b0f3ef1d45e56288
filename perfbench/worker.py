"""Timed worker: one fresh process runs a workload's job list in a closed loop.

Usage: python3 perfbench/worker.py SPEC.json   (with src/ on PYTHONPATH)

The spec, written by run.py, holds the job list, the run length and whether
to trace.  The worker times ``import frameness`` and ``frameness.cli``, then
runs the jobs one after another, pass after pass, until the run length is
used up, timing each job (wall and process CPU) and checking its output
outside the timed span.  Without tracing, it also times the same imports in
fresh probe processes between jobs, spread evenly over the run.  With tracing
on, the first half of the run is untraced and the second half traced, so the
overhead is measured in the same process.  Results go to the spec's ``result`` path as JSON.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

PROBE_CODE = ("import time\n"
              "t = time.perf_counter()\n"
              "import frameness, frameness.cli\n"
              "print(repr(time.perf_counter() - t))\n")


def setup_probe() -> float:
    """``import frameness`` and ``frameness.cli`` timed in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", PROBE_CODE], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.strip())


def _channel_job(job, constructor):
    """Library job: build one unital idempotent channel and run the channel calculus on it."""
    import frameness

    name, args, rho = constructor
    ch = getattr(frameness, name)(*args)
    gap = frameness.relative_entropy_to_image(ch, frameness.DensityOperator(rho))
    report = frameness.image_fix_equivalence_check(ch, samples=job["samples"],
                                                   seed=job["sample_seed"])
    return {"gap": gap, "consistent": report.consistent, "idempotent": report.idempotent}


def _read_output(job):
    with open(job["out"]) as fh:
        return fh.read() if job["format"] == "csv" else json.load(fh)


class Runner:
    def __init__(self, jobs, tracer=None):
        # imported only now: checks imports numpy, which setup_s must include,
        # and binds numpy's eigensolvers before a tracer can replace them
        import frameness.cli

        import checks
        import workloads

        self.cli_run = frameness.cli.run
        self.checks = checks
        self.jobs = jobs
        # channel constructor arguments are built once, outside the timed spans
        self.constructors = {job["id"]: workloads.channel_constructor(job)
                             for job in jobs if job["kind"] == "channel"}
        self.tracer = tracer
        self.records = {job["id"]: {"wall": [], "cpu": [], "traced_wall": [], "failed": 0,
                                    "detail": ""} for job in jobs}
        self.attempted = 0
        self.failed = 0
        self.selftest = {"checked": 0, "missed": []}
        self.probes = []

    def _span_name(self, job):
        return f"cli.{job['argv'][0]}" if job["kind"] == "cli" else "library.channels"

    def run_job(self, job, traced: bool):
        output, error = None, None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                with self.tracer.job_span(self._span_name(job), job["id"]):
                    output = self._call(job)
            else:
                output = self._call(job)
        except Exception:  # a job that raises is a failed job; the run goes on
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0

        rec = self.records[job["id"]]
        rec["traced_wall" if traced else "wall"].append(wall)
        if not traced:
            rec["cpu"].append(cpu)
        self.attempted += 1
        if error is None:
            error = self._check(job, output, first=len(rec["wall"]) + len(rec["traced_wall"]) == 1)
        if error is not None:
            rec["failed"] += 1
            rec["detail"] = error
            self.failed += 1

    def _call(self, job):
        if job["kind"] == "channel":
            return _channel_job(job, self.constructors[job["id"]])
        rc = self.cli_run(job["argv"])
        if rc != 0:
            raise RuntimeError(f"frameness {job['argv'][0]} exited with {rc}")
        return None

    def _check(self, job, output, first: bool):
        checker = self.checks.CHECKS[job["check"]]
        try:
            if output is None:
                output = _read_output(job)
            ok, detail = checker(output, job["ref"])
            if first:
                # the checker must reject a slightly perturbed copy of a good output
                self.selftest["checked"] += 1
                caught = not checker(self.checks.PERTURB[job["check"]](output), job["ref"])[0]
                if ok and not caught:
                    self.selftest["missed"].append(job["id"])
        except Exception:  # a malformed output fails its check
            return "check raised:\n" + traceback.format_exc(limit=3)
        self.records[job["id"]]["detail"] = detail
        return None if ok else f"check failed: {detail}"

    def run_phase(self, seconds: float, traced: bool, n_probes: int = 0) -> int:
        """Whole passes over the job list for `seconds` of job time; returns the pass count.

        `n_probes` set-up probes run between jobs, one each time another
        `seconds / n_probes` of job time has passed, so that they sample the
        same stretch of the machine's time as the jobs.  Probe time does not
        count towards `seconds`.
        """
        start, probe_s, passes = time.perf_counter(), 0.0, 0

        def job_time():
            return time.perf_counter() - start - probe_s

        while passes == 0 or job_time() < seconds:
            for job in self.jobs:
                if len(self.probes) < n_probes and job_time() >= len(self.probes) * seconds / n_probes:
                    t0 = time.perf_counter()
                    self.probes.append(setup_probe())
                    probe_s += time.perf_counter() - t0
                self.run_job(job, traced)
            passes += 1
        while len(self.probes) < n_probes:
            self.probes.append(setup_probe())
        return passes

    def per_pass(self, key: str) -> float:
        """Sum over jobs of each job's median over passes."""
        return sum(statistics.median(rec[key]) for rec in self.records.values())


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import frameness  # noqa: F401
    import frameness.cli  # noqa: F401
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
    runner = Runner(spec["jobs"], tracer)
    result = {"setup_s": setup_s}
    if tracer is None:
        result["passes"] = runner.run_phase(spec["seconds"], traced=False,
                                            n_probes=spec["setup_probes"])
    else:
        result["passes"] = runner.run_phase(spec["seconds"] / 2, traced=False)
        tracer.install()
        try:
            result["traced_passes"] = runner.run_phase(spec["seconds"] / 2, traced=True)
        finally:
            tracer.uninstall()
        layers = tracer.summary(result["traced_passes"])
        untraced, traced = runner.per_pass("wall"), runner.per_pass("traced_wall")
        layers.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                       "trace.overhead_s": traced - untraced,
                       "trace.overhead_frac": (traced - untraced) / untraced})
        result["layers"] = layers
        tracer.write_jsonl(spec["trace_path"])
    result.update({
        "wall_s": runner.per_pass("wall"),
        "cpu_s": runner.per_pass("cpu"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "selftest": runner.selftest,
        "setup_probes_s": runner.probes,
        "jobs": runner.records,
    })
    with open(spec["result"], "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
