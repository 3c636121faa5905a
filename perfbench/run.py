"""finsite benchmark: seeded CLI workloads in a closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs one job at a time; each job
is a fresh `python -m finsite.cli ... --format json --out FILE` process with
the default `--threads 1`, built from the checkout's `src`.  Every output is
checked against answers the benchmark derives itself, and every job of a run
must give the same bytes.  The last line on stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced jobs
with jobs run under the layer tracer (perfbench/trace_job.py) and reports the
per-layer metrics.  Both loop until --seconds have passed, and run at least
two jobs, so that byte identity is always checked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload is here is recorded in BENCHMARK.json.  There are only
# two so that each run can be long: on a shared 2-vCPU VM the speed drifts by
# tens of percent over tens of seconds, and a run must outlast that drift for
# its median to repeat from run to run.
WORKLOADS = ("realize-render", "compare-maps")

END_TO_END = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

SETUP_SAMPLES = 11
# A run must end within 180 s: a job still running this long after the run
# started is killed and counts as failed.
RUN_LIMIT_S = 170

# Metric -> traced function whose summed self time (or call count) it is.
SELF_TIME = {
    "catsite.saturate_s": "catsite.site_from_finite_space",
    "catsite.sieve_category_s": "catsite.sieve_category",
    "presheaf.sheafify_s": "presheaf.sheafify_set",
    "presheaf.plus_step_s": "presheaf.gamma_prime_set",
    "presheaf.is_sheaf_s": "presheaf.is_sheaf_set",
    "presheaf.sections_s": "presheaf.sections_set",
    "presheaf.pi0_certificate_s": "presheaf.illusie_pi0_certificate",
    "sset.tabulate_s": "sset.tabulate",
    "sset.nondeg_scan_s": "sset.SimplicialSet.nondegenerate",
    "sset.to_json_s": "sset.to_json",
    "realization.realize_s": "realization.realize",
    "realization.to_json_s": "realization.realization_to_json",
    "realization.induced_map_s": "realization.induced_realization_map",
    "homology.chain_complex_s": "homology.normalized_chain_complex",
    "homology.snf_s": "homology.smith_normal_form",
    "homology.group_s": "homology.homology",
    "homology.induced_s": "homology.induced_map",
    "canon.sort_s": "canon.csorted",
    "canon.render_s": "canon.cjson",
    "cli.load_s": "cli._load_json",
}
CALLS = {
    "catsite.sieve_category_calls": "catsite.sieve_category",
    "presheaf.plus_steps": "presheaf.gamma_prime_set",
    "realization.realize_calls": "realization.realize",
    "homology.snf_calls": "homology.smith_normal_form",
    "canon.sort_calls": "canon.csorted",
}
COUNTERS = (
    "catsite.masks_tried",
    "catsite.coverings_kept",
    "presheaf.sections_found",
    "sset.simplices",
    "sset.table_entries",
    "homology.snf_cells",
    "homology.snf_nnz",
    "homology.unit_pivots",
    "homology.nonunit_pivots",
    "homology.snf_verified",
    "homology.snf_unverified",
    "canon.output_bytes",
)
# Ratio -> (numerator counter, denominator counter).
RATIOS = {
    "catsite.sieve_yield": ("catsite.coverings_kept", "catsite.masks_tried"),
    "sset.nondeg_ratio": ("sset.nondeg_found", "sset.nondeg_scanned"),
    "homology.snf_density": ("homology.snf_nnz", "homology.snf_cells"),
}
TRACE = {"trace.job_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
         "trace.count_s": "s", "trace.spans": "count"}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SELF_TIME}
    units.update({name: "count" for name in (*CALLS, *COUNTERS)})
    units.update({name: "ratio" for name in RATIOS})
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.spans"] = "count"
    units.update(TRACE)
    return units


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    output: bytes


class Launcher:
    """The small process that starts and measures every job (launch.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).parent / "launch.py")],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def measure(self, cmd: list[str], err_file: Path, timeout: float) -> list:
        self.proc.stdin.write(json.dumps([cmd, str(err_file), timeout]) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        """End of input stops the launcher; wait for it on every path out."""
        try:
            self.proc.stdin.close()
        finally:
            self.proc.wait()


class Run:
    """One benchmark run: generated inputs, the job loop, and its tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path,
                 launcher: Launcher, env: dict):
        self.started = perf_counter()
        self.seconds = seconds
        self.workdir = workdir
        self.launcher = launcher
        base = gen.interval_cover(sys.executable, env, workdir)
        self.args, self.facts = gen.make_inputs(workload, seed, base, workdir)
        self.out_file = workdir / "out.json"
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.setup_failed = False

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "finsite.cli", *args]

    def run_job(self, cmd: list[str], out_file: Path) -> Job:
        out_file.unlink(missing_ok=True)
        err_file = out_file.with_suffix(".err")
        timeout = RUN_LIMIT_S - (perf_counter() - self.started)
        wall, cpu, rss, code = self.launcher.measure(cmd, err_file, timeout)
        if code != 0:
            print(f"job exited {code}: {err_file.read_text()[:500]}", file=sys.stderr)
        output = out_file.read_bytes() if out_file.exists() else b""
        return Job(wall, cpu, rss, code, output)

    def job(self, cmd: list[str]) -> Job:
        """Run and check one job; a nonzero exit or a wrong output is a failure."""
        job = self.run_job(cmd, self.out_file)
        self.attempted += 1
        problems = [f"exit code {job.exit_code}"] if job.exit_code else []
        if not problems:
            try:
                problems = check.check_output(json.loads(job.output), self.facts)
            except ValueError as exc:
                problems = [f"output is not JSON: {exc}"]
        if self.reference is None:
            self.reference = job.output
        elif job.output != self.reference:
            problems.append("output differs from the first job of this seed")
        if problems:
            self.failed += 1
            print("check failed: " + "; ".join(problems[:5]), file=sys.stderr)
        return job

    def setup_time(self) -> float:
        """One fresh-process `validate` on the workload's space: start-up,
        import and loading, which every job pays before its own work."""
        space = self.args[self.args.index("--space") + 1]
        out = self.workdir / "validate.json"
        job = self.run_job(self.cli("validate", "--space", space, "--format", "json",
                                    "--out", str(out)), out)
        if job.exit_code != 0 or not json.loads(job.output)["report"]["ok"]:
            self.setup_failed = True
        return job.wall_s

    def untraced(self) -> dict:
        # Set-up samples are taken one after each job, then topped up, so that
        # a slow spell of the machine does not land on all of them at once.
        setup: list[float] = []
        job_cmd = self.cli(*self.args, "--out", str(self.out_file))
        jobs: list[Job] = []
        deadline = perf_counter() + self.seconds
        while len(jobs) < 2 or perf_counter() < deadline:
            jobs.append(self.job(job_cmd))
            if len(setup) < SETUP_SAMPLES:
                setup.append(self.setup_time())
            print(f"job {len(jobs)}: {jobs[-1].wall_s:.3f} s", file=sys.stderr)
        setup += [self.setup_time() for _ in range(SETUP_SAMPLES - len(setup))]
        # The first job warms the file cache and is checked but not timed.
        timed = jobs[1:]
        return {
            "job_s": statistics.median(j.wall_s for j in timed),
            "cpu_s": statistics.median(j.cpu_s for j in timed),
            "peak_rss_mb": statistics.median(j.rss_mb for j in timed),
            "setup_s": statistics.median(setup),
        }

    def traced(self) -> dict:
        spans_file = self.workdir / "spans.json"
        plain_cmd = self.cli(*self.args, "--out", str(self.out_file))
        traced_cmd = [sys.executable, str(Path(__file__).parent / "trace_job.py"),
                      str(spans_file), *self.args, "--out", str(self.out_file)]
        plain, samples = [], []
        deadline = perf_counter() + self.seconds
        while not plain or perf_counter() < deadline:
            plain.append(self.job(plain_cmd).wall_s)
            spans_file.unlink(missing_ok=True)
            job = self.job(traced_cmd)
            print(f"pair {len(plain)}: {plain[-1]:.3f} s plain, {job.wall_s:.3f} s traced",
                  file=sys.stderr)
            if job.exit_code == 0 and spans_file.exists():
                samples.append(layer_metrics(json.loads(spans_file.read_text()), job.wall_s))
        if not samples:
            return {name: 0 for name in per_layer_units()}
        values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
        values["trace.overhead_s"] = values["trace.job_s"] - statistics.median(plain)
        return values


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced job."""
    spans, counters = trace["spans"], trace["counters"]
    own = tracing.self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    out = {metric: by_name.get(fn, 0.0) for metric, fn in SELF_TIME.items()}
    out.update({metric: calls.get(fn, 0) for metric, fn in CALLS.items()})
    out.update({name: counters.get(name, 0) for name in COUNTERS})
    for name, (num, den) in RATIOS.items():
        out[name] = counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
    attributed = 0.0
    for layer in tracing.LAYERS:
        names = [n for n in by_name if n.split(".")[0] == layer]
        out[f"{layer}.self_s"] = sum(by_name[n] for n in names)
        out[f"{layer}.spans"] = sum(calls[n] for n in names)
        attributed += out[f"{layer}.self_s"]
    out["trace.job_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - attributed
    out["trace.count_s"] = by_name.get("trace.count", 0.0)
    out["trace.spans"] = len(spans)
    return out


def result_line(correct: bool, run: Run, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": run.attempted,
                       "failed": run.failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "finsite" / "cli.py").is_file():
        print(f"no finsite package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Started first, while this process is still small: see launch.py.
    launcher = Launcher(env)
    try:
        run = Run(args.workload, args.seed, args.seconds, workdir, launcher, env)
        if args.trace:
            values, units = run.traced(), per_layer_units()
        else:
            values, units = run.untraced(), END_TO_END
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(run.failed == 0 and not run.setup_failed, run, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
