"""cognet benchmark: every system through the ``cognet`` CLI, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 45 --trace 0

One client runs one CLI operation at a time, each in a fresh Python process
with one BLAS thread.  A run:

1. sets up ``setup_repeats`` times (a fresh process imports cognet and
   writes the seeded inputs; ``long-words-eval`` then trains all five
   systems) and reports the median, at the reference speed of step 3, as
   ``setup_s``;
2. runs two passes over the five systems, so every output can be checked
   for a byte-identical rerun, then more operations until ``--seconds`` have
   gone by, giving each system about the same measured time.  With
   ``--trace 1`` it runs exactly one untraced and one traced pass and
   reports the per-layer metrics of the traced one.
3. reports the end-to-end times at a reference host speed.  The speed is
   timed by a fixed calibration before and after each timed interval; see
   ``calibrate.py``.

Every timed operation is checked (exit code, ``report.tsv``, test-pair
count, average precision above chance, byte-identical reruns).  The last line
of stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment.  Outputs of the last run of
each workload stay in ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from inputs import EVALUATE, NEURAL_SYSTEMS, SVM_SYSTEMS, SYSTEMS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 2
# One BLAS thread per child, which is at most nproc.  On a shared 2-vCPU host,
# two threads ran the ConvNet forward pass 10-15% slower than one, and no
# steadier: each BLAS call then waits for the slower of two busy CPUs.
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run must be over within 180 s

REPORT_KEYS = ("accuracy", "f_negative", "f_positive", "f_combined", "average_precision",
               "n_test", "tp", "fp", "tn", "fn")


# The host's speed drifts by a third and more within minutes, and it moves
# every system's times together.  So each timed interval is bracketed by two
# calibrations (see calibrate.py), and reported at the reference speed: it is
# multiplied by REFERENCE_CALIBRATION_S over the mean of its two calibrations.
REFERENCE_CALIBRATION_S = 0.060  # the calibration's median on the reference host


class HostSpeed:
    """Calibrations between timed intervals, and intervals rescaled by them.

    The calibrations run in a helper process, which ``close`` stops.
    """

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples = [self.calibrate()]

    def calibrate(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupFailed(f"the calibration helper exited {self.proc.wait()}")
        return float(line)

    def rescale(self, seconds: float) -> float:
        """``seconds``, timed since the last calibration, at the reference speed."""
        self.samples.append(self.calibrate())
        return seconds * REFERENCE_CALIBRATION_S * 2 / (self.samples[-2] + self.samples[-1])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class SetupFailed(Exception):
    pass


@dataclass
class Op:
    """One CLI invocation and what was measured and checked about it.

    ``pass_no`` counts the operations of one system in a run; pass 0 holds
    the reference outputs that every later pass must reproduce byte for byte.
    """

    system: str
    pass_no: int
    out_dir: Path
    traced: bool = False
    run_s: float = 0.0
    scaled_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    stderr_lines: int = 0
    truncation_warnings: int = 0
    report: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(argv: list[str], out_dir: Path, env: dict, timeout: float) -> tuple[float, float, int]:
    """Run one process to completion; returns (wall s, peak RSS MB, exit code).

    Stdout and stderr go to files in ``out_dir``.  The process is killed if
    it outlives ``timeout``.  Peak RSS comes from the child's own rusage.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def forward_stderr(op: Op) -> None:
    """Summarise the child's captured stderr on ours; all of it on failure."""
    text = (op.out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    op.stderr_lines = len(lines)
    op.truncation_warnings = sum("truncated from" in ln for ln in lines)
    log(f"pass {op.pass_no} {op.system}{' (traced)' if op.traced else ''}: "
        f"{op.run_s:.3f} s, {op.rss_mb:.0f} MB, exit {op.exit_code}, "
        f"{len(lines)} stderr lines ({op.truncation_warnings} truncation warnings)")
    shown = lines if op.exit_code != 0 else lines[:3]
    for line in shown:
        print(f"    {line}", file=sys.stderr)


# ------------------------------------------------------------------ set-up


def cli_args(w: Workload, system: str, manifest: dict, data_dir: Path, out_dir: Path,
             train: bool = False) -> list[str]:
    files = {k: str(data_dir / v) for k, v in manifest["files"].items()}
    common = ["--system", system, "--seed", str(manifest["program_seed"]), "--out-dir", str(out_dir)]
    if train:
        return ["train", "--data", files["train"], *common, *w.train_options]
    if w.kind == EVALUATE:
        model_dir = data_dir / system
        args = ["evaluate", "--data", files["data"], *common, "--model", str(model_dir / "model.txt")]
        if system == "pmi_svm":
            args += ["--pmi-matrix", str(model_dir / "pmi_matrix.tsv")]
        return args
    return ["pipeline", "--data", files["data"], "--mode", "cross-concept", *common, *w.options]


def set_up(w: Workload, seed: int, work: Path, env: dict, deadline: float, speed: HostSpeed):
    """Set the workload up ``w.setup_repeats`` times.

    Returns (per-repeat seconds at the reference speed, inputs manifest,
    directory of repeat 0, per-system problems with the trained artifacts).
    """
    times, dirs = [], []
    for r in range(w.setup_repeats):
        start = time.perf_counter()
        rep = work / f"setup{r}"
        argv = [sys.executable, str(HERE / "inputs.py"), "--workload", w.to_json(),
                "--seed", str(seed), "--out", str(rep)]
        _, _, code = run_child(argv, rep / "log", env, deadline - time.perf_counter())
        if code != 0:
            raise SetupFailed(f"input generation exited {code}; see {rep / 'log' / 'stderr.txt'}")
        manifest = json.loads((rep / "inputs.json").read_text(encoding="utf-8"))
        if w.kind == EVALUATE:
            for system in SYSTEMS:
                argv = [sys.executable, "-m", "cognet.cli",
                        *cli_args(w, system, manifest, rep, rep / system, train=True)]
                _, _, code = run_child(argv, rep / system, env, deadline - time.perf_counter())
                if code != 0:
                    raise SetupFailed(f"cognet train {system} exited {code}; "
                                      f"see {rep / system / 'stderr.txt'}")
        times.append(speed.rescale(time.perf_counter() - start))
        dirs.append(rep)

    first = json.loads((dirs[0] / "inputs.json").read_text(encoding="utf-8"))
    for rep in dirs[1:]:
        for name in first["files"].values():
            if (rep / name).read_bytes() != (dirs[0] / name).read_bytes():
                raise SetupFailed(f"inputs differ between set-ups with one seed: {name}")
    problems: dict[str, str] = {}
    if w.kind == EVALUATE:
        for system in SYSTEMS:
            for name in ("model.txt", "pmi_matrix.tsv"):
                ref = dirs[0] / system / name
                if ref.exists() and any((d / system / name).read_bytes() != ref.read_bytes()
                                        for d in dirs[1:]):
                    problems[system] = f"trained {name} differs between same-seed set-ups"
    return times, first, dirs[0], problems


# ------------------------------------------------------------------ checks


def read_report(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != 2 or tuple(lines[0].split("\t")) != REPORT_KEYS:
        raise ValueError(f"{path}: unexpected layout")
    values = lines[1].split("\t")
    if len(values) != len(REPORT_KEYS):
        raise ValueError(f"{path}: {len(values)} values for {len(REPORT_KEYS)} keys")
    report = {k: float(v) for k, v in zip(REPORT_KEYS, values)}
    report["n_test"] = int(values[REPORT_KEYS.index("n_test")])
    return report


def check(op: Op, n_test: int, first: Op | None, setup_problem: str | None) -> None:
    """Record every failed output check of ``op`` in ``op.problems``."""
    if op.exit_code != 0:
        op.problems.append(f"exit code {op.exit_code}")
        return
    if setup_problem:
        op.problems.append(setup_problem)
    try:
        op.report = read_report(op.out_dir / "report.tsv")
    except (OSError, ValueError) as exc:
        op.problems.append(f"report.tsv does not parse: {exc}")
        return
    if op.report["n_test"] != n_test:
        op.problems.append(f"n_test {op.report['n_test']} != {n_test} generated test pairs")
    # random scores give AP near the share of positives, so AP must beat it
    chance = (op.report["tp"] + op.report["fn"]) / n_test
    if not op.report["average_precision"] > chance:
        op.problems.append(f"average precision {op.report['average_precision']} "
                           f"is not above chance ({chance:.3f})")
    if first is not None:
        for name in ("report.tsv", "model.txt"):
            ours, ref = op.out_dir / name, first.out_dir / name
            if ref.exists() and (not ours.exists() or ours.read_bytes() != ref.read_bytes()):
                op.problems.append(f"{name} differs from pass {first.pass_no}")


# ------------------------------------------------------------- measurement


def run_op(w: Workload, system: str, pass_no: int, traced: bool, manifest: dict,
           data_dir: Path, work: Path, env: dict, deadline: float) -> tuple[Op, dict | None]:
    op = Op(system, pass_no, work / f"pass{pass_no}" / system, traced)
    args = cli_args(w, system, manifest, data_dir, op.out_dir)
    remaining = deadline - time.perf_counter()
    if remaining < 1.0:
        op.problems.append("not run: the run's time limit was reached")
        return op, None
    spans_path = op.out_dir / "spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                f"{w.name}/pass{pass_no}/{system}", repr(tracer.now()), "--", *args]
    else:
        argv = [sys.executable, "-m", "cognet.cli", *args]
    op.run_s, op.rss_mb, op.exit_code = run_child(argv, op.out_dir, env, remaining)
    forward_stderr(op)
    record = None
    if traced and spans_path.exists():
        record = json.loads(spans_path.read_text(encoding="utf-8"))
    return op, record


def measure(w: Workload, seconds: int, trace: bool, manifest: dict, data_dir: Path,
            work: Path, env: dict, deadline: float, speed: HostSpeed):
    """Closed loop over the five systems; returns (ops, span records by system).

    The first ``MIN_PASSES`` passes run every system in order: the first
    gives each system's reference outputs, the second its same-seed rerun.
    With ``trace`` the second pass is traced and the loop ends there.
    Otherwise the loop goes on with whichever system has had the least
    measured time so far, as long as its next operation, at its median time,
    ends within ``seconds``.  So each system gets about the same share of
    the run however long one of its operations takes.  ``speed`` rescales
    each operation's time into ``Op.scaled_s``.
    """
    ops: list[Op] = []
    records: dict[str, dict] = {}
    times: dict[str, list[float]] = {system: [] for system in SYSTEMS}
    start = time.perf_counter()

    def one(system: str, traced: bool) -> None:
        op, record = run_op(w, system, len(times[system]), traced, manifest, data_dir,
                            work, env, deadline)
        op.scaled_s = speed.rescale(op.run_s)
        ops.append(op)
        times[system].append(op.run_s)
        if record is not None:
            records[system] = record

    for pass_no in range(MIN_PASSES):
        for system in SYSTEMS:
            one(system, trace and pass_no == 1)
    while not trace:
        system = min(SYSTEMS, key=lambda s: sum(times[s]))
        expected = statistics.median(times[system])
        now = time.perf_counter()
        if now + expected > min(start + seconds, deadline):
            break
        one(system, False)
    return ops, records


def end_to_end(ops: list[Op], setup_times: list[float], failed: int) -> dict:
    """The end-to-end metrics; times are at the reference speed."""
    m: dict[str, tuple[float, str]] = {}
    for system in SYSTEMS:
        mine = [op for op in ops if op.system == system]
        m[f"run_s.{system}"] = (statistics.median(op.scaled_s for op in mine), "s")
        aps = [op.report["average_precision"] for op in mine if op.report]
        m[f"ap.{system}"] = (statistics.median(aps) if aps else 0.0, "ratio")
    m["peak_rss_mb.neural"] = (max(op.rss_mb for op in ops if op.system in NEURAL_SYSTEMS), "MB")
    m["peak_rss_mb.svm"] = (max(op.rss_mb for op in ops if op.system in SVM_SYSTEMS), "MB")
    m["setup_s"] = (statistics.median(setup_times), "s")
    m["ok_rate"] = ((len(ops) - failed) / len(ops), "ratio")
    return m


def per_layer(ops: list[Op], records: dict[str, dict]) -> dict:
    untraced = {op.system: op.run_s for op in ops if not op.traced}
    traced = [{"system": op.system, "record": records[op.system], "run_s": op.run_s,
               "untraced_run_s": untraced[op.system],
               "truncation_warnings": op.truncation_warnings}
              for op in ops if op.traced and op.system in records]
    return {k: (v, tracer.UNITS[k]) for k, v in tracer.layer_metrics(traced).items()}


def accounting(op: Op, record: dict) -> dict:
    """Where one traced operation's wall time went, span by span."""
    summary = tracer.op_summary(record)
    return {
        "startup_s": summary["startup_s"],
        "unaccounted_s": op.run_s - summary["startup_s"] - sum(summary["self_s"].values()),
        "self_s": summary["self_s"],
        "total_s": summary["total_s"],
        "calls": summary["calls"],
    }


# ------------------------------------------------------------- environment


def environment(threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict form
        blas = {}
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# -------------------------------------------------------------------- main


def run(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(BLAS_THREADS)

    speed = HostSpeed(env)
    try:
        setup_times, manifest, data_dir, setup_problems = set_up(w, seed, work, env, deadline,
                                                                 speed)
        ops, records = measure(w, seconds, trace, manifest, data_dir, work, env, deadline,
                               speed)
    finally:
        speed.close()
    log(f"host speed: calibration median {statistics.median(speed.samples) * 1e3:.1f} ms "
        f"over {len(speed.samples)}, reference {REFERENCE_CALIBRATION_S * 1e3:.1f} ms")
    firsts: dict[str, Op] = {}
    for op in ops:
        if op.exit_code is not None:
            check(op, manifest["n_test"], firsts.get(op.system), setup_problems.get(op.system))
            firsts.setdefault(op.system, op)
    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        for problem in op.problems:
            log(f"FAILED pass {op.pass_no} {op.system}: {problem}")

    metrics = per_layer(ops, records) if trace else end_to_end(ops, setup_times, failed)
    env_record = environment(BLAS_THREADS)
    detail = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env_record, "setup_s": setup_times,
        "calibration": {"reference_s": REFERENCE_CALIBRATION_S, "samples_s": speed.samples},
        "ops": [{"system": op.system, "pass": op.pass_no, "traced": op.traced,
                 "run_s": op.run_s, "scaled_s": op.scaled_s, "peak_rss_mb": op.rss_mb,
                 "exit_code": op.exit_code, "stderr_lines": op.stderr_lines,
                 "problems": op.problems,
                 **({"spans": accounting(op, records[op.system])}
                    if op.traced and op.system in records else {})} for op in ops],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env_record}))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cognet" / "cli.py").is_file():
        print(f"perfbench: no cognet sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
