"""Benchmark of the fusioncat command line, end to end and layer by layer.

Run from the root of a fusioncat checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the benchmark drives the CLI as a user does: one cold
`python -m fusioncat ... --json` process per command, one after another,
from this single parent process (a closed loop with one client).  It makes
the workload's set-up passes (a cold `info` on every category), then whole
rounds of the workload's commands: at least the workload's minimum, and
more while they fit into S seconds.  It prints the end-to-end metrics,
each built from the median of every command's samples in the run.
Throughout the run it also times a fixed reference (calib.py) every
REF_GAP_S seconds, pausing the running command meanwhile, and gives every
time in seconds of a machine on which the reference takes REF_NOMINAL_S;
that takes out most of the drift in the speed of a shared machine (see
Cold).

With --trace 1 it runs one round in-process instead, once untraced and
once with spans and kernel counters installed from outside the package
(see spans.py), and prints the per-layer metrics.

Every command's output is checked against expectations computed apart
from the program (oracle.py).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMEOUT_S = 150
CALIB = HERE / "calib.py"
# calib.py's median cold time on the machine of the reference figures
# (README.md); every end-to-end time is given in seconds of that machine.
REF_NOMINAL_S = 0.16
# The machine's speed is sampled this often, also inside long commands.
REF_GAP_S = 1.5
WORK = Path("perfbench") / "_work"


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    # Commands load cached bytecode, as an installed program does, whatever
    # the caller's setting; the import check in _check_checkout writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_checkout() -> None:
    """The program must come from this checkout's src/, not from elsewhere."""
    if not Path("src/fusioncat/__init__.py").is_file():
        _fail("no src/fusioncat here; run from the root of a fusioncat checkout")
    out = subprocess.run(
        [sys.executable, "-c", "import fusioncat.cli; print(fusioncat.__file__)"],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    if out.returncode != 0:
        _fail(f"cannot import fusioncat from src/: {out.stderr.strip()}")
    if Path(out.stdout.strip()).resolve().parent != Path("src/fusioncat").resolve():
        _fail(f"fusioncat resolves to {out.stdout.strip()}, not to src/fusioncat")


# ---------------------------------------------------------------------------
# untraced: one cold process per command


def _process_state(pid: int) -> str:
    """The state letter of a process in /proc, or "X" once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return "X"


class Cold:
    """Runs commands as cold processes and times them against a reference.

    The speed of a shared machine drifts by 10-30 % over seconds to
    minutes, and the program slows with it.  A sampler thread therefore
    times a cold run of calib.py every REF_GAP_S seconds, for the whole
    run.  If a command is running then, it is stopped (SIGSTOP) while the
    reference runs and continued afterwards; the pause is not counted in
    its time.  Each command sample is then scaled by the references taken
    during it and next to it (normalized()).
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = _child_env()
        self.checker = oracle.Checker()
        self.outputs: dict[tuple, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        # (command line, seconds, references taken before it, before its end)
        self.log: list[tuple[str, float, int, int]] = []
        self.refs: list[float] = []  # reference times, in the order taken
        # Held while a command starts and ends, and while a reference runs.
        self.lock = threading.Lock()
        self.child: int | None = None  # the running command's pid
        self.paused_s = 0.0  # time the running command spent stopped
        self.sampler_error: BaseException | None = None
        self.stopping = threading.Event()
        self.sampler = threading.Thread(target=self._sample, name="reference")

    def __enter__(self) -> "Cold":
        self.reference()
        self.sampler.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop_sampler()

    def _stop_sampler(self) -> None:
        self.stopping.set()
        self.sampler.join()

    def _sample(self) -> None:
        try:
            while not self.stopping.wait(REF_GAP_S):
                self.reference()
        except BaseException as err:  # reported by close()
            self.sampler_error = err

    def reference(self) -> None:
        """Time one cold run of calib.py, with the running command stopped."""
        with self.lock:
            pid, stopped = self.child, False
            if pid is not None:
                paused = time.perf_counter()
                os.kill(pid, signal.SIGSTOP)
                while (state := _process_state(pid)) not in "TtZX":
                    time.sleep(0.0002)
                stopped = state in "Tt"  # not when it has already exited
            start = time.perf_counter()
            # run() without a timeout blocks in waitpid; with one it would
            # poll in sleeps of up to 50 ms.  calib.py is fixed and short.
            done = subprocess.run([sys.executable, str(CALIB)], env=self.env,
                                  stdout=subprocess.DEVNULL)
            self.refs.append(time.perf_counter() - start)
            if stopped:
                os.kill(pid, signal.SIGCONT)
                self.paused_s += time.perf_counter() - paused
        if done.returncode != 0:
            raise RuntimeError(f"the reference calib.py exited {done.returncode}")

    def close(self) -> None:
        """Stop the sampler and take the reference after the last command."""
        self._stop_sampler()
        if self.sampler_error is not None:
            _fail(f"reference sampler: {self.sampler_error!r}")
        self.reference()

    def spawn(self, argv: list[str], out, err) -> tuple[float, int, object, tuple[int, int]]:
        """Run argv to its end.

        Returns the seconds it ran, not counting pauses, its exit code, its
        rusage, and how many references there were before its start and
        before its end.
        """
        with self.lock:
            first_ref = len(self.refs)
            self.paused_s = 0.0
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            self.child = proc.pid
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # Wait for the exit without reaping, so the pid stays this
            # command's until the sampler can no longer signal it.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = time.perf_counter()
            with self.lock:
                self.child = None
                elapsed = end - start - self.paused_s
                refs_before_end = len(self.refs)
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            self.child = None
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        return elapsed, rc, rusage, (first_ref, refs_before_end)

    def run(self, cmd: workloads.Command) -> float:
        """Run one command as its own process; returns its time."""
        argv = [sys.executable, "-m", "fusioncat", *cmd.argv]
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            elapsed, rc, rusage, refs = self.spawn(argv, out, err)
        self.attempted += 1
        self.log.append((" ".join(cmd.argv), elapsed, *refs))
        self.peak_rss_kb = max(self.peak_rss_kb, rusage.ru_maxrss)
        stdout = out_path.read_bytes()
        if rc != 0:
            self.failed += 1
            sys.stderr.write(f"failed ({rc}): {' '.join(cmd.argv)}: "
                             f"{err_path.read_text()[-300:]}\n")
            return elapsed
        self.checker.report(cmd.kind, cmd.model, rc, stdout, cmd.subcat,
                            where=" ".join(cmd.argv))
        key = tuple(cmd.argv)
        first = self.outputs.setdefault(key, stdout)
        self.checker.expect(first == stdout, " ".join(cmd.argv),
                            "repeated --json output differs")
        return elapsed

    def normalized(self) -> dict[str, list[float]]:
        """Each command's samples in reference-machine seconds.

        A sample is scaled by REF_NOMINAL_S over the mean of the references
        taken during it, the last one before it and the first one after it,
        so it reads as the time the command would take on a machine where
        calib.py takes REF_NOMINAL_S.
        """
        samples: dict[str, list[float]] = {}
        for line, t, first, last in self.log:
            local = statistics.fmean(self.refs[first - 1:last + 1])
            samples.setdefault(line, []).append(t * REF_NOMINAL_S / local)
        return samples


def untraced(w: workloads.Workload, seconds: float, scratch: Path) -> tuple[dict, dict]:
    with Cold(scratch) as cold:
        for _ in range(w.setup_passes):
            for c in w.setup:
                cold.run(c)
        begin = time.perf_counter()
        rounds = 0
        while True:
            for c in w.round:
                cold.run(c)
            rounds += 1
            per_round = (time.perf_counter() - begin) / rounds
            if rounds >= w.min_rounds and time.perf_counter() - begin + per_round > seconds:
                break
        cold.close()

    # Median of each command's samples in this run, so that a burst of
    # machine slowness during one sample moves a metric less.
    samples = cold.normalized()

    def total(commands) -> float:
        return sum(statistics.median(samples[" ".join(c.argv)]) for c in commands)

    metrics = {
        "wall_s": (total(w.round), "s"),
        "verify_s": (total(c for c in w.round if c.kind == "verify"), "s"),
        "setup_s": (total(w.setup), "s"),
        "peak_rss_mb": (cold.peak_rss_kb / 1024, "MB"),
    }
    details = {"refs": cold.refs, "commands": cold.log}
    return _result(cold.checker, cold.attempted, cold.failed, metrics), details


# ---------------------------------------------------------------------------
# traced: the same round in-process, with and without spans


def _clear_caches() -> None:
    """Each cold process starts with empty caches; so does each command here."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("fusioncat."):
            for val in vars(mod).values():
                # a traced function is wrapped; its cache sits one level down
                for obj in (val, getattr(val, "__wrapped__", None)):
                    clear = getattr(obj, "cache_clear", None)
                    if clear is not None and obj.__module__.startswith("fusioncat"):
                        clear()
                        break


def _in_process(cli, commands, checker, tracer=None) -> tuple[float, int]:
    total, failed = 0.0, 0
    for cmd in commands:
        _clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            token = tracer.begin("command") if tracer else None
            start = time.perf_counter()
            rc = cli.run(cmd.argv)
            total += time.perf_counter() - start
            if tracer:
                tracer.end(token)
        if rc != 0:
            failed += 1
            sys.stderr.write(f"failed ({rc}): {' '.join(cmd.argv)}: {err.getvalue()[-300:]}\n")
            continue
        checker.report(cmd.kind, cmd.model, rc, out.getvalue().encode(), cmd.subcat,
                       where="in-process " + " ".join(cmd.argv))
    return total, failed


def _import_seconds() -> float:
    probe = ("import time; t = time.perf_counter(); import fusioncat.cli; "
             "print(time.perf_counter() - t)")
    runs = [
        float(subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                             capture_output=True, text=True, timeout=60, check=True).stdout)
        for _ in range(3)
    ]
    return statistics.median(runs)


def _kernel_rates(cyc_mod, conductor: int, seed: int) -> tuple[float, float]:
    """Multiplications and inversions per second on seeded random operands."""
    rng = random.Random(seed)
    phi = cyc_mod.euler_phi(conductor)
    values = []
    while len(values) < 32:
        coeffs = [rng.randint(-3, 3) for _ in range(phi)]
        if any(coeffs):
            values.append(cyc_mod.Cyclotomic(conductor, coeffs))
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(2000)]
    start = time.perf_counter()
    for a, b in pairs:
        a * b
    mul_rate = len(pairs) / (time.perf_counter() - start)
    start = time.perf_counter()
    for a in values * 4:
        a.inv()
    inv_rate = len(values) * 4 / (time.perf_counter() - start)
    return mul_rate, inv_rate


# Stages whose own kernel operation counts are reported.
STAGES = (
    "category.validate",
    "category.assemble",
    "charalg.conjugacy",
    "charalg.identity_suite",
    "lattice.lattice_suite",
    "centralizer.suite",
)


def traced(w: workloads.Workload, seed: int, trace_path: Path) -> dict:
    import spans

    sys.path.insert(0, str(Path("src").resolve()))
    import fusioncat
    import fusioncat.cli as cli
    import fusioncat.cyclotomic as cyc_mod

    if Path(fusioncat.__file__).resolve().parent != Path("src/fusioncat").resolve():
        _fail(f"fusioncat resolves to {fusioncat.__file__}, not to src/fusioncat")
    import_s = _import_seconds()

    checker = oracle.Checker()
    plain_s, failed_plain = _in_process(cli, w.round, checker)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s, failed_traced = _in_process(cli, w.round, checker, tracer)
    finally:
        tracer.uninstall()

    _clear_caches()
    start = time.perf_counter()
    for name in fusioncat.catalog_names():
        fusioncat.catalog_get(name)
    catalog_get_s = time.perf_counter() - start
    mul_rate, inv_rate = _kernel_rates(cyc_mod, tracer.max_conductor, seed)

    tot, calls, counts = tracer.totals(), tracer.calls, tracer.counts
    loads = max(calls["category.assemble"], 1)
    self_s = tracer.self_times()
    metrics = {
        "cyclotomic.mul_count": (counts["mul"], "count"),
        "cyclotomic.add_count": (counts["add"], "count"),
        "cyclotomic.inv_count": (counts["inv"], "count"),
        "cyclotomic.galois_count": (counts["galois"], "count"),
        "cyclotomic.lift_count": (counts["lift"], "count"),
        "cyclotomic.matrix_inverse_count": (calls["cyclotomic.matrix_inverse"], "count"),
        "cyclotomic.matrix_inverse_s": (tot["cyclotomic.matrix_inverse"], "s"),
        "cyclotomic.max_conductor": (tracer.max_conductor, "conductor"),
        "cyclotomic.mul_per_s": (mul_rate, "1/s"),
        "cyclotomic.inv_per_s": (inv_rate, "1/s"),
        "category.parse_s": (tot["category.parse"], "s"),
        "category.validate_s": (tot["category.validate"], "s"),
        "category.assemble_s": (tot["category.assemble"], "s"),
        "category.verlinde_s": (tot["category.verlinde"], "s"),
        "category.verlinde_per_load": (calls["category.verlinde"] / loads, "count"),
        "category.validate_per_load": (calls["category.validate"] / loads, "count"),
        "catalog.get_s": (catalog_get_s, "s"),
        "charalg.conjugacy_s": (tot["charalg.conjugacy"], "s"),
        "charalg.identity_suite_s": (tot["charalg.identity_suite"], "s"),
        "lattice.enumerate_s": (tot["lattice.enumerate"], "s"),
        "lattice.subcat_invariants_s": (tot["lattice.subcat_invariants"], "s"),
        "lattice.lattice_suite_s": (tot["lattice.lattice_suite"], "s"),
        "lattice.grading_s": (tot["lattice.grading"], "s"),
        "lattice.generate_subcat_count": (calls["lattice.generate_subcat"], "count"),
        "centralizer.suite_s": (tot["centralizer.suite"], "s"),
        "centralizer.calls": (calls["centralizer.centralizer"], "count"),
        "cli.import_s": (import_s, "s"),
        "cli.render_s": (tot["cli.render"], "s"),
        "trace.coverage": (tracer.coverage("command"), "ratio"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
    }
    for layer in ("cyclotomic", "category", "catalog", "charalg", "lattice", "centralizer", "cli"):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for stage in STAGES:
        for counter in ("mul", "inv"):
            metrics[f"{stage}.{counter}_count"] = (tracer.stage_counts[stage][counter], "count")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": seed, "spans": tracer.dump()}, fh)
    attempted = 2 * len(w.round)
    return _result(checker, attempted, failed_plain + failed_traced, metrics)


# ---------------------------------------------------------------------------


def _result(checker, attempted, failed, metrics) -> dict:
    for err in checker.errors[:20]:
        sys.stderr.write(f"check failed: {err}\n")
    return {
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so a running command is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    _check_checkout()
    tag = f"{args.workload}-seed{args.seed}"
    w = workloads.build(args.workload, args.seed, workloads.inputs_dir(args.workload, args.seed))
    details = {}
    if args.trace:
        result = traced(w, args.seed, WORK / "traces" / f"{tag}.json")
    else:
        scratch = WORK / "scratch" / f"{tag}-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            result, details = untraced(w, args.seconds, scratch)
        finally:
            for f in scratch.iterdir():
                f.unlink()
            scratch.rmdir()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    line = json.dumps(result, sort_keys=True)
    with open(results / f"{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, **details}, fh, indent=1)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
