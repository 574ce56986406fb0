#!/usr/bin/env python3
"""Benchmark of the polarlat command line, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload phase-map --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's rounds run closed-loop, each CLI
invocation in a fresh process, for about ``--seconds`` seconds, and the
end-to-end metrics are reported.  The time metrics of a run are built from
the mean wall and CPU time of each kind of job over the whole run, and are
given in reference-host seconds (see :class:`HostSpeed`).  With
``--trace 1`` round 0 runs once in-process with one worker under the span
tracer, then once more untraced to give the tracing overhead, and the
per-layer metrics are reported.
Every round's outputs are checked against independent computations.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5
JOB_TIMEOUT_S = 150.0
#: CPU time of one HostSpeed chunk on the reference host (2-core Xeon VM)
PROBE_REF_S = 3.0e-3
PROBE_PERIOD_S = 0.25


# one BLAS/OpenMP thread in this process (its HostSpeed eigensolves) and,
# through the environment, in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    for var in ("POLARLAT_SEED", "POLARLAT_WORKERS"):
        env.pop(var, None)
    return env


class Finished:
    """Exit code, wall time and resource use of one finished process tree."""

    def __init__(self, code, wall_s, cpu_s, maxrss_kb):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb


def run_streams(streams, cwd):
    """Run each stream's argvs one after the other, the streams at once.

    A stream is a list of ``(argv, log)`` pairs.  Each process is its own
    session.  Returns, per stream, one :class:`Finished` per argv, whose
    wall time runs from that process's start to its end.  The rusage of
    ``wait4`` covers the child and every descendant it reaped (the pool
    workers of phase-diagram included).
    """
    env = child_env()
    done = [[] for _ in streams]
    running, procs, timers = {}, [], []

    def start(s):
        argv, log = streams[s][len(done[s])]
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
        procs.append(proc)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        timers.append(timer)
        running[proc.pid] = (s, proc, time.perf_counter())

    try:
        for s, stream in enumerate(streams):
            if stream:
                start(s)
        while running:
            # also reaps adopted orphans, which are not in ``running``
            pid, status, usage = os.wait4(-1, 0)
            if pid not in running:
                continue
            s, proc, started = running.pop(pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
            done[s].append(Finished(proc.returncode,
                                    time.perf_counter() - started,
                                    usage.ru_utime + usage.ru_stime,
                                    usage.ru_maxrss))
            if len(done[s]) < len(streams[s]):
                start(s)
        for proc in procs:
            _reap_group(proc.pid)
        return done
    finally:
        for timer in timers:
            timer.cancel()
        for proc in procs:
            if proc.returncode is None:
                _kill_group(proc.pid)
                proc.wait()
                _reap_group(proc.pid)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid, grace_s=5.0):
    """Wait for stray members of a finished child's session, then kill them.

    Such a member is an orphan (multiprocessing's resource tracker outlives
    phase-diagram by a moment); as a child subreaper this process adopts it
    and reaps it here.
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        if time.monotonic() > deadline:
            _kill_group(pgid)
            deadline = math.inf
        time.sleep(0.01)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def become_subreaper():
    """Adopt orphaned descendants (Linux prctl PR_SET_CHILD_SUBREAPER)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(36, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def cli_argv(args):
    return [sys.executable, "-m", "polarlat.cli"] + list(args)


def check_source():
    cli = os.path.join(SRC, "polarlat", "cli.py")
    if not os.path.isfile(cli):
        raise SystemExit(f"perfbench: no polarlat source at {cli}")
    probe = subprocess.run(
        [sys.executable, "-c", "import polarlat.cli; print(polarlat.cli.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    found = probe.stdout.strip()
    if probe.returncode != 0 or os.path.realpath(found) != os.path.realpath(cli):
        raise SystemExit(f"perfbench: polarlat.cli imports from {found!r}, "
                         f"not {cli}: {probe.stderr.strip()}")


def prepare(workload, workdir):
    """Write the workload's inputs from a child process.

    A process started by this one begins with this one's peak resident
    set as its own (Linux carries it over fork and exec), so the large
    temporaries of input generation must not be made here, or they would
    be counted in ``peak_rss_mb``.
    """
    code = ("import sys, workloads\n"
            "workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])"
            ".prepare()\n")
    log = os.path.join(workdir, "prepare.log")
    ((res,),) = run_streams([[([sys.executable, "-c", code, workload.name,
                                str(workload.seed), workdir], log)]], workdir)
    if res.code != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            raise SystemExit(f"perfbench: writing the inputs failed: "
                             f"{fh.read()}")


def measure_setup(workload, workdir):
    """Median wall time of interpreter start, import and config resolution."""
    sets = workload.streams(0)[0][0].sets
    code = ("import polarlat.cli as cli\n"
            f"cli.load_config(None, {sets!r})\n")
    times = []
    for k in range(SETUP_SAMPLES):
        log = os.path.join(workdir, f"setup-{k}.log")
        ((res,),) = run_streams([[([sys.executable, "-c", code], log)]],
                                workdir)
        if res.code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                raise SystemExit(f"perfbench: set-up probe failed: {fh.read()}")
        times.append(res.wall_s)
    return statistics.median(times)


class HostSpeed(threading.Thread):
    """Sample the host's speed while a run measures.

    A host shared with other tenants can slow the cores by up to about
    1.5x, in spells of seconds to minutes (the reference host did).
    Every PROBE_PERIOD_S this thread times a fixed chunk of the two kinds
    of work polarlat's workloads consist of, Python-level float parsing
    and small dense symmetric eigensolves, by its own CPU time (so
    waiting for a core does not count).
    ``scale()`` is PROBE_REF_S over the chunk's mean time: the factor that
    turns this run's seconds into seconds of the reference host.  The
    chunk takes about 1% of one core.
    """

    def __init__(self):
        super().__init__(daemon=True)
        import numpy as np

        rng = np.random.default_rng(0)
        self.tokens = [repr(x) for x in rng.random(4000).tolist()]
        mats = rng.random((20, 30, 30))
        self.mats = mats + mats.transpose(0, 2, 1)
        self.eigvalsh = np.linalg.eigvalsh
        self.samples = []
        self.halt = threading.Event()

    def chunk(self):
        started = time.thread_time()
        total = 0.0
        for tok in self.tokens:
            total += float(tok)
        for m in self.mats:
            self.eigvalsh(m)
        return time.thread_time() - started

    def run(self):
        while not self.halt.wait(PROBE_PERIOD_S):
            self.samples.append(self.chunk())

    def stop(self):
        self.halt.set()
        self.join()
        if not self.samples:
            self.samples.append(self.chunk())

    def scale(self):
        return PROBE_REF_S / statistics.fmean(self.samples)


def timed_run(workload, seconds, workdir):
    """Set-up probes, then closed-loop rounds for about ``seconds``.

    One pass (a job of each of the workload's kinds) costs the sum, over
    the kinds, of the mean time of the jobs of that kind over the whole
    run.  ``work_per_s`` is a pass's work over that wall time; ``cpu_s`` is
    the same sum of CPU times.  Every time is scaled to the reference host
    by the HostSpeed samples taken during the run.
    """
    walls, cpus, rss, rounds, problems = {}, {}, [], [], []
    attempted = failed = 0
    round_index = 0
    host = HostSpeed()
    host.start()
    try:
        # before the inputs are written, so that their write-back and
        # page cache do not reach into the set-up probes
        setup_s = measure_setup(workload, workdir)
        prepare(workload, workdir)
        while True:
            wall, (a, f, p) = _round(workload, round_index, workdir, walls,
                                     cpus, rss)
            rounds.append(wall)
            attempted += a
            failed += f
            problems += [f"round {round_index}: {x}" for x in p]
            round_index += 1
            elapsed = sum(rounds)
            if elapsed + 0.5 * elapsed / round_index >= seconds:
                break
    finally:
        host.stop()
    scale = host.scale()
    kinds = workload.kinds
    wall = sum(statistics.fmean(walls[k]) for k in kinds)
    cpu = sum(statistics.fmean(cpus[k]) for k in kinds)
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "cpu_s": (cpu * scale, "s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
        "work_per_s": (workload.work() / (wall * scale), "items/s"),
    }
    print(f"{workload.name}: {round_index} rounds in {elapsed:.3f} s "
          f"(round walls {', '.join(f'{w:.3f}' for w in rounds)})")
    for k in kinds:
        print(f"{workload.name}: {k}: walls "
              f"{', '.join(f'{w:.3f}' for w in walls[k])} s, CPU "
              f"{', '.join(f'{c:.3f}' for c in cpus[k])} s")
    print(f"{workload.name}: host speed: {len(host.samples)} chunks, mean "
          f"{1e3 * statistics.fmean(host.samples):.3f} ms, scale {scale:.4f}; "
          f"unscaled setup_s {setup_s:.4f} s, cpu_s {cpu:.4f} s, "
          f"work_per_s {workload.work() / wall:.6g} {workload.rate_unit}")
    print(f"{workload.name}: {workload.rate_name} = "
          f"{metrics['work_per_s'][0]:.6g} {workload.rate_unit}")
    return attempted, failed, problems, metrics


def _round(workload, round_index, workdir, walls, cpus, rss):
    """Run and check one round.

    Appends each job's wall time, CPU time and peak RSS to ``walls`` and
    ``cpus`` (by kind) and ``rss``; returns the round's wall time and the
    check's (attempted, failed, problems).
    """
    streams = workload.streams(round_index)
    started = time.perf_counter()
    done = run_streams([[(cli_argv(j.args), j.outdir + ".log")
                         for j in stream] for stream in streams], workdir)
    wall = time.perf_counter() - started
    jobs = [j for stream in streams for j in stream]
    results = [d for stream in done for d in stream]
    for job, d in zip(jobs, results):
        walls.setdefault(job.kind, []).append(d.wall_s)
        cpus.setdefault(job.kind, []).append(d.cpu_s)
        rss.append(d.maxrss_kb)
    checked = workload.check([j.outdir for j in jobs],
                             [d.code for d in results])
    for job in jobs:
        shutil.rmtree(job.outdir, ignore_errors=True)
    return wall, checked


def traced_run(workload, workdir):
    """Round 0 in-process with one worker, traced, then untraced."""
    jobs = workload.traced_jobs()
    spans = os.path.join(WORK, "traces",
                         f"{workload.name}-seed{workload.seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    results, problems = {}, []
    for mode in ("traced", "untraced"):
        outdirs = [f"{j.outdir}-{mode}" for j in jobs]
        spec = {"traced": mode == "traced",
                "runs": [j.args[:-1] + [d] for j, d in zip(jobs, outdirs)],
                "outdirs": outdirs, "spans": spans,
                "result": os.path.join(workdir, f"{mode}.json")}
        path = os.path.join(workdir, f"{mode}-spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        log = os.path.join(workdir, f"{mode}.log")
        ((d,),) = run_streams(
            [[([sys.executable, os.path.join(HERE, "inproc.py"), path], log)]],
            workdir)
        if d.code != 0 or not os.path.exists(spec["result"]):
            with open(log, encoding="utf-8", errors="replace") as fh:
                raise SystemExit(f"perfbench: {mode} in-process run exited "
                                 f"{d.code}: {fh.read()}")
        with open(spec["result"], encoding="utf-8") as fh:
            results[mode] = json.load(fh)
        counts = workload.check(outdirs, results[mode]["codes"])
        problems += [f"{mode}: {x}" for x in counts[2]]
        if mode == "traced":
            attempted, failed = counts[:2]
    traced, untraced = results["traced"], results["untraced"]
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_pct"] = 100.0 * (traced["wall_s"]
                                             / untraced["wall_s"] - 1.0)
    if traced["missing"]:
        print(f"{workload.name}: not traced (absent from the library): "
              f"{', '.join(traced['missing'])}")
    for tip in traced["tips"]:
        print(f"{workload.name}: tip N={tip['big_n']} detuning "
              f"{tip['detuning_g']:g} g: {tip['eigensolves']} eigensolves, "
              f"{tip['seconds']:.3f} s")
    print(f"{workload.name}: traced {traced['wall_s']:.3f} s, untraced "
          f"{untraced['wall_s']:.3f} s, spans in {spans}")
    import tracer

    units = {k: u for k, (u, _b) in tracer.LAYER_METRICS.items()}
    return attempted, failed, problems, {k: (v, units[k])
                                         for k, v in metrics.items()}


def main(argv=None):
    sys.path.insert(0, HERE)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still kills and reaps its jobs (the ``finally``
    # clauses of run_streams) and removes its working directory
    signal.signal(signal.SIGTERM, _terminate)
    become_subreaper()
    check_source()
    workdir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            prepare(workload, workdir)
            attempted, failed, problems, metrics = traced_run(workload, workdir)
        else:
            attempted, failed, problems, metrics = timed_run(
                workload, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"{args.workload}: CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"{args.workload}: ... {len(problems) - 20} more failed checks")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
