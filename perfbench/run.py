"""Benchmark for qrr: one command, three workloads, every verdict checked.

    python3 perfbench/run.py --workload registry-sweep --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from --seed; the program sees only them):

* registry-sweep: ``qrr verify-all --trunc 40 --jobs 2 --format json`` over
  all 10,664 default-grid points, the command users run.  Its report must
  match the digest of the ``--jobs 1`` report.
* deep-window: a seeded stratified sample of at most 28 grid points per
  record, each verified serially through ``engine.verify`` at T=160.
* certificates: the telescoping and termwise certificates, seeded Bailey
  chain reconstructions, the unit pairs, the mutation control, the
  Rogers-Ramanujan limits, the LIU refutations and the binomial sweeps.

``--trace 0`` prints the end-to-end metrics from untraced passes, every time
scaled to a reference machine speed (see ``speed.py``); ``--trace 1`` prints
the per-layer metrics from traced passes (see ``spec.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and explain each metric.  The exit code is 0 only when
every check got its expected verdict; 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKDIR = os.path.join(HERE, ".work")
RUN_LIMIT_S = 170.0
SETUP_PROBES = 9              # measured fresh-interpreter set-ups per run


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _start(argv: list[str]) -> subprocess.Popen:
    # a session of its own, so a stuck run can be stopped with its workers
    return subprocess.Popen([sys.executable, CHILD, *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def setup_seconds(workload: str, seed: int, count: int, warm: bool) -> list[float]:
    """Fresh-interpreter set-up times, spawn to the child's ``ready`` line,
    each scaled to the reference speed by a burst of the reference loop run
    here just before and just after it (see ``speed.py``).  A warm-up probe,
    unmeasured, first writes the byte-code caches."""
    from speed import BURST, SpeedProbe, scale

    probe = SpeedProbe()
    samples = []
    for _ in range(count + warm):
        probe.sample(BURST)
        t0 = time.perf_counter()
        proc = _start(["setup", workload, str(seed)])
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            _stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        probe.sample(BURST)
        samples.append(elapsed * scale(probe.take()))
    return samples[warm:]


def run_child(workload: str, seed: int, seconds: int, trace: int, budget: float) -> dict:
    proc = _start(["run", workload, str(seed), str(seconds), str(trace), WORKDIR])
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"the workload did not finish within {budget:.0f} s")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"the workload process exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qrr", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/qrr is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import spec
    if args.workload not in spec.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(spec.WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    env = {
        "python": platform.python_version(),
        "nproc": nproc,
        "load_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "truncation": spec.TRUNCATIONS[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": spec.MACHINE_NOTE + "; no CPU pinning, no machine settings changed",
    }
    # half the set-up probes run before the workload and half after it, so
    # that their median spans the run rather than one moment of it
    probes = SETUP_PROBES if args.trace == 0 else 0
    try:
        setup = setup_seconds(args.workload, args.seed, probes // 2, warm=probes > 0)
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        doc = run_child(args.workload, args.seed, args.seconds, args.trace, budget)
        setup += setup_seconds(args.workload, args.seed, probes - probes // 2, warm=False)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["load_end"] = os.getloadavg()
    env["load_exceeded_nproc"] = max(env["load_start"][0], env["load_end"][0]) > nproc

    values = dict(doc["values"])
    notes = dict(doc["notes"])
    if args.trace == 0:
        values["setup_s"] = statistics.median(setup)
        notes["setup_s"] = (f"median of {len(setup)} fresh-interpreter set-ups, "
                            "at the reference speed")
        table = [(name, unit) for name, unit, _, _ in spec.END_TO_END]
    else:
        table = [(name, unit) for name, unit, _, _ in spec.PER_LAYER]
    result_metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}

    errors = list(doc["errors"])
    if doc["attempted"] < 1:
        errors.append("the workload ran no checks")
    correct = not errors and doc["failed"] == 0

    print("env " + json.dumps(env))
    for name, unit in table:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}{note}")
    print(f"{args.workload} failed_frac = {doc['failed'] / max(1, doc['attempted']):.6g} "
          f"({doc['failed']} of {doc['attempted']} checks)")
    print("notes " + json.dumps(notes))
    for err in errors:
        print(f"FAILED: {err}")
    with open(os.path.join(WORKDIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "values": values, "notes": notes, "errors": errors,
                   "attempted": doc["attempted"], "failed": doc["failed"]}, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
