"""Run the benchmark on a parent revision and on the working tree, in pairs.

The parent revision is extracted with ``git archive`` into a temporary
directory, and the working tree's files (tracked or untracked, but not
ignored) are copied beside it, so that both sides start from fresh
directories with the same byte-code caches; with ``PYTHONDONTWRITEBYTECODE``
set, a working tree that keeps old ``__pycache__`` files would otherwise
start up faster than the extracted parent.  The unchanged
``perfbench/run.py`` of each copy is run there, untraced and for the
``run_seconds`` that ``BENCHMARK.json`` sets, one pair per seed,
alternating which side runs first.  ``--parent`` defaults to HEAD, the
parent of uncommitted work; once the change is committed, pass HEAD~1.
Every run appends one JSON line to ``--out`` as soon as it ends:

    {"side": "parent" | "change", "seed": S, "trace": 0, "workload": W,
     "result": {...}}

where ``result`` is the last line ``run.py`` printed (``null`` if it printed
none, with the exit code and the end of its stderr under ``"error"``).  At
the end the tool prints, for each workload in the file, the runs that were
not correct, the runs whose seed and side an earlier line already had (of
those with a result, the last one is paired) and, for each end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles and the number of pairs
each side won (ties count for neither).  Traced runs, which older
``BENCH_*.json`` files hold, are left out.
Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --workload registry-sweep \\
        --first-seed 1801 --pairs 10 --out BENCH_name.json
    python3 tools/bench_pairs.py --summarize BENCH_name.json

``--summarize`` prints the summary of an existing file and runs nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pair_order(index: int) -> tuple[str, str]:
    """The sides of pair ``index`` (from 0) in the order they run: the
    parent first in even pairs, the change first in odd ones."""
    return ("parent", "change") if index % 2 == 0 else ("change", "parent")


def extract(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter refuses links and paths that leave ``dest``
        archive.extractall(dest, filter="data")


def snapshot(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files
    into ``dest``."""
    names = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``; the result
    line, or None with the exit code and the end of stderr under ``error``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return {"result": json.loads(lines[-1])}
    except (IndexError, json.JSONDecodeError):
        return {"result": None, "error": f"exit {proc.returncode}: {proc.stderr[-400:]}"}


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list, better: dict) -> dict:
    """{workload: group} over the pairs of untraced runs, a pair being one
    parent and one change run of a seed.  A group holds the number of
    ``pairs``, the runs whose result is not ``correct`` (or missing), the
    ``duplicate`` runs whose seed and side an earlier run already had (of
    those with a result, the last one is paired) and, per metric with a direction
    ``better[name]`` ("higher" or "lower"), each side's (q1, median, q3)
    and the pairs each side won."""
    groups: dict = {}
    for run in runs:
        if run.get("trace", 0):
            continue
        group = groups.setdefault(run.get("workload"),
                                  {"seen": set(), "seeds": {}, "incorrect": 0,
                                   "duplicate": 0})
        key = (run["seed"], run["side"])
        group["duplicate"] += key in group["seen"]
        group["seen"].add(key)
        result = run.get("result")
        if not (result and result["correct"]):
            group["incorrect"] += 1
        if result:
            group["seeds"].setdefault(run["seed"], {})[run["side"]] = result["metrics"]
    out = {}
    for key, group in groups.items():
        pairs = [s for s in group["seeds"].values() if set(s) == {"parent", "change"}]
        metrics = {}
        for name in (pairs[0]["parent"] if pairs else ()):
            if name not in better:
                continue
            values = {side: [s[side][name]["value"] for s in pairs]
                      for side in ("parent", "change")}
            sign = 1 if better[name] == "higher" else -1
            wins = {"parent": 0, "change": 0}
            for p, c in zip(values["parent"], values["change"]):
                if c != p:
                    wins["change" if sign * (c - p) > 0 else "parent"] += 1
            metrics[name] = {"wins": wins,
                             **{side: _quartiles(v) for side, v in values.items()}}
        out[key] = {"pairs": len(pairs), "incorrect": group["incorrect"],
                    "duplicate": group["duplicate"], "metrics": metrics}
    return out


def format_summary(summary: dict) -> list[str]:
    lines = []
    for workload, group in summary.items():
        lines.append(f"{workload}: {group['pairs']} pairs, "
                     f"{group['incorrect']} runs not correct, "
                     f"{group['duplicate']} runs repeat a seed and side")
        for name, s in group["metrics"].items():
            (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
            lines.append(f"  {name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                         f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
                         f"pairs won: change {s['wins']['change']}, "
                         f"parent {s['wins']['parent']}")
    return lines


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="the revision to compare against")
    parser.add_argument("--workload")
    parser.add_argument("--first-seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="append one JSON line per run to this file")
    parser.add_argument("--summarize", metavar="FILE", help="summarise FILE and run nothing")
    args = parser.parse_args(argv)

    spec = _benchmark()
    if args.summarize:
        out = Path(args.summarize)
    else:
        if not (args.workload and args.first_seed is not None and args.out):
            parser.error("--workload, --first-seed and --out are needed to run pairs")
        out = Path(args.out)
        with tempfile.TemporaryDirectory() as tmp:
            checkouts = {side: Path(tmp, side) for side in ("parent", "change")}
            extract(args.parent, checkouts["parent"])
            snapshot(checkouts["change"])
            for i in range(args.pairs):
                seed = args.first_seed + i
                for side in pair_order(i):
                    run = run_once(checkouts[side], args.workload, seed,
                                   spec["run_seconds"])
                    line = {"side": side, "seed": seed, "trace": 0,
                            "workload": args.workload, **run}
                    with out.open("a", encoding="utf-8") as fh:
                        fh.write(json.dumps(line) + "\n")
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          f"{'ok' if run['result'] else run['error']}", file=sys.stderr)
    runs = [json.loads(line) for line in out.read_text().splitlines() if line.strip()]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print("\n".join(format_summary(summarize(runs, better))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
