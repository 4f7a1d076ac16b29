"""End-to-end checks of the command-line interface.

Every test drives ``cli.main`` in-process and inspects the exit code plus
the emitted text or JSON.  A few tests shell out: so that ``--jobs`` spawns
real worker processes and the report bytes can be compared across worker
counts, and so that ``python -m qrr`` is run as a user runs it.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from qrr import binomial, cli, telescoping
from qrr.identities import REGISTRY, engine


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("QRR_TRUNC", raising=False)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def test_list_ids(capsys):
    rc, out, _ = run_cli(["list"], capsys)
    assert rc == 0
    ids = out.splitlines()
    assert len(ids) == 38
    assert ids == sorted(ids)
    assert "ANDREWS1" in ids and "LIU1" in ids


def test_list_grids(capsys):
    rc, out, _ = run_cli(["list", "--grids"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 38
    andrews = next(l for l in lines if l.startswith("ANDREWS1"))
    assert "n=0..12" in andrews and "T=60" in andrews
    flagged = [l for l in lines if "(counterexample target)" in l]
    assert sorted(l.split()[0] for l in flagged) == ["LIU1", "LIU2"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_text_grid(capsys):
    rc, out, _ = run_cli(
        ["verify", "--id", "andrews1", "--range", "n=0..3", "--trunc", "20"],
        capsys)
    assert rc == 0
    assert out.startswith("ANDREWS1")
    assert "4/4 equal" in out and "T=20" in out


def test_verify_single_value_range(capsys):
    rc, out, _ = run_cli(
        ["verify", "--id", "ANDREWS2", "--range", "n=2", "--trunc", "20"],
        capsys)
    assert rc == 0
    assert "1/1 equal" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "NOPE"],
    ["verify", "--id", "ANDREWS1", "--range", "n=3..1"],
    ["verify", "--id", "ANDREWS1", "--range", "z=0..2"],
    ["verify", "--id", "ANDREWS1", "--range", "n"],
    ["verify", "--id", "LMNRS3",
     "--range", "l=0,m=0,n=0,u=0,v=1", "--trunc", "10"],
    ["verify", "--id", "ANDREWS1", "--range", "n=0..1", "--trunc", "0"],
    ["counterexample", "--which", "liu1", "--a-exp", "0"],
    ["bailey", "--chain", "abcde1", "--exps", "1,2"],
    ["telescope"],
    ["binomial"],
    ["binomial", "--cor57", "1,2"],
    ["verify", "--id", "ANDREWS1", "--jobs", "0"],
    ["verify-all", "--jobs", "-5"],
])
def test_config_errors_exit_2(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_verify_json_schema(capsys):
    rc, out, _ = run_cli(
        ["verify", "--id", "ANDREWS1", "--range", "n=0..2",
         "--trunc", "15", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["artifact_version"] == 1
    assert doc["command"] == "verify"
    assert doc["config"]["id"] == "ANDREWS1"
    assert doc["config"]["ranges"] == {"n": [0, 2]}
    assert doc["summary"] == {"total": 3, "passed": 3, "failed": 0}
    for rep in doc["reports"]:
        assert rep["id"] == "ANDREWS1"
        assert rep["trunc"] == 15
        assert rep["verdict"] == "EQUAL"
        assert rep["millis"] == 0.0
        assert "mismatch_index" not in rep
    assert [r["params"]["n"] for r in doc["reports"]] == [0, 1, 2]


def test_corrupted_registry_is_detected(monkeypatch, capsys):
    # cross-wire one identity's right side: the sweep must notice
    broken = dataclasses.replace(REGISTRY["ANDREWS1"], rhs=REGISTRY["ANDREWS2"].rhs)
    monkeypatch.setitem(REGISTRY, "ANDREWS1", broken)
    rc, out, _ = run_cli(
        ["verify", "--id", "ANDREWS1", "--range", "n=1..2",
         "--trunc", "15", "--format", "json"], capsys)
    assert rc == 1
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 2
    rep = doc["reports"][0]
    assert rep["verdict"] == "MISMATCH"
    assert rep["mismatch_index"] == 1
    # windows carry exact rationals as num/den strings
    assert rep["lhs_window"][0] == [0, "1/1"]
    assert all(len(pair) == 2 and "/" in pair[1] for pair in rep["rhs_window"])


def test_verify_all_small_truncation(capsys):
    rc, out, _ = run_cli(["verify-all", "--trunc", "5"], capsys)
    assert rc == 0
    assert "total: 38 identities," in out
    assert out.rstrip().endswith("all equal")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_json_report_bytes_are_stable(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        rc, out, _ = run_cli(
            ["verify", "--id", "EULERN1", "--trunc", "25",
             "--format", "json", "--out", str(p)], capsys)
        assert rc == 0
        assert out == ""            # --out suppresses stdout
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0].endswith(b"\n")
    json.loads(blobs[0].decode("utf-8"))


# sha256 of each command's JSON report (its timings read 0.0).  A change to
# the report schema must update these digests and bump ARTIFACT_VERSION.
PINNED_REPORTS = {
    "bailey":
        "49f0617367143ac2a3296de79ce39cdda07b46104c7744af29dc872b90c72fd0",
    "bailey --chain abcde3 --n 3 --exps 2,1,3,1":
        "a386ab129f448946bc9d2f2c0c27fa3a051ad4703dcdd20177773e958ee69f0f",
    "telescope --params 1,2,1,1,2 --quartic":
        "24a018b274006b6227e7ed50e2c38f2e3753d4f903275a43138d5397dead1bd8",
    "counterexample --which liu1 --a-exp 2":
        "c3b2ce04f7756bccea6cc62c6314f7b321d6413b00d0d372a9cfcde20f081050",
    "verify --id ABCDE6_3 --trunc 80":
        "097b262fb5c79095fd8bb79ed45c095c42aaa0f7c770e5ba24a376b5712784f6",
    "binomial --bino5 --bino4 --divisibility --cor57 1,1,1,1,1 --general 2,2,2":
        "a630ad137723d6580a1cf0d88095081ecd6a8ed8fdcc5ecd4888748f3855cb71",
    "binomial --cor58a 1,2,1,1 --cor58b 2,1,1,2 --bino4 --divisibility --n 4":
        "d7d9e588be2327c4abd65514affffb44932845be5ce68e84c90405742a4559d7",
}


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(command, capsys):
    rc, out, _ = run_cli(command.split() + ["--format", "json"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[command]
    assert json.loads(out)["artifact_version"] == cli.ARTIFACT_VERSION == 1


def _child_env():
    # the child imports qrr from where this process found it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_worker_count_does_not_change_reports():
    cmd = [sys.executable, "-m", "qrr.cli", "verify", "--id", "ANDREWS1",
           "--range", "n=0..4", "--trunc", "20", "--format", "json"]
    env = _child_env()
    docs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(cmd + ["--jobs", jobs], capture_output=True,
                              env=env, check=True)
        docs.append(json.loads(proc.stdout))
    # only the recorded invocation may differ, never the mathematics
    assert docs[0]["config"].pop("jobs") == 1
    assert docs[1]["config"].pop("jobs") == 2
    assert docs[0] == docs[1]


def test_python_dash_m_qrr_runs_the_cli(capsys):
    argv = ["verify", "--id", "ANDREWS1", "--range", "n=0..2", "--trunc", "20",
            "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "qrr", *argv], capture_output=True,
                          env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == json.loads(run_cli(argv, capsys)[1])
    proc = subprocess.run([sys.executable, "-m", "qrr", "verify", "--id", "NOPE"],
                          capture_output=True, env=_child_env())
    assert proc.returncode == 2 and b"no identity with id 'NOPE'" in proc.stderr


# sha256 of the ``verify-all --trunc 40 --format json`` report with its
# ``config.jobs`` set to 1: the raw bytes of the ``--jobs 1`` report
SWEEP_T40_DIGEST = "ec94bba469ed24421024d4da613502516d6a978f1fba9d430eca99cdcaf1f65c"


def test_pooled_sweep_bytes_are_pinned():
    proc = subprocess.run(
        [sys.executable, "-m", "qrr.cli", "verify-all", "--trunc", "40",
         "--jobs", "2", "--format", "json"],
        capture_output=True, env=_child_env(), check=True)
    doc = json.loads(proc.stdout)
    # the streamed bytes are exactly what json.dumps writes for the document
    assert proc.stdout == (json.dumps(doc, indent=2) + "\n").encode()
    assert doc["config"] == {"trunc": 40, "jobs": 2}
    doc["config"]["jobs"] = 1
    payload = json.dumps(doc, indent=2) + "\n"
    assert hashlib.sha256(payload.encode()).hexdigest() == SWEEP_T40_DIGEST


def test_serial_sweep_bytes_are_pinned_on_stdout_and_in_out(tmp_path, capsys):
    argv = ["verify-all", "--trunc", "40", "--jobs", "1", "--format", "json"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_T40_DIGEST
    path = tmp_path / "sweep.json"
    rc, out, _ = run_cli(argv + ["--out", str(path)], capsys)
    assert rc == 0 and out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_T40_DIGEST


def test_pooled_sweep_reports_mismatches_like_serial(monkeypatch, capsys):
    # cross-wire one record's right side; forked workers inherit the patch
    broken = dataclasses.replace(REGISTRY["ANDREWS1"], rhs=REGISTRY["ANDREWS2"].rhs)
    monkeypatch.setitem(REGISTRY, "ANDREWS1", broken)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    pools = []

    class CountedPool(engine.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountedPool)
    docs = []
    for jobs in ("1", "2"):
        rc, out, _ = run_cli(["verify-all", "--trunc", "8", "--jobs", jobs,
                              "--format", "json"], capsys)
        assert rc == 1
        docs.append(json.loads(out))
    assert pools == [2]
    assert docs[0]["config"].pop("jobs") == 1
    assert docs[1]["config"].pop("jobs") == 2
    assert docs[0] == docs[1]
    bad = [r for r in docs[1]["reports"] if r["verdict"] != "EQUAL"]
    assert bad and all(r["id"] == "ANDREWS1" and r["lhs_window"] for r in bad)
    ns = [r["params"]["n"] for r in bad]
    assert ns == sorted(ns)
    assert docs[1]["summary"]["failed"] == len(bad)


def test_verify_all_starts_one_pool(inline_pool, monkeypatch, capsys):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    rc, out, _ = run_cli(["verify-all", "--trunc", "5", "--jobs", "100000"], capsys)
    assert rc == 0 and out.rstrip().endswith("all equal")
    assert inline_pool == [3]


@pytest.mark.parametrize("argv, env", [
    (["verify", "--id", "ANDREWS1", "--range", "n=0..100000000"], {}),
    (["verify", "--id", "LMNRS3", "--range", "l=1..20,m=1..20,n=1..20,u=1..20,v=1..20"],
     {}),
    (["verify", "--id", "ANDREWS1", "--range", "n=0..3", "--trunc", "10001"], {}),
    (["verify-all", "--trunc", "1000000"], {}),
    (["verify-all"], {"QRR_TRUNC": "10001"}),
])
def test_oversize_runs_are_refused_before_any_check(argv, env, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)

    def no_work(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(engine, "verify", no_work)
    monkeypatch.setattr(engine, "_cartesian", no_work)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and ("limit" in err or "1..10000" in err)


@pytest.mark.parametrize("argv, named", [
    (["verify", "--id", "ANDREWS1", "--range", "n=2000", "--trunc", "20"],
     "parameter n must be an integer >= 0 and at most 200, got 2000"),
    (["verify", "--id", "LMNRS1", "--range", "u=1990..2000", "--trunc", "20", "--jobs", "2"],
     "parameter u must be an integer >= 0 and at most 200, got 2000"),
    (["counterexample", "--which", "liu1", "--a-exp", "800"],
     "a_exp must be an integer >= 1 and at most 200, got 800"),
    (["binomial", "--bino5", "--n", "600"], "--n must be an integer >= 0 and at most 150, got 600"),
    (["binomial", "--general", "3000,3000"], "at most 150, got 3000"),
    (["bailey", "--n-max", "240"], "--n-max must be an integer >= 0 and at most 40, got 240"),
    (["bailey", "--n", "100"], "--n must be an integer >= 0 and at most 40, got 100"),
    (["telescope", "--params", "1000,1000,1000,1000,1000"],
     "parameter l must be an integer >= 0 and at most 200, got 1000"),
    (["telescope", "--params", "200,200,200,200,200", "--trunc", "2000"], "T=2000"),
    (["verify", "--id", "EULERN1", "--range", "n=1..3,n=2"],
     "range piece 'n=2' names parameter 'n' again"),
    (["verify", "--id", "EULERMN1", "--range", "m=0..1, n=2 ,m=1"],
     "range piece 'm=1' names parameter 'm' again"),
    (["verify", "--id", "EULERN1", "--range", "n=x..3"],
     "range piece 'n=x..3' has a bound that is not an integer"),
    (["verify", "--id", "EULERN1", "--range", "n=1..2.5"],
     "range piece 'n=1..2.5' has a bound that is not an integer"),
    (["verify", "--id", "EULERN1", "--range", "n=1.."],
     "range piece 'n=1..' has a bound that is not an integer"),
    (["bailey", "--exps", "9,9,9,9"], "--exps needs --chain"),
    (["bailey", "--chain", "abcde1", "--exps", "300,1,1,1"], "b_exp must be an integer"),
    (["telescope", "--params", "1,,2,1,1,2"], "--params has an empty entry"),
    (["binomial", "--general", "1,,2"], "--general has an empty entry"),
    (["binomial", "--general", ",".join(["150"] * 151)], "at most 150 entries, got 151"),
])
def test_out_of_bound_inputs_exit_2_at_once(argv, named, capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err.startswith("error:") and named in err


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def test_counterexample_text(capsys):
    rc, out, _ = run_cli(
        ["counterexample", "--which", "liu1", "--a-exp", "2", "--trunc", "20"],
        capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "LIU1 at a = q^2 (T=20)"
    assert lines[1] == "LHS = 1 - q"
    assert lines[2] == "RHS = 0"
    assert lines[3] == "first mismatch at q^0: refutation reproduced"


def test_counterexample_json(capsys):
    rc, out, _ = run_cli(
        ["counterexample", "--which", "LIU2", "--a-exp", "1",
         "--trunc", "20", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    rep = doc["reports"][0]
    assert rep["verdict"] == "MISMATCH"
    assert rep["mismatch_index"] == 0
    assert rep["lhs_window"][0] == [0, "1/1"]
    assert rep["rhs_window"][0] == [0, "0/1"]
    assert doc["summary"]["passed"] == 1


# ---------------------------------------------------------------------------
# telescope / binomial / bailey
# ---------------------------------------------------------------------------


def test_telescope_certificates(capsys):
    rc, out, _ = run_cli(
        ["telescope", "--params", "1,1,1,1,1", "--trunc", "25"], capsys)
    assert rc == 0
    assert "telescoping" in out and "termwise" in out
    assert "partial-sum k=0" in out and "MISMATCH" not in out


def test_telescope_json_schema(capsys):
    rc, out, _ = run_cli(
        ["telescope", "--params", "1,2,1,1,2", "--quartic", "--format", "json"],
        capsys)
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert [r["id"] for r in reports] == ["telescoping", "termwise", "QUARTIC"]
    for rep in reports[:2]:
        assert rep["checks"]
        assert all(len(check) == 2 and check[1] == "EQUAL" for check in rep["checks"])
    assert "checks" not in reports[2]
    assert not any("mismatch_index" in r for r in reports)


def test_telescope_precondition(capsys):
    rc, out, err = run_cli(
        ["telescope", "--params", "1,1,1,0,1", "--trunc", "25"], capsys)
    assert rc == 2
    assert out == ""
    assert "parameter u must be an integer >= 1 and at most 200, got 0" in err


def test_telescope_quartic(capsys):
    rc, out, _ = run_cli(["telescope", "--quartic"], capsys)
    assert rc == 0
    assert "quartic polynomial identity" in out


@pytest.mark.parametrize("point", [(2, 2, 2, 2), (11, 3, 7, 5)])
def test_telescope_quartic_catches_one_wrong_point(point, capsys, monkeypatch):
    # a quartic whose left side is off by one at one point of the 5^4 grid
    honest = telescoping.quartic_sides

    def sides(*abcd):
        lhs, rhs = honest(*abcd)
        return lhs + (abcd == point), rhs

    monkeypatch.setattr(telescoping, "quartic_sides", sides)
    assert telescoping.verify_quartic_identity() is False
    rc, out, _ = run_cli(["telescope", "--quartic"], capsys)
    assert rc == 1
    assert "quartic polynomial identity on the 5^4 grid: MISMATCH" in out


def test_binomial_sweeps(capsys):
    rc, out, _ = run_cli(
        ["binomial", "--bino5", "--bino4", "--divisibility", "--n", "5"],
        capsys)
    assert rc == 0
    assert "24/24 checks hold (all hold)" in out


def _bumped_at(fn, point):
    """``fn`` with its value, or the first of its sides, one larger at
    ``point`` (its arguments as a tuple) and unchanged elsewhere."""
    def bumped(*args):
        value = fn(*args)
        if args != point:
            return value
        return value + 1 if isinstance(value, int) else (value[0] + 1, *value[1:])
    return bumped


def _point_check_bumped_at(flag, point):
    what, names, (ident, sides) = cli._BINOMIAL_CHECKS[flag]
    # the table holds the function itself, so the entry is what to patch
    return lambda mp: mp.setitem(cli._BINOMIAL_CHECKS, flag,
                                 (what, names, (ident, _bumped_at(sides, point))))


# one check of `qrr binomial` at a time, off by one at one point; the
# divisibility checks only return a truth value, so the sum each one tests
# is what is off by one
@pytest.mark.parametrize("argv, patch, ident, params", [
    (["--bino5", "--n", "5"],
     lambda mp: mp.setattr(cli, "bino5_sides", _bumped_at(binomial.bino5_sides, (3,))),
     "BINO5", {"n": 3}),
    (["--bino4", "--n", "5"],
     lambda mp: mp.setattr(cli, "bino4_sides", _bumped_at(binomial.bino4_sides, (0,))),
     "BINO4", {"n": 0}),
    (["--divisibility", "--n", "5"],
     lambda mp: mp.setattr(binomial, "alt_power_sum",
                           _bumped_at(binomial.alt_power_sum, (4, 4))),
     "DIV4", {"n": 4}),
    (["--divisibility", "--n", "5"],
     lambda mp: mp.setattr(binomial, "alt_power_sum",
                           _bumped_at(binomial.alt_power_sum, (2, 5))),
     "DIV5", {"n": 2}),
    (["--cor57", "1,2,1,1,2"], _point_check_bumped_at("cor57", (1, 2, 1, 1, 2)),
     "COR57", dict(l=1, m=2, n=1, u=1, v=2)),
    (["--cor58a", "1,2,1,1"], _point_check_bumped_at("cor58a", (1, 2, 1, 1)),
     "COR58A", dict(l=1, m=2, n=1, u=1)),
    (["--cor58b", "2,1,1,2"], _point_check_bumped_at("cor58b", (2, 1, 1, 2)),
     "COR58B", dict(m=2, n=1, u=1, v=2)),
    (["--general", "2,3,2"],
     lambda mp: mp.setattr(binomial, "general_alt_sum",
                           _bumped_at(binomial.general_alt_sum, ([2, 3, 2],))),
     "GENERAL", dict(n0=2, n1=3, n2=2)),
], ids=["bino5", "bino4", "div4", "div5", "cor57", "cor58a", "cor58b", "general"])
def test_binomial_catches_a_check_off_by_one(argv, patch, ident, params, monkeypatch, capsys):
    argv = ["binomial", *argv, "--format", "json"]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    honest = json.loads(out)["reports"]
    assert all(r["verdict"] == "EQUAL" for r in honest)
    patch(monkeypatch)
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 1
    reports = json.loads(out)["reports"]
    assert [(r["id"], r["params"]) for r in reports] == [(r["id"], r["params"]) for r in honest]
    wrong = [(r["id"], r["params"]) for r in reports if r["verdict"] != "EQUAL"]
    assert wrong == [(ident, params)]


def test_binomial_point_checks(capsys):
    rc, out, _ = run_cli(
        ["binomial", "--cor57", "1,1,1,1,1", "--cor58a", "1,1,1,1",
         "--general", "2,2,2"], capsys)
    assert rc == 0
    assert "30 vs 30" in out
    assert "nonnegative and divisible" in out


def test_bailey_default(capsys):
    rc, out, _ = run_cli(["bailey", "--n-max", "3", "--n", "1", "--trunc", "25"],
                         capsys)
    assert rc == 0
    for label in ("unit-x1 ", "unit-x1-bilateral", "unit-xq-bilateral",
                  "lattice-seed"):
        assert any(l.startswith(label) and l.endswith("n=0..3: 4/4")
                   for l in out.splitlines())
    for target in ("ABCDE1", "ABCDE2", "ABCDE3"):
        assert f"chain({target})  reproduced for N=0..1" in out


def test_bailey_chain_summary_counts_failures(monkeypatch, capsys):
    real = cli.chain_reproduce

    def failing(target, n, *args, **kwargs):
        rep = real(target, n, *args, **kwargs)
        if target == "ABCDE2" and n == 1:
            return dataclasses.replace(rep, verdict="MISMATCH", mismatch_index=3,
                                       lhs_window=[(3, 1)], rhs_window=[(3, 2)])
        return rep

    monkeypatch.setattr(cli, "chain_reproduce", failing)
    rc, out, _ = run_cli(["bailey", "--n-max", "1", "--n", "1", "--trunc", "12"],
                         capsys)
    assert rc == 1
    lines = out.splitlines()
    at = lines.index("chain(ABCDE2)  reproduced for N=0..1: 1/2")
    assert lines[at + 1].startswith("  MISMATCH chain(ABCDE2) ")
    assert "first differing exponent 3" in lines[at + 1]
    assert lines[at + 2:at + 4] == ["    lhs q^3:1", "    rhs q^3:2"]
    assert "chain(ABCDE1)  reproduced for N=0..1: 2/2" in lines
    assert "chain(ABCDE3)  reproduced for N=0..1: 2/2" in lines


@pytest.mark.parametrize("argv", [
    ["bailey", "--n-max", "-3"],
    ["bailey", "--n", "-1"],
])
def test_bailey_vacuous_run_exits_2(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --n")


def test_emit_refuses_an_empty_run():
    with pytest.raises(ValueError, match="no checks were run"):
        cli.emit("verify", {}, [], "json", None, [])


def test_bailey_chain(capsys):
    rc, out, _ = run_cli(
        ["bailey", "--chain", "abcde1", "--n", "1", "--exps", "1,1,2,1",
         "--trunc", "25"], capsys)
    assert rc == 0
    assert "ABCDE1" in out and "EQUAL" in out


# ---------------------------------------------------------------------------
# truncation resolution
# ---------------------------------------------------------------------------


def test_env_truncation_is_honoured(monkeypatch, capsys):
    monkeypatch.setenv("QRR_TRUNC", "17")
    rc, out, _ = run_cli(
        ["verify", "--id", "ANDREWS1", "--range", "n=0..1", "--format", "json"],
        capsys)
    assert rc == 0
    assert json.loads(out)["reports"][0]["trunc"] == 17


def test_flag_beats_env_truncation(monkeypatch, capsys):
    monkeypatch.setenv("QRR_TRUNC", "17")
    rc, out, _ = run_cli(
        ["verify", "--id", "ANDREWS1", "--range", "n=0..1",
         "--trunc", "19", "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["reports"][0]["trunc"] == 19


def test_bad_env_truncation(monkeypatch, capsys):
    for bad in ("0", "abc"):
        monkeypatch.setenv("QRR_TRUNC", bad)
        rc, _, err = run_cli(["verify", "--id", "ANDREWS1", "--range", "n=0..1"],
                             capsys)
        assert rc == 2
        assert "QRR_TRUNC" in err


@pytest.mark.parametrize("argv, env, message", [
    (["verify", "--id", "ANDREWS1", "--range", "n=0..1", "--trunc", "0"], {},
     "--trunc must be an integer in 1..10000, got 0"),
    (["verify-all", "--trunc", "10001"], {}, "--trunc must be an integer in 1..10000, got 10001"),
    (["verify", "--id", "ANDREWS1"], {"QRR_TRUNC": "0"},
     "QRR_TRUNC must be an integer in 1..10000, got 0"),
    (["telescope", "--quartic"], {"QRR_TRUNC": "abc"},
     "QRR_TRUNC must be an integer in 1..10000, got 'abc'"),
], ids=["flag-0", "flag-10001", "env-0", "env-abc"])
def test_every_truncation_route_gives_one_message(argv, env, message, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == "" and err == f"error: {message}\n"


def test_binomial_takes_no_truncation_order(capsys):
    # none of its checks reads one
    with pytest.raises(SystemExit) as exc:
        cli.main(["binomial", "--bino5", "--n", "2", "--trunc", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trunc 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--id", "EULERMN1", "--range", "m=3", "--range", "n=3"], "--range"),
    (["verify", "--id", "EULERMN1", "--id", "ANDREWS1", "--range", "n=3"], "--id"),
    (["verify-all", "--trunc", "5", "--jobs", "1", "--jobs", "2"], "--jobs"),
    (["telescope", "--params", "1,1,1,1,1", "--params", "1,2,1,1,2"], "--params"),
    (["telescope", "--quartic", "--trunc", "10", "--trunc", "20"], "--trunc"),
    (["binomial", "--cor57", "1,1,1,1,1", "--cor57", "1,2,1,1,1"], "--cor57"),
    (["binomial", "--cor58a", "1,2,1,1", "--cor58b", "2,1,1,2", "--cor58a", "1,1,1,1"],
     "--cor58a"),
    (["binomial", "--general", "2,2,2", "--bino5", "--general", "2,2"], "--general"),
    (["binomial", "--bino5", "--format", "json", "--format", "text"], "--format"),
])
def test_a_value_option_given_twice_exits_2(argv, flag, tmp_path, capsys):
    # argparse alone keeps the last value: --range m=3 --range n=3 would
    # verify m = 0..6 at n = 3 and drop m=3
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: given more than once" in captured.err
    assert not any(tmp_path.iterdir())


def test_out_given_twice_writes_neither(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["telescope", "--params", "1,1,1,1,1", "--out", str(first),
                  "--out", str(second)])
    assert exc.value.code == 2
    assert "argument --out: given more than once" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# empty flag values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["verify", "--id", "ANDREWS1", "--range="],
    ["bailey", "--chain", "abcde1", "--exps="],
    ["telescope", "--params=", "--quartic"],
    ["binomial", "--bino5", "--n", "1", "--cor57="],
    ["binomial", "--bino5", "--n", "1", "--cor58a="],
    ["binomial", "--bino5", "--n", "1", "--cor58b="],
    ["binomial", "--bino5", "--n", "1", "--general="],
], ids=["range", "exps", "params", "cor57", "cor58a", "cor58b", "general"])
def test_an_empty_flag_value_is_refused(argv, capsys):
    # "" is a value given, not a flag left out
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == "" and err.startswith("error:")
