"""The streaming JSON writer of ``cli.emit`` against ``json.dumps``.

``report_to_dict`` below is the report schema written out as a dict; the
document built from it and dumped with ``json.dumps(doc, indent=2)`` is the
slow oracle whose bytes the writer must reproduce, report by report and as
whole documents on both sides of a write batch.  The rest checks that a run
that fails partway leaves no report that looks finished.
"""

import json
import os
import stat
import threading
from fractions import Fraction

import pytest

from qrr import cli
from qrr.identities import engine
from qrr.identities.framework import EngineError, VerificationReport
from qrr.telescoping import verify_telescoping


def _frac_str(c) -> str:
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}"


def report_to_dict(rep: VerificationReport) -> dict:
    d = {
        "id": rep.ident,
        "params": {k: rep.params[k] for k in sorted(rep.params)},
        "trunc": rep.trunc,
        "verdict": rep.verdict,
    }
    if rep.mismatch_index is not None:
        d["mismatch_index"] = rep.mismatch_index
        d["lhs_window"] = [[e, _frac_str(c)] for e, c in rep.lhs_window]
        d["rhs_window"] = [[e, _frac_str(c)] for e, c in rep.rhs_window]
    if rep.checks:
        d["checks"] = [[name, verdict] for name, verdict in rep.checks]
    d["millis"] = 0.0
    return d


def _at_depth_2(text: str) -> str:
    return "\n".join("    " + line for line in text.split("\n"))


def _shapes() -> dict:
    return {
        "equal": engine.verify("ANDREWS1", {"n": 3}, 20),
        "several params": engine.verify("LMNRS1", {"l": 1, "m": 0, "n": 2, "u": 1, "v": 1}, 12),
        "quartic, no params": VerificationReport("QUARTIC", {}, 0, "EQUAL"),
        "general, no params": VerificationReport("GENERAL", {}, 0, "MISMATCH"),
        "mismatch at 0, empty windows": VerificationReport(
            "X", {"n": 1}, 5, "MISMATCH", mismatch_index=0, lhs_window=[], rhs_window=[]),
        "fractional windows": VerificationReport(
            "weighted[1,2;N=3](unit-x1)", {"n": -2}, 9, "MISMATCH", mismatch_index=-1,
            lhs_window=[(-3, 0), (-1, -4), (0, Fraction(-5, 7))],
            rhs_window=[(-3, Fraction(1, 2)), (-1, 12345678901234567890), (0, 3)]),
        "counterexample": engine.liu_counterexample("LIU2", 1, 20),
        "certificate checks": verify_telescoping(1, 2, 1, 1, 2, 15),
        "escaped strings": VerificationReport(
            'qé"\\\t', {"n′": 1}, 3, "EQUAL", checks=[("déjà vu", "EQUAL")]),
    }


@pytest.mark.parametrize("shape", sorted(_shapes()))
def test_each_report_is_json_dumps_at_depth_2(shape):
    rep = _shapes()[shape]
    assert cli.report_json(rep) == _at_depth_2(json.dumps(report_to_dict(rep), indent=2))


def test_the_shapes_cover_every_optional_key():
    keys = set()
    for rep in _shapes().values():
        keys |= set(report_to_dict(rep))
    assert {"mismatch_index", "lhs_window", "rhs_window", "checks"} <= keys
    assert any(r.checks and r.mismatch_index is None for r in _shapes().values())


@pytest.mark.parametrize("count", [1, cli._BATCH_REPORTS, cli._BATCH_REPORTS + 1,
                                   2 * cli._BATCH_REPORTS])
def test_whole_documents_are_json_dumps(count, tmp_path, capsys):
    shapes = list(_shapes().values())
    reports = [shapes[i % len(shapes)] for i in range(count)]
    config = {"id": "ANDREWS1", "ranges": {"n": [0, 3]}, "trunc": None, "jobs": 2}
    passed = sum(r.verdict == "EQUAL" for r in reports)
    doc = {
        "artifact_version": cli.ARTIFACT_VERSION,
        "command": "verify",
        "config": config,
        "reports": [report_to_dict(r) for r in reports],
        "summary": {"total": count, "passed": passed, "failed": count - passed},
    }
    want = json.dumps(doc, indent=2) + "\n"
    rc = cli.emit("verify", config, iter(reports), "json", None, [])
    assert capsys.readouterr().out == want
    assert rc == (0 if passed == count else 1)
    path = tmp_path / "report.json"
    assert cli.emit("verify", config, iter(reports), "json", str(path), []) == rc
    assert path.read_text(encoding="utf-8") == want
    assert os.listdir(tmp_path) == ["report.json"]


def test_a_run_with_no_reports_writes_nothing(tmp_path):
    path = tmp_path / "report.json"
    for fmt in ("json", "text"):
        with pytest.raises(ValueError, match="no checks were run"):
            cli.emit("verify-all", {}, iter([]), fmt, str(path), ["a line"])
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# a failed run leaves the old --out file and no temporary file
# ---------------------------------------------------------------------------


@pytest.fixture
def old_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("the previous report\n", encoding="utf-8")
    return path


def _assert_untouched(path):
    assert path.read_text(encoding="utf-8") == "the previous report\n"
    assert os.listdir(path.parent) == [path.name]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_check_that_raises_partway_keeps_the_old_file(fmt, old_report, monkeypatch, capsys):
    real, calls = engine.verify, []

    def failing(*args, **kwargs):
        calls.append(1)
        # past the first write batch, so the temporary file holds reports
        if len(calls) == cli._BATCH_REPORTS + 50:
            raise EngineError("a check failed to run")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "verify", failing)
    rc = cli.main(["verify-all", "--trunc", "8", "--jobs", "1", "--format", fmt,
                   "--out", str(old_report)])
    err = capsys.readouterr().err
    assert rc == 2 and err == "error: a check failed to run\n"
    assert len(calls) == cli._BATCH_REPORTS + 50
    _assert_untouched(old_report)


def test_a_dead_worker_exits_2_and_keeps_the_old_file(old_report, monkeypatch, capsys):
    # a forked worker exits at once on one record late in the sweep, after
    # the first reports are written
    parent, real = os.getpid(), engine.verify
    late = engine.list_identities()[20]

    def dying(ident, *args, **kwargs):
        if ident == late and os.getpid() != parent:
            os._exit(3)
        return real(ident, *args, **kwargs)

    monkeypatch.setattr(engine, "verify", dying)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    rc = cli.main(["verify-all", "--trunc", "8", "--jobs", "2", "--format", "json",
                   "--out", str(old_report)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: A process in the process pool was terminated abruptly")
    _assert_untouched(old_report)


def test_a_finished_run_replaces_the_old_file(old_report, capsys):
    rc = cli.main(["verify", "--id", "ANDREWS1", "--range", "n=0..2", "--trunc", "12",
                   "--format", "json", "--out", str(old_report)])
    assert rc == 0 and capsys.readouterr().out == ""
    assert json.loads(old_report.read_text(encoding="utf-8"))["summary"]["total"] == 3
    assert os.listdir(old_report.parent) == [old_report.name]


_ANDREWS1 = ["verify", "--id", "ANDREWS1", "--range", "n=0..2", "--trunc", "12",
             "--format", "json", "--out"]


def test_a_symlink_updates_its_target_and_stays_a_link(old_report, capsys):
    link = old_report.parent / "link.json"
    link.symlink_to(old_report.name)
    assert cli.main(_ANDREWS1 + [str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == old_report.name
    assert json.loads(old_report.read_text(encoding="utf-8"))["summary"]["total"] == 3
    assert sorted(os.listdir(old_report.parent)) == ["link.json", "report.json"]


def test_the_replaced_file_keeps_its_mode(old_report, capsys):
    os.chmod(old_report, 0o640)
    assert cli.main(_ANDREWS1 + [str(old_report)]) == 0
    assert stat.S_IMODE(os.stat(old_report).st_mode) == 0o640


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_a_read_only_file_exits_2_and_is_left_as_it_was(old_report, capsys):
    os.chmod(old_report, 0o444)
    assert cli.main(_ANDREWS1 + [str(old_report)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    _assert_untouched(old_report)


def test_a_pipe_is_written_in_place(tmp_path, capsys):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    rc = cli.main(["verify", "--id", "ANDREWS1", "--range", "n=0..2", "--trunc", "12",
                   "--format", "json", "--out", str(pipe)])
    reader.join(timeout=30)
    assert rc == 0 and not reader.is_alive()
    assert json.loads(got[0])["summary"]["total"] == 3
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_a_missing_directory_names_the_path_given(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert cli.main(_ANDREWS1 + [str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert os.listdir(tmp_path) == []
