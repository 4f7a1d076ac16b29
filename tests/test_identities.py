"""Registry records and the verification engine built on them."""

import dataclasses
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from qrr.identities import (
    EngineError,
    REGISTRY,
    UnknownIdentity,
    eval_side,
    get_record,
    grid_points,
    identity_sites,
    list_identities,
    liu_counterexample,
    rr_limit_check,
    support_bounds,
    verify,
    verify_grid,
    verify_mutated,
)
from qrr.identities import engine
from qrr.identities.framework import (
    MAX_PARAMETER,
    UNPERTURBED,
    EvalCtx,
    eval_side_value,
)


def test_registry_shape():
    assert len(REGISTRY) == 38
    for ident, rec in REGISTRY.items():
        assert ident == rec.ident == ident.upper()
        assert rec.expect in ("equal", "counterexample")
        names = [ps.name for ps in rec.params]
        assert len(names) == len(set(names))
        grid_names = {n for n, _, _ in rec.default_grid}
        assert grid_names <= set(names)
    assert sorted(REGISTRY) == list_identities()


def test_get_record_is_exact_match():
    assert get_record("ANDREWS1").ident == "ANDREWS1"
    with pytest.raises(UnknownIdentity):
        get_record("NOPE")
    with pytest.raises(UnknownIdentity):
        get_record("andrews1")    # callers normalise case, the registry does not


def test_verify_single_points():
    for ident, pt in (
        ("ANDREWS1", {"n": 4}),
        ("ANDREWS2", {"n": 4}),
        ("LMNRS1", {"l": 1, "m": 1, "n": 1, "u": 1, "v": 1}),
        ("LMNRS3", {"l": 2, "m": 1, "n": 1, "u": 1, "v": 2}),
        ("ABCDE60", {"n": 1, "l": 1, "m": 1, "u": 1, "v": 1}),
        ("EULERMN1", {"m": 3, "n": 2}),
    ):
        rep = verify(ident, pt, 40)
        assert rep.equal, (ident, pt, rep.mismatch_index)
        assert rep.trunc == 40
        assert rep.mismatch_index is None


def test_verify_needs_all_params():
    with pytest.raises(EngineError):
        verify("ANDREWS1", {}, 20)
    with pytest.raises(EngineError):
        verify("ANDREWS1", {"n": 1, "z": 2}, 20)
    with pytest.raises(EngineError):
        verify("ANDREWS1", {"n": -1}, 20)


@pytest.mark.parametrize("value", [3.7, 3.0, True, "3"])
def test_verify_refuses_non_integral_parameters(value):
    with pytest.raises(EngineError, match="parameter n must be an integer"):
        verify("ANDREWS1", {"n": value}, 20)


@pytest.mark.parametrize("params,message", [
    ({"l": 1, "m": 1, "n": 1}, "LMNR1: missing parameter 'u'"),
    ({"l": 1, "m": 1, "n": 1, "u": 1, "x": 0, "a": 2},
     "LMNR1: unexpected parameters ['a', 'x']"),
    ({"l": 1, "m": True, "n": 1, "u": 1},
     f"LMNR1: parameter m must be an integer >= 0 and at most {MAX_PARAMETER}, got True"),
    ({"l": 1, "m": 1, "n": 2.0, "u": 1},
     f"LMNR1: parameter n must be an integer >= 0 and at most {MAX_PARAMETER}, got 2.0"),
    ({"l": 1, "m": 1, "n": 1, "u": "1"},
     f"LMNR1: parameter u must be an integer >= 0 and at most {MAX_PARAMETER}, got '1'"),
    ({"l": -1, "m": 1, "n": 1, "u": 1},
     f"LMNR1: parameter l must be an integer >= 0 and at most {MAX_PARAMETER}, got -1"),
    ({"l": 1, "m": 1, "n": 1, "u": MAX_PARAMETER + 1},
     f"LMNR1: parameter u must be an integer >= 0 and at most {MAX_PARAMETER}, "
     f"got {MAX_PARAMETER + 1}"),
], ids=["missing", "extra", "bool", "float", "str", "below-floor", "above-limit"])
def test_each_bad_parameter_has_its_exact_message(params, message):
    with pytest.raises(EngineError) as exc:
        verify("LMNR1", params, 20)
    assert str(exc.value) == message


def test_verify_mutated_keeps_its_truncation_order():
    assert verify_mutated("ANDREWS1", {"n": 3}, "lhs.qpow", 1, trunc=18).trunc == 18


def test_mutation_calls_take_their_default_trunc_from_environment(monkeypatch):
    monkeypatch.delenv("QRR_TRUNC", raising=False)
    assert verify_mutated("ANDREWS1", {"n": 3}, "lhs.qpow", 1).trunc == 60
    monkeypatch.setenv("QRR_TRUNC", "12")
    assert verify_mutated("ANDREWS1", {"n": 3}, "lhs.qpow", 1).trunc == 12
    seen = []
    real = engine.verify
    monkeypatch.setattr(engine, "verify", lambda *args: seen.append(real(*args).trunc))
    identity_sites("ANDREWS1", {"n": 3})
    assert seen == [12]


def test_default_trunc_comes_from_environment(monkeypatch):
    monkeypatch.delenv("QRR_TRUNC", raising=False)
    assert verify("EULERN1", {"n": 2}).trunc == 60
    monkeypatch.setenv("QRR_TRUNC", "17")
    assert verify("EULERN1", {"n": 2}).trunc == 17


def test_grid_and_support_trunc_come_from_environment(monkeypatch):
    # with no trunc: QRR_TRUNC, else the record's default (40 for EULERN1)
    monkeypatch.delenv("QRR_TRUNC", raising=False)
    assert [r.trunc for r in verify_grid("EULERN1", {"n": (2, 2)})] == [40]
    assert support_bounds("EULERN1", "rhs", {"n": 2}) == (0, 7)
    monkeypatch.setenv("QRR_TRUNC", "20")
    reports = verify_grid("EULERN1", {"n": (2, 2)})
    assert [(r.params, r.trunc, r.verdict) for r in reports] == [({"n": 2}, 20, "EQUAL")]
    assert support_bounds("EULERN1", "rhs", {"n": 2}) == (0, 5)
    assert verify_grid("EULERN1", {"n": (2, 2)}, 30)[0].trunc == 30


def test_worker_count_is_clamped():
    assert engine.worker_count(1, 8, 100) == 1
    assert engine.worker_count(4, 8, 100) == 4
    assert engine.worker_count(100_000, 2, 10_664) == 2
    assert engine.worker_count(100_000, 64, 5) == 5
    assert engine.worker_count(3, 0, 0) == 1


def test_verify_grid_pool_size_is_clamped(inline_pool, monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    reports = verify_grid("ANDREWS1", {"n": (0, 4)}, 20, jobs=100_000)
    assert inline_pool == [3] and len(reports) == 5 and all(r.equal for r in reports)
    verify_grid("ANDREWS1", {"n": (0, 4)}, 20, jobs=2)
    assert inline_pool == [3, 2]
    # fewer than four points run serially, with no pool
    verify_grid("ANDREWS1", {"n": (0, 2)}, 20, jobs=2)
    assert inline_pool == [3, 2]


def test_verify_points_keeps_task_order_across_chunks(inline_pool, monkeypatch):
    # 40 tasks in chunks of 2, 4 chunks in flight: every report comes back
    # in task order, and tasks are drawn only as chunks are handed out (by
    # the first report: the first window and the chunk that refills it)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    drawn = []

    def tasks():
        for n in range(40):
            drawn.append(n)
            yield "ANDREWS1", {"n": n % 13}, 15

    stream = engine.verify_points(tasks(), 40, jobs=2)
    first = next(stream)
    assert first.params == {"n": 0} and len(drawn) == 2 * (4 + 1)
    rest = list(stream)
    assert [r.params["n"] for r in [first] + rest] == [n % 13 for n in range(40)]
    assert inline_pool == [2] and all(r.equal for r in rest)


# the messages of a pool whose worker died: a future that was in flight
# fails with the first, and every later hand-off is refused with the second
_DIED_RUNNING = ("A process in the process pool was terminated abruptly while "
                 "the future was running or pending.")
_DIED_SUBMIT = ("A child process terminated abruptly, the process pool is not "
                "usable anymore")


@pytest.mark.parametrize("failing, message", [(3, "while the future was running"),
                                              (None, "not usable anymore")],
                         ids=["failed-future", "no-failed-future"])
def test_a_broken_pool_raises_its_workers_error(failing, message, monkeypatch):
    # 40 tasks in chunks of 2, 4 chunks in flight; the pool breaks once the
    # first window is handed out.  The reports before the failed chunk come
    # back in order, then the failed chunk raises its own error; with no
    # failed chunk in the window the refused hand-off raises, and the stream
    # never ends short
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    submitted = []

    class BreakingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            if len(submitted) == 4:
                raise BrokenProcessPool(_DIED_SUBMIT)
            done = Future()
            if len(submitted) == failing:
                done.set_exception(BrokenProcessPool(_DIED_RUNNING))
            else:
                done.set_result(fn(*args))
            submitted.append(args)
            return done

    monkeypatch.setattr(engine, "ProcessPoolExecutor", BreakingPool)
    tasks = (("ANDREWS1", {"n": n % 13}, 15) for n in range(40))
    got = []
    with pytest.raises(BrokenProcessPool, match=message):
        for rep in engine.verify_points(tasks, 40, jobs=2):
            got.append(rep.params["n"])
    assert got == list(range(2 * (failing or 4)))
    assert len(submitted) == 4


def test_grid_size_limit_is_checked_before_any_point(monkeypatch):
    rec = get_record("ANDREWS1")
    assert engine.lazy_grid(rec)[0] == 13
    assert engine.lazy_grid(get_record("LMNRS2"))[0] == 1024
    top = engine.MAX_GRID_POINTS
    assert engine.lazy_grid(rec, {"n": (0, top - 1)})[0] == top
    monkeypatch.setattr(engine, "_cartesian", None)     # no point may be built
    with pytest.raises(EngineError, match="more than the limit"):
        engine.lazy_grid(rec, {"n": (0, top)})
    with pytest.raises(EngineError, match="more than the limit"):
        grid_points(get_record("LMNRS3"), {k: (1, 20) for k in "lmnuv"})
    with pytest.raises(EngineError, match="more than the limit"):
        verify_grid("ANDREWS1", {"n": (0, 10 ** 8)}, 20)


def test_malformed_grid_axis_is_refused_before_any_point(monkeypatch):
    monkeypatch.setattr(engine, "_cartesian", None)     # no point may be built
    with pytest.raises(EngineError, match=r"^ANDREWS1: grid for n runs backwards: 5..3$"):
        verify_grid("ANDREWS1", {"n": (5, 3)}, 20)
    with pytest.raises(EngineError, match="grid for m runs backwards"):
        grid_points(get_record("EULERMN1"), {"m": (1, 0)})
    for bounds in ((0, 2.5), (True, 2), (0.0, 2), 3, [1], (0, 1, 2)):
        with pytest.raises(EngineError, match=r"^ANDREWS1: grid for n needs integer bounds"):
            verify_grid("ANDREWS1", {"n": bounds}, 20)


@pytest.mark.parametrize("jobs", [0, -5, True, 1.5, "2"])
def test_jobs_must_be_a_positive_integer(jobs):
    drawn = []

    def tasks():
        drawn.append(1)
        yield "ANDREWS1", {"n": 1}, 15

    with pytest.raises(EngineError, match=rf"^jobs must be an integer >= 1, got {jobs!r}$"):
        list(engine.verify_points(tasks(), 1, jobs))
    assert drawn == []
    with pytest.raises(EngineError, match="jobs must be an integer"):
        verify_grid("ANDREWS1", {"n": (0, 1)}, 15, jobs=jobs)


def test_grid_points_order_and_overrides():
    rec = get_record("EULERMN1")
    pts = grid_points(rec, {"m": (0, 1), "n": (2, 3)})
    assert pts == [{"m": 0, "n": 2}, {"m": 0, "n": 3},
                   {"m": 1, "n": 2}, {"m": 1, "n": 3}]
    with pytest.raises(EngineError):
        grid_points(rec, {"bogus": (0, 1)})
    with pytest.raises(EngineError):
        grid_points(get_record("LMNRS3"), {"u": (0, 2)})   # below the minimum


def test_verify_grid_matches_pointwise_and_parallel():
    ranges = {"l": (0, 1), "m": (0, 1), "n": (0, 1), "u": (1, 2), "v": (1, 2)}
    serial = verify_grid("LMNRS3", ranges, 25)
    assert len(serial) == 32 and all(r.equal for r in serial)
    rec = get_record("LMNRS3")
    assert [r.params for r in serial] == grid_points(rec, ranges)
    parallel = verify_grid("LMNRS3", ranges, 25, jobs=2)
    assert [(r.params, r.verdict) for r in parallel] == \
           [(r.params, r.verdict) for r in serial]


def test_eval_side_values():
    point = {"n": 1, "l": 1, "m": 1, "u": 1, "v": 1}
    z = eval_side("ABCDE60", "rhs", point, 20)
    assert z == [0] * 21
    # the zero side is the empty sum: it has no exponent to perturb
    sites = identity_sites("ABCDE60", point, 20)
    assert sites and not any(s.startswith("rhs.") for s in sites)
    lhs = eval_side("ANDREWS1", "lhs", {"n": 3}, 20)
    rhs = eval_side("ANDREWS1", "rhs", {"n": 3}, 20)
    assert lhs == rhs
    assert type(lhs) is list and len(lhs) == 21 and lhs[0] == 1
    with pytest.raises(EngineError):
        eval_side("ANDREWS1", "both", {"n": 3}, 20)


@pytest.mark.parametrize("call", [
    lambda side: eval_side("ANDREWS1", side, {"n": 3}, 20),
    lambda side: support_bounds("ANDREWS1", side, {"n": 3}, 20),
    lambda side: eval_side_value(get_record("ANDREWS1"), side, {"n": 3}, 20),
], ids=["eval_side", "support_bounds", "eval_side_value"])
def test_unknown_side_is_refused(call):
    with pytest.raises(EngineError, match="side must be 'lhs' or 'rhs', got 'both'"):
        call("both")


def test_support_bounds_examples():
    assert support_bounds("ANDREWS1", "lhs", {"n": 5}, 40) == (0, 5)
    assert support_bounds("ANDREWS1", "rhs", {"n": 5}, 40) == (-5, 5)
    assert support_bounds("LMNRS1", "lhs",
                          {"l": 2, "m": 1, "n": 3, "u": 1, "v": 2}, 40) == (0, 1)
    assert support_bounds("ABCDE1", "lhs",
                          {"n": 1, "l": 1, "m": 1, "u": 1, "v": 1}, 18) == (-1, 1)


def test_support_bounds_are_sharp():
    # terms just outside the reported range must vanish; the engine relies on it
    ident, params = "LMNRS2", {"l": 1, "m": 2, "n": 1, "u": 2, "v": 1}
    lo, hi = support_bounds(ident, "lhs", params, 30)
    inside = eval_side(ident, "lhs", params, 30)
    assert any(inside)
    assert lo == 0 and hi >= 0


def test_limit_consistency_five_to_four_params():
    # the five-parameter families collapse to the four-parameter ones when
    # the last parameter exponent clears the truncation window
    T = 30
    samples = {
        ("LMNRS1", "LMNR1"): {"l": 1, "m": 2, "n": 1, "u": 2},
        ("LMNRS2", "LMNR2"): {"l": 2, "m": 1, "n": 2, "u": 1},
        ("LMNRS3", "LMNR3"): {"l": 1, "m": 1, "n": 2, "u": 1},
        ("LMNRS4", "LMNR4"): {"l": 2, "m": 2, "n": 1, "u": 2},
    }
    for (five, four), pt in samples.items():
        for side in ("lhs", "rhs"):
            a = eval_side(five, side, dict(pt, v=T), T)
            b = eval_side(four, side, pt, T)
            assert a == b, (five, four, side)


def test_rr_limit_check():
    assert rr_limit_check("RR1", 30).equal
    assert rr_limit_check("RR2", 30).equal
    with pytest.raises(UnknownIdentity):
        rr_limit_check("RR3", 30)


def test_rr_limit_check_detects_a_corrupted_product(monkeypatch):
    # bump the q^7 coefficient of the independent product side
    product = engine._rr_product
    monkeypatch.setattr(engine, "_rr_product", lambda which, trunc:
                        [c + (i == 7) for i, c in enumerate(product(which, trunc))])
    rep = rr_limit_check("RR1", 30)
    assert rep.verdict == "MISMATCH"
    assert rep.mismatch_index == 7
    assert dict(rep.rhs_window)[7] - dict(rep.lhs_window)[7] == 1


def test_liu_records_hold_at_generic_points():
    # the registry grids avoid the degenerate specialisation, so both
    # transformation records verify there
    for ident in ("LIU1", "LIU2"):
        reports = verify_grid(ident, None, 25)
        assert reports and all(r.equal for r in reports)


def test_liu_counterexample_reports_mismatch_at_zero():
    for a_exp in (1, 2, 3):
        rep = liu_counterexample("LIU1", a_exp, 20)
        assert rep.verdict == "MISMATCH"
        assert rep.mismatch_index == 0
    rep = liu_counterexample("LIU2", 2, 20)
    assert rep.verdict == "MISMATCH" and rep.mismatch_index == 0
    with pytest.raises(UnknownIdentity):
        liu_counterexample("LIU3", 2, 20)
    with pytest.raises(EngineError):
        liu_counterexample("LIU1", 0, 20)


def test_liu1_lhs_window_is_one_minus_q():
    rep = liu_counterexample("LIU1", 2, 20)
    window = dict(rep.lhs_window)
    assert window[0] == 1 and window[1] == -1
    assert all(c == 0 for _, c in rep.rhs_window)


def test_liu_counterexample_checks_its_closed_form(monkeypatch):
    # the degenerate sums equal (q;q)_{a-1} (LIU1) and (q;q)_a (LIU2) exactly
    for which in ("LIU1", "LIU2"):
        for a_exp in range(1, 7):
            assert liu_counterexample(which, a_exp, 40).verdict == "MISMATCH"
    # a wrong closed form is refused instead of being reported
    closed = engine.liu_closed_form
    monkeypatch.setattr(engine, "liu_closed_form", lambda w, a: closed(w, a).factor(a + 3))
    with pytest.raises(EngineError, match="disagrees with its closed form"):
        liu_counterexample("LIU1", 2, 20)


class _Ks(EvalCtx):
    """A context that records each k at which a term chain passes its
    q-power site, in order."""

    def __init__(self):
        super().__init__()
        self.ks = []

    def site(self, name, value, k=0):
        if name.endswith(".qpow"):
            self.ks.append(k)
        return value


def test_liu_sums_keep_their_ranges():
    # LIU1 sums over 1-a..a-1 and LIU2 over -a..a-1, derived from the
    # arguments: the k-range its term chain runs over
    for a in range(1, 8):
        for which, want in (("LIU1", (1 - a, a - 1)), ("LIU2", (-a, a - 1))):
            ctx = _Ks()
            engine._sum_terms(engine._LIU_SUMS[which], {"a": a}, ctx, which, 20)
            assert ctx.ks == list(range(want[0], want[1] + 1)), (which, a)


@pytest.mark.parametrize("which, change", [("LIU1", {"argden": ("a+1",)}),
                                           ("LIU2", {"lin": "a+1"})])
def test_liu_counterexample_refuses_a_corrupted_sum(which, change, monkeypatch):
    spec = dataclasses.replace(engine._LIU_SUMS[which], **change)
    monkeypatch.setitem(engine._LIU_SUMS, which, spec)
    with pytest.raises(EngineError, match="disagrees with its closed form"):
        liu_counterexample(which, 3, 20)


def test_rr_limit_check_detects_a_corrupted_sum(monkeypatch):
    # the RR2 weight q^(k^2+k) against the RR1 product: they part at q^1
    spec, product = engine._RR_LIMITS["RR1"]
    monkeypatch.setitem(engine._RR_LIMITS, "RR1",
                        (dataclasses.replace(spec, quad=(2, 2)), product))
    rep = rr_limit_check("RR1", 30)
    assert rep.verdict == "MISMATCH" and rep.mismatch_index == 1
    assert dict(rep.lhs_window)[1] == 0 and dict(rep.rhs_window)[1] == 1


@pytest.mark.parametrize("a_exp", [True, 1.5, "2", 0])
def test_liu_exponent_must_be_an_integer(a_exp):
    with pytest.raises(EngineError, match=f"a_exp must be an integer >= 1 .*, got {a_exp!r}"):
        liu_counterexample("LIU1", a_exp, 20)


def test_a_mutation_moves_qpow_sites_by_d_times_k_and_others_by_d():
    names = set()
    ctx = EvalCtx({"lhs.qpow": 3, "lhs.num[n]": 3, "f.2.qpow[k+k+u+v]": -2},
                  recorder=names)
    assert ctx.site("lhs.qpow", 10, 4) == 22
    assert ctx.site("lhs.qpow", 10) == 10
    assert ctx.site("lhs.num[n]", 10, 4) == 13
    assert ctx.site("f.2.qpow[k+k+u+v]", 10, 4) == 8
    assert ctx.site("rhs.qpow", 10, 4) == 10
    assert names == {"lhs.qpow", "lhs.num[n]", "f.2.qpow[k+k+u+v]", "rhs.qpow"}
    assert UNPERTURBED.site("lhs.qpow", 10, 4) == 10
    assert UNPERTURBED.mutations == {} and UNPERTURBED.recorder is None


def test_parameters_above_the_limit_are_refused(monkeypatch):
    assert verify("ANDREWS1", {"n": MAX_PARAMETER}, 20).equal
    with pytest.raises(EngineError, match=f"parameter n must be an integer >= 0 and "
                                          f"at most {MAX_PARAMETER}, got {MAX_PARAMETER + 1}"):
        eval_side("ANDREWS1", "lhs", {"n": MAX_PARAMETER + 1}, 20)
    with pytest.raises(EngineError, match=f"at most {engine.MAX_LIU_EXPONENT}, got"):
        liu_counterexample("LIU1", engine.MAX_LIU_EXPONENT + 1, 20)

    def no_work(*args, **kwargs):
        raise AssertionError("a point was verified")

    # a grid is refused at its top corner, before any of its points
    monkeypatch.setattr(engine, "verify", no_work)
    with pytest.raises(EngineError, match=f"parameter v must be an integer >= 0 and "
                                          f"at most {MAX_PARAMETER}, got {MAX_PARAMETER + 1}"):
        verify_grid("LMNRS1", {"v": (0, MAX_PARAMETER + 1)}, 20)


def test_mutation_hooks_have_teeth():
    params = {"n": 2}
    sites = identity_sites("ANDREWS1", params, trunc=18)
    assert sites, "no exponent sites recorded"
    flipped = 0
    for site in sites:
        rep = verify_mutated("ANDREWS1", params, site, -1, trunc=18)
        if not rep.equal:
            flipped += 1
    assert flipped >= len(sites) - 1


def test_a_misspelt_site_is_refused():
    # "lhs.nmu[k]" is passed nowhere, so the probe cannot read EQUAL
    assert "lhs.nmu[k]" not in identity_sites("ANDREWS1", {"n": 2})
    with pytest.raises(EngineError, match=r"ANDREWS1: .* passes no site 'lhs\.nmu\[k\]'"):
        verify_mutated("ANDREWS1", {"n": 2}, "lhs.nmu[k]", 1)
    # a site the check does pass, bumped by 0, reads EQUAL
    assert verify_mutated("ANDREWS1", {"n": 2}, "lhs.den[k]", 0).equal


def test_the_flip_declaration_is_load_bearing(monkeypatch):
    # at u = 0 the pair (q^-u; q)_k / (q^u; q)_k is a 0/0 taken at its limit
    point = dict(n=1, l=1, m=1, u=0, v=1)
    assert verify("ABCDE3", point, 40).equal
    rec = REGISTRY["ABCDE3"]
    bare = dataclasses.replace(rec.lhs.sum, flips=())
    monkeypatch.setitem(REGISTRY, "ABCDE3",
                        dataclasses.replace(rec, lhs=dataclasses.replace(rec.lhs, sum=bare)))
    assert verify("ABCDE3", point, 40).verdict == "MISMATCH"


def test_mutated_verdict_reports_window():
    rep = verify_mutated("ANDREWS1", {"n": 2}, "lhs.qpow", -1, trunc=18)
    assert not rep.equal
    assert rep.mismatch_index is not None
    assert rep.lhs_window and rep.rhs_window
