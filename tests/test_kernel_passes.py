"""``tools/kernel_passes.py``: its counts and its table, on one tiny check
instead of the three benchmark runs."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import series_oracle
from qrr import pochhammer, telescoping
from qrr.pochhammer import PochProduct
from qrr.identities import engine, framework

_PATH = Path(__file__).resolve().parent.parent / "tools" / "kernel_passes.py"


@pytest.fixture(scope="module")
def kernel_passes():
    spec = importlib.util.spec_from_file_location("kernel_passes", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny():
    # an EULER record: one packed evaluation and no kernel pass
    return engine.verify("EULERMN1", {"m": 4, "n": 5}, 160)


def _on_lists():
    """_tiny() on the series route of ``series_oracle``: its sides summed
    by the list kernels, div_euler among them."""
    with pytest.MonkeyPatch.context() as mp:
        series_oracle.install(mp)
        return _tiny()


def _bindings():
    return [(module, name, getattr(module, name))
            for module in (pochhammer, framework)
            for name in ("mul_binomial", "div_binomial", "div_euler")
            if hasattr(module, name)]


def _builders():
    return [(module, "_sum_terms", module._sum_terms) for module in (framework, engine)]


def test_counts_match_counting_at_each_binding(kernel_passes, monkeypatch, series_route):
    before, builders, step = _bindings(), _builders(), PochProduct.step
    with kernel_passes.counted_kernels() as calls:
        assert _tiny().equal
    # every binding is put back, and no module keeps an eval of its own
    assert _bindings() == before and _builders() == builders
    assert PochProduct.step is step and "eval" not in vars(framework)
    want = Counter()
    for module, name, kernel in before:
        def counted(*args, kernel=kernel, name=name):
            want[name] += 1
            if name != "div_euler":
                buf, m, lo = args
                want["coeff_updates"] += len(range(lo + m, len(buf)))
            return kernel(*args)
        monkeypatch.setattr(module, name, counted)
    for module, name, build in builders:
        def kept(*args, build=build):
            terms = build(*args)
            want["terms"] += len(terms)
            return terms
        monkeypatch.setattr(module, name, kept)

    def stepped(self, *args):
        want["steps"] += 1
        return step(self, *args)

    def evaluated(*args):
        want["evals"] += 1
        return eval(*args)

    monkeypatch.setattr(PochProduct, "step", stepped)
    monkeypatch.setattr(framework, "eval", evaluated, raising=False)
    _tiny()
    assert calls == want
    # EULERMN1 at (4, 5): k runs over 0..4 on the lhs and 0..13 on the rhs,
    # every term nonzero; each side costs one eval for its prefactor, one
    # for its sum's parameters and one per k
    assert calls["terms"] == 5 + 14 and calls["steps"] > calls["terms"]
    assert calls["evals"] == 2 + 2 + 5 + 14
    assert calls["div_euler"] == 1 and calls["mul_binomial"] + calls["div_binomial"] > 0
    assert calls["coeff_updates"] > calls["mul_binomial"] + calls["div_binomial"]


@pytest.mark.parametrize("kernel", [pochhammer.mul_binomial, pochhammer.div_binomial])
@pytest.mark.parametrize("n,m,lo", [(10, 1, 0), (10, 3, 4), (10, 7, 3), (10, 9, 2), (1, 1, 0)])
def test_coeff_updates_count_the_entries_a_pass_changes(kernel_passes, kernel, n, m, lo):
    # with every entry from lo on nonzero, each entry a pass visits changes
    buf = [0] * lo + [1] * (n - lo)
    after = list(buf)
    kernel(after, m, lo)
    changed = sum(a != b for a, b in zip(buf, after))
    assert kernel_passes.coeff_updates(buf, m, lo) == changed


def test_main_prints_one_row_per_run(kernel_passes, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)

    def point():
        # B + 2 <= T: one point evaluation and no kernel pass
        return engine.verify("ANDREWS1", {"n": 2}, 40)

    def runs(workloads):
        tiny = workloads.verify_items([("EULERMN1", {"m": 4, "n": 5})], 160)
        wrong = workloads.verify_items([("ANDREWS1", {"n": -1})], 20)
        kinds = [workloads.Item("two words", lambda: [_on_lists().verdict], "EQUAL"),
                 workloads.Item("other", lambda: [point().verdict], "EQUAL"),
                 workloads.Item("two more", lambda: [_on_lists().verdict], "EQUAL")]
        return [("tiny", tiny, False), ("wrong", wrong, False), ("kinds", kinds, True)]

    monkeypatch.setattr(kernel_passes, "_runs", runs)
    building = ("terms", "steps", "evals")
    with kernel_passes.counted_kernels() as calls:
        _on_lists()
    with kernel_passes.counted_kernels() as points:
        point()
    assert {k: v for k, v in points.items() if k not in building} == {"point_values": 1}
    with kernel_passes.counted_kernels() as packed:
        _tiny()
    ops = packed["packed_ops"]
    assert ops > 0
    assert ({k: v for k, v in packed.items() if k not in building}
            == {"packed_values": 1, "packed_ops": ops})
    # the same sides are built on every route
    assert [calls[k] for k in building] == [packed[k] for k in building]
    assert kernel_passes.main([]) == 1           # n = -1 raises: a failed check
    head, tiny, wrong, kinds, two, other = capsys.readouterr().out.splitlines()
    assert head.split() == ["run", "checks", "failed", "mul_binomial", "div_binomial",
                            "binomial", "coeff_updates", "div_euler", "points", "packed",
                            "terms", "steps", "evals", "packed_ops"]
    built = [str(packed[k]) for k in building]
    assert tiny.split() == ["tiny", "1", "0"] + ["0"] * 6 + ["1"] + built + [str(ops)]
    assert wrong.split()[:3] == ["wrong", "1", "1"]
    # a run by kind: its total, then one indented row per first word of a
    # label, in order of first appearance
    mul, div = calls["mul_binomial"], calls["div_binomial"]
    row = [str(mul), str(div), str(mul + div), str(calls["coeff_updates"]), "1", "0", "0"]
    twice = [str(2 * int(c)) for c in row + built]
    each = [str(points[k]) for k in building]
    summed = [str(2 * packed[k] + points[k]) for k in building]
    # no check of the kinds run takes the packed route
    assert kinds.split() == ["kinds", "3", "0", *twice[:-5], "1", "0", *summed, "0"]
    assert two.startswith("  two ") and two.split() == ["two", "2", "0", *twice, "0"]
    assert other.startswith("  other ")
    assert other.split() == ["other", "1", "0"] + ["0"] * 5 + ["1", "0", *each, "0"]


def _term(shift, *factors):
    t = PochProduct().q(shift)
    for m, times in factors:
        t.factor(m, times)
    return t


def test_packed_ops_count_the_shift_masks_by_hand(kernel_passes):
    # lhs (1-q)(1-q^2)/(1-q^3) + q (1-q)^2/(1-q^3) against rhs 1/(1-q^3)
    # through q^10: L = (1-q^3)^-1, so the cleared lhs terms hold
    # (1-q)(1-q^2) and q (1-q)^2 and the rhs term nothing.  The lhs is
    # summed as one chain from its first term: (1-q)(1-q^2) starts it at
    # floor 0, and the second term joins it by the ratio (1-q^2)/(1-q): one
    # shift-subtract-mask for (1-q^2) and (10 // 1).bit_length() = 4
    # shift-add-masks for the division at reach 10 - 0 = 10.  Finishing the
    # chain applies U_last / L = (1-q)^2: two more.  The rhs's
    # U_last / L is 1, and applies nothing.
    sides = [([_term(0, (1, 1), (2, 1), (3, -1)), _term(1, (1, 2), (3, -1))], 0),
             ([_term(0, (3, -1))], 0)]
    _, low, clear = pochhammer.shared_unit(*(terms for terms, _ in sides))
    assert (low, clear) == (0, {3: -1})
    with kernel_passes.counted_kernels() as calls:
        pochhammer.packed_values(sides, 10, low, clear)
    assert calls == Counter(packed_values=1, packed_ops=1 + 4 + 2)
    assert kernel_passes.packed_ops({1: 1, 2: -1}, 9) == 4
    assert kernel_passes.packed_ops({1: -2, 4: 3, 11: -1}, 10) == 2 * 4 + 3


@pytest.mark.parametrize("run", [0, 1], ids=["sweep", "deep-window"])
def test_the_walk_order_does_not_change_a_residue(kernel_passes, run, monkeypatch):
    # every side of every packed_values call of the run, as main replays it,
    # summed by packed_sum in its order, first term to last, and reversed,
    # last to first: both walks are sums of the same units of Z / 2^(bK)
    monkeypatch.syspath_prepend(str(_PATH.parent.parent / "perfbench"))
    import workloads

    items = kernel_passes._runs(workloads)[run][1]
    real, sides, differ = pochhammer.packed_sum, [0], []

    def both(terms, trunc, clear, base, low, mask):
        forward = real(terms, trunc, clear, base, low, mask)
        sides[0] += 1
        if (forward - real(terms[::-1], trunc, clear, base, low, mask)) & mask:
            differ.append(terms)
        return forward

    monkeypatch.setattr(pochhammer, "packed_sum", both)
    with kernel_passes.counted_kernels() as calls:
        res = workloads.run_items(items)
    assert res.failed == 0 and not differ
    assert calls["packed_values"] > 80 and sides[0] >= 2 * calls["packed_values"]


def test_terms_count_the_certificate_family_terms(kernel_passes, monkeypatch):
    with kernel_passes.counted_kernels() as calls:
        assert telescoping.verify_sk_tk(1, 1, 1, 2, 2, 30).equal
    built = Counter()
    for module, name in ((framework, "_sum_terms"), (telescoping, "_sum_terms"),
                         (telescoping, "_terms")):
        def kept(*args, build=getattr(module, name), name=name):
            terms = build(*args)
            built[name] += len(terms)
            return terms
        monkeypatch.setattr(module, name, kept)
    telescoping.verify_sk_tk(1, 1, 1, 2, 2, 30)
    # cap = 1: S_k and T_k hold 3 and 2 terms at k = 0, 1 and none at the
    # sentinels k = 2, 3, past the support of their core B(k)
    assert built["_terms"] == 10
    assert calls["terms"] == built["_sum_terms"] + built["_terms"]
