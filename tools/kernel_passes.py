"""Count the exact kernel calls and the term-building work of three
benchmark runs.

Prints how many times ``mul_binomial``, ``div_binomial`` and ``div_euler``
are called while three runs execute, serially in this process, and the
``coeff_updates`` of the binomial passes: the buffer entries each pass
visits, ``len(buf) - lo - m`` for a pass by (1 - q^m) over a buffer whose
first ``lo`` entries are zero (see :func:`coeff_updates`).  A pass count
alone does not weigh the length of the buffer or how much of it a pass
skips.  The ``points`` column counts the calls of ``point_values``, one per
check asked to be decided term by term at an integer point, and the
``packed`` column those of ``packed_values``, one per check asked to be
decided on one packed integer; neither makes a kernel pass.  Three more
columns count the work of building the terms: ``terms``, the terms that
``framework._sum_terms`` keeps plus the certificate family terms that
``telescoping._terms`` builds, ``steps``, the calls of
``PochProduct.step``, and ``evals``, the calls of the builtin ``eval`` made
by a ``qrr`` module, each one evaluation of a compiled row of affine
exponents.  The last column, ``packed_ops``, counts the big-integer
operations of the packed route: the shift-subtract-masks and
shift-add-masks that ``pochhammer._packed_apply`` makes (see
:func:`packed_ops`).  The runs are:

* the registry sweep's points, every default-grid point of every record,
  each verified through ``engine.verify`` at the sweep's T (40), with no
  command line and no pool;
* the deep-window workload's checks for seed 1;
* the certificates workload's checks for seed 1, with one indented row
  under it for each kind of item (the first word of its label).

The inputs come from ``perfbench/workloads.py`` of the checkout at ROOT (by
default this repository) and the program from its ``src/``; nothing is
written there.  A kernel, ``point_values``, ``packed_values``,
``_sum_terms`` and ``telescoping._terms`` are counted at every ``qrr``
module's binding of them, so a call made through another module's import
counts too; a checkout without one of them, or without
``pochhammer._packed_apply``, reads 0 in its column.
``eval`` is counted by a module global of that name in every ``qrr``
module, which the builtin lookup finds first.  The counts are
deterministic, so one run of each side of a change compares the work they
do.  The exit code is 1 if any check got the wrong verdict.  Run from
anywhere:

    python3 tools/kernel_passes.py [ROOT]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("mul_binomial", "div_binomial", "div_euler", "point_values", "packed_values")


def coeff_updates(buf: list, m: int, lo: int = 0) -> int:
    """The entries that ``mul_binomial(buf, m, lo)`` or
    ``div_binomial(buf, m, lo)`` visits: lo + m .. len(buf) - 1."""
    return max(0, len(buf) - lo - m)


def packed_ops(powers: dict, reach: int) -> int:
    """The shift-subtract-masks and shift-add-masks that
    ``pochhammer._packed_apply(x, powers, reach, base, mask)`` makes: for each
    factor (1-q^m) with 0 < m <= reach, one per multiplication by it and
    (reach // m).bit_length() per division by it."""
    return sum(t if t > 0 else -t * (reach // m).bit_length()
               for m, t in powers.items() if 0 < m <= reach)


@contextlib.contextmanager
def counted_kernels():
    """Count, while active, the calls of each kernel and evaluator in
    KERNELS through every binding of it in a loaded ``qrr`` module, and
    under ``"coeff_updates"`` the entries the binomial passes visit; under
    ``"terms"`` the terms ``_sum_terms`` and ``telescoping._terms`` hand
    back through every binding, under ``"steps"`` the calls of
    ``PochProduct.step``, under ``"evals"`` the ``eval`` calls of every
    ``qrr`` module and under ``"packed_ops"`` the :func:`packed_ops` of
    every ``pochhammer._packed_apply`` call.  Yields the Counter it fills
    and puts every binding back on exit."""
    from qrr import pochhammer, telescoping
    from qrr.identities import framework

    calls = Counter()

    def kernel_counter(name, kernel):
        def counted(*args):
            calls[name] += 1
            if name.endswith("_binomial"):
                calls["coeff_updates"] += coeff_updates(*args)
            return kernel(*args)
        return counted

    def terms_counter(build):
        def counted(*args, **kwargs):
            terms = build(*args, **kwargs)
            calls["terms"] += len(terms)
            return terms
        return counted

    def counted_eval(*args):
        calls["evals"] += 1
        return eval(*args)

    originals = {name: getattr(pochhammer, name) for name in KERNELS
                 if hasattr(pochhammer, name)}
    wrappers = {name: kernel_counter(name, f) for name, f in originals.items()}
    for module, name in ((framework, "_sum_terms"), (telescoping, "_terms")):
        if hasattr(module, name):
            originals[name] = getattr(module, name)
            wrappers[name] = terms_counter(originals[name])
    patched, added = [], []
    for module in [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qrr" or name.startswith("qrr."))]:
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                patched.append((module, name, original))
                setattr(module, name, wrappers[name])
        if "eval" not in vars(module):
            added.append(module)
            module.eval = counted_eval
    step = pochhammer.PochProduct.step

    def counted_step(self, *args):
        calls["steps"] += 1
        return step(self, *args)

    pochhammer.PochProduct.step = counted_step
    apply = getattr(pochhammer, "_packed_apply", None)
    if apply is not None:
        def counted_apply(x, powers, reach, *rest):
            calls["packed_ops"] += packed_ops(powers, reach)
            return apply(x, powers, reach, *rest)

        pochhammer._packed_apply = counted_apply
    try:
        yield calls
    finally:
        pochhammer.PochProduct.step = step
        if apply is not None:
            pochhammer._packed_apply = apply
        for module in added:
            del module.eval
        for module, name, original in patched:
            setattr(module, name, original)


def _runs(workloads) -> list[tuple[str, list, bool]]:
    """(label, checks, by kind) of the three runs, built from ``workloads``."""
    trunc = workloads.REGISTRY_T
    return [
        (f"sweep T={trunc}", workloads.verify_items(workloads.registry_points(), trunc),
         False),
        ("deep-window seed 1", workloads.build_inputs("deep-window", 1)[0], False),
        ("certificates seed 1", workloads.build_inputs("certificates", 1)[0], True),
    ]


def _count(workloads, items: list) -> tuple[int, int, Counter]:
    """(checks, failed, kernel counts) of one run of ``items``."""
    with counted_kernels() as calls:
        res = workloads.run_items(items)
    return res.attempted, res.failed, calls


def _row(label: str, attempted: int, failed: int, calls: Counter) -> str:
    mul, div = calls["mul_binomial"], calls["div_binomial"]
    return (f"{label:<22}{attempted:>8}{failed:>8}{mul:>14}{div:>14}"
            f"{mul + div:>10}{calls['coeff_updates']:>15}{calls['div_euler']:>11}"
            f"{calls['point_values']:>8}{calls['packed_values']:>8}"
            f"{calls['terms']:>10}{calls['steps']:>10}{calls['evals']:>10}"
            f"{calls['packed_ops']:>12}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=str(ROOT),
                        help="the checkout whose program and inputs are run")
    root = Path(parser.parse_args(argv).root).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    print(f"{'run':<22}{'checks':>8}{'failed':>8}{'mul_binomial':>14}"
          f"{'div_binomial':>14}{'binomial':>10}{'coeff_updates':>15}{'div_euler':>11}"
          f"{'points':>8}{'packed':>8}{'terms':>10}{'steps':>10}{'evals':>10}"
          f"{'packed_ops':>12}")
    failed = 0
    for label, items, by_kind in _runs(workloads):
        # no check caches a sum, so running the items kind by kind does the
        # work of running them in order
        groups = {}
        for item in items:
            groups.setdefault(item.label.split()[0] if by_kind else label, []).append(item)
        rows = {kind: _count(workloads, group) for kind, group in groups.items()}
        checks, run_failed = (sum(row[i] for row in rows.values()) for i in (0, 1))
        failed += run_failed
        print(_row(label, checks, run_failed, sum((row[2] for row in rows.values()), Counter())))
        if by_kind:
            for kind, row in rows.items():
                print(_row(f"  {kind}", *row))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
