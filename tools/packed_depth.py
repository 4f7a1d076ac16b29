"""The packed route at depth: the width and the work of a few deep checks.

Verifies each check of CHECKS through ``engine.verify``, serially in this
process, and prints for each the verdict, b (the digit width in bits of
``packed_values``), K = T + 1 - s_min (its number of digits), the bit length
of the widest residue, and ``packed_ops``, the shift-subtract-masks and
shift-add-masks of ``pochhammer._packed_apply``, as
``tools/kernel_passes.py`` counts them.  The counts are deterministic, so one
run of each side of a change compares the work they do.  ``cpu_s`` is the
process time of the check, one sample, and shows no more than where the
time goes.  A check that is not decided on the packed route prints "-" for
its b, K and bits.

The checks are EULERMN1 (6, 6), EULERN1 n = 8 and ANDREWS1 n = 200 at
T = 2,000, and EULERMN1 (3, 3) at T = 10,000; the fixed workloads never
reach this depth.  The program comes from ``src/`` of the checkout at ROOT
(by default this repository); nothing is written there.  The exit code is 1
if any check does not read EQUAL.  Run from anywhere:

    python3 tools/packed_depth.py [ROOT]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKS = (
    ("EULERMN1", {"m": 6, "n": 6}, 2000),
    ("EULERN1", {"n": 8}, 2000),
    ("ANDREWS1", {"n": 200}, 2000),
    ("EULERMN1", {"m": 3, "n": 3}, 10_000),
)


# tools/kernel_passes.py, loaded from beside this file for its counters
_SPEC = importlib.util.spec_from_file_location(
    "kernel_passes", Path(__file__).resolve().with_name("kernel_passes.py"))
kernel_passes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(kernel_passes)


def measure(ident: str, params: dict, trunc: int) -> dict:
    """The verdict, b, K, residue bits, packed_ops and cpu_s of one check.
    b, K and bits are None where no ``packed_values`` call was made."""
    from qrr.identities import engine, framework

    packed = []
    with kernel_passes.counted_kernels() as calls:
        real = framework.packed_values

        def recorded(sides, depth, low, *rest):
            out = real(sides, depth, low, *rest)
            packed.append((out[0], depth + 1 - low, max(v.bit_length() for v in out[1])))
            return out

        framework.packed_values = recorded
        try:
            start = time.process_time()
            verdict = engine.verify(ident, params, trunc).verdict
            cpu = time.process_time() - start
        finally:
            framework.packed_values = real
    base, width, bits = packed[-1] if packed else (None, None, None)
    return {"verdict": verdict, "b": base, "K": width, "bits": bits,
            "packed_ops": calls["packed_ops"], "cpu_s": cpu}


def _cell(value) -> str:
    return "-" if value is None else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=str(ROOT),
                        help="the checkout whose program is run")
    root = Path(parser.parse_args(argv).root).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src")]
    print(f"{'check':<28}{'T':>7}{'verdict':>10}{'b':>6}{'K':>7}{'bits':>10}"
          f"{'packed_ops':>12}{'cpu_s':>8}")
    failed = 0
    for ident, params, trunc in CHECKS:
        row = measure(ident, params, trunc)
        failed += row["verdict"] != "EQUAL"
        label = f"{ident} " + ",".join(f"{k}={v}" for k, v in params.items())
        print(f"{label:<28}{trunc:>7}{row['verdict']:>10}{_cell(row['b']):>6}"
              f"{_cell(row['K']):>7}{_cell(row['bits']):>10}{row['packed_ops']:>12}"
              f"{row['cpu_s']:>8.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
