"""``tools/packed_depth.py``: its row on one tiny packed check and one check
decided term by term, instead of the deep checks it is run on."""

import importlib.util
import sys
from pathlib import Path

import pytest

from qrr import pochhammer
from qrr.identities import REGISTRY
from qrr.identities.framework import side_terms

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def packed_depth():
    spec = importlib.util.spec_from_file_location("packed_depth", _TOOLS / "packed_depth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_main_prints_b_bits_and_packed_ops(packed_depth, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(packed_depth, "CHECKS", (("EULERMN1", {"m": 4, "n": 5}, 160),
                                                 ("ANDREWS1", {"n": 2}, 40)))
    # the tiny check's b, K, residue bits and packed operations, from one
    # packed_values call on its sides
    env = {"m": 4, "n": 5}
    sides = [side_terms(REGISTRY["EULERMN1"], side, env, 160) for side in ("lhs", "rhs")]
    _, low, clear = pochhammer.shared_unit(*(terms for terms, _ in sides))
    with packed_depth.kernel_passes.counted_kernels() as calls:
        base, residues = pochhammer.packed_values(sides, 160, low, clear)
    bits = max(v.bit_length() for v in residues)
    assert calls["packed_ops"] > 0 and bits > base * 100
    assert packed_depth.main([]) == 0
    head, tiny, point = capsys.readouterr().out.splitlines()
    assert head.split() == ["check", "T", "verdict", "b", "K", "bits", "packed_ops",
                            "cpu_s"]
    assert tiny.split()[:-1] == ["EULERMN1", "m=4,n=5", "160", "EQUAL", str(base),
                                 str(161 - low), str(bits), str(calls["packed_ops"])]
    # B + 2 <= T: decided term by term, with no packed operation
    assert point.split()[:-1] == ["ANDREWS1", "n=2", "40", "EQUAL", "-", "-", "-", "0"]
