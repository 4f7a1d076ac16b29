"""Command-line front end.

Subcommands mirror the library: single-identity verification over a
parameter grid, a full-registry sweep, Bailey pair/chain demonstrations,
the telescoping certificates, the q -> 1 binomial checks, and the
degenerate specialisation that refutes the two over-claimed bilateral
transformations.

Exit codes: every subcommand that runs checks ends in :func:`emit`, which
alone decides between 0 and 1: 0 when every report has the verdict that
counts as a pass (``EQUAL``; for ``counterexample``, ``MISMATCH``, the
reproduced disagreement), else 1.  Exit 2 is for configuration errors
(unknown identity, malformed ranges, violated preconditions, a grid above
``engine.MAX_GRID_POINTS``, a truncation order outside
1..``series.MAX_TRUNCATION``, an input above its ``MAX_*`` bound), for a
run that made no checks, so that a vacuous run never exits 0, and for a run
that failed partway (a check that raised, a pool worker that died).

JSON reports are streamed, a batch of reports at a time, so a run that fails
partway leaves a cut-short document on stdout; ``--out`` is written to a
temporary file that replaces the target only when the run ends.

JSON reports are deterministic: the same command line produces the same
bytes, so timing is reported as 0.0 there.  Only ``verify`` reports are
timed, and the text lines of ``verify`` and ``verify-all`` show it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress
from fractions import Fraction
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as _str
from typing import Iterable, Iterator

from .bailey import (
    CHAIN_TARGETS,
    MAX_BAILEY_N,
    chain_reproduce,
    lattice_seed_pair,
    unit_bilateral_x1,
    unit_bilateral_xq,
    unit_pair_x1,
    verify_pair,
)
from .binomial import (
    MAX_BINOMIAL_N,
    bino4_sides,
    bino5_sides,
    cor57_sides,
    cor58a_sides,
    cor58b_sides,
    divisibility_check,
    general_divisibility_check,
)
from .identities import (
    EngineError,
    UnknownIdentity,
    VerificationReport,
    get_record,
    list_identities,
    liu_closed_form,
    liu_counterexample,
    sweep_tasks,
    verify_grid,
    verify_points,
)
from .pochhammer import sum_terms
from .series import MAX_TRUNCATION, default_truncation, env_truncation
from .telescoping import verify_quartic_identity, verify_sk_tk, verify_telescoping

ARTIFACT_VERSION = 1


# ---------------------------------------------------------------------------
# small parsers
# ---------------------------------------------------------------------------


def parse_ranges(spec: str) -> dict:
    """``"l=0..3,m=0..3"`` -> {"l": (0, 3), "m": (0, 3)}.

    A bare ``name=4`` means the single value 4; a parameter may be named
    only once.
    """
    out = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, span = piece.partition("=")
        name = name.strip()
        span = span.strip()
        if not eq or not name or not span:
            raise ValueError(f"range piece {piece!r} is not name=lo..hi")
        if name in out:
            raise ValueError(f"range piece {piece!r} names parameter {name!r} again")
        try:
            if ".." in span:
                lo_s, _, hi_s = span.partition("..")
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(span)
        except ValueError:
            raise ValueError(f"range piece {piece!r} has a bound that is not an integer") from None
        out[name] = (lo, hi)
    if not out:
        raise ValueError("empty range specification")
    return out


def parse_int_list(spec: str, count: int | None, flag: str) -> list:
    """The comma-separated integers given to ``flag``: exactly ``count`` of
    them, or any number when ``count`` is None.  An empty entry is refused,
    so that no value lands on the wrong parameter."""
    pieces = spec.split(",")
    if not all(p.strip() for p in pieces):
        raise ValueError(f"{flag} has an empty entry: {spec!r}")
    try:
        values = [int(p) for p in pieces]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {spec!r}") from None
    if count is not None and len(values) != count:
        raise ValueError(f"{flag} needs exactly {count} integers, got {len(values)}")
    return values


def resolve_trunc(flag_value: int | None) -> int | None:
    """--trunc beats QRR_TRUNC beats each record's default (returned as None)."""
    if flag_value is None:
        return env_truncation()
    try:
        return default_truncation(flag_value)
    except ValueError:
        raise ValueError(f"--trunc must be in 1..{MAX_TRUNCATION}, got {flag_value}") from None


# ---------------------------------------------------------------------------
# report serialisation
# ---------------------------------------------------------------------------


# reports per write: one ``write`` per report costs more than encoding it
_BATCH_REPORTS = 256


def _scalar(v) -> str:
    if isinstance(v, str):
        return _str(v)
    return repr(v) if type(v) is int else json.dumps(v)


def _pairs_json(pairs, pad: str) -> str:
    """A list of two-element lists, as ``json.dumps(indent=2)`` writes it
    with its closing bracket at indent ``pad``."""
    if not pairs:
        return "[]"
    inner = pad + "  "
    return "[\n" + ",\n".join(
        f"{inner}[\n{inner}  {_scalar(a)},\n{inner}  {_scalar(b)}\n{inner}]"
        for a, b in pairs) + f"\n{pad}]"


def _window_pairs(win) -> list:
    return [(e, _frac_str(c)) for e, c in win]


def _frac_str(c) -> str:
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}"


def report_json(rep: VerificationReport) -> str:
    """One report as an element of the document's ``reports`` list: the
    bytes ``json.dumps(indent=2)`` writes for it at depth 2.  Parameters come
    in sorted order, windows carry exact rationals as "num/den" strings, and
    ``millis`` reads 0.0 so that the bytes are deterministic."""
    params = rep.params
    if params:
        params_json = "{\n" + ",\n".join(
            f"        {_str(k)}: {_scalar(params[k])}" for k in sorted(params)) + "\n      }"
    else:
        params_json = "{}"
    out = (f'    {{\n      "id": {_str(rep.ident)},\n      "params": {params_json},\n'
           f'      "trunc": {_scalar(rep.trunc)},\n      "verdict": {_str(rep.verdict)},\n')
    if rep.mismatch_index is not None:
        out += (f'      "mismatch_index": {_scalar(rep.mismatch_index)},\n'
                f'      "lhs_window": {_pairs_json(_window_pairs(rep.lhs_window), "      ")},\n'
                f'      "rhs_window": {_pairs_json(_window_pairs(rep.rhs_window), "      ")},\n')
    if rep.checks:
        out += f'      "checks": {_pairs_json(rep.checks, "      ")},\n'
    return out + '      "millis": 0.0\n    }'


def _write_json(fh, command: str, config: dict, reports: Iterator, tally: list) -> None:
    """Write the document ``json.dumps(doc, indent=2) + "\\n"`` would give for
    the header, every report of ``reports`` and the summary, a batch of
    reports at a time.  ``tally`` (total, passed) is read only once
    ``reports`` is exhausted."""
    head = json.dumps({"artifact_version": ARTIFACT_VERSION, "command": command,
                       "config": config}, indent=2)
    # the header object without its closing "\n}", continued by the list
    fh.write(head[:-2] + ',\n  "reports": [\n')
    sep, batch = "", []
    for rep in reports:
        batch.append(report_json(rep))
        if len(batch) == _BATCH_REPORTS:
            fh.write(sep + ",\n".join(batch))
            sep, batch = ",\n", []
    total, passed = tally
    fh.write((sep + ",\n".join(batch) if batch else "")
             + f'\n  ],\n  "summary": {{\n    "total": {total},\n'
             f'    "passed": {passed},\n    "failed": {total - passed}\n  }}\n}}\n')


@contextmanager
def _output(out_path: str | None):
    """stdout, or a temporary file beside the file ``out_path`` names,
    through any symlinks, that replaces that file, keeping its mode, only
    when the block ends without an error; on an error it is removed and the
    old file is left as it was.  A path that exists but is not a regular
    file, such as /dev/stdout or a pipe, is written in place."""
    if not out_path:
        yield sys.stdout
        return
    if os.path.exists(out_path) and not os.path.isfile(out_path):
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
        return
    real = os.path.realpath(out_path)
    old = os.path.isfile(real)
    if old:
        # fail, as writing in place would, on a file that may not be
        # written; opening it to append changes nothing
        open(real, "a").close()
    tmp = f"{real}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        if old:
            shutil.copymode(real, tmp)
        os.replace(tmp, real)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def emit(command: str, config: dict, reports: Iterable, fmt: str,
         out_path: str | None, text_lines: list, passing: str = "EQUAL") -> int:
    """Write the run's report and return its exit code: 0 when every report
    has the verdict ``passing``, else 1.

    ``reports`` is consumed once, as it is written: the JSON document goes
    out a batch of reports at a time, and ``text_lines`` is written after the
    last report, so a generator may append to it as it yields.  A run with
    no reports raises ValueError before anything is written, so that it
    exits 2."""
    stream = iter(reports)
    first = next(stream, None)
    if first is None:
        raise ValueError(f"{command}: no checks were run")
    tally = [0, 0]

    def counted():
        for rep in chain((first,), stream):
            tally[0] += 1
            tally[1] += rep.verdict == passing
            yield rep

    with _output(out_path) as fh:
        if fmt == "json":
            _write_json(fh, command, config, counted(), tally)
        else:
            for _ in counted():
                pass
            if text_lines:
                fh.write("\n".join(text_lines) + "\n")
    return 0 if tally[0] == tally[1] else 1


def _poly_str(offset: int, coeffs: list) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        e = offset + i
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def _fmt_params(params: dict) -> str:
    return " ".join(f"{k}={params[k]}" for k in sorted(params))


def _tally(reports: list) -> str:
    return f"{sum(1 for r in reports if r.equal)}/{len(reports)}"


def _summary(text_lines: list, line: str, reports: list) -> None:
    """Append a summary line, then the mismatch lines of each of its reports
    that is not EQUAL."""
    text_lines.append(line)
    for rep in reports:
        if not rep.equal:
            text_lines.extend(_mismatch_lines(rep))


def _mismatch_lines(rep: VerificationReport) -> list:
    lines = [
        f"  MISMATCH {rep.ident} "
        f"{_fmt_params(rep.params)}  first differing exponent {rep.mismatch_index}"
    ]
    if rep.lhs_window:
        lines.append("    lhs " + " ".join(f"q^{e}:{c}" for e, c in rep.lhs_window))
        lines.append("    rhs " + " ".join(f"q^{e}:{c}" for e, c in rep.rhs_window))
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_list(args) -> int:
    for ident in list_identities():
        rec = get_record(ident)
        if args.grids:
            cells = " ".join(f"{n}={lo}..{hi}" for n, lo, hi in rec.default_grid)
            tail = "  (counterexample target)" if rec.expect != "equal" else ""
            print(f"{ident:<12} {cells}  T={rec.default_trunc}{tail}")
        else:
            print(ident)
    return 0


def _grid_summary(ident: str, reports: list, text_lines: list) -> None:
    millis = sum(r.millis for r in reports)
    _summary(text_lines, f"{ident:<12} {_tally(reports)} equal   "
                         f"T={reports[0].trunc}   {millis:.1f} ms", reports)


def cmd_verify(args) -> int:
    ident = args.id.upper()
    rec = get_record(ident)          # unknown id -> exit 2 before any work
    ranges = parse_ranges(args.range) if args.range else None
    trunc = resolve_trunc(args.trunc)
    reports = verify_grid(rec.ident, ranges, trunc, jobs=args.jobs)
    text_lines: list = []
    _grid_summary(rec.ident, reports, text_lines)
    config = {
        "id": rec.ident,
        "ranges": {k: list(v) for k, v in ranges.items()} if ranges else None,
        "trunc": trunc,
        "jobs": args.jobs,
    }
    return emit("verify", config, reports, args.format, args.out, text_lines)


def _sweep_text(reports: Iterator, text_lines: list) -> Iterator:
    """Pass the sweep's reports through, appending each identity's summary
    line to ``text_lines`` once its group closes and the total line at the
    end; only the open group is held."""
    total, equal = 0, True
    for ident, group in groupby(reports, key=lambda r: r.ident):
        group = list(group)
        yield from group
        _grid_summary(ident, group, text_lines)
        total += len(group)
        equal = equal and all(r.equal for r in group)
    text_lines.append(f"total: {len(list_identities())} identities, {total} points, "
                      f"{'all equal' if equal else 'MISMATCHES FOUND'}")


def cmd_verify_all(args) -> int:
    trunc = resolve_trunc(args.trunc)
    points, tasks = sweep_tasks(trunc)
    reports = verify_points(tasks, points, args.jobs)
    text_lines: list = []
    if args.format == "text":
        reports = _sweep_text(reports, text_lines)
    config = {"trunc": trunc, "jobs": args.jobs}
    return emit("verify-all", config, reports, args.format, args.out, text_lines)


def _stock_pairs() -> list:
    return [unit_pair_x1(), unit_bilateral_x1(), unit_bilateral_xq(), lattice_seed_pair()]


def cmd_bailey(args) -> int:
    if args.exps is not None and not args.chain:
        raise ValueError("--exps needs --chain")
    trunc = resolve_trunc(args.trunc)
    if not 0 <= args.n <= MAX_BAILEY_N:
        raise ValueError(f"--n must be in 0..{MAX_BAILEY_N}, got {args.n}")
    if not 0 <= args.n_max <= MAX_BAILEY_N:
        raise ValueError(f"--n-max must be in 0..{MAX_BAILEY_N}, got {args.n_max}")
    reports: list = []
    text_lines: list = []
    if args.chain:
        target = args.chain.upper()
        exps = parse_int_list(args.exps, 4, "--exps") if args.exps else [1, 1, 1, 1]
        rep = chain_reproduce(target, args.n, *exps, trunc=trunc)
        reports.append(rep)
        _summary(text_lines, f"{rep.ident:<14} {_fmt_params(rep.params)}  "
                             f"T={rep.trunc}  {rep.verdict}", [rep])
    else:
        for pair in _stock_pairs():
            pair_reports = verify_pair(pair, n_max=args.n_max, trunc=trunc)
            reports.extend(pair_reports)
            _summary(text_lines, f"{pair.label:<18} relation holds for n=0..{args.n_max}: "
                                 f"{_tally(pair_reports)}", pair_reports)
        for target in CHAIN_TARGETS:
            chain = [chain_reproduce(target, n, trunc=trunc) for n in range(args.n + 1)]
            reports.extend(chain)
            _summary(text_lines, f"chain({target})  reproduced for "
                                 f"N=0..{args.n}: {_tally(chain)}", chain)
    config = {
        "chain": args.chain.upper() if args.chain else None,
        "n": args.n,
        "exps": args.exps,
        "n_max": args.n_max,
        "trunc": trunc,
    }
    return emit("bailey", config, reports, args.format, args.out, text_lines)


def cmd_telescope(args) -> int:
    if not args.params and not args.quartic:
        raise ValueError("telescope needs --params l,m,n,u,v (or --quartic)")
    trunc = resolve_trunc(args.trunc)
    reports: list = []
    text_lines: list = []
    if args.params:
        l, m, n, u, v = parse_int_list(args.params, 5, "--params")
        for rep in (verify_telescoping(l, m, n, u, v, trunc),
                    verify_sk_tk(l, m, n, u, v, trunc)):
            reports.append(rep)
            text_lines.append(f"{rep.ident}  {_fmt_params(rep.params)}  {rep.verdict}")
            for name, verdict in rep.checks:
                text_lines.append(f"    {name:<24} {verdict}")
    if args.quartic:
        rep = _verdict_report("QUARTIC", {}, verify_quartic_identity())
        reports.append(rep)
        text_lines.append(f"quartic polynomial identity on the 5^4 grid: {rep.verdict}")
    config = {"params": args.params, "quartic": bool(args.quartic), "trunc": trunc}
    return emit("telescope", config, reports, args.format, args.out, text_lines)


def _verdict_report(ident: str, params: dict, ok: bool) -> VerificationReport:
    """The report of a check that yields only a truth value."""
    return VerificationReport(ident, params, 0, "EQUAL" if ok else "MISMATCH")


def _sides_agree(sides: tuple) -> bool:
    return len(set(sides)) == 1


# The checks of `qrr binomial` by flag, in report order.  A sweep flag
# (parameter names None) runs each of its (report id, check of n) pairs for
# n = 0..--n in turn.  A point flag takes one integer per parameter name and
# compares the two sides that its function returns.
_BINOMIAL_CHECKS = {
    "bino5": ("fifth-power alternating sums", None,
              (("BINO5", lambda n: _sides_agree(bino5_sides(n))),)),
    "bino4": ("fourth-power alternating sums", None,
              (("BINO4", lambda n: _sides_agree(bino4_sides(n))),)),
    "divisibility": ("central-binomial divisibility, powers 4 and 5", None,
                     (("DIV4", lambda n: divisibility_check(n, 4)),
                      ("DIV5", lambda n: divisibility_check(n, 5)))),
    "cor57": ("five-parameter factorial sum", "l,m,n,u,v", ("COR57", cor57_sides)),
    "cor58a": ("four-parameter factorial sum", "l,m,n,u", ("COR58A", cor58a_sides)),
    "cor58b": ("four-parameter factorial sum", "m,n,u,v", ("COR58B", cor58b_sides)),
}


def cmd_binomial(args) -> int:
    flags = [*_BINOMIAL_CHECKS, "general"]
    if not any(getattr(args, flag) for flag in flags):
        raise ValueError("binomial needs at least one of "
                         + "/".join(f"--{flag}" for flag in flags))
    if not 0 <= args.n <= MAX_BINOMIAL_N:
        raise ValueError(f"--n must be in 0..{MAX_BINOMIAL_N}, got {args.n}")
    reports: list = []
    text_lines: list = []
    config: dict = {}
    for flag, (what, names, checks) in _BINOMIAL_CHECKS.items():
        if names is not None:
            # the config lists --n after the sweep flags it bounds
            config.setdefault("n", args.n)
        spec = config[flag] = getattr(args, flag)
        if not spec:
            continue
        if names is None:
            reports += [_verdict_report(ident, {"n": n}, check(n))
                        for ident, check in checks for n in range(args.n + 1)]
            text_lines.append(f"{what}, n=0..{args.n}")
        else:
            keys = names.split(",")
            values = parse_int_list(spec, len(keys), f"--{flag}")
            ident, sides = checks
            lhs, rhs = sides(*values)
            reports.append(_verdict_report(ident, dict(zip(keys, values)), lhs == rhs))
            text_lines.append(f"{what} at {spec}: {lhs} vs {rhs}")
    config["general"] = args.general
    if args.general:
        entries = parse_int_list(args.general, None, "--general")
        ok = general_divisibility_check(entries)
        reports.append(_verdict_report(
            "GENERAL", {f"n{i}": e for i, e in enumerate(entries)}, ok))
        text_lines.append(f"cyclic alternating sum at {entries}: "
                          f"{'nonnegative and divisible' if ok else 'FAILED'}")
    verdict = "all hold" if all(r.equal for r in reports) else "FAILURES"
    text_lines.append(f"{_tally(reports)} checks hold ({verdict})")
    return emit("binomial", config, reports, args.format, args.out, text_lines)


def cmd_counterexample(args) -> int:
    which = args.which.upper()
    trunc = resolve_trunc(args.trunc)
    rep = liu_counterexample(which, args.a_exp, trunc)
    off, coeffs = sum_terms([liu_closed_form(which, args.a_exp)], rep.trunc)
    text_lines = [
        f"{which} at a = q^{args.a_exp} (T={rep.trunc})",
        f"LHS = {_poly_str(off, coeffs)}",
        "RHS = 0",
    ]
    if rep.verdict == "MISMATCH":
        text_lines.append(
            f"first mismatch at q^{rep.mismatch_index}: refutation reproduced")
    else:
        text_lines.append("sides agree -- refutation NOT reproduced")
    config = {"which": which, "a_exp": args.a_exp, "trunc": trunc}
    return emit("counterexample", config, [rep], args.format, args.out, text_lines,
                passing="MISMATCH")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, jobs: bool = False) -> None:
    sub.add_argument("--trunc", type=int, default=None,
                     help="truncation order T (default: per-record, or QRR_TRUNC)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", default=None, help="write the report to this file")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes for grid fan-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrr",
        description="Exact verification of finite Rogers-Ramanujan identities.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("list", help="registered identity ids")
    p.add_argument("--grids", action="store_true",
                   help="also show default grids and truncation orders")
    p.set_defaults(func=cmd_list)

    p = subs.add_parser("verify", help="verify one identity over a grid")
    p.add_argument("--id", required=True, help="identity id (case-insensitive)")
    p.add_argument("--range", default=None,
                   help="comma-separated name=lo..hi (default: the record's grid)")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("verify-all", help="sweep every identity on its default grid")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_verify_all)

    p = subs.add_parser("bailey", help="pair relations and chain reconstructions")
    p.add_argument("--chain", choices=[t.lower() for t in CHAIN_TARGETS] + list(CHAIN_TARGETS),
                   default=None, help="rebuild one target identity from a unit pair")
    p.add_argument("--n", type=int, default=2,
                   help="chain depth N (with --chain: exactly N; else 0..N)")
    p.add_argument("--exps", default=None,
                   help="with --chain: the four parameter exponents b,c,d,e")
    p.add_argument("--n-max", type=int, default=8,
                   help="check the defining relation for n=0..n_max")
    _add_common(p)
    p.set_defaults(func=cmd_bailey)

    p = subs.add_parser("telescope", help="telescoping and termwise certificates")
    p.add_argument("--params", default=None, help="five integers l,m,n,u,v")
    p.add_argument("--quartic", action="store_true",
                   help="also check the quartic polynomial identity")
    _add_common(p)
    p.set_defaults(func=cmd_telescope)

    p = subs.add_parser("binomial", help="q -> 1 binomial consequences")
    for flag, (what, names, _) in _BINOMIAL_CHECKS.items():
        if names is None:
            p.add_argument(f"--{flag}", action="store_true", help=what)
        else:
            p.add_argument(f"--{flag}", default=None, help=f"{what} at integers {names}")
    p.add_argument("--n", type=int, default=12, help="upper bound n of the sweeps")
    p.add_argument("--general", default=None, help="cycle entries n0,n1,...")
    _add_common(p)
    p.set_defaults(func=cmd_binomial)

    p = subs.add_parser("counterexample",
                        help="reproduce the degenerate refutation")
    p.add_argument("--which", required=True, help="liu1 or liu2 (case-insensitive)")
    p.add_argument("--a-exp", type=int, default=2,
                   help="first parameter is q^a_exp (a_exp >= 1)")
    _add_common(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownIdentity, EngineError, ValueError, OSError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
