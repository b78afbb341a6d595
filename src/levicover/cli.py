"""Command-line entry points.

JSON goes to stdout, human-readable summaries to stderr, so output can be
piped into tooling without scraping prose. Every JSON report is checked
against its schema before it is written. Exit codes are a stable
contract: 0 pass, 1 check failed, 2 usage or precondition error,
3 budget exceeded.

Each command imports the library modules it runs, and no others, when it
runs: ``gen`` loads levi, ``verify`` and ``bounds`` load independence,
levi and schemas, and ``cover`` loads covering, which needs graphs alone
(``cover verify`` also schemas), so a fresh process pays for only one
command's imports.
"""

from __future__ import annotations

import argparse
import sys
import time

from .graphs import (DEFAULT_BUDGET, BudgetExceededError, GraphError,
                     members, parse_graph, write_graph)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit_json(doc: dict, schema: dict):
    """Write doc to stdout as JSON once it passes schemas.validate."""
    import json
    from .schemas import validate
    validate(doc, schema)
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _summary(msg: str):
    print(msg, file=sys.stderr)


def _read(path: str) -> bytes:
    """The bytes of the file path; open, not pathlib, which would load
    urllib.parse and ipaddress."""
    with open(path, "rb") as f:
        return f.read()


def _write(text: str, out):
    """Write text to the file out, or to stdout when out is not given, in
    slices of 64 Ki characters, so that no encoded copy of the whole text
    is held."""
    f = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        for start in range(0, len(text), 1 << 16):
            f.write(text[start:start + (1 << 16)])
    finally:
        if out:
            f.close()


def _check(name, expected, observed, passed, margin=None) -> dict:
    return {"name": name, "expected": expected, "observed": observed,
            "margin": margin, "pass": bool(passed)}


def _run_report(command: str, parameters: dict, checks: list[dict],
                started: float, no_timestamp: bool) -> dict:
    doc = {
        "command": command,
        "parameters": parameters,
        "outcome": "pass" if all(c["pass"] for c in checks) else "fail",
        "checks": checks,
    }
    if not no_timestamp:
        doc["duration_s"] = time.monotonic() - started
        doc["timestamp"] = _utc_timestamp(time.time_ns())
    return doc


def _utc_timestamp(ns: int) -> str:
    """The instant ``ns`` nanoseconds after the epoch as datetime's
    isoformat() writes it in UTC: to the microsecond, which is left out
    when it is 0, with the offset +00:00. Built from time alone, so no
    command imports datetime."""
    seconds, micro = divmod(ns // 1000, 10 ** 6)
    t = time.gmtime(seconds)
    text = (f"{t.tm_year:04d}-{t.tm_mon:02d}-{t.tm_mday:02d}T"
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}")
    return f"{text}.{micro:06d}+00:00" if micro else f"{text}+00:00"


def cmd_gen(args) -> int:
    from . import levi
    g = levi.gen_levi(args.q, args.budget)
    _write(write_graph(g), args.out)
    print(f"{g.n} {g.m} {g.side_p_size}",
          file=sys.stdout if args.out else sys.stderr)
    return EXIT_PASS


def cmd_verify(args) -> int:
    from . import independence, levi, schemas
    started = time.monotonic()
    names, options = independence.select_checks(
        args.checks, k=args.k, samples=args.samples, seed=args.seed)
    g = (parse_graph(_read(args.infile), args.budget)
         if args.infile else levi.gen_levi(args.q, args.budget))
    results = independence.run_checks(g, names, options, args.budget)
    checks = [_check(name, *result) for name, result in zip(names, results)]
    doc = _run_report("verify", {"q": args.q, "in": args.infile,
                                 "checks": args.checks, **options},
                      checks, started, args.no_timestamp)
    _emit_json(doc, schemas.RUN_REPORT_SCHEMA)
    _summary(f"verify: {doc['outcome']} "
             f"({sum(c['pass'] for c in checks)}/{len(checks)} checks ok)")
    return EXIT_PASS if doc["outcome"] == "pass" else EXIT_FAIL


def cmd_bounds(args) -> int:
    from . import independence, schemas
    rep = independence.evaluate_bounds(args.q, args.k, exact=args.exact,
                                       budget=args.budget)
    num, den = bound = rep.balanced_count_lower_bound
    doc = rep._asdict()
    doc["balanced_count_lower_bound"] = f"{num}/{den}"
    doc["balanced_count_lower_bound_float"] = (
        independence.balanced_bound_float(rep.n, rep.k, bound))
    _emit_json(doc, schemas.BOUNDS_REPORT_SCHEMA)
    _summary(f"bounds: q={rep.q} k={rep.k} n={rep.n} "
             f"family_size_lower_bound={rep.family_size_lower_bound:.6g}")
    return EXIT_PASS


def cmd_cover_build(args) -> int:
    from . import covering
    g = parse_graph(_read(args.infile), args.budget)
    fam = covering.build_family_mc(g, args.k, args.delta, args.seed,
                                   budget=args.budget)
    _write(covering.dump_family(fam), args.out)
    _summary(f"cover build: {len(fam.sets)} distinct sets from t={fam.t} "
             f"samples (d={fam.degeneracy}, "
             f"p={covering._p_text(fam.degeneracy)})")
    return EXIT_PASS


def cmd_cover_verify(args) -> int:
    from . import covering, schemas
    started = time.monotonic()
    g = parse_graph(_read(args.infile), args.budget)
    fam = covering.load_family(_read(args.family), g, args.budget)
    ok, witness = covering.verify_family(g, args.k, fam.sets,
                                         budget=args.budget)
    checks = [_check("coverage", True, ok, ok)]
    doc = _run_report("cover-verify",
                      {"in": args.infile, "family": args.family,
                       "k": args.k}, checks, started, args.no_timestamp)
    if witness is not None:
        doc["parameters"]["witness"] = members(witness)
    _emit_json(doc, schemas.RUN_REPORT_SCHEMA)
    _summary("cover verify: " + ("covered" if ok
                                 else f"uncovered witness {members(witness)}"))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_cover_greedy(args) -> int:
    from . import covering
    g = parse_graph(_read(args.infile), args.budget)
    fam = covering.greedy_family(g, args.k, budget=args.budget)
    _write(covering.dump_family(fam), args.out)
    _summary(f"cover greedy: {len(fam.sets)} sets")
    return EXIT_PASS


def _uint(text: str) -> int:
    """argparse type of --seed and --budget: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levicover",
        description="Projective-plane incidence graphs and independence "
                    "covering families.")
    sub = ap.add_subparsers(dest="command", required=True)
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=_uint,
                          default=DEFAULT_BUDGET)

    p = sub.add_parser("gen", parents=[budgeted],
                       help="generate an incidence graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", parents=[budgeted],
                       help="run structural checks")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--q", type=int)
    src.add_argument("--in", dest="infile")
    p.add_argument("--checks", required=True,
                   help="comma list of check names, run in that order")
    # None when not given: select_checks refuses an option that no named
    # check reads, and fills in the default of one that is not given
    p.add_argument("--k", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=_uint)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", parents=[budgeted],
                       help="evaluate the covering bound chain")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cover", help="covering family commands")
    csub = p.add_subparsers(dest="cover_command", required=True)

    c = csub.add_parser("build", parents=[budgeted])
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--seed", type=_uint, required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_cover_build)

    c = csub.add_parser("verify", parents=[budgeted])
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--family", required=True)
    c.add_argument("--no-timestamp", action="store_true")
    c.set_defaults(func=cmd_cover_verify)

    c = csub.add_parser("greedy", parents=[budgeted])
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(func=cmd_cover_greedy)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _summary(f"error: {exc}")
        return EXIT_BUDGET
    except (GraphError, OSError) as exc:
        _summary(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
