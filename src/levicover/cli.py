"""Command-line entry points.

JSON goes to stdout, human-readable summaries to stderr, so output can be
piped into tooling without scraping prose. Exit codes are a stable
contract: 0 pass, 1 check failed, 2 usage or precondition error,
3 enumeration or sampling budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
import time
from pathlib import Path

from . import covering, levi
from .graphs import GraphError, members, parse_graph, write_graph
from .independence import CHECKS, BudgetExceededError, evaluate_bounds

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit_json(doc: dict):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _summary(msg: str):
    print(msg, file=sys.stderr)


def _write(text: str, out):
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


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
        doc["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    return doc


def cmd_gen(args) -> int:
    g = levi.gen_levi(args.q)
    _write(write_graph(g), args.out)
    print(f"{g.n} {g.m} {g.side_p_size}",
          file=sys.stdout if args.out else sys.stderr)
    return EXIT_PASS


def cmd_verify(args) -> int:
    started = time.monotonic()
    names = args.checks.split(",")
    for name in names:
        if name not in CHECKS:
            raise GraphError(f"unknown check name: {name}")
    g = (parse_graph(Path(args.infile).read_bytes()) if args.infile
         else levi.gen_levi(args.q))
    checks = [_check(name, *CHECKS[name](g, k=args.k, samples=args.samples,
                                         seed=args.seed, budget=args.budget))
              for name in names]
    doc = _run_report("verify", {"q": args.q, "in": args.infile,
                                 "checks": args.checks, "k": args.k},
                      checks, started, args.no_timestamp)
    _emit_json(doc)
    _summary(f"verify: {doc['outcome']} "
             f"({sum(c['pass'] for c in checks)}/{len(checks)} checks ok)")
    return EXIT_PASS if doc["outcome"] == "pass" else EXIT_FAIL


def cmd_bounds(args) -> int:
    g = levi.gen_levi(args.q) if args.exact else None
    rep = evaluate_bounds(args.q, args.k, g=g, budget=args.budget)
    frac = rep.balanced_count_lower_bound
    doc = dataclasses.asdict(rep)
    doc["balanced_count_lower_bound"] = f"{frac.numerator}/{frac.denominator}"
    doc["balanced_count_lower_bound_float"] = float(frac)
    _emit_json(doc)
    _summary(f"bounds: q={rep.q} k={rep.k} n={rep.n} "
             f"family_size_lower_bound={rep.family_size_lower_bound:.6g}")
    return EXIT_PASS


def cmd_cover_build(args) -> int:
    g = parse_graph(Path(args.infile).read_bytes())
    fam = covering.build_family_mc(g, args.k, args.delta, args.seed,
                                   budget=args.budget)
    _write(covering.dump_family(fam), args.out)
    _summary(f"cover build: {len(fam.sets)} distinct sets from t={fam.t} "
             f"samples (d={fam.degeneracy}, p={fam.p})")
    return EXIT_PASS


def cmd_cover_verify(args) -> int:
    started = time.monotonic()
    g = parse_graph(Path(args.infile).read_bytes())
    fam = covering.load_family(Path(args.family).read_text(encoding="utf-8"),
                               g)
    ok, witness = covering.verify_family(g, args.k, fam.sets,
                                         budget=args.budget)
    checks = [_check("coverage", True, ok, ok)]
    doc = _run_report("cover-verify",
                      {"in": args.infile, "family": args.family,
                       "k": args.k}, checks, started, args.no_timestamp)
    if witness is not None:
        doc["parameters"]["witness"] = members(witness)
    _emit_json(doc)
    _summary("cover verify: " + ("covered" if ok
                                 else f"uncovered witness {members(witness)}"))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_cover_greedy(args) -> int:
    g = parse_graph(Path(args.infile).read_bytes())
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

    p = sub.add_parser("gen", help="generate an incidence graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run structural checks")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--q", type=int)
    src.add_argument("--in", dest="infile")
    p.add_argument("--checks", required=True,
                   help="comma list from: " + ",".join(CHECKS))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=_uint, default=0)
    p.add_argument("--budget", type=_uint, default=covering.DEFAULT_BUDGET)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="evaluate the covering bound chain")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=_uint, default=covering.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cover", help="covering family commands")
    csub = p.add_subparsers(dest="cover_command", required=True)

    c = csub.add_parser("build")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--seed", type=_uint, required=True)
    c.add_argument("--out")
    c.add_argument("--budget", type=_uint, default=covering.DEFAULT_BUDGET)
    c.set_defaults(func=cmd_cover_build)

    c = csub.add_parser("verify")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--family", required=True)
    c.add_argument("--budget", type=_uint, default=covering.DEFAULT_BUDGET)
    c.add_argument("--no-timestamp", action="store_true")
    c.set_defaults(func=cmd_cover_verify)

    c = csub.add_parser("greedy")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--out")
    c.add_argument("--budget", type=_uint, default=covering.DEFAULT_BUDGET)
    c.set_defaults(func=cmd_cover_greedy)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _summary(f"error: {exc}")
        return EXIT_BUDGET
    except (GraphError, OSError, json.JSONDecodeError, KeyError) as exc:
        _summary(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
