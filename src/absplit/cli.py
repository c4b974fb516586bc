"""Command-line front end.

    absplit classify "Z/4 x Z/3"      fully invariant lattice with split flags
    absplit verify --max-order 24     run the verification suite
    absplit examples                  reproduce the built-in worked examples

Exit codes: 0 success, 1 verification failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .groups import GroupSpecError, format_group, parse_group_spec
from .harness import CHECKS, classify_rows, run_verification, worked_examples_report
from .splitness import Caps


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line to stderr and exit with code 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _at_least(lo: int, kind: type = int):
    """argparse type: a number of the given kind that is >= lo."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        if not value >= lo:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return value

    return parse


def _caps_from_args(args) -> Caps:
    return Caps(
        hom_budget=args.budget_hom,
        subgroup_cap=args.cap_subgroups,
        endring_cap=args.cap_endring,
        entry_bound=args.entry_bound,
        per_group_timeout_s=args.timeout,
    )


def _add_caps_flags(p: argparse.ArgumentParser):
    p.add_argument("--budget-hom", type=_at_least(0), default=Caps().hom_budget,
                   help="largest Hom set brute force will enumerate")
    p.add_argument("--cap-subgroups", type=_at_least(0), default=Caps().subgroup_cap,
                   help="largest group order for subgroup enumeration")
    p.add_argument("--cap-endring", type=_at_least(0), default=Caps().endring_cap,
                   help="largest End ring fully enumerated")
    p.add_argument("--entry-bound", type=_at_least(0), default=Caps().entry_bound,
                   help="matrix entry bound for summand witness searches")
    p.add_argument("--timeout", type=_at_least(0, float), default=0.0,
                   help="per-group wall clock guard in seconds (0 = off; "
                        "timing-based skips make reports nondeterministic)")


def _emit(doc: dict, out: Optional[str], as_json: bool, human: str) -> None:
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human)


def _cmd_classify(args) -> int:
    caps = _caps_from_args(args)
    try:
        grp = parse_group_spec(args.group)
    except GroupSpecError as exc:
        print(f"error: {exc} (position {exc.position})", file=sys.stderr)
        return 2
    t0 = time.time()
    if args.preradical:
        from .harness import preradical_row

        try:
            rows, notes = preradical_row(grp, args.preradical, caps)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        rows, notes = classify_rows(grp, caps)
    doc = {
        "group": format_group(grp),
        "rows": rows,
        "notes": notes,
        "elapsed_s": round(time.time() - t0, 3),
    }
    header = f"{'order':>8}  {'summand':>7}  {'self':>7}  {'strongly':>8}  {'dual':>7}  {'dual-str':>8}  {'mode':<14}  generators"
    lines = [f"fully invariant subgroups of {doc['group']}", header, "-" * len(header)]
    for r in rows:
        gens = ", ".join(str(tuple(g)) for g in r["generators"]) or "0"
        extra = f"  [{','.join(r['preradicals'])}]" if "preradicals" in r else ""
        lines.append(
            f"{str(r['order']):>8}  {str(r['is_summand']):>7}  {r['self_F_split']:>7}  "
            f"{r['strongly']:>8}  {r['dual_self_F_split']:>7}  {r['dual_strongly']:>8}  "
            f"{r['deciding_mode']:<14}  <{gens}>{extra}"
        )
    for note in notes:
        lines.append(f"note: {note}")
    _emit(doc, args.out, args.json, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    caps = _caps_from_args(args)
    theorems = None
    if args.theorems:
        theorems = [t.strip() for t in args.theorems.split(",") if t.strip()]
        unknown = [t for t in theorems if t not in CHECKS]
        if unknown:
            print(
                f"error: unknown theorem id(s): {', '.join(unknown)}; "
                f"valid ids: {', '.join(sorted(CHECKS))}",
                file=sys.stderr,
            )
            return 2
    rads = None
    if args.preradicals:
        from .preradicals import parse_preradical

        try:
            rads = [parse_preradical(t) for t in args.preradicals.split(",") if t.strip()]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    report = run_verification(
        args.max_order, theorems, caps, preradicals=rads,
        with_examples=args.with_examples,
    )
    lines = []
    for t in report["theorems"]:
        status = "pass" if t["passed"] else "FAIL"
        lines.append(
            f"{t['theorem']:<12} {status}  instances={t['instances']} "
            f"failures={len(t['failures'])} skipped={len(t['skipped'])} "
            f"expected_failures={len(t['expected_failures'])} [{t['elapsed_s']}s]"
        )
    lines.append("overall: " + ("pass" if report["passed"] else "FAIL"))
    _emit(report, args.out, args.json, "\n".join(lines))
    return 0 if report["passed"] else 1


def _cmd_examples(args) -> int:
    caps = _caps_from_args(args)
    if args.pq:
        try:
            p, q = (int(x) for x in args.pq.split(","))
        except ValueError:
            print("error: --pq expects two comma-separated integers", file=sys.stderr)
            return 2
        try:
            report = worked_examples_report(caps, pq_pairs=((p, q),))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        report = worked_examples_report(caps)
    lines = []
    for t in report["tables"]:
        lines.append(
            f"{t['group']}: primal strongly-yes at orders {t['primal_strongly_yes_orders']}, "
            f"dual strongly-yes at orders {t['dual_strongly_yes_orders']}"
        )
        for d in t["discrepancies"]:
            lines.append(
                f"  note: order {d['order']} dual cell differs from the "
                f"circulated table (engine verdict re-verified)"
            )
    lines.append(f"torsion-part samples: {'pass' if report['torsion_samples_ok'] else 'FAIL'}")
    lines.append("overall: " + ("pass" if report["passed"] else "FAIL"))
    _emit(report, args.out, args.json, "\n".join(lines))
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="absplit",
        description="Splitness analysis for finitely generated abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify",
        help="list the fully invariant subgroups of a group with split flags",
    )
    p_classify.add_argument("group", help="group spec: 'Z/2 x Z/4 x Z' or '2,4,0'")
    p_classify.add_argument(
        "--preradical",
        help="restrict the table to F = r(M) for one preradical: torsion, "
        "socle, radical, ppart:<p>, mul:<n>, ntorsion:<n>, divisible",
    )
    p_classify.add_argument("--json", action="store_true")
    p_classify.add_argument("--out", help="write the JSON document to a file")
    _add_caps_flags(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run the brute-force verification suite")
    p_verify.add_argument("--max-order", type=_at_least(1), default=24)
    p_verify.add_argument(
        "--theorems",
        help=f"comma-separated check ids (default all): {', '.join(sorted(CHECKS))}",
    )
    p_verify.add_argument(
        "--preradicals",
        help="preradicals for the tdsprerad check, e.g. socle,ppart:2,ntorsion:2",
    )
    p_verify.add_argument(
        "--with-examples",
        action="store_true",
        help="embed the worked-example reproduction in the report",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", help="write the JSON report to a file")
    _add_caps_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_ex = sub.add_parser(
        "examples", help="reproduce the built-in worked-example classifications"
    )
    p_ex.add_argument("--pq", help="one prime pair, e.g. 2,3 (default: 2,3 3,2 2,5)")
    p_ex.add_argument("--json", action="store_true")
    p_ex.add_argument("--out", help="write the JSON report to a file")
    _add_caps_flags(p_ex)
    p_ex.set_defaults(func=_cmd_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
