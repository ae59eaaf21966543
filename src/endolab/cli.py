"""Command line front end.

Subcommands: validate, analyze, suite, search, incidence.  Exit codes:
0 on success, 1 when a suite records a failure or an internal inconsistency,
2 on any input problem.  With --json, machine output is one JSON object per
line on stdout.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
from typing import Optional, Sequence

from . import incidence as inc
from . import lab, workspace
from .verdicts import CapExceeded, Caps, InternalInconsistency

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endolab",
        description="Decide regularity properties of finite rings and modules.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[shared],
                       help="parse and validate a workspace file")
    p.add_argument("file")

    p = sub.add_parser("analyze", parents=[shared],
                       help="full property report for one module")
    p.add_argument("file")
    p.add_argument("id")

    p = sub.add_parser("suite", parents=[shared],
                       help="run the theorem suites over every corpus")
    p.add_argument("file")

    p = sub.add_parser("search", parents=[shared],
                       help="run the suites over seeded random modules")
    p.add_argument("file")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("incidence", parents=[shared],
                       help="build an incidence algebra, optionally "
                            "compare endomorphism rings")
    p.add_argument("file")
    p.add_argument("poset")
    p.add_argument("ring")
    p.add_argument("--module", default=None)
    return parser


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(human)


def cmd_validate(args: argparse.Namespace) -> int:
    ws = workspace.parse_workspace(args.file)
    summary = {
        "rings": sorted(ws.rings),
        "modules": sorted(ws.modules),
        "posets": sorted(ws.posets),
        "corpora": {k: len(v) for k, v in sorted(ws.corpora.items())},
    }
    _emit(args, {"ok": True, **summary},
          f"ok: {len(ws.rings)} rings, {len(ws.modules)} modules, "
          f"{len(ws.posets)} posets, "
          f"{sum(len(v) for v in ws.corpora.values())} corpus members")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    ws = workspace.parse_workspace(args.file)
    mem = ws.member(args.id)
    report = lab.analyze(mem.id, mem.module, ws.caps)
    if args.json:
        payload = {
            "module": report.module_id,
            "end_size": report.end_size,
            "radical_order": report.radical_order,
            "socle_order": report.socle_order,
            "summand_count": report.summand_count,
            "spec": None if report.spec is None else [workspace.to_jsonable(p) for p in report.spec],
            "properties": {
                k: {"value": v.value, "detail": v.reason,
                    "witness": workspace.to_jsonable(v.witness)}
                for k, v in report.properties.items()
            },
            "routes": {k: v.value for k, v in report.routes.items()},
        }
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print("\n".join(report.lines()))
    return EXIT_OK


def _run_suite(args: argparse.Namespace, corpora: dict[str, list[lab.CorpusMember]],
               caps: Caps, with_families: bool = True) -> int:
    any_failure = False
    counts = collections.Counter()
    for name, members in corpora.items():
        families = workspace.same_ring_families(members) if with_families else []
        report = lab.theorem_suites(members, caps, families=families)
        for r in report.records:
            if args.json:
                print(json.dumps({"corpus": name, **workspace.record_to_json(r)},
                                 ensure_ascii=False))
            elif r.status != "pass":
                label = "FAIL" if r.status == "fail" else "skip"
                print(f"{label} {name}/{r.object_id} {r.check_id}: {r.detail}")
        counts.update(report.counts())
        any_failure = any_failure or report.failed
    if not args.json:
        print(f"{counts['pass']} passed, {counts['fail']} failed, "
              f"{counts['skip']} skipped")
    return EXIT_FAILURE if any_failure else EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    ws = workspace.parse_workspace(args.file)
    if not ws.corpora:
        print("workspace defines no corpora", file=sys.stderr)
        return EXIT_INPUT
    return _run_suite(args, ws.corpora, ws.caps)


def cmd_search(args: argparse.Namespace) -> int:
    ws = workspace.parse_workspace(args.file)
    seed = ws.seed if args.seed is None else args.seed
    members = workspace.random_modules(args.count, seed, ws.caps)
    return _run_suite(args, {f"random-{seed}": members}, ws.caps, with_families=False)


def cmd_incidence(args: argparse.Namespace) -> int:
    ws = workspace.parse_workspace(args.file)
    if args.poset not in ws.posets:
        raise workspace.WorkspaceError(f"unknown poset id: {args.poset}")
    if args.ring not in ws.rings:
        raise workspace.WorkspaceError(f"unknown ring id: {args.ring}")
    poset = ws.posets[args.poset]
    base = ws.rings[args.ring]
    try:
        bundle = inc.build_incidence_algebra(poset, base)
    except ValueError as exc:
        raise workspace.WorkspaceError(str(exc)) from exc
    payload = {
        "poset": args.poset,
        "ring": args.ring,
        "basis_pairs": len(bundle.pair_index),
        "algebra_size": bundle.ring.size(),
    }
    human = (f"I({args.poset}, {args.ring}): {len(bundle.pair_index)} basis pairs, "
             f"{bundle.ring.size()} elements")
    if args.module is not None:
        mem = ws.member(args.module)
        if mem.module.ring != base:
            raise workspace.WorkspaceError(
                f"module {args.module!r} is over ring {mem.module.ring.name!r}, "
                f"not over ring {args.ring!r} of the algebra")
        try:
            report = inc.incend_check(mem.module, bundle, ws.caps)
        except (inc.NotCyclic, inc.NoBottomElement) as exc:
            raise workspace.WorkspaceError(str(exc)) from exc
        except CapExceeded as exc:
            cap_name = "elements" if exc.what == "module elements" else "homs"
            raise workspace.WorkspaceError(
                f"module {args.module!r} has {exc.total} {exc.what}, "
                f"over the {cap_name} cap {exc.cap}") from None
        payload.update({
            "module": args.module,
            "end_sizes": [report.left_size, report.right_size],
            "isomorphic": report.isomorphic,
            "detail": report.detail,
        })
        human += (f"; End sizes {report.left_size}/{report.right_size}, "
                  f"isomorphic: {report.isomorphic}")
        _emit(args, payload, human)
        return EXIT_OK if report.isomorphic else EXIT_FAILURE
    _emit(args, payload, human)
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "suite": cmd_suite,
    "search": cmd_search,
    "incidence": cmd_incidence,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except workspace.WorkspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
