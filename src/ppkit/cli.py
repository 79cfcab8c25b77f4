"""Command-line interface.

Exit codes: 0 prediction and oracle agree (or informational command
succeeded), 2 at least one disagreement, 64 usage error, 65 domain error,
66 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import families, sweep as sweep_mod
from .decompose import lemma31_extract
from .directions import check_complementarity, direction_order
from .errors import InvalidParam, KindContextMismatch, PPKitError
from .families import (
    closed_form_components,
    family_for_theorem,
    theorem_context,
    theorem_info,
)
from .gf import build_field
from .tower import TowerCtx, build_tower, valid_us

EXIT_OK = 0
EXIT_DISAGREE = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_IO = 66


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    ap = _Parser(prog="ppkit", description="permutation family toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, help in [
        ("field-info", "describe F_q and its tower"),
        ("check", "compare criterion and oracle at one point"),
        ("sweep", "exhaustive (delta, gamma) sweep"),
        ("decompose", "closed-form vs extracted components"),
        ("directions", "direction/permuting-slope duality"),
    ]:
        sp = sub.add_parser(cmd, help=help)
        sp.add_argument("--p", type=int, required=True, help="characteristic")
        sp.add_argument("--m", type=int, required=True, help="extension degree of F_q")
        sp.add_argument("--u", type=int, help="override the tower's u")
        if cmd == "field-info":
            continue
        sp.add_argument("--theorem", required=True, help="theorem id, e.g. 3.6")
        sp.add_argument("--i", type=int, help="exponent parameter i")
        sp.add_argument("--d", type=int, help="odd extension degree d")
        if cmd == "sweep":
            sp.add_argument("--gamma-domain", choices=("stated", "full"), default="stated",
                            help="restrict gamma to the theorem's hypothesis (default) or probe all of F_{q^2}")
            sp.add_argument("--out", help="output path (default stdout)")
            sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
            continue
        delta = sp.add_mutually_exclusive_group()
        delta.add_argument("--delta", type=int, help="delta encoding in F_{q^2}")
        delta.add_argument("--trdelta", type=int,
                           help="base-field encoding of Tr(delta); picks the least matching delta")
        sp.add_argument("--gamma", type=int, help="gamma encoding")
    ap.commands = sub.choices  # each subcommand's parser by name, for _parse
    return ap


def _parse(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv).  An argv that starts with a subcommand
    is read by that subcommand's own parser, as parse_args would hand it on,
    at about half the cost; the whole parser reads anything else and reports
    arguments left over."""
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    if argv and argv[0] in ap.commands:
        args, rest = ap.commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(cmd=argv[0]))
        if not rest:
            return args
    return ap.parse_args(argv)


def _resolve_delta(ctx, args) -> int:
    if args.delta is not None:
        return args.delta
    if args.trdelta is not None:
        if not isinstance(ctx, TowerCtx):  # 4.1's flat field has no delta and no Tr_q^{q^2}
            raise InvalidParam(f"theorem {args.theorem} has no delta to pick by trace")
        t = args.trdelta
        if not 0 <= t < ctx.q:
            raise PPKitError(f"no delta has trace {t}")
        # Tr(c0 + c1*alpha) is 2*c0 (odd) or c1 (even); the least delta has the other coordinate 0
        return ctx.base.div(t, ctx.base.scalar(2)) if ctx.kind == "odd" else ctx.q * t
    return 0


def _cmd_field_info(args) -> int:
    base = build_field(args.p, args.m)
    tower = build_tower(base, u=args.u)
    info = {
        "p": base.p,
        "m": base.m,
        "q": base.q,
        "modulus": list(base.modulus),
        "tower_kind": tower.kind,
        "tower_u": tower.u,
        "tower_order": tower.order,
        "valid_us": valid_us(base),
    }
    print(json.dumps(info, indent=2))
    return EXIT_OK


def _cmd_check(args) -> int:
    ctx = theorem_context(args.theorem, args.p, args.m, args.u, args.i, args.d)
    delta = _resolve_delta(ctx, args)
    if args.gamma is None:
        raise PPKitError("check requires --gamma")
    rec = sweep_mod.check_on(ctx, args.theorem, delta, args.gamma, i=args.i, d=args.d)
    print(json.dumps(rec.serialize(), indent=2))
    return EXIT_DISAGREE if sweep_mod.disagreements([rec]) else EXIT_OK


def _cmd_sweep(args) -> int:
    records = sweep_mod.sweep_theorem(
        args.theorem, args.p, args.m, u=args.u, i=args.i, d=args.d,
        probe_hypotheses=args.gamma_domain == "full",
    )
    if not records:
        raise PPKitError(f"theorem {args.theorem} over F_{args.p}^{args.m} yields no records")
    try:
        sweep_mod.write_records(records, args.out or sys.stdout, args.format)
    except OSError as exc:
        print(f"ppkit: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    summary = sweep_mod.summarize(records)
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK if summary["disagreements"] == 0 else EXIT_DISAGREE


def _tower_family(args, gamma: int):
    """The tower and the theorem's family at the point given, for decompose and
    directions; gamma stands in for a missing --gamma.  Both work in a tower,
    so they refuse the trace form 4.1, which lives in the flat field F_{q^d}."""
    info = theorem_info(args.theorem)
    if info.needs_d:
        raise KindContextMismatch(f"{args.cmd} works in a tower F_{{q^2}}; theorem {args.theorem} lives in F_{{q^d}}")
    tower = theorem_context(args.theorem, args.p, args.m, args.u, args.i, args.d)
    delta = _resolve_delta(tower, args)
    gamma = args.gamma if args.gamma is not None else gamma
    info.check(tower, delta=delta, gamma=gamma)  # InvalidParam names the parameter out of range
    return tower, family_for_theorem(args.theorem, delta, gamma, i=args.i)


def _cmd_decompose(args) -> int:
    tower, spec = _tower_family(args, gamma=1)
    extracted = lemma31_extract(spec, tower)
    closed = closed_form_components(args.theorem, tower, tower.elem(spec.delta), tower.elem(spec.gamma), i=args.i)
    match = closed.same_values(extracted)
    print(json.dumps({
        "theorem": args.theorem,
        "delta": spec.delta,
        "gamma": spec.gamma,
        "closed_form": closed.serialize(),
        "extracted": extracted.serialize(),
        "values_match": match,
    }, indent=2))
    return EXIT_OK if match else EXIT_DISAGREE


def _cmd_directions(args) -> int:
    tower, spec = _tower_family(args, gamma=0)
    direction_order(tower)  # the size guard, before the tower's tables are built
    # duality is checked for f at gamma = 0, the acc of f = acc + gamma * lin
    [(_, acc, _)] = families.delta_power_rows(spec, tower, (spec.delta,))
    report = check_complementarity(acc.tolist().__getitem__, tower)
    out = {
        "theorem": args.theorem,
        "delta": spec.delta,
        "direction_count": len(report.directions),
        "permuting_count": len(report.permuting),
        "complementary": report.complementary,
        "sizes_sum_to_field": report.sizes_sum_to_field,
    }
    if args.gamma is not None:  # an explicit 0 asks whether f itself permutes
        out["gamma_permutes"] = spec.gamma in report.permuting
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.complementary else EXIT_DISAGREE


def main(argv=None) -> int:
    args = _parse(argv)
    handlers = {
        "field-info": _cmd_field_info,
        "check": _cmd_check,
        "sweep": _cmd_sweep,
        "decompose": _cmd_decompose,
        "directions": _cmd_directions,
    }
    try:
        return handlers[args.cmd](args)
    except PPKitError as exc:
        print(f"ppkit: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"ppkit: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
