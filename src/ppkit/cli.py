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

from . import sweep as sweep_mod
from .decompose import lemma31_extract
from .directions import check_complementarity, direction_order
from .errors import InvalidParam, PPKitError
from .families import (
    closed_form_components,
    family_for_theorem,
    family_images,
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


def _add_field_args(p):
    p.add_argument("--p", type=int, required=True, help="characteristic")
    p.add_argument("--m", type=int, required=True, help="extension degree of F_q")
    p.add_argument("--u", type=int, default=None, help="override the tower's u")


def _add_theorem_args(p):
    p.add_argument("--theorem", required=True, help="theorem id, e.g. 3.6")
    p.add_argument("--i", type=int, default=None, help="exponent parameter i")
    p.add_argument("--d", type=int, default=None, help="odd extension degree d")


def _add_point_args(p):
    _add_theorem_args(p)
    delta = p.add_mutually_exclusive_group()
    delta.add_argument("--delta", type=int, default=None, help="delta encoding in F_{q^2}")
    delta.add_argument(
        "--trdelta",
        type=int,
        default=None,
        help="base-field encoding of Tr(delta); picks the least matching delta",
    )
    p.add_argument("--gamma", type=int, default=None, help="gamma encoding")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    ap = _Parser(prog="ppkit", description="permutation family toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    fi = sub.add_parser("field-info", parents=[], help="describe F_q and its tower")
    _add_field_args(fi)

    ck = sub.add_parser("check", help="compare criterion and oracle at one point")
    _add_field_args(ck)
    _add_point_args(ck)

    sw = sub.add_parser("sweep", help="exhaustive (delta, gamma) sweep")
    _add_field_args(sw)
    _add_theorem_args(sw)
    sw.add_argument(
        "--gamma-domain",
        choices=["stated", "full"],
        default="stated",
        help="restrict gamma to the theorem's hypothesis (default) or probe all of F_{q^2}",
    )
    sw.add_argument("--out", default=None, help="output path (default stdout)")
    sw.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")

    de = sub.add_parser("decompose", help="closed-form vs extracted components")
    _add_field_args(de)
    _add_point_args(de)

    di = sub.add_parser("directions", help="direction/permuting-slope duality")
    _add_field_args(di)
    _add_point_args(di)
    return ap


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
    rec = sweep_mod.check_single(
        args.theorem, args.p, args.m, delta, args.gamma,
        u=args.u, i=args.i, d=args.d,
    )
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


def _cmd_decompose(args) -> int:
    tower = build_tower(build_field(args.p, args.m), u=args.u)  # a tower even for 4.1, which the check refuses
    theorem_info(args.theorem).check(tower, args.i, args.d, args.u)
    delta = tower.elem(_resolve_delta(tower, args))
    gamma = tower.elem(args.gamma if args.gamma is not None else 1)
    spec = family_for_theorem(args.theorem, delta.enc, gamma.enc, i=args.i, d=args.d)
    extracted = lemma31_extract(spec, tower)
    closed = closed_form_components(args.theorem, tower, delta, gamma, i=args.i)
    match = closed.same_values(extracted)
    print(
        json.dumps(
            {
                "theorem": args.theorem,
                "delta": delta.enc,
                "gamma": gamma.enc,
                "closed_form": closed.serialize(),
                "extracted": extracted.serialize(),
                "values_match": match,
            },
            indent=2,
        )
    )
    return EXIT_OK if match else EXIT_DISAGREE


def _cmd_directions(args) -> int:
    tower = build_tower(build_field(args.p, args.m), u=args.u)  # a tower even for 4.1, which the check refuses
    theorem_info(args.theorem).check(tower, args.i, args.d, args.u)
    delta = tower.elem(_resolve_delta(tower, args)).enc
    gamma = tower.elem(args.gamma if args.gamma is not None else 0).enc
    # duality is checked for the family with its linear part removed
    spec = family_for_theorem(args.theorem, delta, 0, i=args.i, d=args.d)
    direction_order(tower)  # the size guard, before the tower's tables are built
    images = family_images(spec, tower)
    report = check_complementarity(images.tolist().__getitem__, tower)
    out = {
        "theorem": args.theorem,
        "delta": delta,
        "direction_count": len(report.directions),
        "permuting_count": len(report.permuting),
        "complementary": report.complementary,
        "sizes_sum_to_field": report.sizes_sum_to_field,
    }
    if args.gamma is not None:  # an explicit 0 asks whether f itself permutes
        out["gamma_permutes"] = gamma in report.permuting
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.complementary else EXIT_DISAGREE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
