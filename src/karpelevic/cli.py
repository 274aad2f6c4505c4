"""Command-line interface.

Verbs: arcs, realize, enumerate, verify, region, augment, probe.

Exact rationals cross the command line as "p/q" strings; decimals are
rejected everywhere.  Vertices are 1-based on the command
line (matching the DOT output); the Python API underneath is 0-based.
Exit codes: 0 success (also when the reader closes stdout early), 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Callable, Iterator

from karpelevic.algebra import StochMatrix, rat, rat_str
from karpelevic.boundary import (
    ContinuationError,
    _check_samples,
    boundary_svg,
    region_boundary,
    trace_csv,
    traces_json_payload,
)
from karpelevic.digraph import WeightedDigraph, to_dot
from karpelevic.farey import ArcParams, ArcType, arc_params, arcs_of_order
from karpelevic.itopoly import _check_alpha
from karpelevic.realize import (
    Composition,
    TypeIIRealization,
    _check_composition,
    _check_open_unit,
    build_sparsest,
    conjecture_probe,
    enumerate_sparsest,
    type1,
    verify_realization,
)

__all__ = ["main"]


@contextmanager
def _naming(flag: str) -> Iterator[None]:
    """Name the flag in a ValueError or OSError raised inside."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _rat_flag(flag: str, text: str, check: Callable[[Fraction], None] | None = None) -> Fraction:
    """The flag's exact rational, passed through the range ``check`` of the
    call it feeds, so that a range error names the flag as a parse error does."""
    with _naming(flag):
        value = rat(text)
        if check is not None:
            check(value)
        return value


def _composition_flag(text: str | None, arc: ArcParams) -> Composition:
    """The --composition flag; if absent, the one class of a Type 0 or I arc."""
    with _naming("--composition"):
        try:
            parts = () if text is None else tuple(int(x) for x in text.split(","))
        except ValueError:
            raise ValueError(f"expected comma-separated integers, got {text!r}") from None
        composition = Composition(parts)
        _check_composition(arc, composition)
    return composition


def _arc_from_flags(args) -> ArcParams:
    return arc_params(ArcType(args.type), n=args.n, q=args.q, d=args.d, z=args.z, y=args.y)


def _matrix_and_arc(args) -> tuple[StochMatrix, ArcParams]:
    """The --matrix (a JSON file, or - for stdin) and --arc flags."""
    with _naming("--matrix"):
        text = sys.stdin.read() if args.matrix == "-" else Path(args.matrix).read_text()
        matrix = StochMatrix.from_json(json.loads(text))
    with _naming("--arc"):
        return matrix, ArcParams.from_json(json.loads(args.arc))


def _emit_matrix(m: StochMatrix, emit: str) -> None:
    if emit in ("json", "both"):
        print(json.dumps(m.to_json()))
    if emit in ("dot", "both"):
        print(to_dot(WeightedDigraph.from_matrix(m)), end="")


def _arc_label(arc: ArcParams) -> str:
    ends = [(Fraction(arc.p, arc.q), f"{arc.p}/{arc.q}"), (Fraction(arc.r, arc.s), f"{arc.r}/{arc.s}")]
    ends.sort(key=lambda e: e[0])
    return f"{ends[0][1]}-{ends[1][1]}"


# -- verbs ---------------------------------------------------------------


def cmd_arcs(args) -> int:
    arcs = arcs_of_order(args.n)
    if args.json:
        print(json.dumps([a.to_json() for a in arcs]))
        return 0
    for arc in arcs:
        extra = ""
        if arc.z is not None:
            extra = f" z={arc.z}"
        if arc.y is not None:
            extra = f" y={arc.y}"
        print(
            f"{_arc_label(arc)}  Type{arc.type_tag.value}  q={arc.q} s={arc.s} "
            f"d={arc.d}{extra} deg={arc.reduced_degree}"
        )
    return 0


def cmd_realize(args) -> int:
    alpha = _rat_flag("--alpha", args.alpha, _check_open_unit)
    arc = _arc_from_flags(args)
    if args.alphas:
        if arc.type_tag is not ArcType.TYPE_I:
            raise ValueError("--alphas applies to Type I arcs only")
        weights = [_rat_flag("--alphas", x) for x in args.alphas.split(",")]
        product = prod(weights)
        if product != alpha:
            raise ValueError(
                f"--alphas multiply to {rat_str(product)}, not --alpha {rat_str(alpha)}"
            )
        with _naming("--alphas"):
            matrix = type1(arc.n, arc.q, weights)
    else:
        matrix = build_sparsest(arc, alpha, _composition_flag(args.composition, arc))
    _emit_matrix(matrix, args.emit)
    return 0


def cmd_enumerate(args) -> int:
    arc = _arc_from_flags(args)
    comps = enumerate_sparsest(arc)
    if args.alpha is not None:
        alpha = _rat_flag("--alpha", args.alpha, _check_open_unit)
        payload = [
            {"composition": list(c.parts), "matrix": build_sparsest(arc, alpha, c).to_json()}
            for c in comps
        ]
        print(json.dumps(payload))
        return 0
    if args.json:
        print(json.dumps([list(c.parts) for c in comps]))
        return 0
    print(f"{len(comps)} sparsest class(es) for {_arc_label(arc)} Type{arc.type_tag.value}:")
    for c in comps:
        print(f"  {c}")
    return 0


def cmd_verify(args) -> int:
    matrix, arc = _matrix_and_arc(args)
    result = verify_realization(matrix, arc, _rat_flag("--alpha", args.alpha, _check_alpha))
    status = "OK" if result else "FAIL"
    print(f"{status} ({result.describe()})")
    return 0 if result else 1


def cmd_region(args) -> int:
    with _naming("--samples"):
        _check_samples(args.samples)
    traces = region_boundary(args.n, args.samples)
    if args.svg:
        Path(args.svg).write_text(boundary_svg(traces))
    if args.csv_dir:
        directory = Path(args.csv_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for i, trace in enumerate(traces):
            (directory / f"arc_{i:03d}.csv").write_text(trace_csv(trace))
    if args.json:
        print(json.dumps({"n": args.n, "arcs": traces_json_payload(traces)}))
    else:
        worst = max(t.residual_bound for t in traces)
        print(
            f"traced {len(traces)} arcs of the order-{args.n} boundary "
            f"({args.samples} samples each, residual bound {worst:.2e})"
        )
        if args.svg:
            print(f"svg written to {args.svg}")
    return 0


def cmd_augment(args) -> int:
    arc = arc_params(ArcType.TYPE_II, q=args.q, d=args.d, z=args.z)
    real = TypeIIRealization.sparsest(arc, _composition_flag(args.composition, arc))
    for spec in args.add or []:
        try:
            src, dst = (int(x) for x in spec.split(","))
        except ValueError:
            raise ValueError(f"--add expects 'src,dst' (1-based), got {spec!r}")
        edge = (src - 1, dst - 1)
        try:
            real = real.augmented(edge)
        except ValueError as exc:
            # The API numbers the edge and its blocks from 0; name them from 1.
            t = real.block_of(edge[0])
            u = (t + 1) % real.d
            reason = str(exc).removeprefix(f"edge {edge} ")
            reason = reason.replace(f"block {t} to block {u}", f"block {t + 1} to block {u + 1}")
            raise ValueError(f"edge {(src, dst)} {reason}") from None
    params = {}
    for assignment in args.param or []:
        name, _, value = assignment.partition("=")
        if name in params:
            raise ValueError(f"--param {name} given twice")
        try:
            params[name] = rat(value)
        except ValueError:
            raise ValueError(f"--param expects name=p/q, got {assignment!r}")
    free = real.free_parameters()
    if args.alpha is None:
        print(f"connectors: {[tuple((a + 1, b + 1) for a, b in c) for c in real.connectors]}")
        print(f"free parameters: {free}")
        return 0
    matrix = real.instantiate(_rat_flag("--alpha", args.alpha, _check_open_unit), params)
    _emit_matrix(matrix, args.emit)
    return 0


def cmd_probe(args) -> int:
    matrix, arc = _matrix_and_arc(args)
    found = conjecture_probe(matrix, arc, _rat_flag("--alpha", args.alpha, _check_alpha))
    if found is None:
        print("NOT-FOUND: no relabelling puts the matrix in family form")
        return 0
    spec, permutation = found
    print(f"FOUND: family form with the vertices in the order {[v + 1 for v in permutation]}")
    blocks = [sorted(v + 1 for v in block) for block in spec.blocks]
    weights = {v + 1: rat_str(w) for v, w in sorted(spec.weights.items())}
    print(f"blocks (1-based): {blocks}")
    print(f"step weights: {weights}")
    return 0


# -- parser --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karpelevic",
        description="Boundary arcs of the Karpelevic region and their stochastic realizations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_arcs = sub.add_parser("arcs", help="classify the boundary arcs of one order")
    p_arcs.add_argument("n", type=int)
    p_arcs.add_argument("--json", action="store_true")
    p_arcs.set_defaults(func=cmd_arcs)

    # Flag groups that several verbs share, each declared once.
    arc_flags = argparse.ArgumentParser(add_help=False)
    for name in ("n", "q", "d", "z", "y"):
        arc_flags.add_argument(f"--{name}", type=int)
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--emit", choices=["json", "dot", "both"], default="json")
    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--matrix", required=True, help="matrix JSON path, or - for stdin")
    checked.add_argument("--arc", required=True, help="arc parameters as JSON")
    checked.add_argument("--alpha", required=True)
    types = [tag.value for tag in ArcType]

    p_realize = sub.add_parser(
        "realize", parents=[arc_flags, emit], help="construct a realization matrix"
    )
    p_realize.add_argument("type", choices=types)
    p_realize.add_argument("--alpha", required=True, help='exact rational "p/q"')
    p_realize.add_argument("--composition", help="comma-separated parts (Type II/III)")
    p_realize.add_argument("--alphas", help="comma-separated weights (Type I)")
    p_realize.set_defaults(func=cmd_realize)

    p_enum = sub.add_parser("enumerate", parents=[arc_flags], help="list sparsest realization classes")
    p_enum.add_argument("--type", required=True, choices=types)
    p_enum.add_argument("--alpha", help="also emit the matrices at this parameter")
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser(
        "verify", parents=[checked], help="verify a matrix against an arc polynomial"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_region = sub.add_parser("region", help="trace the full boundary of one order")
    p_region.add_argument("n", type=int)
    p_region.add_argument("--samples", type=int, default=512)
    p_region.add_argument("--svg", help="write an SVG figure to this path")
    p_region.add_argument("--csv-dir", help="write per-arc CSV traces into this directory")
    p_region.add_argument("--json", action="store_true")
    p_region.set_defaults(func=cmd_region)

    p_aug = sub.add_parser("augment", parents=[emit], help="add connector edges to a Type II digraph")
    p_aug.add_argument("--q", type=int, required=True)
    p_aug.add_argument("--d", type=int, required=True)
    p_aug.add_argument("--z", type=int, required=True)
    p_aug.add_argument("--composition", required=True)
    p_aug.add_argument("--add", action="append", help="connector 'src,dst' (1-based); repeatable")
    p_aug.add_argument("--alpha", help="instantiate at this parameter")
    p_aug.add_argument("--param", action="append", help="free weight, e.g. alpha_2=9/10")
    p_aug.set_defaults(func=cmd_augment)

    p_probe = sub.add_parser(
        "probe", parents=[checked], help="search a Type III realization for family form"
    )
    p_probe.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`karpelevic arcs 200 | head -1`), which is
        # no error; stdout goes to devnull so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, KeyError, ContinuationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
