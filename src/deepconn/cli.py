"""Command-line front end.

One verb per concept: validate, fdc, erdc, pddc, spddc, sparsify,
special-case, gen, check.  Default output is human-readable text; --json
emits a machine-readable report with stable field order.  Each handler
returns its own fields and main frames them: "command" first, "status" last.
Loading this module imports only errors, model and sparsifier; a verb
imports oracles (with fdc and simplex) or gadgets the first time it runs.
Exit codes:
0 success, 1 domain error (infeasible precondition, budget exceeded),
2 usage or document parse/validation error, 141 stdout closed by its
reader before the report was written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import sparsifier as sparsify_mod
from .errors import DeepConnError, FormatError
from .model import (
    ROUTE_POLICIES,
    Instance,
    build_instance,
    parse_instance,
    peer_pairs,
    serialize_instance,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        fields = args.handler(args)
    except DeepConnError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return exc.status
    verb = f"gen {args.generator}" if args.command == "gen" else args.command
    report = {"command": verb, **fields}
    report.setdefault("status", "ok")
    try:
        if args.json:
            print(json.dumps(report, indent=2, default=str))
        else:
            for line in _humanize(report):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at the null device so
        # the exit-time flush of what is still buffered cannot fail again,
        # and exit as a writer killed by SIGPIPE would: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


@functools.cache
def _lib(name: str):
    """The library module deepconn.<name>, imported by the package on first use."""
    return getattr(sys.modules[__package__], name)


def _budget(text: str) -> int:
    """A --budget value: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by main."""
    parser = argparse.ArgumentParser(
        prog="deepconn",
        description="Deep-connectivity parameters of overlay networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_cmd(name, help_text, parameter=False, budget=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-i", "--instance", required=True, help="instance document path")
        if parameter:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--pair", nargs=2, metavar=("A", "B"))
            grp.add_argument("--all-pairs", action="store_true")
            p.add_argument("--witness", action="store_true")
        if budget:
            p.add_argument("--budget", type=_budget, default=None)
        p.add_argument("--json", action="store_true")
        return p

    instance_cmd("validate", "parse and validate an instance").set_defaults(
        handler=_cmd_validate
    )
    for name in ("fdc", "erdc", "pddc", "spddc"):
        instance_cmd(
            name,
            f"compute the {name} parameter",
            parameter=True,
            budget=name != "fdc",
        ).set_defaults(handler=_cmd_parameter)
    for name, help_text, handler in (
        ("sparsify", "construct a sparse 2-survivable overlay", _cmd_sparsify),
        ("special-case", "identity-routing 2n-2 construction", _cmd_special_case),
    ):
        p = instance_cmd(name, help_text)
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(handler=handler)
    instance_cmd("check", "run the cross-parameter invariant suite").set_defaults(
        handler=_cmd_check
    )

    gen = sub.add_parser("gen", help="generate instances")
    gsub = gen.add_subparsers(dest="generator", required=True)

    def gen_cmd(name, labels=False):
        p = gsub.add_parser(name)
        p.add_argument("--json", action="store_true")
        p.add_argument("-o", "--output", default=None)
        if labels:
            p.add_argument("--labels", default=None, help="sidecar labels path")
        return p

    p = gen_cmd("set-system", labels=True)
    p.add_argument("--h-nodes", required=True, help="comma-separated overlay nodes")
    p.add_argument("--h-edges", required=True, help="comma-separated a-b pairs")
    p.add_argument("--f", required=True, help="comma-separated a-b pairs, one per set")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sets", required=True, help="semicolon-separated comma lists")
    p.set_defaults(handler=_cmd_gen_set_system)

    p = gen_cmd("spddc-reduction", labels=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sets", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_gen_spddc)

    p = gen_cmd("hamiltonian")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.set_defaults(handler=_cmd_gen_hamiltonian)

    p = gen_cmd("random")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--peers", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--policy", choices=ROUTE_POLICIES, default="shortest_path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_gen_random)

    return parser


def _load(args) -> Instance:
    try:
        with open(args.instance, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {args.instance}: {exc}") from exc
    return parse_instance(text)


def _emit_instance(args, instance, labels=None) -> None:
    if args.output:
        _write(args.output, serialize_instance(instance))
    if labels is not None and args.labels:
        _write(args.labels, json.dumps(labels, indent=2) + "\n")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _cmd_validate(args):
    instance = _load(args)
    return {
        "nodes": len(instance.nodes),
        "edges": len(instance.edges),
        "peers": len(instance.peers),
        "overlay_edges": len(instance.overlay_edges),
        "routes": len(instance.routes),
        "total_routing": instance.total,
    }


def _cmd_parameter(args):
    instance = _load(args)
    oracles = _lib("oracles")
    name = args.command
    started = time.perf_counter()
    budget = getattr(args, "budget", None)
    kwargs = {} if budget is None else {"budget": budget}
    if args.pair:
        s, t = args.pair
        value, cert = oracles.pair_parameter(instance, name, s, t, **kwargs)
        report = {"pair": [s, t], "value": value}
    else:
        value, pair, cert = oracles.all_pairs(instance, name, **kwargs)
        report = {
            "all_pairs": True,
            "value": value,
            "argmin_pair": list(pair),
        }
    if args.witness:
        report["witness"] = _witness(cert)
    report["status"] = "ok"
    if not args.json:
        report["elapsed_s"] = round(time.perf_counter() - started, 3)
    return report


def _witness(cert):
    if isinstance(cert, _lib("fdc").FlowResult):
        return {
            "primal": {
                " ".join(path): flow
                for path, flow in sorted(cert.primal.items())
            },
            "dual": {
                f"{u},{v}": w
                for (u, v), w in sorted(cert.dual.items())
            },
        }
    if isinstance(cert, _lib("oracles").CutCertificate):
        return {"cut": [list(e) for e in sorted(cert.edges)]}
    return {"paths": [list(p) for p in cert.paths]}


def _cmd_sparsify(args):
    instance = _load(args)
    overlay = sparsify_mod.sparsify(instance)
    result = sparsify_mod.sparsified_instance(instance, overlay)
    _emit_instance(args, result)
    return {
        "tree_edges": len(instance.peers) - 1,
        "overlay_edges": [list(e) for e in sorted(overlay)],
        "size": len(overlay),
    }


def _cmd_special_case(args):
    instance = _load(args)
    overlay = sparsify_mod.special_case_construct(instance)
    routes = {e: e for e in overlay}
    result = build_instance(
        instance.nodes, instance.edges, instance.peers, overlay, routes
    )
    _emit_instance(args, result)
    return {
        "overlay_edges": [list(e) for e in sorted(overlay)],
        "size": len(overlay),
        "bound": 2 * len(instance.nodes) - 2,
    }


def _cmd_check(args):
    instance = _load(args)
    oracles = _lib("oracles")
    rows = []
    ok = True
    for s, t in peer_pairs(instance):
        erdc, pddc, spddc, flow = (
            oracles.pair_parameter(instance, name, s, t)[0]
            for name in ("erdc", "pddc", "spddc", "fdc")
        )
        holds = spddc <= pddc <= erdc and spddc <= flow <= erdc
        ok = ok and holds
        rows.append(
            {
                "pair": [s, t],
                "erdc": erdc,
                "pddc": pddc,
                "spddc": spddc,
                "fdc": flow,
                "inequalities": "ok" if holds else "VIOLATED",
            }
        )
    return {"pairs": rows, "status": "ok" if ok else "violated"}


def _parse_edge_list(text):
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2 or not all(parts):
            raise FormatError(f"bad edge token {token!r}; expected a-b")
        out.append((parts[0], parts[1]))
    return out


def _parse_sets(text):
    sets = []
    for chunk in text.split(";"):
        try:
            sets.append([int(x) for x in chunk.split(",") if x.strip()])
        except ValueError:
            raise FormatError(f"bad set {chunk.strip()!r}; expected integers") from None
    return sets


def _cmd_gen_set_system(args):
    gadgets = _lib("gadgets")
    system = gadgets.SetSystem.from_lists(args.m, _parse_sets(args.sets))
    out = gadgets.encode_set_system(
        args.h_nodes.split(","),
        _parse_edge_list(args.h_edges),
        _parse_edge_list(args.f),
        system,
    )
    _emit_instance(args, out.instance, out.labels)
    return {
        "nodes": len(out.instance.nodes),
        "edges": len(out.instance.edges),
        "labels": out.labels,
    }


def _cmd_gen_spddc(args):
    gadgets = _lib("gadgets")
    system = gadgets.SetSystem.from_lists(args.m, _parse_sets(args.sets))
    out, source, sink = gadgets.build_spddc_reduction(system, args.k)
    _emit_instance(args, out.instance, out.labels)
    return {
        "source": source,
        "sink": sink,
        "nodes": len(out.instance.nodes),
        "edges": len(out.instance.edges),
    }


def _cmd_gen_hamiltonian(args):
    gadgets = _lib("gadgets")
    instance = gadgets.build_hamiltonian_reduction(
        args.nodes.split(","), _parse_edge_list(args.edges)
    )
    _emit_instance(args, instance)
    return {
        "nodes": len(instance.nodes),
        "edges": len(instance.edges),
        "peers": len(instance.peers),
    }


def _cmd_gen_random(args):
    gadgets = _lib("gadgets")
    instance = gadgets.random_instance(
        args.nodes, args.peers, args.edge_prob, args.policy, args.seed
    )
    _emit_instance(args, instance)
    return {
        "seed": args.seed,
        "nodes": len(instance.nodes),
        "edges": len(instance.edges),
        "peers": len(instance.peers),
    }


def _humanize(report, indent=0):
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            yield f"{pad}{key}:"
            yield from _humanize(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{pad}{key}:"
            for item in value:
                yield from _humanize(item, indent + 1)
                yield ""
        else:
            yield f"{pad}{key}: {value}"


if __name__ == "__main__":
    sys.exit(main())
