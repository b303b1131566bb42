"""Command-line front end: family builders, spectra, matchings, verification."""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, harness
from .graphs import (
    CapacityError,
    FamilySpec,
    Graph,
    Graph6Error,
    ParameterError,
    barrier_family,
    extremal_family,
    extremal_partition,
    family_partition,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .matching import FractionalWitness, fractional_certificate, matching_certificate
from .quotient import (
    DEFAULT_ROOT_WIDTH,
    char_poly,
    family_quartic,
    family_quartic_root,
    quotient_matrix,
)
from .spectra import (
    DisconnectedError,
    distance_matrix,
    distance_spectral_radius,
)

SCHEMA_VERSION = 1


def _emit_json(command: str, params: dict, result: dict):
    payload = {
        "tool": "specmatch",
        "schema": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "result": result,
        "provenance": {
            "specmatch": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    print(json.dumps(payload, indent=2, default=str))


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParameterError(f"--parts expects comma-separated integers, got {text!r}")
    if not parts:
        raise ParameterError("--parts must be nonempty")
    return parts


def _parse_chunk(text: str) -> tuple[int, int]:
    try:
        index, count = text.split("/")
        index, count = int(index), int(count)
    except ValueError:
        raise ParameterError(f"--chunk expects 'index/count', got {text!r}")
    return index, count


def _load_graph(args) -> Graph:
    if getattr(args, "g6", None) is not None:
        return parse_graph6(args.g6)
    if getattr(args, "edges", None) is not None:
        if args.edges == "-":
            text = sys.stdin.read()
        else:
            with open(args.edges, "r", encoding="utf-8") as fh:
                text = fh.read()
        return parse_edge_list(text)
    raise ParameterError("provide a graph via --g6 or --edges")


def _emit_graph(args, params: dict, g: Graph, partition: list[list[int]]) -> int:
    """A built family graph: its JSON envelope with `partition`, or the graph
    in --format."""
    if args.json:
        size = g.edge_count()
        result = {"graph6": write_graph6(g), "order": g.n, "size": size, "partition": partition}
        _emit_json(args.command, params, result)
    elif args.format == "edges":
        sys.stdout.write(write_edge_list(g))
    else:
        print(write_graph6(g))
    return 0


def _progress_printer():
    state = {"last": 0.0}

    def callback(done: int, total: int):
        now = time.monotonic()
        if now - state["last"] >= 2.0 or done == total:
            state["last"] = now
            pct = 100.0 * done / total if total else 100.0
            print(f"scanned {done}/{total} masks ({pct:.1f}%)", file=sys.stderr, flush=True)

    return callback


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_family(args) -> int:
    g = extremal_family(args.n, args.k)
    return _emit_graph(args, {"n": args.n, "k": args.k}, g, extremal_partition(args.n, args.k))


def _cmd_proof_family(args) -> int:
    spec = FamilySpec(args.n, args.s, _parse_parts(args.parts))
    params = {"n": args.n, "s": args.s, "parts": list(spec.parts)}
    return _emit_graph(args, params, barrier_family(spec), family_partition(spec))


def _cmd_spectra(args) -> int:
    g = _load_graph(args)
    est = distance_spectral_radius(g, args.tol)
    wiener = est.wiener
    bound = Fraction(2 * wiener, g.n)
    mu = est.value if est.iterations or est.lo == est.hi else None  # else value is 2W/n
    result = {
        "order": g.n,
        "size": g.edge_count(),
        "wiener": wiener,
        "wiener_bound": float(bound),
        "mu": mu,
        "bracket": [float(est.lo), float(est.hi)],
        "bracket_exact": [str(est.lo), str(est.hi)],
        "iterations": est.iterations,
    }
    if args.json:
        _emit_json("spectra", {"tol": args.tol}, result)
    else:
        print(f"order: {g.n}")
        print(f"size: {g.edge_count()}")
        print(f"wiener: {wiener}")
        print(f"wiener bound 2W/n: {float(bound):.12g}")
        if mu is not None:
            print(f"mu: {mu:.12g}")
        print(f"bracket: [{float(est.lo):.12g}, {float(est.hi):.12g}]")
        print(f"iterations: {est.iterations}")
    return 0


def _cmd_matching(args) -> int:
    g = _load_graph(args)
    matching, cert = matching_certificate(g)
    perfect = cert is None
    result = {
        "order": g.n,
        "matching_number": len(matching),
        "perfect": perfect,
        "matching": sorted(matching.edges),
    }
    if not perfect:
        result["certificate"] = {
            "vertices": cert.vertices(),
            "odd_components": cert.odd_count,
            "deficiency": cert.deficiency,
        }
    if args.json:
        _emit_json("matching", {}, result)
    else:
        print(f"order: {g.n}")
        print(f"matching number: {len(matching)}")
        print(f"perfect matching: {'yes' if perfect else 'no'}")
        cert = result.get("certificate")
        if cert is not None:
            print(
                f"certificate: S={cert['vertices']} leaves {cert['odd_components']} "
                f"odd components (deficiency {cert['deficiency']})"
            )
    return 0


def _cmd_fractional(args) -> int:
    g = _load_graph(args)
    cert = fractional_certificate(g)
    fractional = isinstance(cert, FractionalWitness)
    result: dict = {"order": g.n, "fractional_perfect_matching": fractional}
    if fractional:
        result["weights"] = {f"{u}-{v}": str(w) for (u, v), w in cert.weights}
    else:
        result["violating_set"] = cert.vertices()
        result["isolated"] = cert.isolated
    if args.json:
        _emit_json("fractional", {}, result)
    else:
        print(f"order: {g.n}")
        if fractional:
            print("fractional perfect matching: yes")
            for (u, v), w in cert.weights:
                print(f"  {u}-{v}: {w}")
        else:
            print("fractional perfect matching: no")
            print(
                f"violating set: {result['violating_set']} "
                f"(isolates {result['isolated']} vertices)"
            )
    return 0


def _cmd_quotient(args) -> int:
    partition = extremal_partition(args.n, args.s)  # its errors name the hub size s
    g = extremal_family(args.n, args.s)
    q = quotient_matrix(distance_matrix(g).tolist(), partition)
    poly = family_quartic(args.n, args.s)
    computed = char_poly(q)
    if args.tol is not None and not math.isfinite(args.tol):
        raise ParameterError(f"--tol must be finite, got {args.tol}")
    width = DEFAULT_ROOT_WIDTH if args.tol is None else Fraction(args.tol)
    root = family_quartic_root(args.n, args.s, width=width)
    agree = computed.coefficients == poly.coefficients
    result = {
        "quotient": [[str(e) for e in row] for row in q],
        "char_poly": [str(c) for c in computed.coefficients],
        "closed_form": [str(c) for c in poly.coefficients],
        "coefficients_agree": agree,
        "largest_root": root.value,
        "root_bracket": [str(root.lo), str(root.hi)],
    }
    if args.json:
        _emit_json("quotient", {"n": args.n, "s": args.s, "tol": float(width)}, result)
    else:
        print(f"quotient matrix (blocks hub | {args.s}K1 | K3 | K{args.n - 2 * args.s - 3}):")
        for row in q:
            print("  " + "  ".join(f"{str(e):>6}" for e in row))
        print(f"char poly coefficients: {[str(c) for c in computed.coefficients]}")
        print(f"closed form matches: {'yes' if agree else 'NO'}")
        print(f"largest root: {root.value:.12g}")
        print(f"root bracket width: {float(root.width):.3g}")
    return 0 if agree else 1


# each verify target's options and defaults (None: required); the parser leaves
# every option at None, so one that the target does not read is rejected
_VERIFY_OPTIONS = {
    "lemmas": {"seed": 0},
    "theorem11": {"n": None, "chunk": "0/1"},
    "theorem13-family": {"n": None, "k": None},
    "ordering-chain": {"n": None, "s": None, "parts": None, "k": None, "exploratory": False},
    "probe13": {"n": None, "k": None, "trials": 1000, "seed": 0, "exploratory": False},
    "corollary14": {"n": 40},
}


def _cmd_verify(args) -> int:
    target = args.target
    options = _VERIFY_OPTIONS[target]
    given = {o for opts in _VERIFY_OPTIONS.values() for o in opts if getattr(args, o) is not None}
    if unread := sorted(given - options.keys()):
        raise ParameterError(f"verify {target} does not take --{', --'.join(unread)}")
    if missing := [o for o, default in options.items() if default is None and o not in given]:
        raise ParameterError(f"verify {target} requires --{', --'.join(missing)}")
    for name in options.keys() - given:
        setattr(args, name, options[name])
    if target == "lemmas":
        report = harness.lemma_suites(seed=args.seed)
    elif target == "theorem11":
        progress = None if args.json else _progress_printer()
        chunk = _parse_chunk(args.chunk)
        report = harness.pm_threshold_scan(args.n, chunk=chunk, progress=progress)
    elif target == "theorem13-family":
        report = harness.verify_extremal_family(args.n, args.k)
    elif target == "ordering-chain":
        spec = FamilySpec(args.n, args.s, _parse_parts(args.parts))
        report = harness.verify_ordering_chain(spec, args.k, exploratory=args.exploratory)
    elif target == "probe13":
        report = harness.probe_extremal_bound(
            args.n, args.k, trials=args.trials, seed=args.seed, exploratory=args.exploratory
        )
    else:
        report = harness.corollary_comparison(n_hi=args.n)

    if args.json:
        params = {"target": target, **{name: getattr(args, name) for name in options}}
        _emit_json("verify", params, report.to_dict())
    else:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"suite {report.suite}: {status} "
            f"({report.cases} cases, {len(report.violations)} violations, "
            f"{report.seconds:.2f}s)"
        )
        for key, value in report.extras.items():
            print(f"  {key}: {value}")
        for violation in report.violations:
            print(
                f"  VIOLATION [{violation['check']}] {violation['detail']} "
                f"witness={violation['witness']}"
            )
    return 0 if report.passed else 1


def _cmd_enumerate(args) -> int:
    chunk = _parse_chunk(args.chunk) if args.chunk else (0, 1)
    for g in harness.enumerate_graphs(args.n, connected_only=args.connected, chunk=chunk):
        print(write_graph6(g))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmatch",
        description=(
            "Distance spectral radius thresholds for perfect and fractional "
            "matchings: family constructors, certified spectra, matching "
            "certificates, exact quotient algebra, and verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--g6", help="graph6 string")
        src.add_argument("--edges", help="edge list file path ('-' for stdin)")

    p = sub.add_parser("family", help="build the threshold graph K_k v (kK_1 u K_3 u K_{n-2k-3})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("g6", "edges"), default="g6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("proof-family", help="build a hub-and-cliques graph K_s v (union of odd cliques)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--parts", required=True, help="comma-separated odd clique orders")
    p.add_argument("--format", choices=("g6", "edges"), default="g6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_proof_family)

    p = sub.add_parser("spectra", help="certified distance spectral radius of a graph")
    add_graph_input(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_spectra)

    p = sub.add_parser("matching", help="maximum matching and Tutte certificate")
    add_graph_input(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_matching)

    p = sub.add_parser("fractional", help="fractional perfect matching witness or violating set")
    add_graph_input(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_fractional)

    p = sub.add_parser("quotient", help="exact distance quotient and quartic for the threshold family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--tol", type=float, default=None, help="root bracket width")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "target",
        choices=(
            "lemmas",
            "theorem11",
            "theorem13-family",
            "ordering-chain",
            "probe13",
            "corollary14",
        ),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--parts")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--chunk", help="'index/count' slice of an exhaustive scan")
    p.add_argument("--exploratory", action="store_true", help="allow n below the proven range")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify, exploratory=None)

    p = sub.add_parser("enumerate", help="stream graph6 lines for all labeled graphs of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--chunk", help="'index/count' slice")
    p.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except (
        ParameterError,
        Graph6Error,
        CapacityError,
        DisconnectedError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
