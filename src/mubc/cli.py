"""Command-line front end: verification, search, metaplectic computations,
oracle runs, and a one-shot reproduction of the bundled numeric claims.

Exit codes: 0 success / verdict true, 1 verdict false or nothing found,
2 input error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidProblem, MubcError
from .exact import GOLDEN, QuadNum
# The benchmark reads build_manifest, ManifestEntry and fixture_config through
# this module and replaces build_manifest here, so they stay bound at import.
from .manifest import ManifestEntry, build_manifest, fixture_config, fmt as _fmt
from .metaplectic import (
    MetaplecticSpec,
    compose_overlap_sq,
    genmu_overlap_sq,
    is_symplectic,
    special_m,
    symplectic_defect,
)
from .oracle import ChirpState, overlap_quadrature, pairwise_unbiased_scan
from .search import (
    CounterexampleFound,
    SearchProblem,
    certify_no_fourth,
    enumerate_triples_n1,
    find_equivalence,
    search_extension,
)
from .symplectic import (
    EXACT,
    NUMERIC,
    DirectionVector,
    MUConfiguration,
    _json_number,
    config_from_json,
    config_to_json,
    overlap_magnitude_sq,
    verify_mu,
)

OK = 0
FALSE = 1
INPUT_ERROR = 2
NO_CONVERGENCE = 3


def _load(path: str, parse: Callable):
    """parse() of the JSON in the file at path; every error names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidProblem(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidProblem(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past int's limit on digits converted from a string
        limit = sys.get_int_max_str_digits()
        raise InvalidProblem(f"{path}: an integer has more than {limit} digits") from exc
    try:
        return parse(data)
    except MubcError as exc:
        raise InvalidProblem(f"{path}: {exc}") from exc


def _strict_json(data):
    """data with every non-finite float as the string "inf", "-inf" or
    "nan": JSON (RFC 8259) has no token for them."""
    if isinstance(data, float) and not math.isfinite(data):
        return str(float(data))
    if isinstance(data, dict):
        return {key: _strict_json(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_strict_json(value) for value in data]
    return data


def _write_json(path: str | None, data) -> None:
    if path:
        text = json.dumps(_strict_json(data), indent=2, allow_nan=False)
        try:
            Path(path).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise InvalidProblem(f"{path}: {exc.strerror or exc}") from exc


def _write_csv(path: str | None, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    if not path:
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    except OSError as exc:
        raise InvalidProblem(f"{path}: {exc.strerror or exc}") from exc


def _load_config(path: str, mode: str | None) -> MUConfiguration:
    config = _load(path, config_from_json)
    if mode and config.mode != mode:
        raise InvalidProblem(
            f"{path}: field 'mode' is {config.mode!r}, --mode requested {mode!r}"
        )
    return config


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    config = _load_config(args.config, args.mode)
    report = verify_mu(config, tolerance=args.tolerance, infer_k=args.infer_k)
    print(f"verdict: {'MU' if report.verdict else 'not MU'}")
    print(f"mode: {report.mode}  vectors: {len(config.vectors)}  N: {config.n}")
    k_text = "inferred " if report.inferred else ""
    print(f"target K: {k_text}{_fmt(report.target_k)}")
    print(f"max relative deviation: {_fmt(report.max_deviation)}")
    if report.parallel_pairs:
        print(f"parallel pairs: {report.parallel_pairs}")
    print(f"{'i':>3} {'j':>3} {'|product|':>22} {'deviation':>12} {'unbiased':>9}")
    for pair in report.pairs:
        print(
            f"{pair.i:>3} {pair.j:>3} {_fmt(pair.magnitude):>22} "
            f"{_fmt(pair.deviation):>12} {_fmt(pair.unbiased):>9}"
        )
    _write_json(args.out, report.to_json())
    _write_csv(
        args.csv,
        ["i", "j", "magnitude", "deviation", "parallel", "unbiased"],
        [
            {
                "i": p.i,
                "j": p.j,
                "magnitude": _fmt(p.magnitude),
                "deviation": p.deviation,
                "parallel": p.parallel,
                "unbiased": p.unbiased,
            }
            for p in report.pairs
        ],
    )
    return OK if report.verdict else FALSE


# -- search ---------------------------------------------------------------


def _pair_residual_table(problem: SearchProblem, report) -> list[dict]:
    vectors = tuple(problem.seeds) + tuple(report.vectors)
    if len(vectors) < 2:
        return []
    combined = MUConfiguration(vectors, problem.target_k, problem.hbar, problem.mode)
    checked = verify_mu(combined, tolerance=1e-6)
    return [
        {
            "i": pair.i,
            "j": pair.j,
            "magnitude": _fmt(pair.magnitude),
            "deviation": pair.deviation,
        }
        for pair in checked.pairs
    ]


def cmd_search(args) -> int:
    problem = _load(args.problem, SearchProblem.from_json)
    report = search_extension(
        problem, budget=args.budget, restarts=args.restarts, seed=args.seed
    )
    print(f"outcome: {report.outcome}")
    print(
        f"evaluations: {report.evaluations}  iterations: {report.iterations}  "
        f"restarts: {report.restarts_used}  wall: {report.wall_time:.3f}s"
    )
    print(f"best objective: {_fmt(report.best_objective)}")
    print(f"residual: {_fmt(report.residual)}")
    for idx, vector in enumerate(report.vectors):
        factors = "  ".join(f"({_fmt(f.q)}, {_fmt(f.p)})" for f in vector.factors)
        print(f"vector {idx}: {factors}")
    blob = report.to_json()
    blob["pair_residuals"] = _pair_residual_table(problem, report)
    _write_json(args.out, blob)
    return OK if report.outcome == "extended" else FALSE


# -- certify-n1 -----------------------------------------------------------


def _triple_directions(config: MUConfiguration, path: str) -> tuple:
    if config.n != 1 or len(config.vectors) != 3:
        raise InvalidProblem(f"{path}: field 'vectors' must hold exactly three N=1 vectors")
    return tuple(v.factors[0] for v in config.vectors)


def cmd_certify(args) -> int:
    config = _load_config(args.config, args.mode)
    a, b, c = _triple_directions(config, args.config)
    if config.target_k is None:
        raise InvalidProblem(f"{args.config}: field 'K' is required")
    result = certify_no_fourth(a, b, c, config.target_k, tolerance=args.tolerance)
    if isinstance(result, CounterexampleFound):
        print("counterexample: a fourth direction exists")
        print(f"direction: ({_fmt(result.direction.q)}, {_fmt(result.direction.p)})")
        print(f"signs: {result.signs}")
        _write_json(args.out, result.to_json())
        return FALSE
    print(f"certificate valid: {_fmt(result.valid)}")
    print(f"{'signs':>12} {'solution':>34} {'residual':>14} {'consistent':>10}")
    for record in result.records:
        sol = f"({_fmt(record.solution.q)}, {_fmt(record.solution.p)})"
        signs = "".join("+" if s > 0 else "-" for s in record.signs)
        print(
            f"{signs:>12} {sol:>34} {_fmt(record.residual):>14} "
            f"{_fmt(record.consistent):>10}"
        )
    _write_json(args.out, result.to_json())
    return OK if result.valid else FALSE


# -- enumerate-n1 ---------------------------------------------------------


def _parse_level(text: str) -> QuadNum:
    try:
        return QuadNum.parse(text, GOLDEN)
    except MubcError as exc:
        raise InvalidProblem(f"field 'k': {exc}") from exc


def cmd_enumerate(args) -> int:
    k = _parse_level(args.k)
    classes = enumerate_triples_n1(k, args.height)
    print(f"equivalence classes at K = {k} within height {args.height}: {len(classes)}")
    rows = []
    for idx, config in enumerate(classes):
        parts = []
        for vector in config.vectors:
            factor = vector.factors[0]
            parts.append(f"({factor.q}, {factor.p})")
            rows.append(
                {"class": idx, "Q": str(factor.q), "P": str(factor.p)}
            )
        print(f"class {idx}: " + "  ".join(parts))
    _write_json(args.out, [config_to_json(c) for c in classes])
    _write_csv(args.csv, ["class", "Q", "P"], rows)
    # empty enumeration is a negative answer, matching search/equivalence
    return OK if classes else FALSE


# -- equivalence ----------------------------------------------------------


def cmd_equivalence(args) -> int:
    config_a = _load_config(args.config_a, args.mode)
    config_b = _load_config(args.config_b, args.mode)
    result = find_equivalence(config_a, config_b, tolerance=args.tolerance)
    if result is None:
        print("no equivalence found")
        _write_json(args.out, None)
        return FALSE
    print(f"scale: {_fmt(result.scale)}")
    print(f"matrix sign: {result.matrix.sign:+d}")
    for row in result.matrix.entries:
        print(f"  [{_fmt(row[0]):>22} {_fmt(row[1]):>22}]")
    print(f"permutation: {list(result.permutation)}")
    print(f"signs: {list(result.signs)}")
    print(f"residual: {_fmt(result.residual)}")
    _write_json(args.out, result.to_json())
    return OK


# -- metaplectic ----------------------------------------------------------


def _symplectic_matrix(data) -> np.ndarray:
    """The stacked matrix of a matrix spec, which must be symplectic."""
    matrix = MetaplecticSpec.from_json(data).stacked()
    if not is_symplectic(matrix):
        raise InvalidProblem(f"matrix is not symplectic: defect {_fmt(symplectic_defect(matrix))}")
    return matrix


def cmd_overlap(args) -> int:
    matrix = _load(args.matrix, _symplectic_matrix)
    defect = symplectic_defect(matrix)
    value = genmu_overlap_sq(matrix, hbar=args.hbar)
    print(f"symplectic defect: {_fmt(defect)}")
    print(f"overlap_sq: {_fmt(value)}")
    _write_json(args.out, {"overlap_sq": value, "hbar": args.hbar, "defect": defect})
    return OK


def cmd_compose(args) -> int:
    matrix_a = _load(args.matrix, _symplectic_matrix)
    matrix_b = _load(args.matrix_b, _symplectic_matrix)
    value = compose_overlap_sq(matrix_a, matrix_b, hbar=args.hbar)
    print(f"composed overlap_sq: {_fmt(value)}")
    _write_json(args.out, {"overlap_sq": value, "hbar": args.hbar})
    return OK


def cmd_special_m(args) -> int:
    hbar = args.hbar
    scalar = Fraction if args.mode == EXACT else float
    try:
        q, p, mu = scalar(args.q), scalar(args.p), scalar(args.mu)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidProblem(f"field 'q/p/mu': {exc}") from exc
    matrix = special_m(q, p, mu)
    print("matrix rows:")
    for row in matrix:
        print(f"  [{_fmt(row[0]):>22} {_fmt(row[1]):>22}]")
    rows = [[float(x) for x in row] for row in matrix]
    # in the matrix's own arithmetic: an exact image is exactly (0, 1)
    dtype = object if args.mode == EXACT else float
    image = np.array(matrix, dtype=dtype) @ np.array([q, p], dtype=dtype)
    print(f"image of (Q, P): ({_fmt(image[0])}, {_fmt(image[1])})")
    # the matrix, not its floats: an exact one is decided in the field
    value = genmu_overlap_sq(matrix, hbar=hbar)
    print(f"overlap_sq: {_fmt(value)}")
    if float(q) != 0.0:
        print(f"formula 1/(2*pi*hbar*|Q|): {_fmt(1.0 / (2.0 * math.pi * hbar * abs(float(q))))}")
    # emit a readable matrix spec; exact entries ride alongside as strings
    blob = {"N": 1, "ordering": "stacked", "rows": rows, "overlap_sq": value, "hbar": hbar}
    if args.mode == EXACT:
        blob["rows_exact"] = [[str(x) for x in row] for row in matrix]
    _write_json(args.out, blob)
    return OK


# -- oracle ---------------------------------------------------------------


def _state_from_json(data, hbar_default: float) -> ChirpState:
    if not isinstance(data, dict):
        raise InvalidProblem("expected a JSON object")

    def number(field: str, default: float | None = None) -> float:
        if field not in data and default is None:
            raise InvalidProblem(f"field {field!r} is required")
        return _json_number(data.get(field, default), f"field {field!r}")

    direction = DirectionVector(number("Q"), number("P"))
    return ChirpState(direction, number("alpha", 0.0), number("hbar", hbar_default))


def _float_list(text: str, field: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidProblem(f"field {field!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InvalidProblem(f"field {field!r}: values must be finite")
    return values


def cmd_oracle_pair(args) -> int:
    parse = functools.partial(_state_from_json, hbar_default=args.hbar)
    state_a = _load(args.state_a, parse)
    state_b = _load(args.state_b, parse)
    epsilons = None
    if args.epsilons:
        epsilons = _float_list(args.epsilons, "epsilons")
    result = overlap_quadrature(state_a, state_b, epsilons=epsilons)
    formula = overlap_magnitude_sq(state_a.direction, state_b.direction, hbar=state_a.hbar)
    print(f"branch: {result.branch}")
    print(f"formula: {_fmt(formula)}")
    print(f"oracle:  {_fmt(result.value)}")
    print(f"error estimate: {_fmt(result.error_estimate)}")
    print(f"converged: {_fmt(result.converged)}")
    if result.epsilon_sequence:
        print(f"{'epsilon':>14} {'|I(eps)|^2':>22}")
        for eps, value in result.epsilon_sequence:
            print(f"{_fmt(eps):>14} {_fmt(value):>22}")
    _write_json(
        args.out,
        {
            "branch": result.branch,
            "formula": formula,
            "value": result.value,
            "error_estimate": result.error_estimate,
            "converged": result.converged,
            "epsilon_sequence": [list(pair) for pair in result.epsilon_sequence],
            "stats": result.stats,
        },
    )
    return OK if result.converged else NO_CONVERGENCE


def cmd_oracle_scan(args) -> int:
    if args.thetas:
        thetas = _float_list(args.thetas, "thetas")
    else:
        thetas = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
    scan = pairwise_unbiased_scan(thetas, hbar=args.hbar, tolerance=args.tolerance)
    print(f"{'theta_a':>10} {'theta_b':>10} {'formula':>16} {'oracle':>16} {'agree':>7}")
    for row in scan.rows:
        if row.parallel:
            print(f"{row.theta_a:>10.6f} {row.theta_b:>10.6f} {'parallel':>16} {'':>16} {'':>7}")
            continue
        print(
            f"{row.theta_a:>10.6f} {row.theta_b:>10.6f} {_fmt(row.formula):>16} "
            f"{_fmt(row.oracle):>16} {_fmt(row.agree):>7}"
        )
    print(f"all agree: {_fmt(scan.all_agree)}")
    _write_json(args.out, scan.to_json())
    _write_csv(
        args.csv,
        ["theta_a", "theta_b", "separation", "parallel", "formula", "oracle", "oracle_error", "agree"],
        [
            {
                "theta_a": r.theta_a,
                "theta_b": r.theta_b,
                "separation": r.separation,
                "parallel": r.parallel,
                "formula": r.formula,
                "oracle": r.oracle,
                "oracle_error": r.oracle_error,
                "agree": r.agree,
            }
            for r in scan.rows
        ],
    )
    return OK if scan.all_agree else FALSE


# -- reproduce ------------------------------------------------------------


def cmd_reproduce(args) -> int:
    hbar, tolerance = args.hbar, args.tolerance
    entries = build_manifest(hbar=hbar, tolerance=tolerance, include_search=args.include_search)
    width = max(len(e.claim) for e in entries)
    print(f"hbar = {_fmt(hbar)}, tolerance = {_fmt(tolerance)}")
    for entry in entries:
        status = "PASS" if entry.passed else "FAIL"
        print(f"{status}  {entry.claim:<{width}}  {entry.computed}")
    all_passed = all(e.passed for e in entries)
    print(f"{'all claims pass' if all_passed else 'some claims FAILED'}")
    if args.out or args.csv:
        claims = [asdict(e) for e in entries]
        _write_json(args.out, {"hbar": hbar, "tolerance": tolerance, "all_passed": all_passed, "claims": claims})
        _write_csv(args.csv, [f.name for f in fields(ManifestEntry)], claims)
    return OK if all_passed else FALSE


# -- parser ---------------------------------------------------------------


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _hbar_flag(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _tolerance_flag(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _command(sub, name: str, handler: Callable, help: str, *, hbar: bool = False,
             tolerance: float | None = None, mode: bool = False) -> argparse.ArgumentParser:
    """A leaf command bound to its handler, with --out and those of --hbar,
    --tolerance (at the command's own default) and --mode that it reads."""
    parser = sub.add_parser(name, help=help)
    if hbar:
        parser.add_argument("--hbar", type=_hbar_flag, default=1.0, help="Planck constant scale (default 1)")
    if tolerance is not None:
        parser.add_argument("--tolerance", type=_tolerance_flag, default=tolerance,
                            help=f"relative tolerance (default {tolerance:g})")
    if mode:
        parser.add_argument("--mode", choices=(EXACT, NUMERIC), help="arithmetic mode")
    parser.add_argument("--out", help="write the JSON result to this path")
    parser.set_defaults(handler=handler)
    return parser


class _Parser(argparse.ArgumentParser):
    """argparse, except that a parser with no flags of its own (the root and
    the metaplectic and oracle groups) names a flag given to it. Plain
    argparse skips the flag and reads its value as the command."""

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        first = args[0] if args else ""
        flagless = all(a.option_strings in ([], ["-h", "--help"]) for a in self._actions)
        help_flag = first == "-h" or (len(first) > 2 and "--help".startswith(first))
        if flagless and first.startswith("-") and first not in ("-", "--") and not help_flag:
            self.error(f"unrecognized arguments: {first} (a flag goes after the command it belongs to)")
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The mubc argument parser, built once per process: parsing keeps no
    state in it, handlers come from set_defaults and the type functions
    are pure."""
    parser = _Parser(
        prog="mubc",
        description="Mutually unbiased continuous-variable bases: verification, "
        "search, metaplectic overlaps, and a numerical oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = _command(sub, "verify", cmd_verify, "verify a configuration file", tolerance=1e-12, mode=True)
    p_verify.add_argument("config", help="configuration JSON path")
    p_verify.add_argument("--infer-k", action="store_true", help="infer K from the first pair")
    p_verify.add_argument("--csv", help="write pair rows as CSV")

    p_search = _command(sub, "search", cmd_search, "search for extension vectors")
    p_search.add_argument("problem", help="search problem JSON path")
    p_search.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    p_search.add_argument("--budget", type=int, default=200000, help="evaluation budget")
    p_search.add_argument("--restarts", type=int, default=40, help="descent restarts")

    p_certify = _command(sub, "certify-n1", cmd_certify, "certify no fourth direction joins an N=1 triple",
                         tolerance=1e-12, mode=True)
    p_certify.add_argument("config", help="triple configuration JSON path")

    p_enum = _command(sub, "enumerate-n1", cmd_enumerate, "enumerate golden-lattice triples up to equivalence")
    p_enum.add_argument("--k", default="1", help="target level, e.g. '1' or '1 + 1R'")
    p_enum.add_argument("--height", type=int, default=1, help="lattice height bound")
    p_enum.add_argument("--csv", help="write vector rows as CSV")

    p_equiv = _command(sub, "equivalence", cmd_equivalence, "find a linear equivalence between two triples",
                       tolerance=1e-10, mode=True)
    p_equiv.add_argument("config_a", help="first triple JSON path")
    p_equiv.add_argument("config_b", help="second triple JSON path")

    p_meta = sub.add_parser("metaplectic", help="metaplectic overlap computations")
    meta = p_meta.add_subparsers(required=True)
    m_overlap = _command(meta, "overlap", cmd_overlap, "overlap of one matrix", hbar=True)
    m_overlap.add_argument("matrix", help="matrix spec JSON path")
    m_compose = _command(meta, "compose", cmd_compose, "relative overlap of two matrices", hbar=True)
    m_compose.add_argument("matrix", help="first matrix spec JSON path")
    m_compose.add_argument("matrix_b", help="second matrix spec JSON path")
    m_special = _command(meta, "special-m", cmd_special_m, "normal form sending (Q,P) to (0,1)",
                         hbar=True, mode=True)
    m_special.add_argument("--q", required=True, help="Q component")
    m_special.add_argument("--p", required=True, help="P component")
    m_special.add_argument("--mu", default="0", help="residual shear parameter")

    p_oracle = sub.add_parser("oracle", help="numerical overlap oracle")
    oracle = p_oracle.add_subparsers(required=True)
    o_pair = _command(oracle, "pair", cmd_oracle_pair, "overlap of two states", hbar=True)
    o_pair.add_argument("state_a", help="first state JSON path")
    o_pair.add_argument("state_b", help="second state JSON path")
    o_pair.add_argument("--epsilons", help="comma-separated damping values")
    o_scan = _command(oracle, "scan", cmd_oracle_scan, "all-pairs angle scan", hbar=True, tolerance=1e-5)
    o_scan.add_argument("--thetas", help="comma-separated angles (radians)")
    o_scan.add_argument("--csv", help="write scan rows as CSV")

    p_repro = _command(sub, "reproduce", cmd_reproduce, "recompute every bundled numeric claim",
                       hbar=True, tolerance=1e-9)
    p_repro.add_argument("--csv", help="write claim rows as CSV")
    p_repro.add_argument("--include-search", action="store_true",
                         help="also run the slower search-recovery claims")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MubcError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
