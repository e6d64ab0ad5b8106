"""Command-line front end.

Subcommands: ``probs``, ``entropies``, ``rate``, ``sweep``, ``verify``.
Output is CSV on stdout (or a file for sweeps) with a single ``#`` comment
line recording the invocation, 12 significant digits, no locale formatting.
Exit status: 0 success, 1 parameter error, 2 verification failure,
3 optimizer non-convergence. Entropies and rates are in bits per channel
use. An optimized ``rate`` or ``sweep --variable n --quantity rate`` makes
one ``optimize_rate`` call for all its estimators and block sizes, so each
grid amplitude is built once and each estimator's entropy grid is computed
once; rows come by n, then by estimator as listed.
"""

from __future__ import annotations

import argparse
import copy
import functools
import math
import sys
import warnings

import numpy as np

from . import entropies, oracles, rates
from .states import ProtocolParams, build_ensemble, cond_prob_table

PROTOCOL_SIZES = {"bpsk": 2, "qpsk": 4}

EXIT_OK = 0
EXIT_PARAMS = 1
EXIT_VERIFY = 2
EXIT_NONCONVERGED = 3


class _ParameterError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise _ParameterError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _emit(stream, invocation: str, header: list[str], rows) -> None:
    stream.write(f"# pskrates {invocation}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _protocol_params(args) -> ProtocolParams:
    return ProtocolParams(n_states=PROTOCOL_SIZES[args.protocol],
                          alpha=args.alpha, eta=args.eta)


def _add_protocol_flags(parser, with_alpha=True):
    parser.add_argument("--protocol", choices=("bpsk", "qpsk"), required=True,
                        help="modulation: bpsk (N=2) or qpsk (N=4)")
    if with_alpha:
        parser.add_argument("--alpha", type=float, required=True,
                            help="coherent amplitude, >= 0")
    parser.add_argument("--eta", type=float, required=True,
                        help="channel transmittance in [0, 1]")


def _add_security_flags(parser):
    parser.add_argument("--eps", type=float, default=1e-8,
                        help="smoothing failure parameter in (0, 1), default 1e-8")
    parser.add_argument("--eps-prime", type=float, default=1e-8,
                        help="hashing failure parameter in (0, 1), default 1e-8")


def _entropy_row(params: ProtocolParams, order: float, path: str) -> list:
    row = [params.eta, params.alpha, order]
    if path in ("numeric", "both"):
        numeric = entropies.entropy_report(build_ensemble(params), order)
        row += [numeric.petz_down, numeric.petz_up, numeric.sand_down,
                numeric.sand_up, numeric.von_neumann, numeric.bound_b]
    if path in ("analytic", "both"):
        analytic = entropies.bpsk_closed_forms(params, order)
        if path == "analytic":
            row += [analytic.petz_down, analytic.petz_up, analytic.sand_down,
                    None, None, None]
    if path == "both":
        row += [abs(analytic.petz_down - numeric.petz_down),
                abs(analytic.petz_up - numeric.petz_up),
                abs(analytic.sand_down - numeric.sand_down)]
    return row


def _entropy_header(args) -> list[str]:
    if args.path in ("analytic", "both") and args.protocol != "bpsk":
        raise _ParameterError("the analytic path exists for bpsk only")
    header = ["eta", "alpha", "a", "petz_down", "petz_up", "sand_down", "sand_up", "vn", "B"]
    return header + (["d_petz_down", "d_petz_up", "d_sand_down"] if args.path == "both" else [])


def _cmd_probs(args) -> int:
    table = cond_prob_table(_protocol_params(args))
    n = table.shape[0]
    rows = [[y, x, table[y, x]] for y in range(n) for x in range(n)]
    _emit(sys.stdout, args._invocation, ["y", "x", "p"], rows)
    return EXIT_OK


def _cmd_entropies(args) -> int:
    params = _protocol_params(args)
    header = _entropy_header(args)
    row = _entropy_row(params, args.order, args.path)
    _emit(sys.stdout, args._invocation, header, [row])
    return EXIT_OK


_RATE_HEADER = ["estimator", "n", "eta", "rate", "alpha_opt", "a_opt", "leak",
                "key_possible"]


def _single_rates(args, specs: list[rates.Estimator], ns: list[float]) -> list:
    """Results by n, then by estimator, at the fixed (alpha, order); only key_rate runs per n."""
    if args.alpha is None:
        raise _ParameterError("--alpha is required without --optimize")
    params = _protocol_params(args)
    ensemble, leak = build_ensemble(params), rates.leak(params)
    hs = [spec.entropy(ensemble, args.order) for spec in specs]
    results = []
    for n in ns:
        sp = rates.SecurityParams(n=n, eps=args.eps, eps_prime=args.eps_prime, a=args.order)
        for spec, h in zip(specs, hs):
            value = spec.key_rate(h, sp, params.n_states, leak)
            a_opt = args.order if spec.takes_order else None
            results.append(rates.RateResult(spec.name, value, args.alpha, a_opt, leak, value > 0.0))
    return results


def _rate_rows(args, ns: list[float]) -> list:
    """One row per block size and listed estimator, in that order."""
    specs = [rates.estimator_spec(name) for name in args.estimator.split(",")]
    if args.optimize:
        results = rates.optimize_rate(args.estimator, PROTOCOL_SIZES[args.protocol], args.eta,
                                      ns, args.eps, args.eps_prime, args.a_max)
    else:
        results = _single_rates(args, specs, ns)
    return [[r.estimator, n, args.eta, r.rate, r.alpha_opt, r.a_opt, r.leak, r.key_possible]
            for n, r in zip([n for n in ns for _ in specs], results)]


def _cmd_rate(args) -> int:
    _emit(sys.stdout, args._invocation, _RATE_HEADER, _rate_rows(args, [args.n]))
    return EXIT_OK


def _sweep_grid(args) -> np.ndarray:
    if args.points < 2:
        raise _ParameterError("a sweep needs at least 2 points")
    if args.from_ >= args.to:
        raise _ParameterError("--from must be smaller than --to")
    if args.scale == "log":
        if args.from_ <= 0:
            raise _ParameterError("log scale requires --from > 0")
        return np.logspace(math.log10(args.from_), math.log10(args.to), args.points)
    return np.linspace(args.from_, args.to, args.points)


def _sweep_point(args, value: float) -> list:
    """Rows of one grid point of an eta, alpha or a sweep."""
    args = copy.copy(args)
    setattr(args, args.variable if args.variable != "a" else "order", value)
    if args.quantity == "entropies":
        return [_entropy_row(_protocol_params(args), args.order, args.path)]
    return _rate_rows(args, [args.n])


def _cmd_sweep(args) -> int:
    grid = _sweep_grid(args).tolist()
    if args.eta is None and args.variable != "eta":
        raise _ParameterError("--eta is required unless it is the swept variable")
    if args.quantity == "entropies":
        header = _entropy_header(args)
        if args.variable == "n":
            raise _ParameterError("entropies do not depend on n; sweep eta, alpha or a")
        if args.alpha is None and args.variable != "alpha":
            raise _ParameterError("entropy sweeps need --alpha unless it is swept")
    else:
        header = _RATE_HEADER
        if args.optimize and args.variable in ("alpha", "a"):
            raise _ParameterError(f"--optimize searches alpha and a itself; "
                                  f"sweep eta or n instead of {args.variable}")
        if not args.optimize and args.alpha is None and args.variable != "alpha":
            raise _ParameterError("rate sweeps need --alpha or --optimize")

    rows = (_rate_rows(args, grid) if args.variable == "n"  # one call for all n
            else [row for value in grid for row in _sweep_point(args, value)])
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                _emit(fh, args._invocation, header, rows)
        except OSError as exc:
            raise _ParameterError(f"cannot write output file: {exc}") from exc
    else:
        _emit(sys.stdout, args._invocation, header, rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # checked before any suite prints, so that no check passes vacuously
    if args.duality_states < 2:
        raise _ParameterError("--duality-states must be >= 2")
    if args.analytic_grid < 1:
        raise _ParameterError("--analytic-grid must be >= 1")
    failures = []
    out = sys.stdout

    def check(name, ok, detail):
        status = "pass" if ok else "FAIL"
        out.write(f"{status}  {name}: {detail}\n")
        if not ok:
            failures.append(name)

    if args.suite in ("mc", "all"):
        for protocol, n_states in PROTOCOL_SIZES.items():
            params = ProtocolParams(n_states=n_states, alpha=args.alpha, eta=args.eta)
            cfg = oracles.McConfig(shots=args.shots, seed=args.seed, params=params)
            sampler = (oracles.sample_homodyne_bpsk if n_states == 2
                       else oracles.sample_heterodyne_qpsk)
            report = sampler(cfg)
            check(f"mc/{protocol}", report.max_sigma_units <= 4.0,
                  f"max deviation {report.max_sigma_units:.3f} binomial sigma "
                  f"(tolerance 4) at {args.shots} shots per symbol")

    if args.suite in ("duality", "all"):
        report = oracles.duality_suite(range(2 * args.seed, 2 * args.seed + args.duality_states))
        for name, residual in (("petz", report.petz_residual), ("mixed", report.mixed_residual),
                               ("sandwich", report.sandwich_residual)):
            check(f"duality/{name}", residual <= report.tol,
                  f"max residual {residual:.3e} over {report.states_tested} states "
                  f"(tolerance {report.tol:g})")

    if args.suite in ("analytic", "all"):
        worst = 0.0
        grid = np.linspace(0.12, 3.0, args.analytic_grid)
        etas = np.linspace(0.01, 0.99, args.analytic_grid)
        for alpha in grid:
            for eta in etas:
                params = ProtocolParams(n_states=2, alpha=float(alpha), eta=float(eta))
                ensemble = build_ensemble(params)
                for order in (1.1, 1.3, 1.5, 1.8, 2.0):
                    closed = entropies.bpsk_closed_forms(params, order)
                    worst = max(
                        worst,
                        abs(closed.petz_down - entropies.petz_down_cq(ensemble, order)),
                        abs(closed.petz_up - entropies.petz_up_cq(ensemble, order)),
                        abs(closed.sand_down - entropies.sandwiched_down_cq(ensemble, order)),
                    )
        check("analytic/bpsk-closed-forms", worst <= 1e-10,
              f"max |analytic - numeric| {worst:.3e} over "
              f"{args.analytic_grid}x{args.analytic_grid}x5 grid (tolerance 1e-10)")

    if args.suite in ("analytic", "all"):
        erf_worst = max(abs(oracles.erf_oracle(x) - math.erf(x))
                        for x in np.linspace(-6.0, 6.0, 20001))
        check("analytic/erf", erf_worst <= 2e-15,
              f"max |series - libm| {erf_worst:.3e} (tolerance 2e-15)")

    out.write(f"{len(failures)} failure(s)\n")
    return EXIT_OK if not failures else EXIT_VERIFY


def _apply_config(argv: list[str]) -> list[str]:
    """Fold key=value config lines in as defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _ParameterError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    if not rest:
        raise _ParameterError("--config requires a subcommand")
    try:
        with open(path, encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise _ParameterError(f"cannot read config file: {exc}") from exc
    injected = []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _ParameterError(f"config lines must be key=value, got {line!r}")
        key, value = line.split("=", 1)
        injected += [f"--{key.strip()}", value.strip()]
    return [rest[0]] + injected + rest[1:]


def build_parser() -> _Parser:
    parser = _Parser(prog="pskrates",
                     description="Finite-size key-rate bounds for BPSK/QPSK "
                                 "CV-QKD over a pure-loss channel. All rates "
                                 "and entropies are in bits per channel use.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="conditional probability table p(y|x)")
    _add_protocol_flags(p)

    p = sub.add_parser("entropies",
                       help="entropy functionals at one parameter point, in bits")
    _add_protocol_flags(p)
    p.add_argument("--order", "--a", dest="order", type=float, default=1.2,
                   help="Renyi order a > 0, a != 1 (default 1.2); sand_up needs "
                        "a >= 1/2 and is nan below")
    p.add_argument("--path", choices=("numeric", "analytic", "both"),
                   default="numeric",
                   help="evaluation path; analytic is bpsk-only closed forms, which exit 1 "
                        "where they overflow: 2 alpha^2 (1-eta) > ~354, or a far from 1")

    p = sub.add_parser("rate", help="key-rate bound in bits per channel use")
    _add_protocol_flags(p, with_alpha=False)
    p.add_argument("--estimator", default="S",
                   help="comma list from S, AEP, B (default S)")
    p.add_argument("--n", type=float, required=True, help="block size, >= 1")
    p.add_argument("--alpha", type=float, help="amplitude for single-point mode")
    p.add_argument("--order", "--a", dest="order", type=float,
                   help="Renyi order for single-point S (a > 1) or B (1 < a < 2)")
    p.add_argument("--optimize", action="store_true",
                   help="maximize over alpha in [0.05, 3] and the order")
    p.add_argument("--a-max", type=float, default=None,
                   help="order search cap for S (default 4, up to 64)")
    _add_security_flags(p)

    p = sub.add_parser("sweep", help="CSV sweep over eta, n, alpha or a")
    p.add_argument("--variable", choices=("eta", "n", "alpha", "a"), required=True)
    p.add_argument("--from", dest="from_", type=float, required=True,
                   help="sweep start (exclusive of --to)")
    p.add_argument("--to", type=float, required=True, help="sweep end")
    p.add_argument("--points", type=int, required=True, help=">= 2 grid points")
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--quantity", choices=("entropies", "rate"), required=True)
    p.add_argument("--protocol", choices=("bpsk", "qpsk"), required=True)
    p.add_argument("--alpha", type=float, help="fixed amplitude")
    p.add_argument("--eta", type=float, help="fixed transmittance in [0, 1]")
    p.add_argument("--order", "--a", dest="order", type=float, default=1.2,
                   help="fixed Renyi order")
    p.add_argument("--n", type=float, default=1e6, help="fixed block size")
    p.add_argument("--estimator", default="S", help="comma list from S, AEP, B")
    p.add_argument("--optimize", action="store_true",
                   help="re-optimize (alpha, a) at every grid point")
    p.add_argument("--a-max", type=float, default=None)
    p.add_argument("--path", choices=("numeric", "analytic", "both"),
                   default="numeric")
    p.add_argument("--output", help="write CSV here instead of stdout")
    _add_security_flags(p)

    p = sub.add_parser("verify", help="run the independent oracle suites")
    p.add_argument("--suite", choices=("mc", "duality", "analytic", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=20250101, help="base RNG seed")
    p.add_argument("--shots", type=int, default=1_000_000,
                   help="Monte-Carlo shots per input symbol")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=0.9)
    p.add_argument("--duality-states", type=int, default=200,
                   help="number of random tripartite states, >= 2")
    p.add_argument("--analytic-grid", type=int, default=20,
                   help="grid points per axis for the closed-form check, >= 1")

    return parser


#: the parser is built on the first ``main`` call and serves every later one
_parser = functools.cache(build_parser)

_COMMANDS = {
    "probs": _cmd_probs,
    "entropies": _cmd_entropies,
    "rate": _cmd_rate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        expanded = _apply_config(argv)
        args = _parser().parse_args(expanded)
        args._invocation = " ".join(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("error", entropies.ConvergenceWarning)
            return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except entropies.ConvergenceWarning as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
