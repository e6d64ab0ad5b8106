"""Command-line front end.

Subcommands: ``probs``, ``entropies``, ``rate``, ``sweep``, ``verify``.
Output is CSV on stdout (or a file for sweeps) with a single ``#`` comment
line recording the invocation, 12 significant digits, no locale formatting.
Exit status: 0 success, 1 parameter error, 2 verification failure,
3 optimizer non-convergence. Entropies and rates are in bits per channel
use. The PSKRATES_WORKERS environment variable sets the sweep worker-pool
size (default 1; rows are emitted in input order either way).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

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


def _add_protocol_flags(parser, with_alpha=True, with_eta=True):
    parser.add_argument("--protocol", choices=("bpsk", "qpsk"), required=True,
                        help="modulation: bpsk (N=2) or qpsk (N=4)")
    if with_alpha:
        parser.add_argument("--alpha", type=float, required=True,
                            help="coherent amplitude, >= 0")
    if with_eta:
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
    _emit(sys.stdout, _invocation(args), ["y", "x", "p"], rows)
    return EXIT_OK


def _cmd_entropies(args) -> int:
    params = _protocol_params(args)
    header = _entropy_header(args)
    row = _entropy_row(params, args.order, args.path)
    _emit(sys.stdout, _invocation(args), header, [row])
    return EXIT_OK


_RATE_HEADER = ["estimator", "n", "eta", "rate", "alpha_opt", "a_opt", "leak",
                "key_possible"]


def _single_rate(args, spec: rates.Estimator) -> rates.RateResult:
    if args.alpha is None:
        raise _ParameterError("--alpha is required without --optimize")
    if spec.takes_order and args.order is None:
        raise _ParameterError(f"--order is required for estimator {spec.name}")
    params = _protocol_params(args)
    sp = rates.SecurityParams(n=args.n, eps=args.eps, eps_prime=args.eps_prime,
                              a=args.order)
    value = spec.rate(build_ensemble(params), sp)
    return rates.RateResult(estimator=spec.name, rate=value, alpha_opt=args.alpha,
                            a_opt=args.order if spec.takes_order else None,
                            leak=rates.leak(params), key_possible=value > 0.0)


def _rate_rows(args) -> tuple[list, bool]:
    """One row per listed estimator, optimized or at the given point."""
    specs = [rates.estimator_spec(name) for name in args.estimator.split(",")]
    rows = []
    converged = True
    for spec in specs:
        if args.optimize:
            result = rates.optimize_rate(
                spec.name, PROTOCOL_SIZES[args.protocol], args.eta, args.n,
                eps=args.eps, eps_prime=args.eps_prime, a_max=args.a_max)
        else:
            result = _single_rate(args, spec)
        converged = converged and result.converged
        rows.append([result.estimator, args.n, args.eta, result.rate, result.alpha_opt,
                     result.a_opt, result.leak, result.key_possible])
    return rows, converged


def _cmd_rate(args) -> int:
    rows, converged = _rate_rows(args)
    _emit(sys.stdout, _invocation(args), _RATE_HEADER, rows)
    return EXIT_OK if converged else EXIT_NONCONVERGED


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


def _sweep_point(payload):
    """Evaluate one sweep grid point; module-level for process pools."""
    kind, value, vars_dict = payload
    args = argparse.Namespace(**vars_dict)
    setattr(args, args.variable if args.variable != "a" else "order", value)
    if kind == "entropies":
        return [_entropy_row(_protocol_params(args), args.order, args.path)], True
    return _rate_rows(args)


def _cmd_sweep(args) -> int:
    grid = _sweep_grid(args)
    if args.eta is None and args.variable != "eta":
        raise _ParameterError("--eta is required unless it is the swept variable")
    if args.quantity == "entropies":
        header = _entropy_header(args)
        if args.alpha is None and args.variable != "alpha":
            raise _ParameterError("entropy sweeps need --alpha unless it is swept")
    else:
        header = _RATE_HEADER
        if args.optimize and args.variable in ("alpha", "a"):
            raise _ParameterError(f"--optimize searches alpha and a itself; "
                                  f"sweep eta or n instead of {args.variable}")
        if not args.optimize and args.alpha is None and args.variable != "alpha":
            raise _ParameterError("rate sweeps need --alpha or --optimize")

    payloads = [(args.quantity, float(v), vars(args)) for v in grid]
    workers = int(os.environ.get("PSKRATES_WORKERS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]

    rows = [row for chunk, _ in results for row in chunk]
    converged = all(ok for _, ok in results)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            _emit(fh, _invocation(args), header, rows)
    else:
        _emit(sys.stdout, _invocation(args), header, rows)
    return EXIT_OK if converged else EXIT_NONCONVERGED


def _cmd_verify(args) -> int:
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
        seeds = range(args.seed, args.seed + args.duality_states // 2)
        report = oracles.duality_suite(seeds)
        check("duality/petz", report.petz_residual <= report.petz_tol,
              f"max residual {report.petz_residual:.3e} (tolerance {report.petz_tol:g})")
        check("duality/mixed", report.mixed_residual <= report.mixed_tol,
              f"max residual {report.mixed_residual:.3e} (tolerance {report.mixed_tol:g})")
        check("duality/sandwich", report.sandwich_residual <= report.sandwich_tol,
              f"max residual {report.sandwich_residual:.3e} "
              f"(tolerance {report.sandwich_tol:g})")

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


def _invocation(args) -> str:
    return args._invocation


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
                   help="evaluation path; analytic is bpsk-only closed forms")

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
                   help="number of random tripartite states")
    p.add_argument("--analytic-grid", type=int, default=20,
                   help="grid points per axis for the closed-form check")

    return parser


_COMMANDS = {
    "probs": _cmd_probs,
    "entropies": _cmd_entropies,
    "rate": _cmd_rate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        expanded = _apply_config(argv)
        args = parser.parse_args(expanded)
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
