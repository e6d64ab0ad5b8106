"""Workload inputs, generated from the seed, and the checks on every item.

An item is one ``pskrates`` CLI invocation. A round is a fixed mix of item
kinds; every round of a run draws fresh parameter values from
``numpy.random.default_rng([seed, stream, round])``, so a seed fixes every
input of a run and a run of any length attempts whole rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference

ETA = 0.9
#: the block-size axis log10(n) in [2, 8] is split into this many bins
BINS = 6
#: S order cap by default and the B order cap (the continuity pole is at 2)
A_MAX = {"S": 4.0, "B": 2.0 - 1e-6}
#: one item that exits 3 on every run; it is a program fault, not an input
#: choice, so it keeps the same arguments whatever the seed
KNOWN_FAULT = ("rate", "--protocol", "bpsk", "--estimator", "S", "--n", "316.23",
               "--eta", "0.9", "--optimize", "--a-max", "64")
DUALITY_STATES = 16

TOL = 1e-9          # absolute tolerance on bits for reference comparisons
D_TOL = 1e-10       # analytic-versus-numeric differences printed by --path both


@dataclass(frozen=True)
class Item:
    argv: tuple
    kind: str                  # "rate", "entropies" or "verify"
    round: int
    protocol: str = ""
    fault_exit: int = 0        # nonzero for KNOWN_FAULT; exiting 0 there counts as mended


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def block_sizes(seed: int, r: int) -> tuple[list[str], str]:
    """Round r's BPSK grid (one n per log bin) and its single QPSK block size.

    Points sit in the middle 70% of their bin, so neighbours differ by at
    least a factor 2. The QPSK point visits the bins in a seeded order.
    """
    rng = np.random.default_rng([seed, 0, r])
    width = 6.0 / BINS
    bpsk = 10.0 ** (2.0 + width * (np.arange(BINS) + rng.uniform(0.15, 0.85, BINS)))
    q_bin = np.random.default_rng([seed, 0]).permutation(BINS)[r % BINS]
    qpsk = 10.0 ** (2.0 + width * (q_bin + rng.uniform(0.15, 0.85)))
    return [_fmt(n) for n in bpsk], _fmt(qpsk)


def _rate_items(seed: int, r: int, estimator: str) -> list[Item]:
    bpsk, qpsk = block_sizes(seed, r)
    return [Item(("rate", "--protocol", protocol, "--estimator", estimator, "--n", n,
                  "--eta", str(ETA), "--optimize"), "rate", r, protocol)
            for protocol, n in [("bpsk", n) for n in bpsk] + [("qpsk", qpsk)]]


def keyrate_s(seed: int, r: int) -> list[Item]:
    """Six BPSK and one QPSK optimized S rate, then the known fault."""
    return _rate_items(seed, r, "S") + [Item(KNOWN_FAULT, "rate", r, "bpsk", fault_exit=3)]


def keyrate_b_aep(seed: int, r: int) -> list[Item]:
    """The same block sizes as keyrate-s, AEP and B in one invocation each."""
    return _rate_items(seed, r, "AEP,B")


def _stratified(rng, count: int, lo: float, hi: float) -> np.ndarray:
    width = (hi - lo) / count
    return lo + width * (np.arange(count) + rng.uniform(0.0, 1.0, count))


def curves_oracles(seed: int, r: int) -> list[Item]:
    """12 BPSK and 6 QPSK entropy points, then the mc, duality and analytic suites."""
    rng = np.random.default_rng([seed, 1, r])
    alpha = _fmt(rng.uniform(0.5, 1.5))
    orders = [rng.uniform(0.5, 0.95), rng.uniform(1.05, 2.0), rng.uniform(2.0, 4.0)]
    items = []
    for protocol, path, etas, ords in (
            ("bpsk", "both", _stratified(rng, 4, 0.02, 0.98), orders),
            ("qpsk", "numeric", _stratified(rng, 3, 0.02, 0.98), orders[:2])):
        for eta in etas:
            for order in ords:
                items.append(Item(("entropies", "--protocol", protocol, "--alpha", alpha,
                                   "--eta", _fmt(eta), "--order", _fmt(order),
                                   "--path", path), "entropies", r, protocol))
    # the oracle suites keep the CLI's default seeds whatever --seed is: with
    # seeded draws they fail by chance (mc, a 4-sigma test) or on rare states
    # (duality, see README), and a failure share must not vary with the seed
    items += [
        Item(("verify", "--suite", "mc"), "verify", r),
        Item(("verify", "--suite", "duality", "--duality-states", str(DUALITY_STATES)),
             "verify", r),
        Item(("verify", "--suite", "analytic"), "verify", r),
    ]
    return items


def _single_rates(estimators):
    return [("rate", "--protocol", protocol, "--estimator", est, "--n", "1e4", "--eta", "0.9",
             "--alpha", "1", "--order", "1.5") for protocol in ("bpsk", "qpsk") for est in estimators]


#: cheap invocations that touch each workload's code paths once before timing
WARMUP = {
    "keyrate-s": _single_rates(("S",)),
    "keyrate-b-aep": _single_rates(("AEP", "B")),
    "curves-oracles": [
        ("entropies", "--protocol", "bpsk", "--alpha", "1", "--eta", "0.5", "--order", "1.5",
         "--path", "both"),
        ("entropies", "--protocol", "qpsk", "--alpha", "1", "--eta", "0.5", "--order", "1.5"),
        ("verify", "--suite", "mc", "--shots", "1000"),
        ("verify", "--suite", "duality", "--duality-states", "2"),
        ("verify", "--suite", "analytic", "--analytic-grid", "2"),
    ],
}

WORKLOADS = {
    "keyrate-s": keyrate_s,
    "keyrate-b-aep": keyrate_b_aep,
    "curves-oracles": curves_oracles,
}


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; an empty list means correct.
# ---------------------------------------------------------------------------


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _csv(item: Item, out: str):
    lines = out.splitlines()
    if not lines or lines[0] != "# pskrates " + " ".join(item.argv):
        raise ValueError("missing or wrong '# pskrates' invocation header")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class Checker:
    """Holds the reference values that the checks compare against."""

    def __init__(self):
        self._asymptotic = {}

    def asymptotic(self, n_states: int) -> float:
        if n_states not in self._asymptotic:
            self._asymptotic[n_states] = reference.asymptotic_rate(n_states, ETA)[0]
        return self._asymptotic[n_states]

    def check(self, records) -> list[str]:
        """records: (item, exit code, stdout, stderr, seconds) for every attempt."""
        problems = []
        seen = {}
        curves = {}
        for item, code, out, err, _ in records:
            where = " ".join(item.argv)
            if item.argv in seen and seen[item.argv] != (code, out):
                problems.append(f"{where}: output differs between identical invocations")
            seen[item.argv] = (code, out)
            if code != 0:
                if code != item.fault_exit:
                    problems.append(f"{where}: exit {code}: {err.strip()[:200]}")
                continue
            try:
                if item.kind == "rate":
                    for row in _csv(item, out):
                        problems += [f"{where}: {p}" for p in self._rate_row(item, row)]
                        if item.fault_exit == 0:
                            # a BPSK curve is one round; the QPSK point visits
                            # every bin once in BINS consecutive rounds
                            group = item.round if item.protocol == "bpsk" else item.round // BINS
                            key = (item.protocol, row["estimator"], group)
                            curves.setdefault(key, []).append((float(row["n"]), float(row["rate"])))
                elif item.kind == "entropies":
                    for row in _csv(item, out):
                        problems += [f"{where}: {p}" for p in self._entropy_row(item, row)]
                else:
                    problems += [f"{where}: {p}" for p in _verify_output(item, out)]
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"{where}: unreadable output ({exc!r})")
        problems += _monotone(curves)
        return problems

    def _rate_row(self, item: Item, row: dict) -> list[str]:
        out = []
        n_states = 2 if item.protocol == "bpsk" else 4
        est = row["estimator"]
        n, rate = float(row["n"]), float(row["rate"])
        alpha, leak = float(row["alpha_opt"]), float(row["leak"])
        if not math.isfinite(rate):
            out.append(f"{est}: rate {rate} is not finite")
        if row["key_possible"] != ("true" if rate > 0.0 else "false"):
            out.append(f"{est}: key_possible={row['key_possible']} with rate {rate}")
        if not reference.ALPHA_BOX[0] <= alpha <= reference.ALPHA_BOX[1]:
            out.append(f"{est}: alpha_opt {alpha} outside {reference.ALPHA_BOX}")
        if est == "AEP":
            if row["a_opt"] != "":
                out.append(f"AEP: a_opt {row['a_opt']!r} should be empty")
        else:
            a_max = float(_option(item.argv, "--a-max", A_MAX["S"])) if est == "S" else A_MAX["B"]
            if not 1.0 < float(row["a_opt"]) <= a_max:
                out.append(f"{est}: a_opt {row['a_opt']} outside (1, {a_max}]")
        ref_leak = reference.leak(n_states, alpha, ETA)
        if abs(leak - ref_leak) > TOL:
            out.append(f"{est}: leak {leak} != reference {ref_leak}")
        ceiling = self.asymptotic(n_states) + reference.hash_term(n)
        if est == "AEP":
            expect = ceiling - reference.aep_correction(n_states, n)
            if abs(rate - expect) > 1e-8:
                out.append(f"AEP: rate {rate} != reference {expect}")
        elif rate > ceiling + TOL:
            out.append(f"{est}: rate {rate} above asymptotic rate + hash term {ceiling}")
        return out

    def _entropy_row(self, item: Item, row: dict) -> list[str]:
        out = []
        n_states = 2 if item.protocol == "bpsk" else 4
        eta, alpha, a = float(row["eta"]), float(row["alpha"]), float(row["a"])
        vals = {k: float(row[k]) for k in ("petz_down", "petz_up", "sand_down", "sand_up", "vn")}
        h = reference.conditional_entropy(n_states, alpha, eta)
        if abs(vals["vn"] - h) > TOL:
            out.append(f"vn {vals['vn']} != reference H(Y|E) {h}")
        for k, v in row.items():
            if k.startswith("d_") and not float(v) <= D_TOL:
                out.append(f"{k} = {v} above {D_TOL}")
        pairs = [("petz_up", "petz_down"), ("sand_up", "sand_down"),
                 ("sand_down", "petz_down"), ("sand_up", "petz_up")]
        for hi, lo in pairs:
            if vals[hi] < vals[lo] - TOL:
                out.append(f"{hi} {vals[hi]} below {lo} {vals[lo]}")
        for k in ("petz_down", "petz_up", "sand_down", "sand_up"):
            if (vals[k] - h) * (a - 1.0) > TOL:
                out.append(f"{k} {vals[k]} on the wrong side of H(Y|E) {h} at a={a}")
        b = float(row["B"])
        if 1.0 < a < 2.0:
            if not b <= h + TOL:
                out.append(f"B {b} above H(Y|E) {h}")
        elif not math.isnan(b):
            out.append(f"B {b} reported outside 1 < a < 2")
        return out


def _verify_output(item: Item, out: str) -> list[str]:
    expected = {"mc": ("mc/bpsk", "mc/qpsk"),
                "duality": ("duality/petz", "duality/mixed", "duality/sandwich"),
                "analytic": ("analytic/bpsk-closed-forms", "analytic/erf")}[_option(item.argv, "--suite")]
    lines = out.splitlines()
    problems = [f"not a pass line: {line!r}" for line in lines[:-1] if not line.startswith("pass  ")]
    names = tuple(line.split()[1].rstrip(":") for line in lines[:-1])
    if names != expected:
        problems.append(f"checks {names} != {expected}")
    if not lines or lines[-1] != "0 failure(s)":
        problems.append("missing '0 failure(s)' summary")
    return problems


def _monotone(curves) -> list[str]:
    """Each curve's optimized rate may not fall as n grows (optimizer tolerance)."""
    problems = []
    for key, points in curves.items():
        points.sort()
        for (n0, r0), (n1, r1) in zip(points, points[1:]):
            if r1 < r0 - TOL:
                problems.append(f"{key}: rate falls from {r0} at n={n0} to {r1} at n={n1}")
    return problems
