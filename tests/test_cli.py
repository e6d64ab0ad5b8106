import io
import math
import warnings

import numpy as np
import pytest

import pskrates.cli as cli
import pskrates.entropies as entropies
import pskrates.rates as rates
from pskrates.cli import (
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_VERIFY,
    main,
)
from pskrates.states import ProtocolParams, build_ensemble

from conftest import cap_polish, score_grid_point_by_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestProbs:
    def test_bpsk_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--protocol", "bpsk",
                               "--alpha", "0", "--eta", "0.5")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["y", "x", "p"]
        assert len(rows) == 4
        assert all(float(r[2]) == 0.5 for r in rows)

    def test_qpsk_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--protocol", "qpsk",
                               "--alpha", "0", "--eta", "0.9")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 16
        assert all(float(r[2]) == 0.25 for r in rows)

    def test_bpsk_diagonal_value(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--protocol", "bpsk",
                               "--alpha", "1", "--eta", "0.9")
        _, rows = parse_csv(out)
        diag = {(r[0], r[1]): float(r[2]) for r in rows}
        expected = (1.0 + math.erf(math.sqrt(1.8))) / 2.0
        assert diag[("0", "0")] == pytest.approx(expected, abs=1e-12)

    def test_invalid_parameters_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "probs", "--protocol", "bpsk",
                               "--alpha", "-1", "--eta", "0.5")
        assert code == EXIT_PARAMS
        assert "alpha" in err

    def test_comment_header_records_invocation(self, capsys):
        _, out, _ = run_cli(capsys, "probs", "--protocol", "bpsk",
                            "--alpha", "0", "--eta", "0.5")
        first = out.splitlines()[0]
        assert first.startswith("# pskrates probs")
        assert "--alpha 0" in first


class TestEntropies:
    def test_both_paths_agree(self, capsys):
        code, out, _ = run_cli(capsys, "entropies", "--protocol", "bpsk",
                               "--alpha", "1", "--eta", "0.6",
                               "--order", "1.2", "--path", "both")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        for column in ("d_petz_down", "d_petz_up", "d_sand_down"):
            assert float(row[column]) <= 1e-10

    def test_lossless_row_is_log_n(self, capsys):
        code, out, _ = run_cli(capsys, "entropies", "--protocol", "qpsk",
                               "--alpha", "1", "--eta", "1", "--order", "1.2")
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        for column in ("petz_down", "petz_up", "sand_down", "sand_up", "vn"):
            assert float(row[column]) == pytest.approx(2.0, abs=1e-8)
        assert float(row["B"]) < 2.0

    def test_petz_down_stays_finite_where_a_weight_power_overflows(self, capsys):
        # rho_E has a weight of 1.7e-12, whose power 1 - a overflows at
        # a = 28.5; the trace is then summed from its logs. A 50-digit
        # evaluation of the same functional gives -34.7690418469324.
        code, out, err = run_cli(capsys, "entropies", "--protocol", "qpsk",
                                 "--alpha", "0.015748055501709213", "--eta", "0.9925991179775914",
                                 "--order", "28.495144093278615")
        assert code == EXIT_OK and err == ""
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert math.isfinite(float(row["petz_down"]))
        assert float(row["petz_down"]) < float(row["sand_down"])
        assert float(row["petz_down"]) == pytest.approx(-34.7690418469324, abs=1e-9)

    def test_infinite_value_at_extreme_order_is_refused(self, capsys):
        # sand_down is finite here, but its kernel gives -inf at a = 1000
        code, out, err = run_cli(capsys, "entropies", "--protocol", "qpsk",
                                 "--alpha", "1", "--eta", "0.5", "--order", "1000")
        assert code == EXIT_PARAMS and out == ""
        assert "sand_down" in err and "a=1000" in err

    def test_order_below_half_leaves_sand_up_nan(self, capsys):
        code, out, err = run_cli(capsys, "entropies", "--protocol", "qpsk",
                                 "--alpha", "1", "--eta", "0.6", "--order", "0.3")
        assert code == EXIT_OK and err == ""
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["sand_up"] == "nan" and row["B"] == "nan"
        assert math.isfinite(float(row["sand_down"]))

    def test_analytic_rejected_for_qpsk(self, capsys):
        code, _, err = run_cli(capsys, "entropies", "--protocol", "qpsk",
                               "--alpha", "1", "--eta", "0.5",
                               "--path", "analytic")
        assert code == EXIT_PARAMS
        assert "bpsk" in err


class TestRate:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--protocol", "bpsk",
                               "--estimator", "S,AEP,B", "--n", "1e6",
                               "--eta", "0.9", "--alpha", "0.95",
                               "--order", "1.1")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["S", "AEP", "B"]
        values = {r[0]: dict(zip(header, r)) for r in rows}
        assert float(values["S"]["rate"]) >= float(values["B"]["rate"]) - 1e-9
        assert values["AEP"]["a_opt"] == ""
        # every estimator formats the flag as a word, numpy booleans included
        for est in ("S", "AEP", "B"):
            assert values[est]["key_possible"] in ("true", "false")
        assert values["S"]["key_possible"] == "true"

    def test_optimized_point(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--protocol", "bpsk",
                               "--estimator", "AEP", "--n", "1e6",
                               "--eta", "0.9", "--optimize")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert 0.8 <= float(row["alpha_opt"]) <= 1.1
        assert float(row["rate"]) > 0.35

    def test_missing_alpha_is_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--protocol", "bpsk",
                               "--estimator", "S", "--n", "1e6", "--eta", "0.9")
        assert code == EXIT_PARAMS
        assert "--alpha" in err

    def test_order_range_is_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "rate", "--protocol", "bpsk",
                               "--estimator", "B", "--n", "1e6", "--eta", "0.9",
                               "--alpha", "1", "--order", "2.5")
        assert code == EXIT_PARAMS

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        def stub(ensemble, a):
            import warnings
            warnings.warn("invariant-state optimization did not reach tolerance",
                          entropies.ConvergenceWarning, stacklevel=2)
            return 0.5

        monkeypatch.setattr(entropies, "sandwiched_up_invariant", stub)
        code, _, err = run_cli(capsys, "rate", "--protocol", "bpsk",
                               "--estimator", "S", "--n", "1e6", "--eta", "0.9",
                               "--alpha", "1", "--order", "1.2")
        assert code == EXIT_NONCONVERGED
        assert "tolerance" in err


    def test_optimize_nonconvergence_names_the_point(self, capsys, monkeypatch):
        def stub(ensemble, a):
            import warnings
            warnings.warn("invariant-state optimization did not reach tolerance",
                          entropies.ConvergenceWarning, stacklevel=2)
            return 0.5

        monkeypatch.setattr(entropies, "sandwiched_up_invariant", stub)
        score_grid_point_by_point(monkeypatch)
        code, out, err = run_cli(capsys, "rate", "--protocol", "bpsk",
                                 "--estimator", "S", "--n", "1e6", "--eta", "0.9",
                                 "--optimize")
        assert code == EXIT_NONCONVERGED
        assert out == ""
        assert "S rate at n=1e+06" in err
        assert "first at alpha=0.05, a=1.00001" in err

    @pytest.mark.parametrize("argv", [
        ("rate", "--estimator", "S", "--n", "1e4"),
        ("sweep", "--variable", "n", "--from", "1e4", "--to", "1e6", "--points", "2",
         "--scale", "log", "--quantity", "rate", "--estimator", "AEP"),
    ])
    def test_polish_cap_exits_three_without_csv(self, capsys, monkeypatch, argv):
        # the search stops short of its tolerance and no entropy warns
        cap_polish(monkeypatch)
        code, out, err = run_cli(capsys, *argv, "--protocol", "bpsk", "--eta", "0.9",
                                 "--optimize")
        assert code == EXIT_NONCONVERGED
        assert out == ""
        assert f"{argv[argv.index('--estimator') + 1]} rate at n=10000: the polish" in err
        assert "did not converge in 2 iterations, stopped at alpha=" in err

    def test_bpsk_order_cap_64(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--protocol", "bpsk",
                               "--estimator", "S", "--n", "316.23", "--eta", "0.9",
                               "--optimize", "--a-max", "64")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert float(dict(zip(header, rows[0]))["a_opt"]) == 64.0

    def test_qpsk_order_cap_16(self, capsys):
        # every four-state solve up to the cap certifies, so no inner
        # warning turns the search into exit 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "rate", "--protocol", "qpsk",
                                     "--estimator", "S", "--n", "316.23", "--eta", "0.9",
                                     "--optimize", "--a-max", "16")
        assert code == EXIT_OK
        assert err == ""
        header, rows = parse_csv(out)
        assert 1.0 < float(dict(zip(header, rows[0]))["a_opt"]) <= 16.0

    def test_order_cap_at_or_below_one_is_named(self, capsys):
        for a_max in ("1.0", "0.5"):
            code, out, err = run_cli(capsys, "rate", "--protocol", "bpsk",
                                     "--estimator", "B", "--n", "1e4", "--eta", "0.9",
                                     "--optimize", "--a-max", a_max)
            assert code == EXIT_PARAMS
            assert "a_max" in err
            assert out == ""

    def test_unknown_estimator_is_parameter_error(self, capsys):
        code, out, err = run_cli(capsys, "rate", "--protocol", "bpsk",
                                 "--estimator", "S,X", "--n", "1e4", "--eta", "0.9",
                                 "--alpha", "1", "--order", "1.5")
        assert code == EXIT_PARAMS
        assert "unknown estimator 'X'" in err
        assert out == ""


class TestSweep:
    def test_optimize_rejects_swept_alpha_or_order(self, capsys):
        for variable, lo, hi in (("a", "1.1", "1.5"), ("alpha", "0.5", "1.5")):
            code, out, err = run_cli(capsys, "sweep", "--variable", variable,
                                     "--from", lo, "--to", hi, "--points", "2",
                                     "--quantity", "rate", "--protocol", "bpsk",
                                     "--eta", "0.9", "--optimize", "--estimator", "AEP,B")
            assert code == EXIT_PARAMS
            assert "--optimize searches alpha and a itself" in err
            assert out == ""

    def test_entropy_sweep_over_n_is_parameter_error(self, capsys):
        # entropies do not depend on n and the CSV has no n column
        code, out, err = run_cli(capsys, "sweep", "--variable", "n",
                                 "--from", "1e4", "--to", "1e6", "--points", "3",
                                 "--quantity", "entropies", "--protocol", "bpsk",
                                 "--alpha", "1", "--eta", "0.9")
        assert code == EXIT_PARAMS
        assert "entropies do not depend on n" in err
        assert out == ""

    def test_unknown_estimator_is_parameter_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--variable", "n",
                                 "--from", "1e4", "--to", "1e5", "--points", "2",
                                 "--quantity", "rate", "--protocol", "bpsk",
                                 "--alpha", "1", "--eta", "0.9", "--estimator", "X,B")
        assert code == EXIT_PARAMS
        assert "unknown estimator 'X'" in err
        assert out == ""


    def test_eta_sweep_and_determinism(self, capsys):
        argv = ("sweep", "--variable", "eta", "--from", "0.2", "--to", "0.8",
                "--points", "4", "--scale", "linear", "--quantity", "entropies",
                "--protocol", "bpsk", "--alpha", "1", "--order", "1.2")
        code, out1, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        code, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2  # byte-identical reruns
        header, rows = parse_csv(out1)
        assert len(rows) == 4
        assert [float(r[0]) for r in rows] == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_log_n_sweep_rate(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--variable", "n",
                               "--from", "1e4", "--to", "1e6", "--points", "3",
                               "--scale", "log", "--quantity", "rate",
                               "--protocol", "bpsk", "--eta", "0.9",
                               "--alpha", "0.95", "--order", "1.1",
                               "--estimator", "S,B")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 6  # 3 points x 2 estimators
        ns = sorted({float(r[1]) for r in rows})
        assert ns == pytest.approx([1e4, 1e5, 1e6])

    def test_fixed_point_n_sweep_solves_each_entropy_once(self, capsys, monkeypatch):
        calls = {"build_ensemble": 0, "sandwiched_up_invariant": 0, "continuity_bound": 0}
        for module, name in ((cli, "build_ensemble"), (entropies, "sandwiched_up_invariant"),
                             (entropies, "continuity_bound")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        code, out, _ = run_cli(capsys, "sweep", "--variable", "n", "--from", "1e3",
                               "--to", "1e8", "--points", "25", "--scale", "log",
                               "--quantity", "rate", "--protocol", "bpsk", "--eta", "0.9",
                               "--alpha", "1", "--order", "1.5", "--estimator", "S,B")
        assert code == EXIT_OK
        assert calls == {"build_ensemble": 1, "sandwiched_up_invariant": 1, "continuity_bound": 1}
        # each row is still the estimator's own rate at that n
        ensemble = build_ensemble(ProtocolParams(2, 1.0, 0.9))
        _, rows = parse_csv(out)
        ns = np.logspace(3.0, 8.0, 25).tolist()
        assert [(r[0], r[1]) for r in rows] == [(e, f"{n:.12g}") for n in ns for e in "SB"]
        for row, n in zip(rows, [n for n in ns for _ in "SB"]):
            sp = rates.SecurityParams(n=n, a=1.5)
            assert row[3] == f"{rates.ESTIMATORS[row[0]].rate(ensemble, sp):.12g}"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--variable", "eta",
                               "--from", "0.3", "--to", "0.7", "--points", "2",
                               "--quantity", "entropies", "--protocol", "bpsk",
                               "--alpha", "1", "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert len(rows) == 2

    def test_unwritable_output_is_parameter_error(self, capsys, tmp_path):
        target = tmp_path / "no-such-directory" / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--variable", "eta",
                                 "--from", "0.1", "--to", "0.9", "--points", "2",
                                 "--quantity", "entropies", "--protocol", "bpsk",
                                 "--alpha", "1", "--output", str(target))
        assert code == EXIT_PARAMS and out == ""
        assert err.startswith("error: cannot write") and str(target) in err

    def test_bad_bounds(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--variable", "eta",
                               "--from", "0.9", "--to", "0.2", "--points", "3",
                               "--quantity", "entropies", "--protocol", "bpsk",
                               "--alpha", "1")
        assert code == EXIT_PARAMS

    @pytest.mark.parametrize("protocol", ["bpsk", "qpsk"])
    def test_optimized_n_sweep_matches_one_rate_call_per_n(self, capsys, protocol):
        code, out, _ = run_cli(capsys, "sweep", "--variable", "n", "--from", "316.23",
                               "--to", "1e8", "--points", "3", "--scale", "log",
                               "--quantity", "rate", "--protocol", protocol,
                               "--eta", "0.9", "--optimize", "--estimator", "S,AEP,B")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        single = []
        for n in np.logspace(math.log10(316.23), 8.0, 3).tolist():
            code, one, _ = run_cli(capsys, "rate", "--protocol", protocol, "--eta", "0.9",
                                   "--n", repr(n), "--optimize", "--estimator", "S,AEP,B")
            assert code == EXIT_OK
            single += parse_csv(one)[1]
        assert rows == single  # by n, then by estimator as listed

    def test_order_flag_alias(self, capsys):
        code, out, _ = run_cli(capsys, "entropies", "--protocol", "bpsk",
                               "--alpha", "1", "--eta", "0.6", "--a", "1.3")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0][2]) == 1.3

    def test_log_scale_needs_positive_start(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--variable", "n",
                               "--from", "0", "--to", "100", "--points", "3",
                               "--scale", "log", "--quantity", "rate",
                               "--protocol", "bpsk", "--eta", "0.9",
                               "--alpha", "1", "--order", "1.2")
        assert code == EXIT_PARAMS


class TestVerify:
    def test_analytic_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "analytic",
                               "--analytic-grid", "6")
        assert code == EXIT_OK
        assert "pass  analytic/bpsk-closed-forms" in out
        assert "pass  analytic/erf" in out
        assert "0 failure(s)" in out

    def test_mc_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "mc",
                               "--shots", "100000", "--seed", "77")
        assert code == EXIT_OK
        assert "pass  mc/bpsk" in out and "pass  mc/qpsk" in out

    def test_duality_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "duality",
                               "--duality-states", "8")
        assert code == EXIT_OK
        assert "pass  duality/petz" in out

    def test_duality_suite_tests_the_requested_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "duality",
                               "--duality-states", "3")
        assert code == EXIT_OK
        assert out.count("over 3 states") == 3

    def test_duality_suite_certifies_a_hard_state(self, capsys):
        # this state set once left a sandwich residual of 2.9e-4 (exit 2)
        code, out, _ = run_cli(capsys, "verify", "--suite", "duality",
                               "--duality-states", "16", "--seed", "447924764")
        assert code == EXIT_OK
        assert "pass  duality/sandwich" in out and "over 16 states" in out

    @pytest.mark.parametrize("flag, value", [
        ("--duality-states", "1"), ("--duality-states", "0"),
        ("--duality-states", "-5"), ("--analytic-grid", "0"),
        ("--analytic-grid", "-3"),
    ])
    def test_empty_suite_is_parameter_error(self, capsys, flag, value):
        suite = "duality" if flag == "--duality-states" else "analytic"
        code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value)
        assert code == EXIT_PARAMS
        assert flag in err
        assert "pass" not in out

    def test_failures_exit_two(self, capsys, monkeypatch):
        true_fn = entropies.petz_up_general

        def flipped(rho, dims, a):
            return -true_fn(rho, dims, a)

        monkeypatch.setattr(entropies, "petz_up_general", flipped)
        code, out, _ = run_cli(capsys, "verify", "--suite", "duality",
                               "--duality-states", "4")
        assert code == EXIT_VERIFY
        assert "FAIL" in out


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# fixed parameters\nprotocol=bpsk\nalpha=0\neta=0.5\n")
        code, out, _ = run_cli(capsys, "probs", "--config", str(cfg))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert all(float(r[2]) == 0.5 for r in rows)
        # explicit flag overrides the config value
        code, out, _ = run_cli(capsys, "probs", "--config", str(cfg),
                               "--alpha", "1")
        _, rows = parse_csv(out)
        assert any(float(r[2]) != 0.5 for r in rows)

    def test_missing_config_is_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "probs", "--config", "/nonexistent.cfg")
        assert code == EXIT_PARAMS


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "probs", "--protocol", "bpsk",
                           "--alpha", "1", "--eta", "0.5", "--bogus", "1")
    assert code == EXIT_PARAMS


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "probs", "--protocol", "bpsk",
                           "--alpha", "1", "--eta", "0.9")
    _, rows = parse_csv(out)
    value = rows[0][2]
    assert len(value.replace("0.", "")) >= 12

def test_calls_in_a_row_share_one_parser(capsys, tmp_path):
    # the parser is built on the first call of the process; a parameter
    # error between two subcommands leaves nothing behind for the next call
    probs = ("probs", "--protocol", "bpsk", "--alpha", "1", "--eta", "0.9")
    entropy = ("entropies", "--protocol", "qpsk", "--alpha", "1", "--eta", "0.5")
    first = [run_cli(capsys, *probs), run_cli(capsys, *entropy)]
    assert [code for code, _, _ in first] == [EXIT_OK, EXIT_OK]
    code, out, err = run_cli(capsys, "probs", "--protocol", "psk", "--alpha", "1",
                             "--eta", "0.9")
    assert (code, out) == (EXIT_PARAMS, "") and "invalid choice" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=bpsk\nalpha=1\n")
    code, out, _ = run_cli(capsys, "probs", "--config", str(cfg), "--eta", "0.9")
    assert code == EXIT_OK and parse_csv(out) == parse_csv(first[0][1])
    assert [run_cli(capsys, *probs), run_cli(capsys, *entropy)] == first
    assert cli._parser.cache_info().misses == 1
