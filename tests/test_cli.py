import dataclasses
import importlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rosterstat
from rosterstat import cli, report, risk_sim
from rosterstat.case import CaseFile, WardRoster, builtin_paper_case, serialize_case
from rosterstat.cli import main
from rosterstat.report import ReproRow, reproduce_paper


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_pooled_builtin(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                           "--method", "pooled")
        assert code == 0
        assert "0.004546" in out
        assert "data variant: corrected" in out

    def test_elffers_requires_multiplier(self, capsys):
        code, out, err = run(capsys, "analyze", "--builtin", "original",
                             "--method", "elffers")
        assert (code, out) == (2, "")
        assert err.startswith("rosterstat: --method elffers requires --jkz-multiplier; ")

    def test_bayes_requires_an_evidence_array(self, tmp_path, capsys):
        doc = json.loads(serialize_case(builtin_paper_case("corrected")))
        del doc["evidence"]
        path = tmp_path / "no_evidence.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(path), "--method", "bayes")
        assert (code, out, err) == (2, "", "rosterstat: case file has no evidence array\n")

    def test_elffers_original(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "original",
                           "--method", "elffers", "--jkz-multiplier", "27")
        assert code == 0
        assert "NOT a p-value" in out
        assert "data variant: original" in out

    def test_missing_file_nonzero_exit(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--case", "does/not/exist.json",
                  "--method", "pooled"])

    def test_invalid_case_file_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"case_name": "x"', encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--case", str(bad),
                           "--method", "pooled")
        assert code == 2
        assert "rosterstat:" in err

    def test_case_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(serialize_case(builtin_paper_case("corrected")).replace(
            "Lucia de B.", "Luc\u00eda de B.").encode("latin-1"))
        code, out, err = run(capsys, "analyze", "--case", str(bad), "--method", "pooled")
        assert (code, out) == (2, "")
        assert err.startswith(f"rosterstat: {bad}: case file is not UTF-8 text: byte 0xed ")

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        text = serialize_case(builtin_paper_case("corrected"))
        old = '"suspect_incidents": 5'
        assert text.count(old) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(old, old + ', "suspect_incidents": 4'), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(bad), "--method", "pooled")
        assert (code, out, err) == (
            2, "", "rosterstat: RKZ-42: key 'suspect_incidents' is repeated\n")

    def test_wrong_json_type_exits_2(self, tmp_path, capsys):
        doc = json.loads(serialize_case(builtin_paper_case("corrected")))
        doc["evidence"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--case", str(bad), "--method", "pooled")
        assert code == 2
        assert err == "rosterstat: case file: evidence must be an array, got 5\n"

    def test_case_file_from_disk(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        path.write_text(serialize_case(builtin_paper_case("corrected")),
                        encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--case", str(path),
                           "--method", "convolved")
        assert code == 0
        assert "0.02155" in out

    def test_machine_and_text_share_numbers(self, capsys):
        code, text_out, _ = run(capsys, "analyze", "--builtin", "corrected",
                                "--method", "pooled")
        code2, machine_out, _ = run(capsys, "analyze", "--builtin", "corrected",
                                    "--method", "pooled", "--output", "machine")
        assert code == code2 == 0
        doc = json.loads(machine_out)
        p = doc["results"][0]["p_value"]
        assert repr(p) in text_out
        assert doc["variant"] == "corrected"

    def test_poisson_lr_mu_basis_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                           "--method", "poisson-lr",
                           "--mu-basis", "include-suspect", "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        value = doc["results"][0]["LikelihoodRatio"]["value"]
        assert 24.5 <= value <= 25.5

    def test_fixed_mu_basis(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                           "--method", "poisson-lr",
                           "--mu-basis", "fixed=0.0211726384364821",
                           "--output", "machine")
        assert code == 0
        value = json.loads(out)["results"][0]["LikelihoodRatio"]["value"]
        assert value == pytest.approx(90.66, abs=0.05)

    @pytest.mark.parametrize("mu", ["1e300", "1e308", "1e-300", "5e-324"])
    def test_likelihood_ratio_past_the_float_range_exits_2(self, capsys, mu):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected",
                             "--method", "poisson-lr", "--mu-basis", f"fixed={mu}")
        assert (code, out) == (2, "")
        assert err.startswith(f"rosterstat: the likelihood ratio at mu = {float(mu)!r} "
                              "and mu_L = ")
        assert err.endswith(" is outside the float range\n") and "Traceback" not in err

    @pytest.mark.parametrize("method", ["poisson-lr", "relative-risk"])
    @pytest.mark.parametrize("spec", [
        "bogus", "fixed=abc", "fixed=", "fixed=inf", "fixed=-inf", "fixed=nan",
        "fixed=0", "fixed=-0.5", "fixed=0_05", "fixed= 0.05", "fixed=0.05 ", "fixed=\u0661",
    ])
    def test_bad_mu_basis_names_the_flag(self, capsys, method, spec):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected", "--method",
                             method, "--mu-basis", spec, "--replicates", "100")
        assert (code, out) == (2, "")
        assert err.startswith(f"rosterstat: unknown --mu-basis {spec!r}; ")

    def test_mu_basis_ignored_by_methods_that_do_not_read_it(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                           "--method", "pooled", "--mu-basis", "fixed=inf")
        assert code == 0
        assert "0.004546" in out

    def test_bayes_reports_both_conventions(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                           "--method", "bayes", "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        shortcut = doc["results"][0]["OddsState"]["posterior_odds"]
        strict = doc["results"][1]["OddsState"]["posterior_odds"]
        assert shortcut == pytest.approx(8.75, abs=1e-12)
        assert 8.74 <= strict <= 8.76

    @pytest.mark.parametrize("prior, shown", [("0", "0.0"), ("1", "1.0"), ("2", "2.0"),
                                              ("nan", "nan"), ("1e-400", "0.0")])
    def test_bad_prior_names_the_flag(self, capsys, prior, shown):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected", "--method", "bayes",
                             "--prior", prior)
        assert (code, out) == (2, "")
        assert err == ("rosterstat: --prior must be a probability strictly in (0, 1),"
                       f" got {shown}\n")

    def test_bayes_overflow_exits_2_with_nothing_on_stdout(self, tmp_path, capsys):
        doc = json.loads(serialize_case(builtin_paper_case("corrected")))
        doc["evidence"] = [{"label": "huge one", "lr": 1e300},
                           {"label": "huge two", "lr": 1e300}]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(path),
                             "--method", "bayes", "--output", "machine")
        assert (code, out) == (2, "")
        assert err.startswith("rosterstat: posterior odds overflow")
        assert "'huge two'" in err

    def test_bayes_underflow_exits_2_with_nothing_on_stdout(self, tmp_path, capsys):
        doc = json.loads(serialize_case(builtin_paper_case("corrected")))
        doc["evidence"] = [{"label": "tiny one", "lr": 5e-324},
                           {"label": "tiny two", "lr": 5e-324}]
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(path),
                             "--method", "bayes", "--output", "machine")
        assert (code, out) == (2, "")
        assert err.startswith("rosterstat: posterior odds underflow the float range "
                              "after evidence ")
        assert "'tiny one'" in err

    @pytest.mark.parametrize("command", [
        ("analyze", "--builtin", "corrected", "--method", "relative-risk"),
        ("reproduce-paper",),
    ], ids=["analyze", "reproduce-paper"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_named(self, capsys, command, seed):
        code, out, err = run(capsys, *command, "--seed", str(seed), "--replicates", "100")
        assert (code, out) == (2, "")
        assert err == f"rosterstat: seed must fit in 64 unsigned bits, got {seed}\n"

    def test_relative_risk_method(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                           "--method", "relative-risk", "--seed", "5",
                           "--replicates", "2000", "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        rr = doc["results"][0]["RelativeRisk"]["value"]
        sim = doc["results"][1]["SimulationReport"]
        assert rr == pytest.approx(4.6456, abs=1e-3)
        assert sim["config"]["seed"] == 5
        assert sim["config"]["replicates"] == 2000
        assert 0.0 <= sim["p_value"] <= 1.0

    @staticmethod
    def _one_ward_case(tmp_path, n, r, k, x):
        ward = {"name": "A", "total_shifts": n, "suspect_shifts": r,
                "total_incidents": k, "suspect_incidents": x}
        path = tmp_path / "one_ward.json"
        path.write_text(json.dumps({"case_name": "t", "suspect": "s",
                                    "variant": "corrected", "wards": [ward]}),
                        encoding="utf-8")
        return str(path)

    def test_machine_output_is_strict_json_when_others_are_quiet(self, tmp_path,
                                                                capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = self._one_ward_case(tmp_path, 100, 10, 3, 3)
        argv = ["analyze", "--case", path, "--method", "relative-risk",
                "--mu-basis", "include-suspect", "--replicates", "2000"]
        code, out, _ = run(capsys, *argv, "--output", "machine")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        assert doc["results"][0]["RelativeRisk"]["value"] == "Infinity"
        assert doc["results"][1]["SimulationReport"]["threshold"] == "Infinity"
        code, text, _ = run(capsys, *argv)
        assert code == 0
        assert "{value: inf, " in text

    def test_fisher_statistic_with_no_suspect_incidents_is_positive_zero(self, tmp_path,
                                                                        capsys):
        path = self._one_ward_case(tmp_path, 100, 10, 3, 0)
        argv = ["analyze", "--case", path, "--method", "fisher"]
        code, text, _ = run(capsys, *argv)
        assert code == 0
        assert "    statistic: 0.0\n" in text
        code, out, _ = run(capsys, *argv, "--output", "machine")
        assert code == 0
        assert '"statistic": 0.0,' in out

    def test_relative_risk_where_the_poisson_sum_stalls(self, tmp_path, capsys):
        # per-nurse mean 0.4 x 20 = 8.0, whose float CDF never reaches 1 - 1e-15
        path = self._one_ward_case(tmp_path, 100, 20, 44, 12)
        code, out, _ = run(capsys, "analyze", "--case", path, "--method",
                           "relative-risk", "--replicates", "100", "--output", "machine")
        assert code == 0
        p_value = json.loads(out)["results"][1]["SimulationReport"]["p_value"]
        assert math.isfinite(p_value)

    def test_relative_risk_at_a_large_mean(self, tmp_path, capsys):
        # per-nurse mean 0.5 x 40,000 = 20,000, past the former 10,000-term table
        path = self._one_ward_case(tmp_path, 100_000, 40_000, 50_000, 20_000)
        code, out, _ = run(capsys, "analyze", "--case", path, "--method",
                           "relative-risk", "--replicates", "100", "--output", "machine")
        assert code == 0
        sim = json.loads(out)["results"][1]["SimulationReport"]
        assert sim["config"]["mu"] * sim["config"]["shifts_per_nurse"] == 20_000
        assert 0.0 <= sim["p_value"] <= 1.0

    def test_relative_risk_mean_over_the_bound_exits_2(self, tmp_path, capsys):
        # per-nurse mean 0.5 x 4,000,000 = 2,000,000, over the 10**6 input bound
        path = self._one_ward_case(tmp_path, 10**7, 4 * 10**6, 5 * 10**6, 2 * 10**6)
        code, out, err = run(capsys, "analyze", "--case", path, "--method",
                             "relative-risk", "--replicates", "100")
        assert (code, out) == (2, "")
        assert err == ("rosterstat: A: n/r = 10000000/4000000; the per-nurse Poisson mean"
                       " mu * r = 2000000.0 is above 10**6\n")

    @pytest.mark.parametrize("n,r,k,x,message", [
        (40, 40, 3, 3, "A: n/r = 40/40; the relative risk needs shifts for both the"
                       " suspect and the other nurses"),
        (40, 30, 3, 1, "A: n/r = 40/30 rounds to I = 1; the calibration needs"
                       " 2 <= I <= 10**6"),
        # rejected before any replicate is drawn: one would need about 18 GB
        (10**9, 1, 10, 1, "A: n/r = 1000000000/1 rounds to I = 1000000000; the"
                          " calibration needs 2 <= I <= 10**6"),
    ], ids=["every-shift", "one-nurse", "nurses-over-the-bound"])
    def test_relative_risk_ward_rejection_names_the_wards(self, tmp_path, capsys,
                                                          n, r, k, x, message):
        path = self._one_ward_case(tmp_path, n, r, k, x)
        code, out, err = run(capsys, "analyze", "--case", path, "--method",
                             "relative-risk", "--replicates", "100")
        assert (code, out) == (2, "")
        assert err == f"rosterstat: {message}\n"

    # all 8 JKZ incidents fall on the suspect's shifts, so the others' rate is 0
    @pytest.mark.parametrize("method", ["poisson-lr", "relative-risk"])
    def test_intensity_without_incidents_names_the_wards(self, capsys, method):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected", "--wards",
                             "JKZ", "--method", method, "--replicates", "100")
        assert (code, out) == (2, "")
        assert err == ("rosterstat: JKZ: cannot fit intensity 0 (no incidents,"
                       " basis exclude_suspect); LR undefined\n")

    def test_suspect_without_incidents_names_the_wards(self, tmp_path, capsys):
        path = self._one_ward_case(tmp_path, 40, 10, 3, 0)
        code, out, err = run(capsys, "analyze", "--case", path, "--method", "poisson-lr")
        assert (code, out) == (2, "")
        assert err == ("rosterstat: A: cannot fit the suspect's own intensity mu_L = 0/10"
                       " (no incidents on the suspect's shifts); LR undefined\n")

    def test_suspect_without_shifts_names_the_wards(self, tmp_path, capsys):
        path = self._one_ward_case(tmp_path, 40, 0, 3, 0)
        code, out, err = run(capsys, "analyze", "--case", path, "--method", "poisson-lr")
        assert (code, out) == (2, "")
        assert err == ("rosterstat: A: cannot fit the suspect's own intensity mu_L = 0/0"
                       " (the suspect has no shifts); LR undefined\n")

    def test_intensity_without_shifts_names_the_wards(self, tmp_path, capsys):
        path = self._one_ward_case(tmp_path, 40, 40, 3, 3)
        code, out, err = run(capsys, "analyze", "--case", path, "--method", "poisson-lr")
        assert (code, out) == (2, "")
        assert err == ("rosterstat: A: zero shifts in the intensity denominator"
                       " (basis exclude_suspect)\n")

    def test_nurse_count_over_the_block_budget_still_runs(self, tmp_path, capsys):
        # I = n/r = 300,000: one replicate alone needs about 4.8 MB
        path = self._one_ward_case(tmp_path, 300_000, 1, 10, 1)
        code, out, _ = run(capsys, "analyze", "--case", path, "--method",
                           "relative-risk", "--replicates", "8", "--output", "machine")
        assert code == 0
        sim = json.loads(out)["results"][1]["SimulationReport"]
        assert sim["config"]["nurse_count"] == 300_000

    def test_wards_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                           "--method", "per-ward", "--wards", "RKZ-42",
                           "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 1
        assert doc["results"][0]["label"] == "RKZ-42"

    @pytest.mark.parametrize("method", ["per-ward", "bonferroni", "pooled", "convolved",
                                        "fisher"])
    def test_repeated_ward_exits_2(self, capsys, method):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected",
                             "--method", method, "--wards", "RKZ-42,RKZ-42")
        assert (code, out) == (2, "")
        assert err.startswith("rosterstat: ") and "'RKZ-42'" in err

    @pytest.mark.parametrize("name", ["A,1", " B"])
    def test_ward_name_the_wards_flag_cannot_select_exits_2(self, tmp_path, capsys,
                                                            name):
        doc = json.loads(serialize_case(builtin_paper_case("corrected")))
        doc["wards"][2]["name"] = name
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(path), "--method",
                             "per-ward", "--wards", name)
        assert (code, out) == (2, "")
        assert err == (f"rosterstat: ward #2: name must be nonempty, without commas "
                       f"or outer whitespace, got {name!r}\n")

    def test_empty_ward_list_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected",
                             "--method", "per-ward", "--wards", " , ")
        assert (code, out) == (2, "")
        assert err.startswith("rosterstat: no ward named")

    def test_unknown_ward_nonzero(self, capsys):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected",
                             "--method", "pooled", "--wards", "nope")
        assert (code, out) == (2, "")
        assert err == "rosterstat: no ward named 'nope' in case 'Lucia de B.'\n"

    @pytest.mark.parametrize("key", ["total_shifts", "nurse_count"])
    def test_count_past_2_53_exits_2(self, tmp_path, capsys, key):
        doc = json.loads(serialize_case(builtin_paper_case("corrected")))
        doc["wards"][0][key] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(path), "--method", "per-ward")
        assert (code, out) == (2, "")
        assert err == f"rosterstat: JKZ: {key} must be at most 2**53\n"

    @pytest.mark.parametrize("old, where, key", [
        ('"total_shifts": 1029', "JKZ", "total_shifts"),
        ('"lr": 0.5', "evidence #0", "lr"),
    ])
    def test_integer_past_the_digit_limit_names_the_field(self, tmp_path, capsys, old,
                                                          where, key):
        # 5,001 digits: int() refuses more than 4,300, a limit the parser leaves as it is
        text = serialize_case(builtin_paper_case("corrected"))
        assert text.count(old) == 1
        path = tmp_path / "long.json"
        path.write_text(text.replace(old, f'"{key}": {"9" * 5001}'), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(path), "--method", "pooled")
        assert (code, out) == (2, "")
        assert err == f"rosterstat: {where}: {key} is an integer with too many digits to read\n"

    def test_fisher_names_the_ward_whose_tail_underflows(self, tmp_path, capsys):
        wards = [{"name": "A", "total_shifts": 2000, "suspect_shifts": 1000,
                  "total_incidents": 1000, "suspect_incidents": 1000},
                 {"name": "B", "total_shifts": 100, "suspect_shifts": 10,
                  "total_incidents": 5, "suspect_incidents": 1}]
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps({"case_name": "t", "suspect": "s", "variant": "corrected",
                                    "wards": wards}), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--case", str(path), "--method", "fisher",
                             "--wards", "A,B")
        assert (code, out) == (2, "")
        assert err == "rosterstat: A: its tail underflows to 0.0 (Fisher needs p > 0)\n"

    @pytest.mark.parametrize("argv", [["--method", "bayes"],
                                      ["--method", "elffers", "--jkz-multiplier", "27"]])
    def test_unknown_ward_exits_2_where_the_method_reads_no_ward(self, capsys, argv):
        code, out, err = run(capsys, "analyze", "--builtin", "corrected", *argv,
                             "--wards", "nope")
        assert (code, out) == (2, "")
        assert err.startswith("rosterstat: ") and "'nope'" in err

    def test_conditioning_note_always_present(self, capsys):
        _, out, _ = run(capsys, "analyze", "--builtin", "corrected",
                        "--method", "pooled")
        assert "conditional on the total number of incidents" in out


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs rosterstat.cli.main on the given arguments in a fresh interpreter,
# then fails (exit 1) if any of the named modules was loaded along the way.
GUARD = """
import sys
import rosterstat.cli
code = rosterstat.cli.main(sys.argv[1:])
loaded = [name for name in {unloaded!r} if name in sys.modules]
assert not loaded, f"{{loaded}} imported"
sys.exit(code)
"""
NUMPY_GUARD = GUARD.format(unloaded=("numpy", "fractions"))
# Everything an analysis needs past parsing the case file.
LAYER_GUARD = GUARD.format(unloaded=(
    "numpy", "fractions", "rosterstat.report", "rosterstat.frequentist",
    "rosterstat.poisson_model", "rosterstat.distributions", "rosterstat.risk_sim"))


def run_fresh(script, *argv):
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)


def test_closed_stdout_exits_1_quietly():
    # the pipe's read end is closed before the child writes, as when
    # `rosterstat ... | head` has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "rosterstat.cli", "analyze", "--builtin", "corrected",
             "--method", "pooled"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_fifty_thousand_wards_finish_in_bounded_time(tmp_path):
    # every ward is pooled by default; resolving the ward list is linear in
    # its length, where a quadratic lookup took minutes on this file
    wards = [{"name": f"W{i}", "total_shifts": 10, "suspect_shifts": 2,
              "total_incidents": 1, "suspect_incidents": 0} for i in range(50_000)]
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"case_name": "many", "suspect": "s",
                                "variant": "corrected", "wards": wards}), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "rosterstat.cli", "analyze", "--case", str(path),
         "--method", "pooled", "--output", "machine"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=30)
    assert done.returncode == 0, done.stderr
    [result] = json.loads(done.stdout)["results"]
    assert result["p_value"] == 1.0
    assert result["components"][0][0] == "+".join(w["name"] for w in wards)


def test_deeply_nested_case_file_exits_2_without_a_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"case_name": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "rosterstat.cli", "analyze", "--case", str(path),
         "--method", "pooled"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("rosterstat:") and "Traceback" not in done.stderr



# Case-file text that a report would print as other lines, or could not
# encode, or would write as a raw byte under the POSIX locale's surrogateescape.
@pytest.mark.parametrize("stdio", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}],
                         ids=["posix-locale", "strict-utf8"])
@pytest.mark.parametrize("path, value, message", [
    (("wards", 0, "name"), "A\n    p_value: 0.5\n- B",
     r"ward #0: name must be printable text, got '\n' at index 1"),
    (("case_name",), "t\ud800x",
     r"case file: case_name must be printable text, got '\ud800' at index 1"),
    (("wards", 0, "name"), "A\udc80",
     r"ward #0: name must be printable text, got '\udc80' at index 1"),
], ids=["newline-in-ward-name", "surrogate-in-case-name", "surrogate-in-ward-name"])
def test_case_file_text_a_report_cannot_print_exits_2(tmp_path, stdio, path, value, message):
    doc = json.loads(serialize_case(builtin_paper_case("corrected")))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(doc), encoding="utf-8")  # \uXXXX escapes, ASCII
    env = {key: value for key, value in os.environ.items()
           if key not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8")}
    done = subprocess.run(
        [sys.executable, "-m", "rosterstat.cli", "analyze", "--case", str(case_path),
         "--method", "per-ward"],
        capture_output=True, env={**env, "PYTHONPATH": str(SRC), **stdio}, timeout=60)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == f"rosterstat: {message}\n".encode("ascii")


def _defaults(func, *names):
    parameters = inspect.signature(func).parameters
    return {name: parameters[name].default for name in names}


def test_cli_defaults_match_the_library_defaults():
    # perfbench's expected_values rebuilds a relative-risk run of the CLI
    # with derive_sim_config's default replicates
    parser = cli._build_parser()
    analyze = vars(parser.parse_args(["analyze", "--builtin", "corrected",
                                      "--method", "pooled"]))
    repro = vars(parser.parse_args(["reproduce-paper"]))
    names = ("seed", "replicates", "mu_basis", "prior")
    assert {name: analyze[name] for name in names} == _defaults(report.run_method, *names)
    shared = {"seed": analyze["seed"], "replicates": analyze["replicates"]}
    fields = {f.name: f.default for f in dataclasses.fields(risk_sim.SimulationConfig)}
    for defaults in (repro, _defaults(report.reproduce_paper, *shared),
                     _defaults(risk_sim.derive_sim_config, *shared), fields):
        assert {name: defaults[name] for name in shared} == shared

def test_multiplier_past_the_float_range_exits_2_without_a_traceback():
    done = subprocess.run(
        [sys.executable, "-m", "rosterstat.cli", "analyze", "--builtin", "original",
         "--method", "elffers", "--jkz-multiplier", str(10**400)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == ("rosterstat: jkz_multiplier is past the float range"
                           " (about 1.8e308)\n")

# The names the demos, the README quick start and perfbench reach through
# the package; every other public name is imported from its own module.
PUBLIC_NAMES = [
    "CaseFile", "EvidenceItem", "OddsState", "WardRoster", "bonferroni_min",
    "builtin_paper_case", "conditional_binomial_test", "convolved_sum_test",
    "derive_sim_config", "elffers_pipeline", "estimate_mu", "exact_max_rr_tail",
    "fisher_combine", "lr_poisson", "observed_rate", "observed_threshold",
    "odds_from_probability", "parse_case", "pool_wards", "pooled_test",
    "posterior_probability", "relative_risk", "simulate_max_rr", "update",
    "ward_tail_p",
]
MODULE_ONLY_NAMES = [
    ("distributions", "binomial_tail"),
    ("distributions", "chi2_survival_even"), ("distributions", "convolve"),
    ("distributions", "hypergeom_pmf"),
    ("distributions", "hypergeom_sum_tail"), ("distributions", "hypergeom_tail"),
    ("distributions", "poisson_dist"),
    ("frequentist", "TestResult"), ("poisson_model", "IntensityEstimate"),
    ("poisson_model", "LikelihoodRatio"), ("poisson_model", "SuspectIntensity"),
    ("poisson_model", "verbal_scale"), ("case", "serialize_case"),
    ("risk_sim", "RelativeRisk"), ("risk_sim", "SimulationConfig"),
    ("risk_sim", "SimulationReport"),
]


class TestNumpyStaysOut:
    """Only relative-risk, and convolved past its bound, need numpy.

    No CLI run loads fractions: the exact methods keep their ratios as
    integer pairs.
    """

    @pytest.mark.parametrize("method", [
        "elffers", "per-ward", "bonferroni", "pooled", "convolved", "fisher",
        "poisson-lr", "binomial-cond", "bayes",
    ])
    def test_exact_methods(self, method):
        done = run_fresh(NUMPY_GUARD, "analyze", "--builtin", "corrected",
                         "--method", method, "--jkz-multiplier", "27")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("case: Lucia de B.")

    def test_convolved_on_four_wards_of_31_points(self, tmp_path):
        # k = 30 in each ward, the widest screening shape: 1,984 products
        wards = tuple(WardRoster(f"W{i}", 1000, 150, 30, 8) for i in range(4))
        path = tmp_path / "four-wards.json"
        path.write_text(serialize_case(CaseFile("four wards", "s", wards)), encoding="utf-8")
        done = run_fresh(NUMPY_GUARD, "analyze", "--case", str(path), "--method", "convolved")
        assert done.returncode == 0, done.stderr
        assert "p_value: 0.0" in done.stdout

    def test_sum_tail_just_under_its_bound(self):
        # 3,000 points in the first ward, each meeting one target of the last
        done = run_fresh(
            "import sys; from rosterstat import distributions as d; "
            "assert d._SUM_TAIL_PRODUCTS == 3_000; "
            "p = d.hypergeom_sum_tail([(10_000, 5_000, 2_999), (10, 1, 1)], 1_500); "
            "assert 0 < p < 1 and 'numpy' not in sys.modules, p")
        assert done.returncode == 0, done.stderr

    def test_rejected_case_file(self, tmp_path):
        doc = json.loads(serialize_case(builtin_paper_case("corrected")))
        doc["evidence"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        done = run_fresh(LAYER_GUARD, "analyze", "--case", str(bad), "--method", "pooled")
        assert done.returncode == 2, done.stderr
        assert done.stderr == "rosterstat: case file: evidence must be an array, got 5\n"

    def test_bare_import(self):
        done = run_fresh("import sys, rosterstat; "
                         "assert 'numpy' not in sys.modules and 'fractions' not in sys.modules; "
                         "assert not [m for m in sys.modules if m.startswith('rosterstat.')]")
        assert done.returncode == 0, done.stderr

    def test_risk_sim_names_still_resolve(self):
        assert rosterstat.simulate_max_rr is risk_sim.simulate_max_rr
        assert not hasattr(rosterstat, "no_such_name")
        namespace: dict = {}
        exec("from rosterstat import *", namespace)
        assert rosterstat.__all__ == PUBLIC_NAMES
        assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC_NAMES

    @pytest.mark.parametrize("name", rosterstat.__all__)
    def test_public_name_is_its_defining_modules_object(self, monkeypatch, name):
        monkeypatch.delitem(vars(rosterstat), name, raising=False)  # so this is a first use
        first = getattr(rosterstat, name)
        defining = importlib.import_module(first.__module__)
        assert first is getattr(defining, name)
        assert vars(rosterstat)[name] is first
        assert getattr(rosterstat, name) is getattr(defining, name)

    @pytest.mark.parametrize("module, name", MODULE_ONLY_NAMES)
    def test_module_only_name_is_not_reexported(self, module, name):
        assert not hasattr(rosterstat, name)
        assert hasattr(importlib.import_module(f"rosterstat.{module}"), name)


def test_cli_offers_the_report_layers_methods_in_order():
    assert cli.METHODS == (
        "elffers", "per-ward", "bonferroni", "pooled", "convolved", "fisher",
        "poisson-lr", "binomial-cond", "bayes", "relative-risk")
    case = builtin_paper_case("corrected")
    names = case.default_ward_names()
    for method in cli.METHODS:
        assert report.run_method(case, method, names, jkz_multiplier=27, replicates=200)
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        report.run_method(case, "nope", names)


# Runs rosterstat.cli.main in a fresh interpreter with its output discarded,
# then prints the process's thread count.
THREAD_COUNT = """
import contextlib, io, sys
import rosterstat.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rosterstat.cli.main(sys.argv[1:])
assert code == 0 and "numpy" in sys.modules
print(next(line for line in open("/proc/self/status") if line.startswith("Threads:")), end="")
"""


class TestOneBlasThread:
    """main starts OpenBLAS with one thread unless the user set a count."""

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")])
    def test_main_sets_the_count_once(self, monkeypatch, capsys, preset, expected):
        # set before it is deleted, so the undo also removes what main sets
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert run(capsys, "analyze", "--builtin", "corrected", "--method", "pooled")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == expected

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_relative_risk_runs_on_one_thread(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        done = run_fresh(THREAD_COUNT, "analyze", "--builtin", "corrected",
                         "--method", "relative-risk", "--replicates", "2000")
        assert (done.returncode, done.stdout) == (0, "Threads:\t1\n"), done.stderr


class TestReproducePaper:
    def test_machine_output_structure(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper", "--replicates", "2000",
                           "--output", "machine")
        doc = json.loads(out)
        labels = [r["label"] for r in doc["results"]]
        assert any("pooled RKZ tail" in l for l in labels)
        assert any("likelihood ratio" in l for l in labels)
        assert any("posterior odds" in l for l in labels)
        assert any("max-relative-risk" in l for l in labels)
        # The published 0.0038 is compared with the corrected counts, whose
        # exact tail is 0.004546: that row, and only that row, fails.
        assert code == 1
        failing = [r["label"] for r in doc["results"] if not r["passed"]]
        assert failing == ["pooled RKZ tail"]

    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run(capsys, "reproduce-paper", "--replicates", "2000",
                          "--seed", "3", "--output", "machine")
        _, second, _ = run(capsys, "reproduce-paper", "--replicates", "2000",
                           "--seed", "3", "--output", "machine")
        assert first == second

    def test_machine_output_is_strict_json_for_an_infinite_figure(self, monkeypatch,
                                                                 capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        row = ReproRow("rr", "inf", float("inf"), "exact", True)
        monkeypatch.setattr("rosterstat.report.reproduce_paper", lambda **_: [row])
        code, out, _ = run(capsys, "reproduce-paper", "--output", "machine")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["results"][0]["computed"] == "Infinity"


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


class TestGoldenOutput:
    """Every analyze method and reproduce-paper print exactly the pinned bytes."""

    @pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN])
    def test_stdout_and_exit_code(self, capsys, record):
        code, out, _ = run(capsys, *record["argv"])
        assert (code, out) == (record["exit_code"], record["stdout"])


class TestRecordGolden:
    """tests/record_golden.py rewrites a copy of the golden file in its own format."""

    @pytest.fixture
    def recorder(self, tmp_path, monkeypatch):
        import record_golden

        copy = tmp_path / "cli_golden.json"
        copy.write_bytes(record_golden.GOLDEN.read_bytes())
        monkeypatch.setattr(record_golden, "GOLDEN", copy)
        return record_golden

    def test_rerecording_every_entry_leaves_the_file_unchanged(self, recorder):
        before = recorder.GOLDEN.read_bytes()
        assert recorder.main([shlex.join(record["argv"]) for record in GOLDEN]) == 0
        assert recorder.GOLDEN.read_bytes() == before

    def test_a_new_argv_is_appended_last(self, recorder, capsys):
        argv = ["analyze", "--builtin", "original", "--method", "per-ward", "--output", "machine"]
        assert recorder.main([shlex.join(argv)]) == 0
        records = json.loads(recorder.GOLDEN.read_text(encoding="utf-8"))
        code, out, _ = run(capsys, *argv)
        assert records == [*GOLDEN, {"argv": argv, "exit_code": code, "stdout": out}]


class TestAnalyzeMatchesReproduce:
    """Each figure reproduce-paper checks is the number analyze prints."""

    @pytest.fixture(scope="class")
    def repro(self):
        return reproduce_paper(seed=3, replicates=2000)

    @pytest.fixture(scope="class")
    def rows(self, repro):
        return {row.label: row.computed for row in repro}

    def analyze(self, capsys, *argv):
        code, out, _ = run(capsys, "analyze", "--output", "machine", *argv)
        assert code == 0
        return json.loads(out)["results"]

    @pytest.mark.parametrize("argv, path, label", [
        (["--method", "bonferroni", "--wards", "JKZ"], [0, "p_value"],
         "JKZ post-hoc bound: 27 x per-ward tail"),
        (["--method", "pooled"], [0, "p_value"], "pooled RKZ tail"),
        (["--method", "pooled"], [0, "p_value"],
         "pooled RKZ tail, exact value for reference (see notes)"),
        (["--method", "convolved"], [0, "p_value"], "convolved RKZ sum tail"),
        (["--method", "poisson-lr", "--mu-basis", "exclude-suspect"],
         [0, "LikelihoodRatio", "value"],
         "likelihood ratio, background from other nurses (13/614)"),
        (["--method", "poisson-lr", "--mu-basis", "include-suspect"],
         [0, "LikelihoodRatio", "value"],
         "likelihood ratio, background from all nurses (19/675)"),
        (["--method", "bayes"], [0, "OddsState", "posterior_odds"],
         "posterior odds (prior probability used as prior odds)"),
        (["--method", "bayes"], [0, "posterior_probability"],
         "posterior probability of guilt"),
        (["--method", "bayes"], [1, "OddsState", "posterior_odds"],
         "posterior odds (strict odds p/(1-p) convention)"),
        (["--method", "relative-risk", "--seed", "3", "--replicates", "2000"],
         [0, "RelativeRisk", "value"], "suspect's relative risk over the RKZ"),
    ])
    def test_corrected_figure(self, capsys, rows, argv, path, label):
        value = self.analyze(capsys, "--builtin", "corrected", *argv)
        for key in path:
            value = value[key]
        assert value == rows[label]

    def test_original_pipeline(self, capsys, rows):
        results = self.analyze(capsys, "--builtin", "original", "--method",
                               "elffers", "--jkz-multiplier", "27")
        assert results[0]["p_value"] == rows[
            "original pipeline product (x27 at JKZ, original variant; NOT a p-value)"]

    def test_binomial_over_pooled_ratio(self, capsys, rows):
        binom = self.analyze(capsys, "--builtin", "corrected", "--method",
                             "binomial-cond")[0]["p_value"]
        pooled = self.analyze(capsys, "--builtin", "corrected", "--method",
                              "pooled")[0]["p_value"]
        assert binom / pooled == rows["conditional binomial vs pooled hypergeometric"]

    @pytest.mark.parametrize("wards, flag", [
        ("whole RKZ", "RKZ-41,RKZ-42"), ("RKZ-41", "RKZ-41"), ("RKZ-42", "RKZ-42"),
    ])
    @pytest.mark.parametrize("basis", ["exclude_suspect", "include_suspect"])
    def test_simulation_table(self, capsys, rows, wards, flag, basis):
        results = self.analyze(capsys, "--builtin", "corrected", "--method",
                               "relative-risk", "--wards", flag, "--mu-basis", basis,
                               "--seed", "3", "--replicates", "2000")
        label = (f"max-relative-risk p-value, {wards}, mu basis {basis} "
                 "(seed 3, 2000 replicates)")
        assert results[1]["SimulationReport"]["p_value"] == rows[label]

    def test_reference_row_is_the_pooled_tail(self, rows):
        assert (rows["pooled RKZ tail, exact value for reference (see notes)"]
                == rows["pooled RKZ tail"])

    def test_reference_row_quotes_both_pooled_tails(self, capsys, repro):
        [row] = [r for r in repro
                 if r.label == "pooled RKZ tail, exact value for reference (see notes)"]
        corrected = self.analyze(capsys, "--builtin", "corrected", "--method", "pooled")
        original = self.analyze(capsys, "--builtin", "original", "--method", "pooled")
        assert f"corrected counts is {corrected[0]['p_value']:.2g}," in row.paper_value
        assert row.paper_value.endswith(f"59 shifts is {original[0]['p_value']:.2g}")
