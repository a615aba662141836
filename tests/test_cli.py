import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hadpoly.analysis import is_ulc
from hadpoly.cli import main, parse_poly, poly_to_csv
from hadpoly.poly import Poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_integers(self):
        assert parse_poly("1,0,7") == Poly([1, 0, 7])

    def test_rationals(self):
        p = parse_poly("1/2, 3")
        assert p.coeffs[0].denominator == 2

    def test_round_trip(self):
        assert parse_poly(poly_to_csv(Poly([1, 0, 7]))) == Poly([1, 0, 7])

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_poly("1,zebra")

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_poly("1/0,2")


class TestOperatorCommands:
    def test_w_of_constant(self, capsys):
        code, out, _ = run(capsys, "w", "--poly", "1")
        assert code == 0 and out.strip() == "1"

    def test_w_json_carries_tag(self, capsys):
        code, out, _ = run(capsys, "w", "--poly", "1", "--json")
        assert code == 0
        assert json.loads(out) == {"coeffs": ["1"], "degree_tag": 0}

    def test_invw(self, capsys):
        code, out, _ = run(capsys, "invw", "--poly", "1", "--degree", "3")
        assert code == 0 and out.strip() == "1,11/6,1,1/6"

    def test_hadamard_example(self, capsys):
        code, out, _ = run(
            capsys,
            "hadamard", "--a", "1,0,0,1", "--da", "6", "--b", "1", "--db", "3",
        )
        assert code == 0
        assert out.strip() == "1,18,45,40,45,18,1"

    def test_hadamard_route_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hadamard", "--a", "1,1", "--da", "1", "--b", "1,1", "--db", "1",
                  "--route", "bullet"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "unrecognized arguments: --route bullet" in captured.err

    def test_gamma_example(self, capsys):
        code, out, _ = run(
            capsys, "gamma", "--poly", "1,8,24,36,24,8,1", "--center", "6"
        )
        assert code == 0 and out.strip() == "1,2,1,2"

    def test_f_and_h(self, capsys):
        code, out, _ = run(capsys, "f", "--poly", "1,0,7", "--degree", "3")
        assert code == 0 and out.strip() == "1,3,10,8"
        code, out, _ = run(capsys, "h", "--poly", "1,3,10,8", "--degree", "3")
        assert code == 0 and out.strip() == "1,0,7"

    def test_diamond(self, capsys):
        code, out, _ = run(capsys, "diamond", "--a", "0,1", "--b", "0,1")
        assert code == 0 and out.strip() == "0,1,2"

    def test_symdec(self, capsys):
        code, out, _ = run(capsys, "symdec", "--poly", "1,3,9,1", "--degree", "3")
        assert code == 0
        assert out.splitlines() == ["a: 1,3,3,1", "b: 0,6"]

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "f", "--poly", "1,0,7", "--degree", "3", "--pretty")
        assert code == 0 and out.strip() == "8x^3 + 10x^2 + 3x + 1"

    @pytest.mark.parametrize(
        "argv",
        [
            ("w", "--poly", "1,2"),
            ("invw", "--poly", "1,2", "--degree", "2"),
            ("f", "--poly", "1,0,7", "--degree", "3"),
            ("h", "--poly", "1,3,10,8", "--degree", "3"),
            ("subdiv", "--poly", "1,2"),
            ("hadamard", "--a", "1,1", "--da", "1", "--b", "1,1", "--db", "1"),
            ("diamond", "--a", "1,1", "--b", "1,1"),
            ("gamma", "--poly", "1,2,1", "--center", "2"),
            ("symdec", "--poly", "1,3,9,1", "--degree", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_and_pretty_together_exit_2(self, capsys, argv):
        assert main([*argv, "--json"]) == 0 and main([*argv, "--pretty"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--json", "--pretty"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "argument --pretty: not allowed with argument --json" in err

    @pytest.mark.parametrize("command, degree", [("invw", "-3"), ("f", "-3"), ("h", "-2")])
    def test_negative_degree_of_zero_exits_2(self, capsys, command, degree):
        code, out, err = run(capsys, command, "--poly", "", "--degree", degree)
        assert (code, out, err) == (2, "", "error: reference degree must be nonnegative\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("invw", "--poly", "1,2", "--degree", "-1"), "reference degree must be nonnegative"),
            (("f", "--poly", "1,2", "--degree", "-1"), "reference degree must be nonnegative"),
            (("h", "--poly", "1", "--degree", "-2"), "reference degree must be nonnegative"),
            (("symdec", "--poly", "1,2", "--degree", "-1"), "reference degree must be nonnegative"),
            (("symdec", "--poly", "", "--degree", "-1"), "reference degree must be nonnegative"),
            (
                ("hadamard", "--a", "1,2,3", "--da", "1", "--b", "1", "--db", "0"),
                "degree overflow: deg h = 2 > d = 1",
            ),
            (
                ("check", "symmetric", "--poly", "1,2", "--degree", "-1"),
                "reference degree must be nonnegative",
            ),
            (
                ("check", "symmetric", "--poly", "1,2,1", "--degree", "-1"),
                "reference degree must be nonnegative",
            ),
            (
                ("check", "symmetric", "--poly", "", "--degree", "-1"),
                "reference degree must be nonnegative",
            ),
            (
                ("check", "symmetric", "--poly", "1,2,3", "--degree", "1"),
                "degree overflow: deg h = 2 > d = 1",
            ),
        ],
        ids=[
            "invw",
            "f",
            "h",
            "symdec",
            "symdec-zero",
            "hadamard",
            "symmetric",
            "symmetric-palindrome",
            "symmetric-zero",
            "symmetric-overflow",
        ],
    )
    def test_tag_error_exits_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_precondition_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "invw", "--poly", "1,0,7", "--degree", "1")
        assert code == 2
        assert "degree overflow" in err

    def test_malformed_poly_exits_2(self, capsys):
        code, _, err = run(capsys, "w", "--poly", "1,goat")
        assert code == 2 and "error" in err

    def test_input_file(self, capsys, tmp_path):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": ["1", "0", "7"], "degree_tag": 3}))
        code, out, _ = run(capsys, "f", "--in", str(spec), "--degree", "3")
        assert code == 0 and out.strip() == "1,3,10,8"

    def test_input_file_bad_tag(self, capsys, tmp_path):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": ["1", "0", "7"], "degree_tag": 1}))
        code, _, err = run(capsys, "f", "--in", str(spec), "--degree", "3")
        assert code == 2

    @pytest.mark.parametrize("coeffs", ["123", {"0": 1}, 7, None])
    def test_input_file_coeffs_not_a_list(self, capsys, tmp_path, coeffs):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": coeffs}))
        code, out, err = run(capsys, "f", "--in", str(spec), "--degree", "3")
        assert code == 2 and out == "" and "'coeffs' must be a JSON list" in err

    @pytest.mark.parametrize(
        "command", [("f", "--degree", "3"), ("check", "logconcave")], ids=["f", "check"]
    )
    def test_poly_and_input_file_together_exit_2(self, capsys, tmp_path, command):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": ["1", "0", "7"]}))
        with pytest.raises(SystemExit) as exc:
            main([*command, "--poly", "5,5", "--in", str(spec)])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --in: not allowed with argument --poly" in captured.err

    @pytest.mark.parametrize("command", [("f", "--degree", "2"), ("gamma", "--center", "2")])
    def test_input_file_zero_denominator_exits_2(self, capsys, tmp_path, command):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": ["1/0", 2]}))
        code, out, err = run(capsys, command[0], "--in", str(spec), *command[1:])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {spec}:") and "zero denominator" in err

    def test_input_file_entry_with_a_comma_rejected(self, capsys, tmp_path):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": ["1,2"]}))
        code, out, err = run(capsys, "f", "--in", str(spec), "--degree", "2")
        assert code == 2 and out == "" and err.startswith(f"error: {spec}:")

    @pytest.mark.parametrize("tag", [True, 2.9, "2", -1])
    def test_input_file_tag_not_an_int(self, capsys, tmp_path, tag):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": [1, 0, 7], "degree_tag": tag}))
        code, out, err = run(capsys, "f", "--in", str(spec), "--degree", "2")
        assert code == 2 and out == "" and "degree_tag must be a nonnegative integer" in err

    @pytest.mark.parametrize("literal", ["0.12345678901234567890", "1e400", "-2.5E-3"])
    def test_input_file_decimals_read_exactly(self, capsys, tmp_path, literal):
        spec = tmp_path / "poly.json"
        spec.write_text(f'{{"coeffs": [{literal}, 1], "degree_tag": 1}}')
        from_file = run(capsys, "h", "--in", str(spec))
        assert from_file == run(capsys, "h", "--poly", f"{literal},1", "--degree", "1")
        assert from_file[0] == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_input_file_non_finite_exits_2(self, capsys, tmp_path, literal):
        spec = tmp_path / "poly.json"
        spec.write_text(f'{{"coeffs": [{literal}, 1], "degree_tag": 1}}')
        code, out, err = run(capsys, "h", "--in", str(spec))
        assert code == 2 and out == "" and "cannot parse 'coeffs'" in err

    @pytest.mark.parametrize(
        "command, expected", [("invw", "1,-2,4"), ("f", "1,2,8"), ("h", "1,-2,8")]
    )
    def test_input_file_tag_is_the_default_degree(self, capsys, tmp_path, command, expected):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": [1, 0, 7], "degree_tag": 2}))
        code, out, _ = run(capsys, command, "--in", str(spec))
        assert code == 0
        assert out == run(capsys, command, "--poly", "1,0,7", "--degree", "2")[1]
        assert out.strip() == expected

    @pytest.mark.parametrize("command", ["invw", "f", "h"])
    def test_input_file_tag_conflicts_with_degree(self, capsys, tmp_path, command):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": [1, 0, 7], "degree_tag": 2}))
        code, out, err = run(capsys, command, "--in", str(spec), "--degree", "5")
        assert code == 2 and out == "" and "conflicts with the file's degree_tag 2" in err

    def test_missing_degree_exits_2(self, capsys):
        code, out, err = run(capsys, "f", "--poly", "1,0,7")
        assert code == 2 and out == "" and "missing reference degree" in err

    @pytest.mark.parametrize(
        "command, coeffs, tag, expected",
        [
            (("symdec",), [1, 0, 7], 2, "a: 1,-6,1\nb: 6,6"),
            (("check", "symmetric"), [1, 0, 0, 1], 6, "holds: axis 3, defect 3"),
        ],
        ids=["symdec", "check-symmetric"],
    )
    def test_input_file_tag_is_the_reference_degree(
        self, capsys, tmp_path, command, coeffs, tag, expected
    ):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": coeffs, "degree_tag": tag}))
        code, out, _ = run(capsys, *command, "--in", str(spec))
        assert code == 0
        poly = ",".join(map(str, coeffs))
        assert out == run(capsys, *command, "--poly", poly, "--degree", str(tag))[1]
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "command", [("symdec",), ("check", "symmetric")], ids=["symdec", "check-symmetric"]
    )
    def test_input_file_tag_conflicts_with_reference_degree(self, capsys, tmp_path, command):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": [1, 0, 7], "degree_tag": 2}))
        code, out, err = run(capsys, *command, "--in", str(spec), "--degree", "5")
        assert code == 2 and out == "" and "conflicts with the file's degree_tag 2" in err

    def test_symdec_missing_degree_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "symdec", "--poly", "1,0,7")
        assert code == 2 and out == "" and "missing reference degree" in err
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": [1, 0, 7]}))
        code, out, err = run(capsys, "symdec", "--in", str(spec))
        assert code == 2 and out == "" and "missing reference degree" in err

    def test_check_symmetric_degree_stays_optional(self, capsys):
        code, out, _ = run(capsys, "check", "symmetric", "--poly", "1,0,0,1")
        assert code == 0 and out.strip() == "holds: axis 3"


#: the checks that read ``--poly`` and ``--in``
_SINGLE_CHECKS = "nonneg, internal-zeros, unimodal, logconcave, ulc, realrooted, gammapos, symmetric"


class TestCheckCommand:
    def test_logconcave_failure(self, capsys):
        code, out, _ = run(capsys, "check", "logconcave", "--poly", "1,3,10,8")
        assert code == 1
        assert "'index': 1" in out

    def test_logconcave_failure_past_the_digit_limit(self, capsys):
        a = "3" + "0" * 2200
        code, out, _ = run(capsys, "check", "logconcave", "--poly", f"{a},1,{a}")
        assert code == 1
        assert out == (
            "fails: a_1^2 < a_0 a_2 (too many digits to print the values)  witness={'index': 1}\n"
        )

    def test_ulc_holds(self, capsys):
        code, out, _ = run(
            capsys, "check", "ulc", "--poly", "1,8,24,36,24,8,1", "--order", "6"
        )
        assert code == 0 and out.startswith("holds")

    def test_realrooted_failure(self, capsys):
        code, out, _ = run(
            capsys, "check", "realrooted", "--poly", "1,42,639,1836,1239,162,1"
        )
        assert code == 1

    def test_unimodal_failure(self, capsys):
        code, _, _ = run(capsys, "check", "unimodal", "--poly", "1,18,45,40,45,18,1")
        assert code == 1

    def test_internal_zeros(self, capsys):
        code, _, _ = run(capsys, "check", "internal-zeros", "--poly", "1,0,0,1")
        assert code == 1
        code, _, _ = run(capsys, "check", "internal-zeros", "--poly", "1,3,3,1")
        assert code == 0

    def test_symmetric_with_defect(self, capsys):
        code, out, _ = run(
            capsys, "check", "symmetric", "--poly", "1,0,0,1", "--degree", "6"
        )
        assert code == 0 and "defect 3" in out

    def test_gammapos(self, capsys):
        code, _, _ = run(
            capsys, "check", "gammapos", "--poly", "1,1,1", "--center", "2"
        )
        assert code == 1

    def test_interlacing(self, capsys):
        code, _, _ = run(
            capsys, "check", "interlacing", "--b", "2,1", "--a", "1,1"
        )
        assert code == 0
        code, _, _ = run(
            capsys, "check", "interlacing", "--b", "1,1", "--a", "6,5,1"
        )
        assert code == 1

    def test_nonneg(self, capsys):
        code, _, _ = run(capsys, "check", "nonneg", "--poly", "1,-2")
        assert code == 1

    def test_ulc_negative_order_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "ulc", "--poly", "", "--order", "-3")
        assert code == 2 and out == "" and "order must be nonnegative" in err

    def test_ulc_errors_in_order(self, capsys):
        # the order's sign, then the coefficients' signs, then the order against the degree
        for p, m, message in [
            (Poly([1, -2, 1]), -1, "order must be nonnegative"),
            (Poly([1, -2, 1]), 1, "negative coefficient -2 at index 1"),
            (Poly([1, 2, 1]), 1, "order 1 is smaller than the degree 2"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                is_ulc(p, m)
        code, out, err = run(capsys, "check", "ulc", "--poly", "1,2,1", "--order", "1")
        assert (code, out, err) == (2, "", "error: order 1 is smaller than the degree 2\n")

    def test_ulc_missing_order(self, capsys):
        code, _, err = run(capsys, "check", "ulc", "--poly", "1,2,1")
        assert code == 2 and "--order" in err

    @pytest.mark.parametrize(
        "prop, message",
        [
            ("ulc", "check ulc needs --order"),
            ("gammapos", "check gammapos needs --center"),
            ("interlacing", "check interlacing needs --b and --a"),
        ],
    )
    def test_missing_option_message(self, capsys, prop, message):
        code, out, err = run(capsys, "check", prop, "--poly", "1,2,1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "prop", ["nonneg", "internal-zeros", "unimodal", "logconcave", "ulc", "realrooted", "gammapos"]
    )
    def test_single_polynomial_checks_read_the_input_file(self, capsys, tmp_path, prop):
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"coeffs": [1, 2, 1], "degree_tag": 2}))
        flags = {"ulc": ("--order", "2"), "gammapos": ("--center", "2")}.get(prop, ())
        code, out, _ = run(capsys, "check", prop, "--in", str(spec), *flags)
        assert code == 0 and out.startswith("holds")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("gammapos", "--poly", "1,2,1", "--center", "2", "--order", "0"),
             "--order applies only to ulc, not to gammapos"),
            (("ulc", "--poly", "1,2,1", "--order", "2", "--center", "2"),
             "--center applies only to gammapos, not to ulc"),
            (("nonneg", "--poly", "1,2", "--a", "-1,1"),
             "--a applies only to interlacing, not to nonneg"),
            (("realrooted", "--poly", "1,2", "--b", "1,1"),
             "--b applies only to interlacing, not to realrooted"),
            (("interlacing", "--poly", "5,1", "--a", "2,3,1", "--b", "1,1"),
             f"--poly applies only to {_SINGLE_CHECKS}, not to interlacing"),
            (("interlacing", "--in", "poly.json", "--a", "2,3,1", "--b", "1,1"),
             f"--in applies only to {_SINGLE_CHECKS}, not to interlacing"),
            (("interlacing", "--degree", "2", "--a", "2,3,1", "--b", "1,1"),
             "--degree applies only to symmetric, not to interlacing"),
            (("nonneg", "--poly", "1,2,1", "--degree", "-5"),
             "--degree applies only to symmetric, not to nonneg"),
            (("logconcave", "--poly", "1,2,1", "--degree", "0"),
             "--degree applies only to symmetric, not to logconcave"),
            (("ulc", "--poly", "1,2,1", "--order", "2", "--degree", "1"),
             "--degree applies only to symmetric, not to ulc"),
            (("realrooted", "--poly", "", "--degree", "-1"),
             "--degree applies only to symmetric, not to realrooted"),
            (("logconcave", "--poly", "1,2,1", "--degree", "2"),
             "--degree applies only to symmetric, not to logconcave"),
            (("logconcave", "--poly", "1,2,1", "--degree", "7"),
             "--degree applies only to symmetric, not to logconcave"),
            (("nonneg", "--in", "poly.json", "--degree", "5"),
             "--degree applies only to symmetric, not to nonneg"),
            (("internal-zeros", "--in", "poly.json", "--degree", "5"),
             "--degree applies only to symmetric, not to internal-zeros"),
            (("unimodal", "--in", "poly.json", "--degree", "5"),
             "--degree applies only to symmetric, not to unimodal"),
            (("logconcave", "--in", "poly.json", "--degree", "5"),
             "--degree applies only to symmetric, not to logconcave"),
            (("ulc", "--in", "poly.json", "--degree", "5", "--order", "2"),
             "--degree applies only to symmetric, not to ulc"),
            (("realrooted", "--in", "poly.json", "--degree", "5"),
             "--degree applies only to symmetric, not to realrooted"),
            (("gammapos", "--in", "poly.json", "--degree", "5", "--center", "2"),
             "--degree applies only to symmetric, not to gammapos"),
        ],
    )
    def test_option_the_property_does_not_read_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "check", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "check", "logconcave", "--poly", "1,3,10,8", "--json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["witness"] == {"index": 1}


class TestNegativeLeadingValues:
    """Coefficient lists starting with "-" are values, not options."""

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (["check", "realrooted", "--poly", "-1,0,1"], 0, "holds"),
            (["check", "realrooted", "--poly", "-1,0,-1"], 1, "fails: only 0 of 2"),
            (["check", "realrooted", "--poly=-1,0,1"], 0, "holds"),
            (["hadamard", "--a", "-1,2", "--da", "1", "--b", "1", "--db", "0"], 0, "-1,2"),
            (["hadamard", "--a", "1,2", "--da", "1", "--b", "-1", "--db", "0"], 0, "-1,-2"),
            (["diamond", "--a", "-1,1", "--b", "-1"], 0, "1,-1"),
            (["check", "interlacing", "--b", "-1,1", "--a", "-2,0,1"], 0, "holds"),
            (["f", "--poly", "-1/2,1", "--degree", "1"], 0, "-1/2,1/2"),
            (["check", "interlacing", "--b", "1,1", "--a", "-2"], 1,
             "fails: degree mismatch: deg b = 1 not in {0}  witness={'deg_a': 0, 'deg_b': 1}"),
        ],
    )
    def test_value_read(self, capsys, argv, code, out):
        got_code, got_out, _ = run(capsys, *argv)
        assert got_code == code
        assert got_out.startswith(out)

    def test_missing_value_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "realrooted", "--poly", "--json"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_small_wagner(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "wagner", "--trials", "10", "--max-degree", "5", "--seed", "1",
        )
        assert code == 0
        assert "suite: wagner" in out and "PASS" in out

    def test_reeve(self, capsys):
        code, out, _ = run(capsys, "verify", "reeve", "--kmax", "3")
        assert code == 0 and "PASS" in out

    def test_reeve_at_power_100(self, capsys):
        code, out, _ = run(capsys, "verify", "reeve", "--kmax", "100")
        assert code == 0
        summary = "counterexample confirmed for every power k >= 1, and power by power up to 100"
        assert f"PASS: {summary}\n" in out

    def test_deterministic_output(self, capsys):
        args = ("verify", "no-internal-zeros", "--trials", "10", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_bad_config_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "wagner", "--trials", "0")
        assert code == 2

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_reeve_kmax_0_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "reeve", "--kmax", "0")
        assert (code, out) == (2, "")
        assert err == "error: k_max must be at least 1\n"

    def test_reeve_defaults_to_power_8(self, capsys):
        code, out, _ = run(capsys, "verify", "reeve")
        assert code == 0
        assert out.startswith("suite: reeve\nk-max=8\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--trials", "0"), "trials must be at least 1"),
            (("--seed", "-5"), "seed must fit in 64 bits"),
            (("--max-degree", "0"), "max_degree must be at least 1"),
            (("--max-coefficient", "0"), "max_coefficient must be at least 1"),
        ],
    )
    def test_reeve_validates_trial_flags(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", "reeve", "--kmax", "3", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("kmax", ["5", "0"])
    def test_kmax_outside_reeve_exits_2(self, capsys, kmax):
        code, out, err = run(capsys, "verify", "wagner", "--kmax", kmax)
        assert (code, out) == (2, "")
        assert err == "error: --kmax applies only to reeve, not to wagner\n"


class TestScanCommand:
    def test_scan_runs(self, capsys):
        code, out, _ = run(
            capsys, "scan", "logconcave-pair", "--trials", "10", "--seed", "3"
        )
        assert code == 0
        assert "scan-logconcave-pair" in out

    def test_bad_config_exits_2(self, capsys):
        code, out, err = run(capsys, "scan", "logconcave-pair", "--trials", "0")
        assert (code, out, err) == (2, "", "error: trials must be at least 1\n")


class TestModuleEntryPoint:
    """``python -m hadpoly`` passes ``main``'s return value to the process exit code."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "reeve", "--kmax", "3"], 0),
            (["check", "realrooted", "--poly", "1,0,7"], 1),
            (["check", "ulc", "--poly", "1,2"], 2),
        ],
        ids=["pass", "fail", "usage"],
    )
    def test_exit_code(self, argv, code):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "hadpoly", *argv], env=env, capture_output=True)
        assert done.returncode == code, done.stderr
