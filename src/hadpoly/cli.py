"""Command-line surface.

Polynomials are passed as comma-separated coefficients in ascending degree
order ("1,0,7" is 1 + 7x^2); entries may be integers or "num/den" rationals.
Results print in the same format by default, as a JSON object with
``--json``, or human-readable with ``--pretty``.  ``--in FILE`` reads a JSON
object ``{"coeffs": [...], "degree_tag": n}`` instead of ``--poly``; for
``invw``, ``f``, ``h``, ``symdec`` and ``check symmetric`` the tag is the
default ``--degree`` and must agree with an explicit one; no other check
takes ``--degree``.

Exit codes: 0 a computation succeeded / a checked property holds / a verify
suite or the scan met its expectation; 1 a checked property fails or a suite
or the scan found a violation; 2 malformed input or a violated precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis, decomp, operators
from .generators import TrialConfig
from .harness import SUITES, scan_logconcave_pair, verify_reeve
from .poly import Poly, TaggedPoly, format_poly


def _parse_coefficient(text: str) -> Fraction:
    """One coefficient: an integer, a decimal or "num/den"."""
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def parse_poly(text: str) -> Poly:
    """Parse comma-separated ascending coefficients ("1,3/2,0,7")."""
    text = text.strip()
    if not text:
        return Poly()
    try:
        return Poly([_parse_coefficient(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"cannot parse polynomial {text!r}: {exc}") from exc


def poly_to_csv(p: Poly) -> str:
    return ",".join(str(c) for c in p.coeffs) if not p.is_zero else "0"


def _load_input_file(path: str) -> tuple[Poly, int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_float=Fraction)  # decimals read exactly, as in --poly
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'coeffs' field")
    if not isinstance(data["coeffs"], list):
        raise ValueError(f"{path}: 'coeffs' must be a JSON list")
    try:
        poly = Poly([_parse_coefficient(str(c)) for c in data["coeffs"]])
    except ValueError as exc:
        raise ValueError(f"{path}: cannot parse 'coeffs': {exc}") from exc
    tag = data.get("degree_tag")
    if tag is not None:
        if isinstance(tag, bool) or not isinstance(tag, int) or tag < 0:
            raise ValueError(f"{path}: degree_tag must be a nonnegative integer, got {tag!r}")
        if not poly.is_zero and poly.degree > tag:
            raise ValueError(f"{path}: degree_tag {tag} below the parsed degree")
    return poly, tag


def _read_input(args) -> tuple[Poly, int | None]:
    if args.infile:
        return _load_input_file(args.infile)
    if args.poly is None:
        raise ValueError("missing polynomial: pass --poly or --in FILE")
    return parse_poly(args.poly), None


def _input_with_degree(args, required: bool = True) -> tuple[Poly, int | None]:
    """The input polynomial and its reference degree: ``--degree`` or the file's tag.

    With neither, the degree is ``None`` if it is optional and an error if
    it is ``required``.
    """
    poly, tag = _read_input(args)
    degree = args.degree
    if degree is None:
        if tag is None and required:
            raise ValueError("missing reference degree: pass --degree or a degree_tag")
        return poly, tag
    if tag is not None and tag != degree:
        raise ValueError(f"--degree {degree} conflicts with the file's degree_tag {tag}")
    return poly, degree


def _input_poly(args) -> Poly:
    """The input polynomial of an operator or of a single-polynomial check."""
    return _read_input(args)[0]


def _add_output_flags(sub) -> None:
    output = sub.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="emit a JSON object")
    output.add_argument("--pretty", action="store_true", help="human-readable output")


def _add_poly_input(sub) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--poly", help="comma-separated ascending coefficients")
    source.add_argument("--in", dest="infile", help="read one JSON polynomial object")


# -- single-operator commands --------------------------------------------------


def _tagged(t: TaggedPoly) -> tuple[Poly, int]:
    return t.poly, t.ref_degree


#: operator command -> its (polynomial, tag or None) on the parsed arguments
_OPERATORS = {
    "w": lambda args: _tagged(operators.w_transform(_input_poly(args))),
    "invw": lambda args: (operators.w_inverse(*_input_with_degree(args)), None),
    "f": lambda args: (operators.f_from_h(*_input_with_degree(args)), None),
    "h": lambda args: (operators.h_from_f(*_input_with_degree(args)), None),
    "subdiv": lambda args: (operators.subdivision(_input_poly(args)), None),
    "hadamard": lambda args: _tagged(
        operators.hadamard(
            TaggedPoly(parse_poly(args.a), args.da),
            TaggedPoly(parse_poly(args.b), args.db),
        )
    ),
    "diamond": lambda args: (operators.diamond(parse_poly(args.a), parse_poly(args.b)), None),
    "gamma": lambda args: (analysis.gamma_expand(_input_poly(args), args.center), None),
}


def cmd_operator(args) -> int:
    p, tag = _OPERATORS[args.command](args)
    if args.json:
        tagged = {} if tag is None else {"degree_tag": tag}
        print(json.dumps({"coeffs": [str(c) for c in p.coeffs], **tagged}))
    elif args.pretty:
        print(format_poly(p) + ("" if tag is None else f"   (tag {tag})"))
    else:
        print(poly_to_csv(p))
    return 0


def cmd_symdec(args) -> int:
    h, degree = _input_with_degree(args)
    dec = decomp.i_decompose(h, degree)
    if args.json:
        print(
            json.dumps(
                {
                    "a": [str(c) for c in dec.a.coeffs],
                    "b": [str(c) for c in dec.b.coeffs],
                    "d": dec.d,
                }
            )
        )
    elif args.pretty:
        print(f"a = {format_poly(dec.a)}")
        print(f"b = {format_poly(dec.b)}")
    else:
        print(f"a: {poly_to_csv(dec.a)}")
        print(f"b: {poly_to_csv(dec.b)}")
    return 0


# -- property checks ------------------------------------------------------------


def _check_symmetric(args) -> analysis.PropertyReport:
    p, degree = _input_with_degree(args, required=False)
    cert = analysis.symmetry_certificate(p, degree)
    if cert is None:
        return analysis.PropertyReport.failed(
            {"reason": "no axis"}, "polynomial differs from its reversal"
        )
    detail = f"axis {cert.center_numerator}"
    if cert.defect is not None:
        detail += f", defect {cert.defect}"
    return analysis.PropertyReport.passed(detail)


#: the options every single-polynomial check reads
_SINGLE = ("poly", "infile")

#: ``check`` property -> (its report on the parsed arguments, the options it
#: needs, the other options it reads); any other option is an error
_CHECKS = {
    "nonneg": (lambda args: analysis.is_nonnegative(_input_poly(args)), (), _SINGLE),
    "internal-zeros": (lambda args: analysis.has_internal_zeros(_input_poly(args)), (), _SINGLE),
    "unimodal": (lambda args: analysis.is_unimodal(_input_poly(args)), (), _SINGLE),
    "logconcave": (lambda args: analysis.is_log_concave(_input_poly(args)), (), _SINGLE),
    "ulc": (lambda args: analysis.is_ulc(_input_poly(args), args.order), ("order",), _SINGLE),
    "realrooted": (lambda args: analysis.is_real_rooted(_input_poly(args)), (), _SINGLE),
    "gammapos": (
        lambda args: analysis.is_gamma_positive(_input_poly(args), args.center),
        ("center",),
        _SINGLE,
    ),
    "symmetric": (_check_symmetric, (), _SINGLE + ("degree",)),
    "interlacing": (
        lambda args: analysis.interlaces(parse_poly(args.b), parse_poly(args.a)), ("b", "a"), ()
    ),
}


def cmd_check(args) -> int:
    check, needs, reads = _CHECKS[args.property]
    if any(getattr(args, option) is None for option in needs):
        raise ValueError(f"check {args.property} needs {' and '.join('--' + o for o in needs)}")
    for option in dict.fromkeys(o for _, n, r in _CHECKS.values() for o in r + n):
        if getattr(args, option) is not None and option not in needs + reads:
            users = ", ".join(name for name, (_, n, r) in _CHECKS.items() if option in r + n)
            flag = "--in" if option == "infile" else f"--{option}"
            raise ValueError(f"{flag} applies only to {users}, not to {args.property}")
    report = check(args)
    if args.json:
        print(
            json.dumps(
                {"holds": report.holds, "witness": report.witness, "detail": report.detail}
            )
        )
    elif report.holds:
        print(f"holds{': ' + report.detail if report.detail else ''}")
    else:
        print(f"fails: {report.detail}  witness={report.witness}")
    return 0 if report.holds else 1


# -- verification suites ---------------------------------------------------------


def _trial_config(args) -> TrialConfig:
    """The ``TrialConfig`` of the trial flags; built for every target, so bad flags exit 2."""
    return TrialConfig(
        seed=args.seed,
        trials=args.trials,
        max_degree=args.max_degree,
        max_coefficient=args.max_coefficient,
    )


def cmd_suite(args) -> int:
    """``verify`` and ``scan``: print the report; exit 1 if it failed."""
    config = _trial_config(args)
    if args.command == "scan":
        result = scan_logconcave_pair(config)
    elif args.theorem == "reeve":
        result = verify_reeve() if args.kmax is None else verify_reeve(args.kmax)
    elif args.kmax is not None:
        raise ValueError(f"--kmax applies only to reeve, not to {args.theorem}")
    else:
        result = SUITES[args.theorem](config)
    print(result.render())
    return 0 if result.ok else 1


def _add_trial_flags(sub) -> None:
    sub.add_argument("--seed", type=int, default=1, help="64-bit master seed")
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--max-degree", type=int, default=8)
    sub.add_argument("--max-coefficient", type=int, default=9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadpoly",
        description=(
            "Exact calculus on numerators of polynomial-interpolated power "
            "series: Hadamard/diamond products, basis changes, coefficient "
            "property checks, and randomized verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, degree_help in (
        ("w", None),
        ("invw", "reference degree of the interpolating polynomial"),
        ("f", "reference degree for the basis change"),
        ("h", "reference degree for the basis change"),
        ("subdiv", None),
    ):
        s = sub.add_parser(name)
        _add_poly_input(s)
        if degree_help:
            s.add_argument(
                "--degree", type=int, help=f"{degree_help} (default: the --in file's degree_tag)"
            )

    s = sub.add_parser("hadamard")
    s.add_argument("--a", required=True)
    s.add_argument("--da", type=int, required=True, help="tag of the first factor")
    s.add_argument("--b", required=True)
    s.add_argument("--db", type=int, required=True, help="tag of the second factor")

    s = sub.add_parser("diamond")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)

    s = sub.add_parser("gamma")
    _add_poly_input(s)
    s.add_argument("--center", type=int, required=True, help="symmetry axis s")

    for name in _OPERATORS:
        _add_output_flags(sub.choices[name])
        sub.choices[name].set_defaults(fn=cmd_operator)

    s = sub.add_parser("symdec")
    _add_poly_input(s)
    s.add_argument(
        "--degree", type=int, help="reference degree (default: the --in file's degree_tag)"
    )
    _add_output_flags(s)
    s.set_defaults(fn=cmd_symdec)

    s = sub.add_parser("check")
    s.add_argument("property", choices=list(_CHECKS))
    _add_poly_input(s)
    s.add_argument("--order", type=int, help="order m for the ulc check")
    s.add_argument("--center", type=int, help="axis s for the gammapos check")
    s.add_argument(
        "--degree",
        type=int,
        help="reference degree for symmetric (default: the --in file's degree_tag)",
    )
    s.add_argument("--a", help="interlaced polynomial (interlacing check)")
    s.add_argument("--b", help="interlacing polynomial (interlacing check)")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("verify")
    s.add_argument("theorem", choices=sorted(SUITES) + ["reeve"])
    _add_trial_flags(s)
    s.add_argument("--kmax", type=int, help="highest power (reeve only)")
    s.set_defaults(fn=cmd_suite)

    s = sub.add_parser("scan")
    s.add_argument("target", choices=["logconcave-pair"])
    _add_trial_flags(s)
    s.set_defaults(fn=cmd_suite)

    return parser


#: options whose value is a coefficient list, which may start with "-"
_POLY_OPTIONS = ("--poly", "--a", "--b")


def _attach_poly_values(argv: list[str]) -> list[str]:
    """Join ``--poly -1,0,1`` into ``--poly=-1,0,1`` (likewise ``--a``, ``--b``).

    argparse would read a value starting with "-" as an option.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _POLY_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_poly_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
