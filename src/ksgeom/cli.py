"""Command-line interface.

Subcommands:
  ks reach  --from X,Y,Z --to X,Y,Z [--json] [-o FILE]
  ks demo   first [--pole X,Y,Z] [-o DIR] [--json]
  ks demo   second [-o DIR] [--json]
  ks color  FILE --mode count|witness|prove-none [--json]
  ks verify FILE [--json]

Vector components accept plain numbers or simple expressions over + - * /,
parentheses, sin, cos, tan, sqrt and pi, e.g. --pole 0,sin(0.44),cos(0.44).
A vector may start with '-': --pole -0.2,0.3,0.93 and --pole=-0.2,0.3,0.93
are the same, and so are they under a unique prefix of the option's name
(--pol -0.2,0.3,0.93).
Unnormalized inputs are canonicalized with a warning once the norm strays
more than 1e-6 from 1. Every command compares at the fixed tolerance
ksgeom.EPS = 1e-9; color validates a system, and verify a certificate, at
its document's own eps.
With --json every command prints one JSON document; errors and warnings
go to stderr, as JSON under --json. Every library error maps to a fixed
exit code (ksgeom.errors.EXIT_CODES); verification rejects exit 22 and
unmet coloring expectations exit 23. Bad invocations (an unknown option,
--pole given to demo second, an unreadable input or unwritable output file,
a stdout closed by its reader) exit 2.
A stderr closed by its reader loses the messages but changes no exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

from .coloring import SolveMode, solve
from .demos import DEFAULT_POLE_ANGLE, demo_first_proof, demo_second_proof
from .errors import (
    EXIT_EXPECTATION,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    KsError,
    ParseError,
)
from .reach import reach, verify_certificate
from .serialize import (
    certificate_to_doc,
    load_certificate,
    report_to_doc,
    save_certificate,
    save_trace,
)
from .sphere import Ray, canonicalize, norm
from .system import load_system, save_system
from .trace import decision_core, extract_triad_system

_EXPR_NAMES = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sqrt": math.sqrt,
    "pi": math.pi,
}
_EXPR_OK = re.compile(r"^[0-9a-z_+\-*/(). eE]*$")


def _eval_component(text: str) -> float:
    text = text.strip()
    if not _EXPR_OK.match(text):
        raise ParseError(f"unsupported characters in component {text!r}")
    if "**" in text:
        raise ParseError(f"unsupported operator '**' in component {text!r}")
    names = set(re.findall(r"[A-Za-z_]+", text)) - {"e", "E"}
    unknown = names - set(_EXPR_NAMES)
    if unknown:
        raise ParseError(f"unknown names in component {text!r}: {sorted(unknown)}")
    try:
        return float(eval(text, {"__builtins__": {}}, dict(_EXPR_NAMES)))
    except Exception as exc:
        raise ParseError(f"cannot evaluate component {text!r}: {exc}") from exc


def _parse_vec(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"expected three comma-separated components, got {text!r}")
    vec = tuple(_eval_component(p) for p in parts)
    if not math.isfinite(sum(c * c for c in vec)):
        raise ParseError(f"components of {text!r} are not finite or overflow the norm")
    return vec


def _input_ray(text: str, json_mode: bool) -> Ray:
    v = _parse_vec(text)
    n = norm(v)
    if abs(n - 1.0) > 1e-6:
        _warn(f"input {text!r} has norm {n!r}; normalizing", json_mode)
    return canonicalize(v)


def _to_devnull(stream) -> None:
    """Point a stream whose reader is gone at /dev/null, so that no later
    write or the flush at interpreter exit fails on the dead pipe."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _stderr(line: str) -> None:
    """One line to stderr; a reader that has gone away costs only the line."""
    try:
        print(line, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _warn(message: str, json_mode: bool) -> None:
    _stderr(json.dumps({"warning": message}) if json_mode else f"warning: {message}")


# Each command returns (exit code, JSON document, text); main prints one of them.
Outcome = tuple[int, dict, str]


def cmd_reach(args) -> Outcome:
    src = _input_ray(args.src, args.json)
    dst = _input_ray(args.dst, args.json)
    cert = reach(src, dst)
    report = verify_certificate(cert)
    cert_text = save_certificate(cert, report.link_residuals)
    if args.out:
        Path(args.out).write_text(cert_text)
    summary = {
        "points": len(cert.points),
        "shell_n": cert.shell_n,
        "max_residual": max(report.link_residuals),
        "accepted": report.accepted,
        "out": args.out,
    }
    line = (
        f"certificate: {summary['points']} points, shell_n={summary['shell_n']}, "
        f"max link residual {summary['max_residual']:.3e}"
    )
    doc = {**certificate_to_doc(cert, report.link_residuals), "summary": summary}
    return EXIT_OK, doc, line if args.out else cert_text + line


def cmd_demo(args) -> Outcome:
    if args.which == "first":
        pole = _DEFAULT_POLE if args.pole is None else args.pole
        trace = demo_first_proof(_input_ray(pole, args.json))
    else:
        trace = demo_second_proof()
    system = extract_triad_system(trace)
    core = decision_core(trace, system)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "trace.json").write_text(save_trace(trace))
        (outdir / "system.json").write_text(save_system(system))
    pair = trace.contradiction
    doc = {
        "rays": system.n_rays,
        "triads": len(system.triads),
        "pairs": len(system.pairs),
        "branches": len(trace.branches),
        "leaves": len(trace.leaves()),
        "facts": len(trace.facts),
        "decision_core": list(core),
        "contradiction_witness": (
            list(trace.rays[trace.facts[pair[1]].ray].vec) if pair else None
        ),
    }
    lines = [
        f"demo {args.which}: {doc['facts']} facts in "
        f"{doc['branches']} branches, all {doc['leaves']} leaves closed",
        f"extracted system: {doc['rays']} rays, {doc['triads']} triads, "
        f"{doc['pairs']} pairs; decision core {doc['decision_core']}",
    ]
    if args.out:
        lines.append(f"wrote {args.out}/trace.json and {args.out}/system.json")
    return EXIT_OK, doc, "\n".join(lines)


def cmd_color(args) -> Outcome:
    mode = SolveMode(args.mode)
    result = solve(load_system(Path(args.file).read_bytes()), mode)
    doc = {
        "mode": args.mode,
        "count": result.count,
        "witness": list(result.witness) if result.witness is not None else None,
        "nodes_explored": result.nodes_explored,
        "exhaustive": result.exhaustive,
    }
    lines = [
        f"{args.mode}: count={result.count} nodes={result.nodes_explored} "
        f"exhaustive={result.exhaustive}"
    ]
    if result.witness is not None and mode is SolveMode.FIRST_WITNESS:
        lines.append("witness: " + "".join(str(v) for v in result.witness))
    unmet = (mode is SolveMode.PROVE_NONE and result.count != 0) or (
        mode is SolveMode.FIRST_WITNESS and result.witness is None
    )
    return EXIT_EXPECTATION if unmet else EXIT_OK, doc, "\n".join(lines)


def cmd_verify(args) -> Outcome:
    cert = load_certificate(Path(args.file).read_bytes())
    report = verify_certificate(cert)
    if report.accepted:
        worst = (
            f"max link residual {max(report.link_residuals):.3e}"
            if report.link_residuals
            else "no links"
        )
        text = f"accepted: {len(cert.points)} points, {worst}"
    else:
        text = "\n".join(["rejected:", *(f"  {f}" for f in report.failures)])
    code = EXIT_OK if report.accepted else EXIT_REJECTED
    return code, report_to_doc(report), text


_DEFAULT_POLE = f"0,sin({DEFAULT_POLE_ANGLE}),cos({DEFAULT_POLE_ANGLE})"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ks",
        description="Reach certificates, derivation traces, and triad colorings on the unit sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reach", help="build and write a reach certificate")
    p.add_argument("--from", dest="src", required=True, metavar="X,Y,Z")
    p.add_argument("--to", dest="dst", required=True, metavar="X,Y,Z")
    p.add_argument("-o", "--out", help="certificate file (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("demo", help="run a contradiction demo")
    p.add_argument("which", choices=("first", "second"))
    p.add_argument("--pole", metavar="X,Y,Z",
                   help=f"re-poling target for the first demo (default: {_DEFAULT_POLE})")
    p.add_argument("-o", "--out", help="directory for trace.json and system.json")
    _add_common(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("color", help="search colorings of a triad-system file")
    p.add_argument("file")
    p.add_argument("--mode", choices=[m.value for m in SolveMode], default="count")
    _add_common(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


#: Options whose value is a vector. A value that starts with "-" (a negative
#: first component) would be read by argparse as an option of its own.
_VECTOR_OPTIONS = ("--from", "--to", "--pole")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """argv with each vector option and a following "-..." word joined as
    "--option=-...", the spelling argparse reads as the option's value. An
    option is named in full or by a prefix longer than "--", which argparse
    reads as the name where it is unique."""
    out: list[str] = []
    for word in argv:
        opt = out[-1] if out else ""
        if (len(opt) > 2 and any(name.startswith(opt) for name in _VECTOR_OPTIONS)
                and word[:1] == "-" and word[:2] != "--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _report_error(args: argparse.Namespace, code: int, kind: str, message: str) -> int:
    error = {"error": {"type": kind, "message": message}}
    _stderr(json.dumps(error) if args.json else f"error [{kind}]: {message}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_vector_values(sys.argv[1:] if argv is None else argv))
    if args.command == "demo" and args.which == "second" and args.pole is not None:
        parser.error("--pole applies to demo first only")
    try:
        code, doc, text = args.func(args)
    except KsError as exc:
        return _report_error(args, exc.exit_code, type(exc).__name__, str(exc))
    except OSError as exc:  # unreadable input, unwritable -o target
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        return _report_error(args, EXIT_USAGE, "UsageError", message)
    except ValueError as exc:
        return _report_error(args, EXIT_INTERNAL, "ValueError", str(exc))
    try:
        print(json.dumps(doc, indent=1) if args.json else text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout
        _to_devnull(sys.stdout)
        return _report_error(args, EXIT_USAGE, "UsageError", "stdout: broken pipe")
    return code


if __name__ == "__main__":
    sys.exit(main())
