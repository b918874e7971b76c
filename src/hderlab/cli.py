"""Command-line front end: problem file in, report out.

Exit codes separate meanings so shell pipelines can branch: 0 means the
command ran and its mathematical answer is positive, 1 means the answer is
negative (a check failed, a deformation will not extend or trivialize, or a
``cochain.NegativeAnswer`` was raised), 2 means the input was unusable
(parse or shape errors, a size cap breach, a section that fails its own
verifier, or input outside the command's precondition), and 3 means hderlab
itself failed (any other exception, one raised while the report is written
included, such as a closed or full stdout): one stderr line "internal
error: ...".  The report is written inside the same handlers as the command.

The plain form of a call (a subcommand, one file, ``--json`` and whole
option names from ``SUBCOMMANDS``, each with a value that does not start
with "-") is matched against that table without argparse.  Any other argv,
help and every error among them, goes to the argparse parser of all
subcommands (``build_parser``), so usage, help and error text and their exit
codes are exactly argparse's; argparse is imported only then.  At import
the module loads only what every command reads: ``exactlin`` and
``serialize``, which imports ``algebras``, ``hder`` and ``cochain``.  A
handler that needs ``deform``, ``extensions`` or ``freecons`` imports it.
A command that reads a pair judges the algebra and the higher derivation
on one law table (``hder._pair_reports``).

``--json`` selects the machine format.  JSON reports are byte-identical
across runs for identical inputs: solver outputs are canonical, key order
is sorted, and timing_ms is pinned to 0 there (the human summary shows the
real time).  Both formats write their JSON through
``serialize.write_report``, which writes what ``json.dumps(doc, indent=2,
sort_keys=True)`` would, byte for byte, to stdout in pieces once the results
are complete; a cohomology report's cocycle basis goes out one vector at a
time from the sparse kernel form.  The environment variable
HDERLAB_MAX_DIM (default 6) caps every dimension a command touches,
including constructed total spaces and tensor-algebra bases, to keep
accidental combinatorial blowups from running away.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

from .algebras import adjoint_bimodule, trivial_bimodule, verify_algebra
from .cochain import NegativeAnswer, NotACocycleError, cohomology
from .exactlin import Matrix, ShapeError
from .hder import _pair_reports, verify_hder
from .serialize import (
    ParseError, check_report_to_json, cochain_to_json, cohomology_to_json,
    deformation_to_json, extension_to_json, gauge_to_json, hder_to_json,
    parse_algebra, parse_bimodule, parse_deformation, parse_hder, parse_matrix,
    parse_tensor_section, parse_two_cocycle, write_report,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class CapExceeded(ValueError):
    """A dimension went past HDERLAB_MAX_DIM."""


class UnverifiedInput(ValueError):
    """An input section fails its own verifier or the command's precondition."""


def _cap() -> int:
    raw = os.environ.get("HDERLAB_MAX_DIM", "6")
    try:
        return int(raw)
    except ValueError as exc:
        raise CapExceeded(f"HDERLAB_MAX_DIM is not an integer: {raw!r}") from exc


def _guard(**dims: int) -> None:
    cap = _cap()
    for name, value in dims.items():
        if value > cap:
            raise CapExceeded(
                f"{name} = {value} exceeds HDERLAB_MAX_DIM = {cap}; "
                "raise the environment variable to proceed")


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, deep nesting
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _section(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing required top-level key '{key}'")
    return doc[key]


def _algebra_hder(doc):
    alg = parse_algebra(_section(doc, "algebra"))
    _guard(dim=alg.dim)
    hd = parse_hder(_section(doc, "hder"), alg.dim)
    return alg, hd


def _require(section: str, report) -> None:
    if not report.ok:
        raise UnverifiedInput(f"{section} section does not verify: {report.violation}")


def _structures(doc, coefficients: str, who: str):
    """The algebra, hder and coefficient bimodule, parsed, guarded and verified.

    ``coefficients`` is "adjoint", "trivial" or "file"; ``who`` names what
    needs the bimodule section in the error for a missing one.  Only a
    bimodule read from the file is verified: the adjoint and trivial modules
    of a verified pair are lawful by construction.
    """
    alg, hd = _algebra_hder(doc)
    alg_report, hder_report = _pair_reports(alg, hd)
    _require("algebra", alg_report)
    _require("hder", hder_report)
    if coefficients == "adjoint":
        mod = adjoint_bimodule(alg, hd)
    elif coefficients == "trivial":
        mod = trivial_bimodule(alg, 1, tuple(Matrix.zeros(1, 1) for _ in range(hd.rank)))
    elif "bimodule" in doc:
        mod = parse_bimodule(doc["bimodule"], alg.dim, hd.rank)
    else:
        raise ParseError(f"{who} needs a 'bimodule' section")
    _guard(mdim=mod.mdim)
    if coefficients == "file":
        from .extensions import verify_bimodule
        _require("bimodule", verify_bimodule(alg, hd, mod))
    return alg, hd, mod


def _extension_inputs(doc, args):
    """Verified structures plus the 2-cocycle named by ``--cocycle``."""
    alg, hd, mod = _structures(doc, "file", args.command)
    _guard(total_dim=alg.dim + mod.mdim)
    if args.cocycle not in doc:
        raise ParseError(f"missing top-level key {args.cocycle!r} holding the cocycle")
    z = parse_two_cocycle(doc[args.cocycle], alg.dim, mod.mdim, hd.rank, args.cocycle)
    return alg, hd, mod, z


def cmd_check(doc, args):
    results: dict = {}
    violations: list[str] = []

    def record(section: str, rep) -> None:
        results[section] = check_report_to_json(rep)
        if not rep.ok:
            violations.append(f"{section}: {rep.violation}")

    alg = parse_algebra(_section(doc, "algebra"))
    _guard(dim=alg.dim)
    hd = None
    if "hder" in doc:
        hd = parse_hder(doc["hder"], alg.dim)
        alg_report, hder_report = _pair_reports(alg, hd)
        record("algebra", alg_report)
        record("hder", hder_report)
    else:
        record("algebra", verify_algebra(alg))
    if "bimodule" in doc:
        from .extensions import verify_bimodule
        if hd is None:
            raise ParseError("a 'bimodule' section needs an 'hder' section")
        mod = parse_bimodule(doc["bimodule"], alg.dim, hd.rank)
        _guard(mdim=mod.mdim)
        record("bimodule", verify_bimodule(alg, hd, mod))
    return not violations, results, violations


def cmd_cohomology(doc, args):
    if args.degree < 1:
        raise UnverifiedInput(f"cohomology needs --degree >= 1, got {args.degree}")
    alg, hd, mod = _structures(doc, args.coefficients, "--coefficients file")
    _guard(degree=args.degree)
    rep = cohomology(alg, mod, hd, args.degree)
    return True, cohomology_to_json(rep), []


def cmd_classify_central(doc, args):
    from .extensions import classify_central
    coefficients = "file" if "bimodule" in doc else "trivial"
    alg, hd, mod = _structures(doc, coefficients, args.command)
    if not mod.has_zero_actions():
        raise UnverifiedInput(f"{args.command} needs a bimodule section with zero actions")
    _guard(total_dim=alg.dim + mod.mdim)
    classes = classify_central(alg, hd, mod)
    reps = [{"cocycle": cochain_to_json(z), "extension": extension_to_json(e)} for z, e in classes]
    results = {"betti": len(classes) - 1, "classes": reps}
    return True, results, []


def cmd_extend_abelian(doc, args):
    from .extensions import extension_from_cocycle
    alg, hd, mod, z = _extension_inputs(doc, args)
    try:
        ext = extension_from_cocycle(alg, hd, mod, z)
    except NotACocycleError as exc:
        return False, {"cocycle_check": str(exc)}, [str(exc)]
    alg_report, hder_report = _pair_reports(ext.total.algebra, ext.total.hder)
    results = {"extension": extension_to_json(ext),
               "total_algebra_check": check_report_to_json(alg_report),
               "total_hder_check": check_report_to_json(hder_report)}
    return True, results, []


def cmd_cocycle_from_section(doc, args):
    from .extensions import SectionError, cocycle_from_section, extension_from_cocycle
    alg, hd, mod, z = _extension_inputs(doc, args)
    ext = extension_from_cocycle(alg, hd, mod, z)
    section = None
    if "section" in doc:
        section = parse_matrix(doc["section"], alg.dim + mod.mdim, alg.dim, "section")
    try:
        out = cocycle_from_section(ext, section)
    except SectionError as exc:
        return False, {}, [str(exc)]
    results = {"cocycle": cochain_to_json(out),
               "matches_input": out == z}
    return True, results, []


def _deformation(doc, alg, hd):
    return parse_deformation(_section(doc, "deformation"), alg.dim, hd.rank)


def cmd_deform_verify(doc, args):
    from .deform import verify_deformation
    alg, hd = _algebra_hder(doc)
    defm = _deformation(doc, alg, hd)
    rep = verify_deformation(alg, hd, defm)
    violations = [] if rep.ok else [str(rep.violation)]
    return rep.ok, {"order": defm.order, "check": check_report_to_json(rep)}, violations


def cmd_deform_obstruct(doc, args):
    from .deform import try_extend
    alg, hd = _algebra_hder(doc)
    defm = _deformation(doc, alg, hd)
    out = try_extend(alg, hd, defm)
    results = {"order": defm.order, "obstruction": cochain_to_json(out.obstruction),
               "is_coboundary": out.candidate is not None}
    if out.candidate is not None:
        results["preimage"] = cochain_to_json(out.candidate)
        return True, results, []
    return False, results, ["obstruction class is nonzero; deformation does not extend"]


def cmd_deform_extend(doc, args):
    from .deform import extend_to
    alg, hd = _algebra_hder(doc)
    defm = _deformation(doc, alg, hd)
    target = args.to if args.to is not None else defm.order + 1
    if target <= defm.order:
        raise ParseError(f"--to {target} is not past the current order {defm.order}")
    _guard(target_order=target)
    reached, blocking = extend_to(alg, hd, defm, target)
    if blocking is not None:
        results = {"reached_order": reached.order,
                   "obstruction": cochain_to_json(blocking)}
        return False, results, [
            f"obstruction class at order {reached.order} is nonzero"]
    results = {"reached_order": reached.order,
               "deformation": deformation_to_json(reached)}
    return True, results, []


def cmd_deform_trivialize(doc, args):
    from .deform import trivialize
    if args.to is not None and args.to < 0:
        raise UnverifiedInput(f"deform-trivialize needs --to >= 0, got {args.to}")
    alg, hd = _algebra_hder(doc)
    defm = _deformation(doc, alg, hd)
    target = args.to if args.to is not None else defm.order
    if target > defm.order:
        raise ParseError(f"--to {target} exceeds the stored order {defm.order}")
    out = trivialize(alg, hd, defm, target)
    if out.gauge is not None:
        return True, {"gauge": gauge_to_json(out.gauge)}, []
    results = {"blocked_order": out.blocked_order,
               "blocking_class": cochain_to_json(out.blocking_class)}
    return False, results, [
        f"coefficient at order {out.blocked_order} is not a coboundary"]


def cmd_free_tensor(doc, args):
    from .freecons import induced_tensor_hder
    vdim, degree, thetas = parse_tensor_section(_section(doc, "tensor"))
    if args.degree is not None:
        degree = args.degree
    if degree is None:
        raise ParseError("tensor.degree or --degree is required")
    _guard(vdim=vdim, degree=degree)
    _guard(tensor_algebra_dim=sum(vdim ** length for length in range(degree + 1)))
    tta, hd = induced_tensor_hder(vdim, degree, thetas)
    rep = verify_hder(tta.algebra, hd)
    results = {
        "vdim": vdim, "degree": degree, "dim": tta.algebra.dim,
        "words": list(tta.algebra.basis_labels),
        "hder": hder_to_json(hd),
        "check": check_report_to_json(rep),
    }
    violations = [] if rep.ok else [str(rep.violation)]
    return rep.ok, results, violations


_COCYCLE_KEY = ("--cocycle", {"default": "cocycle",
                               "help": "top-level key holding the cocycle (default: cocycle)"})

# name: (handler, help, arguments past ``file`` and ``--json``)
SUBCOMMANDS = {
    "check": (cmd_check, "verify algebra, higher derivation, and bimodule sections", ()),
    "cohomology": (cmd_cohomology, "cohomology in one degree", (
        ("--degree", {"type": int, "required": True}),
        ("--coefficients", {"choices": ["adjoint", "trivial", "file"], "default": "adjoint"}))),
    "classify-central": (cmd_classify_central,
                         "central extensions per second-cohomology class", ()),
    "extend-abelian": (cmd_extend_abelian, "build the abelian extension of a 2-cocycle",
                       (_COCYCLE_KEY,)),
    "cocycle-from-section": (cmd_cocycle_from_section, "read the twisting data off a section",
                             (_COCYCLE_KEY,)),
    "deform-verify": (cmd_deform_verify, "check the order-by-order deformation equations", ()),
    "deform-obstruct": (cmd_deform_obstruct, "obstruction cochain and its coboundary test", ()),
    "deform-extend": (cmd_deform_extend, "extend a deformation order by order", (
        ("--to", {"type": int, "default": None, "help": "target order (default: order+1)"}),)),
    "deform-trivialize": (cmd_deform_trivialize, "gauge a deformation back to the trivial one", (
        ("--to", {"type": int, "default": None, "help": "target order (default: stored order)"}),)),
    "free-tensor": (cmd_free_tensor, "induced higher derivation on a truncated tensor algebra", (
        ("--degree", {"type": int, "default": None, "help": "truncation degree"}),)),
}


def build_parser():
    """The hderlab parser with every subcommand, in table order.  It writes
    every usage, help and error text; a plain argv never builds it."""
    import argparse  # here only: a plain argv never needs it or the gettext it imports

    parser = argparse.ArgumentParser(
        prog="hderlab",
        description="Workbench for associative algebras with higher derivations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, arguments) in SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("file", help="JSON problem file")
        command.add_argument("--json", action="store_true", help="machine-readable report")
        for flag, kwargs in arguments:
            command.add_argument(flag, **kwargs)
    return parser


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Match the plain form of a call against the ``SUBCOMMANDS`` table: a
    known subcommand, one ``file`` and ``--json`` or whole option names, each
    followed by a value that does not start with "-" and passes the option's
    type, choices and required.  Any other argv goes to ``build_parser``, so
    help, usage and every error read exactly as argparse writes them."""
    if argv and argv[0] in SUBCOMMANDS:
        options = dict(SUBCOMMANDS[argv[0]][2])
        args = {"command": argv[0], "file": None, "json": False}
        args.update((flag[2:], kwargs.get("default")) for flag, kwargs in options.items())
        tokens = iter(argv[1:])
        for token in tokens:
            if token == "--json":
                args["json"] = True
            elif token in options:
                kwargs, value = options[token], next(tokens, "-")  # "-": no value left
                if value.startswith("-"):
                    break
                try:
                    value = kwargs.get("type", str)(value)
                except ValueError:  # argparse's "invalid int value"
                    break
                if value not in kwargs.get("choices", [value]):
                    break
                args[token[2:]] = value
            elif token.startswith("-") or args["file"] is not None:
                break
            else:
                args["file"] = token
        else:
            if args["file"] is not None and all(
                    args[flag[2:]] is not None for flag, kwargs in options.items()
                    if kwargs.get("required")):
                return SimpleNamespace(**args)
    return build_parser().parse_args(argv)


def _emit(command: str, ok: bool, results: dict, violations: list[str],
          as_json: bool, elapsed_ms: int) -> None:
    write = sys.stdout.write
    if as_json:
        report = {"ok": ok, "command": command, "results": results,
                  "violations": violations, "timing_ms": 0}
        write_report(report, write)
        write("\n")
    else:
        print(f"command: {command}")
        print(f"ok: {'yes' if ok else 'no'}")
        for v in violations:
            print(f"violation: {v}")
        if results:
            write_report(results, write)
            write("\n")
        print(f"timing_ms: {elapsed_ms}")
    sys.stdout.flush()  # a closed or full stdout fails here, inside main's handlers


def _mute_stdout() -> None:
    """Point the file descriptor of stdout at ``os.devnull``, so that the
    flush at exit drops what a failed write left buffered instead of
    failing again (the ``signal`` module's note on SIGPIPE)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file: nothing is flushed to a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    handler = SUBCOMMANDS[args.command][0]
    start = time.perf_counter()
    try:
        try:
            doc = _load(args.file)
            ok, results, violations = handler(doc, args)
        except NegativeAnswer as exc:
            # well-formed input, mathematically rejected: NotACocycleError,
            # SectionError or NotVerifiedError; a plain ValueError is a fault
            ok, results, violations = False, {}, [str(exc)]
        _emit(args.command, ok, results, violations, args.json, int((time.perf_counter() - start) * 1000))
    except (ParseError, ShapeError, CapExceeded, UnverifiedInput) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of hderlab or of its stdout, not an answer: no report
        if isinstance(exc, OSError):  # stdout is closed or full
            _mute_stdout()
        print(" ".join(f"internal error: {type(exc).__name__}: {exc}".splitlines()), file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if ok else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
