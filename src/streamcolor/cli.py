"""Command-line entry point.

Subcommands: ``generate``, ``color``, ``verify`` for the streaming side;
``lb-params``, ``lb-compress``, ``lb-game`` for the lower-bound lab.
Every subcommand is deterministic given its flags and ``--seed``; no
command reads system entropy or the clock.

Exit codes: 0 success, 2 usage or parse failure, illegal stream, or a
file that cannot be read or written, 3 declared-degree violation,
4 internal budget violation, 5 improper coloring.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .engine import (
    StreamSource,
    iterative_coloring,
    two_pass_coloring,
    two_pass_unknown_delta,
)
from .errors import (
    DegreeViolationError,
    IllegalUpdateError,
    ImproperOutputError,
    MonoBudgetExceededError,
    NegativeCounterError,
    NonTerminationError,
    PaletteExhaustedError,
    RecoveryFailedError,
    RejectionOverflowError,
    StreamColorError,
    StreamFormatError,
    TooLargeError,
    UncoloredVertexError,
)
from .generator import generate_stream
from .graph import materialize, max_degree, validate_proper
from .streamio import dumps_coloring, dumps_stream, read_coloring, read_stream

# the lab is imported inside the lb-* commands only, so that generate,
# color and verify do not pay for its import
if TYPE_CHECKING:
    from .lab.lnscaled import LnScaled

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGREE = 3
EXIT_INTERNAL_BOUND = 4
EXIT_IMPROPER = 5

_INTERNAL_BOUND_ERRORS = (
    MonoBudgetExceededError,
    NegativeCounterError,
    NonTerminationError,
    RecoveryFailedError,
    PaletteExhaustedError,
    RejectionOverflowError,
)


class _CliError(Exception):
    """Carries an exit code and a message to print on stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _scaled_dict(value: LnScaled) -> dict:
    return {
        "coeff": _rat(value.coeff),
        "ln2_power": value.power,
        "value": value.to_float(),
    }


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        print(json.dumps(payload, indent=2))


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """One text file per output path, every one opened before any is
    written; an empty path or None gives None.

    If a path cannot be opened, the files created for the paths before it
    are removed again.  No file is truncated until `_put` writes it, so a
    file that already existed is left as it was.
    """
    files: list = []
    created: list[str] = []
    try:
        for path in paths:
            if not path:
                files.append(None)
                continue
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                created.append(path)
            except FileExistsError:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            files.append(open(fd, "w", encoding="utf-8", newline=""))
    except BaseException:
        for fh in files:
            if fh is not None:
                fh.close()
        for path in created:
            os.unlink(path)
        raise
    try:
        yield files
    finally:
        for fh in files:
            if fh is not None:
                fh.close()


def _put(fh, text: str) -> None:
    """Replace the content of a file from `_outputs` with text, and close
    it; anything but a regular file (a pipe, terminal or device such as
    /dev/null) is just written."""
    with fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(0)
        fh.write(text)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="64-bit seed (default 0, never the clock)"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress stdout reports"
    )

    parser = argparse.ArgumentParser(
        prog="streamcolor",
        description="Deterministic semi-streaming graph coloring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", parents=[common], help="write a seeded update stream"
    )
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--delta", type=int, required=True)
    group = gen.add_mutually_exclusive_group()
    group.add_argument("--edges", type=int, help="target insertion count")
    group.add_argument("--density", type=float, help="fraction of n*delta/2")
    gen.add_argument(
        "--dynamic",
        type=float,
        default=0.0,
        metavar="F",
        help="fraction of insertions later deleted",
    )
    gen.add_argument("--out", help="stream file (default stdout)")

    col = sub.add_parser(
        "color", parents=[common], help="run a coloring pass over a stream file"
    )
    col.add_argument("--in", dest="input", required=True, help="stream file")
    col.add_argument(
        "--alg",
        choices=["two-pass", "iterative"],
        default="two-pass",
    )
    col.add_argument(
        "--unknown-delta",
        action="store_true",
        help="ignore the header degree bound and discover it in pass 1",
    )
    col.add_argument(
        "--dynamic",
        action="store_true",
        help="treat the stream as dynamic (sketch deletions)",
    )
    col.add_argument("--out", help="coloring file (default stdout)")
    col.add_argument("--report", help="also write the JSON report here")

    ver = sub.add_parser(
        "verify", parents=[common], help="check a coloring file against a stream"
    )
    ver.add_argument("--in", dest="input", required=True, help="stream file")
    ver.add_argument("--coloring", required=True, help="coloring file")

    par = sub.add_parser(
        "lb-params", parents=[common], help="level parameters and color bounds"
    )
    par.add_argument("--n", type=int, required=True)
    par.add_argument("--delta", type=int, required=True)
    par.add_argument("--k", type=int, required=True)
    par.add_argument("--s", type=int, required=True)
    par.add_argument(
        "--corollary",
        metavar="q=<q>|alpha=<a>",
        help="also evaluate one headline instantiation at this n",
    )

    cmp_ = sub.add_parser(
        "lb-compress", parents=[common], help="missing-edge bound for a summary scheme"
    )
    cmp_.add_argument("--base", required=True, help="stream file for the base graph")
    cmp_.add_argument("--p", type=_fraction_flag, required=True)
    cmp_.add_argument("--d", type=_fraction_flag, required=True)
    cmp_.add_argument(
        "--scheme", required=True, help="parity | identity | file:<path>"
    )
    cmp_.add_argument("--s", type=int, required=True, help="summary width in bits")

    game = sub.add_parser(
        "lb-game", parents=[common], help="play the blackboard game over a stream"
    )
    game.add_argument("--k", type=int, required=True)
    game.add_argument(
        "--strategy", choices=["product", "forward-memory"], required=True
    )
    game.add_argument("--in", dest="input", required=True, help="stream file")

    return parser


def cmd_generate(args) -> int:
    if args.n < 1 or args.delta < 0:
        raise _CliError(EXIT_USAGE, "need --n >= 1 and --delta >= 0")
    if not 0.0 <= args.dynamic <= 1.0:
        raise _CliError(EXIT_USAGE, "--dynamic must lie in [0, 1]")
    if args.density is not None and not math.isfinite(args.density):
        raise _CliError(EXIT_USAGE, "--density must be finite")
    sf = generate_stream(
        args.n,
        args.delta,
        args.seed,
        edge_target=args.edges,
        density=args.density,
        deletion_fraction=args.dynamic,
    )
    text = dumps_stream(sf.n, sf.updates, sf.delta)
    with _outputs(args.out) as (out,):
        if out is not None:
            _put(out, text)
        elif not args.quiet:
            sys.stdout.write(text)
    return EXIT_OK


def cmd_color(args) -> int:
    sf = read_stream(args.input)
    try:
        src = StreamSource.from_stream_file(sf)
    except ValueError as exc:  # n < 1: nothing to color
        raise _CliError(EXIT_USAGE, str(exc))
    if args.unknown_delta:
        report = two_pass_unknown_delta(src, dynamic=args.dynamic)
    else:
        if sf.delta is None:
            raise _CliError(
                EXIT_USAGE,
                "stream file has no delta header; pass --unknown-delta",
            )
        run = two_pass_coloring if args.alg == "two-pass" else iterative_coloring
        report = run(src, sf.delta, dynamic=args.dynamic)
    text = dumps_coloring(report.coloring)
    payload = report.to_json_dict()
    # a report path that cannot be opened must not leave a coloring behind
    with _outputs(args.out, args.report) as (out, report_file):
        if out is not None:
            _put(out, text)
        elif not args.quiet:
            sys.stdout.write(text)
        if report_file is not None:
            _put(report_file, json.dumps(payload, indent=2) + "\n")
        elif out is not None:
            # coloring went to a file, so the report may use stdout
            _emit(args, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    sf = read_stream(args.input)
    coloring = read_coloring(args.coloring)
    graph = materialize(sf.n, sf.updates)
    if coloring.n != sf.n:
        raise _CliError(
            EXIT_USAGE,
            f"coloring covers {coloring.n} vertices, stream has {sf.n}",
        )
    violations = validate_proper(graph, coloring)
    payload = {
        "proper": not violations,
        "violation_count": len(violations),
        "violations": [list(e) for e in violations[:10]],
    }
    _emit(args, payload)
    if violations:
        for e in violations[:10]:
            print(f"monochromatic edge: {e[0]} {e[1]}", file=sys.stderr)
        return EXIT_IMPROPER
    return EXIT_OK


def _parse_corollary(text: str, n: int):
    from .lab.schedule import corollary_check

    key, _, value = text.partition("=")
    if key == "q":
        try:
            return corollary_check(n, q=int(value))
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc))
    if key == "alpha":
        try:
            return corollary_check(n, alpha=Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise _CliError(EXIT_USAGE, str(exc))
    raise _CliError(EXIT_USAGE, f"--corollary must be q=<int> or alpha=<rational>")


def cmd_lb_params(args) -> int:
    from .lab.schedule import color_lower_bound

    try:
        report = color_lower_bound(args.n, args.delta, args.k, args.s)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    sched = report.schedule
    corollary = None
    if args.corollary:
        chk = _parse_corollary(args.corollary, args.n)
        corollary = {
            "mode": chk.mode,
            "parameter": _rat(chk.parameter),
            "delta": chk.delta,
            "k": chk.k,
            "s": chk.s,
            "theorem_bound": _rat(chk.theorem_bound),
            "theorem_bound_ln": chk.theorem_bound_ln,
            "threshold_ln": chk.threshold_ln,
            "exceeds": chk.exceeds,
        }
    closed_form_ok = all(
        sched.d[i - 1] == sched.closed_form_d(i)
        and sched.p[i - 1] == sched.closed_form_p(i)
        for i in range(1, sched.k + 1)
    )
    payload = {
        "n": sched.n,
        "delta": sched.delta,
        "k": sched.k,
        "s": sched.s,
        "d_i": [_scaled_dict(v) for v in sched.d],
        "p_i": [_scaled_dict(v) for v in sched.p],
        "lemma49_bound": _scaled_dict(report.lemma_bound),
        "theorem_bound": _rat(report.theorem_bound),
        "corollary_bound": corollary,
        "hypotheses_ok": sched.hypotheses_ok,
        "closed_form_ok": closed_form_ok,
        "p_in_unit_interval": sched.p_in_unit_interval,
        "warnings": list(sched.warnings),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_lb_compress(args) -> int:
    from .lab.compression import (
        check_compression_lemma,
        identity_scheme,
        parity_scheme,
        scheme_from_file,
    )
    from .lab.distribution import RandomGraphDistribution

    sf = read_stream(args.base)
    base = materialize(sf.n, sf.updates)
    if args.s < 1:
        raise _CliError(EXIT_USAGE, "--s must be at least 1")
    try:
        dist = RandomGraphDistribution(base, args.p, args.d, args.seed)
    except StreamColorError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    if args.scheme == "parity":
        scheme = parity_scheme(bits=args.s)
    elif args.scheme == "identity":
        scheme = identity_scheme(base, bits=args.s)
    elif args.scheme.startswith("file:"):
        scheme = scheme_from_file(args.scheme[len("file:") :], bits=args.s)
    else:
        raise _CliError(
            EXIT_USAGE, f"--scheme must be parity, identity, or file:<path>"
        )
    result = check_compression_lemma(dist, scheme)
    payload = {
        "min_missing": result["min_missing"],
        "bound": result["bound"],
        "holds": result["holds"],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_lb_game(args) -> int:
    from .lab.game import (
        ForwardMemoryStrategy,
        GameSpec,
        ProductStrategy,
        StoreAllEdgesAlgorithm,
        run_game,
    )

    sf = read_stream(args.input)
    if args.k < 1:
        raise _CliError(EXIT_USAGE, "--k must be at least 1")
    if (sf.updates.signs < 0).any():
        raise _CliError(EXIT_USAGE, "lb-game expects an insertion-only stream")
    graph = materialize(sf.n, sf.updates)
    delta = sf.delta if sf.delta is not None else max_degree(graph)
    edges = graph.edges_sorted()
    k = args.k
    shares = tuple(
        tuple(edges[(len(edges) * i) // k : (len(edges) * (i + 1)) // k])
        for i in range(k)
    )
    if args.strategy == "product":
        strategy = ProductStrategy()
    else:
        strategy = ForwardMemoryStrategy(StoreAllEdgesAlgorithm())
    try:
        transcript = run_game(strategy, GameSpec(sf.n, delta, k), shares)
    except ImproperOutputError as err:
        payload = err.transcript.to_json_dict()
        payload["proper"] = False
        payload["violations"] = [list(e) for e in err.violations[:10]]
        _emit(args, payload)
        for e in err.violations[:10]:
            print(f"monochromatic edge: {e[0]} {e[1]}", file=sys.stderr)
        return EXIT_IMPROPER
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    _emit(args, transcript.to_json_dict())
    return EXIT_OK


_DISPATCH = {
    "generate": cmd_generate,
    "color": cmd_color,
    "verify": cmd_verify,
    "lb-params": cmd_lb_params,
    "lb-compress": cmd_lb_compress,
    "lb-game": cmd_lb_game,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")  # exits 2
    try:
        return _DISPATCH[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except IllegalUpdateError as exc:
        print(f"illegal stream: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegreeViolationError as exc:
        print(f"degree violation: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except _INTERNAL_BOUND_ERRORS as exc:
        print(f"internal bound violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_BOUND
    except (StreamFormatError, UncoloredVertexError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a file that cannot be read or written
        reason = (exc.strerror or str(exc)).lower()
        print(f"error: {reason}: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
