"""Command-line entry point.

Subcommands: ``generate``, ``color``, ``verify`` for the streaming side;
``lb-params``, ``lb-compress``, ``lb-game`` for the lower-bound lab.
Every subcommand is deterministic given its flags (``generate`` and
``lb-compress`` also take ``--seed``); no command reads system entropy
or the clock.

Exit codes: 0 success, 2 a file that cannot be read or written; a
package error exits with the code its type carries (see `errors`): 2
usage or parse failure or illegal stream, 3 declared-degree violation,
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
from .errors import ImproperOutputError, StreamColorError, UsageError
from .generator import generate_stream
from .graph import (
    UpdateView, keep_mask, legal_final_edges, materialize, max_degree, validate_proper
)
from .streamio import dumps_coloring, dumps_stream, read_coloring, read_stream

# the lab is imported inside the lb-* commands only, so that generate,
# color and verify do not pay for its import
if TYPE_CHECKING:
    from .lab.lnscaled import LnScaled

EXIT_OK = 0
# characters per write of an output text
_WRITE_CHARS = 1 << 20


def _seed_flag(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError("must fit in 64 bits")
    return seed


def _fraction_flag(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _finite(x: float) -> float | None:
    """x, or None (JSON null) where it overflowed the float range."""
    return x if math.isfinite(x) else None


def _scaled_dict(value: LnScaled) -> dict:
    return {
        "coeff": _rat(value.coeff),
        "ln2_power": value.power,
        "value": _finite(value.to_float()),
    }


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        print(json.dumps(payload, indent=2))


def _verdict(args, payload: dict, violations) -> int:
    """Emits payload and names the first ten monochromatic edges on
    stderr; returns 5 if there are any, else 0."""
    _emit(args, payload)
    for u, v in violations[:10]:
        print(f"monochromatic edge: {u} {v}", file=sys.stderr)
    return ImproperOutputError.exit_code if violations else EXIT_OK


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """One text file per output path, every one opened before any is
    written; an empty path or None gives None.

    Two paths to one regular file raise UsageError.  If a path cannot be
    opened, or names the file of an earlier path, the files this call
    created are removed again.  No file is truncated until `_put` writes
    it, so a file that already existed is left as it was.
    """
    files: list = []
    created: list[str] = []
    named: dict[tuple[int, int], str] = {}
    try:
        for path in paths:
            if not path:
                files.append(None)
                continue
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                created.append(path)
            except FileExistsError:
                # a dangling symlink: this open creates the file it names
                dangling = not os.path.exists(path)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                if dangling:
                    created.append(os.path.realpath(path))
            files.append(open(fd, "w", encoding="utf-8", newline=""))
            # one regular file under two paths would keep only the last text
            st = os.fstat(fd)
            key = (st.st_dev, st.st_ino)
            if stat.S_ISREG(st.st_mode) and key in named:
                raise UsageError(f"output paths {named[key]} and {path} name one file")
            named[key] = path
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
        # a slice at a time, since the text encoded at once is a second
        # copy of it: 20 MB for the coloring of n = 2,000,000
        for at in range(0, len(text), _WRITE_CHARS):
            fh.write(text[at : at + _WRITE_CHARS])


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet", action="store_true", help="suppress stdout reports"
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=_seed_flag,
        default=0,
        help="64-bit seed (default 0, never the clock)",
    )

    parser = argparse.ArgumentParser(
        prog="streamcolor",
        description="Deterministic semi-streaming graph coloring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", parents=[seeded, common], help="write a seeded update stream"
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
        "lb-compress",
        parents=[seeded, common],
        help="missing-edge bound for a summary scheme",
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
        raise UsageError("need --n >= 1 and --delta >= 0")
    if args.delta >= 1 << 63:
        # the stream grammar holds every integer to int64
        raise UsageError(f"--delta must be at most 2^63 - 1 = {(1 << 63) - 1}")
    if not 0.0 <= args.dynamic <= 1.0:
        raise UsageError("--dynamic must lie in [0, 1]")
    if args.density is not None and not math.isfinite(args.density):
        raise UsageError("--density must be finite")
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
    if args.unknown_delta and args.alg == "iterative":
        raise UsageError("--unknown-delta runs the two-pass colorer, not --alg iterative")
    sf = read_stream(args.input)
    src = StreamSource.from_stream_file(sf)
    if args.unknown_delta:
        report = two_pass_unknown_delta(src, dynamic=args.dynamic)
    else:
        if sf.delta is None:
            raise UsageError("stream file has no delta header; pass --unknown-delta")
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
    """Checks the stream's legality, then replays only the updates of
    monochromatic edges, which the storage rule keeps whole: their final
    graph is the final graph's monochromatic edges."""
    sf = read_stream(args.input)
    coloring = read_coloring(args.coloring)
    signs, us, vs = sf.updates.signs, sf.updates.us, sf.updates.vs
    legal_final_edges(sf.n, signs, us, vs, final=False)
    if coloring.n != sf.n:
        raise UsageError(f"coloring covers {coloring.n} vertices, stream has {sf.n}")
    keep = keep_mask(coloring.array, coloring.array != 0, us, vs)
    kept = UpdateView(signs[keep], us[keep], vs[keep])
    violations = validate_proper(materialize(sf.n, kept), coloring)
    payload = {
        "proper": not violations,
        "violation_count": len(violations),
        "violations": [list(e) for e in violations[:10]],
    }
    return _verdict(args, payload, violations)


def _parse_corollary(text: str, n: int):
    from .lab.schedule import corollary_check

    key, _, value = text.partition("=")
    parse = {"q": int, "alpha": Fraction}.get(key)
    if parse is None:
        raise UsageError("--corollary must be q=<int> or alpha=<rational>")
    try:
        parameter = parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc))
    return corollary_check(n, **{key: parameter})


def cmd_lb_params(args) -> int:
    from .lab.schedule import color_lower_bound

    report = color_lower_bound(args.n, args.delta, args.k, args.s)
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
        MAX_SUMMARY_BITS,
        check_compression_lemma,
        identity_scheme,
        parity_scheme,
        scheme_from_file,
    )
    from .lab.distribution import RandomGraphDistribution

    sf = read_stream(args.base)
    base = materialize(sf.n, sf.updates)
    if args.s < 1:
        raise UsageError("--s must be at least 1")
    if args.s > MAX_SUMMARY_BITS:
        raise UsageError(f"--s = {args.s} is above the limit of {MAX_SUMMARY_BITS}")
    dist = RandomGraphDistribution(base, args.p, args.d, args.seed)
    if args.scheme == "parity":
        scheme = parity_scheme(bits=args.s)
    elif args.scheme == "identity":
        scheme = identity_scheme(args.s)
    elif args.scheme.startswith("file:"):
        scheme = scheme_from_file(args.scheme[len("file:") :], bits=args.s)
    else:
        raise UsageError("--scheme must be parity, identity, or file:<path>")
    result = check_compression_lemma(dist, scheme)
    payload = {
        "min_missing": result["min_missing"],
        "bound": _finite(result["bound"]),
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
        raise UsageError("--k must be at least 1")
    if (sf.updates.signs < 0).any():
        raise UsageError("lb-game expects an insertion-only stream")
    graph = materialize(sf.n, sf.updates)
    delta = sf.delta if sf.delta is not None else max_degree(graph)
    spec = GameSpec(sf.n, delta, args.k)
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
        payload, violations = run_game(strategy, spec, shares).to_json_dict(), []
    except ImproperOutputError as err:
        payload, violations = err.transcript.to_json_dict(), err.violations
        payload["proper"] = False
        payload["violations"] = [list(e) for e in violations[:10]]
    return _verdict(args, payload, violations)


_DISPATCH = {
    "generate": cmd_generate,
    "color": cmd_color,
    "verify": cmd_verify,
    "lb-params": cmd_lb_params,
    "lb-compress": cmd_lb_compress,
    "lb-game": cmd_lb_game,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except StreamColorError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a file that cannot be read or written
        reason = (exc.strerror or str(exc)).lower()
        where = "<stdout>" if exc.filename is None else exc.filename
        print(f"error: {reason}: {where}", file=sys.stderr)
        return UsageError.exit_code


if __name__ == "__main__":
    sys.exit(main())
