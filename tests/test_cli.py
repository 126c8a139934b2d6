"""End-to-end tests for the command-line interface."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcolor import cli, engine, errors, streamio
from streamcolor.cli import main

TRIANGLE = "n 3\ndelta 2\n+ 1 2\n+ 2 3\n+ 1 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_header_only_for_zero_delta(capsys):
    code, out, _ = run(capsys, "generate", "--n", "10", "--delta", "0")
    assert code == 0
    assert out == "n 10\ndelta 0\n"


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(
            capsys, "generate", "--n", "100", "--delta", "4", "--seed", "1",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()  # not empty


def test_generate_seed_changes_output(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "generate", "--n", "100", "--delta", "4", "--seed", "1", "--out", str(a))
    run(capsys, "generate", "--n", "100", "--delta", "4", "--seed", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_generate_rejects_bad_flags(capsys):
    code, _, _ = run(capsys, "generate", "--n", "0", "--delta", "2")
    assert code == 2
    code, _, _ = run(capsys, "generate", "--n", "5", "--delta", "2", "--dynamic", "1.5")
    assert code == 2
    for density in ("nan", "inf"):
        code, _, err = run(capsys, "generate", "--n", "5", "--delta", "2",
                           "--density", density)
        assert (code, err) == (2, "error: --density must be finite\n")


def test_generate_refuses_a_delta_its_parser_rejects(tmp_path, capsys):
    out = tmp_path / "g.txt"
    for delta in (str(1 << 63), "100000000000000000000"):
        code, stdout, err = run(capsys, "generate", "--n", "5", "--delta", delta,
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == "error: --delta must be at most 2^63 - 1 = 9223372036854775807\n"
        assert not out.exists()
    # the largest delta the grammar holds still goes through every command
    largest = str((1 << 63) - 1)
    assert run(capsys, "generate", "--n", "5", "--delta", largest, "--out", str(out))[0] == 0
    assert f"delta {largest}\n" in out.read_text()
    for alg in ("two-pass", "iterative"):
        colors = tmp_path / f"{alg}.txt"
        assert run(capsys, "color", "--in", str(out), "--alg", alg,
                   "--out", str(colors), "--quiet")[0] == 0
        assert run(capsys, "verify", "--in", str(out), "--coloring", str(colors))[0] == 0


def test_generate_density_above_one_asks_for_the_cap(capsys):
    outs = []
    for density in ("1e308", "2", "1"):
        code, out, err = run(capsys, "generate", "--n", "3", "--delta", "2",
                             "--density", density)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_color_then_verify_roundtrip(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    coloring = tmp_path / "c.txt"
    report = tmp_path / "r.json"
    run(capsys, "generate", "--n", "200", "--delta", "6", "--seed", "3",
        "--out", str(stream))
    code, _, _ = run(capsys, "color", "--in", str(stream), "--out", str(coloring),
                     "--report", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["algorithm"] == "two-pass"
    assert data["passes"] == 2
    assert data["palette_bound"] == 6 * 7
    code, out, _ = run(capsys, "verify", "--in", str(stream),
                       "--coloring", str(coloring))
    assert code == 0
    assert json.loads(out)["proper"] is True


_CLI = "import sys; from streamcolor.cli import main; sys.exit(main())"


def _child(*argv, stdin: bytes):
    """The CLI run as a child process with `stdin` on a pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-c", _CLI, *argv], input=stdin, capture_output=True, env=env
    )


def test_color_and_verify_read_a_pipe_on_dev_stdin(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    coloring = tmp_path / "c.txt"
    # more than one read of the block reader, and no size to go by
    run(capsys, "generate", "--n", "6000", "--delta", "8", "--seed", "3", "--out", str(stream))
    assert stream.stat().st_size > 2 << 16
    code, _, _ = run(capsys, "color", "--in", str(stream), "--out", str(coloring))
    assert code == 0
    piped = _child("color", "--in", "/dev/stdin", stdin=stream.read_bytes())
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == coloring.read_bytes()
    for flags, piped_file in (
        (("--in", "/dev/stdin", "--coloring", str(coloring)), stream),
        (("--in", str(stream), "--coloring", "/dev/stdin"), coloring),
    ):
        piped = _child("verify", *flags, stdin=piped_file.read_bytes())
        assert piped.returncode == 0
        assert json.loads(piped.stdout)["proper"] is True


def test_failed_read_names_its_file(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    real_open = open

    def failing_open(path, mode):
        file = real_open(path, mode)
        broken = mock.MagicMock()
        broken.__enter__.return_value = broken
        broken.__exit__.side_effect = lambda *exc: file.close()
        broken.fileno.return_value = file.fileno()
        broken.read.side_effect = OSError(errno.EIO, os.strerror(errno.EIO))
        return broken

    with mock.patch.object(streamio, "open", failing_open, create=True):
        code, _, err = run(capsys, "color", "--in", str(stream))
    assert code == errors.UsageError.exit_code
    assert err == f"error: input/output error: {stream}\n"


def test_color_iterative_alg(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    coloring = tmp_path / "c.txt"
    run(capsys, "generate", "--n", "100", "--delta", "8", "--seed", "5",
        "--out", str(stream))
    code, out, _ = run(capsys, "color", "--in", str(stream), "--alg", "iterative",
                       "--out", str(coloring))
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "iterative"
    assert data["palette_bound"] == 48
    code, _, _ = run(capsys, "verify", "--in", str(stream), "--coloring", str(coloring))
    assert code == 0


def test_color_unknown_delta(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("n 4\n+ 1 2\n+ 2 3\n+ 3 4\n")
    coloring = tmp_path / "c.txt"
    code, out, _ = run(capsys, "color", "--in", str(stream), "--unknown-delta",
                       "--out", str(coloring))
    assert code == 0
    data = json.loads(out)
    assert data["selected_delta"] in (2, 3)
    assert data["passes"] == 2


def test_color_unknown_delta_refuses_alg_iterative(tmp_path, capsys):
    # checked before the stream is read: the input need not exist
    code, out, err = run(capsys, "color", "--in", str(tmp_path / "missing.txt"),
                         "--alg", "iterative", "--unknown-delta")
    assert (code, out) == (2, "")
    assert err == "error: --unknown-delta runs the two-pass colorer, not --alg iterative\n"
    stream = tmp_path / "s.txt"
    stream.write_text("n 4\n+ 1 2\n+ 2 3\n+ 3 4\n")
    alone = run(capsys, "color", "--in", str(stream), "--unknown-delta")
    assert alone[0] == 0
    assert run(capsys, "color", "--in", str(stream), "--unknown-delta",
               "--alg", "two-pass") == alone


def test_color_requires_delta_header(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("n 4\n+ 1 2\n")
    code, _, err = run(capsys, "color", "--in", str(stream))
    assert code == 2
    assert "unknown-delta" in err


def test_color_dynamic_equals_insertion_only(tmp_path, capsys):
    dyn = tmp_path / "dyn.txt"
    run(capsys, "generate", "--n", "60", "--delta", "6", "--seed", "7",
        "--dynamic", "0.3", "--out", str(dyn))
    from streamcolor.graph import materialize
    from streamcolor.streamio import dumps_stream, read_stream

    sf = read_stream(dyn)
    final = materialize(sf.n, sf.updates)
    ins = tmp_path / "ins.txt"
    from streamcolor.graph import EdgeUpdate

    ins.write_text(
        dumps_stream(sf.n, [EdgeUpdate(1, u, v) for u, v in final.edges_sorted()], sf.delta)
    )
    c_dyn = tmp_path / "cd.txt"
    c_ins = tmp_path / "ci.txt"
    code, _, _ = run(capsys, "color", "--in", str(dyn), "--dynamic",
                     "--out", str(c_dyn))
    assert code == 0
    code, _, _ = run(capsys, "color", "--in", str(ins), "--out", str(c_ins))
    assert code == 0
    assert c_dyn.read_bytes() == c_ins.read_bytes()


def test_degree_violation_exit_code(tmp_path, capsys):
    stream = tmp_path / "bad.txt"
    stream.write_text("n 3\ndelta 1\n+ 1 2\n+ 2 3\n+ 1 3\n")
    code, _, err = run(capsys, "color", "--in", str(stream))
    assert code == 3
    assert "degree" in err


def test_verify_improper_exit_code_and_violations(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    coloring = tmp_path / "c.txt"
    coloring.write_text("1 1\n2 1\n3 2\n")
    code, out, err = run(capsys, "verify", "--in", str(stream),
                         "--coloring", str(coloring))
    assert code == 5
    data = json.loads(out)
    assert data["proper"] is False
    assert data["violations"] == [[1, 2]]
    assert "monochromatic edge: 1 2" in err


def test_verify_missing_vertex_is_usage_error(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    coloring = tmp_path / "c.txt"
    coloring.write_text("1 1\n2 2\n")
    code, _, _ = run(capsys, "verify", "--in", str(stream), "--coloring", str(coloring))
    assert code == 2


def test_malformed_stream_is_usage_error(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("n 3\n+ 1\n")
    code, _, _ = run(capsys, "verify", "--in", str(stream), "--coloring", str(stream))
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "color", "--in", "/nonexistent/stream.txt")
    assert code == 2
    assert "no such file" in err


_FILE_ERRORS = {
    "verify --in <dir>": (["verify", "--in", "{dir}", "--coloring", "{stream}"],
                          "is a directory: {dir}"),
    "color --out <missing>": (["color", "--in", "{stream}", "--out", "{missing}"],
                              "no such file or directory: {missing}"),
    "color --report <missing>": (
        ["color", "--in", "{stream}", "--report", "{missing}", "--quiet"],
        "no such file or directory: {missing}",
    ),
    "generate --out <missing>": (
        ["generate", "--n", "5", "--delta", "2", "--out", "{missing}"],
        "no such file or directory: {missing}",
    ),
    "lb-compress --scheme file:<dir>": (
        ["lb-compress", "--base", "{stream}", "--p", "1/2", "--d", "10",
         "--scheme", "file:{dir}", "--s", "1"],
        "is a directory: {dir}",
    ),
}


@pytest.mark.parametrize("case", sorted(_FILE_ERRORS))
def test_unreadable_or_unwritable_file_exits_two(tmp_path, capsys, case):
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    paths = {"dir": tmp_path, "stream": stream, "missing": tmp_path / "no" / "x"}
    argv, message = _FILE_ERRORS[case]
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, err) == (2, f"error: {message.format(**paths)}\n")


@pytest.mark.parametrize("existing", [None, "9 9\n" * 100], ids=["new", "old"])
def test_color_with_unwritable_report_leaves_out_file_alone(tmp_path, capsys, existing):
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    out = tmp_path / "c.colors"
    if existing is not None:
        out.write_text(existing)
    code, _, _ = run(capsys, "color", "--in", str(stream), "--out", str(out),
                     "--report", str(tmp_path / "no" / "r.json"))
    assert code == 2
    assert (out.read_text() if out.exists() else None) == existing
    # a run that succeeds replaces the whole file
    code, _, _ = run(capsys, "color", "--in", str(stream), "--out", str(out),
                     "--report", str(tmp_path / "r.json"))
    assert code == 0
    assert out.read_text() == run(capsys, "color", "--in", str(stream))[1]


@pytest.mark.parametrize(
    "other, old",
    [(other, False) for other in ("c.txt", "./c.txt", "l.txt")]
    + [(other, True) for other in ("c.txt", "./c.txt", "l.txt", "h.txt")],
)
def test_one_file_for_out_and_report_exits_two(tmp_path, capsys, monkeypatch, other, old):
    # l.txt is a symlink to c.txt and h.txt a hard link, which needs c.txt
    monkeypatch.chdir(tmp_path)
    Path("s.txt").write_text(TRIANGLE)
    os.symlink("c.txt", "l.txt")
    existing = "9 9\n" if old else None
    if old:
        Path("c.txt").write_text(existing)
        os.link("c.txt", "h.txt")
    code, out, err = run(capsys, "color", "--in", "s.txt", "--out", "c.txt",
                         "--report", other)
    assert (code, out) == (2, "")
    assert err == f"error: output paths c.txt and {other} name one file\n"
    # a file the run made is removed, one that existed is left as it was
    target = Path("c.txt")
    assert (target.read_text() if target.exists() else None) == existing


@pytest.mark.parametrize("report", ["t.txt", "no/r.json"])
def test_output_made_through_a_dangling_symlink_is_removed(tmp_path, capsys, monkeypatch, report):
    monkeypatch.chdir(tmp_path)
    Path("s.txt").write_text(TRIANGLE)
    os.symlink("t.txt", "l.txt")
    code, _, _ = run(capsys, "color", "--in", "s.txt", "--out", "l.txt", "--report", report)
    assert code == 2
    assert not Path("t.txt").exists()


def test_lb_params_json_shape(capsys):
    code, out, _ = run(capsys, "lb-params", "--n", "1000000", "--delta", "20000",
                       "--k", "1", "--s", "20000000")
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "n", "delta", "k", "s", "d_i", "p_i", "lemma49_bound", "theorem_bound",
        "corollary_bound", "hypotheses_ok", "closed_form_ok",
        "p_in_unit_interval", "warnings",
    ]
    assert data["hypotheses_ok"] is True
    assert data["closed_form_ok"] is True
    assert data["d_i"][0] == {"coeff": "1000000/1", "ln2_power": 0, "value": 1000000.0}
    assert data["p_i"][0]["coeff"] == "1/100"
    assert data["theorem_bound"] == "1/10"
    assert data["corollary_bound"] is None
    assert data["warnings"] == []


def test_lb_params_multi_level_powers(capsys):
    code, out, _ = run(capsys, "lb-params", "--n", "64", "--delta", "8",
                       "--k", "2", "--s", "100")
    assert code == 0
    data = json.loads(out)
    assert [d["ln2_power"] for d in data["d_i"]] == [0, 1]
    assert [p["ln2_power"] for p in data["p_i"]] == [0, -1]


def test_lb_params_corollary_flag(capsys):
    code, out, _ = run(capsys, "lb-params", "--n", str(2**20), "--delta", "80000",
                       "--k", "1", "--s", str(20 * 2**20), "--corollary", "q=1")
    assert code == 0
    data = json.loads(out)
    cor = data["corollary_bound"]
    assert cor["mode"] == "q"
    assert cor["delta"] == 80000
    assert cor["theorem_bound"] == "2/5"
    assert cor["exceeds"] is False

    code, out, _ = run(capsys, "lb-params", "--n", str(2**20), "--delta", "1024",
                       "--k", "2", "--s", str(2**25), "--corollary", "alpha=1/4")
    data = json.loads(out)
    assert data["corollary_bound"]["mode"] == "alpha"
    assert data["corollary_bound"]["k"] == 2


def test_lb_params_bad_corollary(capsys):
    code, _, _ = run(capsys, "lb-params", "--n", "100", "--delta", "4",
                     "--k", "1", "--s", "10", "--corollary", "beta=2")
    assert code == 2


def test_lb_params_q_corollary_on_one_vertex_exits_two(capsys):
    code, out, err = run(capsys, "lb-params", "--n", "1", "--delta", "1",
                         "--k", "1", "--s", "1", "--corollary", "q=1")
    assert (code, out, err) == (2, "", "error: q-mode needs n >= 2\n")


@pytest.mark.parametrize("argv,message", [
    (["--n", str(10**400), "--delta", "3", "--k", "2", "--s", "5"],
     f"n = {10**400} is above the limit of 2^128"),
    (["--n", "4", "--delta", "3", "--k", "33", "--s", "5"],
     "k = 33 is above the limit of 32"),
    (["--n", "1048576", "--delta", "16", "--k", "2", "--s", "100", "--corollary", "q=400"],
     "q = 400 is above the limit of 32"),
    (["--n", "1048576", "--delta", "16", "--k", "2", "--s", "100", "--corollary", "q=32"],
     "q = 32 at n = 1048576 gives delta = 1717986918399999946113040055930046585470189568, "
     "above the limit of 2^128"),
    (["--n", "1048576", "--delta", "16", "--k", "2", "--s", "100",
      "--corollary", "alpha=1/100000"],
     "alpha = 1/100000 is below the limit of 1/64, which keeps k at most 32"),
])
def test_lb_params_outside_the_declared_domain_exits_two(capsys, argv, message):
    code, out, err = run(capsys, "lb-params", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_lb_params_prints_null_for_values_past_the_float_range(capsys):
    code, out, _ = run(capsys, "lb-params", "--n", "1", "--delta", "1",
                       "--k", "12", "--s", str(10**38))
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    # d_9 .. d_12 pass 1.8e308; every other value is finite
    assert [d["value"] is None for d in data["d_i"]] == [False] * 8 + [True] * 4
    assert None not in [p["value"] for p in data["p_i"]] + [data["lemma49_bound"]["value"]]


def test_write_error_on_stdout_names_stdout(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["lb-params", "--n", "4", "--delta", "2", "--k", "1", "--s", "1"])
    assert (code, capsys.readouterr().err) == (2, "error: no space left on device: <stdout>\n")


def test_lb_params_rejects_bad_tuple(capsys):
    code, _, _ = run(capsys, "lb-params", "--n", "0", "--delta", "4",
                     "--k", "1", "--s", "10")
    assert code == 2


def test_lb_compress_parity_on_triangle(tmp_path, capsys):
    stream = tmp_path / "tri.txt"
    stream.write_text(TRIANGLE)
    code, out, _ = run(capsys, "lb-compress", "--base", str(stream),
                       "--p", "1/2", "--d", "10", "--scheme", "parity", "--s", "1")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["min_missing", "bound", "holds"]
    assert data["min_missing"] == 0
    assert data["bound"] == pytest.approx(2.772588722239781)
    assert data["holds"] is True


def test_lb_compress_identity_and_file_schemes(tmp_path, capsys):
    stream = tmp_path / "one.txt"
    stream.write_text("n 2\ndelta 1\n+ 1 2\n")
    code, out, _ = run(capsys, "lb-compress", "--base", str(stream),
                       "--p", "1/3", "--d", "5", "--scheme", "identity", "--s", "1")
    assert code == 0
    assert json.loads(out)["min_missing"] == 0

    scheme = tmp_path / "scheme.txt"
    scheme.write_text("0 0\n1 1\n")
    code, out, _ = run(capsys, "lb-compress", "--base", str(stream),
                       "--p", "1/3", "--d", "5",
                       "--scheme", f"file:{scheme}", "--s", "1")
    assert code == 0
    assert json.loads(out)["min_missing"] == 0


def test_lb_compress_non_utf8_scheme_exits_two(tmp_path, capsys):
    stream = tmp_path / "one.txt"
    stream.write_text("n 2\ndelta 1\n+ 1 2\n")
    scheme = tmp_path / "scheme.txt"
    scheme.write_bytes(b"0 0\n\xff 1\n")
    code, _, err = run(capsys, "lb-compress", "--base", str(stream),
                       "--p", "1/3", "--d", "5",
                       "--scheme", f"file:{scheme}", "--s", "1")
    assert (code, err) == (2, "error: line 2: not UTF-8 text\n")


def test_every_file_kind_breaks_lines_alike(tmp_path, capsys):
    # a VT ends a line in stream, coloring and scheme files alike
    stream = tmp_path / "vt.stream"
    stream.write_bytes(b"n 3\x0b+ 1 2\n+ 2 3\n")
    coloring = tmp_path / "vt.coloring"
    coloring.write_bytes(b"1 1\x0b2 2\n3 1\n")
    assert run(capsys, "color", "--in", str(stream), "--unknown-delta", "--quiet")[0] == 0
    code, _, err = run(capsys, "verify", "--in", str(stream), "--coloring", str(coloring))
    assert (code, err) == (0, "")
    lb = ["lb-compress", "--base", str(stream), "--p", "1/2", "--d", "4", "--s", "1"]
    scheme = tmp_path / "lf.scheme"
    scheme.write_bytes(b"0 0\n1 1\n2 0\n3 1\n")
    expected = run(capsys, *lb, "--scheme", f"file:{scheme}")
    assert expected[0] == 0
    scheme = tmp_path / "vt.scheme"
    scheme.write_bytes(b"0 0\x0b1 1\n2 0\n3 1\n")
    assert run(capsys, *lb, "--scheme", f"file:{scheme}") == expected


def test_lb_compress_on_an_empty_vertex_set_exits_two(tmp_path, capsys):
    stream = tmp_path / "empty.txt"
    stream.write_text("n 0\n")
    code, out, err = run(capsys, "lb-compress", "--base", str(stream),
                         "--p", "1/2", "--d", "10", "--scheme", "parity", "--s", "1")
    assert (code, out, err) == (2, "", "error: base graph needs n >= 1\n")


def test_lb_compress_scheme_file_without_a_used_mask_exits_two(tmp_path, capsys):
    stream = tmp_path / "one.txt"
    stream.write_text("n 2\ndelta 1\n+ 1 2\n")
    scheme = tmp_path / "scheme.txt"
    scheme.write_text("0 0\n")
    code, out, err = run(capsys, "lb-compress", "--base", str(stream),
                         "--p", "1/3", "--d", "5",
                         "--scheme", f"file:{scheme}", "--s", "1")
    assert (code, out, err) == (2, "", "error: scheme file has no entry for mask 0x1\n")


@pytest.mark.parametrize("p, d, s, expected", [
    # p and d past the float range: exact comparisons, a bound of null
    (f"1/{10**400}", "10", "1", (0, {"min_missing": 3, "bound": None, "holds": True})),
    ("1/2", str(10**400), "1", (0, {"min_missing": 0, "bound": 2.772588722239781,
                                    "holds": True})),
    ("1/2", "10", "64", (0, {"min_missing": 0, "bound": 90.10913347279289, "holds": True})),
    ("1/2", "10", "65", (2, "error: --s = 65 is above the limit of 64\n")),
    ("1/2", "10", str(10**20),
     (2, f"error: --s = {10**20} is above the limit of 64\n")),
])
def test_lb_compress_at_the_declared_limits(tmp_path, capsys, p, d, s, expected):
    stream = tmp_path / "tri.txt"
    stream.write_text(TRIANGLE)
    code, out, err = run(capsys, "lb-compress", "--base", str(stream), "--p", p, "--d", d,
                         "--scheme", "parity", "--s", s)
    if code == 0:
        assert (code, json.loads(out, parse_constant=_reject_constant), err) == (*expected, "")
    else:
        assert (code, out, err) == (expected[0], "", expected[1])


def test_lb_compress_bad_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lb-compress", "--base", "x", "--p", "zebra",
              "--d", "5", "--scheme", "parity", "--s", "1"])
    assert exc.value.code == 2


def test_lb_compress_out_of_range_p(tmp_path, capsys):
    stream = tmp_path / "tri.txt"
    stream.write_text(TRIANGLE)
    code, _, _ = run(capsys, "lb-compress", "--base", str(stream),
                     "--p", "3/2", "--d", "5", "--scheme", "parity", "--s", "1")
    assert code == 2


def test_lb_game_product_on_cycle(tmp_path, capsys):
    stream = tmp_path / "c4.txt"
    stream.write_text("n 4\ndelta 2\n+ 1 2\n+ 2 3\n+ 3 4\n+ 1 4\n")
    code, out, _ = run(capsys, "lb-game", "--k", "2", "--strategy", "product",
                       "--in", str(stream))
    assert code == 0
    data = json.loads(out)
    assert data["proper"] is True
    assert data["k"] == 2
    assert data["strategy"] == "product"
    assert data["palette"] == 4


def test_lb_game_product_on_a_share_above_its_palette_exits_two(tmp_path, capsys):
    stream = tmp_path / "edge.txt"
    stream.write_text("n 2\ndelta 1\n+ 1 2\n")
    code, out, err = run(capsys, "lb-game", "--k", "2", "--strategy", "product",
                         "--in", str(stream))
    assert (code, out) == (2, "")
    assert err == (
        "error: share 2 has degree 1, above delta // k = 0; it does not fit "
        "the product strategy's share palette [1, 1]\n"
    )


def test_lb_game_degree_violation_exits_three(tmp_path, capsys):
    # as color does for a stream above its declared degree
    stream = tmp_path / "path.txt"
    stream.write_text("n 3\ndelta 1\n+ 1 2\n+ 2 3\n")
    code, out, err = run(capsys, "lb-game", "--k", "1", "--strategy", "product",
                         "--in", str(stream))
    assert (code, out) == (3, "")
    assert err == "degree violation: union max degree 2 exceeds promised 1\n"


def test_lb_game_forward_memory(tmp_path, capsys):
    stream = tmp_path / "c4.txt"
    stream.write_text("n 4\ndelta 2\n+ 1 2\n+ 2 3\n+ 3 4\n+ 1 4\n")
    code, out, _ = run(capsys, "lb-game", "--k", "3", "--strategy", "forward-memory",
                       "--in", str(stream))
    assert code == 0
    data = json.loads(out)
    assert data["proper"] is True
    assert data["strategy"] == "forward-memory[store-all-edges]"
    assert data["palette"] == 3


@pytest.mark.parametrize("k", [33, 10**20])
def test_lb_game_above_the_level_limit_exits_two(tmp_path, capsys, k):
    stream = tmp_path / "c4.txt"
    stream.write_text("n 4\ndelta 2\n+ 1 2\n+ 2 3\n+ 3 4\n+ 1 4\n")
    code, out, err = run(capsys, "lb-game", "--k", str(k), "--strategy", "forward-memory",
                         "--in", str(stream))
    assert (code, out, err) == (2, "", f"error: k = {k} is above the limit of 32\n")


def test_lb_game_rejects_deletions(tmp_path, capsys):
    stream = tmp_path / "dyn.txt"
    stream.write_text("n 3\ndelta 2\n+ 1 2\n- 1 2\n")
    code, _, err = run(capsys, "lb-game", "--k", "2", "--strategy", "product",
                       "--in", str(stream))
    assert code == 2
    assert "insertion-only" in err


def test_lb_game_on_an_empty_vertex_set_exits_two(tmp_path, capsys):
    stream = tmp_path / "empty.txt"
    stream.write_text("n 0\n")
    for strategy in ("product", "forward-memory"):
        code, out, err = run(capsys, "lb-game", "--k", "2", "--strategy", strategy,
                             "--in", str(stream))
        assert (code, out) == (2, "")
        assert err == "error: need n >= 1, delta >= 0, k >= 1\n"


def test_quiet_suppresses_stdout(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    code, out, _ = run(capsys, "lb-compress", "--base", str(stream), "--p", "1/2",
                       "--d", "10", "--scheme", "parity", "--s", "1", "--quiet")
    assert code == 0
    assert out == ""


def test_bad_seed_rejected(capsys):
    for seed in ("-1", str(2**64), "x"):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--n", "4", "--delta", "2", "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err


def test_seed_is_offered_only_where_it_is_read(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    assert run(capsys, "generate", "--n", "4", "--delta", "2", "--seed", str(2**64 - 1))[0] == 0
    assert run(capsys, "lb-compress", "--base", str(stream), "--p", "1/2", "--d", "10",
               "--scheme", "parity", "--s", "1", "--seed", "3")[0] == 0
    for argv in (
        ["color", "--in", str(stream)],
        ["verify", "--in", str(stream), "--coloring", str(stream)],
        ["lb-params", "--n", "4", "--delta", "2", "--k", "1", "--s", "1"],
        ["lb-game", "--k", "1", "--strategy", "product", "--in", str(stream)],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_ILLEGAL_STREAMS = {
    "self loop": ("n 3\ndelta 2\n+ 1 2\n+ 2 2\n", "self pair (2, 2)"),
    "out of range": ("n 3\ndelta 2\n+ 1 2\n+ 3 4\n", "vertex 4 outside [1, 3]"),
    "duplicate": ("n 3\ndelta 2\n+ 1 2\n+ 2 1\n", "duplicate insertion of (1, 2)"),
    "absent deletion": ("n 3\ndelta 2\n+ 1 2\n- 2 3\n", "deletion of absent edge (2, 3)"),
}
_COLOR_FLAGS = [(), ("--alg", "iterative"), ("--unknown-delta",), ("--dynamic",)]


@pytest.mark.parametrize("flags", _COLOR_FLAGS)
@pytest.mark.parametrize("case", sorted(_ILLEGAL_STREAMS))
def test_illegal_stream_exits_two_from_color_and_verify(tmp_path, capsys, case, flags):
    text, rule = _ILLEGAL_STREAMS[case]
    stream = tmp_path / "s.txt"
    stream.write_text(text)
    coloring = tmp_path / "c.txt"
    coloring.write_text("1 1\n2 2\n3 3\n")
    code, _, err = run(capsys, "color", "--in", str(stream), *flags)
    assert (code, err) == (2, f"illegal stream: {rule}\n")
    code, out, err = run(capsys, "verify", "--in", str(stream), "--coloring", str(coloring))
    assert (code, out, err) == (2, "", f"illegal stream: {rule}\n")


def test_deletions_need_dynamic_mode(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("n 3\ndelta 2\n+ 1 2\n+ 2 3\n- 1 2\n")
    coloring = tmp_path / "c.txt"
    code, _, err = run(capsys, "color", "--in", str(stream))
    assert code == 2
    assert "insertion-only" in err
    code, _, _ = run(capsys, "color", "--in", str(stream), "--dynamic", "--out", str(coloring))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--in", str(stream), "--coloring", str(coloring))
    assert code == 0


def test_vertex_count_above_max_vertex_exits_two(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("n 9223372036854775807\ndelta 1\n+ 1 2\n")
    for flags in _COLOR_FLAGS:
        code, _, err = run(capsys, "color", "--in", str(stream), *flags)
        assert (code, err) == (2, "error: n = 9223372036854775807 is above MAX_VERTEX = 3037000499\n")


def test_generate_vertex_count_above_max_vertex_exits_two(capsys):
    # rejected before any per-vertex array: at n = 10^12 one would be 8 TB
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "generate", "--n", "1000000000000", "--delta", "2", "--edges", "1"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: n = 1000000000000 is above MAX_VERTEX = 3037000499\n"
    assert peak < 1 << 20


def test_vertex_state_above_the_cap_exits_two(tmp_path, capsys):
    # rejected before any per-vertex array: the cap is 2 GiB of such state
    n = engine.MAX_VERTEX_STATE_BYTES // engine.VERTEX_STATE_BYTES + 1
    need = n * engine.VERTEX_STATE_BYTES
    stream = tmp_path / "s.txt"
    stream.write_text(f"n {n}\ndelta 2\n+ 1 2\n")
    for flags in _COLOR_FLAGS:
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "color", "--in", str(stream), *flags)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (
            f"error: n = {n} needs about {need} bytes of per-vertex state, "
            f"above the cap of {engine.MAX_VERTEX_STATE_BYTES} bytes\n"
        )
        assert peak < 1 << 20


def test_vertex_state_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "MAX_VERTEX_STATE_BYTES", 5 * engine.VERTEX_STATE_BYTES)
    stream = tmp_path / "s.txt"
    for n, expected in ((5, 0), (6, 2)):
        stream.write_text(f"n {n}\ndelta 2\n+ 1 2\n")
        for flags in _COLOR_FLAGS:
            assert run(capsys, "color", "--in", str(stream), *flags)[0] == expected


def test_dynamic_decode_candidates_above_the_cap_exit_two(tmp_path, capsys, monkeypatch):
    # with delta 1 every vertex has color 1, and a perfect matching makes
    # every vertex a survivor's end: C(2000, 2) same-color candidates,
    # counted before any of them is listed, against a 64 MiB cap
    monkeypatch.setattr(engine, "MAX_VERTEX_STATE_BYTES", 64 << 20)
    stream = tmp_path / "s.txt"
    matching = "".join(f"+ {v} {v + 1}\n" for v in range(1, 2000, 2))
    stream.write_text(f"n 2000\ndelta 1\n{matching}")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "color", "--in", str(stream), "--dynamic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = 1999000
    assert (code, out) == (2, "")
    assert err == (
        f"error: {count} decode candidates need about {count * engine.CANDIDATE_BYTES} "
        f"bytes, above the cap of {engine.MAX_VERTEX_STATE_BYTES} bytes\n"
    )
    assert peak < 64 << 20


def test_dynamic_decode_lists_only_survivor_ends(tmp_path, capsys):
    # candidates are pairs among the survivors' six ends, not among all
    # 20000 vertices, so every colorer decodes three edges in little memory
    stream = tmp_path / "s.txt"
    stream.write_text("n 20000\ndelta 2\n+ 1 2\n+ 3 4\n+ 5 6\n")
    for flags in _COLOR_FLAGS[:3]:
        plain, dynamic = tmp_path / "plain.txt", tmp_path / "dynamic.txt"
        assert run(capsys, "color", "--in", str(stream), *flags, "--out", str(plain))[0] == 0
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "color", "--in", str(stream), *flags, "--dynamic",
                "--out", str(dynamic),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert peak < 64 << 20
        assert dynamic.read_bytes() == plain.read_bytes()


def test_outputs_to_a_device_are_written(tmp_path, capsys):
    # /dev/null is seekable but cannot be truncated
    stream = tmp_path / "s.txt"
    stream.write_text(TRIANGLE)
    code, _, err = run(
        capsys, "color", "--in", str(stream), "--out", "/dev/null",
        "--report", "/dev/null", "--quiet",
    )
    assert (code, err) == (0, "")
    code, out, err = run(
        capsys, "generate", "--n", "5", "--delta", "2", "--out", "/dev/null"
    )
    assert (code, out, err) == (0, "", "")


def test_empty_vertex_set_exits_two(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("n 0\ndelta 0\n")
    coloring = tmp_path / "c.txt"
    coloring.write_text("1 1\n")
    for flags in _COLOR_FLAGS:
        code, _, err = run(capsys, "color", "--in", str(stream), *flags)
        assert (code, err) == (2, "error: stream needs n >= 1\n")
    code, _, err = run(capsys, "verify", "--in", str(stream), "--coloring", str(coloring))
    assert code == 2
    assert "stream has 0" in err


_fuzz_vertex = st.one_of(
    st.integers(min_value=0, max_value=6).map(str),
    st.sampled_from(["-1", "٣", "0_2", "9223372036854775807", "9223372036854775809"]),
)
_fuzz_update = st.tuples(
    st.sampled_from(["+", "+", "+", "-"]),
    st.integers(min_value=1, max_value=8).map(str),
    st.integers(min_value=1, max_value=8).map(str),
).map(" ".join)
_fuzz_other = st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*"]), _fuzz_vertex, _fuzz_vertex).map(" ".join),
    st.sampled_from(["n", "delta"]).flatmap(
        lambda key: st.one_of(
            st.integers(min_value=-1, max_value=7),
            st.sampled_from([2**62, 2**63 - 1, 2**63, 10**30]),
        ).map(lambda x: f"{key} {x}")
    ),
    st.sampled_from(["", "# note", "\t+\t1\t2 ", "+ 1", "n"]),
)
# five in six lines are well-formed updates on vertices 1..8
_fuzz_line = st.integers(0, 5).flatmap(lambda k: _fuzz_update if k else _fuzz_other)


def _mutate(draw, text: str) -> bytes:
    """`text` as bytes with up to three single-byte edits."""
    data = bytearray(text.encode())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.one_of(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"#", b"1", b"-"]),
                              st.binary(min_size=1, max_size=1)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert" or at == len(data):
            data[at:at] = byte
        elif op == "replace":
            data[at : at + 1] = byte
        else:
            del data[at]
    return bytes(data)


@st.composite
def _fuzz_stream(draw):
    head = draw(st.sampled_from([["n 8", "delta 7"]] * 3 + [["n 8"], []]))
    lines = head + draw(st.lists(_fuzz_line, max_size=10))
    return _mutate(draw, draw(st.sampled_from(["\n", "\r\n"])).join(lines))


@st.composite
def _fuzz_coloring(draw):
    return _mutate(draw, "".join(f"{v} {v}\n" for v in range(1, 9)))


@given(
    _fuzz_stream(),
    st.sampled_from(_COLOR_FLAGS),
    _fuzz_coloring(),
    st.integers(min_value=5, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_streams_exit_with_documented_codes(data, flags, coloring, cap_n):
    # the per-vertex state cap, scaled down so that header n lands on both sides
    cap = mock.patch.object(
        engine, "MAX_VERTEX_STATE_BYTES", cap_n * engine.VERTEX_STATE_BYTES
    )
    with tempfile.TemporaryDirectory() as tmp, cap:
        stream = Path(tmp, "s.txt")
        stream.write_bytes(data)
        colors = Path(tmp, "c.txt")
        drawn = Path(tmp, "drawn.txt")
        drawn.write_bytes(coloring)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["color", "--in", str(stream), *flags, "--out", str(colors)])
            assert code in (0, 2, 3, 4, 5)
            if code == 0:
                # a stream color accepts is legal for verify, and colored properly
                assert main(["verify", "--in", str(stream), "--coloring", str(colors)]) == 0
            # verify checks no degree or budget, so it never exits 3 or 4
            code = main(["verify", "--in", str(stream), "--coloring", str(drawn)])
            assert code in (0, 2, 5)


_LB_RATIONALS = ["1/2", "1/3", "2/3", "0", "1", "3/2", "-1/2", "5", "10", "100",
                 f"1/{10**400}", str(10**400)]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def _lb_argv(draw, stream: str, scheme: str) -> list[str]:
    """One lb-params, lb-compress or lb-game command line."""
    command = draw(st.sampled_from(["lb-params", "lb-compress", "lb-game"]))
    if command == "lb-params":
        n_max = draw(st.sampled_from([2, 70]))  # often n = 1, where log2(n) = 0
        argv = [command]
        # sometimes a value at or past the calculators' declared domain
        large = st.sampled_from([32, 33, 2**128, 2**128 + 1, 10**400])
        for flag, hi in (("--n", n_max), ("--delta", 8), ("--k", 3), ("--s", 200)):
            argv += [flag, str(draw(st.integers(-1, hi) | large))]
        if draw(st.booleans()):
            argv += ["--corollary", draw(st.sampled_from(
                ["q=1", "q=2", "q=0", "q=x", "alpha=1/4", "alpha=1/2", "alpha=1",
                 "alpha=1/0", "beta=1", "", "q=32", "q=400", "alpha=1/64",
                 "alpha=1/100000", f"alpha=1/{10**400}"]))]
    elif command == "lb-compress":
        argv = [command, "--base", stream, "--p", draw(st.sampled_from(_LB_RATIONALS)),
                "--d", draw(st.sampled_from(_LB_RATIONALS)),
                "--scheme", draw(st.sampled_from(
                    ["parity", "identity", f"file:{scheme}", "bogus"])),
                "--s", str(draw(st.integers(-1, 3) | st.just(10**20))),
                "--seed", draw(st.integers(0, 3).map(str))]
    else:
        argv = [command, "--k", str(draw(st.integers(-1, 4) | st.sampled_from([33, 10**20]))),
                "--in", stream,
                "--strategy", draw(st.sampled_from(["product", "forward-memory"]))]
    return argv + draw(st.sampled_from([[], ["--quiet"]]))


@st.composite
def _lb_stream(draw) -> str:
    """A stream on 0 to 6 vertices with up to six insertions, sometimes a
    degree header, and sometimes a deletion at the end."""
    n = draw(st.integers(min_value=0, max_value=6))
    lines = [f"n {n}"]
    if draw(st.booleans()):
        lines.append(f"delta {draw(st.integers(0, 6))}")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    lines += [f"+ {u} {v}" for u, v in edges]
    if edges and draw(st.integers(0, 5)) == 0:
        lines.append("- {} {}".format(*edges[0]))
    return "".join(line + "\n" for line in lines)


@st.composite
def _lb_scheme(draw) -> str:
    """A scheme file: up to eight masks of a 6-vertex base, one width."""
    width = draw(st.integers(min_value=1, max_value=3))
    masks = draw(st.lists(st.integers(0, 63), unique=True, max_size=8))
    bits = st.text("01", min_size=width, max_size=width)
    return "".join(f"{mask:x} {draw(bits)}\n" for mask in masks)


@given(_lb_stream(), _lb_scheme(), st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_lab_commands_exit_with_documented_codes(stream_text, scheme_text, data):
    with tempfile.TemporaryDirectory() as tmp:
        stream, scheme = Path(tmp, "s.txt"), Path(tmp, "scheme.txt")
        stream.write_text(stream_text)
        scheme.write_text(scheme_text)
        argv = data.draw(_lb_argv(str(stream), str(scheme)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag such as --d -1/2
                code = exc.code
        assert code in (0, 2, 3, 4, 5)
        assert (code == 0) == (err.getvalue() == "")
        if code == 0 and out.getvalue():
            json.loads(out.getvalue(), parse_constant=_reject_constant)


def _error_types(cls=errors.StreamColorError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


@pytest.mark.parametrize("error", sorted(set(_error_types()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_package_error_exits_with_its_types_code(capsys, monkeypatch, error):
    assert error.exit_code in (2, 3, 4, 5)

    def command(args):
        raise error("the message")

    monkeypatch.setitem(cli._DISPATCH, "generate", command)
    code, out, err = run(capsys, "generate", "--n", "1", "--delta", "0")
    assert (code, out, err) == (error.exit_code, "", f"{error.label}: the message\n")


def test_exit_codes_of_package_errors():
    expected = {
        errors.StreamColorError: (2, "error"),
        errors.IllegalUpdateError: (2, "illegal stream"),
        errors.DegreeViolationError: (3, "degree violation"),
        errors.InternalBoundError: (4, "internal bound violated"),
        errors.ImproperOutputError: (5, "error"),
    }
    for error, code_and_label in expected.items():
        assert (error.exit_code, error.label) == code_and_label
    assert set(errors.InternalBoundError.__subclasses__()) == {
        errors.MonoBudgetExceededError,
        errors.NegativeCounterError,
        errors.NonTerminationError,
        errors.PaletteExhaustedError,
        errors.RecoveryFailedError,
        errors.RejectionOverflowError,
    }
    assert issubclass(errors.UsageError, ValueError)


_ENGINE_SPANS = {
    "engine.colorer",
    "engine.replay_arrays",
    "counters.from_arrays",
    "graph.greedy_extend",
    "recovery.update_batch",
    "recovery.decode",
}


def _spans_module():
    """perfbench/spans.py, loaded from the repository checkout."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "flags",
    [["--alg", "two-pass"], ["--alg", "iterative"], ["--unknown-delta"]],
)
def test_traced_color_records_every_engine_span(tmp_path, capsys, flags):
    # the benchmark's tracer patches names where the CLI and the engine
    # look them up; a colorer that stops calling one drops its span
    spans = _spans_module()
    stream = tmp_path / "dyn.txt"
    stream.write_text("n 6\ndelta 2\n+ 1 2\n+ 2 3\n+ 4 5\n- 1 2\n+ 5 6\n+ 1 6\n")
    tracer = spans.Tracer()
    with spans.patched(tracer):
        code = main(["color", "--in", str(stream), *flags, "--dynamic",
                     "--out", str(tmp_path / "c.txt")])
    capsys.readouterr()
    assert code == 0
    recorded = {name for name, *_ in tracer.spans}
    assert _ENGINE_SPANS <= recorded, _ENGINE_SPANS - recorded
