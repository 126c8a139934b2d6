"""Tests for tools/child_rss.py, the child peak-RSS comparison."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "child_rss.py"
_spec = importlib.util.spec_from_file_location("child_rss", _TOOL)
child_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(child_rss)

STREAM = "n 4\ndelta 2\n+ 1 2\n+ 2 3\n+ 3 4\n"


def test_child_reports_exit_code_and_peak_rss(tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM)
    out = tmp_path / "c.txt"
    run = child_rss.child(_ROOT, ["color", "--in", str(stream), "--out", str(out), "--quiet"])
    assert run.exit_code == 0
    assert out.read_text().count("\n") == 4
    # an interpreter with numpy holds more than a few MB
    assert run.rss_bytes > 4 << 20
    assert run.wall_s > 0
    assert child_rss.child(_ROOT, ["color", "--in", str(tmp_path / "missing.txt")]).exit_code == 2


def test_main_prints_each_side_over_alternating_runs(tmp_path, capsys, monkeypatch):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM)
    monkeypatch.chdir(tmp_path)
    argv = ["--runs", "2", str(_ROOT), str(_ROOT), "--", "color", "--in", "s.txt", "--quiet"]
    assert child_rss.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for side, line in zip(["old", "new"], lines[1:]):
        fields = line.replace("[", " ").replace("]", " ").replace(",", " ").split()
        assert fields[0] == side
        rss_median, rss_min, rss_max = map(float, fields[1:4])
        assert rss_min <= rss_median <= rss_max
        assert fields[-1] == "0"  # every run exited 0
