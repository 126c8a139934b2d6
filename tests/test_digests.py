"""Pinned benchmark bytes: the seed-1 stream, colorings and reports of
every perfbench workload must match perfbench/digests.json.

Each workload's stream is generated, and each of its color commands run,
in process through streamcolor.cli.main with the flags that the
benchmark's Session.generate and Session.color pass.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from streamcolor.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run_module():
    """perfbench/run.py, loaded from the repository checkout.  It imports
    its sibling spans.py, and its dataclasses look their module up in
    sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


RUN = _run_module()
PINNED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_seed_one_outputs_match_pinned_digests(name, tmp_path, capsys):
    wl = RUN.WORKLOADS[name]
    stream = tmp_path / "g.stream"
    argv = ["generate", "--seed", str(RUN.DEFAULT_SEED), *wl.generate, "--out", str(stream)]
    assert main(argv) == 0
    got = {"stream": RUN.sha256(stream)}
    for label, flags in wl.colors.items():
        colors, report = tmp_path / f"{label}.colors", tmp_path / f"{label}.json"
        argv = ["color", "--in", str(stream), *flags,
                "--out", str(colors), "--report", str(report)]
        assert main(argv) == 0, capsys.readouterr().err
        got[f"{label}.colors"] = RUN.sha256(colors)
        got[f"{label}.report"] = RUN.sha256(report)
    capsys.readouterr()
    assert got == PINNED[name]
