"""The CLI determinism contract, promoted from CI into the suite.

CI has long double-run/byte-diffed ``opsloop``, ``regionevac``,
``lbablation`` and ``fig13`` on the 100x cohort fluid through the real
``python -m repro.experiments`` entry point (shell ``diff`` of the
captured stdout).  That check only ran on CI machines;
these tests run the identical comparison in-process via ``main()`` and
``capsys``, so `pytest` alone catches a determinism regression — a
stray wall-clock read, an unseeded RNG, one run's state bleeding into
the next one's printed output — before it lands.

Only the ``(X.Xs wall)`` timing line is stripped (the one intentional
wall-clock read); everything else must match byte for byte, including
the sparkline-free rows, claim verdicts, and invariant summaries.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import main

#: The deliberately-nondeterministic output: the wall-time footer.
_WALL = re.compile(r"^\s*\(\d+\.\d+s wall\)\s*$", re.MULTILINE)


def _run_cli(argv, capsys):
    code = main([*argv, "--no-plots"])
    out = capsys.readouterr().out
    return code, _WALL.sub("", out)


@pytest.mark.parametrize("argv", [
    ["opsloop"],
    ["regionevac"],
    ["lbablation"],
    # The whole cohort layer on the 100x fluid: expansion, weighted
    # representative pacing, release-boundary condensation, aggregate
    # fold.
    ["fig13", "--cohorts", "100", "--cohort-fidelity", "aggregate"],
    # The same fluid, and the splice fast path, on the regional layout
    # across an evacuation.
    ["regionevac", "--cohorts", "100", "--cohort-fidelity", "aggregate"],
    ["regionevac", "--splice"],
], ids=" ".join)
def test_cli_double_run_is_byte_identical(argv, capsys):
    code_a, out_a = _run_cli(argv, capsys)
    code_b, out_b = _run_cli(argv, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b, f"{argv}: CLI output differs between runs"
    assert "invariants: all checkers clean" in out_a
    assert "FAIL" not in out_a


@pytest.mark.parametrize("flags", [
    ["--cohorts", "100", "--cohort-fidelity", "aggregate"], ["--splice"],
], ids=" ".join)
def test_option_is_not_a_silent_noop_on_regions(flags, capsys):
    """Both flags used to print the plain run's bytes on ``regionevac``:
    the regional builder had no cohort layer and no splice governor, and
    the options were dropped on the way to it."""
    _, plain = _run_cli(["regionevac"], capsys)
    code, out = _run_cli(["regionevac", *flags], capsys)
    assert code == 0 and out != plain


def test_cli_output_is_not_vacuous(capsys):
    """The byte-diff means something: runs print real result rows."""
    _, out = _run_cli(["opsloop"], capsys)
    assert "== " in out and " = " in out, "no result rows printed"
    assert _WALL.search(out) is None, "wall-time line survived stripping"


def test_a_figure_after_another_prints_its_standalone_bytes(capsys):
    """What ``all`` relies on: nothing is reset between two figures in
    one process, and the second prints what it prints in a fresh
    interpreter.  Both draw request and QUIC connection ids (fig13's
    mix, fig10's flows), and each run counts its own from the start."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    standalone = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig10", "--no-plots"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    _run_cli(["fig13"], capsys)
    code, after = _run_cli(["fig10"], capsys)
    assert code == 0
    assert after == _WALL.sub("", standalone)
