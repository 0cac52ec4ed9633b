"""Every figure hands back every run it built (CI ``smoke``, ~15 s).

A harness that forgets ``result.runs`` leaves its runs' invariant
suites unfinalized, and the CLI would say "all checkers clean" without
asking them.  Each figure runs here through the CLI at seed 0, as
``all`` runs it, and what it handed back must be exactly the topologies
the conftest hook saw it build, in build order.

Not named ``test_*.py``, so tier-1 does not collect it; run it with::

    PYTHONPATH=src python -m pytest tests/experiments/smoke_every_figure.py
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import main

#: The harnesses that build no topology.
NO_TOPOLOGY = {"fig02", "fig02d", "fig15", "lbablation"}


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_figure_hands_back_every_run_it_built(name, capsys, built_runs,
                                              handed_back):
    assert main([name, "--seed", "0", "--no-plots"]) == 0
    assert "invariants: all checkers clean" in capsys.readouterr().out
    assert handed_back == built_runs
    assert bool(built_runs) == (name not in NO_TOPOLOGY)
