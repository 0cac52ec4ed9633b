"""Committed cohort repro files: replay them, twice, bit-exactly.

Three shrunk scenario files under ``tests/fuzz/repros/`` pin the cohort
layer against the three mechanisms that force condensation out of the
fluid — socket takeover (edge release), DCR rehoming (origin release
under MQTT tunnels), and partial-post replay (app release under an
upload-heavy mix).  Each runs under the full invariant suite with an
aggregate-fidelity cohort policy and must stay clean.

Replaying each file twice in one process and comparing stats is exactly
the guarantee ``python -m repro.fuzz --repro FILE`` sells: a repro file
is a *complete* description of its run, with no hidden state bleeding
between runs: each run draws its request and connection ids from its
own record, so nothing is rewound in between.
"""

import pathlib

import pytest

from repro.fuzz.runner import run_scenario
from repro.fuzz.scenario import Scenario

REPRO_DIR = pathlib.Path(__file__).parent / "repros"

#: file → the mechanism-coverage stat that must be nonzero on replay.
REPROS = {
    "repro-cohort-takeover.json": "takeovers",
    "repro-cohort-dcr.json": "dcr_rehomed",
    "repro-cohort-ppr.json": "ppr_replays",
}


def _replay(path):
    scenario = Scenario.from_json(path.read_text())
    return run_scenario(scenario)


@pytest.mark.parametrize("filename", sorted(REPROS))
def test_repro_replays_bit_exactly(filename):
    path = REPRO_DIR / filename
    first = _replay(path)
    second = _replay(path)
    assert first.stats == second.stats, (
        f"{filename}: replay is not deterministic")
    assert [str(v) for v in first.violations] == \
        [str(v) for v in second.violations]


@pytest.mark.parametrize("filename", sorted(REPROS))
def test_repro_exercises_its_mechanism(filename):
    result = _replay(REPRO_DIR / filename)
    assert result.ok, (
        f"{filename}: {[str(v) for v in result.violations[:3]]}")
    mechanism = REPROS[filename]
    assert result.stats[mechanism] > 0, (
        f"{filename}: replay no longer exercises {mechanism}")
    # Every file runs an aggregate-fidelity cohort policy and its
    # release must have condensed flows out of the fluid.
    assert result.scenario.cohorts is not None
    assert result.stats["cohort_condensations"] > 0
    assert result.stats["get_ok"] > 0


def test_repro_files_round_trip_losslessly():
    for filename in REPROS:
        text = (REPRO_DIR / filename).read_text()
        scenario = Scenario.from_json(text)
        assert Scenario.from_json(scenario.to_json()) == scenario
