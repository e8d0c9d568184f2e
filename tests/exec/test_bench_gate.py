"""The exact count budget.

``count_budget.json`` holds the integer counts of
:func:`repro.exec.bench.measure_counts` -- simulator events, host-memory
calls, delivered operations and Python calls per ``repro`` package for
the ``pingpong``, ``bulk`` and ``fleet`` inputs.  They are functions of
the model code, so the gate compares them exactly: any count that moves,
up or down, fails and is listed.  A change that moves a count
regenerates the file with ``python -m repro.exec.bench`` and names the
move in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.bench import INPUTS, _echo_harness, measure_counts, measure_input, moved_counts

BUDGET_PATH = Path(__file__).with_name("count_budget.json")
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def no_repro_knobs():
    with pytest.MonkeyPatch.context() as patch:
        for name in os.environ:
            if name.startswith("REPRO_"):
                patch.delenv(name)
        yield


@pytest.fixture(scope="module")
def counts(no_repro_knobs):
    return measure_counts()


def test_counts_match_budget_exactly(counts):
    budget = json.loads(BUDGET_PATH.read_text())
    moved = moved_counts(budget, counts)
    assert not moved, (
        "counts moved against tests/exec/count_budget.json (regenerate it with "
        "`python -m repro.exec.bench` and name the move in CHANGES.md):\n  "
        + "\n  ".join(moved)
    )


@pytest.mark.parametrize("name", list(INPUTS))
def test_counts_do_not_depend_on_process_history(name, counts, no_repro_knobs):
    """An input measured alone in a fresh process counts the same as
    after every input has run in this one."""
    script = (
        "import json, sys; from repro.exec.bench import measure_input; "
        "json.dump(measure_input(sys.argv[1]), sys.stdout)"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script, name],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert json.loads(fresh.stdout) == measure_input(name) == counts[name]


def test_copy_count_measurement_is_deterministic(counts):
    """The echo's materializing copies are counted per packet exactly as
    the per-driver measurement this gate replaced counted them: 24
    packets at each of 64 B and 1024 B, 12.04 / 14.04 reads per packet
    for virtio and 4 / 6 for xdma."""
    assert counts["pingpong"]["ops"] == 4 * 24
    assert counts["pingpong"]["mem.read"] == 866


def test_copy_count_rejects_unknown_driver():
    with pytest.raises(ValueError, match="unknown driver"):
        _echo_harness("e1000")


# -- the comparison rule -------------------------------------------------------

BUDGET = {
    "bulk": {"events": 264, "mem.read": 67, "calls.pcie": 1152},
    "fleet": {"events": 16202, "calls.topology": 2045},
}


def _moved_copy(name, key, value):
    measured = {input_name: dict(totals) for input_name, totals in BUDGET.items()}
    if value is None:
        del measured[name][key]
    else:
        measured[name][key] = value
    return moved_counts(BUDGET, measured)


def test_identical_measurement_passes():
    assert moved_counts(BUDGET, {k: dict(v) for k, v in BUDGET.items()}) == []


def test_copy_count_increase_fails_exactly():
    assert _moved_copy("bulk", "mem.read", 68) == ["bulk.mem.read: 67 -> 68"]


def test_any_move_is_listed():
    """Fewer counts fail too: the budget is a record of the model, so an
    unannounced improvement is as much a surprise as a regression."""
    assert _moved_copy("bulk", "events", 263) == ["bulk.events: 264 -> 263"]
    assert _moved_copy("fleet", "calls.topology", None) == ["fleet.calls.topology: 2045 -> None"]
    assert _moved_copy("bulk", "calls.core", 1) == ["bulk.calls.core: None -> 1"]
    assert moved_counts(BUDGET, {"bulk": BUDGET["bulk"]}) == [
        "fleet.calls.topology: 2045 -> None", "fleet.events: 16202 -> None",
    ]
