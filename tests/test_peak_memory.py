"""Traced memory budgets of the dense operator layer at n = 256, and of the sweep plans.

The probes are those of ``tools/peak_memory.py``: ``tracemalloc`` peaks of
numpy's own allocations, so the budgets are deterministic.  A real n x n
float64 array is 0.5 MiB here.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_memory.py"
_spec = importlib.util.spec_from_file_location("peak_memory", TOOL)
peak_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_memory)

# MiB at n = 256.  A complex128 operator with a copied real part read 5.51,
# 3.50 and 1.52.  A copy of M in the solve adds 0.5, past the solve budget.
# The code reads 2.071, 1.001 and 1.021; copying an operator before checking
# it read 2.504 to build and 1.501 to wrap, past these budgets.
BUDGETS = {"build": 2.25, "matrix": 1.25, "solve": 1.25}
# MiB for building H2's sweep plan and the largest table layout's from
# nothing (0.31 and 0.75 MiB, held together).  The peak is the gate loop's
# build of the largest branch table.  The code reads 1.603.  Building the
# largest plan from stacked copies of its blocks read 2.017, past this
# budget, and so did keeping a second (m, 2, 1, 2**m) coefficient array in
# the gate loop, 2.291, as the code did before its diagonal gates folded
# their diagonals into their partner terms.
PLAN_BUDGET = 1.8


@pytest.fixture(scope="module")
def peaks():
    return peak_memory.peaks(256)


@pytest.mark.parametrize("name", list(BUDGETS))
def test_traced_peak_within_budget(peaks, name):
    assert peaks[name] <= BUDGETS[name]


def test_plan_peak_within_budget():
    assert peak_memory.plan_peak() <= PLAN_BUDGET


def test_tool_prints_one_row_per_size_and_the_plan_row(capsys):
    assert peak_memory.main(["peak_memory.py", "16", "32"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["n", "16", "32", "plan"]
