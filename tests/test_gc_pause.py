"""The bulk entry points run with the cyclic collector paused, and restore it.

``drplane.lattice._paused`` turns the collector off for one call of
``detect_cycle``, ``iterate``, ``closed_form_trace``, ``verify_closed_form``
and the CLI's subcommand call.  These tests check that every such call,
returning or raising, leaves the collector as it found it, that a call
inside another one pauses nothing, and the premise that makes the pause
safe: a paused call leaves no cyclic garbage behind.
"""

import gc
from fractions import Fraction
from pathlib import Path

import pytest

from drplane import lattice
from drplane.cli import main
from drplane.closedform import closed_form_trace, verify_closed_form
from drplane.cycling import DoubletonProblem, detect_cycle
from drplane.dynamics import iterate
from drplane.errors import BackendError, PreconditionError
from drplane.geometry import TiePolicy
from drplane.problems import load_problem, make_problem, save_problem
from drplane.scalars import Surd

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

LINE_RATIONAL = load_problem(PROBLEMS / "rational_cycle.json")
PLANAR_RATIONAL = make_problem(
    [Fraction(3, 5), Fraction(4, 5)], [[Fraction(-2, 3), -1], [2, Fraction(1, 7)]],
    [Fraction(1, 2), 3],
)
LINE_SURD = load_problem(PROBLEMS / "surd_aperiodic.json")
PLANAR_SURD = load_problem(PROBLEMS / "r2_beatty.json")
THREE_POINTS = make_problem([1], [[-2], [Fraction(1, 3)], [Surd(0, 1, 2)]], [Fraction(1, 5)])
F64_LINE = load_problem(PROBLEMS / "float_wide.json")
# the closed form encodes the default tie handling, so this orbit's
# verification reports a mismatch at n = 2
TIE_MISMATCH = make_problem([1], [[-1], [2]], [Fraction(1, 2)], TiePolicy.LOWER_INNER)
# every squared distance of the first step overflows to inf
F64_OVERFLOW = make_problem([1.0], [[-1e308], [1.5e308]], [1.7e308])
# beta + beta2 < 0, a hypothesis of the closed form: it refuses
SHIFTED = make_problem([0, 1], [[0, -1], [3, Fraction(1, 2)]], [0, 0])


def doubleton(problem):
    return DoubletonProblem.from_problem(problem)


def run(problem, n, slim=False):
    return iterate(problem.hyperplane, problem.points, problem.x0, n, slim=slim)


def cli(*argv):
    """main() on a problem file, returning its exit code, with --out a file."""
    def call(tmp_path):
        return main([*argv, "--out", str(tmp_path / "out")])
    return call


# calls that return, each a function of a scratch directory
CALLS = {
    "iterate line rational": lambda _: run(LINE_RATIONAL, 3000),
    "iterate planar rational slim": lambda _: run(PLANAR_RATIONAL, 3000, slim=True),
    "iterate line surd": lambda _: run(LINE_SURD, 3000),
    "iterate planar surd": lambda _: run(PLANAR_SURD, 3000),
    "iterate three points": lambda _: run(THREE_POINTS, 3000),
    "iterate f64": lambda _: run(F64_LINE, 3000),
    "detect_cycle line rational": lambda _: detect_cycle(doubleton(LINE_RATIONAL), 3000),
    "detect_cycle planar rational": lambda _: detect_cycle(doubleton(PLANAR_RATIONAL), 3000),
    "detect_cycle line surd": lambda _: detect_cycle(doubleton(LINE_SURD), 3000),
    "detect_cycle planar surd": lambda _: detect_cycle(doubleton(PLANAR_SURD), 3000),
    "detect_cycle f64": lambda _: detect_cycle(doubleton(F64_LINE), 3000),
    "closed_form_trace line rational": lambda _: closed_form_trace(doubleton(LINE_RATIONAL), 3000),
    "closed_form_trace planar surd": lambda _: closed_form_trace(doubleton(PLANAR_SURD), 3000),
    "closed_form_trace f64": lambda _: closed_form_trace(doubleton(F64_LINE), 3000),
    "verify_closed_form line rational": lambda _: verify_closed_form(doubleton(LINE_RATIONAL), 3000),
    "verify_closed_form line surd": lambda _: verify_closed_form(doubleton(LINE_SURD), 3000),
    "verify_closed_form f64": lambda _: verify_closed_form(doubleton(F64_LINE), 3000),
    "verify_closed_form mismatch": lambda _: verify_closed_form(doubleton(TIE_MISMATCH), 3000),
    "cli run csv": cli("run", "--problem", str(PROBLEMS / "surd_aperiodic.json"),
                       "--horizon", "3000", "--format", "csv"),
    "cli run json": cli("run", "--problem", str(PROBLEMS / "r2_beatty.json"),
                        "--horizon", "3000", "--format", "json"),
    "cli cycle": cli("cycle", "--problem", str(PROBLEMS / "rational_cycle.json")),
    "cli verify": cli("verify", "--problem", str(PROBLEMS / "surd_aperiodic.json")),
    "cli map": cli("map", "--problem", str(PROBLEMS / "halfspace_divergent.json"),
                   "--horizon", "3000", "--format", "csv"),
}


def refuses(error, call):
    def check(tmp_path):
        with pytest.raises(error):
            call()
    return check


def cli_refuses(tmp_path):
    path = tmp_path / "overflow.json"
    save_problem(F64_OVERFLOW, path)
    assert main(["run", "--problem", str(path), "--horizon", "2"]) == 2


# calls that raise inside the pause
REFUSALS = {
    "iterate negative horizon": refuses(ValueError, lambda: run(LINE_RATIONAL, -1)),
    "iterate f64 non-finite": refuses(BackendError, lambda: run(F64_OVERFLOW, 5)),
    "detect_cycle horizon 0": refuses(ValueError, lambda: detect_cycle(doubleton(LINE_SURD), 0)),
    "closed_form_trace refusal": refuses(
        PreconditionError, lambda: closed_form_trace(doubleton(SHIFTED), 10)),
    "verify_closed_form horizon 0": refuses(
        ValueError, lambda: verify_closed_form(doubleton(LINE_RATIONAL), 0)),
    "verify_closed_form refusal": refuses(
        PreconditionError, lambda: verify_closed_form(doubleton(SHIFTED), 10)),
    "cli f64 non-finite": cli_refuses,
}


class CountingGc:
    """The gc module, counting the helper's disable and enable calls."""

    def __init__(self):
        self.disabled = self.enabled = 0

    def __getattr__(self, name):
        return getattr(gc, name)

    def disable(self):
        self.disabled += 1
        gc.disable()

    def enable(self):
        self.enabled += 1
        gc.enable()


@pytest.fixture
def collector():
    """Restores the collector's state when the test ends."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name", [*CALLS, *REFUSALS])
def test_each_entry_point_restores_the_collector(monkeypatch, tmp_path, collector, name, enabled):
    counted = CountingGc()
    monkeypatch.setattr(lattice, "gc", counted)
    (gc.enable if enabled else gc.disable)()
    {**CALLS, **REFUSALS}[name](tmp_path)
    assert gc.isenabled() is enabled
    # once at most: verify_closed_form's iterate, and the iterate, cycle
    # search or closed form under the CLI's pause, run inside one pause
    assert (counted.disabled, counted.enabled) == ((1, 1) if enabled else (0, 0))


@pytest.mark.parametrize("name", CALLS)
def test_a_paused_call_leaves_no_cyclic_garbage(tmp_path, collector, name):
    gc.collect()
    gc.disable()
    CALLS[name](tmp_path)
    assert gc.collect() == 0


def test_a_long_cycle_search_collects_once_at_its_end(collector):
    # 30001*d1 = 69999*d2: a 1-D rational cycle of period 30001 + 69999
    p = doubleton(make_problem([1], [[Fraction(-69999, 7)], [Fraction(30001, 7)]],
                               [Fraction(1, 3)]))
    events = []
    gc.enable()
    gc.collect()
    gc.callbacks.append(lambda phase, info: events.append((phase, info["generation"])))
    try:
        report = detect_cycle(p, 10**6)
    finally:
        gc.callbacks.pop()
    assert report.status == "cycle" and report.period == 10**5
    assert events in ([], [("start", 0), ("stop", 0)])
