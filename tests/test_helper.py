"""The layer helper that density_report_suite forks.

Each layer the helper ships is the Record that find_good_assignment gives
in the parent, and the suite that merges them, class counts and witnesses
included, is the suite that runs every layer itself.  No output depends on
the helper: one that dies, raises or runs out of trials leaves them all
unchanged.  The helper never outlives the suite, and it ends by os._exit,
so it never returns into its caller's frames nor flushes inherited stdio.

The helper forks only when the process may run on two CPUs, and from
n = HELPER_MIN_N on.  The tests pin os.sched_getaffinity to one or two
CPUs and lower the floor, so that a small n forks and the suite's two
routes can be compared on any machine.
"""

import gc
import os
import subprocess
import sys

import pytest

from qturan import cli, construction
from qturan.bounds import COLORING_RULES, SuiteExhausted, _certificate_coloring, _ClassSearch, density_report_suite
from qturan.construction import (
    _dual_graph,
    _scan,
    _scanned_graph,
    _serve,
    derive_seed,
    find_good_assignment,
    fork_layer_helper,
)

from helpers import format_coloring
from test_memory import mod3_certificate, traced_peak
from test_python_floor import ROOT


def upper(n):
    """The layers the suite hands to its helper."""
    return [r for r in range(1, n + 1, 2) if 2 * r >= n]


@pytest.fixture
def two_cpus(monkeypatch):
    """The helper forks from n = 4 on; returns the list of the pids forked."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(construction, "HELPER_MIN_N", 4)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def one_cpu(monkeypatch):
    """Pin the process to one CPU, where a fork fails the test."""

    def fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(construction, "HELPER_MIN_N", 4)
    monkeypatch.setattr(os, "fork", fork)


def colorings(n):
    """The suite's keyword arguments for no coloring, the mod-3
    certificate and the rank rule."""
    return {"plain": {}, "mod-3": {"certificate": mod3_certificate(n)}, "rank": {"coloring_rule": "rank"}}


def suite_and_layers(n, seed, **kwargs):
    """The suite's result, or its SuiteExhausted as (str, cause r, partial
    reports), and the (r, result) pairs on_layer saw."""
    seen = []
    try:
        out = density_report_suite(n, seed, on_layer=lambda r, found: seen.append((r, found)), **kwargs)
    except SuiteExhausted as exc:
        out = (str(exc), exc.cause.r, exc.partial_reports)
    return out, seen


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShippedLayers:
    def test_each_layer_is_the_search(self, two_cpus):
        """For n = 8..16 and seeds 0..2, every layer shipped equals
        find_good_assignment's result as a Record, by == and by hash, and
        the layers shipped take both scan routes."""
        routes = set()
        for n in range(8, 17):
            for seed in range(3):
                helper = fork_layer_helper(n, seed, upper(n), 512)
                try:
                    for r in upper(n):
                        found, stepped = helper.take(r)
                        expect = find_good_assignment(n, r, derive_seed(seed, r), 512)
                        assert found == expect and hash(found) == hash(expect), (n, seed, r)
                        assert stepped is None
                        routes.add(_scan(found.assignment)[2])
                finally:
                    helper.close()
        assert routes == {_scanned_graph, _dual_graph}
        assert len(two_cpus) == 27
        assert_no_child()

    @pytest.mark.parametrize("n", [8, 11, 14])
    def test_the_class_step_is_the_serial_one(self, two_cpus, n):
        """With a class step, each layer ships the counts and witnesses
        that the same _ClassSearch steps give in turn in this process."""
        for name, kwargs in colorings(n).items():
            if not kwargs:
                continue
            coloring = _certificate_coloring(kwargs["certificate"], n) if "certificate" in kwargs else COLORING_RULES["rank"](n)
            helper = fork_layer_helper(n, 0, upper(n), 512, _ClassSearch(coloring).add)
            local = _ClassSearch(coloring)
            try:
                for r in upper(n):
                    found, stepped = helper.take(r)
                    assert stepped == local.add(found.graph), (name, r)
            finally:
                helper.close()

    def test_take_after_the_end_is_none(self, two_cpus):
        helper = fork_layer_helper(8, 0, [5], 512)
        assert helper.take(5) is not None
        assert helper.take(7) is None
        assert helper.stream is None
        helper.close()
        assert_no_child()


class TestMergedSuite:
    @pytest.mark.parametrize("n", range(8, 17))
    def test_suite_is_the_serial_suite(self, two_cpus, monkeypatch, n):
        """For seeds 0..2, with no coloring, the mod-3 certificate and the
        rank rule, the suite with a helper equals the suite without one: its
        reports, assignments, trials and PipelineOutcome, and each result
        on_layer saw."""
        for name, kwargs in colorings(n).items():
            for seed in range(3):
                forked = suite_and_layers(n, seed, **kwargs)
                with monkeypatch.context() as m:
                    one_cpu(m)
                    serial = suite_and_layers(n, seed, **kwargs)
                assert forked == serial, (name, seed)
        assert len(two_cpus) == 9
        assert_no_child()

    def test_the_failing_certificate_keeps_its_witnesses(self, two_cpus, monkeypatch):
        """The certify workload's call, n = 16 with the mod-3 certificate,
        ends with a C10 in every class; the helper's witnesses merge into
        the ones the serial suite finds."""
        cert = mod3_certificate(16)
        forked = density_report_suite(16, 0, certificate=cert).pipeline
        one_cpu(monkeypatch)
        serial = density_report_suite(16, 0, certificate=cert).pipeline
        assert not forked.success and sorted(forked.witnesses) == [0, 1, 2]
        assert forked == serial
        assert two_cpus

    @pytest.mark.parametrize("n, seed, r", [(12, 0, 5), (12, 3, 7)], ids=["parent layer", "helper layer"])
    def test_exhaustion_is_the_serial_one(self, two_cpus, monkeypatch, n, seed, r):
        """With one trial per layer, the suite stops at the same layer with
        the same message and partial reports, whoever owns the layer."""
        forked = suite_and_layers(n, seed, max_trials=1)
        assert_no_child()
        one_cpu(monkeypatch)
        assert forked == suite_and_layers(n, seed, max_trials=1)
        assert forked[0][1] == r


def failing_helper(monkeypatch, how):
    """Make the helper's second layer search fail in the given way; the
    parent's searches, which bounds imported by name, are untouched."""
    parent = os.getpid()
    calls = []

    def search(*args):
        if os.getpid() != parent:
            calls.append(args)
            if len(calls) > 1:
                if how == "exit":
                    os._exit(0)
                if how == "kill":
                    os.kill(os.getpid(), 9)
                raise RuntimeError("the helper fails")
        return find_good_assignment(*args)

    monkeypatch.setattr(construction, "find_good_assignment", search)


class TestNoOutputDependsOnTheHelper:
    @pytest.mark.parametrize("how", ["exit", "kill", "raise"])
    def test_a_helper_that_stops_after_one_layer(self, two_cpus, monkeypatch, how):
        expect = {}
        with monkeypatch.context() as m:
            one_cpu(m)
            for name, kwargs in colorings(10).items():
                expect[name] = suite_and_layers(10, 0, **kwargs)
        failing_helper(monkeypatch, how)
        for name, kwargs in colorings(10).items():
            assert suite_and_layers(10, 0, **kwargs) == expect[name], name
        assert len(two_cpus) == 3
        assert_no_child()

    def cli_runs(self, tmp_path, capsys, tag):
        """stdout, stderr, exit code and --out files of pipeline --n 12,
        plain, with the mod-3 --coloring file, with the rank rule, and with
        one trial, which ends in exit 4."""
        coloring = tmp_path / "coloring.txt"
        coloring.write_text(format_coloring(mod3_certificate(12)))
        runs = {}
        for name, extra in {
            "plain": [],
            "coloring": ["--coloring", str(coloring)],
            "rank": ["--coloring-rule", "rank"],
            "one trial": ["--trials", "1"],
        }.items():
            out = tmp_path / tag / name.replace(" ", "-")
            code = cli.main(["pipeline", "--n", "12", "--seed", "0", "--out", str(out), *extra])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs[name] = (code, captured.out, captured.err, files)
        return runs

    def test_one_cpu_is_byte_identical_and_never_forks(self, two_cpus, monkeypatch, tmp_path, capsys):
        forked = self.cli_runs(tmp_path, capsys, "two")
        assert len(two_cpus) == 4
        assert [run[0] for run in forked.values()] == [0, 0, 0, 4]
        one_cpu(monkeypatch)
        assert self.cli_runs(tmp_path, capsys, "one") == forked
        assert_no_child()

    def test_the_cli_with_a_failing_helper(self, two_cpus, monkeypatch, tmp_path, capsys):
        expect = self.cli_runs(tmp_path, capsys, "two")
        failing_helper(monkeypatch, "exit")
        assert self.cli_runs(tmp_path, capsys, "failing") == expect


class TestNoHelperOutlivesTheSuite:
    def test_after_a_normal_return(self, two_cpus):
        density_report_suite(12, 0, coloring_rule="rank")
        assert two_cpus
        assert_no_child()

    def test_after_an_error_in_on_layer(self, two_cpus):
        def fail(r, found):
            if r == 7:
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            density_report_suite(12, 0, on_layer=fail)
        assert two_cpus
        assert_no_child()

    def test_after_exhaustion_on_a_parent_layer(self, two_cpus):
        with pytest.raises(SuiteExhausted) as info:
            density_report_suite(12, 0, max_trials=1)
        assert 2 * info.value.cause.r < 12
        assert two_cpus
        assert_no_child()

    def test_no_garbage_cycles_in_the_parent(self, two_cpus):
        """As test_memory's entry points: a second call with the collector
        off leaves nothing for it to free."""
        density_report_suite(10, 0, coloring_rule="rank")
        gc.collect()
        gc.disable()
        try:
            density_report_suite(10, 0, coloring_rule="rank")
            assert gc.collect() == 0
        finally:
            gc.enable()


# Run in a fresh interpreter with the helper's searches made to fail as
# argv[1] says.  stdout is a pipe, so "before" stays in the buffer that the
# helper inherits until the parent exits.
EXIT_SCRIPT = """
import os, sys
from qturan import bounds, construction

construction.HELPER_MIN_N = 4
os.sched_getaffinity = lambda pid: {0, 1}
how, parent, search = sys.argv[1], os.getpid(), construction.find_good_assignment

def failing(*args):
    if os.getpid() != parent:
        if how == "raise":
            raise RuntimeError("the helper fails")
        if how == "exit":
            sys.exit(3)
        if how == "interrupt":
            raise KeyboardInterrupt
    return search(*args)

construction.find_good_assignment = failing
sys.stdout.write("before\\n")
try:
    bounds.density_report_suite(10, 0, coloring_rule="rank")
finally:
    sys.stdout.write("after\\n")
"""


@pytest.mark.parametrize("how", ["none", "raise", "exit", "interrupt"])
def test_the_helper_ends_by_os_exit(how, tmp_path):
    """Whether its searches return, raise, call sys.exit or are
    interrupted, the helper neither returns into the script nor flushes
    the line the script left in its stdout buffer."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_SCRIPT, how], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\nafter\n", "")


def test_the_helper_holds_one_layer_at_a_time():
    """The helper's loop, writing to /dev/null, peaks within 1.25 times the
    same loop over its largest layer alone: at n = 14 the layers it takes
    are r = 7, 9, 11 and 13, and the first is the largest.  Both peaked at
    150 KB; a loop that kept each layer and its message until the next one
    replaced them peaked at 1.6 times its first layer.  A class step's
    search maps, which go before the step returns, would hide that."""
    n, layers = 14, upper(14)
    sink = os.open(os.devnull, os.O_WRONLY)
    try:

        def run(rs):
            return traced_peak(lambda: _serve(sink, n, 0, rs, 512, None))

        run(layers)
        one = run(layers[:1])
        whole = run(layers)
    finally:
        os.close(sink)
    assert whole < 1.25 * one, (whole, one)
