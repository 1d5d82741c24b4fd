"""The layer queue that density_report_suite shares with its helper.

The suite and the helper it forks claim the odd layers from one queue,
largest full layer first, and each process runs the layers it claims
through the suite's one take, which hands them to on_layer, so the tests
record each on_layer call in a file.  The helper calls take, which the
tests catch as the suite hands it to fork_layer_helper, and sends back a
record of what take returns, never the graph; the suite that merges them,
class counts and witnesses included, is the suite that runs every layer
itself.  No output depends on the helper: one that dies, raises or runs
out of trials leaves them all unchanged, and a call that fails at a
layer, out of memory included, ends as it does on one CPU, with no --out
file of a layer above it.  The helper never outlives the
suite, and it ends by os._exit, so it never returns into its caller's
frames nor flushes inherited stdio.  Given a certificate file, the suite
forks before it reads the file and then sends the helper the checked
colors; the outputs, on every path, are those of one CPU, and a helper
whose parent dies, in the read or after a claim, exits.

The helper forks only when the process may run on two CPUs, and from
n = HELPER_MIN_N on.  The tests pin os.sched_getaffinity to one or two
CPUs and lower the floor, so that a small n forks and the suite's two
routes can be compared on any machine.
"""

import gc
import io
import os
import pickle
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest

from qturan import bounds, cli, construction
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
from qturan.cube import LayerId, cube_edge_count, layer_edge_count

from helpers import format_coloring
from test_memory import mod3_certificate, traced_peak
from test_python_floor import ROOT


def queue_order(n):
    """The odd layers of Q_n, largest full layer first, ties to the smaller r."""
    return sorted(range(1, n + 1, 2), key=lambda r: (-layer_edge_count(LayerId(n, r)), r))


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


class Caught(Exception):
    """Raised by suite_take's spy, to end the suite before it takes a layer."""


def suite_take(n, seed, **kwargs):
    """The take and the inbox size that density_report_suite(n, seed,
    **kwargs) hands fork_layer_helper, caught there, so that the suite
    takes no layer and its class search is fresh."""
    caught = []

    def spy(n, layers, take, inbox):
        caught.append((take, inbox))
        raise Caught

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bounds, "fork_layer_helper", spy)
        with pytest.raises(Caught):
            density_report_suite(n, seed, **kwargs)
    return caught[0]


def colorings(n):
    """The suite's keyword arguments for no coloring, the mod-3
    certificate and the rank rule."""
    return {"plain": {}, "mod-3": {"certificate": mod3_certificate(n)}, "rank": {"coloring_rule": "rank"}}


class LayerLog:
    """An on_layer that records each call in a file of a fresh directory
    under root, whichever process makes it: the process, the place of the
    call among that process's calls, the layer and the result."""

    def __init__(self, root):
        self.directory = Path(tempfile.mkdtemp(dir=root))
        self.calls = 0

    def __call__(self, r, found):
        self.calls += 1
        (self.directory / f"{os.getpid()}-{self.calls:03}-{r}").write_bytes(pickle.dumps(found))

    def entries(self):
        """(pid, place, r, result) of each call, in order of pid and place."""
        names = sorted(p.name for p in self.directory.iterdir())
        return [(*map(int, name.split("-")), pickle.loads((self.directory / name).read_bytes())) for name in names]

    def seen(self):
        """The (r, result) pairs on_layer saw, in increasing r."""
        return sorted(((r, found) for _, _, r, found in self.entries()), key=lambda pair: pair[0])

    def claims(self):
        """The layers of each process's calls, in its order, by pid."""
        order = {}
        for pid, _, r, _ in self.entries():
            order.setdefault(pid, []).append(r)
        return order


def suite_and_layers(root, n, seed, **kwargs):
    """The suite's result, or its SuiteExhausted as (str, cause r, partial
    reports), and the (r, result) pairs on_layer saw, in increasing r."""
    log = LayerLog(root)
    try:
        out = density_report_suite(n, seed, on_layer=log, **kwargs)
    except SuiteExhausted as exc:
        out = (str(exc), exc.cause.r, exc.partial_reports)
    return out, log.seen()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class FileReadAfterTheFork(io.StringIO):
    """A coloring file whose reads fail the test unless a helper has forked
    since the file was made."""

    def __init__(self, text, forks):
        super().__init__(text)
        self.forks, self.before = forks, len(forks)

    def read(self, size=-1):
        assert len(self.forks) > self.before, "read before the fork"
        return super().read(size)


class TestTheQueue:
    @pytest.mark.parametrize("n, first", [(10, [5, 7, 3]), (11, [5, 7, 3, 9]), (12, [7, 5, 9, 3]), (18, [9, 11, 7, 13])])
    def test_largest_full_layer_first(self, monkeypatch, n, first):
        """The suite queues the odd layers by their full layer's edge count,
        r * C(n, r), largest first; at odd n the layers r and n + 1 - r tie,
        and the smaller r comes first."""
        queued = []
        fork = construction.fork_layer_helper

        def spy(n, layers, *args):
            queued.append(list(layers))
            return fork(n, layers, *args)

        monkeypatch.setattr(bounds, "fork_layer_helper", spy)
        one_cpu(monkeypatch)
        density_report_suite(n, 0)
        assert queued == [queue_order(n)] and queued[0][: len(first)] == first
        assert sorted(queued[0]) == list(range(1, n + 1, 2))

    @pytest.mark.parametrize("n", [10, 12, 14, 16])
    def test_each_process_takes_its_claims_in_queue_order(self, two_cpus, tmp_path, n):
        """on_layer runs in the process that took the layer: the helper
        takes the largest layer first, each process calls on_layer in
        queue order, and the two together once for every layer."""
        for seed in range(3):
            log = LayerLog(tmp_path)
            density_report_suite(n, seed, on_layer=log)
            claims = log.claims()
            order = queue_order(n)
            assert sorted(r for rs in claims.values() for r in rs) == sorted(order), seed
            for rs in claims.values():
                assert rs == [r for r in order if r in rs], seed
            assert claims[two_cpus[-1]][0] == order[0], seed
        assert_no_child()


class TestShippedLayers:
    def test_each_layer_is_the_search(self, two_cpus, tmp_path):
        """For n = 8..16 and seeds 0..2, a helper left to claim every layer
        with the suite's take hands on_layer find_good_assignment's result
        as a Record, by == and by hash, and records its assignment, trials
        and edges; it claims in queue order, and the layers take both scan
        routes."""
        routes = set()
        for n in range(8, 17):
            for seed in range(3):
                log = LayerLog(tmp_path)
                take, inbox = suite_take(n, seed, on_layer=log)
                assert inbox == 0
                helper = fork_layer_helper(n, queue_order(n), take)
                records = helper.records()
                assert log.claims() == {two_cpus[-1]: queue_order(n)}
                for r, found in log.seen():
                    expect = find_good_assignment(n, r, derive_seed(seed, r), 512)
                    assert found == expect and hash(found) == hash(expect), (n, seed, r)
                    assert records.pop(r) == (expect.assignment, expect.trials, expect.edges, None)
                    routes.add(_scan(found.assignment)[2])
                assert records == {}
        assert routes == {_scanned_graph, _dual_graph}
        assert len(two_cpus) == 27
        assert_no_child()

    @pytest.mark.parametrize("n", [8, 11, 14])
    def test_the_class_step_is_the_serial_one(self, two_cpus, n):
        """With a class step, each layer's record holds the counts and
        witnesses that the same _ClassSearch steps give in queue order in
        this process.  With a certificate, the suite's take waits for the
        colors, one byte per edge of Q_n, which this process sends."""
        for name, kwargs in colorings(n).items():
            if not kwargs:
                continue
            take, inbox = suite_take(n, 0, **kwargs)
            helper = fork_layer_helper(n, queue_order(n), take, inbox)
            if "certificate" in kwargs:
                assert inbox == cube_edge_count(n)
                assert helper.send(memoryview(kwargs["certificate"].colors))
                coloring = _certificate_coloring(kwargs["certificate"], n)
            else:
                assert inbox == 0
                coloring = COLORING_RULES["rank"](n)
            records = helper.records()
            local = _ClassSearch(coloring)
            for r in queue_order(n):
                found = find_good_assignment(n, r, derive_seed(0, r), 512)
                assert records[r][3] == local.add(found.graph), (name, r)
        assert_no_child()

    def test_claim_after_the_end_is_none(self, two_cpus):
        helper = fork_layer_helper(8, [5], suite_take(8, 0)[0])
        assert list(helper.records()) == [5]
        assert helper.claim() is None
        assert helper.stream is None
        helper.close()
        assert_no_child()


class TestMergedSuite:
    @pytest.mark.parametrize("n", range(8, 17))
    def test_suite_is_the_serial_suite(self, two_cpus, monkeypatch, tmp_path, n):
        """For seeds 0..2, with no coloring, the mod-3 certificate and the
        rank rule, the suite with a helper equals the suite without one: its
        reports, assignments, trials and PipelineOutcome, and the result
        on_layer saw for each layer, once."""
        for name, kwargs in colorings(n).items():
            for seed in range(3):
                forked = suite_and_layers(tmp_path, n, seed, **kwargs)
                with monkeypatch.context() as m:
                    one_cpu(m)
                    serial = suite_and_layers(tmp_path, n, seed, **kwargs)
                assert forked == serial, (name, seed)
        assert len(two_cpus) == 9
        assert_no_child()

    @pytest.mark.parametrize("n", range(8, 17))
    def test_suite_that_reads_the_certificate_is_the_serial_suite(self, two_cpus, monkeypatch, tmp_path, n):
        """For seeds 0..2, the suite given the mod-3 certificate as an open
        file forks before it reads the file, and equals the suite on one CPU
        given the certificate parsed: its reports, assignments, trials and
        PipelineOutcome, and the result on_layer saw for each layer."""
        cert = mod3_certificate(n)
        text = format_coloring(cert)
        for seed in range(3):
            forked = suite_and_layers(tmp_path, n, seed, certificate=FileReadAfterTheFork(text, two_cpus))
            with monkeypatch.context() as m:
                one_cpu(m)
                serial = suite_and_layers(tmp_path, n, seed, certificate=cert)
            assert forked == serial, seed
        assert len(two_cpus) == 3
        assert_no_child()

    def test_the_failing_certificate_keeps_its_witnesses(self, two_cpus, monkeypatch):
        """The certify workload's call, n = 16 with the mod-3 certificate,
        ends with a C10 in every class; the helper's witnesses merge into
        the ones the serial suite finds."""
        cert = mod3_certificate(16)
        forked = density_report_suite(16, 0, certificate=cert).pipeline
        assert_no_child()
        one_cpu(monkeypatch)
        serial = density_report_suite(16, 0, certificate=cert).pipeline
        assert not forked.success and sorted(forked.witnesses) == [0, 1, 2]
        assert forked == serial
        assert two_cpus

    @pytest.mark.parametrize(
        "n, seed, trials, r", [(12, 1, 1, 5), (12, 0, 2, 7)], ids=["below the largest layer", "the largest layer"]
    )
    def test_exhaustion_is_the_serial_one(self, two_cpus, monkeypatch, tmp_path, n, seed, trials, r):
        """With a small budget, the suite stops at the same layer with the
        same message and partial reports, whoever claimed the layer: at
        r = 5, below the largest layer r = 7, and at r = 7 itself."""
        forked = suite_and_layers(tmp_path, n, seed, max_trials=trials)
        assert_no_child()
        one_cpu(monkeypatch)
        serial = suite_and_layers(tmp_path, n, seed, max_trials=trials)
        assert forked[0] == serial[0] and forked[0][1] == r
        # the one-CPU run stops at r; the two processes may take layers above it
        assert serial[1] == [pair for pair in forked[1] if pair[0] < r]


def failing_helper(monkeypatch, how, layers=1):
    """Make the helper's layer search after its first layers fail in the
    given way; the parent's searches, told apart by the pid, are
    untouched."""
    parent = os.getpid()
    calls = []

    def search(*args):
        if os.getpid() != parent:
            calls.append(args)
            if len(calls) > layers:
                if how == "exit":
                    os._exit(0)
                if how == "kill":
                    os.kill(os.getpid(), 9)
                raise RuntimeError("the helper fails")
        return find_good_assignment(*args)

    monkeypatch.setattr(bounds, "find_good_assignment", search)


class TestNoOutputDependsOnTheHelper:
    @pytest.mark.parametrize("how", ["exit", "kill", "raise"])
    def test_a_helper_that_stops_after_one_layer(self, two_cpus, monkeypatch, tmp_path, how):
        expect = {}
        with monkeypatch.context() as m:
            one_cpu(m)
            for name, kwargs in colorings(10).items():
                expect[name] = suite_and_layers(tmp_path, 10, 0, **kwargs)
        failing_helper(monkeypatch, how)
        for name, kwargs in colorings(10).items():
            assert suite_and_layers(tmp_path, 10, 0, **kwargs) == expect[name], name
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
        assert_no_child()
        one_cpu(monkeypatch)
        assert self.cli_runs(tmp_path, capsys, "one") == forked

    def test_the_cli_with_a_failing_helper(self, two_cpus, monkeypatch, tmp_path, capsys):
        expect = self.cli_runs(tmp_path, capsys, "two")
        failing_helper(monkeypatch, "exit")
        assert self.cli_runs(tmp_path, capsys, "failing") == expect
        assert_no_child()


class TestAFailingCall:
    """pipeline --n 12 that fails at a layer, or whose helper's writes fail,
    is the one-CPU call: exit code, stdout, stderr and --out files."""

    def run(self, capsys, out, *extra):
        code = cli.main(["pipeline", "--n", "12", "--seed", str(self.seed), "--out", str(out), *extra])
        captured = capsys.readouterr()
        files = {p.name: p.is_file() and p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
        return code, captured.out, captured.err.replace(str(out), "OUT"), files

    def writes_logged(self, monkeypatch, log, fail_in_helper=False):
        """Log each layer whose files a process wrote; with fail_in_helper,
        the helper's writes raise OSError instead."""
        parent, write = os.getpid(), cli._LayerWriter.__call__

        def logged(writer, r, found):
            if fail_in_helper and os.getpid() != parent:
                raise OSError("the helper's disk is full")
            paths = write(writer, r, found)
            with log.open("a") as stream:
                stream.write(f"{os.getpid()} {r}\n")
            return paths

        monkeypatch.setattr(cli._LayerWriter, "__call__", logged)

    def compare(self, two_cpus, monkeypatch, tmp_path, capsys, *extra, prepare=lambda out: None):
        """The call with two CPUs and with one CPU; returns the first, once
        it equals the second, and the layers each process wrote in it."""
        log = tmp_path / "writes"
        prepare(tmp_path / "two")
        forked = self.run(capsys, tmp_path / "two", *extra)
        assert len(two_cpus) == 1
        assert_no_child()
        writes = {}
        for line in log.read_text().splitlines() if log.exists() else []:
            pid, r = map(int, line.split())
            writes.setdefault(pid, []).append(r)
        prepare(tmp_path / "one")
        with monkeypatch.context() as m:
            one_cpu(m)
            assert self.run(capsys, tmp_path / "one", *extra) == forked
        return forked, writes

    def test_exhaustion_below_the_largest_layer(self, two_cpus, monkeypatch, tmp_path, capsys):
        """Seed 1 with one trial runs out at r = 5 after the helper found
        and wrote the largest layer, r = 7: its files, and those of any
        layer above 5, are gone, as on one CPU."""
        self.seed = 1
        self.writes_logged(monkeypatch, tmp_path / "writes")
        (code, out, err, files), writes = self.compare(two_cpus, monkeypatch, tmp_path, capsys, "--trials", "1")
        assert code == 4 and "n=12, r=5 " in err
        assert writes[two_cpus[0]][0] == 7
        assert sorted(files) == ["assignment_n12_r1.txt", "assignment_n12_r3.txt", "layer_n12_r1.txt", "layer_n12_r3.txt"]

    def test_a_directory_above_the_failing_layer_stays(self, two_cpus, monkeypatch, tmp_path, capsys):
        """Layer 11's file is a directory, which the helper fails to write
        over, and the run then runs out at r = 5: the directory stays, and
        the call exits 4, as on one CPU."""
        self.seed = 1

        def prepare(out):
            (out / "layer_n12_r11.txt").mkdir(parents=True)

        code, out, err, files = self.compare(two_cpus, monkeypatch, tmp_path, capsys, "--trials", "1", prepare=prepare)[0]
        assert code == 4 and "n=12, r=5 " in err
        assert files["layer_n12_r11.txt"] is False and "assignment_n12_r11.txt" not in files

    def test_exhaustion_of_the_largest_layer(self, two_cpus, monkeypatch, tmp_path, capsys):
        """Seed 0 with two trials runs out at r = 7, the largest layer,
        while layers 9 and 11 are found: no file of a layer above 7 stays."""
        self.seed = 0
        self.writes_logged(monkeypatch, tmp_path / "writes")
        (code, out, err, files), writes = self.compare(two_cpus, monkeypatch, tmp_path, capsys, "--trials", "2")
        assert code == 4 and "n=12, r=7 " in err
        assert sorted(files) == [f"{kind}_n12_r{r}.txt" for kind in ("assignment", "layer") for r in (1, 3, 5)]

    def test_on_layer_that_raises_in_the_helper(self, two_cpus, monkeypatch, tmp_path, capsys):
        """The helper's first write raises, so the helper stops, and this
        process takes that layer and every layer left."""
        self.seed = 0
        self.writes_logged(monkeypatch, tmp_path / "writes", fail_in_helper=True)
        (code, out, err, files), writes = self.compare(two_cpus, monkeypatch, tmp_path, capsys)
        assert (code, err) == (0, "") and len(files) == 12
        assert list(writes) == [os.getpid()]

    def test_a_layer_file_that_is_a_directory(self, two_cpus, monkeypatch, tmp_path, capsys):
        """Layer 9's file is a directory, so its write fails with exit 2 in
        whichever process claims it; the files of layers 11 and up, which
        the other process may have written, are gone."""
        self.seed = 0

        def prepare(out):
            (out / "layer_n12_r9.txt").mkdir(parents=True)

        code, out, err, files = self.compare(two_cpus, monkeypatch, tmp_path, capsys, prepare=prepare)[0]
        assert code == 2 and err.startswith("error: [Errno 21] Is a directory")
        assert sorted(files) == sorted(
            [f"{kind}_n12_r{r}.txt" for kind in ("assignment", "layer") for r in (1, 3, 5, 7)]
            + ["assignment_n12_r9.txt", "layer_n12_r9.txt"]
        )

    @pytest.mark.parametrize("where", ["parent", "helper"])
    def test_out_of_memory_at_a_layer(self, two_cpus, monkeypatch, tmp_path, capfd, where):
        """With the rank rule, _split_layer runs out of memory at layer r,
        after on_layer wrote r's files: at r = 5 in the parent alone, while
        the helper writes its first layer, r = 7, and stops at its next; or
        at r = 7 in the helper, whose first layer it is, and then in the
        parent, which writes every other layer and then takes r = 7.  Exit
        3, the one error line and empty stdout, as on one CPU; the files of
        r and the layers below it stay, and the others are removed once no
        frame of the failing layer is alive."""

        class FrameLocal:
            pass

        self.seed = 0
        r = {"parent": 5, "helper": 7}[where]
        parent, split, discard = os.getpid(), bounds._split_layer, cli._LayerWriter.discard_above
        raised, held, alive = tmp_path / "raised", [], []

        def splitting(g, coloring):
            if g.layer.r == r and (where == "helper" or os.getpid() == parent):
                with raised.open("a") as log:
                    log.write(f"{os.getpid()}\n")
                frame_local = FrameLocal()
                held.append(weakref.ref(frame_local))
                raise MemoryError
            return split(g, coloring)

        def discarding(writer, below):
            alive.append(any(ref() is not None for ref in held))
            discard(writer, below)

        monkeypatch.setattr(bounds, "_split_layer", splitting)
        monkeypatch.setattr(cli._LayerWriter, "discard_above", discarding)
        if where == "parent":
            failing_helper(monkeypatch, "exit")
        self.writes_logged(monkeypatch, tmp_path / "writes")
        (code, out, err, files), writes = self.compare(two_cpus, monkeypatch, tmp_path, capfd, "--coloring-rule", "rank")
        assert (code, out, err) == (3, "", "error: out of memory\n")
        assert sorted(files) == [f"{kind}_n12_r{k}.txt" for kind in ("assignment", "layer") for k in range(1, r + 1, 2)]
        assert alive == [False, False]
        # the two-CPU call's raises, then the one-CPU call's
        assert list(map(int, raised.read_text().split())) == {"parent": [parent], "helper": [two_cpus[0], parent]}[where] + [parent]
        assert writes[two_cpus[0]][0] == 7
        if where == "helper":
            assert 11 in writes[parent]
        else:
            assert 7 not in writes[parent]

    def test_a_failed_layer_is_let_go_before_the_next_take(self, two_cpus, monkeypatch):
        """The [parent] case above, in the suite itself: _split_layer runs
        out of memory at r = 5 in the parent, which claims every layer but
        the helper's first, r = 7.  The parent goes on to take r = 3 and
        r = 1 in its claim loop, and when each take starts, the graph of
        r = 5 is gone, though the suite raises that MemoryError last."""
        parent, split, search, claim = os.getpid(), bounds._split_layer, bounds.find_good_assignment, construction._claim
        graphs, taken = [], []

        def splitting(g, coloring):
            if g.layer.r == 5 and os.getpid() == parent:
                graphs.append(weakref.ref(g))
                raise MemoryError
            return split(g, coloring)

        def searching(n, r, *args):
            if graphs and os.getpid() == parent:
                taken.append((r, graphs[0]() is None))
            return search(n, r, *args)

        monkeypatch.setattr(bounds, "_split_layer", splitting)
        monkeypatch.setattr(bounds, "find_good_assignment", searching)
        # the helper claims nothing after its first layer
        monkeypatch.setattr(construction, "_claim", lambda queue: claim(queue) if os.getpid() == parent else None)
        with pytest.raises(MemoryError) as raised:
            density_report_suite(12, 0, coloring_rule="rank")
        assert raised.value.layer == 5 and len(two_cpus) == 1
        assert_no_child()
        assert taken == [(3, True), (1, True)]

    def test_capacity_below_n(self, two_cpus, monkeypatch, tmp_path, capsys):
        """QT_CAPACITY below n: exit 3 and no file."""
        self.seed = 0
        monkeypatch.setenv("QT_CAPACITY", "10")
        with monkeypatch.context() as m:
            one_cpu(m)
            expect = self.run(capsys, tmp_path / "one")
        assert expect[0] == 3 and expect[3] is None
        assert self.run(capsys, tmp_path / "two") == expect
        assert len(two_cpus) == 1
        assert_no_child()


class TestTheCertificateFile:
    """pipeline --coloring FILE forks its helper before it reads FILE."""

    def run(self, capsys, out, coloring, *extra):
        code = cli.main(["pipeline", "--n", "12", "--seed", "0", "--coloring", str(coloring), "--out", str(out), *extra])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("case", ["malformed", "short", "duplicated", "other n", "missing", "one trial"])
    def test_a_failing_call_is_the_one_cpu_call(self, two_cpus, monkeypatch, tmp_path, capsys, case):
        """A bad certificate exits 2 with the stderr of one CPU, writes no
        --out file and leaves no child; a missing file exits 2 before any
        fork; a run out of trials exits 4 with the layers found before."""
        lines = format_coloring(mod3_certificate(12)).splitlines(keepends=True)
        texts = {
            "malformed": lines[:700] + ["70 zz 1\n"] + lines[701:],
            "short": lines[:-5],
            "duplicated": lines + lines[600:601],
            "other n": format_coloring(mod3_certificate(10)),
            "one trial": lines,
        }
        coloring = tmp_path / "coloring.txt"
        if case in texts:
            coloring.write_text("".join(texts[case]))
        extra = ["--trials", "1"] if case == "one trial" else []
        forked = self.run(capsys, tmp_path / "two", coloring, *extra)
        assert len(two_cpus) == (case != "missing")
        assert_no_child()
        one_cpu(monkeypatch)
        assert self.run(capsys, tmp_path / "one", coloring, *extra) == forked
        if case == "one trial":
            assert forked[0] == 4 and forked[3]
        else:
            assert forked[:2] == (2, "") and forked[3] is None

    def test_a_helper_gone_before_the_colors(self, two_cpus, monkeypatch, tmp_path, capsys):
        """The helper dies in its first search, and the parent reads the
        certificate only after that, so sending the colors hits a broken
        pipe.  The parent takes the helper as gone: every output is that of
        one CPU."""
        coloring = tmp_path / "coloring.txt"
        coloring.write_text(format_coloring(mod3_certificate(12)))
        with monkeypatch.context() as m:
            one_cpu(m)
            expect = self.run(capsys, tmp_path / "one", coloring)
        failing_helper(monkeypatch, "exit", layers=0)
        read = bounds.read_coloring

        def read_after_the_death(stream):
            os.waitid(os.P_PID, two_cpus[-1], os.WEXITED | os.WNOWAIT)
            return read(stream)

        sent = []
        send = construction.LayerHelper.send
        monkeypatch.setattr(bounds, "read_coloring", read_after_the_death)
        monkeypatch.setattr(construction.LayerHelper, "send", lambda self, data: sent.append(send(self, data)))
        assert self.run(capsys, tmp_path / "two", coloring) == expect
        assert sent == [False] and len(two_cpus) == 1
        assert_no_child()


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
        """The layer that runs out, r = 5, is below the largest one; this
        process raises for it, whoever claimed it first."""
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
how, parent, search = sys.argv[1], os.getpid(), bounds.find_good_assignment

def failing(*args):
    if os.getpid() != parent:
        if how == "raise":
            raise RuntimeError("the helper fails")
        if how == "exit":
            sys.exit(3)
        if how == "interrupt":
            raise KeyboardInterrupt
    return search(*args)

bounds.find_good_assignment = failing
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


# Run in a fresh interpreter: the suite gets a coloring file whose second
# read kills the process.  The fork prints the helper's pid first, so the
# helper forks before the read, and it holds the script's stdout.
KILL_SCRIPT = """
import io, os
from qturan import bounds, construction

construction.HELPER_MIN_N = 4
os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork

def printing_fork():
    pid = fork()
    if pid:
        os.write(1, b"%d\\n" % pid)
    return pid

class KilledInTheRead(io.StringIO):
    def read(self, size=-1):
        if self.tell():
            os.kill(os.getpid(), 9)
        return super().read(size)

os.fork = printing_fork
n = 10
edges = ((base, j) for base in range(1 << n) for j in range(n) if not base >> j & 1)
text = f"# qn-coloring n={n}\\n" + "".join(f"{base:x} {j} {j % 3}\\n" for base, j in edges)
bounds.density_report_suite(n, 0, certificate=KilledInTheRead(text))
"""


def run_killed(script, tmp_path, *args):
    """Run script, which prints the helper's pid first, in a fresh
    interpreter.  run returns only once every process that holds the
    script's stdout, the helper included, has ended."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        return subprocess.run(
            [sys.executable, "-c", script, *args], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60
        )
    except subprocess.TimeoutExpired as exc:
        os.kill(int(exc.stdout), 9)  # the helper that outlived its parent
        pytest.fail("the helper outlived its parent")


def test_a_parent_killed_in_the_read_leaves_no_helper(tmp_path):
    """The helper waits for the colors after its first search.  When its
    parent is killed while it reads the certificate, the helper reads the
    end of its inbox and exits."""
    proc = run_killed(KILL_SCRIPT, tmp_path)
    assert proc.returncode == -9 and proc.stderr == ""
    assert proc.stdout.strip().isdigit()


# Run in a fresh interpreter: the parent kills itself in its first search,
# after its first claim.  With argv[1] "searching", it waits until the
# helper has started the search of its first layer, which the helper makes
# last 0.3 s; with "starting", the helper starts 0.3 s late, after the
# kill.  The helper logs each layer it searches to the file claims;
# on_layer writes layer files into out.
PARENT_KILL_SCRIPT = """
import gc, os, sys, time
from pathlib import Path
from qturan import bounds, cli, construction

construction.HELPER_MIN_N = 4
os.sched_getaffinity = lambda pid: {0, 1}
when, parent, search, freeze = sys.argv[1], os.getpid(), bounds.find_good_assignment, gc.freeze
claims = Path("claims")

def printing_fork():
    pid = fork()
    if pid:
        os.write(1, b"%d\\n" % pid)
    return pid

def late_freeze():
    if when == "starting":
        time.sleep(0.3)
    freeze()

def helper_search(n, r, *args):
    with claims.open("a") as log:
        log.write(f"{r}\\n")
    if when == "searching":
        time.sleep(0.3)
    return search(n, r, *args)

def parent_search(*args):
    deadline = time.monotonic() + 30
    while when == "searching" and not claims.exists() and time.monotonic() < deadline:
        time.sleep(0.001)
    os.kill(parent, 9)

fork, os.fork, gc.freeze = os.fork, printing_fork, late_freeze
bounds.find_good_assignment = lambda *args: (parent_search if os.getpid() == parent else helper_search)(*args)
bounds.density_report_suite(10, 0, on_layer=cli._LayerWriter(Path("out"), 10))
"""


@pytest.mark.parametrize("when", ["searching", "starting"])
def test_a_parent_killed_after_its_claim_leaves_no_helper(when, tmp_path):
    """The parent is SIGKILLed after its first claim, while the helper
    searches its first layer or before the helper starts.  The helper
    checks its parent before its first search, each claim and each
    on_layer call, so it searches no layer after the kill and writes no
    layer file, and it exits."""
    proc = run_killed(PARENT_KILL_SCRIPT, tmp_path, when)
    assert proc.returncode == -9 and proc.stderr == ""
    assert proc.stdout.strip().isdigit()
    claims = (tmp_path / "claims").read_text().split() if (tmp_path / "claims").exists() else []
    assert len(claims) == (when == "searching")
    assert not (tmp_path / "out").exists()


def test_the_helper_holds_one_layer_at_a_time():
    """The helper's loop over every layer of n = 14 with the suite's take,
    given the first layer and claiming the rest from a queue, writing its
    records to /dev/null, peaks within 1.25 times the same loop over its
    first layer alone, r = 7, the largest.  Both peaked at 154 KB; a loop
    that kept each layer until the next one replaced it peaked at 1.5
    times its first layer.  A class step's search maps, which go before
    the step returns, would hide that."""
    n = 14
    take = suite_take(n, 0)[0]
    sink = os.open(os.devnull, os.O_WRONLY)

    def run(layers):
        queue, write = os.pipe()
        os.write(write, bytes(layers[1:]))
        os.close(write)
        try:
            return traced_peak(lambda: _serve(queue, sink, os.getppid(), layers[0], take))
        finally:
            os.close(queue)

    try:
        run(queue_order(n))
        one = run(queue_order(n)[:1])
        whole = run(queue_order(n))
    finally:
        os.close(sink)
    assert whole < 1.25 * one, (whole, one)


# Run in a fresh interpreter: the process limits its address space to its
# size once it has imported qturan.cli, plus 10 MB, which pipeline --n 20
# --coloring-rule rank outgrows within a few layers, in either process.
RLIMIT_SCRIPT = """
import resource, sys
from qturan import cli

with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) << 10
resource.setrlimit(resource.RLIMIT_AS, (size + (10 << 20), resource.RLIM_INFINITY))
sys.exit(cli.main(["pipeline", "--n", "20", "--seed", "0", "--coloring-rule", "rank", "--out", "out"]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmSize from /proc")
def test_a_call_out_of_memory(tmp_path):
    """A call that runs out of address space exits 3 with the one error
    line and empty stdout, and leaves the files of a prefix of the odd
    layers: none of a layer above the one that failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", RLIMIT_SCRIPT], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")
    out = tmp_path / "out"
    names = sorted(p.name for p in out.iterdir()) if out.exists() else []
    layers = sorted({int(name.rsplit("_r", 1)[1][:-4]) for name in names})
    assert layers == list(range(1, 2 * len(layers), 2)), names
    assert len(layers) < 10
