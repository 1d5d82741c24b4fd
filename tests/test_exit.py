"""How a call from the command line ends.

python -m qturan.cli and the qturan script both run cli.run: main, then
the exit hooks, a flush of stdout and stderr, and os._exit, which skips
the interpreter's teardown.  No caller can tell: each call leaves the
exit code, stdout, stderr and --out files of cli.main run in process,
with PYTHONUNBUFFERED set or unset.  Where the fast end could show,
the call ends by the interpreter's normal exit, as `sys.exit(cli.main())`
did before: main raises (--help, a usage error), a flush fails (stdout a
pipe with no reader), a thread other than the main one is alive, or
python -i asks for a prompt.  No process the call started outlives it.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

from qturan import cli, construction, cube

from helpers import format_coloring, format_edge_list
from test_memory import mod3_certificate
from test_python_floor import ROOT

# The entry point as it was before cli.run: the interpreter's normal exit.
NORMAL_EXIT = ["-c", "import sys\nfrom qturan import cli\nsys.exit(cli.main())"]


def environ(unbuffered, **extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def python(args, cwd, unbuffered=False, stdout=subprocess.PIPE, env=None):
    """The exit code, stdout and stderr of a fresh interpreter run on args."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=environ(unbuffered, **(env or {})),
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files the calls read: a layer file of Q_8, an edge list with no
    C6 and one that is a C6, and the mod-3 coloring of Q_8."""
    work = tmp_path_factory.mktemp("inputs")
    g = construction.build_layer_graph(construction.sample_assignment(8, 4, 0))
    (work / "layer.txt").write_text(cube.format_layer_graph(g))
    (work / "path.txt").write_text(format_edge_list(4, [(0, 1), (1, 3), (3, 7), (7, 15)]))
    hexagon = [0, 1, 3, 7, 6, 4]
    (work / "hexagon.txt").write_text(format_edge_list(3, [tuple(sorted(e)) for e in zip(hexagon, hexagon[1:] + [0])]))
    (work / "coloring.txt").write_text(format_coloring(mod3_certificate(8)))
    return {p.name: p.read_bytes() for p in work.iterdir()}


# (argv, QT_CAPACITY or None, the exit code)
CALLS = {
    "construct": (["construct", "--n", "8", "--r", "3", "--seed", "1", "--out", "out"], None, 0),
    "verify layer": (["verify", "layer.txt", "--target", "c6"], None, 0),
    "verify free edges": (["verify", "path.txt", "--target", "c6minus"], None, 0),
    "verify witness": (["verify", "hexagon.txt", "--target", "c6"], None, 1),
    "verify workers": (["verify", "layer.txt", "--target", "c10", "--workers", "2"], None, 1),
    "pipeline": (["pipeline", "--n", "8", "--seed", "2", "--out", "out"], None, 0),
    "pipeline coloring": (["pipeline", "--n", "8", "--coloring", "coloring.txt", "--out", "out"], None, 0),
    "pipeline rank": (["pipeline", "--n", "16", "--coloring-rule", "rank", "--out", "out"], None, 0),
    "stats": (["stats", "--r", "2:3", "--trials", "300"], None, 0),
    "bad trials": (["construct", "--n", "6", "--r", "3", "--trials", "0"], None, 2),
    "capacity": (["pipeline", "--n", "8", "--out", "out"], "6", 3),
    "exhausted": (["pipeline", "--n", "12", "--trials", "1", "--format", "text", "--out", "out"], None, 4),
}


def in_process(argv, capacity, cwd, monkeypatch, capsys):
    monkeypatch.chdir(cwd)
    if capacity is not None:
        monkeypatch.setenv(cube.CAPACITY_ENV, capacity)
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", CALLS)
def test_the_module_call_is_main_in_process(inputs, name, unbuffered, tmp_path, monkeypatch, capsys):
    argv, capacity, code = CALLS[name]
    for side in ("fresh", "main"):
        (tmp_path / side).mkdir()
        for file, data in inputs.items():
            (tmp_path / side / file).write_bytes(data)
    env = {} if capacity is None else {cube.CAPACITY_ENV: capacity}
    fresh = python(["-m", "qturan.cli", *argv], tmp_path / "fresh", unbuffered, env=env)
    expect = in_process(argv, capacity, tmp_path / "main", monkeypatch, capsys)
    assert fresh == expect
    assert fresh[0] == code
    assert files(tmp_path / "fresh") == files(tmp_path / "main")


def closed_pipe():
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize(
    "unbuffered, code, err",
    [
        (
            False,
            120,
            [b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'", b"BrokenPipeError: [Errno 32] Broken pipe"],
        ),
        (True, 2, [b"error: [Errno 32] Broken pipe"]),
    ],
    ids=["buffered", "unbuffered"],
)
def test_a_closed_stdout_ends_as_the_normal_exit(inputs, unbuffered, code, err, tmp_path):
    """Buffered, the answer meets the closed pipe in the flush at the end,
    and the interpreter reports it once, with no traceback; unbuffered,
    main's write fails and main reports it."""
    (tmp_path / "layer.txt").write_bytes(inputs["layer.txt"])
    argv = ["verify", "layer.txt", "--target", "c10"]
    ends = []
    for entry in (["-m", "qturan.cli"], NORMAL_EXIT):
        fd = closed_pipe()
        try:
            ends.append(python([*entry, *argv], tmp_path, unbuffered, stdout=fd))
        finally:
            os.close(fd)
    assert ends[0] == ends[1]
    assert ends[0][0] == code
    lines = ends[0][2].splitlines()
    assert len(lines) == len(err) and all(line.startswith(start) for line, start in zip(lines, err))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code", [(["--help"], 0), (["verify", "--help"], 0), (["verify"], 2), (["stats", "--r"], 2)]
)
def test_help_and_usage_errors_keep_their_end(argv, code, unbuffered, tmp_path):
    fresh = python(["-m", "qturan.cli", *argv], tmp_path, unbuffered)
    assert fresh == python([*NORMAL_EXIT, *argv], tmp_path, unbuffered)
    assert fresh[0] == code
    assert (fresh[1] if code == 0 else fresh[2]).startswith(b"usage: qturan")


# Run in a fresh interpreter on two CPUs as `argv[1] pipeline ...`: the
# suite forks its helper and writes its pid to stderr.  With "failing",
# each of the helper's layer searches raises, so the parent takes every
# layer but the helper's first.
SESSION_SCRIPT = """
import os, sys
from qturan import bounds, cli

os.sched_getaffinity = lambda pid: {0, 1}
parent, fork, search = os.getpid(), os.fork, bounds.find_good_assignment

def printing_fork():
    pid = fork()
    if pid:
        os.write(2, b"helper %d\\n" % pid)
    return pid

def failing(*args):
    if os.getpid() != parent:
        raise RuntimeError("the helper fails")
    return search(*args)

os.fork = printing_fork
if sys.argv.pop(1) == "failing":
    bounds.find_good_assignment = failing
sys.exit(cli.run())
"""


@pytest.mark.parametrize("helper", ["working", "failing"])
def test_no_process_outlives_the_call(helper, tmp_path):
    argv = [sys.executable, "-c", SESSION_SCRIPT, helper, "pipeline", "--n", "16", "--seed", "0", "--out", "out"]
    proc = subprocess.Popen(
        argv, cwd=tmp_path, env=environ(False), stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out.decode().splitlines()[-1].startswith("16,,union,")
    assert re.fullmatch(rb"helper \d+\n", err)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert len(list((tmp_path / "out").iterdir())) == 16


def test_the_script_runs_what_the_module_runs():
    """[project.scripts] names the routine that the __main__ block calls;
    tomllib is 3.11+, so the line is read as text."""
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
    script = re.match(r'qturan = "qturan\.cli:(\w+)"\n', scripts).group(1)
    tree = ast.parse((ROOT / "src" / "qturan" / "cli.py").read_text())
    guard = tree.body[-1]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == [f"sys.exit({script}())"]
    assert script == cli.run.__name__


# Run in a fresh interpreter as `argv[1] stats ...`: an exit hook and the
# teardown of this script's module each add a line to the file "ends".
# argv[1] names what runs before cli.run: nothing, a daemon thread that
# outlives main, or a stdout that is a closed pipe.
HOOK_SCRIPT = """
import atexit, os, sys, threading, time
from qturan import cli

def note(line, open=open):  # bound here: teardown may clear the builtins first
    with open("ends", "a") as stream:
        stream.write(line + "\\n")

class Teardown:
    def __del__(self, note=note):
        note("teardown")

teardown = Teardown()
atexit.register(note, "exit hook")
case = sys.argv.pop(1)
if case == "thread":
    threading.Thread(target=time.sleep, args=(60,), daemon=True).start()
if case == "closed stdout":
    read, write = os.pipe()
    os.close(read)
    os.dup2(write, 1)
sys.exit(cli.run())
"""


@pytest.mark.parametrize(
    "case, code, ends",
    [
        ("plain", 0, "exit hook\n"),
        ("thread", 0, "exit hook\nteardown\n"),
        ("closed stdout", 120, "exit hook\nteardown\n"),
    ],
)
def test_exit_hooks_run_once_and_teardown_only_on_the_normal_exit(case, code, ends, tmp_path):
    """The fast end runs the hook registered before cli.run and skips the
    teardown; each normal end runs both, the hook once."""
    got = python(["-c", HOOK_SCRIPT, case, "stats", "--r", "2", "--trials", "10"], tmp_path)
    assert got[0] == code
    assert (tmp_path / "ends").read_text() == ends


def test_python_i_still_gets_its_prompt(tmp_path):
    """python -i shows the SystemExit, then a prompt that reads stdin
    (empty here) and writes to stderr, as with the normal exit; the
    traceback above it names where each ran sys.exit."""
    argv = ["stats", "--r", "2", "--trials", "10"]
    fresh = python(["-i", "-m", "qturan.cli", *argv], tmp_path)
    normal = python(["-i", *NORMAL_EXIT, *argv], tmp_path)
    assert fresh[:2] == normal[:2]
    assert fresh[1].startswith(b"r,n,trials")
    assert fresh[2].endswith(b"\nSystemExit: 0\n>>> \n") and normal[2].endswith(b"\nSystemExit: 0\n>>> \n")
