"""The package makes threads in one runner and starts processes in one other.

In-process parallel work runs on `diffcore.run_parts`, the one thread runner,
which `trainer.train`'s micro-batches and `model.forward`'s chunks share
through `diffcore.splitting`.  Processes are started only by
`trainer._run_cells`, which runs compare's cells.  A second runner would bring
back what the one runner replaced: a pool per call, and the rules for errors,
the caller's context and joining kept in two places.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "musedec"

THREAD = {"Thread", "Timer", "ThreadPoolExecutor"}
PROCESS = {
    "Process", "Pool", "ProcessPoolExecutor", "fork", "forkpty", "Popen", "popen", "system",
    "posix_spawn", "posix_spawnp", "spawnl", "spawnle", "spawnlp", "spawnv", "spawnve", "spawnvp",
}
# the one place each kind may be made: the top-level function, as `module.function`
RUNNERS = {"thread": "diffcore.run_parts", "process": "trainer._run_cells"}


def _name(node, aliases):
    """The last name of a called or subclassed expression, through `import ... as` aliases."""
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
    return aliases.get(name, name)


def _kind(node, aliases):
    name = _name(node, aliases)
    if name in THREAD:
        return "thread"
    if name in PROCESS or (isinstance(node, ast.Attribute) and _name(node.value, aliases) == "subprocess"):
        return "process"
    return None


def made(source: str, module: str) -> list:
    """(where, kind, line) of each thread or process that `source` makes or subclasses, in line order.

    `where` is `module.name` of the top-level definition it is in, or `module`
    at the top level.
    """
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    found = []
    for top in tree.body:
        where = f"{module}.{top.name}" if hasattr(top, "name") else module
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callees = [node.func]
            elif isinstance(node, ast.ClassDef):
                callees = node.bases
            else:
                continue
            found += [(where, kind, node.lineno) for kind in (_kind(c, aliases) for c in callees) if kind]
    return sorted(found, key=lambda hit: hit[2])


def _package():
    return [hit for path in sorted(PACKAGE.glob("*.py")) for hit in made(path.read_text(), path.stem)]


def test_threads_and_processes_are_made_only_by_their_runners():
    stray = [hit for hit in _package() if RUNNERS[hit[1]] != hit[0]]
    assert stray == [], f"made outside {RUNNERS}: {stray}"


def test_each_runner_is_seen():
    # the finder still sees the runners themselves, so the test above cannot pass for having stopped looking
    assert {(where, kind) for where, kind, _ in _package()} == {(where, kind) for kind, where in RUNNERS.items()}


def test_aliases_subclasses_and_module_calls_are_seen():
    source = """
import subprocess
from concurrent.futures import ThreadPoolExecutor as Executor
import threading

class Worker(threading.Thread):
    pass

def run():
    with Executor(2) as pool:
        pool.submit(print)
    subprocess.run(["true"])
"""
    assert made(source, "m") == [("m.Worker", "thread", 6), ("m.run", "thread", 10), ("m.run", "process", 12)]
