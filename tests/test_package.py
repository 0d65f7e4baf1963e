"""The package's public surface, and the names the benchmark harness wraps."""

from __future__ import annotations

import ast
import gc
import importlib
import math
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import collab_avg
import collab_avg.__main__
import collab_avg.cli
import collab_avg.distributions
import collab_avg.montecarlo
from collab_avg.montecarlo import Verdict
from conftest import command_flags

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "perfbench" / "launch.py"


def test_every_exported_name_resolves_once():
    names = collab_avg.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(collab_avg, name)] == []


def test_every_name_the_benchmark_wraps_resolves():
    # perfbench/launch.py wraps each boundary at the name its caller looks
    # up; one renamed away reads "?" in the benchmark's output rather than
    # failing. Its source is run here without importing it, so nothing is
    # written next to it.
    launch = {"__name__": "perfbench_launch"}
    exec(compile(LAUNCH.read_text(encoding="utf-8"), str(LAUNCH), "exec"), launch)
    boundaries = launch["BOUNDARIES"]
    for _, module, _, _ in boundaries:
        importlib.import_module(module)
    names = [(module, path) for _, module, path, _ in boundaries] + [("collab_avg.cli", "load_run_config")]
    assert [f"{module}.{path}" for module, path in names if launch["_resolve"](module, path) is None] == []
    commands = collab_avg.cli._COMMANDS
    assert isinstance(commands, dict) and commands
    assert all(callable(run) and isinstance(needs_scenario, bool) for run, needs_scenario in commands.values())


def test_readme_synopsis_lists_each_commands_flags():
    # The CLI section's first code block has one synopsis line per command,
    # so a flag cannot outlive its documentation, nor be added without it.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    synopses = [line.split() for line in block.splitlines() if line.startswith("collab-avg ")]
    documented = {words[1]: {word.strip("[]") for word in words[2:] if word.strip("[").startswith("--")} for words in synopses}
    assert len(synopses) == len(documented)
    assert documented == command_flags()


def test_every_verdict_has_an_exit_code_and_its_doc_line():
    # A new verdict cannot land without its exit code, nor an exit code
    # without the sentence that lists them in README and in cli's docstring.
    cli = collab_avg.cli
    assert set(cli._VERDICT_EXIT) == set(Verdict)
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert codes == {0, 1, 2, 130}
    assert set(cli._VERDICT_EXIT.values()) <= codes
    for text in ((ROOT / "README.md").read_text(encoding="utf-8"), cli.__doc__):
        sentence = " ".join(text.split()).split("Exit codes: ", 1)[1]
        sentence = re.sub(r"\([^)]*\)", "", sentence.split(". ", 1)[0])
        assert {int(item.split()[0]) for item in sentence.split(",")} == codes


def test_readme_quickstart_runs_as_written():
    # The "Library quickstart" block is the library's documented API: it
    # makes a curve and validates it, so a changed signature fails here.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {"__name__": "readme_quickstart"}
    exec(compile(block, "README.md", "exec"), namespace)
    assert math.isclose(namespace["profile"].alpha_star, 6 / 7)
    assert namespace["report"].verdict is Verdict.PASS


def test_every_module_name_the_readme_cites_resolves():
    # A backticked `module.name` whose module is one of the package's, such
    # as `montecarlo._draw_plan`, must name code that exists, so a deleted
    # function cannot stay documented.
    modules = {info.name for info in pkgutil.iter_modules(collab_avg.__path__)}
    cited = re.findall(r"`(\w+)\.([\w.]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    names = [(module, path) for module, path in cited if module in modules]
    assert len(names) >= 13

    def resolves(module: str, path: str) -> bool:
        target = importlib.import_module(f"collab_avg.{module}")
        for attribute in path.split("."):
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True

    assert [f"{module}.{path}" for module, path in names if not resolves(module, path)] == []


def test_the_sampler_names_no_family():
    # The draw plan groups sides by their class's `_kernel` and loads what
    # each kernel loads, and leaves a side undrawn by its variance, so a new
    # family needs no line in the sampler.
    source = Path(collab_avg.montecarlo.__file__).read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    families, pending = set(), [collab_avg.distributions.Distribution]
    while pending:
        subclasses = pending.pop().__subclasses__()
        families.update(cls.__name__ for cls in subclasses)
        pending += subclasses
    assert {"Normal", "Exponential", "PointMass"} <= families
    assert names & families == set()


def test_only_main_and_the_parser_write_error_lines():
    # A command refuses an input by raising; `main` alone turns that into
    # "error: ..." and exit 1, and `_Parser.error` does so for usage errors.
    tree = ast.parse(Path(collab_avg.cli.__file__).read_text(encoding="utf-8"))
    writers = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        texts = [node.value] if isinstance(node, ast.Constant) else []
        if isinstance(node, ast.JoinedStr) and node.values and isinstance(node.values[0], ast.Constant):
            texts = [node.values[0].value]
        if any(isinstance(text, str) and text.startswith("error:") for text in texts):
            writers.add(scope)
        for child in ast.iter_child_nodes(node):
            if not isinstance(node, ast.JoinedStr):
                visit(child, scope)

    visit(tree, "")
    assert writers == {"main", "_Parser.error"}


def test_the_installed_script_runs_the_one_entry():
    # `collab-avg` calls `__main__.run`, as `python -m collab_avg` does, so
    # neither launcher skips the freezes around `main`.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["collab-avg"].partition(":")
    assert getattr(importlib.import_module(module), name) is collab_avg.__main__.run


def test_run_freezes_around_main_and_is_what_the_module_runs(tmp_path, monkeypatch):
    calls = []

    def main() -> int:
        calls.append("main")
        return 7

    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(collab_avg.__main__, "main", main)
    assert collab_avg.__main__.run() == 7
    assert calls == ["freeze", "main", "freeze"]

    path = tmp_path / "scenario.yaml"
    path.write_text("x: {family: normal, params: {mu: 0, sd: 1}}\nn_x: 5\ny: {constant: 0.5}\ntrials: 200\n")
    argv = ["validate", "--scenario", str(path)]
    script = "from collab_avg.__main__ import run; raise SystemExit(run())"
    by_run, by_module = (
        subprocess.run([sys.executable, *launcher, *argv], capture_output=True, timeout=120)
        for launcher in (["-c", script], ["-m", "collab_avg"])
    )
    assert (by_run.returncode, by_run.stdout, by_run.stderr) == (by_module.returncode, by_module.stdout, by_module.stderr)
    assert by_run.stdout.endswith(b"overall: PASS\n")


def test_only_emit_touches_stdout():
    # Every byte a command sends to stdout goes through `_emit`, so one
    # function decides how it is encoded: no other code names `sys.stdout`
    # or calls `print` without a `file`.
    tree = ast.parse(Path(collab_avg.cli.__file__).read_text(encoding="utf-8"))
    writers = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        if isinstance(node, ast.Attribute) and node.attr == "stdout":
            writers.add(scope)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            if "file" not in {keyword.arg for keyword in node.keywords}:
                writers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    assert writers == {"_emit"}
