import ast
import importlib
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "ssadvae"


@pytest.mark.parametrize("module", ["ssadvae", "ssadvae.gradcore"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    ns = {}
    exec("from ssadvae import *", ns)
    import ssadvae
    assert set(ssadvae.__all__) <= set(ns)


def test_readme_library_use_runs_as_written(capsys):
    # the code block under "## Library use", unchanged: it trains a K=5 dp
    # ensemble and prints its test AUROC
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert float(capsys.readouterr().out) > 0.9


def _names(path):
    """Every name, attribute (bare and as ``module.attr``) and imported name
    in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name
                yield f"{node.module}.{alias.name}"


def test_only_fanout_decides_how_work_is_split():
    # the fork, the CPU count, the live-thread rule and the grouping are
    # named in fanout.py and nowhere else in the package
    banned = {"os.fork", "os.sched_getaffinity", "threading.active_count",
              "_usable_cpus", "_member_groups"}
    found = {p.name: sorted(banned & set(_names(p))) for p in SRC.glob("*.py")}
    assert found.pop("fanout.py") == sorted(banned)
    assert {name: hit for name, hit in found.items() if hit} == {}


def test_vbounds_bounds_what_it_is_handed():
    # models alone encodes, draws the noise and freezes the decoder: vbounds
    # names none of these, and only models.py calls .detached()
    made_in_models = {"encode", "decode", "detached", "standard_normal",
                      "philox_rng"}
    assert sorted(made_in_models & set(_names(SRC / "vbounds.py"))) == []

    def calls_detached(path):
        return any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "detached"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))

    assert [p.name for p in sorted(SRC.glob("*.py")) if calls_detached(p)] == [
        "models.py"]


def test_only_host_imports_ctypes():
    # native calls have one home: host.py
    def imports_ctypes(path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "ctypes" for m in modules):
                return True
        return False

    assert [p.name for p in sorted(SRC.glob("*.py")) if imports_ctypes(p)] == [
        "host.py"]


def test_the_package_starts_no_thread():
    # fanout's fork is the package's only concurrency: no module imports
    # concurrent.futures or names threading.Thread
    def thread_uses(path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if node.module == "threading":
                    modules += [f"threading.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                modules = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            yield from (m for m in modules if m.split(".")[0] == "concurrent"
                        or m == "threading.Thread")

    found = {p.name: sorted(set(thread_uses(p))) for p in SRC.glob("*.py")}
    assert {name: hit for name, hit in found.items() if hit} == {}


def test_a_model_is_weights_and_seeds_and_defaults_have_one_home():
    # the objective is the training config's: the model type holds none of
    # it, and the CLI repeats none of TrainConfig's defaults
    import dataclasses

    from ssadvae import cli, models, trainer

    assert [f.name for f in dataclasses.fields(models.SsadModel)] == [
        "encoder", "decoder", "seeds", "flat"]
    train_keys = {f.name for f in dataclasses.fields(trainer.TrainConfig)}
    assert set(cli._DEFAULTS) & train_keys == set()
