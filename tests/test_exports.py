import importlib
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


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
