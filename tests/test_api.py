"""The public names: the package's and ``fileio``'s ``__all__``, and the README's
library example."""

import re
from pathlib import Path

import pytest

import flowpose
import flowpose.fileio


@pytest.mark.parametrize("module", [flowpose, flowpose.fileio], ids=lambda m: m.__name__)
def test_every_public_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), name


def test_readme_library_use_names_are_public():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.S)
    assert block is not None
    used = set(re.findall(r"\bfp\.(\w+)", block.group(1)))
    assert used and used <= set(flowpose.__all__), used - set(flowpose.__all__)
