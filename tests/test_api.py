"""The public names: the package's and ``fileio``'s ``__all__``, and the README's
library example; and which modules the package's modules depend on."""

import ast
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


def _package_imports(path: Path) -> set:
    """The modules of the package that the module at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flowpose."):
            found.add(node.module.split(".")[1])
    return found


def _reached(module: str) -> set:
    """The package modules that ``module`` imports, directly or through another."""
    src = Path(flowpose.__file__).parent
    graph = {path.stem: _package_imports(path) for path in src.glob("*.py")}
    reached, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(graph.get(name, ()))
    return reached


def test_metrics_and_geometry_do_not_depend_on_the_pose_optimizer():
    # the bilinear sampler and the allocation guard live in geometry, so
    # evaluating a run needs no part of the refiners or their optimizer,
    # directly or through another module
    for module in ("synth", "geometry"):
        assert not _reached(module) & {"pose_refine", "flow_refine", "optim"}, module


def test_the_flow_refiner_depends_on_flows_alone():
    # a target is a FlowField: the refiner reaches neither the raster that
    # draws sketches nor the synthetic scenes, and no target type is left
    assert not _reached("flow_refine") & {"raster", "synth"}
    assert "TargetFlow" not in flowpose.__all__
    src = Path(flowpose.__file__).parent
    assert not any("TargetFlow" in path.read_text(encoding="utf-8") for path in src.glob("*.py"))
