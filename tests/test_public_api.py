import ast
import importlib.util
from pathlib import Path

import slidingbloom

# test helpers that live in tests/, the validation drivers that live in
# scripts/, and names that only tests use (their modules keep them)
REMOVED = ("WindowOracle", "Region", "census_false_positives", "FpCensus",
           "stress_label_safety", "PassReport", "LabelReuseViolation", "never_stale",
           "measure_fpr", "space_report", "FprReport", "SpaceVsBounds",
           "lower_bound_bits", "upper_bound_bits",
           "is_prime", "next_prime", "new_hash", "CostReport")


def test_public_names_resolve_and_test_helpers_stay_out():
    for name in slidingbloom.__all__:
        assert getattr(slidingbloom, name) is not None, name
    for name in REMOVED:
        assert not hasattr(slidingbloom, name), name
    assert importlib.util.find_spec("slidingbloom.oracle") is None
    assert importlib.util.find_spec("slidingbloom.harness") is None
    # a test-only count and the nested space report left the dictionary
    assert not hasattr(slidingbloom.Dictionary, "tag_count")
    assert not hasattr(slidingbloom.dictionary, "DictSpaceReport")


PACKAGE = Path(slidingbloom.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def package_imports() -> dict:
    """module -> the package modules it imports, at any level of its
    code ("__init__" for the package itself)."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:  # from . import name: a module, or a name of __init__
                    targets.update(alias.name if (PACKAGE / f"{alias.name}.py").exists()
                                   else "__init__" for alias in node.names)
        graph[path.stem] = targets
    return graph


def test_package_imports_are_acyclic():
    graph = package_imports()
    assert "snapshot" not in graph["filter"]
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module not in done:
            path.append(module)
            for target in sorted(graph[module]):
                visit(target)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


def test_readme_library_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    block = block[:block.index("```")]
    monkeypatch.chdir(tmp_path)
    scope = {"x": 12345}
    exec(compile(block, "README.md (Library)", "exec"), scope)
    assert scope["g"].query(12345)
