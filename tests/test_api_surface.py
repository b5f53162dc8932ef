"""Every public top-level function and class of ``kseq``, and every public
method or property of those classes, has a caller outside the tests: a
``kseq`` module, a script under ``scripts/``, or the benchmark under
``perfbench/``.  Library code that only its own unit test calls is either
promoted into a check an artifact reports, or deleted."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kseq"

# public names kept without a caller yet, each with the reason
ALLOWLIST = {}
# names called from outside the Python sources (pyproject's console script)
ENTRY_POINTS = {("cli", "main")}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _public_definitions():
    """(module, name) of every public top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _public_methods():
    """(class, name) of every public method or property of a public class;
    dunders start with an underscore, so they are exempt."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield node.name, item.name


def _caller_sources():
    # __init__ only re-exports, which is not a use
    sources = [path for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    for folder in ("scripts", "perfbench"):
        sources += (ROOT / folder).glob("*.py")
    return [_tree(path) for path in sources]


def test_every_public_name_has_a_caller_outside_the_tests():
    # a definition is not a Name node
    used = set().union(*(_referenced(tree) for tree in _caller_sources()))

    unused = sorted(
        name for module, name in _public_definitions()
        if name not in used and (module, name) not in ENTRY_POINTS
    )
    assert unused == sorted(ALLOWLIST), (
        f"public names with no caller outside the tests: {unused}; "
        f"allowlisted: {ALLOWLIST}"
    )


def test_every_public_method_has_a_caller_outside_the_tests():
    # a method is reached as an attribute, x.name or Class.name
    used = {node.attr for tree in _caller_sources() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unused = sorted(f"{cls}.{name}" for cls, name in _public_methods() if name not in used)
    assert unused == [], f"public methods with no caller outside the tests: {unused}"
