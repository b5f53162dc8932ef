"""Every public top-level function and class of ``kseq``, and every public
method or property of those classes, has a caller outside the tests: a
``kseq`` module, a script under ``scripts/``, or the benchmark under
``perfbench/``.  Library code that only its own unit test calls is either
promoted into a check an artifact reports, or deleted.  So is a defaulted
parameter that only the tests set: one value in use is a constant."""
import ast
from pathlib import Path

from kseq import verify

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kseq"

# public names kept without a caller yet, each with the reason
ALLOWLIST = {}
# names called from outside the Python sources (pyproject's console script)
ENTRY_POINTS = {("cli", "main")}
# "module.function(parameter)" defaults kept though only the tests set them,
# each with the reason
PARAMETER_ALLOWLIST = {}


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


def _called(func):
    """The name a call reaches: f(...) or x.f(...) both call f."""
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _set_parameters() -> set:
    """(function name, parameter) of each parameter some caller outside the
    tests sets, by keyword or as (name, position) by position, counting
    after self; a call ``_usage_checked(fn, ...)`` is a call of fn, and
    ``verify.check_table`` sets the keys of its kwargs."""
    found = set()
    for tree in _caller_sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _called(node.func), node.args
            if name == "_usage_checked" and args:
                name, args = _called(args[0]), args[1:]
            found.update((name, position) for position in range(len(args)))
            found.update((name, kw.arg) for kw in node.keywords)
    for check, quick, full in verify.check_table(50, 1):
        found.update((check.__name__, key) for key in {**(quick or {}), **full})
    return found


def _defaulted_parameters():
    """(module.function, name, parameter, position) of each parameter with a
    default of a public function or method; position counts after self and
    is None for a keyword-only parameter."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions = [(f"{node.name}.", item) for item in node.body]
            else:
                functions = [("", node)]
            for owner, fn in functions:
                if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or fn.name.startswith("_")):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                skip = 0 if static or not owner else 1
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                qualified = f"{path.stem}.{owner}{fn.name}"
                for index, arg in enumerate(positional[first:], first):
                    yield qualified, fn.name, arg.arg, index - skip
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield qualified, fn.name, arg.arg, None


def test_every_defaulted_parameter_is_set_outside_the_tests():
    # a parameter no caller varies is a literal in the body
    found = _set_parameters()
    unset = sorted(
        f"{qualified}({param})"
        for qualified, name, param, position in _defaulted_parameters()
        if (name, param) not in found and (name, position) not in found
    )
    assert unset == sorted(PARAMETER_ALLOWLIST), (
        f"defaulted parameters only the tests set: {unset}; "
        f"allowlisted: {PARAMETER_ALLOWLIST}"
    )
