"""Options: every defaulted parameter in `src/supervisord`, and every field of
its config dataclasses, is set by some caller.

A parameter with a default that no program code ever passes, or a config
field that no program code sets, is an option only tests set. It is either
made a constant or listed in `ALLOWED` with a reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "supervisord"
CALLER_DIRS = ("src", "perfbench", "demos", "scripts")
# Dataclasses whose every field is an option of a run.
CONFIG_CLASSES = ("EngineConfig", "WorkloadSpec")

# "name(param)" -> why the parameter stays although no program code passes it.
ALLOWED = {
    "main(argv)": "the console entry point passes none; tests pass the command line",
    "HashingEmbedder(seed)": "its salt is hashed into every gram, so vectors stay bit-identical",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")) \
                == "dataclass":
            return True
    return False


def defaulted_parameters():
    """(file:line, "name(param)", callee name, positional index or None) per option."""
    options = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {}  # id(function) -> its class
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    methods[id(item)] = node
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(fn))
            if fn.name.startswith("__") and fn.name.endswith("__"):
                if fn.name != "__init__" or cls is None or _is_dataclass(cls):
                    continue
            name = cls.name if fn.name == "__init__" else fn.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0  # self or cls
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            for index, arg in enumerate(positional):
                if index >= first_default:
                    where = f"{path.relative_to(ROOT)}:{fn.lineno}"
                    options.append((where, f"{name}({arg.arg})", name, index - skip))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    where = f"{path.relative_to(ROOT)}:{fn.lineno}"
                    options.append((where, f"{name}({arg.arg})", name, None))
    return options


def config_fields():
    """(file:line, "Class.field", class name, field index) per field of CONFIG_CLASSES."""
    options = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES):
                continue
            annotated = [item for item in cls.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for index, item in enumerate(annotated):
                where = f"{path.relative_to(ROOT)}:{item.lineno}"
                options.append((where, f"{cls.name}.{item.target.id}", cls.name, index))
    return options


def class_aliases() -> dict[str, str]:
    """Module-level `Alias = ConfigClass` names in the package -> the class."""
    aliases = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                    and node.value.id in CONFIG_CLASSES):
                aliases.update((t.id, node.value.id) for t in node.targets
                               if isinstance(t, ast.Name))
    return aliases


def passed_parameters() -> set[tuple[str, object]]:
    """(callee name, keyword) and (callee name, positional index) of every call,
    (callee name, "**") of a call that unpacks keywords, and ("=", attribute)
    of every assignment to an attribute of an object other than `self`.

    `cls(...)` in a class body is a call of that class; a call of an alias of
    a config class is a call of the class."""
    aliases = class_aliases()
    passed = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}  # id(node) -> name of the innermost class around it
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    owner.update((id(node), cls.name) for node in ast.walk(cls))
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    passed.update(("=", t.attr) for t in targets
                                  if isinstance(t, ast.Attribute)
                                  and not (isinstance(t.value, ast.Name) and t.value.id == "self"))
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == "cls":
                    callee = owner.get(id(node), callee)
                callee = aliases.get(callee, callee)
                for index, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.add((callee, index))
                passed.update((callee, kw.arg or "**") for kw in node.keywords)
    return passed


def is_passed(option, passed) -> bool:
    _, label, callee, index = option
    param = label[label.index("(") + 1:-1]
    return (callee, param) in passed or (index is not None and (callee, index) in passed)


def is_set(option, passed) -> bool:
    """Whether program code constructs the class with the field (by keyword,
    by position or by unpacking keywords), `replace`s it, or assigns it."""
    _, label, cls, index = option
    name = label.split(".", 1)[1]
    return bool({(cls, name), (cls, index), (cls, "**"), ("replace", name), ("=", name)} & passed)


def test_every_option_is_passed_by_program_code():
    passed = passed_parameters()
    options = defaulted_parameters()
    assert options
    unused = [f"{where} {label}" for where, label, *rest in options
              if label not in ALLOWED and not is_passed((where, label, *rest), passed)]
    assert unused == []


def test_allowlist_is_not_stale():
    passed = passed_parameters()
    parameters = {option[1]: option for option in defaulted_parameters()}
    fields = {option[1]: option for option in config_fields()}
    stale = [label for label in ALLOWED
             if not (label in parameters and not is_passed(parameters[label], passed)
                     or label in fields and not is_set(fields[label], passed))]
    assert stale == []


def test_every_config_field_is_set_by_program_code():
    passed = passed_parameters()
    options = config_fields()
    assert {cls for _, _, cls, _ in options} == set(CONFIG_CLASSES)
    unset = [f"{where} {label}" for where, label, *rest in options
             if label not in ALLOWED and not is_set((where, label, *rest), passed)]
    assert unset == []

