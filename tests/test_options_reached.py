"""Options: every defaulted parameter in `src/supervisord` is passed by some caller.

A parameter with a default that no program code ever passes is an option only
tests set. It is either made a constant or listed in `ALLOWED` with a reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "supervisord"
CALLER_DIRS = ("src", "perfbench", "demos", "scripts")

# "name(param)" -> why the parameter stays although no program code passes it.
ALLOWED = {
    "main(argv)": "the console entry point passes none; tests pass the command line",
    "maybe_compress(compressor)": "the seam for a summarizing model; tests inject failing ones",
    "serialize_state(max_inline_bytes)": "tests lower the inline limit to reach the sidecar path",
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


def passed_parameters() -> set[tuple[str, object]]:
    """(callee name, keyword) and (callee name, positional index) of every call."""
    passed = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                for index, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        break
                    passed.add((callee, index))
                passed.update((callee, kw.arg) for kw in call.keywords if kw.arg)
    return passed


def is_passed(option, passed) -> bool:
    _, label, callee, index = option
    param = label[label.index("(") + 1:-1]
    return (callee, param) in passed or (index is not None and (callee, index) in passed)


def test_every_option_is_passed_by_program_code():
    passed = passed_parameters()
    options = defaulted_parameters()
    assert options
    unused = [f"{where} {label}" for where, label, *rest in options
              if label not in ALLOWED and not is_passed((where, label, *rest), passed)]
    assert unused == []


def test_allowlist_is_not_stale():
    passed = passed_parameters()
    options = {option[1]: option for option in defaulted_parameters()}
    stale = [label for label in ALLOWED
             if label not in options or is_passed(options[label], passed)]
    assert stale == []
