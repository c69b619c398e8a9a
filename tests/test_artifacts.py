"""Atomic artifact writes: a failing writer leaves the earlier file intact,
and every file the package writes goes through write_atomic."""

import ast
import pathlib

import pytest

import pufsim
from pufsim.artifacts import write_atomic, write_container, write_json

_SRC = pathlib.Path(pufsim.__file__).parent


def _assert_failed_write_kept(path, write):
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write()
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_failing_binary_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, b"TEST", "<HI", (1, 3), b"abc")
    # the header and first part reach the temporary file before the second
    # part fails
    _assert_failed_write_kept(
        path, lambda: write_container(path, b"TEST", "<HI", (1, 6), b"abc", object())
    )


def test_failing_text_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"a": 1})
    # keys are sorted, so "a" is written before "z" fails to serialize
    _assert_failed_write_kept(path, lambda: write_json(path, {"a": 2, "z": object()}))


def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("old")
    with write_atomic(path) as fh:
        fh.write("new")
        assert path.read_text() == "old"
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


def _open_mode(call):
    """The mode of an open() call: its text, "r" when absent, None when it
    is not a literal."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) else None


def _is_write(call):
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _open_mode(call)
        return mode is None or bool(set(mode) & set("wax+"))
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes", "tofile"):
            return True
        return getattr(func.value, "id", None) == "np" and func.attr.startswith("save")
    return False


def _writes(tree, match=_is_write):
    """(line, enclosing function, call) of every call that may write a
    file, or that `match` picks."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and match(node):
            found.append((node.lineno, func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_every_file_write_goes_through_write_atomic():
    stray = []
    for path in sorted(_SRC.glob("*.py")):
        for line, func, _ in _writes(ast.parse(path.read_text())):
            if not (path.name == "artifacts.py" and func == "write_atomic"):
                stray.append(f"{path.name}:{line} in {func}")
    assert stray == []


def _json_call(call):
    func = call.func
    return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json"


def test_json_goes_through_write_json_and_read_json():
    # json.dump and json.load only in the one writer and reader; the text
    # forms only for the config's text and digest, the population spec
    # inside its container, and compare's messages and printout
    calls = set()
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls |= {(path.name, func, call.func.attr)
                  for _, func, call in _writes(tree, _json_call)}
    assert calls == {
        ("artifacts.py", "write_json", "dump"), ("artifacts.py", "read_json", "load"),
        ("config.py", "serialize", "dumps"), ("config.py", "parse", "loads"),
        ("config.py", "config_digest", "dumps"),
        ("harness.py", "save_population", "dumps"), ("harness.py", "load_population", "loads"),
        ("harness.py", "_refuse", "dumps"), ("cli.py", "cmd_compare", "dumps"),
    }
