"""Property tests of the command line on mutated inputs.

Every case starts from the files of one `pufsim run --preset d1`. A JSON
case retypes, deletes or nests one value of manifest.json, metrics.json,
nist.json, mask.json or config.json; a container case truncates
population.bin, signatures_enroll.bin or golden.bin, or overwrites one
word of its magic or header. The mutated file is then fed to the command
that reads it, and the property is the same for all of them:
`pufsim.cli.main` returns 0 or 1 and never raises, and on 1 its stderr
names the mutated file.

The examples are derandomized, fixed in number and kept in no database,
so a given selection of tests tries the same cases on every run (hypothesis
also draws constants from the loaded source modules). Each case restores
the file it mutated, and every file lives under pytest's temporary
directory; conftest.py puts hypothesis's own cache there too.
"""

import contextlib
import copy
import io
import json
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pufsim.cli import main  # noqa: E402

_VALUES = (None, True, 0, -1, 2, 1.5, "x", "", [], {})
_ACTIONS = ("retype", "delete", "nest-list", "nest-object")
# (offset, struct format) of the magic and of each header field
_WORDS = {
    "population.bin": ((0, "<I"), (4, "<H"), (6, "<I")),
    "signatures_enroll.bin": ((0, "<I"), (4, "<H"), (6, "<H"), (8, "<I"), (12, "<I"),
                              (16, "<I")),
    "golden.bin": ((0, "<I"), (4, "<H"), (6, "<H"), (8, "<I"), (12, "<I"), (16, "<I")),
}


def _fuzz(examples):
    return settings(derandomize=True, database=None, max_examples=examples,
                    deadline=None)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A directory holding two identical d1 runs, a and b (the one the
    cases mutate), and out/ for what the commands write."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        for run in ("a", "b"):
            assert main(["run", "--preset", "d1", "--out", str(root / run)]) == 0
    return root


def _commands(root):
    """{file of run b: the command line that reads it}."""
    a, b, out = root / "a", root / "b", str(root / "out")
    sigs = str(b / "signatures_enroll.bin")
    compare = ["compare", str(a / "manifest.json"), str(b / "manifest.json")]
    return {
        "manifest.json": compare,
        "metrics.json": compare,
        "nist.json": compare,
        "mask.json": ["metrics", sigs, "--mask", str(b / "mask.json"), "--out", out],
        "config.json": ["run", "--config", str(b / "config.json"), "--out", out],
        "population.bin": ["readout", "--preset", "d1", "--population",
                           str(b / "population.bin"), "--out", out],
        "signatures_enroll.bin": ["metrics", sigs, "--out", out],
        "golden.bin": ["metrics", sigs, "--golden", str(b / "golden.bin"), "--out", out],
    }


def _check(root, name, data: bytes) -> None:
    """Run the command that reads run b's file `name` holding `data`."""
    path = root / "b" / name
    before = path.read_bytes()
    path.write_bytes(data)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(_commands(root)[name])
    finally:
        path.write_bytes(before)
    assert code in (0, 1)
    if code:
        assert str(path) in err.getvalue(), err.getvalue()


def _json_paths(doc, at=()):
    """Every JSON path in doc as a tuple of keys, the root's first."""
    yield at
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(value, at + (key,))


def _mutated(doc, at, action, value):
    """doc with the value at path `at` retyped to `value`, deleted, or
    nested in a list or an object; deleting the root retypes it."""
    doc = copy.deepcopy(doc)
    new = {"nest-list": lambda old: [old],
           "nest-object": lambda old: {"v": old}}.get(action, lambda old: value)
    if not at:
        return new(doc)
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[at[-1]]
    else:
        parent[at[-1]] = new(parent[at[-1]])
    return doc


def _draw_json_case(runs, data, names):
    name = data.draw(st.sampled_from(names))
    doc = json.loads((runs / "b" / name).read_text())
    at = data.draw(st.sampled_from(list(_json_paths(doc))))
    action = data.draw(st.sampled_from(_ACTIONS))
    value = data.draw(st.sampled_from(_VALUES))
    return name, json.dumps(_mutated(doc, at, action, value)).encode()


@_fuzz(200)
@given(data=st.data())
def test_compare_survives_mutated_json(runs, data):
    _check(runs, *_draw_json_case(runs, data, ("manifest.json", "metrics.json", "nist.json")))


@_fuzz(60)
@given(data=st.data())
def test_stage_commands_survive_mutated_json(runs, data):
    _check(runs, *_draw_json_case(runs, data, ("mask.json", "config.json")))


@_fuzz(60)
@given(data=st.data())
def test_container_readers_survive_truncation_and_header_words(runs, data):
    name = data.draw(st.sampled_from(sorted(_WORDS)))
    blob = bytearray((runs / "b" / name).read_bytes())
    if data.draw(st.booleans()):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        offset, fmt = data.draw(st.sampled_from(_WORDS[name]))
        word = data.draw(st.integers(0, 2 ** (8 * struct.calcsize(fmt)) - 1))
        struct.pack_into(fmt, blob, offset, word)
    _check(runs, name, bytes(blob))
