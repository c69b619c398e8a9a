"""Artifact files: atomic writes and one checked reader per format.

Every file is written through `write_atomic`. Every binary artifact
(population PUFP, signatures PUFS, golden PUFG) is a 4-byte magic, a
struct header whose first field is the uint16 format version, and a
payload whose size the header fixes; `read_container` refuses truncated,
oversized and foreign files, naming the path. `write_json` writes and
`read_json` reads every JSON file, refusing a non-object or missing key.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

from .errors import InvalidArgumentError


@contextlib.contextmanager
def write_atomic(path, mode: str = "w"):
    """Write ("w" or "wb") to `<path>.tmp` beside `path`, then replace
    `path` with it; if the block raises, the temporary file is removed and
    `path` keeps its earlier content. This guards against a crash or a
    failing writer, not a power loss: nothing is fsynced."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_container(path, magic: bytes, header_fmt: str, fields, *payload) -> None:
    with write_atomic(path, "wb") as fh:
        fh.write(magic + struct.pack(header_fmt, *fields))
        for part in payload:
            fh.write(part)


def read_container(path, magic: bytes, version: int, header_fmt: str, payload_size):
    """(header fields, payload bytes) of a container file whose size is
    exactly what payload_size(*fields) declares."""
    head = struct.calcsize(header_fmt)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != magic:
            raise InvalidArgumentError(f"{path}: not a {magic.decode()} file")
        raw = fh.read(head)
        found = struct.unpack_from("<H", raw)[0] if len(raw) >= 2 else version
        if found != version:
            raise InvalidArgumentError(
                f"{path}: unsupported {magic.decode()} version {found} "
                f"(expected {version})"
            )
        if len(raw) != head:
            raise InvalidArgumentError(
                f"{path}: truncated header, expected at least {4 + head} bytes, "
                f"found {size}"
            )
        fields = struct.unpack(header_fmt, raw)
        expected = 4 + head + payload_size(*fields)
        if size != expected:
            what = "truncated" if size < expected else "trailing bytes"
            raise InvalidArgumentError(
                f"{path}: {what}, header declares {expected} bytes, found {size}"
            )
        return fields, fh.read()


def write_json(path, payload) -> None:
    """payload as JSON: indent 2, sorted keys, a trailing newline."""
    with write_atomic(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, kind: str, *keys: str, error: type = InvalidArgumentError) -> dict:
    """The JSON object in the file at path; a file that is not JSON, not
    an object, or lacks one of `keys` is refused as `error`, naming it."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or not all(key in payload for key in keys):
        needs = f" with keys {list(keys)}" if keys else ""
        raise error(f"{path}: not a {kind} file (a JSON object{needs})")
    return payload
