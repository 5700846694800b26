"""Deterministic artifact emission: CSV, JSON, SVG, and run manifests.

Every CSV cell, integer or float, goes through one %.17g spec: 17
significant digits with a '.' separator and no locale dependence, so
identical inputs produce byte-identical files.  JSON is emitted with sorted
keys; non-finite floats are rendered as the strings "nan", "inf", "-inf" to
stay standard-compliant.  Every run records a manifest listing each emitted
file with its SHA-256 digest; verify_manifest re-hashes the files and
reports drift.
"""

import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field

from .errors import FraclabError

__all__ = [
    "csv_text",
    "json_text",
    "utc_stamp",
    "Emitter",
    "write_manifest",
    "verify_manifest",
]

MANIFEST_NAME = "manifest.json"


# The one %-format spec of every CSV cell.  It prints each integer the
# program writes (well below 10**17) as str does.
_CELL_SPEC = "%.17g"


def csv_text(header, rows):
    """Render a header plus rows of ints and floats as CSV text.

    Each row is one %-format of _CELL_SPEC per cell, integers included.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([_CELL_SPEC] * len(row)) % tuple(row))
    return "\n".join(lines) + "\n"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj == float("inf"):
            return "inf"
        if obj == float("-inf"):
            return "-inf"
        return obj
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return _sanitize(obj.item())
    if hasattr(obj, "tolist"):  # numpy array
        return _sanitize(obj.tolist())
    return obj


def json_text(obj):
    """Stable-key-order JSON rendering with sanitized non-finite floats."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def utc_stamp():
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class Emitter:
    """Collects named text artifacts and serializes them through one writer.

    With a directory set, write() lands files on disk immediately; buffered
    emitters (directory=None) hold the texts so a sweep can compute cells
    concurrently and have the main thread replay them in a fixed order.
    `stamp` is the run's start time for the SVG comments and the manifest,
    or None to keep the output byte-reproducible.
    """

    directory: str = None
    stamp: str = None
    artifacts: list = field(default_factory=list)  # (name, text) in emission order

    def write(self, name, text):
        if any(existing == name for existing, _ in self.artifacts):
            raise FraclabError(f"artifact {name!r} emitted twice")
        self.artifacts.append((name, text))
        if self.directory is not None:
            path = os.path.join(self.directory, name)
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)

    def absorb(self, other, prefix):
        """Replay a buffered emitter's artifacts through this writer, each
        name prefixed by `prefix`."""
        for name, text in other.artifacts:
            self.write(prefix + name, text)


def write_manifest(emitter, command, config_echo, version):
    """Append the manifest (digests of everything emitted so far) to a run."""
    files = [
        {
            "name": name,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "bytes": len(text.encode("utf-8")),
        }
        for name, text in emitter.artifacts
    ]
    manifest = {
        "tool": "fraclab",
        "version": version,
        "command": command,
        "config": config_echo,
        "files": files,
    }
    if emitter.stamp is not None:
        manifest["timestamp"] = emitter.stamp
    emitter.write(MANIFEST_NAME, json_text(manifest))


def verify_manifest(directory):
    """Re-hash the files listed in a directory's manifest.

    Returns (ok, report_lines).  Missing files and digest mismatches are
    drift; the manifest itself is not re-checked (it holds the digests).  An
    unreadable or malformed manifest raises OSError; so does an entry that is
    not a plain file name, since write_manifest never writes one and a path
    would reach outside the run directory, and an entry that a symbolic link
    resolves to a file outside it.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:  # also undecodable bytes
            raise OSError(f"malformed manifest {path}: {exc}") from None
    try:
        entries = [(str(e["name"]), e["sha256"]) for e in manifest.get("files", [])]
    except (AttributeError, KeyError, TypeError):
        raise OSError(f"malformed manifest {path}: expected a list of name/sha256 files") from None
    root = os.path.realpath(directory)
    for name, _ in entries:
        if os.path.basename(name) != name or name in ("", ".", ".."):
            raise OSError(f"malformed manifest {path}: entry {name!r} is not a plain file name")
        target = os.path.realpath(os.path.join(directory, name))
        if os.path.commonpath([root, target]) != root:
            raise OSError(f"manifest {path}: entry {name!r} resolves outside the run directory")
    ok = True
    lines = []
    for name, sha256 in entries:
        target = os.path.join(directory, name)
        if not os.path.exists(target):
            ok = False
            lines.append(f"missing  {name}")
            continue
        with open(target, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if digest == sha256:
            lines.append(f"ok       {name}")
        else:
            ok = False
            lines.append(f"drift    {name}")
    return ok, lines
