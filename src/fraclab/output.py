"""Deterministic artifact emission: CSV, JSON, SVG, and run manifests.

Every CSV cell, integer or float, is rendered as the %.17g spec renders it:
17 significant digits with a '.' separator and no locale dependence, so
identical inputs produce byte-identical files.  A vectorised numpy kernel
writes the fixed-point cells (finite, 1e-4 <= |x| < 1e17) byte-identical to
%.17g; a slow lane formats the rest (zeros, nan, infinities, subnormals,
exponent-style values) with the %-format itself.  JSON is emitted with sorted
keys; non-finite floats are rendered as the strings "nan", "inf", "-inf" to
stay standard-compliant.  Every run records a manifest listing each emitted
file with its SHA-256 digest and byte count, taken from the bytes as they are
written; verify_manifest re-hashes the files in bounded reads and reports
drift.
"""

import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

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

# Characters of an artifact encoded, hashed and written at a time; a slice
# and its bytes stay below glibc's 128 KiB mmap threshold.
_SLICE = 1 << 16
# Bytes read at a time when a file is re-hashed.
_READ = 1 << 20


# The one %-format spec of every CSV cell.  It prints each integer the
# program writes (well below 10**17) as str does.
_CELL_SPEC = "%.17g"

# Cells rendered at a time.  Each temporary of a block (4096 x 25 bytes at
# most) stays below glibc's 128 KiB mmap threshold, so it is served from the
# heap instead of being mapped and faulted in afresh.
_BLOCK = 4096
# Bytes per cell in a block: the longest %.17g text
# ("-2.2250738585072014e-308") and the cell's separator.
_WIDTH = 25
# Dekker's splitting constant 2**27 + 1 (Numer. Math. 18, 1971).
_SPLIT = 134217729.0
# 10**k for k = 0..21, each exact in binary64.
_POW10 = np.array([float(10**k) for k in range(22)])


def _digit_groups():
    """ASCII of the four-digit groups 0000..9999, each as one little-endian
    uint32; entries 10**4 + g hold group g with its trailing zeros as NUL."""
    g = np.arange(10**4)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    kept = np.flip(np.logical_or.accumulate(np.flip(digits != 0, axis=1), axis=1), axis=1)
    ascii = digits + ord("0")
    return np.concatenate([ascii, np.where(kept, ascii, 0)]).astype(np.uint8).view("<u4").ravel()


_GROUPS = _digit_groups()


def _runs(X):
    """(start, end) of each run of equal values in the sorted array X."""
    if not X.size:
        return []
    bounds = (np.flatnonzero(X[1:] != X[:-1]) + 1).tolist()
    return list(zip([0] + bounds, bounds + [X.size]))


def _fixed_point(x, idx):
    """%.17g text of the cells x[idx], all finite with 1e-4 <= |x| < 1e17.

    With X = floor(log10|x|), %.17g prints the 17-digit integer
    D = round_half_even(|x| * 10**(16 - X)) in fixed point.  The product is
    exact as the Dekker two-product p + e, since 10**(16 - X) is an exact
    double, and D = p + rint(e) because p >= 2**53 is an even integer.
    Returns the indices rendered, sorted by X, and their text as NUL-padded
    rows of _WIDTH bytes.  A cell whose log10 estimate of X is off by one, or
    whose rounding carries D to 10**17, is left out for the slow lane.
    """
    X = np.minimum(np.floor(np.log10(np.abs(x[idx]))), 16).astype(np.int8)
    order = np.argsort(X, kind="stable")
    idx, X = idx[order], X[order]
    v = x[idx]
    a = np.abs(v)
    b = _POW10.take(16 - X)
    p = a * b
    t = b * _SPLIT
    bh = t - (t - b)
    bl = b - bh
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    keep = (p > 1e16) | ((p == 1e16) & (e >= 0))
    keep &= D < 10**17
    if not keep.all():
        idx, X, D, v = idx[keep], X[keep], D[keep], v[keep]
    # D = lead, then the groups h4 h0 l4 l0 of four digits; a group followed
    # only by zero groups is looked up with its trailing zeros stripped.  The
    # lead digit sits in the last byte of the first word, so the 17 digit
    # bytes are contiguous.
    hi = D // 10**8
    lo = (D - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    lead = hi // 10**8
    h4 = hi // 10**4
    h0 = hi - h4 * 10**4
    h4 -= lead * 10**4
    l4 = lo // 10**4
    l0 = lo - l4 * 10**4
    tail_zero = lo == 0
    words = np.empty((idx.size, 5), "<u4")
    words[:, 0] = (lead + ord("0")) << 24
    words[:, 1] = _GROUPS.take(h4 + 10**4 * (tail_zero & (h0 == 0)))
    words[:, 2] = _GROUPS.take(h0 + 10**4 * tail_zero)
    words[:, 3] = _GROUPS.take(l4 + 10**4 * (l0 == 0))
    words[:, 4] = _GROUPS.take(l0 + 10**4)
    digits = words.view(np.uint8)[:, 3:]  # 17 digits, trailing zeros NUL
    text = np.zeros((idx.size, _WIDTH), np.uint8)
    text[:, 0] = np.signbit(v) * ord("-")
    for s, end in _runs(X):
        xg = int(X[s])
        row, d = text[s:end], digits[s:end]
        if xg >= 0:
            # integer digits keep their zeros; '.' only before a nonzero tail
            row[:, 1 : xg + 2] = np.maximum(d[:, : xg + 1], ord("0"))
            if xg < 16:
                row[:, xg + 2] = (d[:, xg + 1] != 0) * ord(".")
                row[:, xg + 3 : 19] = d[:, xg + 1 :]
        else:  # "0." and -X - 1 zeros before the digits
            row[:, 1 : 2 - xg] = ord("0")
            row[:, 2] = ord(".")
            row[:, 2 - xg : 19 - xg] = d
    return idx, text


def _render_block(x, separators, blank):
    """The CSV text of a block of float64 cells, each followed by its separator."""
    cells = np.zeros((x.size, _WIDTH), np.uint8)
    a = np.abs(x)
    idx, text = _fixed_point(x, np.flatnonzero((a >= 1e-4) & (a < 1e17)))
    cells.view(f"V{_WIDTH}").ravel()[idx] = text.view(f"V{_WIDTH}").ravel()
    pending = np.ones(x.size, dtype=bool)
    pending[idx] = False
    slow = np.flatnonzero(pending)
    text = [_CELL_SPEC % v for v in x[slow].tolist()]
    cells[slow, :-1] = np.array(text, dtype=f"S{_WIDTH - 1}").view(np.uint8).reshape(-1, _WIDTH - 1)
    cells[blank, :-1] = 0
    cells[:, -1] = separators
    return cells.tobytes().translate(None, b"\0").decode()


def _flatten(rows):
    """One float64 per cell, one separator byte per cell (',' or, ending its
    row, '\n'), and a mask of the blank cells.

    An empty row becomes one blank cell, so that it still ends in '\n'.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind in "biuf":
        lengths = np.full(rows.shape[0], rows.shape[1])
        values = rows.ravel().astype(np.float64, copy=False)
    else:
        rows = list(rows)
        lengths = np.array([len(row) for row in rows], dtype=np.intp)
        flat = list(chain.from_iterable(rows))
        values = np.asarray(flat)
        if values.dtype.kind in "biuf":
            values = values.astype(np.float64, copy=False)
        else:
            # big ints, None, str, ...: the %-format accepts or refuses each
            values = np.array([float(_CELL_SPEC % v) for v in flat])
    empty = lengths == 0
    lengths[empty] = 1
    ends = np.cumsum(lengths) - 1
    blank = np.zeros(lengths.sum(), dtype=bool)
    blank[ends[empty]] = True
    if empty.any():
        filled = np.zeros(blank.size)
        filled[~blank] = values
        values = filled
    separators = np.full(values.size, ord(","), dtype=np.uint8)
    separators[ends] = ord("\n")
    return values, separators, blank


def csv_text(header, rows):
    """Render a header plus rows of ints and floats as CSV text.

    `rows` is a 2-D array or a sequence of rows, ragged or not.  The text is
    byte-identical to one %-format of _CELL_SPEC per cell, integers included.
    A vectorised kernel renders the cells in blocks of _BLOCK, each decoded
    at once, so the text is joined from block strings; cells outside its
    fixed-point range (zeros, nan, infinities, subnormals, exponent-style
    values) go through `_CELL_SPEC % x`, the slow lane.
    """
    values, separators, blank = _flatten(rows)
    blocks = [",".join(header) + "\n"]
    for start in range(0, values.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        blocks.append(_render_block(values[block], separators[block], blank[block]))
    return "".join(blocks)


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

    With a directory set, write() lands each file on disk at once, encoding
    and hashing it slice by slice, and keeps only its manifest entry (name,
    SHA-256 digest, byte count), not the text.  Buffered emitters
    (directory=None) hold (name, text) pairs so a sweep can compute cells
    concurrently and have the main thread replay them in a fixed order.
    `stamp` is the run's start time for the SVG comments and the manifest,
    or None to keep the output byte-reproducible.
    """

    directory: str = None
    stamp: str = None
    artifacts: list = field(default_factory=list)  # in emission order, each led by its name

    def write(self, name, text):
        if any(existing == name for existing, *_ in self.artifacts):
            raise FraclabError(f"artifact {name!r} emitted twice")
        if self.directory is None:
            self.artifacts.append((name, text))
            return
        digest, size = hashlib.sha256(), 0
        with open(os.path.join(self.directory, name), "wb") as handle:
            for start in range(0, len(text), _SLICE):
                data = text[start : start + _SLICE].encode("utf-8")
                digest.update(data)
                size += handle.write(data)
        self.artifacts.append((name, digest.hexdigest(), size))

    def absorb(self, other, prefix):
        """Replay a buffered emitter's artifacts through this writer, each
        name prefixed by `prefix`."""
        for name, text in other.artifacts:
            self.write(prefix + name, text)


def write_manifest(emitter, command, config_echo, version):
    """Append the manifest (the entries of everything a directory-backed
    emitter wrote so far) to a run."""
    files = [{"name": name, "sha256": sha256, "bytes": size} for name, sha256, size in emitter.artifacts]
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
    """Re-hash the files listed in a directory's manifest, _READ bytes at a time.

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
        digest = hashlib.sha256()
        with open(target, "rb") as handle:
            while data := handle.read(_READ):
                digest.update(data)
        if digest.hexdigest() == sha256:
            lines.append(f"ok       {name}")
        else:
            ok = False
            lines.append(f"drift    {name}")
    return ok, lines
