"""Deterministic artifact emission: CSV, JSON, SVG, and run manifests.

A CSV table is one 2-D int or float array, and any other input is refused.
Every cell, integer or float, is rendered as the %.17g spec renders it:
17 significant digits with a '.' separator and no locale dependence, so
identical inputs produce byte-identical files.  A vectorised numpy kernel
writes the fixed-point cells (finite, 1e-4 <= |x| < 1e17) byte-identical to
%.17g; a slow lane formats the rest (zeros, nan, infinities, subnormals,
exponent-style values) with the %-format itself.  The kernel renders a
call's blocks in one workspace of arrays that the call allocates, so a
block does not allocate and free its temporaries afresh.  csv_blocks yields
the CSV as bytes, one block at a time, from a table given as row chunks, so
a caller that streams it to disk never holds the whole text or the whole
table; csv_text joins those blocks into one str that grows in place.
JSON is emitted with sorted keys; non-finite floats are rendered as the
strings "nan", "inf", "-inf" to stay standard-compliant, and a complex
value is refused.  Every run records a manifest listing each emitted file
with its SHA-256 digest and byte count, taken from the bytes as they are
written; verify_manifest re-hashes the files in bounded reads and reports
drift.
"""

import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FraclabError

__all__ = [
    "csv_blocks",
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

# Cells rendered at a time.  csv_blocks makes one workspace per call, sized
# to one block, and renders every block of the call in it.  A block allocates
# only its log10 estimate, its sort order, its slow lane and its strings, so
# it frees little heap top for glibc to trim and the next block to fault in.
_BLOCK = 4096
# Bytes per cell in a block: the longest %.17g text
# ("-2.2250738585072014e-308") and the cell's separator.
_WIDTH = 25
# Dekker's splitting constant 2**27 + 1 (Numer. Math. 18, 1971).
_SPLIT = 134217729.0
# 10**k for k = 0..21, each exact in binary64, and its Dekker halves, split
# once: _POW10 == _POW10_HI + _POW10_LO exactly.
_POW10 = np.array([float(10**k) for k in range(22)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


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


class _Workspace:
    """Every array of the CSV kernel, for blocks of up to `size` cells.

    One csv_blocks call owns one workspace.  The eight float rows of the
    two-product are dead once D is known; the digit split then holds its
    uint32 parts in the last three and its group indices in the first five,
    and the layout its text rows in the first four and its cell rows in the
    last four.
    """

    def __init__(self, size):
        self.size = size
        self.floats = np.empty((8, size))
        memory = self.floats.view(np.uint8)
        self.groups = memory[:5].reshape(-1).view(np.intp).reshape(size, 5)
        self.uints = memory[5:].reshape(-1).view(np.uint32).reshape(6, size)
        self.text, self.cells = memory.reshape(2, -1)[:, : size * _WIDTH].reshape(2, size, _WIDTH)
        self.exponents = np.empty((2, size), np.int8)
        self.ints = np.empty((2, size), np.int64)
        self.flags = np.empty((5, size), bool)
        self.words = np.empty((size, 5), "<u4")


def _fixed_point(x, work):
    """%.17g text of the block x's cells with 1e-4 <= |x| < 1e17, in `work`.

    With X = floor(log10|x|), %.17g prints the 17-digit integer
    D = round_half_even(|x| * 10**(16 - X)) in fixed point.  The product is
    exact as the Dekker two-product p + e, since 10**(16 - X) is an exact
    double, and D = p + rint(e) because p >= 2**53 is an even integer.
    Every cell goes through the kernel, one outside the range with |x| read
    as 1, so that its log10 is finite.  The text lands as NUL-padded rows of
    work.cells, built in order of X in work.text.  Returns the indices of
    the cells it leaves to the slow lane: those outside the range, those
    whose log10 estimate of X is off by one, and those whose rounding
    carries D to 10**17.
    """
    n = x.size
    a, a_sorted, b, p, bl, ah, al, e = (row[:n] for row in work.floats)
    X, X_sorted = (row[:n] for row in work.exponents)
    d, t_int = (row[:n] for row in work.ints)
    hi, lo, lead, h4, l4, l0 = (row[:n] for row in work.uints)
    in_range, keep, flag, tail_zero, negative = (row[:n] for row in work.flags)
    np.abs(x, out=a)
    np.greater_equal(a, 1e-4, out=in_range)
    np.less(a, 1e17, out=flag)
    in_range &= flag
    np.logical_not(in_range, out=flag)
    np.copyto(a, 1.0, where=flag)
    log10 = np.log10(a)
    np.floor(log10, out=log10)
    np.minimum(log10, 16, out=log10)
    np.copyto(X, log10, casting="unsafe")
    order = np.argsort(X, kind="stable")
    # every index is in range; take's default mode="raise" would write `out`
    # through a buffer of its own
    X.take(order, out=X_sorted, mode="clip")
    a.take(order, out=a_sorted, mode="clip")
    k = np.subtract(16, X_sorted, out=d)  # d is free until D is formed
    _POW10.take(k, out=b, mode="clip")
    np.multiply(a_sorted, b, out=p)
    bh = _POW10_HI.take(k, out=b, mode="clip")
    _POW10_LO.take(k, out=bl, mode="clip")
    t = a  # the unsorted |x| is dead once sorted
    np.multiply(a_sorted, _SPLIT, out=ah)
    np.subtract(ah, a_sorted, out=al)
    np.subtract(ah, al, out=ah)
    np.subtract(a_sorted, ah, out=al)
    # e = ((ah * bh - p) + ah * bl + al * bh) + al * bl, in that order
    np.multiply(ah, bh, out=e)
    e -= p
    e += np.multiply(ah, bl, out=t)
    e += np.multiply(al, bh, out=t)
    e += np.multiply(al, bl, out=t)
    np.copyto(d, p, casting="unsafe")
    np.copyto(t_int, np.rint(e, out=t), casting="unsafe")
    d += t_int
    # keep = (p == 1e16 and e >= 0 or p > 1e16) and D < 10**17, in range
    np.equal(p, 1e16, out=keep)
    keep &= np.greater_equal(e, 0, out=flag)
    keep |= np.greater(p, 1e16, out=flag)
    keep &= np.less(d, 10**17, out=flag)
    keep &= in_range.take(order, out=flag, mode="clip")
    # D = lead, then the groups h4 h0 l4 l0 of four digits; a group followed
    # only by zero groups is looked up with its trailing zeros stripped.  The
    # lead digit is the last byte of the first word, group "000" + lead, so
    # the 17 digit bytes are contiguous.
    np.floor_divide(d, 10**8, out=t_int)
    np.copyto(hi, t_int, casting="unsafe")
    np.subtract(d, np.multiply(t_int, 10**8, out=t_int), out=t_int)
    np.copyto(lo, t_int, casting="unsafe")
    np.floor_divide(hi, 10**8, out=lead)
    np.floor_divide(hi, 10**4, out=h4)
    h0 = np.subtract(hi, np.multiply(h4, 10**4, out=l0), out=hi)
    h4 -= np.multiply(lead, 10**4, out=l0)
    np.floor_divide(lo, 10**4, out=l4)
    np.subtract(lo, np.multiply(l4, 10**4, out=l0), out=l0)
    np.equal(lo, 0, out=tail_zero)
    groups = work.groups[:n]
    np.copyto(groups[:, 0], lead)
    np.equal(h0, 0, out=flag)
    flag &= tail_zero
    np.multiply(flag, 10**4, out=groups[:, 1])
    groups[:, 1] += h4
    np.multiply(tail_zero, 10**4, out=groups[:, 2])
    groups[:, 2] += h0
    np.multiply(np.equal(l0, 0, out=flag), 10**4, out=groups[:, 3])
    groups[:, 3] += l4
    np.add(l0, 10**4, out=groups[:, 4])
    words = _GROUPS.take(groups, out=work.words[:n], mode="clip")
    digits = words.view(np.uint8)[:, 3:]  # 17 digits, trailing zeros NUL
    text = work.text[:n]
    text.fill(0)
    np.signbit(x, out=flag).take(order, out=negative, mode="clip")
    np.copyto(text[:, 0], ord("-"), where=negative)
    for s, end in _runs(X_sorted):
        xg = int(X_sorted[s])
        row, g = text[s:end], digits[s:end]
        if xg >= 0:
            # integer digits keep their zeros; '.' only before a nonzero tail
            np.maximum(g[:, : xg + 1], ord("0"), out=row[:, 1 : xg + 2])
            if xg < 16:
                dot = np.minimum(g[:, xg + 1], 1, out=row[:, xg + 2])
                dot *= ord(".")
                row[:, xg + 3 : 19] = g[:, xg + 1 :]
        else:  # "0." and -X - 1 zeros before the digits
            row[:, 1 : 2 - xg] = ord("0")
            row[:, 2] = ord(".")
            row[:, 2 - xg : 19 - xg] = g
    work.cells[:n].view(f"V{_WIDTH}")[order, 0] = text.view(f"V{_WIDTH}")[:, 0]
    return order[np.logical_not(keep, out=keep)]


def _render_block(x, newline, ncols, work):
    """The CSV bytes of a block of float64 cells, each followed by ',' or, at
    flat indices newline, newline + ncols, ..., by '\n'."""
    slow = _fixed_point(x, work)
    cells = work.cells[: x.size]
    text = [_CELL_SPEC % v for v in x[slow].tolist()]
    cells[slow, :-1] = np.array(text, dtype=f"S{_WIDTH - 1}").view(np.uint8).reshape(-1, _WIDTH - 1)
    cells[:, -1] = ord(",")
    cells[newline::ncols, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def csv_blocks(header, chunks):
    """Yield the CSV of a header plus a table given as row chunks, as bytes.

    The first item is the header line; then come the bytes of each block of
    at most _BLOCK cells, each chunk split into blocks of its own.  Every
    chunk is anything np.asarray makes a 2-D int or float array of with at
    least one column, and all chunks have one column count; anything else
    raises ValueError when the generator reaches it.  The cells are
    byte-identical to one %-format of _CELL_SPEC each, integers included, so
    any split of a table into chunks of whole rows yields the same bytes.
    A vectorised kernel renders the blocks, all in one workspace that the
    call allocates; cells outside its fixed-point range (zeros, nan,
    infinities, subnormals, exponent-style values) go through
    `_CELL_SPEC % x`, the slow lane.  Only one chunk and one block's bytes
    are alive at a time, so a caller that writes each item as it comes
    never holds the whole text or the whole table.
    """
    yield (",".join(header) + "\n").encode("utf-8")
    ncols, work = None, None
    for chunk in chunks:
        chunk = np.asarray(chunk)
        if chunk.ndim != 2 or chunk.shape[1] == 0 or chunk.dtype.kind not in "iuf":
            raise ValueError(
                "a CSV table is 2-D of ints or floats with at least one column; "
                f"got dtype {chunk.dtype}, shape {chunk.shape}"
            )
        if ncols not in (None, chunk.shape[1]):
            raise ValueError(f"a CSV chunk of {chunk.shape[1]} columns follows chunks of {ncols}")
        ncols = chunk.shape[1]
        values = chunk.ravel().astype(np.float64, copy=False)
        if work is None or work.size < min(_BLOCK, values.size):
            work = _Workspace(min(_BLOCK, values.size))
        for start in range(0, values.size, _BLOCK):
            # each row's last cell, at flat index ncols - 1 modulo ncols, ends in '\n'
            newline = ncols - 1 - start % ncols
            yield _render_block(values[start : start + _BLOCK], newline, ncols, work)


def csv_text(header, table):
    """Render a header plus a table of ints and floats as CSV text.

    The text is csv_blocks(header, (table,)) decoded, so a `table` that is
    no chunk there raises the same ValueError.  It grows in place, one block
    at a time: CPython resizes a str that `+=` extends while the local
    variable is its only reference, so no list of block strings and no join
    copy is alive beside it.
    """
    text = ""
    for block in csv_blocks(header, (table,)):
        text += block.decode("utf-8")  # in place while `text` is the only reference
    return text


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
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return _sanitize(obj.item())
    if hasattr(obj, "tolist"):  # numpy array
        return _sanitize(obj.tolist())
    return obj


def json_text(obj):
    """Stable-key-order JSON rendering with sanitized non-finite floats.

    No report holds a complex value, so one raises TypeError instead of
    being written in a layout no reader expects."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def utc_stamp():
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class Emitter:
    """Writes named artifacts into a run directory and keeps their entries.

    write_blocks() lands each file on disk as its bytes blocks come,
    hashing them on the way, and keeps only its manifest entry (name,
    SHA-256 digest, byte count), not the content; a source that raises
    partway leaves neither the partial file nor an entry.  write() takes one
    text and hands it to write_blocks() encoded _SLICE characters at a time,
    so every file goes through one write path.  `prefix` leads every name
    written, so each sweep cell writes its own files as it runs.  `stamp` is
    the run's start time for the SVG comments and the manifest, or None to
    keep the output byte-reproducible.
    """

    directory: str
    stamp: str = None
    prefix: str = ""
    artifacts: list = field(default_factory=list)  # (name, sha256, bytes) in emission order

    def write(self, name, text):
        slices = range(0, len(text), _SLICE)
        self.write_blocks(name, (text[start : start + _SLICE].encode("utf-8") for start in slices))

    def write_blocks(self, name, blocks):
        name = self.prefix + name
        if any(existing == name for existing, _, _ in self.artifacts):
            raise FraclabError(f"artifact {name!r} emitted twice")
        path = os.path.join(self.directory, name)
        digest, size = hashlib.sha256(), 0
        handle = open(path, "wb")
        try:
            with handle:
                for data in blocks:
                    digest.update(data)
                    size += handle.write(data)
        except BaseException:
            os.remove(path)
            raise
        self.artifacts.append((name, digest.hexdigest(), size))


def write_manifest(emitter, command, config_echo, version):
    """Append the manifest (the entries of everything the emitter wrote so
    far) to a run."""
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
    # one buffer for every read: a fresh 1 MiB bytes per read is mapped and
    # faulted in anew when allocations that size are served by mmap
    buffer = memoryview(bytearray(_READ))
    for name, sha256 in entries:
        target = os.path.join(directory, name)
        if not os.path.exists(target):
            ok = False
            lines.append(f"missing  {name}")
            continue
        digest = hashlib.sha256()
        with open(target, "rb") as handle:
            while count := handle.readinto(buffer):
                digest.update(buffer[:count])
        if digest.hexdigest() == sha256:
            lines.append(f"ok       {name}")
        else:
            ok = False
            lines.append(f"drift    {name}")
    return ok, lines
