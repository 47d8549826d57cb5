"""The C row maps of the built-in potentials, the engine's C tick loop, its
window pass and the noise streams' standard-normal draw.

``_kernel.c`` holds the gradient step x <- x - h grad U(x) of
``QuadraticPotential`` and ``LogisticPerturbedPotential``, one row at a time,
and a loop that runs a chunk of ticks of one ``sde._drive`` level through
the same row maps, scaling each row's raw standard normals into its Euler
increment as it adds them.  ``descend`` serves both potentials'
``descend``, and so ``euler_step``; ``ticks`` serves the engine.
``window`` is the window pass of every observable on a record: each run's
value (its row's norm, or its row, which is how a user observable's values
come), a pair's fine minus coarse, the finite check, and the sums of
``sde._CompensatedSum``'s slots, one grid index at a time in index order,
with the arithmetic of its numpy fold, so window sums are the same bytes
with the library and without it.  Each C operation rounds as the numpy
expression it mirrors, and the logistic dot product and the norm sum in
numpy's pairwise order, so only ``tanh`` (libm's, not numpy's) can round
apart from the numpy fallback: logistic results agree with it to about
1e-15 relative, quadratic ones and the observables' sums bit for bit.

``normals()`` is the C draw behind ``sde.NoiseStream``: numpy's
``Generator.standard_normal`` on a Philox stream, the same bytes, 6.9 ns a
normal against numpy's 17.2 (a 2M fill, on a 2-core Xeon).  A stream is
11 uint64 words, numpy's Philox state field for field (``philox_start``,
``philox_words``, ``philox_state``).  The draw generates Philox4x64-10
blocks itself and takes numpy's ziggurat fast path inline; the rest of
numpy's algorithm, its tail and wedges, runs numpy's own
``random_standard_normal``, linked from the static library numpy ships for
C extensions (``_ARCHIVE``).  The fast path's tables are
not copied: at load, ``mlv_probe`` reads them from numpy's function by
feeding it chosen words.  Then the draw must give numpy's bytes and state
on 16,384 normals of one stream (``_checked_draw``); if any byte differs,
``normals()`` is None and the streams keep numpy's ``Generator``.

The library is built and loaded at first use, never at import, once in a
process (``lib()`` holds a lock): the system ``cc`` compiles the source
with ``_FLAGS`` into a file whose name is a hash of the source, the
command, numpy's archive and the machine, in the user's cache directory
(``$XDG_CACHE_HOME/mlangevin`` or ``~/.cache/mlangevin``, else a private
directory under the temporary one), so a numpy upgrade builds anew.  Where
numpy ships no archive, or the build with it fails, the library is built
without the draw, ticks and all.  The build writes a temporary file and
publishes it with ``os.replace``, so processes that build at once are safe,
and the compiler's output is captured.  When there is no compiler, the build
fails or the library does not load, ``lib()`` is None and every caller keeps
its numpy path.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import tempfile
import threading
from pathlib import Path

import numpy as np

QUADRATIC, LOGISTIC = 0, 1
NORM, IDENTITY = 0, 1  # the built-in observables, as window takes them

_CC = "cc"
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_SOURCE = Path(__file__).with_name("_kernel.c")
# numpy's C distributions, shipped for C extensions; where numpy has it,
# the library is built with -DMLV_NORMALS and links it
_ARCHIVE = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
_UNLOADED = object()
_lib = _UNLOADED  # the loaded library, None without one; see lib()
_normals = None  # its checked draw, None without one; see normals()
_LOCK = threading.Lock()

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# name: (restype, argtypes)
_SIGNATURES = {
    "mlv_descend": (None, (ctypes.c_int, _PTR, _I64, _I64, _F64, _PTR,
                           _F64)),
    "mlv_ticks": (None, (ctypes.c_int, _I64, _I64, _I64, ctypes.c_int, _PTR,
                         _F64, _F64, _PTR, _F64, _PTR, _PTR, _I64, _I64,
                         _F64, _F64)),
    "mlv_window": (_I64, (ctypes.c_int, _I64, _I64, _I64, ctypes.c_int, _PTR,
                          _I64, _PTR, _PTR)),
}
# only in a library built with numpy's archive
_DRAW_SIGNATURES = {
    "mlv_normals": (_I64, (_PTR, _I64, ctypes.POINTER(_F64))),
    "mlv_probe": (None, ()),
}
# the load check's stream, a key with both top bits set, and its length
_CHECK_KEY = (0xF1E2D3C4B5A69788, 0x8000000000ABCDEF)
_CHECK_SIZE = 16_384


def _private(path: Path) -> bool:
    """Make the directory ``path`` if it is missing; True when only this
    user can write to it."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return not hasattr(os, "getuid") or (
        st.st_uid == os.getuid() and not st.st_mode & 0o022)


def _cache_dir() -> Path | None:
    """The first usable cache directory: the user's, else a private one
    under the temporary directory."""
    candidates = []
    try:
        base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        candidates.append(Path(base) / "mlangevin")
    except (RuntimeError, KeyError):  # no home directory
        pass
    if hasattr(os, "getuid"):
        candidates.append(
            Path(tempfile.gettempdir()) / f"mlangevin-{os.getuid()}")
    return next((p for p in candidates if p.is_absolute() and _private(p)),
                None)


def _build(cmd: list, target: Path) -> bool:
    """Run the compiler command ``cmd`` with its output at ``target``,
    through a temporary file in its directory, which is removed unless it
    becomes ``target``."""
    # imported here, as hashlib in _load: every process pays for what the
    # package imports, and only the first use needs these
    import subprocess
    try:
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so",
                                   dir=target.parent)
    except OSError:
        return False
    os.close(fd)
    try:
        done = subprocess.run([*cmd, "-o", tmp], stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=300)
        if done.returncode == 0:
            os.replace(tmp, target)
            return True
        return False
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _load():
    """Build the library if its file is not cached yet, and load it: with
    numpy's archive where there is one, else (or if that build fails)
    without the draw."""
    import hashlib
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    cache = _cache_dir()
    if cache is None:
        return None
    builds = []
    with contextlib.suppress(OSError):
        builds.append((("-DMLV_NORMALS",), (str(_ARCHIVE),),
                       _ARCHIVE.read_bytes()))
    builds.append(((), (), b""))
    for define, archive, archive_bytes in builds:
        flags = [_CC, *_FLAGS, *define]
        key = hashlib.sha256(b"\0".join(
            [source, *(part.encode() for part in flags), archive_bytes,
             platform.machine().encode(), platform.system().encode()]))
        target = cache / f"kernel-{key.hexdigest()[:20]}.so"
        if target.exists() or _build(
                [*flags, str(_SOURCE), *archive, "-lm"], target):
            return _open(target)
    return None


def _open(target: Path):
    """The library at ``target`` with its signatures set, or None."""
    try:
        lib = ctypes.CDLL(str(target))
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
        for name, (restype, argtypes) in _DRAW_SIGNATURES.items():
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError):
        return None
    return lib


def _checked_draw(handle):
    """The draw of the library ``handle`` (or None), its tables probed, if
    it gives numpy's bytes and state on the check's stream; else None."""
    draw = getattr(handle, "mlv_normals", None)
    if draw is None:
        return None
    handle.mlv_probe()
    words = philox_start(_CHECK_KEY)
    bitgen = np.random.Philox(key=np.array(_CHECK_KEY, dtype=np.uint64))
    out = np.empty(_CHECK_SIZE)
    draw(words.ctypes.data, out.size, _F64.from_buffer(out))
    want = np.random.Generator(bitgen).standard_normal(out.size)
    same = (out.tobytes() == want.tobytes()
            and words.tobytes() == philox_words(bitgen.state).tobytes())
    return draw if same else None


def lib():
    """The loaded library, built and loaded on the first call, once in a
    process whichever threads call at once; None when it cannot be."""
    global _lib, _normals
    if _lib is _UNLOADED:
        with _LOCK:
            if _lib is _UNLOADED:
                handle = _load()
                _normals = _checked_draw(handle)
                _lib = handle
    return _lib


def normals():
    """The C draw ``mlv_normals(words, n, out)``, or None where the library
    is missing, has no draw or failed the load check.  It fills ``out``,
    n doubles (a ``ctypes.c_double`` at their start), with the standard
    normals of the stream whose 11 words are at the address ``words``,
    advances the words, and returns how many words took numpy's slow path.
    Calls on one stream's words must not overlap."""
    return None if lib() is None else _normals


def philox_start(key):
    """The 11 words of numpy's Philox on the two uint64 words ``key``
    before its first draw: counter 0, the key, an empty buffer."""
    words = np.zeros(11, dtype=np.uint64)
    words[4:6] = key
    words[10] = 4
    return words


def philox_words(state):
    """The 11 words of numpy's Philox ``state`` (``Philox.state``): its
    counter[4], key[2], buffer[4] and buffer position."""
    return np.array([*state["state"]["counter"], *state["state"]["key"],
                     *state["buffer"], state["buffer_pos"]], dtype=np.uint64)


def philox_state(words):
    """numpy's Philox state that the 11 ``words`` hold."""
    return {"bit_generator": "Philox",
            "state": {"counter": words[:4].copy(), "key": words[4:6].copy()},
            "buffer": words[6:10].copy(), "buffer_pos": int(words[10]),
            "has_uint32": 0, "uinteger": 0}


def descend(kind: int, x, h, covariate=None, lam: float = 0.0) -> bool:
    """The built-in map ``kind`` on ``x`` in place, as ``Potential.descend``
    takes it: ``x`` float rows (..., d) or a point (d,), ``h`` a float.
    False, with ``x`` untouched, when there is no library or the arguments
    are not of a form the C map takes (the caller then maps with numpy)."""
    handle = lib()
    if (handle is None or not isinstance(x, np.ndarray) or x.ndim == 0
            or x.dtype != np.float64 or not x.flags.writeable
            or x.size == 0):
        return False
    d = x.shape[-1]
    c = None
    if kind == LOGISTIC:
        c = np.ascontiguousarray(covariate, dtype=float)
        if c.shape != (d,):
            return False
    rows = np.ascontiguousarray(x)
    handle.mlv_descend(kind, rows.ctypes.data, rows.size // d, d, float(h),
                       None if c is None else c.ctypes.data, lam)
    if rows is not x:
        x[...] = rows
    return True


def ticks(row_map, x, hist, gamma, pair, g, scale):
    """``len(hist)`` ticks of one engine level in C, one grid step each.

    ``x`` is the state: a chain's rows (B, d) at step ``gamma``, or with
    ``pair`` a pair's (2B, d), its B coarse rows at step 2 gamma over its B
    fine rows at step gamma.  ``row_map`` is ``(kind, covariate, lam,
    sigma0^2)``; a row maps by its step times sigma0^2.  ``g`` (fine steps,
    B, d) is a view of the chunk's standard normals, its rows at one stride
    each, its last axis contiguous, and ``scale`` is (fine scale, coarse
    scale); a pair's fine and coarse row b both read row b of ``g``.  Tick
    j first records the state in ``hist[j]``, C-ordered like ``x``.  A
    chain then maps its rows and adds fine step j.  A pair maps its fine
    rows and adds fine step 2j, maps its coarse rows and adds fine steps 2j
    and 2j + 1, then maps its fine rows and adds fine step 2j + 1.
    """
    kind, c, lam, s2 = row_map
    lib().mlv_ticks(
        kind, len(hist), x.shape[1], len(x) // 2 if pair else len(x),
        int(pair), x.ctypes.data, gamma * s2, 2.0 * gamma * s2,
        None if c is None else c.ctypes.data, lam, hist.ctypes.data,
        g.ctypes.data, g.strides[0] // g.itemsize,
        g.strides[1] // g.itemsize, *scale)


def window(obs, x, pair, s, c) -> int:
    """Add the window values of the built-in observable ``obs`` (``NORM``
    or ``IDENTITY``) on the record ``x`` to the compensated sums ``s`` and
    ``c``, in C, a tick at a time in order.

    ``x`` (w, rows, d) is a record of float rows, a level's states or a
    user observable's values (m of them for d), each tick's rows C-ordered
    (as numpy's flag has it: the stride of an axis of length 1 is never
    read), the ticks at one stride: a chain's B rows, or with ``pair`` a
    pair's B coarse rows over its B fine rows.  Run b's value is its row's
    norm, to slot b of ``s`` and ``c``, contiguous float (B,), or its row,
    coordinate k to slot b * d + k of (B * d,) ones; a pair's is its fine
    row's value minus its coarse row's.  Returns i * B + b of the
    first non-finite value at tick i, or -1; the values before it are
    added.  Any other shape, stride or dtype is a ValueError.  The library
    must be loaded (``lib()``).
    """
    if (obs in (NORM, IDENTITY) and x.ndim == 3 and x.dtype == np.float64
            and x.strides[0] % x.itemsize == 0
            and s.dtype == c.dtype == np.float64 and s.flags.c_contiguous
            and c.flags.c_contiguous and s.flags.writeable
            and c.flags.writeable):
        w, rows, d = x.shape
        bsz = rows // 2 if pair else rows
        slots = (bsz if obs == NORM else bsz * d,)
        if (rows == (2 if pair else 1) * bsz and s.shape == c.shape == slots
                and x[:1].flags.c_contiguous):
            return lib().mlv_window(obs, w, bsz, d, int(pair), x.ctypes.data,
                                    x.strides[0] // x.itemsize,
                                    s.ctypes.data, c.ctypes.data)
    raise ValueError(f"cannot add observable {obs} values of a record of "
                     f"shape {x.shape}, strides {x.strides} and dtype "
                     f"{x.dtype} to {s.shape} sums")
