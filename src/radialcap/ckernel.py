"""Compiled C kernels, shared by the Monte Carlo simulation
(:mod:`radialcap.diffusion`) and the primitive query
(:mod:`radialcap.quadrature`).

A kernel is compiled once per machine with the system C compiler
(``$CC``, else ``cc``), cached on disk under a checksum of its C source and
flags, and loaded with ctypes.  Where it cannot be built, :func:`load`
returns the reason as a str, and the caller runs its numpy reference.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import zlib
from pathlib import Path


def _cache_dir() -> Path:
    """The user cache directory (``$XDG_CACHE_HOME``, else ``~/.cache``)."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "radialcap"


def _compile(src: str, flags: tuple, path: Path):
    """Compile ``src`` with ``flags`` into the shared library ``path``;
    returns None, or a reason why that was not possible."""
    import subprocess  # only on a cache miss: it costs every process 0.5 MB

    name = os.environ.get("CC") or "cc"
    cc = shutil.which(name)
    if cc is None:
        return f"no C compiler: {name!r} not found (set CC to choose one)"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
        os.close(fd)
        try:
            proc = subprocess.run([cc, *flags, "-x", "c", "-", "-x", "none", "-o", tmp,
                                   "-lm"], input=src, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                return f"C compiler {cc} failed: {proc.stderr.strip()[-500:]}"
            os.replace(tmp, path)  # atomic: other processes see all or nothing
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"C compiler {cc} could not build the kernel: {exc}"
    return None


def load(src: str, flags: tuple, tag: str, symbol: str, argtypes: list):
    """The C function ``symbol`` (no return value, arguments ``argtypes``)
    of the library built from ``src`` with ``flags``, read from the on-disk
    cache file ``<tag>-<checksum>.so`` and compiled into it first on a
    miss; or a str saying why there is none."""
    # zlib checksums, not hashlib: hashlib maps OpenSSL (3.5 MB) into the process
    data = "\0".join((src,) + flags).encode()
    digest = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    path = _cache_dir() / f"{tag}-{digest}.so"
    if not path.is_file():
        reason = _compile(src, flags, path)
        if reason is not None:
            return reason
    try:
        fn = getattr(ctypes.CDLL(str(path)), symbol)
    except OSError as exc:
        return f"could not load the compiled kernel {path}: {exc}"
    fn.restype = None
    fn.argtypes = argtypes
    return fn
