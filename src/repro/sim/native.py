"""Compiled replay cores for the columnar kernels.

Each columnar kernel (:mod:`repro.sim.kernel` and friends) hands one C
function the trace's columns and the predictor's own state buffers, and
the function replays the whole trace in retirement order, updating that
state in place with the scalar loop's integer arithmetic: history
registers, hashing, table lookups and every training rule.  The kernels
keep only the marshalling and the result accounting in Python.

Three entry points live in one shared library, one C file each under
``cores/`` plus the shared ``cores/replay.h`` (the hash functions and
the lazily flushed global-history register):

``blbp_replay_many`` (``cores/blbp.c``)
    One or more BLBP lanes over one trace, each lane exactly as a solo
    replay: the interval folds and pending bits of the global history,
    the local-history registers, the weight-row hashing, the IBTB probe
    with RRIP promote or fill and region encode/decode (stale ways
    invalidated), the transferred dot product, candidate scoring, the
    per-bit adaptive thresholds and the saturating weight update.  A
    solo BLBP run is a one-lane call.
``ittage_replay`` (``cores/ittage.c``)
    ITTAGE's index, tag and tag2 folds and path register per record,
    provider/altpred selection, confidence/usefulness counters and
    allocation.  The allocation tie-breaker calls back into the
    predictor's own numpy Generator so the RNG stream stays
    bit-identical with the scalar path.
``vpc_replay`` (``cores/vpc.c``)
    VPC's virtual-PC iteration over a precomputed vpca/slot/tag table,
    together with its shared multiperspective perceptron
    (:class:`repro.cond.mpp.MultiperspectivePerceptron`): weight
    tables, global/path/local histories and adaptive threshold arrive
    as arrays and are advanced in C, so a VPC replay never re-enters
    Python.

The sources are compiled on first use with the system C compiler at
``-O3 -Wall -Wextra -Werror`` into a shared library under the user cache
directory, named by a digest of every source byte and the flags, and
loaded with :mod:`ctypes` — no build-time dependency, no new packages.
``REPRO_NATIVE_SANITIZE=1`` builds an AddressSanitizer and
UndefinedBehaviorSanitizer variant under its own digest; it loads only
when the ASan runtime is preloaded (``LD_PRELOAD``).  There is no
interpreted fallback: when the library cannot be built or loaded,
:func:`unavailable_reason` says why (no compiler, the compiler's exit
status and first stderr line, a sanitized build without its runtime,
or the ``dlopen`` error), and :func:`repro.sim.kernel.columnar_support`
reports that reason so callers run the scalar oracle instead.
Concurrent builders (dist worker pools on one node) race benignly: each
compiles into a private temp file and atomically publishes with
``os.replace``, and a builder whose own compile fails re-checks for a
concurrently published library before giving up.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Dict, List, Optional

__all__ = [
    "available",
    "load",
    "unavailable_reason",
    "cache_dir",
    "RNG_CALLBACK",
]

#: The one callback crossing the C boundary: ITTAGE's allocation
#: tie-breaker draws from the predictor's numpy Generator.
RNG_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_double)

#: The C sources, shipped as package data next to this module.
_SOURCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cores")
_SOURCES = ("blbp.c", "ittage.c", "vpc.c")
_HEADERS = ("replay.h",)

_CFLAGS = [
    "-O3", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC", "-std=c99",
]

#: ``REPRO_NATIVE_SANITIZE=1`` builds a separate AddressSanitizer and
#: UndefinedBehaviorSanitizer library (its own digest).
_SANITIZE_ENV = "REPRO_NATIVE_SANITIZE"
_SANITIZE_FLAGS = ["-fsanitize=address,undefined", "-fno-omit-frame-pointer"]

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

#: (restype, argtypes) per exported function; `load(name)` applies them.
_SIGNATURES: Dict[str, tuple] = {
    "blbp_replay_many": (
        _I64,                               # 0, or -1 out of memory
        [
            _I64, _PTR,                     # lanes, blbp_lane_t[lanes]
            _I64,                           # records
            _PTR, _PTR, _PTR, _PTR,         # types, pcs, takens, targets
        ],
    ),
    "ittage_replay": (
        _I64,                               # 0, or -1 out of memory
        [
            _I64,                           # records
            _PTR, _PTR, _PTR, _PTR,         # types, pcs, takens, targets
            _PTR,                           # ittage_t
            RNG_CALLBACK,                   # allocation tie-breaker
        ],
    ),
    "vpc_replay": (
        None,
        [
            _I64,                           # events
            _PTR, _PTR, _PTR, _PTR,         # kinds, ev_a, ev_taken, targets
            _I64, _I64,                     # max_iter, fallback
            _PTR, _PTR, _PTR,               # vpcas, slots, vtags
            _PTR, _PTR, _PTR,               # btb tags/targets/ticks
            _PTR,                           # counters [clock, count, misp]
            _PTR, _PTR, _PTR, _PTR,         # MPP geometry, kinds, params, tables
            _PTR, _PTR, _PTR, _PTR,         # MPP ghist, path, local, state
            _PTR, _PTR,                     # predictions, valid_out
        ],
    ),
}

_lib: Optional[ctypes.CDLL] = None
_fns: Dict[str, object] = {}
_attempted = False
#: Why the build or load attempt failed; read only while ``_lib`` is None.
_failure: Optional[str] = None


def cache_dir() -> str:
    """Directory holding the content-addressed compiled libraries."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-columnar")


def _compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not name:
            continue
        for root in os.environ.get("PATH", "").split(os.pathsep):
            candidate = os.path.join(root, name)
            if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
                return name
    return None


def _flags() -> List[str]:
    flags = list(_CFLAGS)
    if os.environ.get(_SANITIZE_ENV) == "1":
        flags += _SANITIZE_FLAGS
    return flags


def _digest(flags: List[str]) -> str:
    """Content address of the library: every shipped source byte plus
    the compiler flags."""
    digest = hashlib.sha256("\0".join(flags).encode())
    for name in _HEADERS + _SOURCES:
        with open(os.path.join(_SOURCE_DIR, name), "rb") as handle:
            digest.update(b"\0" + name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _build() -> Optional[str]:
    """Compile the replay cores, once, into the shared cache.

    Returns the library path, or None on failure with the reason in
    ``_failure``.  Safe under concurrent builders (dist worker pools
    sharing one cache): each compiles into a private mkstemp file and
    publishes with an atomic ``os.replace``; a builder whose own compile
    fails re-checks whether a concurrent builder already published the
    library before giving up, so transient contention never blacklists
    the compiled path for the whole process.
    """
    global _failure
    flags = _flags()
    sanitized = flags != _CFLAGS
    if sanitized and "asan" not in os.environ.get("LD_PRELOAD", ""):
        _failure = (
            f"{_SANITIZE_ENV}=1 builds the cores with AddressSanitizer, "
            f"whose runtime must load before Python: run with "
            f"LD_PRELOAD=$(cc -print-file-name=libasan.so) "
            f"ASAN_OPTIONS=detect_leaks=0"
        )
        return None
    try:
        digest = _digest(flags)
    except OSError as exc:
        _failure = f"reading the C sources failed: {exc}"
        return None
    directory = cache_dir()
    path = os.path.join(directory, f"replay_{digest}.so")
    if os.path.exists(path):
        return path
    compiler = _compiler()
    if compiler is None:
        _failure = (
            "no C compiler found (tried $CC, cc, gcc and clang on PATH)"
        )
        return None
    sources = [os.path.join(_SOURCE_DIR, name) for name in _SOURCES]
    what = f"the sanitized build ({_SANITIZE_ENV}=1): " if sanitized else ""
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp_so = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            result = subprocess.run(
                [compiler, *flags, "-o", temp_so, *sources],
                capture_output=True,
                timeout=120,
            )
            if result.returncode != 0:
                stderr = result.stderr.decode(errors="replace").strip()
                first = stderr.splitlines()[0] if stderr else "no stderr"
                _failure = (
                    f"{what}{compiler} exited with status "
                    f"{result.returncode}: {first}"
                )
                return path if os.path.exists(path) else None
            # Atomic publish: concurrent builders race benignly.
            os.replace(temp_so, path)
        finally:
            try:
                os.unlink(temp_so)
            except OSError:
                pass
        return path
    except (OSError, subprocess.SubprocessError) as exc:
        _failure = f"{what}building with {compiler} failed: {exc}"
        # A concurrent builder may have published while we failed.
        return path if os.path.exists(path) else None


def _load_library() -> Optional[ctypes.CDLL]:
    global _lib, _attempted, _failure
    if _lib is not None:
        return _lib
    if _attempted:
        return None
    _attempted = True
    path = _build()
    if path is None:
        return None
    try:
        _lib = ctypes.CDLL(path)
    except OSError as exc:
        _failure = f"loading {path} failed: {exc}"
    return _lib


def load(name: str):
    """The compiled replay entry point ``name``, or None if unavailable.

    Compilation happens at most once per process; a failure (no
    compiler, a failed compile, a library that will not load) is
    remembered, and :func:`unavailable_reason` reports it.
    """
    fn = _fns.get(name)
    if fn is not None:
        return fn
    signature = _SIGNATURES.get(name)
    if signature is None:
        raise ValueError(f"unknown replay core {name!r}")
    lib = _load_library()
    if lib is None:
        return None
    fn = getattr(lib, name)
    fn.restype, fn.argtypes = signature
    _fns[name] = fn
    return fn


def available() -> bool:
    """Whether the compiled replay cores can be used in this process."""
    return _load_library() is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled replay cores are unavailable, or None if they are."""
    return None if available() else _failure


def loaded_functions() -> List[str]:
    """Names of the compiled entry points available in this process."""
    return [name for name in _SIGNATURES if load(name) is not None]
