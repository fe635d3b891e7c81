"""The compiled-replay loader: entry points, failure reasons, build races.

The race regression pinned here: a builder whose own compile fails (a
transient error while another process held the toolchain, say) must
re-check whether a concurrent builder already published the
content-addressed library before giving up — a failed compile with a
published library present still resolves, and a failed compile with
nothing published leaves the cores unavailable without raising, with
the reason recorded for :func:`repro.sim.kernel.columnar_support`.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import pytest

from repro.sim import native

_ENTRY_POINTS = {
    "blbp_replay_many",
    "ittage_replay",
    "vpc_replay",
}


class TestLoader:
    def test_all_entry_points_available(self):
        if not native.available():
            pytest.skip("no C compiler in this environment")
        assert set(native.loaded_functions()) == _ENTRY_POINTS

    def test_unknown_entry_point_rejected(self):
        with pytest.raises(ValueError, match="unknown replay core"):
            native.load("nonexistent_replay")


class TestBuildRace:
    def test_failed_compile_finds_concurrently_published_library(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        """Our compile fails, but a concurrent builder published the
        library meanwhile: the build must resolve to it, not blacklist
        the compiled path for the whole process."""
        real = native._build()
        if real is None:
            pytest.skip("no C compiler in this environment")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        expected = os.path.join(
            native.cache_dir(), os.path.basename(real)
        )

        def racing_run(cmd, capture_output=True, timeout=None):
            # The "concurrent builder" publishes while we fail.
            os.makedirs(os.path.dirname(expected), exist_ok=True)
            shutil.copy(real, expected)
            return subprocess.CompletedProcess(cmd, 1, b"", b"flaky cc")

        monkeypatch.setattr(native.subprocess, "run", racing_run)
        assert native._build() == expected
        assert native.load("blbp_replay_many") is not None
        assert native.unavailable_reason() is None

    def test_failed_compile_without_publish_falls_back(
        self, failed_build
    ):
        assert native._build() is None
        assert native.load("blbp_replay_many") is None
        assert not native.available()
        assert native.unavailable_reason() == failed_build


class TestFailureReasons:
    def test_no_compiler_named(self, monkeypatch, tmp_path, fresh_loader):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        monkeypatch.setenv("CC", "no-such-cc")
        assert not native.available()
        reason = native.unavailable_reason()
        assert "no C compiler found" in reason
        for name in ("CC", "cc", "gcc", "clang"):
            assert name in reason

    def test_dlopen_error_named(self, monkeypatch, tmp_path, fresh_loader):
        """A published library that will not load reports the dlopen
        error (here: a file that is not a shared object)."""
        bogus = tmp_path / "bogus.so"
        bogus.write_bytes(b"not an ELF file")
        monkeypatch.setattr(native, "_build", lambda: str(bogus))
        assert native.load("ittage_replay") is None
        reason = native.unavailable_reason()
        assert reason.startswith(f"loading {bogus} failed:")


class TestSources:
    def test_digest_covers_every_source_byte_and_the_flags(
        self, monkeypatch, tmp_path
    ):
        """Editing any shipped .c or .h file, or the flags, names a new
        library."""
        sources = tmp_path / "cores"
        shutil.copytree(native._SOURCE_DIR, sources)
        monkeypatch.setattr(native, "_SOURCE_DIR", str(sources))
        flags = native._flags()
        seen = {native._digest(flags)}
        for name in native._HEADERS + native._SOURCES:
            path = sources / name
            path.write_bytes(path.read_bytes() + b"\n")
            seen.add(native._digest(flags))
        seen.add(native._digest(flags + ["-g"]))
        assert len(seen) == 2 + len(native._HEADERS + native._SOURCES)

    def test_sources_build_warning_free(self):
        """The loaded cores compiled under -Wall -Wextra -Werror."""
        if not native.available():
            pytest.skip("no C compiler in this environment")
        assert {"-Wall", "-Wextra", "-Werror"} <= set(native._CFLAGS)


class TestSanitizedBuild:
    def test_own_digest(self, monkeypatch):
        plain = native._digest(native._flags())
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        assert native._flags()[-len(native._SANITIZE_FLAGS):] == (
            native._SANITIZE_FLAGS
        )
        assert native._digest(native._flags()) != plain

    def test_needs_the_preloaded_runtime(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        """Without the ASan runtime loaded first, the sanitized cores
        are unavailable and the reason says how to run them."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        monkeypatch.delenv("LD_PRELOAD", raising=False)
        assert native.load("blbp_replay_many") is None
        reason = native.unavailable_reason()
        assert "REPRO_NATIVE_SANITIZE=1" in reason
        assert "LD_PRELOAD" in reason
        assert not os.listdir(tmp_path)

    def test_rejected_flags_are_named(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        """A compiler that refuses the sanitizer flags leaves the cores
        unavailable with the sanitized build named in the reason."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        monkeypatch.setenv("LD_PRELOAD", "libasan.so")

        def refusing_run(cmd, capture_output=True, timeout=None):
            return subprocess.CompletedProcess(
                cmd, 1, b"", b"cc: error: unrecognized -fsanitize"
            )

        monkeypatch.setattr(native.subprocess, "run", refusing_run)
        if native._compiler() is None:
            pytest.skip("no C compiler in this environment")
        assert native.load("ittage_replay") is None
        reason = native.unavailable_reason()
        assert reason.startswith("the sanitized build (REPRO_NATIVE_SANITIZE=1)")
        assert "unrecognized -fsanitize" in reason
