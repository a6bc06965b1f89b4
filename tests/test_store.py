"""Tests for the content-addressed on-disk artifact store."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.store
from repro.store import (
    STORE_ENOSPC_ENV,
    ContentStore,
    cache_enabled,
    default_cache_dir,
    digest_arrays,
    digest_parts,
)


@pytest.fixture(autouse=True)
def _disk_cache_on(monkeypatch):
    """These tests exercise the disk store itself, so a caller's
    ``REPRO_NO_DISK_CACHE`` must not switch it off under them."""
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)


@pytest.fixture()
def store(tmp_path):
    return ContentStore(root=tmp_path, namespace="test")


class TestDigests:
    def test_digest_parts_distinguishes_values(self):
        assert digest_parts("a", 1) != digest_parts("a", 2)
        assert digest_parts("a", 1) != digest_parts("b", 1)
        # Floats digest via repr: close-but-distinct values never alias.
        assert digest_parts(0.1) != digest_parts(0.1 + 1e-12)

    def test_digest_parts_is_stable(self):
        assert digest_parts("ns", 3, True) == digest_parts("ns", 3, True)

    def test_digest_arrays_sensitive_to_dtype_shape_and_bytes(self):
        a = np.arange(6, dtype=np.int64)
        assert digest_arrays(a) == digest_arrays(a.copy())
        assert digest_arrays(a) != digest_arrays(a.astype(np.int32))
        assert digest_arrays(a) != digest_arrays(a.reshape(2, 3))
        b = a.copy()
        b[0] = 99
        assert digest_arrays(a) != digest_arrays(b)
        assert digest_arrays(a, extra="x") != digest_arrays(a, extra="y")


class TestJsonEntries:
    def test_round_trip(self, store):
        key = digest_parts("k", 1)
        assert store.get_json(key) is None
        store.put_json(key, {"hits": 3, "misses": 1})
        assert store.get_json(key) == {"hits": 3, "misses": 1}

    def test_corrupt_entry_is_a_miss_and_quarantined(self, store):
        key = digest_parts("k", 2)
        store.put_json(key, {"ok": True})
        path = store.path_for(key, "json")
        path.write_text("{truncated")
        assert store.get_json(key) is None
        # the evidence is moved to corrupt/, never deleted or re-read
        assert not path.exists()
        assert (store.corrupt_dir / path.name).read_text() == "{truncated"

    def test_non_dict_payload_rejected(self, store):
        key = digest_parts("k", 3)
        path = store.path_for(key, "json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]")
        assert store.get_json(key) is None

    def test_bit_flip_in_payload_is_a_miss(self, store):
        key = digest_parts("k", 5)
        store.put_json(key, {"mflops": 24.55})
        path = store.path_for(key, "json")
        # valid JSON, valid frame shape — but the payload no longer
        # matches its recorded sha256, so the read must reject it.
        frame = json.loads(path.read_text())
        frame["payload"]["mflops"] = 9999.0
        path.write_text(json.dumps(frame))
        assert store.get_json(key) is None
        assert (store.corrupt_dir / path.name).exists()

    def test_legacy_unsealed_entry_is_a_miss(self, store):
        key = digest_parts("k", 6)
        path = store.path_for(key, "json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"mflops": 24.55}')  # pre-integrity format
        assert store.get_json(key) is None
        assert (store.corrupt_dir / path.name).exists()

    def test_two_level_fanout(self, store):
        key = digest_parts("k", 4)
        store.put_json(key, {})
        assert store.path_for(key, "json").parent.name == key[:2]


class TestArrayEntries:
    def test_round_trip(self, store):
        key = digest_parts("a", 1)
        assert store.get_arrays(key) is None
        store.put_arrays(key, x=np.arange(5), y=np.ones((2, 2)))
        bundle = store.get_arrays(key)
        np.testing.assert_array_equal(bundle["x"], np.arange(5))
        np.testing.assert_array_equal(bundle["y"], np.ones((2, 2)))

    def test_corrupt_bundle_is_a_miss(self, store):
        key = digest_parts("a", 2)
        store.put_arrays(key, x=np.arange(5))
        path = store.path_for(key, "npz")
        path.write_bytes(b"not an npz")
        assert store.get_arrays(key) is None
        assert (store.corrupt_dir / path.name).exists()

    def test_truncated_bundle_is_a_miss(self, store):
        key = digest_parts("a", 3)
        store.put_arrays(key, x=np.arange(512, dtype=np.float64))
        path = store.path_for(key, "npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert store.get_arrays(key) is None
        assert (store.corrupt_dir / path.name).exists()

    def test_missing_seal_is_a_miss(self, store):
        key = digest_parts("a", 4)
        path = store.path_for(key, "npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        import io

        buf = io.BytesIO()
        np.savez(buf, x=np.arange(5))  # legacy bundle: no __sha256__
        path.write_bytes(buf.getvalue())
        assert store.get_arrays(key) is None
        assert (store.corrupt_dir / path.name).exists()

    def test_seal_name_is_reserved(self, store):
        with pytest.raises(ValueError, match="reserved"):
            store.put_arrays(digest_parts("a", 5), __sha256__=np.arange(3))

    def test_quarantine_preserves_round_trip_after_rewrite(self, store):
        key = digest_parts("a", 6)
        store.put_arrays(key, x=np.arange(4))
        store.path_for(key, "npz").write_bytes(b"junk")
        assert store.get_arrays(key) is None
        store.put_arrays(key, x=np.arange(4))  # recompute-and-rewrite
        np.testing.assert_array_equal(store.get_arrays(key)["x"], np.arange(4))


class TestFailedWrites:
    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        monkeypatch.setattr(repro.store, "_WARNED_ERRNOS", set())

    def test_enospc_warns_once_and_drops_the_entry(self, store, monkeypatch):
        monkeypatch.setenv(STORE_ENOSPC_ENV, "1")
        key = digest_parts("k", 1)
        with pytest.warns(RuntimeWarning, match="no space left"):
            store.put_json(key, {"doomed": True})
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store.put_json(key, {"doomed": True})  # second failure: silent
            store.put_arrays(digest_parts("a", 1), x=np.arange(3))
        assert not [w for w in caught if "no space left" in str(w.message)]
        assert store.get_json(key) is None

    def test_enospc_leaves_no_temp_files(self, store, monkeypatch):
        monkeypatch.setenv(STORE_ENOSPC_ENV, "1")
        with pytest.warns(RuntimeWarning):
            store.put_json(digest_parts("k", 2), {"doomed": True})
        assert not list(store.root.rglob("*.tmp"))

    def test_recovery_after_space_returns(self, store, monkeypatch):
        monkeypatch.setenv(STORE_ENOSPC_ENV, "1")
        key = digest_parts("k", 3)
        with pytest.warns(RuntimeWarning):
            store.put_json(key, {"v": 1})
        monkeypatch.delenv(STORE_ENOSPC_ENV)
        store.put_json(key, {"v": 2})
        assert store.get_json(key) == {"v": 2}


class TestEnvControl:
    def test_disable_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert not cache_enabled()
        store = ContentStore(root=tmp_path, namespace="off")
        key = digest_parts("k", 1)
        store.put_json(key, {"dropped": True})
        assert not any(tmp_path.rglob("*.json"))
        monkeypatch.delenv("REPRO_NO_DISK_CACHE")
        assert cache_enabled()
        assert store.get_json(key) is None  # nothing was ever written

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachehome"))
        assert default_cache_dir() == tmp_path / "cachehome"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().name == "repro"
