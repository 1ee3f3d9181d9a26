import json
import struct
import time

import numpy as np
import pytest

from memtrack import store
from memtrack.errors import ChecksumMismatch, VersionMismatch
from memtrack.metrics import MetricsReport
from memtrack.models import ScenarioConfig
from memtrack.network import init_params, zero_params
from memtrack.simulate import generate_dataset


@pytest.fixture()
def dataset():
    return generate_dataset(ScenarioConfig(steps=12, cases=4, seed=3))


def _members(path) -> dict:
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _rewrite(path, members) -> None:
    """Write ``members`` as a fresh archive whose CRCs all hold."""
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def _edit_archive(path, edit) -> None:
    """Let ``edit(header, arrays)`` change a decoded archive, then rewrite it
    with valid CRCs, so that only the reader's own checks can reject it."""
    members = _members(path)
    header = json.loads(members.pop("header").tobytes())
    edit(header, members)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    _rewrite(path, {"header": np.frombuffer(text, dtype=np.uint8), **members})


def _flip_stored_bytes(path, old: bytes, new: bytes) -> None:
    """Replace the one stored occurrence of ``old`` in place; CRCs stay as written."""
    blob = path.read_bytes()
    assert blob.count(old) == 1 and len(old) == len(new)
    path.write_bytes(blob.replace(old, new))


class TestDatasetRoundTrip:
    def test_exact_round_trip(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        back = store.read_dataset(path)
        assert back.master_seed == dataset.master_seed
        assert back.config == dataset.config
        np.testing.assert_array_equal(back.train_idx, dataset.train_idx)
        np.testing.assert_array_equal(back.test_idx, dataset.test_idx)
        for a, b in zip(dataset.cases, back.cases):
            np.testing.assert_array_equal(a.truth.states, b.truth.states)
            np.testing.assert_array_equal(a.truth.extents, b.truth.extents)
            np.testing.assert_array_equal(a.truth.regimes, b.truth.regimes)
            np.testing.assert_array_equal(a.truth.omegas, b.truth.omegas)
            assert a.seed_entropy == b.seed_entropy
            for fa, fb in zip(a.frames, b.frames):
                np.testing.assert_array_equal(fa, fb)

    def test_byte_identical_rewrites(self, dataset, tmp_path):
        p1, p2 = tmp_path / "a.mtds", tmp_path / "b.mtds"
        store.write_dataset(dataset, p1)
        store.write_dataset(dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_detected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    def test_corruption_detected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        blob = bytearray(path.read_bytes())
        blob[-8] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    def test_bad_magic_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            store.read_dataset(path)

    def test_frames_are_point_arrays(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        for case in store.read_dataset(path).cases:
            assert len(case.frames) == 12
            for frame in case.frames:
                assert frame.dtype == np.float64 and frame.ndim == 2 and frame.shape[1] == 2
                assert frame.flags.c_contiguous and frame.flags.writeable

    def test_fewer_cases_in_header_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        _edit_archive(path, lambda h, a: a.update(omegas=a["omegas"][:3]))
        with pytest.raises(ChecksumMismatch, match="disagree"):
            store.read_dataset(path)

    def test_frame_count_beyond_body_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)

        def grow(header, arrays):
            arrays["frame_counts"][1, 5] += 1
        _edit_archive(path, grow)
        with pytest.raises(ChecksumMismatch, match="frame counts"):
            store.read_dataset(path)

    def test_test_index_past_cases_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        _edit_archive(path, lambda h, a: a.update(test_idx=np.array([9])))
        with pytest.raises(ChecksumMismatch, match="split index"):
            store.read_dataset(path)

    def test_negative_train_index_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)

        def negate_last(header, arrays):
            arrays["train_idx"][-1] = -1
        _edit_archive(path, negate_last)
        with pytest.raises(ChecksumMismatch, match="split index"):
            store.read_dataset(path)

    def test_opens_as_npz(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        members = _members(path)
        header = json.loads(members["header"].tobytes())
        assert (header["kind"], header["format_version"]) == ("dataset", 2)
        assert members["states"].shape == (4, 12, 4)
        assert members["points"].shape == (members["frame_counts"].sum(), 2)

    def test_header_byte_edit_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        _flip_stored_bytes(path, b'"master_seed": 3', b'"master_seed": 4')
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    def test_point_moved_between_frames_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        counts = _members(path)["frame_counts"]
        moved = counts.copy()
        moved[1, 5] += 1
        moved[1, 6] -= 1
        _flip_stored_bytes(path, counts.tobytes(), moved.tobytes())
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    @pytest.mark.parametrize("magic", [b"MTDS", b"MTCK"])
    def test_version_1_file_rejected(self, tmp_path, magic):
        path = tmp_path / "old"
        path.write_bytes(magic + struct.pack("<II", 1, 2) + b"{}" + bytes(12))
        read = store.read_dataset if magic == b"MTDS" else store.read_checkpoint
        with pytest.raises(VersionMismatch):
            read(path)

    def test_wrong_kind_or_version_rejected(self, dataset, tmp_path):
        ds, ck = tmp_path / "d.mtds", tmp_path / "c.mtck"
        store.write_dataset(dataset, ds)
        store.write_checkpoint(zero_params(4), ck)
        with pytest.raises(VersionMismatch, match="expected checkpoint"):
            store.read_checkpoint(ds)
        with pytest.raises(VersionMismatch, match="expected dataset"):
            store.read_dataset(ck)
        _edit_archive(ds, lambda h, a: h.update(format_version=1))
        with pytest.raises(VersionMismatch, match="format 1"):
            store.read_dataset(ds)

    def test_unparsable_header_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        members = _members(path)
        members["header"] = members["header"][:-1]
        _rewrite(path, members)
        with pytest.raises(ChecksumMismatch, match="JSONDecodeError"):
            store.read_dataset(path)

    def test_unknown_config_key_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        _edit_archive(path, lambda h, a: h["config"].update(colour="red"))
        with pytest.raises(ChecksumMismatch, match="colour"):
            store.read_dataset(path)

    def test_rejected_config_value_rejected(self, dataset, tmp_path):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        _edit_archive(path, lambda h, a: h["config"].update(steps=1))
        with pytest.raises(ChecksumMismatch, match="steps"):
            store.read_dataset(path)

    @pytest.mark.parametrize("member", ["header", "points", "test_idx"])
    def test_missing_member_rejected(self, dataset, tmp_path, member):
        path = tmp_path / "d.mtds"
        store.write_dataset(dataset, path)
        members = _members(path)
        del members[member]
        _rewrite(path, members)
        with pytest.raises(ChecksumMismatch, match=member):
            store.read_dataset(path)

    def test_rewrite_ignores_the_clock(self, dataset, tmp_path, monkeypatch):
        p1, p2 = tmp_path / "a.mtds", tmp_path / "b.mtds"
        store.write_dataset(dataset, p1)
        later = time.time() + 400 * 86400
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(time, "localtime", lambda secs=None: time.gmtime(later))
        store.write_dataset(dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCheckpointRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = init_params(6, rng, mask_update=True)
        params.feat_mean = rng.standard_normal(18)
        params.feat_std = np.abs(rng.standard_normal(18)) + 0.1
        path = tmp_path / "c.mtck"
        store.write_checkpoint(params, path, train_config_digest="abc123")
        back = store.read_checkpoint(path)
        assert back.memory_dim == 6
        assert back.mask_update and not back.mask_evolution and not back.mask_memory
        for name in params.arrays:
            np.testing.assert_array_equal(params.arrays[name], back.arrays[name])
        np.testing.assert_array_equal(params.feat_mean, back.feat_mean)
        np.testing.assert_array_equal(params.feat_std, back.feat_std)

    def test_shape_table_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.mtck"
        store.write_checkpoint(zero_params(4), path)
        _edit_archive(path, lambda h, a: h.update(memory_dim=8))
        with pytest.raises(VersionMismatch, match="shape table"):
            store.read_checkpoint(path)

    def test_masks_restored(self, tmp_path):
        path = tmp_path / "c.mtck"
        store.write_checkpoint(zero_params(4, mask_evolution=True), path)
        back = store.read_checkpoint(path)
        assert back.mask_evolution and not back.mask_update

    def test_feature_dim_beyond_body_rejected(self, tmp_path):
        path = tmp_path / "c.mtck"
        store.write_checkpoint(zero_params(4), path)
        _edit_archive(path, lambda h, a: a.update(feat_mean=np.zeros(19)))
        with pytest.raises(ChecksumMismatch, match="feature statistics"):
            store.read_checkpoint(path)

    def test_renamed_array_is_shape_table_mismatch(self, tmp_path):
        path = tmp_path / "c.mtck"
        store.write_checkpoint(zero_params(4), path)
        _edit_archive(path, lambda h, a: a.update(lstm_v=a.pop("lstm_w")))
        with pytest.raises(VersionMismatch, match="shape table"):
            store.read_checkpoint(path)

    def test_missing_feature_statistics_rejected(self, tmp_path):
        path = tmp_path / "c.mtck"
        store.write_checkpoint(zero_params(4), path)
        _edit_archive(path, lambda h, a: a.pop("feat_std"))
        with pytest.raises(ChecksumMismatch, match="feat_std"):
            store.read_checkpoint(path)

    def test_rewrite_ignores_the_clock(self, tmp_path, monkeypatch):
        params = init_params(4, np.random.default_rng(1))
        p1, p2 = tmp_path / "a.mtck", tmp_path / "b.mtck"
        store.write_checkpoint(params, p1, train_config_digest="d")
        later = time.time() + 400 * 86400
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(time, "localtime", lambda secs=None: time.gmtime(later))
        store.write_checkpoint(params, p2, train_config_digest="d")
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "c.mtck"
        store.write_checkpoint(zero_params(4), path)
        blob = bytearray(path.read_bytes())
        blob[blob.rfind(np.ones(18).tobytes()) + 8 * 18 - 1] ^= 0x01  # last feat_std byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            store.read_checkpoint(path)


class TestReports:
    def _report(self):
        series = [np.array([[0.5, 0.9, 0.1], [1.5, 0.7, 0.3]]),
                  np.array([[0.2, 0.95, 0.05], [0.8, 0.85, 0.2]])]
        stacked = np.concatenate(series)
        mse = float(np.mean(stacked[:, 0] ** 2))
        return MetricsReport(
            per_case=series,
            mean_square_position_error=mse,
            position_rmse=float(np.sqrt(mse)),
            mean_iou=float(np.mean(stacked[:, 1])),
            mean_gwd=float(np.mean(stacked[:, 2])),
            peak_position_error=float(np.max(stacked[:, 0])),
            peak_iou=float(np.min(stacked[:, 1])),
            peak_gwd=float(np.max(stacked[:, 2])),
        )

    def test_csv_rows(self, tmp_path):
        rep = self._report()
        path = tmp_path / "r.csv"
        store.write_report(rep, path, "csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "case,step,position_error,iou,gwd"
        assert len(lines) == 1 + 4  # J * (K-1) data rows
        assert lines[1].startswith("0,0,")

    def test_empty_report_writes_column_row(self, tmp_path):
        rep = MetricsReport(per_case=[], mean_square_position_error=0.0,
                            position_rmse=0.0, mean_iou=0.0, mean_gwd=0.0,
                            peak_position_error=0.0, peak_iou=0.0, peak_gwd=0.0)
        path = tmp_path / "empty.csv"
        store.write_report(rep, path, "csv")
        assert path.read_text().strip() == "case,step,position_error,iou,gwd"

    def test_json_round_trip_exact(self, tmp_path):
        import json
        rep = self._report()
        path = tmp_path / "r.json"
        store.write_report(rep, path, "json")
        payload = json.loads(path.read_text())
        assert payload["position_rmse"] == rep.position_rmse
        assert payload["mean_square_position_error"] == rep.mean_square_position_error
        assert payload["mean_iou"] == rep.mean_iou
        assert payload["peak_iou"] == rep.peak_iou

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            store.write_report(self._report(), tmp_path / "x.bin", "parquet")
