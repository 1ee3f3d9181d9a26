import json
import struct
import time
import tracemalloc

import numpy as np
import pytest

from memtrack import store
from memtrack.cli import EXIT_DATA, main
from memtrack.errors import ChecksumMismatch, VersionMismatch
from memtrack.metrics import MetricsReport
from memtrack.models import ScenarioConfig
from memtrack.network import init_params, zero_params
from memtrack.simulate import generate_dataset


@pytest.fixture()
def dataset():
    return generate_dataset(ScenarioConfig(steps=12, cases=4, seed=3))


@pytest.fixture()
def path(dataset, tmp_path):
    """The dataset, written to ``d.mtds``."""
    out = tmp_path / "d.mtds"
    store.write_dataset(dataset, out)
    return out


@pytest.fixture()
def checkpoint(tmp_path):
    """``zero_params(4)``, written to ``c.mtck``."""
    out = tmp_path / "c.mtck"
    store.write_checkpoint(zero_params(4), out)
    return out


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
    def test_exact_round_trip(self, dataset, path):
        back = store.read_dataset(path)
        assert back.config == dataset.config and len(back.cases) == len(dataset.cases)
        for a, b in zip(dataset.cases, back.cases):
            np.testing.assert_array_equal(a.truth.states, b.truth.states)
            np.testing.assert_array_equal(a.truth.extents, b.truth.extents)
            np.testing.assert_array_equal(a.truth.regimes, b.truth.regimes)
            np.testing.assert_array_equal(a.truth.omegas, b.truth.omegas)
            for fa, fb in zip(a.frames, b.frames):
                np.testing.assert_array_equal(fa, fb)

    def test_byte_identical_rewrites(self, dataset, tmp_path):
        p1, p2 = tmp_path / "a.mtds", tmp_path / "b.mtds"
        store.write_dataset(dataset, p1)
        store.write_dataset(dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_detected(self, path):
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    def test_corruption_detected(self, path):
        blob = bytearray(path.read_bytes())
        blob[-8] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    def test_bad_magic_rejected(self, path):
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            store.read_dataset(path)

    def test_frames_are_point_arrays(self, path):
        for case in store.read_dataset(path).cases:
            assert len(case.frames) == 12
            for frame in case.frames:
                assert frame.dtype == np.float64 and frame.ndim == 2 and frame.shape[1] == 2
                assert frame.flags.c_contiguous and frame.flags.writeable

    def test_frames_are_consecutive_slices_of_points(self, path):
        points = _members(path)["points"]
        frames = [f for case in store.read_dataset(path).cases for f in case.frames]
        base = frames[0].base  # the decoded points member
        assert base.size == points.size
        assert all(f.base is base and np.shares_memory(f, base) for f in frames)
        np.testing.assert_array_equal(np.concatenate(frames), points)
        cases = store.read_dataset(path).cases
        assert all(np.shares_memory(c.frames.points, c.frames[0]) for c in cases)
        np.testing.assert_array_equal(np.concatenate([c.frames.points for c in cases]), points)

    def test_fewer_cases_in_header_rejected(self, path):
        _edit_archive(path, lambda h, a: a.update(omegas=a["omegas"][:3]))
        with pytest.raises(ChecksumMismatch, match="disagree"):
            store.read_dataset(path)

    def test_frame_count_beyond_body_rejected(self, path):

        def grow(header, arrays):
            arrays["frame_counts"][1, 5] += 1
        _edit_archive(path, grow)
        with pytest.raises(ChecksumMismatch, match="frame counts"):
            store.read_dataset(path)

    def test_case_count_unlike_config_rejected(self, path):
        _edit_archive(path, lambda h, a: h["config"].update(cases=3))
        with pytest.raises(ChecksumMismatch, match="config's cases"):
            store.read_dataset(path)

    def test_opens_as_npz(self, path):
        members = _members(path)
        header = json.loads(members["header"].tobytes())
        assert (header["kind"], header["format_version"]) == ("dataset", 3)
        assert sorted(members) == ["extents", "frame_counts", "header", "omegas", "points",
                                   "regimes", "states"]
        assert members["states"].shape == (4, 12, 4)
        assert members["points"].shape == (members["frame_counts"].sum(), 2)

    def test_header_byte_edit_rejected(self, path):
        _flip_stored_bytes(path, b'"seed": 3', b'"seed": 4')
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    def test_point_moved_between_frames_rejected(self, path):
        counts = _members(path)["frame_counts"]
        moved = counts.copy()
        moved[1, 5] += 1
        moved[1, 6] -= 1
        _flip_stored_bytes(path, counts.tobytes(), moved.tobytes())
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)

    def test_point_of_the_last_case_edited_rejected(self, path, tmp_path, monkeypatch):
        """Frames are cut when their case is first used, but every member is
        still read in full: a point edited in the last case fails the read,
        and a track of case 0 exits 3 without writing."""
        last = _members(path)["points"][-1]
        _flip_stored_bytes(path, last.tobytes(), (last + 1.0).tobytes())
        with pytest.raises(ChecksumMismatch):
            store.read_dataset(path)
        monkeypatch.chdir(tmp_path)
        assert main(["track", str(path), "--case", "0", "--out", "t.csv"]) == EXIT_DATA
        assert [p.name for p in tmp_path.iterdir()] == ["d.mtds"]

    @pytest.mark.parametrize("magic", [b"MTDS", b"MTCK"])
    def test_version_1_file_rejected(self, tmp_path, magic):
        path = tmp_path / "old"
        path.write_bytes(magic + struct.pack("<II", 1, 2) + b"{}" + bytes(12))
        read = store.read_dataset if magic == b"MTDS" else store.read_checkpoint
        with pytest.raises(VersionMismatch):
            read(path)

    def test_wrong_kind_or_version_rejected(self, path, checkpoint):
        with pytest.raises(VersionMismatch, match="expected checkpoint"):
            store.read_checkpoint(path)
        with pytest.raises(VersionMismatch, match="expected dataset"):
            store.read_dataset(checkpoint)
        for old in (1, 2):
            _edit_archive(path, lambda h, a: h.update(format_version=old))
            with pytest.raises(VersionMismatch, match=f"format {old}"):
                store.read_dataset(path)
        # a format-2 checkpoint's covariance head added to the prediction;
        # format 3's scales it, so the old weights would be another model
        _edit_archive(checkpoint, lambda h, a: h.update(format_version=2))
        with pytest.raises(VersionMismatch,
                           match="checkpoint format 2, expected checkpoint format 3"):
            store.read_checkpoint(checkpoint)

    def test_unparsable_header_rejected(self, path):
        members = _members(path)
        members["header"] = members["header"][:-1]
        _rewrite(path, members)
        with pytest.raises(ChecksumMismatch, match="JSONDecodeError"):
            store.read_dataset(path)

    def test_unknown_config_key_rejected(self, path):
        _edit_archive(path, lambda h, a: h["config"].update(colour="red"))
        with pytest.raises(ChecksumMismatch, match="colour"):
            store.read_dataset(path)

    def test_rejected_config_value_rejected(self, path):
        _edit_archive(path, lambda h, a: h["config"].update(steps=1))
        with pytest.raises(ChecksumMismatch, match="steps"):
            store.read_dataset(path)

    def test_config_with_segment_bounds_the_generator_cannot_honour_rejected(self, path):
        # a file written before ScenarioConfig checked its segment bounds
        _edit_archive(path, lambda h, a: h["config"].update(segment_min=0))
        with pytest.raises(ChecksumMismatch, match="segment_min"):
            store.read_dataset(path)

    @pytest.mark.parametrize("member", ["header", "points", "frame_counts"])
    def test_missing_member_rejected(self, path, member):
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

    def test_shape_table_mismatch_rejected(self, checkpoint):
        # the table is compared before anything is allocated: zero arrays
        # for memory_dim 1e6 would take about 29 TiB
        for memory_dim in (8, 1_000_000):
            _edit_archive(checkpoint, lambda h, a: h.update(memory_dim=memory_dim))
            with pytest.raises(VersionMismatch, match="shape table"):
                store.read_checkpoint(checkpoint)

    def test_masks_restored(self, tmp_path):
        path = tmp_path / "c.mtck"
        store.write_checkpoint(zero_params(4, mask_evolution=True), path)
        back = store.read_checkpoint(path)
        assert back.mask_evolution and not back.mask_update

    @pytest.mark.parametrize("edit", [
        {"masks": {"jeb": "false", "jub": 0, "mub": "no"}},
        {"masks": {"jeb": True, "jub": False, "mub": None}},
        {"memory_dim": True}, {"memory_dim": 4.0}, {"memory_dim": "4"}, {"memory_dim": 0},
        {"memory_dim": -4},
    ], ids=["mask-strings", "mask-null", "dim-bool", "dim-float", "dim-str", "dim-zero",
            "dim-negative"])
    def test_untyped_header_rejected(self, checkpoint, tmp_path, capsys, edit):
        """A mask that is not a JSON boolean (the string "false" is truthy)
        or a memory_dim that is not a positive int (True is an int to
        Python) is a corrupt header: ChecksumMismatch, exit 3."""
        _edit_archive(checkpoint, lambda h, a: h.update(edit))
        with pytest.raises(ChecksumMismatch, match="checkpoint header"):
            store.read_checkpoint(checkpoint)
        data = tmp_path / "d.mtds"
        store.write_dataset(generate_dataset(ScenarioConfig(steps=6, cases=2, seed=3)), data)
        assert main(["track", str(data), "--case", "0", "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "t.csv")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_feature_dim_beyond_body_rejected(self, checkpoint):
        _edit_archive(checkpoint, lambda h, a: a.update(feat_mean=np.zeros(19)))
        with pytest.raises(ChecksumMismatch, match="feature statistics"):
            store.read_checkpoint(checkpoint)

    def test_renamed_array_is_shape_table_mismatch(self, checkpoint):
        _edit_archive(checkpoint, lambda h, a: a.update(lstm_v=a.pop("lstm_w")))
        with pytest.raises(VersionMismatch, match="shape table"):
            store.read_checkpoint(checkpoint)

    def test_additive_measurement_head_is_shape_table_mismatch(self, checkpoint):
        def old_head(header, arrays):
            for part in ("w", "b"):
                arrays[f"upd_cov_{part}"] = arrays.pop(f"upd_scale_{part}")

        _edit_archive(checkpoint, old_head)
        with pytest.raises(VersionMismatch, match="shape table"):
            store.read_checkpoint(checkpoint)

    def test_missing_feature_statistics_rejected(self, checkpoint):
        _edit_archive(checkpoint, lambda h, a: a.pop("feat_std"))
        with pytest.raises(ChecksumMismatch, match="feat_std"):
            store.read_checkpoint(checkpoint)

    def test_rewrite_ignores_the_clock(self, tmp_path, monkeypatch):
        params = init_params(4, np.random.default_rng(1))
        p1, p2 = tmp_path / "a.mtck", tmp_path / "b.mtck"
        store.write_checkpoint(params, p1, train_config_digest="d")
        later = time.time() + 400 * 86400
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(time, "localtime", lambda secs=None: time.gmtime(later))
        store.write_checkpoint(params, p2, train_config_digest="d")
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, checkpoint):
        blob = bytearray(checkpoint.read_bytes())
        blob[blob.rfind(np.ones(18).tobytes()) + 8 * 18 - 1] ^= 0x01  # last feat_std byte
        checkpoint.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            store.read_checkpoint(checkpoint)


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
        store.write_report(rep, tmp_path / "r")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "case,step,position_error,iou,gwd"
        assert len(lines) == 1 + 4  # J * (K-1) data rows
        assert lines[1].startswith("0,0,")

    def test_empty_report_writes_column_row(self, tmp_path):
        rep = MetricsReport(per_case=[], mean_square_position_error=0.0,
                            position_rmse=0.0, mean_iou=0.0, mean_gwd=0.0,
                            peak_position_error=0.0, peak_iou=0.0, peak_gwd=0.0)
        store.write_report(rep, tmp_path / "empty")
        assert (tmp_path / "empty.csv").read_text() == "case,step,position_error,iou,gwd\n"

    def test_json_round_trip_exact(self, tmp_path):
        rep = self._report()
        store.write_report(rep, tmp_path / "r")
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["position_rmse"] == rep.position_rmse
        assert payload["mean_square_position_error"] == rep.mean_square_position_error
        assert payload["mean_iou"] == rep.mean_iou
        assert payload["peak_iou"] == rep.peak_iou


class TestWriteTable:
    def _lines(self, tmp_path, header, rows):
        store.write_table(tmp_path / "t.csv", header, rows)
        return (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()

    def test_ints_print_as_ints(self, tmp_path):
        lines = self._lines(tmp_path, ("a", "b"), [(140, -3), (0, 10**16)])
        assert lines == ["a,b", "140,-3", "0,10000000000000000"]

    def test_floats_reparse_bit_for_bit(self, tmp_path):
        values = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                  1.7976931348623157e308, 0.1]
        lines = self._lines(tmp_path, ("x",), [(v,) for v in values])
        assert lines[1:3] == ["-0", "nan"]
        back = np.array([float(line) for line in lines[1:]])
        assert back.tobytes() == np.array(values).tobytes()

    def test_str_label_passes_through(self, tmp_path):
        lines = self._lines(tmp_path, ("mode", "rmse", "n"),
                            [("baseline", 0.5, 3), ("100%", 0.25, 4)])
        assert lines == ["mode,rmse,n", "baseline,0.5,3", "100%,0.25,4"]

    def test_no_rows_is_the_header_line(self, tmp_path):
        store.write_table(tmp_path / "t.csv", ("step", "x", "y"), [])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "step,x,y\n"

    def test_mixed_table_bytes(self, tmp_path):
        rows = [("a", 3, 0.1, 2.0), ("b", -7, -0.0, 140.0), ("c", 0, 1e-300, -1.0),
                ("d", 10**16, 1 / 3, 0.0), ("e%", 1, float("inf"), 3.0)]
        store.write_table(tmp_path / "t.csv", ("mode", "n", "x", "k"), rows)
        assert (tmp_path / "t.csv").read_bytes() == (
            b"mode,n,x,k\n"
            b"a,3,0.10000000000000001,2\n"
            b"b,-7,-0,140\n"
            b"c,0,1e-300,-1\n"
            b"d,10000000000000000,0.33333333333333331,0\n"
            b"e%,1,inf,3\n")

    @pytest.mark.parametrize("rows", [[(1, 2.0), (3,)], [(1, 2.0), (3, 4.0, 5.0)],
                                      [(1, 2.0), (3,), (4, 5.0, 6.0)]],
                             ids=["short", "long", "short-then-long"])
    def test_row_of_another_length_raises(self, tmp_path, rows):
        """A short row followed by a long one holds as many values as the
        rows' template does, and must not shift columns silently."""
        with pytest.raises(TypeError):
            store.write_table(tmp_path / "t.csv", ("a", "b"), rows)
        assert not (tmp_path / "t.csv").exists()


def _traced(build):
    """``build()`` and the bytes of traced allocations it leaves alive."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestDatasetMemory:
    """A 100-case x 140-step dataset holds little beside its arrays' bytes,
    generated or read with every case's frames touched: a case's frames are
    one points array and its counts, not an array object per frame."""

    BOUND = 0.05  # of the arrays' nbytes
    CONFIG = ScenarioConfig(steps=140, cases=100, seed=5)

    @pytest.fixture(autouse=True)
    def _warm(self, path):
        """Generate and read once untraced: what the first use allocates for
        good (caches, lazy set-up) is not the dataset's."""
        store.read_dataset(path)

    def test_generated_dataset(self):
        dataset, held = _traced(lambda: generate_dataset(self.CONFIG))
        nbytes = sum(a.nbytes for c in dataset.cases
                     for a in (*vars(c.truth).values(), c.frames.points, c.frames.counts))
        assert held - nbytes < self.BOUND * nbytes

    def test_read_dataset_with_every_frame_touched(self, tmp_path):
        path = tmp_path / "large.mtds"
        store.write_dataset(generate_dataset(self.CONFIG), path)
        nbytes = sum(a.nbytes for name, a in _members(path).items() if name != "header")

        def read_and_touch():
            dataset = store.read_dataset(path)
            for case in dataset.cases:
                for _ in case.frames:
                    pass
            return dataset

        _, held = _traced(read_and_touch)
        assert held - nbytes < self.BOUND * nbytes
