"""End-to-end CLI coverage on desk-scale data."""

import argparse
import json
import re
import struct
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from memtrack import cli, training
from memtrack.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from memtrack.config import ConfigView
from memtrack.store import read_checkpoint, read_dataset


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["simulate", "--out", str(out), "--seed", "5", "--cases", "8",
               "--steps", "20", "--levels", "0.4:0.6"])
    assert rc == EXIT_OK
    return out / "dataset_sw0.4_sv0.6.mtds"


class TestSimulate:
    def test_writes_requested_levels(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--seed", "1", "--cases", "3",
                   "--steps", "8", "--levels", "0.4:0.6,1:1.2"])
        assert rc == EXIT_OK
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["dataset_sw0.4_sv0.6.mtds", "dataset_sw1_sv1.2.mtds"]
        ds = read_dataset(tmp_path / "dataset_sw1_sv1.2.mtds")
        assert ds.config.sigma_v == 1.2 and len(ds.cases) == 3

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["simulate", "--out", str(out), "--seed", "9", "--cases", "2",
                       "--steps", "6", "--levels", "0.4:0.6"])
            assert rc == EXIT_OK
        fa = (a / "dataset_sw0.4_sv0.6.mtds").read_bytes()
        fb = (b / "dataset_sw0.4_sv0.6.mtds").read_bytes()
        assert fa == fb

    def test_bad_levels_is_config_error(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--levels", "nonsense"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("extra", [
        ["--levels", "a:b"],
        ["--levels", "0:0.6"],
        ["--steps", "1"],
        ["--seed", "-1"],
        ["--cases", "0"],
        ["--levels", "0.4:inf"],
        ["--levels", "nan:0.6"],
    ])
    def test_bad_value_is_config_error(self, tmp_path, extra):
        rc = main(["simulate", "--out", str(tmp_path), "--cases", "2", *extra])
        assert rc == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_white_accel_noise(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("[scenario]\nprocess_noise = white_accel\nregimes = cv\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--out", str(out), "--config", str(cfg), "--cases", "2",
                   "--steps", "6", "--levels", "0.4:0.6"])
        assert rc == EXIT_OK
        assert read_dataset(out / "dataset_sw0.4_sv0.6.mtds").config.process_noise \
            == "white_accel"


class TestTrain:
    def test_zero_lr_checkpoint_equals_init(self, small_dataset, tmp_path):
        ck = tmp_path / "a.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--epochs", "1",
                   "--lr", "0", "--folds", "1", "--memory-dim", "4", "--seed", "3"])
        assert rc == EXIT_OK
        params = read_checkpoint(ck)
        # heads stay at their calibrated-zero setting when nothing moves
        assert np.all(params.arrays["evo_shift_w"] == 0.0)
        assert np.all(params.arrays["upd_cov_b"] == 0.0)
        history = (tmp_path / "a.mtck.history.csv").read_text().strip().splitlines()
        assert history[0].startswith("fold,epoch,")
        assert len(history) == 2  # one (fold, epoch) row

    def test_mask_recorded_in_checkpoint(self, small_dataset, tmp_path):
        ck = tmp_path / "m.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--epochs", "1",
                   "--lr", "0", "--folds", "1", "--memory-dim", "4",
                   "--mask", "mub,jeb"])
        assert rc == EXIT_OK
        params = read_checkpoint(ck)
        assert params.mask_memory and params.mask_evolution and not params.mask_update

    def test_unknown_mask_token(self, small_dataset, tmp_path):
        rc = main(["train", str(small_dataset), "--out", str(tmp_path / "x.mtck"),
                   "--mask", "everything"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("extra", [["--epochs", "0"], ["--memory-dim", "-3"],
                                       ["--batch", "0"], ["--seed", "-1"],
                                       ["--lr", "nan"], ["--lr", "inf"]])
    def test_out_of_range_is_config_error(self, small_dataset, tmp_path, extra):
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), *extra])
        assert rc == EXIT_CONFIG
        assert not ck.exists()

    @pytest.mark.parametrize("setting", ["learning_rate = nan", "clip = nan", "clip = inf"])
    def test_non_finite_config_value_is_config_error(self, small_dataset, tmp_path, setting):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(f"[train]\n{setting}\n")
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert not ck.exists()

    def test_more_folds_than_sequences_is_config_error(self, small_dataset, tmp_path, capsys):
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--folds", "20",
                   "--epochs", "1", "--memory-dim", "4"])
        assert rc == EXIT_CONFIG
        assert "20 folds" in capsys.readouterr().err
        assert not ck.exists()

    def test_degenerate_history_polygon_is_config_error(self, small_dataset, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[train]\nhistory_polygon = 2\n")
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert not ck.exists()

    def test_no_finite_validation_loss_is_numeric_error(self, small_dataset, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(training, "_validation_scores",
                            lambda *a: (float("inf"), float("nan"), float("nan"), float("nan")))
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--epochs", "1",
                   "--folds", "1", "--memory-dim", "4"])
        assert rc == EXIT_NUMERIC
        assert not ck.exists()

    def test_history_rows_per_fold_epoch(self, small_dataset, tmp_path):
        ck = tmp_path / "f.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--epochs", "2",
                   "--lr", "0", "--folds", "2", "--memory-dim", "4"])
        assert rc == EXIT_OK
        rows = (tmp_path / "f.mtck.history.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        folds = sorted(int(r.split(",")[0]) for r in rows)
        assert folds == [0, 0, 1, 1]

    def test_history_header_is_epoch_record_fields(self, small_dataset, tmp_path):
        ck = tmp_path / "h.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--epochs", "1",
                   "--lr", "0", "--folds", "1", "--memory-dim", "4"])
        assert rc == EXIT_OK
        header = (tmp_path / "h.mtck.history.csv").read_text().splitlines()[0]
        assert header.split(",") == [f.name for f in fields(training.EpochRecord)]

    def test_train_reproducible_bytes(self, small_dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            ck = tmp_path / f"{name}.mtck"
            rc = main(["train", str(small_dataset), "--out", str(ck), "--epochs", "2",
                       "--folds", "2", "--memory-dim", "4", "--seed", "7"])
            assert rc == EXIT_OK
            outs.append((ck.read_bytes(), (tmp_path / f"{name}.mtck.history.csv").read_bytes()))
        assert outs[0] == outs[1]


class TestEval:
    def test_baseline_report(self, small_dataset, tmp_path):
        out = tmp_path / "rep"
        rc = main(["eval", str(small_dataset), "--baseline", "--out", str(out),
                   "--polygon", "64"])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["position_rmse"] > 0
        csv_lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
        ds = read_dataset(small_dataset)
        assert len(csv_lines) == 1 + len(ds.test_idx) * (ds.config.steps - 1)

    def test_eval_reproducible_bytes(self, small_dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["eval", str(small_dataset), "--baseline", "--out", str(out),
                       "--polygon", "64"])
            assert rc == EXIT_OK
            outs.append((tmp_path / f"{name}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_compare_table(self, small_dataset, tmp_path):
        ck = tmp_path / "c.mtck"
        main(["train", str(small_dataset), "--out", str(ck), "--epochs", "1",
              "--lr", "0", "--folds", "1", "--memory-dim", "4"])
        out = tmp_path / "cmp"
        rc = main(["eval", str(small_dataset), "--checkpoint", str(ck), "--compare",
                   "--out", str(out), "--polygon", "64"])
        assert rc == EXIT_OK
        table = (tmp_path / "cmp.compare.csv").read_text().strip().splitlines()
        assert table[0] == "mode,position_rmse,mean_iou,mean_gwd"
        modes = [r.split(",")[0] for r in table[1:]]
        assert modes == ["baseline", "learned"]

    @pytest.mark.parametrize("order", ["0", "2"])
    def test_degenerate_polygon_is_config_error(self, small_dataset, tmp_path, order):
        rc = main(["eval", str(small_dataset), "--baseline", "--out", str(tmp_path / "x"),
                   "--polygon", order])
        assert rc == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_missing_mode_is_config_error(self, small_dataset, tmp_path):
        rc = main(["eval", str(small_dataset), "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = main(["eval", str(tmp_path / "nope.mtds"), "--baseline",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

    def test_baseline_with_checkpoint_is_config_error(self, small_dataset, tmp_path, capsys):
        rc = main(["eval", str(small_dataset), "--baseline", "--checkpoint",
                   str(tmp_path / "nope.mtck"), "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--baseline" in err and "--checkpoint" in err
        assert list(tmp_path.iterdir()) == []


def _archive_members(path) -> dict:
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def _write_members(path, members) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def _version_1(src, dst):
    dst.write_bytes(b"MTDS" + struct.pack("<II", 1, 2) + b"{}" + bytes(12))


def _garbled_header(src, dst):
    members = _archive_members(src)
    members["header"] = members["header"][:-1]
    _write_members(dst, members)


def _unknown_config_key(src, dst):
    members = _archive_members(src)
    header = json.loads(members["header"].tobytes())
    header["config"]["colour"] = "red"
    members["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    _write_members(dst, members)


def _missing_member(src, dst):
    members = _archive_members(src)
    del members["points"]
    _write_members(dst, members)


def _point_moved_between_frames(src, dst):
    counts = _archive_members(src)["frame_counts"]
    moved = counts.copy()
    moved[0, 3] += 1
    moved[0, 4] -= 1
    dst.write_bytes(src.read_bytes().replace(counts.tobytes(), moved.tobytes()))


class TestDamagedInputs:
    """Every command that reads a damaged or version-1 file exits 3, never
    with a traceback."""

    @pytest.mark.parametrize("damage", [_version_1, _garbled_header, _unknown_config_key,
                                        _missing_member, _point_moved_between_frames])
    @pytest.mark.parametrize("command", [
        ["train", "--out", "x.mtck", "--epochs", "1", "--folds", "1", "--memory-dim", "4"],
        ["eval", "--baseline", "--out", "r"],
        ["track", "--case", "0", "--out", "t.csv"],
    ])
    def test_damaged_dataset_is_data_error(self, small_dataset, tmp_path, monkeypatch,
                                           capsys, damage, command):
        damage(small_dataset, tmp_path / "d.mtds")
        monkeypatch.chdir(tmp_path)
        rc = main([command[0], "d.mtds", *command[1:]])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.mtds"]

    @pytest.mark.parametrize("command", [
        ["eval", "--checkpoint", "c.mtck", "--out", "r"],
        ["eval", "--checkpoint", "c.mtck", "--compare", "--out", "r"],
        ["track", "--case", "0", "--checkpoint", "c.mtck", "--out", "t.csv"],
    ])
    def test_damaged_checkpoint_is_data_error(self, small_dataset, tmp_path, monkeypatch,
                                              command):
        (tmp_path / "c.mtck").write_bytes(b"MTCK" + struct.pack("<II", 1, 2) + b"{}")
        monkeypatch.chdir(tmp_path)
        assert main([command[0], str(small_dataset), *command[1:]]) == EXIT_DATA


class TestTrack:
    def test_row_count_and_truth_columns(self, small_dataset, tmp_path):
        out = tmp_path / "track.csv"
        rc = main(["track", str(small_dataset), "--case", "0", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        ds = read_dataset(small_dataset)
        assert len(lines) == 1 + (ds.config.steps - 1)
        header = lines[0].split(",")
        row1 = lines[1].split(",")
        truth = ds.cases[0].truth.states[1]
        for col, val in zip(["truth_px", "truth_py", "truth_vx", "truth_vy"], truth):
            assert float(row1[header.index(col)]) == val

    def test_angle_matches_principal_eigenvector(self, small_dataset, tmp_path):
        out = tmp_path / "track.csv"
        main(["track", str(small_dataset), "--case", "1", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        ds = read_dataset(small_dataset)
        for k, line in enumerate(lines[1:], start=1):
            row = line.split(",")
            ang = float(row[header.index("truth_angle")])
            w, u = np.linalg.eigh(ds.cases[1].truth.extents[k])
            expect = np.arctan2(u[1, 1], u[0, 1])
            diff = (ang - expect + np.pi / 2) % np.pi - np.pi / 2
            assert abs(diff) < 1e-9

    def test_out_of_range_case(self, small_dataset, tmp_path):
        rc = main(["track", str(small_dataset), "--case", "99",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_DATA

    def test_points_companion_file(self, small_dataset, tmp_path):
        out = tmp_path / "t.csv"
        main(["track", str(small_dataset), "--case", "0", "--out", str(out)])
        pts = (tmp_path / "t.csv.points.csv").read_text().strip().splitlines()
        ds = read_dataset(small_dataset)
        total = sum(len(f) for f in ds.cases[0].frames)
        assert len(pts) == 1 + total

    def test_track_reproducible_bytes(self, small_dataset, tmp_path):
        ck = tmp_path / "c.mtck"
        assert main(["train", str(small_dataset), "--out", str(ck), "--epochs", "1",
                     "--folds", "1", "--memory-dim", "4"]) == EXIT_OK
        for mode in ([], ["--checkpoint", str(ck)]):
            outs = []
            for name in ("a", "b"):
                out = tmp_path / f"{name}.csv"
                rc = main(["track", str(small_dataset), "--case", "2", "--out", str(out),
                           *mode])
                assert rc == EXIT_OK
                outs.append((out.read_bytes(), (tmp_path / f"{name}.csv.points.csv").read_bytes()))
            assert outs[0] == outs[1]


class TestGradcheck:
    def test_passes_on_default(self):
        assert main(["gradcheck", "--seed", "0", "--steps", "4",
                     "--memory-dim", "4"]) == EXIT_OK

    def test_minimal_two_steps(self):
        assert main(["gradcheck", "--seed", "1", "--steps", "2",
                     "--memory-dim", "4"]) == EXIT_OK

    def test_corrupt_flag_trips(self):
        assert main(["gradcheck", "--seed", "0", "--steps", "3", "--memory-dim", "4",
                     "--corrupt"]) == EXIT_NUMERIC

    @pytest.mark.parametrize("extra", [["--memory-dim", "-3"], ["--memory-dim", "0"],
                                       ["--steps", "1"], ["--seed", "-1"]])
    def test_bad_value_is_config_error(self, extra):
        assert main(["gradcheck", "--steps", "2", "--memory-dim", "2", *extra]) == EXIT_CONFIG


class TestDatascale:
    def test_ladder_rows(self, tmp_path):
        out = tmp_path / "scale.csv"
        rc = main(["datascale", "--out", str(out), "--sizes", "3,4", "--seed", "2",
                   "--epochs", "1", "--config", str(_tiny_cfg(tmp_path))])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "train_cases,position_rmse,mean_iou,mean_gwd"
        tags = [r.split(",")[0] for r in lines[1:]]
        assert tags == ["baseline", "3", "4"]

    def test_iou_uses_history_polygon(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        rows = []
        for text in (cfg.read_text(),
                     cfg.read_text().replace("[train]\n", "[train]\nhistory_polygon = 3\n")):
            cfg.write_text(text)
            out = tmp_path / "scale.csv"
            rc = main(["datascale", "--out", str(out), "--sizes", "3", "--seed", "2",
                       "--epochs", "1", "--config", str(cfg)])
            assert rc == EXIT_OK
            rows.append([r.split(",") for r in out.read_text().splitlines()[1:]])
        for default, triangle in zip(*rows):
            assert default[1] == triangle[1]    # position RMSE does not see the polygon
            assert default[2] != triangle[2]    # mean IoU does

    @pytest.mark.parametrize("sizes", ["a", "0"])
    def test_bad_sizes_is_config_error(self, tmp_path, sizes):
        out = tmp_path / "scale.csv"
        rc = main(["datascale", "--out", str(out), "--sizes", sizes, "--epochs", "1",
                   "--config", str(_tiny_cfg(tmp_path))])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_zero_epochs_is_config_error(self, tmp_path):
        out = tmp_path / "scale.csv"
        rc = main(["datascale", "--out", str(out), "--sizes", "3", "--epochs", "0",
                   "--config", str(_tiny_cfg(tmp_path))])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_zero_test_cases_is_config_error(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("test_cases = 2", "test_cases = 0"))
        out = tmp_path / "scale.csv"
        rc = main(["datascale", "--out", str(out), "--sizes", "3", "--epochs", "1",
                   "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert not out.exists()


def _documented_keys() -> set[str]:
    """``section.key`` for every key row of the tables in docs/config.md."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "config.md"
    keys, section = set(), None
    for line in doc.read_text(encoding="utf-8").splitlines():
        header = re.match(r"#+ (?:`\[(\w+)\]`)?", line)
        if header:
            section = header.group(1)
            continue
        row = re.match(r"\| `(\w+)` \|", line)
        if row and section:
            keys.add(f"{section}.{row.group(1)}")
    return keys


class TestConfigKeys:
    def test_accepted_keys_are_the_documented_keys(self):
        assert cli.CONFIG_KEYS == _documented_keys()

    def test_dataclass_defaults_carry_their_field_types(self):
        # values are converted by the type of the default, so a float field
        # with an int default would reject "0.5"
        for cls, skip in cli.DATACLASS_SECTIONS.values():
            for f in fields(cls):
                if f.name not in skip and f.default is not MISSING:
                    assert type(f.default).__name__ == f.type, (cls.__name__, f.name)

    def test_every_dataclass_key_reaches_its_field(self):
        other = {"cv_ct": "cv", "direct": "white_accel"}
        expected = {}
        for section, (cls, skip) in cli.DATACLASS_SECTIONS.items():
            for f in fields(cls):
                if f.name not in skip and f.default is not MISSING:
                    d = f.default
                    expected[(section, f.name)] = other[d] if isinstance(d, str) else d + 1
        view = ConfigView({f"{s}.{n}": str(v) for (s, n), v in expected.items()})
        train_cfg = cli._train_config(view)
        built = {"scenario": cli._scenario_from(view, argparse.Namespace()),
                 "tracker": train_cfg.tracker, "train": train_cfg}
        for (section, name), value in expected.items():
            assert getattr(built[section], name) == value, (section, name)

    @pytest.mark.parametrize("text,key", [
        ("[model]\nfeldmann_update = true\n", "model.feldmann_update"),
        ("[model]\nmean_preserving_transition = false\n", "model.mean_preserving_transition"),
        ("[train]\nepoch = 3\n", "train.epoch"),
        ("[train]\nmask_update = true\n", "train.mask_update"),
        ("[train]\ntracker = x\n", "train.tracker"),
    ])
    def test_unknown_key_is_config_error(self, small_dataset, tmp_path, capsys, text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        rc = main(["eval", str(small_dataset), "--baseline", "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


def _tiny_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[scenario]\nsteps = 10\n\n"
        "[train]\nmemory_dim = 4\nepochs = 1\nbatch_size = 2\n\n"
        "[datascale]\ntest_cases = 2\n")
    return cfg
