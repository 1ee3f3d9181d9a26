"""End-to-end CLI coverage on desk-scale data."""

import json
import struct
import warnings
import weakref
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from cli_flags import key_flags
from memtrack import cli, training
from memtrack.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from memtrack.config import ConfigView
from memtrack.metrics import MAX_POLYGON_ORDER
from memtrack.network import zero_params
from memtrack.store import read_checkpoint, read_dataset, write_checkpoint, write_dataset
from memtrack.training import MAX_MEMORY_DIM


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

    def test_each_level_is_generated_after_the_previous_dataset_is_freed(self, tmp_path,
                                                                           monkeypatch):
        refs, alive = [], []
        real = cli.generate_dataset

        def tracked(cfg):
            alive.append([ref() is not None for ref in refs])
            dataset = real(cfg)
            refs.append(weakref.ref(dataset))
            return dataset

        monkeypatch.setattr(cli, "generate_dataset", tracked)
        rc = main(["simulate", "--out", str(tmp_path), "--cases", "2", "--steps", "4",
                   "--levels", "0.4:0.6,1:1.2,2:2.4"])
        assert rc == EXIT_OK
        assert alive == [[], [False], [False, False]]

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

    @pytest.mark.parametrize("value", ["nan", "-0.5", "1.8"])
    def test_train_fraction_outside_0_1_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"[scenario]\ntrain_fraction = {value}\n")
        rc = main(["simulate", "--out", str(tmp_path / "out"), "--cases", "10",
                   "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert "train_fraction" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, name", [
        ("segment_min = 0", "segment_min"),
        ("segment_max = 5", "segment_max"),
        ("turn_rate_min = -1", "turn_rate"),
        ("turn_rate_max = nan", "turn_rate"),
    ])
    def test_segment_or_turn_rate_out_of_range_is_config_error(self, tmp_path, capsys,
                                                                 setting, name):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"[scenario]\n{setting}\n")
        rc = main(["simulate", "--out", str(tmp_path / "out"), "--cases", "2",
                   "--steps", "6", "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        assert np.all(params.arrays["upd_scale_b"] == 0.0)
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

    @pytest.mark.parametrize("setting", ["learning_rate = nan", "clip = nan", "clip = inf",
                                         "val_fraction = nan", "momentum = nan", "momentum = inf",
                                         "momentum = 1", "momentum = -0.1", "l2 = nan",
                                         "l2 = inf", "l2 = -5"])
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

    def test_holdout_of_the_only_training_case_is_config_error(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path), "--seed", "2", "--cases", "1",
                   "--steps", "6", "--levels", "0.4:0.6"])
        assert rc == EXIT_OK
        assert len(read_dataset(tmp_path / "dataset_sw0.4_sv0.6.mtds").train_cases) == 1
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(tmp_path / "dataset_sw0.4_sv0.6.mtds"), "--out", str(ck),
                   "--folds", "1", "--epochs", "1", "--memory-dim", "2"])
        assert rc == EXIT_CONFIG
        assert "none to train on" in capsys.readouterr().err
        assert not ck.exists()

    def test_degenerate_history_polygon_is_config_error(self, small_dataset, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[train]\nhistory_polygon = 2\n")
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert not ck.exists()

    @pytest.mark.parametrize("width", ["10000000", str(MAX_MEMORY_DIM + 1)])
    def test_memory_dim_above_the_cap_is_config_error(self, small_dataset, tmp_path, capsys,
                                                      width):
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--memory-dim", width])
        assert rc == EXIT_CONFIG
        assert "memory_dim" in capsys.readouterr().err
        assert not ck.exists()

    @pytest.mark.parametrize("setting, name", [
        ("memory_dim = 10000000", "memory_dim"),
        (f"history_polygon = {MAX_POLYGON_ORDER + 1}", "history_polygon"),
        ("history_polygon = 100000000000", "history_polygon"),
        ("val_fraction = 1.5", "val_fraction"),
    ])
    def test_config_value_above_the_cap_is_config_error(self, small_dataset, tmp_path, capsys,
                                                        setting, name):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[train]\n{setting}\n")
        ck = tmp_path / "x.mtck"
        rc = main(["train", str(small_dataset), "--out", str(ck), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not ck.exists()

    def test_no_finite_validation_loss_is_numeric_error(self, small_dataset, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(training, "_validation_loss", lambda *a: (float("inf"), None))
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
        rc = main(["eval", str(small_dataset), "--out", str(out),
                   "--polygon", "64"])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["position_rmse"] > 0
        csv_lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
        ds = read_dataset(small_dataset)
        assert len(csv_lines) == 1 + len(ds.test_cases) * (ds.config.steps - 1)

    def test_eval_reproducible_bytes(self, small_dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["eval", str(small_dataset), "--out", str(out),
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
        rc = main(["eval", str(small_dataset), "--out", str(tmp_path / "x"),
                   "--polygon", order])
        assert rc == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("order", [str(MAX_POLYGON_ORDER + 1), "100000000000"])
    def test_polygon_above_the_cap_is_config_error(self, small_dataset, tmp_path, capsys,
                                                   order):
        rc = main(["eval", str(small_dataset), "--out", str(tmp_path / "x"),
                   "--polygon", order])
        assert rc == EXIT_CONFIG
        assert "--polygon" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_dataset_is_data_error(self, tmp_path):
        rc = main(["eval", str(tmp_path / "nope.mtds"), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

    def test_rows_follow_the_checkpoint(self, small_dataset, tmp_path):
        """No checkpoint scores the baseline and a checkpoint the learned
        tracker, each as the same row of a --compare run."""
        ck = tmp_path / "c.mtck"
        assert main(["train", str(small_dataset), "--out", str(ck), "--epochs", "1",
                     "--folds", "1", "--memory-dim", "4"]) == EXIT_OK
        runs = {"baseline": [], "learned": ["--checkpoint", str(ck)],
                "both": ["--checkpoint", str(ck), "--compare"]}
        for name, args in runs.items():
            rc = main(["eval", str(small_dataset), *args, "--out", str(tmp_path / name),
                       "--polygon", "64"])
            assert rc == EXIT_OK
        for row in ("baseline", "learned"):
            for ext in ("csv", "json"):
                assert (tmp_path / f"{row}.{ext}").read_bytes() == \
                    (tmp_path / f"both.{row}.{ext}").read_bytes()
        assert (tmp_path / "baseline.json").read_bytes() != \
            (tmp_path / "learned.json").read_bytes()

    def test_compare_without_checkpoint_is_config_error(self, small_dataset, tmp_path, capsys):
        rc = main(["eval", str(small_dataset), "--compare", "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert "--checkpoint" in capsys.readouterr().err
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


def _with_header(src, dst, edit):
    """Copy archive ``src`` to ``dst`` with ``edit(header)`` applied; the CRCs hold."""
    members = _archive_members(src)
    header = json.loads(members["header"].tobytes())
    edit(header)
    members["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    _write_members(dst, members)


def _unknown_config_key(src, dst):
    _with_header(src, dst, lambda h: h["config"].update(colour="red"))


def _format_2(src, dst):
    _with_header(src, dst, lambda h: h.update(format_version=2))


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

    @pytest.mark.parametrize("damage", [_version_1, _format_2, _garbled_header,
                                        _unknown_config_key, _missing_member,
                                        _point_moved_between_frames])
    @pytest.mark.parametrize("command", [
        ["train", "--out", "x.mtck", "--epochs", "1", "--folds", "1", "--memory-dim", "4"],
        ["eval", "--out", "r"],
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
        # a valid archive whose header claims a network too large to allocate
        write_checkpoint(zero_params(4), tmp_path / "c.mtck")
        _with_header(tmp_path / "c.mtck", tmp_path / "c.mtck",
                     lambda h: h.update(memory_dim=1_000_000))
        assert main([command[0], str(small_dataset), *command[1:]]) == EXIT_DATA

    def test_additive_measurement_head_checkpoint_is_data_error(self, small_dataset,
                                                                tmp_path, capsys):
        """A checkpoint from before the measurement head became a scale holds
        ``upd_cov_*`` arrays; it is refused, not read with a new meaning."""
        ck = tmp_path / "old.mtck"
        write_checkpoint(zero_params(4), ck)
        members = _archive_members(ck)
        for part in ("w", "b"):
            members[f"upd_cov_{part}"] = members.pop(f"upd_scale_{part}")
        _write_members(ck, members)
        rc = main(["eval", str(small_dataset), "--checkpoint", str(ck),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_DATA
        assert "shape table" in capsys.readouterr().err


def _with_frame(src, dst, step, points):
    """Copy dataset ``src`` to ``dst`` with frame ``step`` of every case
    replaced by ``points``."""
    ds = read_dataset(src)
    cases = [replace(c, frames=[points if k == step else f for k, f in enumerate(c.frames)])
             for c in ds.cases]
    write_dataset(replace(ds, cases=cases), dst)


class TestDegenerateFrames:
    """A dataset with a frame without points, or a first frame with one
    point, is read, and every command that filters it exits 3 with the
    filter's own error, never with a traceback or a silent result."""

    COMMANDS = [
        ["train", "--out", "x.mtck", "--epochs", "1", "--folds", "1", "--memory-dim", "4"],
        ["eval", "--compare", "--checkpoint", "c.mtck", "--out", "r"],
        ["track", "--case", "0", "--out", "t.csv"],
    ]

    @pytest.mark.parametrize("step", [7, -1], ids=["middle", "last"])
    @pytest.mark.parametrize("command", COMMANDS, ids=["train", "eval", "track"])
    def test_empty_frame_is_data_error(self, small_dataset, tmp_path, monkeypatch, capsys,
                                       command, step):
        steps = read_dataset(small_dataset).config.steps
        _with_frame(small_dataset, tmp_path / "d.mtds", step % steps, np.empty((0, 2)))
        write_checkpoint(zero_params(4), tmp_path / "c.mtck")
        monkeypatch.chdir(tmp_path)
        rc = main([command[0], "d.mtds", *command[1:]])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == "error: frame has no points\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.mtck", "d.mtds"]

    @pytest.mark.parametrize("command", COMMANDS, ids=["train", "eval", "track"])
    def test_one_point_first_frame_is_data_error(self, small_dataset, tmp_path, monkeypatch,
                                                 capsys, command):
        _with_frame(small_dataset, tmp_path / "d.mtds", 0, np.array([[1.0, 2.0]]))
        write_checkpoint(zero_params(4), tmp_path / "c.mtck")
        monkeypatch.chdir(tmp_path)
        rc = main([command[0], "d.mtds", *command[1:]])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == \
            "error: track initialization needs >= 2 points, got 1\n"


class TestOutOfRangeConfig:
    """Tracker priors and nominal-model settings outside their documented
    ranges exit 2 before anything runs, never 1, 3 or with a silent run."""

    @pytest.mark.parametrize("setting", [
        "tracker.init_dof=5", "tracker.init_dof=8", "tracker.init_dof=nan",
        "tracker.vel_var=inf", "tracker.pos_var=nan", "tracker.pos_var=-1", "tracker.pos_var=0",
        "tracker.min_extent=0", "tracker.min_extent=-1", "model.delta=0", "model.delta=nan",
        "model.delta=inf", "model.delta=-1", "model.q_sigma=nan", "model.q_sigma=inf",
        "model.q_sigma=0", "model.q_sigma=-1",
    ])
    @pytest.mark.parametrize("command", [
        ["eval", "--out", "r"],
        ["track", "--case", "3", "--out", "t.csv"],
    ], ids=["eval", "track"])
    def test_config_error(self, small_dataset, tmp_path, monkeypatch, capsys, command,
                          setting):
        section, assignment = setting.split(".", 1)
        (tmp_path / "c.ini").write_text(f"[{section}]\n{assignment}\n")
        monkeypatch.chdir(tmp_path)
        rc = main([command[0], str(small_dataset), *command[1:], "--config", "c.ini"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


class TestSettingsBeforeData:
    """Settings that need no dataset are checked before it is read, so a bad
    one exits 2 even when the dataset is missing."""

    @pytest.mark.parametrize("command", [
        ["train", "--out", "x.mtck", "--epochs", "x"],
        ["train", "--out", "x.mtck", "--mask", "jeb,abc"],
        ["eval", "--out", "r", "--compare"],
        ["eval", "--out", "r", "--polygon", "1"],
        ["track", "--case", "0", "--out", "t.csv", "--config", "c.ini"],
    ], ids=["train-epochs", "train-mask", "eval-compare", "eval-polygon", "track-tracker"])
    def test_config_error_before_data_error(self, tmp_path, monkeypatch, capsys, command):
        (tmp_path / "c.ini").write_text("[tracker]\npos_var = -1\n")
        monkeypatch.chdir(tmp_path)
        rc = main([command[0], "nope.mtds", *command[1:]])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


class TestOutputDirectories:
    """A command whose output directory is missing exits 3 before it reads
    an input or simulates."""

    @pytest.mark.parametrize("command", [
        ["train", "DATA", "--out", "missing/x.mtck"],
        ["train", "DATA", "--out", "x.mtck", "--history", "missing/h.csv"],
        ["eval", "DATA", "--out", "missing/r"],
        ["track", "DATA", "--case", "0", "--out", "missing/t.csv"],
        ["datascale", "--out", "missing/ds.csv", "--sizes", "3", "--epochs", "1"],
    ], ids=["train-out", "train-history", "eval", "track", "datascale"])
    def test_missing_output_directory_is_data_error(self, small_dataset, tmp_path,
                                                    monkeypatch, capsys, command):
        for name in ("train", "generate_dataset", "read_dataset"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(name))
        monkeypatch.chdir(tmp_path)
        rc = main([str(small_dataset) if arg == "DATA" else arg for arg in command])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == "data error: output directory missing does not exist\n"
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("command", [["track", "--case", "0", "--out", "t.csv"],
                                         ["eval", "--out", "r"]], ids=["track", "eval"])
    def test_nan_checkpoint_is_numeric_error(self, small_dataset, tmp_path, monkeypatch,
                                             capsys, command):
        params = zero_params(4)
        params.arrays["memcov_b"] = np.full(4, np.nan)
        write_checkpoint(params, tmp_path / "c.mtck")
        monkeypatch.chdir(tmp_path)
        with np.errstate(invalid="ignore"):
            rc = main([command[0], str(small_dataset), *command[1:], "--checkpoint", "c.mtck"])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric failure: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.mtck"]

    @pytest.mark.parametrize("command", [["track", "--case", "0", "--out", "t.csv"],
                                         ["eval", "--out", "r"]], ids=["track", "eval"])
    def test_nan_checkpoint_prints_one_line(self, small_dataset, tmp_path, monkeypatch,
                                            capsys, command):
        """The numeric failure is the only thing on stderr: numpy's warnings
        about the NaN on its way there stay silent."""
        params = zero_params(4)
        params.arrays["memcov_b"] = np.full(4, np.nan)
        write_checkpoint(params, tmp_path / "c.mtck")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command[0], str(small_dataset), *command[1:], "--checkpoint", "c.mtck"])
        assert rc == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

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

    def test_wrapped_corrupt_adjoint_exits_numeric(self, monkeypatch, capsys):
        sequence_gradients = training._sequence_gradients

        def corrupted(params, case, model, cfg):
            loss, grads = sequence_gradients(params, case, model, cfg)
            grads[next(iter(grads))].flat[0] += 1.0
            return loss, grads

        monkeypatch.setattr(training, "_sequence_gradients", corrupted)
        assert main(["gradcheck", "--seed", "0", "--steps", "3",
                     "--memory-dim", "4"]) == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out

    def test_nan_gradient_exits_numeric(self, monkeypatch):
        sequence_gradients = training._sequence_gradients

        def poisoned(params, case, model, cfg):
            loss, grads = sequence_gradients(params, case, model, cfg)
            return loss, {k: np.full_like(g, np.nan) for k, g in grads.items()}

        monkeypatch.setattr(training, "_sequence_gradients", poisoned)
        assert main(["gradcheck", "--seed", "0", "--steps", "2",
                     "--memory-dim", "2"]) == EXIT_NUMERIC

    @pytest.mark.parametrize("extra", [["--memory-dim", "-3"], ["--memory-dim", "0"],
                                       ["--memory-dim", "10000000"],
                                       ["--memory-dim", str(MAX_MEMORY_DIM + 1)],
                                       ["--steps", "1"], ["--seed", "-1"]])
    def test_bad_value_is_config_error(self, extra):
        assert main(["gradcheck", "--steps", "2", "--memory-dim", "2", *extra]) == EXIT_CONFIG

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "0"])
    def test_tolerance_not_positive_and_finite_is_config_error(self, monkeypatch, capsys,
                                                               tolerance):
        monkeypatch.setattr(cli, "generate_case", lambda *args: pytest.fail("case generated"))
        rc = main(["gradcheck", "--steps", "2", "--memory-dim", "1",
                   f"--tolerance={tolerance}"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --tolerance")


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

    def test_rung_with_none_to_train_on_fails_before_any_training(self, tmp_path, capsys,
                                                                   monkeypatch):
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        out = tmp_path / "scale.csv"
        rc = main(["datascale", "--out", str(out), "--sizes", "3,1", "--epochs", "1",
                   "--config", str(_tiny_cfg(tmp_path))])
        assert rc == EXIT_CONFIG
        assert "none to train on" in capsys.readouterr().err
        assert trained == [] and not out.exists()

    def test_zero_test_cases_is_config_error(self, tmp_path):
        cfg = _tiny_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("test_cases = 2", "test_cases = 0"))
        out = tmp_path / "scale.csv"
        rc = main(["datascale", "--out", str(out), "--sizes", "3", "--epochs", "1",
                   "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        assert not out.exists()


class TestConfigKeys:
    def test_dataclass_defaults_carry_their_field_types(self):
        # values are converted by the type of the default, so a float field
        # with an int default would reject "0.5"
        for cls, skip in cli.DATACLASS_SECTIONS.values():
            for f in fields(cls):
                if f.name not in skip and f.default is not MISSING:
                    assert type(f.default).__name__ == f.type, (cls.__name__, f.name)

    def test_every_dataclass_key_reaches_its_field(self):
        other = {"cv_ct": "cv", "direct": "white_accel"}
        # default + 1 would leave these fields' ranges
        shares = {"val_fraction": 0.5, "train_fraction": 0.5, "momentum": 0.5}
        expected = {}
        for section, (cls, skip) in cli.DATACLASS_SECTIONS.items():
            for f in fields(cls):
                if f.name not in skip and f.default is not MISSING:
                    d = f.default
                    expected[(section, f.name)] = shares.get(
                        f.name, other[d] if isinstance(d, str) else d + 1)
        view = ConfigView({f"{s}.{n}": str(v) for (s, n), v in expected.items()})
        train_cfg = cli._train_config(view)
        built = {"scenario": cli._scenario_from(view),
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
        rc = main(["eval", str(small_dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


# A small run of each command that has key flags, as config settings, and a
# valid value for each flag that differs from them.
FLAG_RUNS = {
    "simulate": {"scenario.cases": "2", "scenario.steps": "5", "simulate.levels": "0.4:0.6"},
    "train": {"train.epochs": "1", "train.folds": "1", "train.memory_dim": "3"},
    "datascale": {"scenario.steps": "8", "train.memory_dim": "3", "train.batch_size": "2",
                  "datascale.test_cases": "2", "datascale.sizes": "3", "datascale.epochs": "1"},
}
FLAG_VALUES = {
    "scenario.seed": "3", "scenario.cases": "3", "scenario.steps": "6",
    "simulate.levels": "0.5:0.7,1:1.2", "train.epochs": "2", "train.learning_rate": "0.01",
    "train.folds": "2", "train.batch_size": "3", "train.memory_dim": "2", "train.seed": "4",
    "datascale.sizes": "3,4", "datascale.epochs": "2",
}
OUTPUTS = {"simulate": "data", "train": "x.mtck", "datascale": "s.csv"}


def _flag_run(directory, dataset, command, settings, flags=()):
    """Exit code and output bytes of ``command`` with ``settings`` as its
    --config file and ``flags`` after it."""
    directory.mkdir()
    cfg = directory.parent / f"{directory.name}.cfg"
    cfg.write_text("".join("[{}]\n{} = {}\n".format(*key.split("."), value)
                           for key, value in settings.items()))
    positional = [str(dataset)] if command == "train" else []
    rc = main([command, *positional, "--out", str(directory / OUTPUTS[command]),
               "--config", str(cfg), *flags])
    return rc, {p.relative_to(directory).as_posix(): p.read_bytes()
                for p in sorted(directory.rglob("*")) if p.is_file()}


class TestFlagOverrides:
    """A flag whose dest names a config key is that key's file line: the
    same value gives the same bytes, and the flag wins over the line."""

    def test_every_key_flag_has_a_test_value(self):
        assert {key for _, _, key in key_flags()} == set(FLAG_VALUES)

    @pytest.mark.parametrize("command, flag, key", key_flags())
    def test_flag_is_its_keys_file_line(self, small_dataset, tmp_path, command, flag, key):
        assert key in cli.CONFIG_KEYS
        base = {k: v for k, v in FLAG_RUNS[command].items() if k != key}
        value = FLAG_VALUES[key]
        flagged = _flag_run(tmp_path / "flag", small_dataset, command, base, [flag, value])
        assert flagged[0] == EXIT_OK and flagged[1]
        assert _flag_run(tmp_path / "file", small_dataset, command,
                         {**base, key: value}) == flagged
        broken = {**base, key: "x"}
        assert _flag_run(tmp_path / "bad", small_dataset, command, broken) == (EXIT_CONFIG, {})
        assert _flag_run(tmp_path / "both", small_dataset, command, broken,
                         [flag, value]) == flagged

    @pytest.mark.parametrize("command, flag, key", key_flags())
    def test_malformed_flag_value_is_config_error(self, small_dataset, tmp_path, capsys,
                                                  command, flag, key):
        rc, written = _flag_run(tmp_path / "run", small_dataset, command, {}, [flag, "abc"])
        assert (rc, written) == (EXIT_CONFIG, {})
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err


def _tiny_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[scenario]\nsteps = 10\n\n"
        "[train]\nmemory_dim = 4\nepochs = 1\nbatch_size = 2\n\n"
        "[datascale]\ntest_cases = 2\n")
    return cfg
