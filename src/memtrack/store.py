"""Versioned binary persistence for datasets, checkpoints and reports.

Containers share one layout: magic, format version, a JSON header, a CRC32
of the body, then the body as little-endian float64 (and int8/uint32 where
noted).  Round trips are bit-exact; version or checksum mismatches are
rejected with dedicated error classes.  Reports are human-facing and go to
CSV/JSON with 17 significant digits so they reparse to identical values.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .errors import ChecksumMismatch, VersionMismatch
from .metrics import MetricsReport
from .models import ScenarioConfig
from .network import NetworkParams, zero_params
from .simulate import Dataset, GroundTruthSequence, SimCase

__all__ = [
    "DATASET_MAGIC",
    "CHECKPOINT_MAGIC",
    "FORMAT_VERSION",
    "write_dataset",
    "read_dataset",
    "write_checkpoint",
    "read_checkpoint",
    "write_report",
]

DATASET_MAGIC = b"MTDS"
CHECKPOINT_MAGIC = b"MTCK"
FORMAT_VERSION = 1


def _write_container(path, magic: bytes, header: dict, body: bytes) -> None:
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        fh.write(struct.pack("<Q", len(body)))
        fh.write(body)


def _read_container(path, magic: bytes):
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != magic:
            raise VersionMismatch(f"bad magic {got!r}, expected {magic!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != FORMAT_VERSION:
            raise VersionMismatch(f"format version {version}, expected {FORMAT_VERSION}")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        (crc,) = struct.unpack("<I", fh.read(4))
        (blen,) = struct.unpack("<Q", fh.read(8))
        body = fh.read(blen)
        if len(body) != blen or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            raise ChecksumMismatch(f"body checksum failed for {path}")
        return header, body


def _pack_floats(buf: io.BytesIO, arr: np.ndarray) -> None:
    buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _take_floats(body: bytes, offset: int, shape) -> tuple[np.ndarray, int]:
    count = int(np.prod(shape)) if shape else 1
    if offset + count * 8 > len(body):
        raise ChecksumMismatch("body ends before the fields its header lists")
    arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
    return arr.astype(np.float64).reshape(shape), offset + count * 8


# -- datasets ---------------------------------------------------------------

def write_dataset(dataset: Dataset, path) -> None:
    cfg = dataset.config
    header = {
        "kind": "dataset",
        "format_version": FORMAT_VERSION,
        "config": asdict(cfg),
        "master_seed": int(dataset.master_seed),
        "cases": len(dataset.cases),
        "steps": int(cfg.steps),
        "noise_level": [cfg.sigma_w, cfg.sigma_v],
        "train_idx": [int(i) for i in dataset.train_idx],
        "test_idx": [int(i) for i in dataset.test_idx],
        "case_seeds": [list(c.seed_entropy) for c in dataset.cases],
        "frame_counts": [[len(f) for f in c.frames] for c in dataset.cases],
    }
    buf = io.BytesIO()
    for case in dataset.cases:
        _pack_floats(buf, case.truth.states)
        tri = np.stack([
            case.truth.extents[:, 0, 0],
            case.truth.extents[:, 0, 1],
            case.truth.extents[:, 1, 1],
        ], axis=1)
        _pack_floats(buf, tri)
        buf.write(case.truth.regimes.astype("<i1").tobytes())
        _pack_floats(buf, case.truth.omegas)
        _pack_floats(buf, np.concatenate(case.frames))
    _write_container(path, DATASET_MAGIC, header, buf.getvalue())


def _check_dataset_counts(header: dict, body: bytes, path) -> None:
    """The header is outside the checksum: its counts must use up the body,
    and its split indices must name cases."""
    k, n_cases, counts = header["steps"], header["cases"], header["frame_counts"]
    if (len(counts) != n_cases or len(header["case_seeds"]) != n_cases
            or any(len(c) != k or min(c) < 0 for c in counts)):
        raise ChecksumMismatch(f"{path}: header case and frame counts disagree")
    if any(not 0 <= i < n_cases for i in header["train_idx"] + header["test_idx"]):
        raise ChecksumMismatch(f"{path}: header split index outside 0..{n_cases - 1}")
    # per step: 4 state, 3 extent and 1 omega floats plus one regime byte
    expected = n_cases * k * (8 * 8 + 1) + 2 * 8 * sum(map(sum, counts))
    if expected != len(body):
        raise ChecksumMismatch(
            f"{path}: header counts describe {expected} body bytes, found {len(body)}")


def read_dataset(path) -> Dataset:
    """Decode a dataset case by case, each field with one bulk read."""
    header, body = _read_container(path, DATASET_MAGIC)
    _check_dataset_counts(header, body, path)
    cfg = ScenarioConfig(**header["config"])
    k = header["steps"]
    offset = 0
    cases = []
    for counts, seeds in zip(header["frame_counts"], header["case_seeds"]):
        states, offset = _take_floats(body, offset, (k, 4))
        tri, offset = _take_floats(body, offset, (k, 3))
        extents = np.zeros((k, 2, 2))
        extents[:, 0, 0] = tri[:, 0]
        extents[:, 0, 1] = extents[:, 1, 0] = tri[:, 1]
        extents[:, 1, 1] = tri[:, 2]
        regimes = np.frombuffer(body, dtype="<i1", count=k, offset=offset).astype(np.int8)
        offset += k
        omegas, offset = _take_floats(body, offset, (k,))
        points, offset = _take_floats(body, offset, (sum(counts), 2))
        truth = GroundTruthSequence(states=states, extents=extents,
                                    regimes=regimes, omegas=omegas)
        cases.append(SimCase(truth=truth, frames=np.split(points, np.cumsum(counts)[:-1]),
                             seed_entropy=tuple(seeds)))
    return Dataset(
        cases=cases,
        train_idx=np.asarray(header["train_idx"], dtype=np.int64),
        test_idx=np.asarray(header["test_idx"], dtype=np.int64),
        config=cfg,
        master_seed=header["master_seed"],
    )


# -- checkpoints ------------------------------------------------------------

def write_checkpoint(params: NetworkParams, path, train_config_digest: str = "") -> None:
    shape_table = [[name, list(arr.shape)] for name, arr in params.arrays.items()]
    header = {
        "kind": "checkpoint",
        "format_version": FORMAT_VERSION,
        "memory_dim": int(params.memory_dim),
        "feature_dim": int(params.feat_mean.shape[0]),
        "masks": {
            "jeb": bool(params.mask_evolution),
            "jub": bool(params.mask_update),
            "mub": bool(params.mask_memory),
        },
        "train_config_digest": train_config_digest,
        "shapes": shape_table,
    }
    buf = io.BytesIO()
    for _, arr in params.arrays.items():
        _pack_floats(buf, arr)
    _pack_floats(buf, params.feat_mean)
    _pack_floats(buf, params.feat_std)
    _write_container(path, CHECKPOINT_MAGIC, header, buf.getvalue())


def read_checkpoint(path) -> NetworkParams:
    header, body = _read_container(path, CHECKPOINT_MAGIC)
    params = zero_params(
        header["memory_dim"],
        mask_evolution=header["masks"]["jeb"],
        mask_update=header["masks"]["jub"],
        mask_memory=header["masks"]["mub"],
    )
    expected = [[name, list(arr.shape)] for name, arr in params.arrays.items()]
    if header["shapes"] != expected:
        raise VersionMismatch("checkpoint shape table does not match this build")
    offset = 0
    for name, arr in params.arrays.items():
        loaded, offset = _take_floats(body, offset, arr.shape)
        params.arrays[name] = loaded
    fdim = header["feature_dim"]
    params.feat_mean, offset = _take_floats(body, offset, (fdim,))
    params.feat_std, offset = _take_floats(body, offset, (fdim,))
    if offset != len(body):
        raise ChecksumMismatch("checkpoint body length does not match shape table")
    return params


# -- reports ----------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_report(report: MetricsReport, path, fmt: str) -> None:
    """CSV: per-step series (case, step, pos error, iou, gwd);
    JSON: aggregates and peaks."""
    if fmt == "csv":
        lines = ["case,step,position_error,iou,gwd"]
        for ci, series in enumerate(report.per_case):
            for si in range(series.shape[0]):
                row = ",".join(_fmt(v) for v in series[si])
                lines.append(f"{ci},{si}," + row)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "mean_square_position_error": report.mean_square_position_error,
            "position_rmse": report.position_rmse,
            "mean_iou": report.mean_iou,
            "mean_gwd": report.mean_gwd,
            "peak_position_error": report.peak_position_error,
            "peak_iou": report.peak_iou,
            "peak_gwd": report.peak_gwd,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
