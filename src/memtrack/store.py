"""Versioned, checksummed persistence for datasets, checkpoints and reports.

A dataset (``.mtds``) or checkpoint (``.mtck``) is a zip of ``.npy`` members
in NumPy's ``.npz`` layout (``np.load(path, allow_pickle=False)`` opens it).
Member ``header`` is JSON as uint8: ``kind``, ``format_version``, then
``config`` and ``master_seed``, or ``memory_dim``, ``masks`` and
``train_config_digest``.  A dataset of N cases, K steps and P points stores
``states`` (N, K, 4), ``extents`` (N, K, 2, 2), ``regimes`` (N, K) int8,
``omegas`` and ``frame_counts`` (N, K), ``points`` (P, 2), ``case_seeds``
(N, 2), ``train_idx`` and ``test_idx``; a checkpoint, its network arrays,
``feat_mean`` and ``feat_std``.  Zip's per-member CRC32 covers the header and
every array; members carry a fixed 1980 timestamp, so writes are reproducible.
Reads are bit-exact.  Not a zip (version 1, say), the wrong kind or version,
or a checkpoint shape table unlike this build's raise VersionMismatch; a bad
CRC, truncation, a missing member, an unparsable header or config, or arrays
whose shapes, frame counts or split indices disagree raise ChecksumMismatch.
Reports go to CSV/JSON at 17 significant digits and reparse identically.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, replace

import numpy as np

from .errors import ChecksumMismatch, VersionMismatch
from .metrics import MetricsReport
from .models import ScenarioConfig
from .network import FEATURE_DIM, NetworkParams, zero_params
from .simulate import Dataset, GroundTruthSequence, SimCase

__all__ = ["FORMAT_VERSION", "write_dataset", "read_dataset", "write_checkpoint",
           "read_checkpoint", "write_report"]

FORMAT_VERSION = 2


def _write_archive(path, header: dict, arrays) -> None:
    """Write the header and the (name, array) pairs as ``.npy`` members."""
    text = json.dumps({**header, "format_version": FORMAT_VERSION}, sort_keys=True)
    members = [("header", np.frombuffer(text.encode("utf-8"), dtype=np.uint8)), *arrays]
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in members:
            arr = np.ascontiguousarray(arr)
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w") as fh:
                # write_array hands zip a copy of each array; a byte view is no copy
                npy_header = np.lib.format.header_data_from_array_1_0(arr)
                np.lib.format.write_array_header_1_0(fh, npy_header)
                fh.write(arr.reshape(-1).view(np.uint8))


def _read_member(zf: zipfile.ZipFile, name: str) -> np.ndarray:
    with zf.open(name) as fh:
        arr = np.lib.format.read_array(fh, allow_pickle=False)
        if fh.read():  # reading up to the end is what checks the CRC
            raise ChecksumMismatch(f"member {name} is longer than its array")
    return arr


def _read_archive(path, kind: str, build):
    """Pass the header and members of a ``kind`` archive to ``build``; every
    decoding or validation failure on the way becomes ChecksumMismatch."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":  # every zip starts with a local file header
            raise VersionMismatch(f"{path}: not a format {FORMAT_VERSION} archive")
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = {name.removesuffix(".npy"): _read_member(zf, name)
                      for name in zf.namelist()}
        header = json.loads(arrays.pop("header").tobytes())
        if (header["kind"], header["format_version"]) != (kind, FORMAT_VERSION):
            raise VersionMismatch(f"{path}: {header['kind']} format {header['format_version']}"
                                  f", expected {kind} format {FORMAT_VERSION}")
        return build(header, arrays)
    except (zipfile.BadZipFile, EOFError, KeyError, OSError, RuntimeError, TypeError,
            ValueError) as exc:
        raise ChecksumMismatch(f"{path}: {type(exc).__name__}: {exc}") from exc


def _layout_ok(arrays: dict, layout: dict) -> bool:
    """Whether each named array has the (dtype string, shape) ``layout`` gives it."""
    return all((arrays[name].dtype.str, arrays[name].shape) == want
               for name, want in layout.items())


# -- datasets ---------------------------------------------------------------

def write_dataset(dataset: Dataset, path) -> None:
    cases = dataset.cases
    header = {"kind": "dataset", "config": asdict(dataset.config),
              "master_seed": int(dataset.master_seed)}
    _write_archive(path, header, [
        ("states", np.asarray([c.truth.states for c in cases], "<f8")),
        ("extents", np.asarray([c.truth.extents for c in cases], "<f8")),
        ("regimes", np.asarray([c.truth.regimes for c in cases], "<i1")),
        ("omegas", np.asarray([c.truth.omegas for c in cases], "<f8")),
        ("frame_counts", np.asarray([[len(f) for f in c.frames] for c in cases], "<i8")),
        ("points", np.concatenate([f for c in cases for f in c.frames], dtype="<f8")),
        ("case_seeds", np.asarray([c.seed_entropy for c in cases], "<i8")),
        ("train_idx", np.asarray(dataset.train_idx, "<i8")),
        ("test_idx", np.asarray(dataset.test_idx, "<i8")),
    ])


def _dataset_from(header: dict, a: dict) -> Dataset:
    cfg = ScenarioConfig(**header["config"])
    counts = a["frame_counts"]
    n, k = counts.shape
    train, test = a["train_idx"], a["test_idx"]
    if not _layout_ok(a, {
            "states": ("<f8", (n, k, 4)), "extents": ("<f8", (n, k, 2, 2)),
            "regimes": ("|i1", (n, k)), "omegas": ("<f8", (n, k)),
            "frame_counts": ("<i8", (n, k)), "points": ("<f8", (int(counts.sum()), 2)),
            "case_seeds": ("<i8", (n, 2)), "train_idx": ("<i8", (len(train),)),
            "test_idx": ("<i8", (len(test),))}) or (counts < 0).any():
        raise ChecksumMismatch("dataset arrays disagree in shape or frame counts")
    split = np.concatenate([train, test])
    if ((split < 0) | (split >= n)).any():
        raise ChecksumMismatch(f"split index outside 0..{n - 1}")
    frames = np.split(a["points"], np.cumsum(counts.ravel())[:-1])
    cases = [SimCase(truth=GroundTruthSequence(a["states"][i], a["extents"][i],
                                               a["regimes"][i], a["omegas"][i]),
                     frames=frames[i * k:(i + 1) * k],
                     seed_entropy=tuple(a["case_seeds"][i].tolist()))
             for i in range(n)]
    return Dataset(cases=cases, train_idx=train, test_idx=test, config=cfg,
                   master_seed=header["master_seed"])


def read_dataset(path) -> Dataset:
    """Decode a dataset; each case's arrays and frames are views of the members."""
    return _read_archive(path, "dataset", _dataset_from)


# -- checkpoints ------------------------------------------------------------

def write_checkpoint(params: NetworkParams, path, train_config_digest: str = "") -> None:
    masks = {"jeb": params.mask_evolution, "jub": params.mask_update, "mub": params.mask_memory}
    header = {"kind": "checkpoint", "memory_dim": int(params.memory_dim),
              "masks": {k: bool(v) for k, v in masks.items()},
              "train_config_digest": train_config_digest}
    arrays = {**params.arrays, "feat_mean": params.feat_mean, "feat_std": params.feat_std}
    _write_archive(path, header, [(name, np.asarray(a, "<f8")) for name, a in arrays.items()])


def _checkpoint_from(header: dict, a: dict) -> NetworkParams:
    masks = header["masks"]
    params = zero_params(header["memory_dim"], mask_evolution=masks["jeb"],
                         mask_update=masks["jub"], mask_memory=masks["mub"])
    feats = {"feat_mean": a.pop("feat_mean"), "feat_std": a.pop("feat_std")}
    if a.keys() != params.arrays.keys() or not _layout_ok(
            a, {name: ("<f8", arr.shape) for name, arr in params.arrays.items()}):
        raise VersionMismatch("checkpoint shape table does not match this build")
    if not _layout_ok(feats, dict.fromkeys(feats, ("<f8", (FEATURE_DIM,)))):
        raise ChecksumMismatch(f"feature statistics are not of length {FEATURE_DIM}")
    return replace(params, arrays={name: a[name] for name in params.arrays}, **feats)


def read_checkpoint(path) -> NetworkParams:
    """Decode a checkpoint, its arrays in this build's declared order."""
    return _read_archive(path, "checkpoint", _checkpoint_from)


# -- reports ----------------------------------------------------------------

def write_report(report: MetricsReport, path, fmt: str) -> None:
    """CSV: per-step series (case, step, pos error, iou, gwd);
    JSON: every aggregate and peak, that is each field but ``per_case``."""
    if fmt == "csv":
        lines = ["case,step,position_error,iou,gwd"]
        for ci, series in enumerate(report.per_case):
            lines += [f"{ci},{si}," + ",".join(f"{v:.17g}" for v in row)
                      for si, row in enumerate(series)]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {k: v for k, v in vars(report).items() if k != "per_case"}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
