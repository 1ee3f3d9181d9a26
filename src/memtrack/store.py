"""Every file memtrack writes: versioned, checksummed datasets and
checkpoints, and the result tables and reports.

A dataset (``.mtds``) or checkpoint (``.mtck``) is a zip of ``.npy`` members
in NumPy's ``.npz`` layout (``np.load(path, allow_pickle=False)`` opens it).
Member ``header`` is JSON as uint8: ``kind``, ``format_version`` (3 for a
dataset, 2 for a checkpoint), then ``config``, or ``memory_dim``, ``masks``
and ``train_config_digest``.  A dataset of N cases, K steps and P points
stores ``states`` (N, K, 4), ``extents`` (N, K, 2, 2), ``regimes`` (N, K)
int8, ``omegas`` and ``frame_counts`` (N, K) and ``points`` (P, 2); its split
and its cases' seeds follow from the config (see
:class:`memtrack.simulate.Dataset`).  A checkpoint stores its network arrays,
``feat_mean`` and ``feat_std``.  Zip's per-member CRC32 covers the header and
every array; members carry a fixed 1980 timestamp, so writes are reproducible.
Reads are bit-exact.  Not a zip (version 1, say), the wrong kind or version
(regenerate older datasets with ``memtrack simulate``), or a checkpoint shape
table unlike this build's raise VersionMismatch; a bad CRC, truncation, a
missing member, an unparsable header or config, or arrays whose shapes or
frame counts disagree with each other or with the config's cases and steps
raise ChecksumMismatch.

One rule formats every result table, in :func:`write_table`: a header line,
then comma-separated rows whose ``str`` columns pass through and whose numbers
print at ``%.17g``, so ints print as ints and floats reparse bit for bit.
:func:`write_report` writes a report's per-step table and its JSON.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, replace

import numpy as np

from .errors import ChecksumMismatch, VersionMismatch
from .metrics import MetricsReport
from .models import ScenarioConfig
from .network import FEATURE_DIM, MASK_FIELDS, NetworkParams, _array_specs, zero_params
from .simulate import Dataset, GroundTruthSequence, SimCase

__all__ = ["FORMAT_VERSION", "write_dataset", "read_dataset", "write_checkpoint",
           "read_checkpoint", "write_table", "write_report"]

# The dataset format; checkpoints keep format 2, whose members have not changed.
FORMAT_VERSION = 3
_VERSIONS = {"dataset": FORMAT_VERSION, "checkpoint": 2}


def _write_archive(path, header: dict, arrays) -> None:
    """Write the header and the (name, array) pairs as ``.npy`` members."""
    text = json.dumps({**header, "format_version": _VERSIONS[header["kind"]]}, sort_keys=True)
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
    version = _VERSIONS[kind]
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":  # every zip starts with a local file header
            raise VersionMismatch(f"{path}: not a format {version} archive")
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = {name.removesuffix(".npy"): _read_member(zf, name)
                      for name in zf.namelist()}
        header = json.loads(arrays.pop("header").tobytes())
        if (header["kind"], header["format_version"]) != (kind, version):
            raise VersionMismatch(f"{path}: {header['kind']} format {header['format_version']}"
                                  f", expected {kind} format {version}")
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
    _write_archive(path, {"kind": "dataset", "config": asdict(dataset.config)}, [
        ("states", np.asarray([c.truth.states for c in cases], "<f8")),
        ("extents", np.asarray([c.truth.extents for c in cases], "<f8")),
        ("regimes", np.asarray([c.truth.regimes for c in cases], "<i1")),
        ("omegas", np.asarray([c.truth.omegas for c in cases], "<f8")),
        ("frame_counts", np.asarray([[len(f) for f in c.frames] for c in cases], "<i8")),
        ("points", np.concatenate([f for c in cases for f in c.frames], dtype="<f8")),
    ])


def _dataset_from(header: dict, a: dict) -> Dataset:
    cfg = ScenarioConfig(**header["config"])
    counts = a["frame_counts"]
    n, k = cfg.cases, cfg.steps
    if not _layout_ok(a, {
            "states": ("<f8", (n, k, 4)), "extents": ("<f8", (n, k, 2, 2)),
            "regimes": ("|i1", (n, k)), "omegas": ("<f8", (n, k)),
            "frame_counts": ("<i8", (n, k)),
            "points": ("<f8", (int(counts.sum()), 2))}) or (counts < 0).any():
        raise ChecksumMismatch("dataset arrays disagree with the config's cases and steps, "
                               "in shape or in frame counts")
    points, ends = a["points"], np.cumsum(counts.ravel()).tolist()
    frames = [points[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]
    cases = [SimCase(truth=GroundTruthSequence(a["states"][i], a["extents"][i],
                                               a["regimes"][i], a["omegas"][i]),
                     frames=frames[i * k:(i + 1) * k])
             for i in range(n)]
    return Dataset(cases=cases, config=cfg)


def read_dataset(path) -> Dataset:
    """Decode a dataset; each case's arrays are views of the members, and
    each frame is a plain slice of the ``points`` member."""
    return _read_archive(path, "dataset", _dataset_from)


# -- checkpoints ------------------------------------------------------------

def write_checkpoint(params: NetworkParams, path, train_config_digest: str = "") -> None:
    header = {"kind": "checkpoint", "memory_dim": int(params.memory_dim),
              "masks": {k: bool(getattr(params, f)) for k, f in MASK_FIELDS.items()},
              "train_config_digest": train_config_digest}
    arrays = {**params.arrays, "feat_mean": params.feat_mean, "feat_std": params.feat_std}
    _write_archive(path, header, [(name, np.asarray(a, "<f8")) for name, a in arrays.items()])


def _checkpoint_from(header: dict, a: dict) -> NetworkParams:
    masks = header["masks"]
    # checked before anything is allocated: the header's memory_dim is untrusted
    shapes = dict(_array_specs(header["memory_dim"]))
    feats = {"feat_mean": a.pop("feat_mean"), "feat_std": a.pop("feat_std")}
    if a.keys() != shapes.keys() or not _layout_ok(
            a, {name: ("<f8", shape) for name, shape in shapes.items()}):
        raise VersionMismatch("checkpoint shape table does not match this build")
    if not _layout_ok(feats, dict.fromkeys(feats, ("<f8", (FEATURE_DIM,)))):
        raise ChecksumMismatch(f"feature statistics are not of length {FEATURE_DIM}")
    params = zero_params(header["memory_dim"], **{f: masks[k] for k, f in MASK_FIELDS.items()})
    return replace(params, arrays={name: a[name] for name in shapes}, **feats)


def read_checkpoint(path) -> NetworkParams:
    """Decode a checkpoint, its arrays in this build's declared order."""
    return _read_archive(path, "checkpoint", _checkpoint_from)


# -- reports ----------------------------------------------------------------

def write_table(path, header, rows) -> None:
    """Write the column names ``header``, then each row of the sequence ``rows``.

    The first row sets every line's template: ``%s`` for a ``str`` column,
    ``%.17g`` for any other, so ``140`` prints as ``140`` and a float to 17
    significant digits, which reparse to the same float.
    """
    lines = [",".join(header) + "\n"]
    if rows:
        line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
        lines += [line % tuple(row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def write_report(report: MetricsReport, prefix) -> None:
    """``<prefix>.csv``: the per-step series (case, step, pos error, iou, gwd);
    ``<prefix>.json``: every aggregate and peak, that is each field but ``per_case``."""
    write_table(f"{prefix}.csv", ("case", "step", "position_error", "iou", "gwd"),
                [(ci, si, *vals) for ci, series in enumerate(report.per_case)
                 for si, vals in enumerate(series.tolist())])
    payload = {k: v for k, v in vars(report).items() if k != "per_case"}
    with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
