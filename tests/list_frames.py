"""Frames from lists of (n, 2) point arrays, and the list-based frame
reduction that :func:`memtrack.models.reduce_frames` replaced, kept as its
reference: a case's frames as a list of arrays, a batch's as a list of
per-step tuples of the cases' arrays."""

import numpy as np

from memtrack.errors import EmptyFrame
from memtrack.models import Frames, FrameStats, stack_frames


def frames_of(arrays) -> Frames:
    """One case's Frames of a list of (n, 2) point arrays, copied into one array."""
    return Frames(np.concatenate(arrays), [len(a) for a in arrays])


def batch_of(runs) -> Frames:
    """The Frames of one run over several cases' lists of point arrays."""
    return stack_frames([frames_of(arrays) for arrays in runs])


def reduce_frame_list(frames) -> FrameStats:
    """Every frame's statistics from one ``np.add.reduceat`` over the
    concatenated frames of one case's list, or of a batch's list of per-step
    tuples, stacked as :func:`memtrack.models.reduce_frames` stacks them."""
    batched = isinstance(frames[0], tuple)
    flat = [f for frame in frames for f in frame] if batched else frames
    counts = np.array([len(f) for f in flat], dtype=np.int64)
    if not counts.all():
        raise EmptyFrame("frame has no points")
    points = np.concatenate(flat, axis=0, dtype=np.float64)
    starts = np.cumsum(counts) - counts
    mean = np.add.reduceat(points, starts, axis=0) / counts[:, None]
    points -= np.repeat(mean, counts, axis=0)  # centred in place: concatenate copied
    x, y = points.T
    scatter = np.empty((len(counts), 2, 2))
    scatter[:, 0, 0] = np.add.reduceat(x * x, starts)
    scatter[:, 0, 1] = scatter[:, 1, 0] = np.add.reduceat(x * y, starts)
    scatter[:, 1, 1] = np.add.reduceat(y * y, starts)
    lead = (len(frames), -1) if batched else (-1,)
    return FrameStats(mean.reshape(*lead, 2), scatter.reshape(*lead, 2, 2), counts.reshape(lead))
