"""Horizon sweeps: profile-conditioned prediction and per-sample errors.

A sweep slides a fixed-length horizon over a trial, starting at every
sample while the horizon still ends on or before the final one. For each
start the state is handed over from the reference, the assumed acceleration
profile is integrated forward, and the error at every sample is the
Euclidean distance between predicted and reference positions. A start's
direction score is 1 when the predicted displacement over the horizon has
the sign of the reference displacement along the reference's largest axis.

Prediction uses the closed-form ZOH response: initial position, plus elapsed
time times initial velocity, plus the input response from `_input_kernel`
(or, for the oracle, from per-trial prefix sums of the recorded inputs).
This path does not step the ZOH update sample by sample, so it matches
stepped propagation to rounding error only.

One object, `_Sweep`, cuts a session's starts into blocks and evaluates
every profile and horizon a block at a time, on up to `worker_count`
threads. It lays out one batch of blocks at a time, trials back to back and
component-major, so the lags of a block of starts are strided window views
of contiguous rows: no gather and no per-start copy, and no array as long
as the session. Every element is the same expression whatever the block or
batch, so a sweep is bit-identical to evaluating each start on its own.
`sweep_errors` returns one trial's (h, n) error matrix and (h,) scores;
`sweep_session` hands a session over trial by trial, with each start's mean
error, max error and score, or, reduced, folded to each horizon's start
count and each profile's error sum, error max and score sum.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .profiles import HorizonSpec, ProfileKind, cubic_decay

BLOCK_STARTS = 512  # starts per kernel block; each work array is (BLOCK_STARTS, n)


class TrialTooShortError(ValueError):
    """Trial has fewer samples than one horizon."""

    @classmethod
    def for_horizon(cls, trial: "Trial", spec: HorizonSpec) -> "TrialTooShortError":
        return cls(
            f"trial {trial.key()} has {trial.n_samples} samples, shorter than one "
            f"{spec.horizon_ms:g} ms horizon ({spec.n_samples} samples)"
        )


@dataclass
class Trial:
    """One uniformly sampled recording: reference CoM states plus the
    acceleration inputs derived from ground reaction forces.

    positions/velocities/accel_inputs are (n, 3) arrays on a shared
    timebase with sample period dt. `is_static` marks low-displacement
    activities that are excluded from direction-accuracy metrics.
    """

    subject_id: str
    activity_id: str
    repeat_index: int
    is_static: bool
    mass: float
    dt: float
    positions: np.ndarray = field(repr=False)
    velocities: np.ndarray = field(repr=False)
    accel_inputs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.accel_inputs = np.asarray(self.accel_inputs, dtype=float)
        n = len(self.positions)
        for name, arr in (
            ("positions", self.positions),
            ("velocities", self.velocities),
            ("accel_inputs", self.accel_inputs),
        ):
            if arr.shape != (n, 3):
                raise ValueError(f"{name} must be (n, 3) with a shared length, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if n < 2:
            raise ValueError(f"a trial needs at least 2 samples, got {n}")
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.mass <= 0 or not np.isfinite(self.mass):
            raise ValueError(f"mass must be positive, got {self.mass}")

    @property
    def n_samples(self) -> int:
        return len(self.positions)

    def key(self) -> tuple:
        return (self.subject_id, self.activity_id, self.repeat_index)


def _input_kernel(n: int, dt: float, shape) -> np.ndarray:
    """Position response at sample k to a unit acceleration shape g[i].

    Summing each ZOH step's contribution gives, for k = 1..n (1-based),
    C[k] = dt^2 * sum_{i=1}^{k-1} (k - i - 1/2) g[i], evaluated here through
    the running sums of g and i*g so the whole kernel costs O(n). The running
    sums are sequential, so a shorter kernel of the same shape is a prefix
    of a longer one.
    """
    g1 = np.concatenate([[0.0], np.cumsum(shape[: n - 1])])
    g2 = np.concatenate([[0.0], np.cumsum(shape[: n - 1] * np.arange(1, n))])
    k = np.arange(1, n + 1)
    return dt * dt * ((k - 0.5) * g1 - g2)


def worker_count(threads: int, tasks: int) -> int:
    """Workers for `tasks` jobs on up to `threads`: at least one, and no more
    than the jobs or the CPUs, since a worker beyond either only adds memory."""
    return max(1, min(threads, tasks, os.cpu_count() or 1))


class _Sweep:
    """Every profile at every horizon of a session, a block of start rows at a time.

    The trials lie back to back, component-major: trial t fills columns
    offsets[t] : offsets[t] + lengths[t] of (3, L) position, velocity and
    input arrays, which end in max(ns) zero columns, so kernel row r is the
    start at column r and every row's window lies inside the arrays. Only a
    batch's columns of them are ever built (`lay_out`), and its rows are
    indexed from the batch's first. Rows whose horizon runs past their
    trial's end compute finite values that no caller keeps. `blocks` cuts the
    rows into slices of at most BLOCK_STARTS; with no horizon in `ns` the
    sweep has its geometry only.

    A pass is one profile over the first n columns of each row's window. Zero,
    const and oracle errors at (start, lag) do not depend on the horizon, so
    one pass over the longest horizon serves all; the cubic kernel changes
    with the horizon, so it takes one pass per horizon. Threads share a
    sweep, each with its own `work()` arrays.
    """

    def __init__(self, trials, dt: float, kinds, ns):
        for trial in trials:
            if trial.dt != dt:
                raise ValueError(f"trial dt {trial.dt} does not match horizon dt {dt}")
        kinds = [ProfileKind(kind) for kind in kinds]
        self.trials = trials
        self.lengths = np.array([trial.n_samples for trial in trials], dtype=int)
        self.ns, self.n_kinds = list(ns), len(kinds)
        self.offsets = np.cumsum(self.lengths) - self.lengths
        self.rows = int(self.lengths.sum())
        self.blocks = [slice(first, min(first + BLOCK_STARTS, self.rows)) for first in range(0, self.rows, BLOCK_STARTS)]
        if not self.ns:
            return
        self.n_cols = n_cols = max(ns)
        self.lags_dt = np.arange(n_cols) * dt
        every = list(range(len(ns)))
        self.passes = []  # (profile index, columns, input kernel or profile, horizon indices)
        for p, kind in enumerate(kinds):
            if kind is ProfileKind.CUBIC:
                self.passes += [(p, n, _input_kernel(n, dt, cubic_decay(n)), [j]) for j, n in enumerate(ns)]
            elif kind is ProfileKind.CONST:
                self.passes.append((p, n_cols, _input_kernel(n_cols, dt, np.ones(n_cols)), every))
            else:
                self.passes.append((p, n_cols, kind, every))
        self.oracle = ProfileKind.ORACLE in kinds
        self.dt2 = dt * dt

    def lay_out(self, first: int, stop: int):
        """Lay out the columns first : stop + max(ns), which the windows of
        start rows first : stop read, with row and column first at index 0.
        The last batch's arrays are dropped before these are built, so call
        this batch by batch, in order: a trial that runs on past stop hands
        the oracle's prefix sums at column stop on to the next batch, which
        scans on from them, so every sum is the whole trial's scan bit for
        bit."""
        self.windows = self.v0s = self.a0s = self.w1 = self.w2 = self.wh = None
        width = stop - first + self.n_cols
        positions, velocities, accel = (np.zeros((3, width)) for _ in range(3))
        if self.oracle:
            s1, s2, half = np.zeros((3, width)), np.zeros((3, width)), np.zeros(width)
        for trial, offset, n in zip(self.trials, self.offsets, self.lengths):
            a, b = max(first - offset, 0), min(first + width - offset, n)  # the trial's samples here
            if a >= b:
                continue
            cols = slice(offset + a - first, offset + b - first)
            positions[:, cols] = trial.positions[a:b].T
            velocities[:, cols] = trial.velocities[a:b].T
            accel[:, cols] = trial.accel_inputs[a:b].T
            if self.oracle:
                # at trial sample j, s1 = sum of u[m] and s2 = sum of m * u[m]
                # over m < j, and half = j - 1/2, all 0 past the last trial.
                # Then sum_i (k-i-1/2) u[s+i-1] = (s+k-1/2) * du1 - du2, with
                # du the sums' differences between trial samples s+k and s.
                m, u = np.arange(a, b), trial.accel_inputs[a : b - 1].T
                half[cols] = m - 0.5
                if a:  # the trial began in an earlier batch: scan on from its carried sums
                    s1[:, cols.start], s2[:, cols.start] = self.carry
                for s, terms in ((s1, u), (s2, u * m[:-1])):
                    s[:, cols.start + 1 : cols.stop] = terms
                    scan = s[:, cols.start + (a == 0) : cols.stop]  # a trial's own scan starts at u[0]
                    np.cumsum(scan, axis=1, out=scan)
        self.windows = sliding_window_view(positions, self.n_cols, axis=1)
        self.v0s, self.a0s = velocities, accel
        if self.oracle:
            self.carry = s1[:, stop - first].copy(), s2[:, stop - first].copy()
            self.w1, self.w2, self.wh = (sliding_window_view(a, self.n_cols, axis=-1) for a in (s1, s2, half))

    def starts(self, n: int) -> np.ndarray:
        """Number of horizon starts of n samples in each trial."""
        return np.maximum(self.lengths - n + 1, 0)

    def work(self) -> np.ndarray:
        """One thread's work arrays, each (block rows, longest horizon): the
        base positions of the three components, the prediction, the errors
        and, with the oracle, its response."""
        return np.empty((5 + self.oracle, self.blocks[0].stop, self.n_cols))

    def _base(self, rows, base):
        """P0 + (k*dt)*V0 at the start rows in the slice `rows`, into the
        (3, rows, columns) array base."""
        for c in range(3):
            np.multiply(self.lags_dt, self.v0s[c, rows, None], out=base[c])
            base[c] += self.windows[c, rows, :1]

    def _predict(self, response, c, rows, base, out, tmp):
        """Component c of one pass's predicted positions at the start rows in
        the slice `rows`: the base plus the response to the profile's inputs,
        into out. The zero profile adds none and returns the base itself."""
        if response is ProfileKind.ZERO:
            return base
        if response is ProfileKind.ORACLE:
            w1, w2 = self.w1[c, rows], self.w2[c, rows]
            np.subtract(w1, w1[:, :1], out=out)
            out *= self.wh[rows]
            out -= np.subtract(w2, w2[:, :1], out=tmp)
            out *= self.dt2
        else:
            np.multiply(response, self.a0s[c, rows, None], out=out)
        out += base
        return out

    def _passes(self, rows, work):
        """Yield (profile index, horizon indices, errors, scores) for each pass
        at the start rows in the slice `rows`: errors[i, k] is the error at
        lag k of row rows.start + i (a work array the next pass overwrites),
        scores[m] the 0/1 direction scores at horizon indices[m]. Squared
        components are summed as (d0^2 + d1^2) + d2^2, as `np.sum` does.
        """
        b = rows.stop - rows.start
        base, pred, errors = work[:3, :b], work[3, :b], work[4, :b]
        tmp = work[5, :b] if self.oracle else None
        self._base(rows, base)
        windows, cols = self.windows[:, rows], np.arange(b)
        # a score compares signs along the reference's largest axis; argmax
        # ties resolve X, Y, Z
        refs = [windows[:, :, n - 1] - windows[:, :, 0] for n in self.ns]
        axes = [np.argmax(np.abs(ref), axis=0) for ref in refs]
        signs = [np.sign(ref[axis, cols]) for ref, axis in zip(refs, axes)]
        for p, n, response, js in self.passes:
            # a pass over fewer columns works in the leading b * n elements
            # of the prediction and error arrays, so that they stay contiguous
            out, err = (a.reshape(-1)[: b * n].reshape(b, n) for a in (pred, errors))
            disp = np.empty((len(js), 3, b))
            for c in range(3):
                pred_c = self._predict(response, c, rows, base[c, :, :n], out, tmp)
                for m, j in enumerate(js):
                    np.subtract(pred_c[:, self.ns[j] - 1], pred_c[:, 0], out=disp[m, c])
                dev = np.subtract(pred_c, windows[c, :, :n], out=out)
                if c == 0:
                    np.multiply(dev, dev, out=err)
                else:
                    dev *= dev
                    err += dev
            np.sqrt(err, out=err)
            err[:, 0] = 0.0  # initial state is handed over exactly
            yield p, js, err, [np.sign(disp[m][axes[j], cols]) == signs[j] for m, j in enumerate(js)]

    def block(self, rows: slice, work):
        """(means, maxima, scores) of every profile and horizon at the start
        rows in the slice `rows`, each (profiles, horizons, rows)."""
        shape = (self.n_kinds, len(self.ns), rows.stop - rows.start)
        means, maxima, scores = np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int8)
        for p, js, errors, pass_scores in self._passes(rows, work):
            for j, score in zip(js, pass_scores):
                np.mean(errors[:, : self.ns[j]], axis=1, out=means[p, j])
                np.max(errors[:, : self.ns[j]], axis=1, out=maxima[p, j])
                scores[p, j] = score
        return means, maxima, scores

    def run(self, threads: int):
        """`block` of every one of `blocks` in order, on a pool of
        `worker_count` threads (a pool of one at one worker), four blocks per
        thread at a time. Each batch is laid out on its own, and the threads
        share its layout. A batch is swept whole before any of it is handed
        on: a slow consumer holds the threads back instead of piling up
        results, and never runs while they do, so neither waits for the GIL
        held by the other."""
        workers = worker_count(threads, len(self.blocks))
        spare, local = [self.work() for _ in range(workers)], threading.local()

        def block(rows):  # each thread takes one set of the caller's work arrays
            if not hasattr(local, "work"):
                local.work = spare.pop()
            return self.block(rows, local.work)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for i in range(0, len(self.blocks), 4 * workers):
                batch = self.blocks[i : i + 4 * workers]
                first = batch[0].start
                self.lay_out(first, batch[-1].stop)
                yield from list(pool.map(block, [slice(rows.start - first, rows.stop - first) for rows in batch]))


def sweep_session(trials, specs, kinds, *, threads: int = 1, reduced: bool = False):
    """Sweep every trial with every profile in `kinds` at every horizon in
    `specs`, from every start, and yield (trial index, vectors) in trial
    order, as soon as the trial's last block of starts is swept on up to
    `threads` threads (see `worker_count`).

    The trials are laid out a batch of blocks at a time (`_Sweep`), with room
    only for the horizons that fit the longest trial: a longer horizon costs
    nothing.
    vectors[j] holds the (means, maxima, int8 scores) of specs[j], each
    (len(kinds), starts): none for a trial shorter than the spec. A mean is
    the row mean of that start's error series, as `errors.mean(axis=1)` of
    the trial's `sweep_errors` matrix. `reduced` folds vectors[j] to
    (starts, sums, maxima, scores): the trial's start count (0 when it is
    shorter than the spec) and, each (len(kinds),), every profile's `np.sum`
    of means, largest max error (-inf with no start) and int64 sum of scores.
    Maxima and scores fold block by block, exact in any order; the means,
    whose sum is not, are summed whole and dropped before the hand-off.
    Nothing here keeps a trial's vectors once they are handed over.
    """
    dts = {spec.dt for spec in specs}
    if len(dts) != 1:
        raise ValueError(f"a session sweep needs horizons of one sample period, got {sorted(dts)}")
    longest = max((trial.n_samples for trial in trials), default=0)
    live = [j for j, spec in enumerate(specs) if spec.n_samples <= longest]
    ns = [specs[j].n_samples for j in live]
    sweep = _Sweep(trials, dts.pop(), kinds, ns)
    counts = [sweep.starts(spec.n_samples).tolist() for spec in specs]
    if live:
        blocks = sweep.run(threads)
    else:  # nothing to sweep, but the blocks still hand every trial over
        blocks = itertools.repeat(None)
    starts = sweep.offsets.tolist() + [sweep.rows]  # each trial's first row, then the end

    def empty(count):  # a trial's vectors at one horizon, before its first block
        if reduced:
            return np.empty((len(kinds), count)), np.full(len(kinds), -np.inf), np.zeros(len(kinds), np.int64)
        return tuple(np.empty((len(kinds), count), d) for d in (float, float, np.int8))

    t, vectors = 0, None
    for rows, block in zip(sweep.blocks, blocks):
        while starts[t] < rows.stop:
            if vectors is None:  # trial t's vectors, filled block by block
                vectors = [empty(c[t]) for c in counts]
            for k, j in enumerate(live):
                lo, hi = max(rows.start, starts[t]), min(rows.stop, starts[t] + counts[j][t])
                if lo < hi:
                    means, maxima, scores = vectors[j]
                    into = slice(lo - starts[t], hi - starts[t])
                    got_means, got_maxima, got_scores = (v[:, k, lo - rows.start : hi - rows.start] for v in block)
                    means[:, into] = got_means
                    if reduced:
                        np.maximum(maxima, got_maxima.max(axis=1), out=maxima)
                        scores += got_scores.sum(axis=1)
                    else:
                        maxima[:, into], scores[:, into] = got_maxima, got_scores
            if starts[t + 1] > rows.stop:
                break  # the trial runs on into the next block
            if reduced:  # the means go, summed whole, before the trial is handed over
                vectors = [(c[t], m.sum(axis=1), x, s) for c, (m, x, s) in zip(counts, vectors)]
            yield t, vectors
            t, vectors = t + 1, None
            means = maxima = scores = None  # the handed trial's last unpacked vectors go too


def sweep_errors(trial: Trial, spec: HorizonSpec, kind: ProfileKind):
    """Every horizon of a trial, in start order: the (h, n) error matrix and
    the (h,) 0/1 int8 direction scores.

    Starts run 0, 1, 2, ... while the horizon still fits; a trial shorter
    than one horizon is an error so callers can report the skip.
    """
    n = spec.n_samples
    # dt and kind are checked first; as in `sweep_session`, a horizon the
    # trial cannot fit gets no columns
    sweep = _Sweep([trial], spec.dt, [kind], [n] if n <= trial.n_samples else [])
    if trial.n_samples < n:
        raise TrialTooShortError.for_horizon(trial, spec)
    h = int(sweep.starts(n)[0])
    sweep.lay_out(0, sweep.rows)  # one batch
    work = sweep.work()
    errors, scores = np.empty((h, n)), np.empty(h, dtype=np.int8)
    for first in range(0, h, BLOCK_STARTS):
        rows = slice(first, min(first + BLOCK_STARTS, h))
        for _, _, block, (block_scores,) in sweep._passes(rows, work):
            errors[rows], scores[rows] = block, block_scores
    return errors, scores
