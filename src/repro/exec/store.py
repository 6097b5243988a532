"""Result persistence services of the execution core.

Two stores, both keyed by the job content hash
(:meth:`repro.exec.plan.ExperimentJob.key`):

* :class:`ResultCache` — one JSON file per job hash in a cache directory.
  A hit replays the recorded :class:`~repro.pipeline.config.
  InstanceResult` without executing anything — including budgeted and
  raced outcomes, whose limits are part of the canonical spec and hence of
  the hash.  Corrupt entries read as misses and are overwritten.
* :class:`ResultLog` — an append-only JSONL stream of completed results
  (one object per line: job key, kind, instance name, pipeline spec,
  result), which doubles as the *resume* store: keys already recorded are
  not re-executed.  :func:`iter_jsonl_records` streams such a file's
  records; the resume index, ``exec merge``, the history miner
  (:mod:`repro.learn.history`) and :func:`repro.experiments.reporting.
  read_jsonl` all parse results files through it.

Both are session services shared by every execution surface (the paper's
tables, the portfolio, serve, ``repro exec run`` — including its sharded
coordinator/worker mode, :mod:`repro.exec.shard`).

Multi-process contract (what sharded execution relies on):

* :class:`ResultCache` is safe for any number of concurrent writer and
  reader *processes* on one cache directory: every ``store`` writes a
  unique temp file and atomically ``os.replace``\\ s it over the entry, so
  readers only ever see a complete old or new entry, and unreadable or
  unwritable entries degrade to cache misses instead of failing the run.
* :class:`ResultLog` stays a **single-appender** store: concurrent
  appenders to one JSONL file would interleave resume indices and break
  the byte-stable plan ordering.  Sharded runs therefore give every shard
  its own file (:func:`repro.exec.shard.shard_results_path`) and
  stable-merge them back into plan order afterwards.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro import obs
from repro.pipeline import InstanceResult

PathLike = Union[str, Path]


def iter_jsonl_records(path: PathLike) -> Iterator[dict]:
    """Yield the well-formed records (dicts with a ``result`` key) of a
    JSONL results file, in file order.

    A true generator: the file is streamed line by line, so resuming a
    ~10\\ :sup:`5`-row results file never materializes the whole file in
    memory.  Malformed lines (e.g. a truncated final line after a crash)
    are skipped; this is the single parsing routine shared by the resume
    index, ``exec merge``, the history miner and
    :func:`repro.experiments.reporting.read_jsonl`.
    """
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                record["result"] = dict(record["result"])
            except (ValueError, KeyError, TypeError):
                continue
            yield record


class ResultCache:
    """On-disk result cache: one JSON file per job content hash."""

    def __init__(self, cache_dir: Optional[PathLike] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None

    @property
    def enabled(self) -> bool:
        return self.cache_dir is not None

    def path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        # name concatenation, not with_suffix: a key containing a dot must
        # still map to exactly "<key>.json" (with_suffix would clobber the
        # part after the key's last dot)
        return self.cache_dir / (key + ".json")

    def load(self, key: str) -> Optional[InstanceResult]:
        path = self.path(key)
        if path is None:
            return None
        try:
            text = path.read_text()
        except OSError:
            # missing, unreadable, or occupied by a directory: a cache miss
            obs.count("cache.miss")
            return None
        try:
            result = InstanceResult.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError):
            # a corrupt cache entry is treated as a miss and overwritten
            obs.count("cache.miss")
            return None
        obs.count("cache.hit")
        return result

    def store(self, key: str, result: InstanceResult) -> None:
        """Write (or repair) the cache entry for ``key``.

        Safe under concurrent writer processes sharing one cache directory
        (the sharded-execution layout): each writer stages the entry in its
        own unique temp file (``tempfile.mkstemp``), then atomically
        ``os.replace``\\ s it over ``<key>.json`` — readers never observe a
        torn entry, and the last completed writer wins.  A store that fails
        at the filesystem level (disk full, permissions, the entry path
        occupied by a directory) warns and leaves the run uncached instead
        of crashing it.
        """
        path = self.path(key)
        if path is None:
            return
        obs.count("cache.store")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=".store-", suffix=".tmp"
            )
        except OSError as exc:
            warnings.warn(
                f"result cache store failed for key {key!r} ({exc}); "
                f"continuing without caching this result",
                UserWarning,
                stacklevel=2,
            )
            return
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(result.to_dict(), sort_keys=True))
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            warnings.warn(
                f"result cache store failed for key {key!r} ({exc}); "
                f"continuing without caching this result",
                UserWarning,
                stacklevel=2,
            )


class ResultLog:
    """JSONL result stream + resume index.

    The file is parsed at most once per log instance; afterwards the
    in-memory index is kept current by :meth:`append` (one log instance is
    the file's only appender — concurrent appender *processes* must not
    share one file, which is why sharded runs write per-shard files and
    merge them afterwards, see :mod:`repro.exec.shard`).  Keys already
    present in the file — or already appended by this instance — are
    skipped, so re-running a batch against the same results file never
    double-counts a job.  The file is
    streamed line by line when first indexed, so resuming a very large
    results file does not hold the whole file in memory.

    Appends go through one lazily-opened append handle that stays open for
    the life of the instance (a 10^5-record service bench would otherwise
    pay an open/close syscall pair per record).  Every record is flushed
    after the write, so readers of the file — including this instance's own
    :meth:`recorded` — always see complete lines.  The handle is released
    by :meth:`close` (the log is also a context manager) and by
    :meth:`invalidate`, which must drop it anyway because the file is about
    to change underneath the instance.
    """

    def __init__(self, results_path: Optional[PathLike] = None) -> None:
        self.results_path = Path(results_path) if results_path else None
        self._streamed_keys: set = set()
        self._recorded_index: Optional[Dict[str, dict]] = None
        self._handle = None

    @property
    def enabled(self) -> bool:
        return self.results_path is not None

    def recorded(self) -> Dict[str, dict]:
        """Job-key -> result-dict index of the JSONL results store."""
        if self._recorded_index is not None:
            return self._recorded_index
        if self.results_path is None or not self.results_path.is_file():
            self._recorded_index = {}
            return self._recorded_index
        recorded: Dict[str, dict] = {}
        for record in iter_jsonl_records(self.results_path):
            if "key" in record:
                recorded[str(record["key"])] = record["result"]
        self._streamed_keys.update(recorded)
        self._recorded_index = recorded
        return recorded

    def invalidate(self) -> None:
        """Drop the parsed index so the next read re-parses the file.

        Needed when the file changes underneath this instance — e.g. after
        :func:`repro.exec.shard.merge_shard_logs` rewrote it in plan order.
        Also closes the append handle: it points at the replaced file's old
        inode, so the next :meth:`append` must reopen the new file.
        """
        self.close()
        self._recorded_index = None
        self._streamed_keys = set()

    def close(self) -> None:
        """Release the append handle (reopened lazily by the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def append(self, key: str, job, result: InstanceResult) -> None:
        """Append one result record (deduplicated by job key)."""
        if self.results_path is None:
            return
        if key in self._streamed_keys:
            # a "log hit": the file already holds this key's record
            obs.count("log.dedup_hit")
            return
        obs.count("log.append")
        if self._handle is None:
            self.results_path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.results_path, "a")
        record = {
            "key": key,
            "kind": job.kind,
            "instance": job.instance_name,
            "result": result.to_dict(),
        }
        # jobs record their canonical pipeline spec, so the history miner
        # (repro.learn.history) can attribute the cost to the spec without
        # rebuilding the job; older files without the field simply mine to
        # nothing
        member = dict(getattr(job, "params", ()) or ()).get("member")
        if member is not None:
            record["member"] = str(member)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._streamed_keys.add(key)
        if self._recorded_index is not None:
            self._recorded_index[key] = record["result"]
