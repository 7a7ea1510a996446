"""The forked workers of `experiment --parallel`; only that path imports this module."""
from __future__ import annotations

import os
import pickle
import signal
import tempfile


def _claim_runs(jobs: list, chunk: int, claims, store, run_slice) -> None:
    """A worker: run the jobs claimed from `claims`, `chunk` at a time, appending each run's frame to `store`."""
    while token := claims.read(2):
        start = int.from_bytes(token, "big") * chunk
        for index in range(start, min(start + chunk, len(jobs))):
            rows, error = run_slice(jobs[index:index + 1])
            frame = pickle.dumps((index, rows, error))
            store.write(len(frame).to_bytes(4, "big") + frame)  # one frame: a 4-byte length, then the pickle
            store.flush()
            if error is not None:
                claims.read(4096)  # every claim left, so no worker starts another run
                return


def map_runs(jobs: list, parallel: int, run_slice) -> tuple[list[tuple], str | None]:
    """`cli._map_runs` in min(parallel, len(jobs)) forked workers, each running its claims through `run_slice`.

    The workers claim the jobs one at a time from a pipe filled before the
    first fork and append each run's CSV rows (`metrics.run_rows`), only
    strings, to their own unlinked file (`_claim_runs`).  A worker that ends
    cleanly writes its number to the exit pipe they all share, and the parent
    reads its file; once every worker is gone, it reads the killed workers'
    files too.  It stops once every job before the first failed one is in,
    as in a serial run.  Every worker is killed and reaped before this returns.
    """
    workers = min(parallel, len(jobs))
    chunk = -(-len(jobs) // 2048)  # at most 2048 two-byte claims: one write of at most PIPE_BUF bytes
    pids, files, stores = [], [], {}  # stores: worker number -> its file, until the parent reads it
    try:
        read_fd, write_fd = os.pipe()
        files.append(claims := os.fdopen(read_fd, "rb", 0))
        with os.fdopen(write_fd, "wb", 0) as out:
            out.write(b"".join(k.to_bytes(2, "big") for k in range(-(-len(jobs) // chunk))))
        read_fd, write_fd = os.pipe()
        files.append(exits := os.fdopen(read_fd, "rb", 0))
        with os.fdopen(write_fd, "wb", 0) as done:  # closed once every worker holds it, so EOF means all are gone
            for k in range(1, workers + 1):
                files.append(store := tempfile.TemporaryFile())
                stores[k] = store
                pid = os.fork()
                if pid == 0:  # the worker; it never leaves this block
                    try:
                        _claim_runs(jobs, chunk, claims, store, run_slice)
                        done.write(k.to_bytes(4, "big"))  # one write under PIPE_BUF, so marks never interleave
                    finally:
                        os._exit(0)
                pids.append(pid)
        results, lost, missing = {}, 0, [0]  # results: job index -> (rows, error)
        while missing and stores:
            mark = exits.read(4)  # empty once every worker is gone: each file still unread is a killed worker's
            lost = 0 if mark else min(stores)
            for store in map(stores.pop, [int.from_bytes(mark, "big")] if mark else list(stores)):
                data, at = os.pread(store.fileno(), os.fstat(store.fileno()).st_size, 0), 0
                # Whole frames only: a killed worker's last one may be cut short.
                while at + 4 <= len(data) and (end := at + 4 + int.from_bytes(data[at:at + 4], "big")) <= len(data):
                    index, ran, why = pickle.loads(data[at + 4:end])
                    results[index], at = (ran, why), end
            first = min((i for i, (_, error) in results.items() if error is not None), default=len(jobs))
            missing = [i for i in range(first) if i not in results]
        error = f"worker {lost} of {workers} exited without sending its results" if missing else None
        rows = [row for i in range(missing[0] if missing else first) for row in results[i][0]]
        return rows, error or results.get(first, ([], None))[1]
    except OSError as exc:  # a pipe, a store or a worker could not be made
        return [], str(exc)
    finally:
        for file in files:
            file.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
