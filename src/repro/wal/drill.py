"""The kill -9 crash-drill child: a deterministic acknowledged update stream.

Run as ``python -m repro.wal.drill --dir DEPLOYMENT --updates N --seed S``.
The child opens the live deployment, applies a seeded insert/delete stream,
and prints one ``ACK <lsn> <op> <oid>`` line -- flushed -- after each
mutator *returns* (i.e. after the record is durable per the fsync policy).
The parent test (or the CI crash smoke) reads some ACK lines, sends
``SIGKILL``, reopens the directory, and asserts that every acknowledged LSN
was recovered: acked is a subset of replayed, which is exactly the WAL's
durability contract.  :func:`verify_acknowledged` is that check over a
saved drill log.

The stream is a pure function of ``(directory contents, seed)``, so an
uninterrupted run over a copy of the same deployment produces the identical
sequence -- the reference the recovery tests compare answers against,
bit for bit.
"""

from __future__ import annotations

import argparse
import random
import re
from typing import List

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.uncertain.objects import UncertainObject

#: Fraction of steps that delete an existing object (when more than one is
#: left -- the engine cannot go empty, an empty diagram is unbuildable).
DELETE_FRACTION = 0.3


def synthesize_object(oid: int, rng: random.Random, domain: "object") -> UncertainObject:
    """A fresh uncertain object with a seeded center/radius inside ``domain``."""
    xmin = getattr(domain, "xmin")
    xmax = getattr(domain, "xmax")
    ymin = getattr(domain, "ymin")
    ymax = getattr(domain, "ymax")
    width = xmax - xmin
    height = ymax - ymin
    radius = 0.005 * min(width, height) * (1.0 + rng.random())
    x = xmin + radius + rng.random() * (width - 2 * radius)
    y = ymin + radius + rng.random() * (height - 2 * radius)
    return UncertainObject(oid, Circle(Point(x, y), radius))


def run_stream(directory: str, updates: int, seed: int,
               fsync: str = "always") -> int:
    """Open the deployment and apply the seeded stream, acknowledging each."""
    from repro.engine.engine import QueryEngine

    engine = QueryEngine.open_live(directory, fsync=fsync)
    rng = random.Random(seed)
    next_oid = (max(engine.by_id) if engine.by_id else 0) + 1000
    for _ in range(updates):
        live: List[int] = sorted(engine.by_id)
        if len(live) > 1 and rng.random() < DELETE_FRACTION:
            oid = live[rng.randrange(len(live))]
            engine.delete(oid)
            op = "delete"
        else:
            oid = next_oid
            next_oid += 1
            engine.insert(synthesize_object(oid, rng, engine.domain))
            op = "insert"
        # The mutator returned, so the record is durable (fsync=always) --
        # only now is the update acknowledged to whoever watches stdout.
        print(f"ACK {engine.last_lsn} {op} {oid}", flush=True)
    if fsync != "always":
        engine.wal_sync()
    print("DONE", flush=True)
    engine.close_wal()
    return 0


def verify_acknowledged(directory: str, log_path: str) -> str:
    """Check a drill log against the deployment the drill ran on.

    Every ``ACK <lsn>`` line of ``log_path`` must name a record that is
    durable in the directory's WAL, and ``QueryEngine.open_live`` must
    recover past the largest acknowledged LSN.  Raises
    :class:`~repro.wal.log.WalError` naming the lost LSNs otherwise, and
    returns a one-line summary.
    """
    from repro.engine.engine import QueryEngine
    from repro.engine.snapshot import wal_path
    from repro.wal.log import WalError, scan_wal

    with open(log_path, encoding="utf-8") as log:
        acked = [int(m.group(1)) for line in log if (m := re.match(r"ACK (\d+)", line))]
    durable = {record.lsn for record in scan_wal(wal_path(directory)).records}
    missing = [lsn for lsn in acked if lsn not in durable]
    if missing:
        raise WalError(f"lost acknowledged updates: {missing}")
    engine = QueryEngine.open_live(directory)
    try:
        if acked and engine.last_lsn < max(acked):
            raise WalError(
                f"recovered up to LSN {engine.last_lsn}, "
                f"but LSN {max(acked)} was acknowledged"
            )
    finally:
        engine.close_wal()
    return (f"recovered {len(durable)} durable records; "
            f"all {len(acked)} acknowledged updates present")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.wal.drill",
        description="acknowledged update stream against a live deployment "
                    "(crash-drill child process)",
    )
    parser.add_argument("--dir", required=True, help="live deployment directory")
    parser.add_argument("--updates", type=int, default=100,
                        help="number of insert/delete steps (default 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed (default 0)")
    parser.add_argument("--fsync", choices=("always", "batch"), default="always",
                        help="WAL durability policy (default always)")
    args = parser.parse_args(argv)
    return run_stream(args.dir, args.updates, args.seed, fsync=args.fsync)


if __name__ == "__main__":
    raise SystemExit(main())
