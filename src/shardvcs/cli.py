"""Command-line interface.

Commands: push, pull, grant, serve-middleman, bench, calibrate, report,
advance. World state (blob store, chain snapshot, share cache, receipt log)
persists under a state directory so separate invocations compose into one
simulated deployment. On a virtual clock, `advance` drives settlement; on a
real clock, confirmations settle as wall time passes.

Exit codes: 0 success, 1 usage error, 2 protocol error, 3 access denied.

Each command imports the layers it uses, so `serve-middleman` starts without
the envelope's cryptography, the store, the ledger or the benchmark, and the
exception types that pick an exit code are imported only once one is raised.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .middleman import (
    DEFAULT_PORT,
    DEFAULT_TTL_S,
    HttpShareCache,
    MiddlemanServer,
    MiddlemanUnavailableError,
    ShareCache,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROTOCOL = 2
EXIT_ACCESS = 3


def _access_errors() -> type[Exception]:
    from .ledger import AccessDeniedError

    return AccessDeniedError


def _protocol_errors() -> tuple[type[Exception], ...]:
    from . import bench
    from .cas import CapacityError, NotFoundError
    from .ledger import ClockModeError
    from .protocol import ProtocolError

    return (ProtocolError, NotFoundError, CapacityError, MiddlemanUnavailableError, ClockModeError,
            bench.BenchError, bench.CalibrationError, bench.CsvParseError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_address(text: str):
    """Accept `0x` + 40 hex strictly; any other string is hashed as a label."""
    from .ledger import Address

    if text.lower().startswith("0x"):
        return Address.from_text(text.lower())
    return Address.from_label(text)


def _archive_directory(root: Path) -> bytes:
    """Deterministic uncompressed zip of a directory tree."""
    import zipfile
    from io import BytesIO

    buf = BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_STORED) as zf:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            info = zipfile.ZipInfo(str(path.relative_to(root)), date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, path.read_bytes())
    return buf.getvalue()


def _read_push_payload(path_text: str) -> bytes:
    path = Path(path_text)
    if path.is_dir():
        return _archive_directory(path)
    if path.is_file():
        return path.read_bytes()
    raise ValueError(f"push path does not exist: {path_text}")


# -- persistent world --------------------------------------------------------


@contextlib.contextmanager
def _world(args):
    """A client on the persisted world, held under an exclusive lock on the state dir and saved on exit.

    Concurrent commands on one state dir run one after another, so none loses another's
    transactions. The world is saved on failure too: receipts settled here are appended to
    `receipts.jsonl`, then `chain.json` (clock, chain, cache, log length) is replaced atomically;
    a load cuts off log lines a crash left past that length, and the chain settles them again.
    A remote cache holds its own state; its connection is closed instead.
    """
    import fcntl
    import json
    import os
    import random

    from .cas import BlobStore, write_atomic
    from .config import HarnessConfig
    from .ledger import SimulatedChain
    from .protocol import Client

    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    with open(state_dir / ".lock", "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        cfg = HarnessConfig.from_file(args.config) if args.config else HarnessConfig()
        state_path, log_path = state_dir / "chain.json", state_dir / "receipts.jsonl"
        saved = json.loads(state_path.read_text()) if state_path.exists() else {}
        if "log_bytes" in saved and log_path.exists() and log_path.stat().st_size > saved["log_bytes"]:
            os.truncate(log_path, saved["log_bytes"])
        if "cache" not in saved:  # an older state dir keeps its cache in middleman.json
            old = state_dir / "middleman.json"
            saved["cache"] = json.loads(old.read_text()) if old.exists() else {}

        clock = cfg.make_clock()
        if clock.is_virtual and saved.get("clock_time") is not None:
            clock.advance_to(saved["clock_time"])

        rng = random.Random(args.seed) if args.seed is not None else None
        cas = BlobStore(state_dir / "cas", cfg.store_profile(), cfg.fetch_profile(), clock)
        chain = SimulatedChain(cfg.chain_config(), clock, rng=rng)
        if "chain" in saved:
            chain.restore(saved["chain"])

        if args.middleman_url:
            middleman = HttpShareCache(args.middleman_url)
        else:
            middleman = ShareCache(ttl_s=cfg.middleman_ttl_s, clock=clock)
            middleman.restore(saved["cache"])

        try:
            yield Client(cas, chain, middleman, clock=clock, rng=rng)
        finally:
            try:
                # chain.snapshot() settles what is due, so the state is taken before the log is written
                state = {"clock_time": clock.now() if clock.is_virtual else None, "chain": chain.snapshot(),
                         "cache": saved["cache"] if args.middleman_url else middleman.snapshot()}
                with open(log_path, "ab") as log:
                    log.write("".join(r.to_json() + "\n" for r in chain.settled).encode())
                    state["log_bytes"] = log.tell()
                write_atomic(state_path, json.dumps(state).encode())
            finally:
                if args.middleman_url:
                    middleman.close()


# -- commands -------------------------------------------------------------------


def _cmd_push(args) -> int:
    with _world(args) as client:
        payload = _read_push_payload(args.path)
        owner = _parse_address(args.owner)
        result = client.push(payload, owner)
    print(f"cid: {result.cid.text}")
    print(f"owner-share: {result.owner_share.to_text()}")
    print(f"registration: {result.registration.tx_id} {result.registration.status}")
    print(f"user-perceived-s: {result.user_perceived_duration:.6f}")
    return EXIT_OK


def _cmd_pull(args) -> int:
    from .cas import Cid
    from .sss import Share

    with _world(args) as client:
        cid = Cid.from_text(args.cid)
        caller = _parse_address(getattr(args, "as"))
        held = Share.from_text(args.share)
        plaintext, report = client.pull(cid, caller, held)
    if args.out:
        Path(args.out).write_bytes(plaintext)
    else:
        sys.stdout.buffer.write(plaintext)
        sys.stdout.buffer.flush()
    print(
        f"path: {report.path_used}  access-checked: {report.access_checked}"
        f"  total-s: {report.total_s:.6f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_grant(args) -> int:
    from .cas import Cid

    with _world(args) as client:
        receipt = client.add_collaborator(
            _parse_address(args.owner), Cid.from_text(args.cid), _parse_address(args.to)
        )
    print(f"grant: {receipt.tx_id} {receipt.status}")
    return EXIT_OK


def _cmd_advance(args) -> int:
    with _world(args) as client:
        settled = client.chain.advance_clock(args.seconds)
    print(f"advanced {args.seconds}s; settled {len(settled)} transaction(s)")
    for r in settled:
        reason = f" ({r.rejection_reason})" if r.rejection_reason else ""
        print(f"  {r.tx_id} {r.status}{reason} gas={r.gas_used}")
    return EXIT_OK


def _cmd_serve_middleman(args) -> int:
    server = MiddlemanServer(ShareCache(ttl_s=args.ttl_s), port=args.port)
    print(f"middleman listening on {server.url} (ttl {args.ttl_s}s)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench as bench_mod
    from .config import HarnessConfig

    cfg = HarnessConfig.from_file(args.config) if args.config else HarnessConfig()
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    clock = cfg.make_clock()
    common = dict(
        sizes=sizes,
        repeats=args.repeats,
        store_profile=cfg.store_profile(),
        fetch_profile=cfg.fetch_profile(),
        chain_config=cfg.chain_config(),
        seed=args.seed,
        clock=clock,
    )
    if args.operation == "push":
        samples = bench_mod.run_push_bench(**common)
    else:
        samples = bench_mod.run_pull_bench(start_offset_s=args.offset, **common)
    csv_text = bench_mod.samples_to_csv(samples)
    if args.csv:
        Path(args.csv).write_text(csv_text)
        print(f"wrote {len(samples)} samples to {args.csv}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    from . import bench as bench_mod
    from .config import HarnessConfig

    reference = (
        bench_mod.ReferenceTable.from_file(args.reference)
        if args.reference
        else bench_mod.EMBEDDED_REFERENCE
    )
    result = bench_mod.calibrate(reference)
    print(
        f"store profile: fixed {result.store_profile.fixed_overhead_s:.6f} s"
        f" + {result.store_profile.per_mb_s:.6f} s/MB"
    )
    print(f"  push residuals: {['%.4f' % r for r in result.push_fit.residuals]}")
    print(
        f"fetch profile: fixed {result.fetch_profile.fixed_overhead_s:.6f} s"
        f" + {result.fetch_profile.per_mb_s:.6f} s/MB"
        f" (after subtracting {bench_mod.DEFAULT_PULL_OVERHEAD_S} s pull overhead)"
    )
    print(f"  pull residuals: {['%.4f' % r for r in result.pull_fit.residuals]}")
    if args.write_config:
        cfg = HarnessConfig(
            store_fixed_s=result.store_profile.fixed_overhead_s,
            store_per_mb_s=result.store_profile.per_mb_s,
            fetch_fixed_s=result.fetch_profile.fixed_overhead_s,
            fetch_per_mb_s=result.fetch_profile.per_mb_s,
        )
        Path(args.write_config).write_text(cfg.to_text())
        print(f"wrote calibrated config to {args.write_config}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import bench as bench_mod

    text = sys.stdin.read() if args.csv_file == "-" else Path(args.csv_file).read_text()
    samples = bench_mod.parse_csv(text)
    sys.stdout.write(bench_mod.render_report(samples))
    return EXIT_OK


# -- parser wiring -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="shardvcs", description="Sharded-key decentralized repository hosting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(p):
        p.add_argument("--state-dir", default=".shardvcs", help="persistent world state directory")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--middleman-url", default=None, help="use a remote share cache at this URL")
        p.add_argument("--seed", type=int, default=None, help="deterministic randomness for testing")

    p = sub.add_parser("push", parents=[], help="seal, store, and register a file or directory")
    p.add_argument("path")
    p.add_argument("--owner", required=True, help="account (0x + 40 hex, or a label hashed to one)")
    add_world_args(p)
    p.set_defaults(func=_cmd_push)

    p = sub.add_parser("pull", help="retrieve and open a pushed blob")
    p.add_argument("cid")
    p.add_argument("--as", required=True, dest="as", help="caller account")
    p.add_argument("--share", required=True, help="held share text")
    p.add_argument("--out", default=None, help="write plaintext here instead of stdout")
    add_world_args(p)
    p.set_defaults(func=_cmd_pull)

    p = sub.add_parser("grant", help="give another account pull access")
    p.add_argument("cid")
    p.add_argument("--owner", required=True)
    p.add_argument("--to", required=True)
    add_world_args(p)
    p.set_defaults(func=_cmd_grant)

    p = sub.add_parser("advance", help="advance the virtual clock and settle transactions")
    p.add_argument("seconds", type=float)
    add_world_args(p)
    p.set_defaults(func=_cmd_advance)

    p = sub.add_parser("serve-middleman", help="run the share-cache HTTP service")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--ttl-s", type=float, default=DEFAULT_TTL_S)
    p.set_defaults(func=_cmd_serve_middleman)

    p = sub.add_parser("bench", help="run the latency benchmark and emit CSV")
    p.add_argument("operation", choices=["push", "pull"])
    p.add_argument("--sizes", default="1,5,10,20", help="comma-separated sizes in MB")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", type=float, default=2.0, help="pull start relative to confirmation (s)")
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("calibrate", help="fit latency profiles to the reference table")
    p.add_argument("--reference", default=None, help="CSV reference table file")
    p.add_argument("--write-config", default=None, help="write a config file with the fitted profiles")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("report", help="summarize a benchmark CSV")
    p.add_argument("csv_file", help="CSV path, or - for stdin")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _access_errors() as exc:
        print(f"access denied: {exc}", file=sys.stderr)
        return EXIT_ACCESS
    except _protocol_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
