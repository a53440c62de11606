import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import pytest

import shardvcs
from shardvcs.cli import _build_parser, main
from shardvcs.middleman import HttpShareCache, MiddlemanServer, ShareCache

from scripted_middleman import http_reply, scripted_middleman


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return invoke


def _field(out, label):
    line = next(l for l in out.splitlines() if l.startswith(label + ": "))
    return line.split(": ", 1)[1].split()[0]


def push_file(run, tmp_path, state, payload=b"hello shard world\n", seed=7):
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    rc, out, _ = run("push", str(src), "--owner", "alice", "--state-dir", str(state), "--seed", str(seed))
    assert rc == 0
    return _field(out, "cid"), _field(out, "owner-share")


def test_walkthrough_push_pull_advance_grant(run, tmp_path):
    state = tmp_path / "state"
    payload = b"the repository bytes\n" * 100
    cid, share = push_file(run, tmp_path, state, payload)
    assert cid.startswith("sha256:")

    # before confirmation the cache serves the share
    out1 = tmp_path / "out1.bin"
    rc, _, err = run("pull", cid, "--as", "alice", "--share", share, "--out", str(out1), "--state-dir", str(state))
    assert rc == 0
    assert out1.read_bytes() == payload
    assert "path: middleman" in err
    assert "access-checked: False" in err

    rc, out, _ = run("advance", "20", "--state-dir", str(state))
    assert rc == 0
    assert "settled 1 transaction(s)" in out
    assert "confirmed gas=206886" in out

    out2 = tmp_path / "out2.bin"
    rc, _, err = run("pull", cid, "--as", "alice", "--share", share, "--out", str(out2), "--state-dir", str(state))
    assert rc == 0
    assert out2.read_bytes() == payload
    assert "path: on-chain" in err
    assert "access-checked: True" in err

    # a stranger is refused once ownership is on record
    rc, _, err = run("pull", cid, "--as", "mallory", "--share", share, "--out", str(tmp_path / "x"), "--state-dir", str(state))
    assert rc == 3
    assert "access denied" in err

    rc, out, _ = run("grant", cid, "--owner", "alice", "--to", "bob", "--state-dir", str(state))
    assert rc == 0
    assert "pending" in out

    # the grant has not settled yet
    rc, _, _ = run("pull", cid, "--as", "bob", "--share", share, "--out", str(tmp_path / "x"), "--state-dir", str(state))
    assert rc == 3

    rc, out, _ = run("advance", "20", "--state-dir", str(state))
    assert rc == 0
    assert "settled 1" in out

    out3 = tmp_path / "out3.bin"
    rc, _, err = run("pull", cid, "--as", "bob", "--share", share, "--out", str(out3), "--state-dir", str(state))
    assert rc == 0
    assert out3.read_bytes() == payload
    assert "path: on-chain" in err


@pytest.mark.parametrize(
    "bad",
    [{"stored_at": float("nan")}, {"stored_at": float("inf")}, {"share_text": "zz"}],
    ids=["nan-stored-at", "infinite-stored-at", "non-hex-share"],
)
def test_pull_on_a_state_dir_with_a_bad_cache_entry_exits_1(run, tmp_path, bad):
    """`json.loads` reads NaN and Infinity, so the saved cache is checked as it is restored."""
    state = tmp_path / "state"
    cid, share = push_file(run, tmp_path, state)
    state_file = state / "chain.json"
    saved = json.loads(state_file.read_text())
    saved["cache"][cid].update(bad)
    state_file.write_text(json.dumps(saved))
    before = state_file.read_bytes()
    out = tmp_path / "out.bin"
    rc, stdout, err = run("pull", cid, "--as", "alice", "--share", share, "--out", str(out), "--state-dir", str(state))
    assert (rc, stdout) == (1, "")
    assert err.startswith("usage error: ")
    assert not out.exists()
    assert state_file.read_bytes() == before


@pytest.mark.parametrize("key", ["due_at", "submitted_at"])
@pytest.mark.parametrize("bad", [float("nan"), "soon"], ids=["nan", "string"])
def test_advance_on_a_state_dir_with_a_bad_pending_time_exits_1(run, tmp_path, key, bad):
    """A pending transaction's times must be finite numbers, or the chain could never settle it."""
    state = tmp_path / "state"
    push_file(run, tmp_path, state)  # the registration is still pending
    state_file, log_file = state / "chain.json", state / "receipts.jsonl"
    saved = json.loads(state_file.read_text())
    saved["chain"]["pending"][0][key] = bad
    state_file.write_text(json.dumps(saved))
    before = state_file.read_bytes(), log_file.read_bytes()
    rc, stdout, err = run("advance", "100", "--state-dir", str(state))
    assert (rc, stdout) == (1, "")
    assert err.startswith(f"usage error: {state_file}: unreadable state") and "Traceback" not in err
    assert (state_file.read_bytes(), log_file.read_bytes()) == before


@pytest.mark.parametrize(
    "damage, command, delay_s",
    [
        (lambda chain: chain["pending"][0].update(kind="bogus"), "advance", None),
        (lambda chain: chain["pending"][0].update(share_text=None), "advance", None),
        (lambda chain: chain["pending"][1].update(collaborator=None), "advance", None),
        (lambda chain: chain["pending"][0].update(seq="0"), "advance", None),
        (lambda chain: chain["pending"][1].update(seq=0), "advance", None),
        (lambda chain: chain["pending"][1].update(tx_id="tx-000000"), "advance", None),
        (lambda chain: chain.update(next_seq=0), "grant", None),
        (lambda chain: chain.update(next_seq=0), "grant", 14.0),
        (lambda chain: chain.update(next_seq=2.0), "grant", None),
    ],
    ids=["unknown-kind", "register-without-share", "grant-without-collaborator", "seq-not-an-int",
         "seq-repeats", "tx-id-repeats", "next-seq-below-pending", "next-seq-below-pending-constant-delay",
         "next-seq-not-an-int"],
)
def test_a_state_dir_with_a_pending_tx_it_cannot_settle_or_number_exits_1(run, tmp_path, damage, command, delay_s):
    """Each pending transaction needs a known kind with its field, and a seq and tx_id of its own below next_seq."""
    state = tmp_path / "state"
    world = ["--state-dir", str(state)]
    if delay_s is not None:
        cfg = tmp_path / "constant.cfg"
        cfg.write_text(f"confirmation_delay_min_s = {delay_s}\nconfirmation_delay_max_s = {delay_s}\n")
        world += ["--config", str(cfg)]
    src = tmp_path / "payload.bin"
    src.write_bytes(b"two pending transactions\n")
    rc, out, _ = run("push", str(src), "--owner", "alice", "--seed", "7", *world)
    assert rc == 0
    cid = _field(out, "cid")
    grant = ("grant", cid, "--owner", "alice", "--to", "bob", *world)
    assert run(*grant)[0] == 0  # tx-000001, pending beside the registration
    state_file, log_file = state / "chain.json", state / "receipts.jsonl"
    saved = json.loads(state_file.read_text())
    assert [(p["tx_id"], p["seq"]) for p in saved["chain"]["pending"]] == [("tx-000000", 0), ("tx-000001", 1)]
    damage(saved["chain"])
    state_file.write_text(json.dumps(saved))
    before = state_file.read_bytes(), log_file.read_bytes()
    rc, stdout, err = run(*grant) if command == "grant" else run("advance", "30", *world)
    assert (rc, stdout) == (1, "")
    assert err.startswith(f"usage error: {state_file}: unreadable state (ValueError: ") and "Traceback" not in err
    assert (state_file.read_bytes(), log_file.read_bytes()) == before


@pytest.mark.parametrize(
    "damage",
    [
        lambda saved, cid: {**saved, "cache": {cid: {"share_text": saved["cache"][cid]["share_text"], "stored_at": 0.0}}},
        lambda saved, cid: {**saved, "chain": {k: v for k, v in saved["chain"].items() if k != "pending"}},
        lambda saved, cid: [saved],
    ],
    ids=["cache-entry-without-ttl", "chain-without-pending", "state-is-an-array"],
)
def test_pull_on_a_state_dir_with_a_malformed_state_exits_1(run, tmp_path, damage):
    state = tmp_path / "state"
    cid, share = push_file(run, tmp_path, state)
    assert run("advance", "20", "--state-dir", str(state))[0] == 0  # settles, so the receipt log is not empty
    state_file, log_file = state / "chain.json", state / "receipts.jsonl"
    state_file.write_text(json.dumps(damage(json.loads(state_file.read_text()), cid)))
    before = state_file.read_bytes(), log_file.read_bytes()
    assert before[1]
    rc, stdout, err = run("pull", cid, "--as", "alice", "--share", share, "--state-dir", str(state))
    assert (rc, stdout) == (1, "")
    assert err.startswith(f"usage error: {state_file}: ") and "Traceback" not in err
    assert (state_file.read_bytes(), log_file.read_bytes()) == before


def test_pull_to_stdout(run, tmp_path):
    state = tmp_path / "state"
    cid, share = push_file(run, tmp_path, state, b"plain ascii payload")
    rc = main(["pull", cid, "--as", "alice", "--share", share, "--state-dir", str(state)])
    assert rc == 0


def test_grant_by_non_owner_is_rejected_on_settlement(run, tmp_path):
    state = tmp_path / "state"
    cid, _ = push_file(run, tmp_path, state)
    run("advance", "20", "--state-dir", str(state))
    rc, out, _ = run("grant", cid, "--owner", "carol", "--to", "dave", "--state-dir", str(state))
    assert rc == 0  # submission succeeds; validity is checked at confirmation
    rc, out, _ = run("advance", "20", "--state-dir", str(state))
    assert rc == 0
    assert "rejected" in out and "not-owner" in out


def test_push_directory_is_deterministic(run, tmp_path):
    src = tmp_path / "repo"
    (src / "docs").mkdir(parents=True)
    (src / "a.txt").write_text("alpha\n")
    (src / "docs" / "b.txt").write_text("beta\n")

    cids = []
    shares = []
    for name in ("s1", "s2"):
        rc, out, _ = run("push", str(src), "--owner", "alice", "--state-dir", str(tmp_path / name), "--seed", "3")
        assert rc == 0
        cids.append(_field(out, "cid"))
        shares.append(_field(out, "owner-share"))
    assert cids[0] == cids[1]  # same tree, same seed: identical sealed bytes

    out_zip = tmp_path / "tree.zip"
    rc, _, _ = run(
        "pull", cids[0], "--as", "alice", "--share", shares[0],
        "--out", str(out_zip), "--state-dir", str(tmp_path / "s1"),
    )
    assert rc == 0
    with zipfile.ZipFile(out_zip) as zf:
        assert sorted(zf.namelist()) == ["a.txt", "docs/b.txt"]
        assert zf.read("a.txt") == b"alpha\n"
        assert zf.read("docs/b.txt") == b"beta\n"


def test_hex_addresses_accepted_strictly(run, tmp_path):
    state = tmp_path / "state"
    src = tmp_path / "f.bin"
    src.write_bytes(b"x")
    addr = "0x" + "ab" * 20
    rc, out, _ = run("push", str(src), "--owner", addr, "--state-dir", str(state), "--seed", "1")
    assert rc == 0
    rc, _, _ = run("push", str(src), "--owner", "0x1234", "--state-dir", str(tmp_path / "s2"), "--seed", "1")
    assert rc == 1  # malformed hex form is an error, not a label


def test_usage_errors_exit_1(run, tmp_path):
    state = str(tmp_path / "state")
    src = tmp_path / "f.bin"
    src.write_bytes(b"x")

    assert run()[0] == 1  # no command
    assert run("no-such-command")[0] == 1
    assert run("push", str(src), "--state-dir", state)[0] == 1  # missing --owner
    assert run("push", str(tmp_path / "missing.bin"), "--owner", "a", "--state-dir", state)[0] == 1
    assert run("pull", "sha256:nothex", "--as", "a", "--share", "0311", "--state-dir", state)[0] == 1
    cid = "sha256:" + hashlib.sha256(b"?").hexdigest()
    assert run("pull", cid, "--as", "a", "--share", "zz", "--state-dir", state)[0] == 1
    assert run("pull", cid, "--as", "a", "--share", "0311", "--timeout", "1", "--state-dir", state)[0] == 1

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("no_such_key = 1\n")
    assert run("push", str(src), "--owner", "a", "--config", str(bad_cfg), "--state-dir", state)[0] == 1
    assert run("bench", "push", "--sizes", "abc", "--repeats", "1")[0] == 1
    for argv, value in ((("push", "--sizes", "1,0"), "0"), (("push", "--sizes", "-1"), "-1"),
                        (("pull", "--offset", "nan"), "nan")):
        rc, out, err = run("bench", *argv, "--repeats", "1")
        assert (rc, out) == (1, "") and err.startswith("usage error: ") and err.endswith(f"got {value}\n")
    assert run("report", str(tmp_path / "missing.csv"))[0] == 1
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("wrong,header\n")
    assert run("report", str(bad_csv)) == (1, "", "usage error: line 1: unexpected header 'wrong,header'\n")
    assert run("calibrate", "--reference", str(tmp_path / "missing.csv"))[0] == 1  # not a flag
    assert run("calibrate", "--pull-overhead", "0.3")[0] == 1  # a modeling constant, not a flag
    for port in ("70000", "-1"):
        rc, _, err = run("serve-middleman", "--port", port)
        assert (rc, err) == (1, f"usage error: port must be 0-65535, got {port}\n")


def test_readme_commands_parse(capsys):
    """Every `shardvcs ...` line of README's ```sh blocks, a trailing `&` dropped, still parses."""
    commands, in_sh = [], False
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("shardvcs "):
            commands.append(line.removesuffix("&").rstrip())
    assert len(commands) >= 14
    for command in commands:
        try:
            _build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command no longer parses: {command}\n{capsys.readouterr().err}")


def test_readme_scripts_exist():
    """Every `scripts/<name>.py` that README names is in the repo."""
    root = Path(__file__).resolve().parents[1]
    named = set(re.findall(r"\bscripts/[\w-]+\.py\b", (root / "README.md").read_text()))
    assert named, "README names no script"
    assert sorted(n for n in named if not (root / n).is_file()) == []


def test_protocol_errors_exit_2(run, tmp_path):
    state = str(tmp_path / "state")
    unknown = "sha256:" + hashlib.sha256(b"never pushed").hexdigest()
    rc, _, err = run("pull", unknown, "--as", "a", "--share", "03" + "00" * 44, "--state-dir", state)
    assert rc == 2
    assert "error:" in err


def test_advance_requires_virtual_clock(run, tmp_path):
    cfg = tmp_path / "real.cfg"
    cfg.write_text("clock = real\n")
    rc, _, err = run("advance", "5", "--config", str(cfg), "--state-dir", str(tmp_path / "s"))
    assert rc == 2
    assert "error:" in err


def test_non_finite_config_value_exits_1_at_its_line(run, tmp_path):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("clock = virtual\nconfirmation_delay_min_s = nan\n")
    src = tmp_path / "f.bin"
    src.write_bytes(b"x")
    state = tmp_path / "s"
    rc, _, err = run("push", str(src), "--owner", "alice", "--config", str(cfg), "--state-dir", str(state))
    assert rc == 1
    assert "config line 2: bad value for 'confirmation_delay_min_s'" in err
    assert not (state / "chain.json").exists()


def test_pull_falls_back_to_the_middleman_until_a_real_clock_confirms(run, tmp_path):
    cfg = tmp_path / "real.cfg"
    cfg.write_text("clock = real\nconfirmation_delay_min_s = 1.0\nconfirmation_delay_max_s = 1.0\n")
    state = tmp_path / "state"
    src = tmp_path / "f.bin"
    payload = b"confirmed in real time\n"
    src.write_bytes(payload)
    world = ("--config", str(cfg), "--state-dir", str(state))
    pushed_at = time.monotonic()
    rc, out, _ = run("push", str(src), "--owner", "alice", *world)
    assert rc == 0
    pull = ("pull", _field(out, "cid"), "--as", "alice", "--share", _field(out, "owner-share"), *world)
    tx_id, log = _field(out, "registration"), state / "receipts.jsonl"

    rc, out, err = run(*pull)
    assert time.monotonic() - pushed_at < 1.0  # the registration was still pending
    assert (rc, out.encode()) == (0, payload)
    assert "path: middleman" in err
    assert log.read_text() == ""

    time.sleep(max(0.0, pushed_at + 1.1 - time.monotonic()))
    rc, out, err = run(*pull)
    assert (rc, out.encode()) == (0, payload)
    assert "path: on-chain  access-checked: True" in err
    # the pull's own view call settled the registration, and the command logged it once
    assert [(r["tx_id"], r["status"]) for r in map(json.loads, log.read_text().splitlines())] == [
        (tx_id, "confirmed")
    ]


def test_serve_middleman_closes_its_socket_on_ctrl_c(run, monkeypatch):
    def interrupted(self, poll_interval=0.5):
        raise KeyboardInterrupt

    # a listening socket left open fails this test through conftest's strict ResourceWarning
    monkeypatch.setattr(MiddlemanServer, "serve_forever", interrupted)
    rc, out, _ = run("serve-middleman", "--port", "0")
    assert rc == 0
    assert "middleman listening on http://127.0.0.1:" in out


def test_calibrate_bench_report_pipeline(run, tmp_path):
    cfg = tmp_path / "fitted.cfg"
    rc, out, _ = run("calibrate", "--write-config", str(cfg))
    assert rc == 0
    assert "store profile: fixed 1.625149 s + 0.493317 s/MB" in out
    assert cfg.exists()

    csv_path = tmp_path / "push.csv"
    rc, out, _ = run(
        "bench", "push", "--sizes", "1,5", "--repeats", "2",
        "--config", str(cfg), "--seed", "0", "--csv", str(csv_path),
    )
    assert rc == 0
    assert "wrote 4 samples" in out
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("operation,size_mb,repeat,user_perceived_s")

    rc, out, _ = run("report", str(csv_path))
    assert rc == 0
    assert "Per-size summary" in out
    assert "literature" in out

    pull_csv = tmp_path / "pull.csv"
    rc, _, _ = run(
        "bench", "pull", "--sizes", "1", "--repeats", "2",
        "--config", str(cfg), "--seed", "0", "--csv", str(pull_csv),
    )
    assert rc == 0
    assert "on-chain" in pull_csv.read_text()


def test_bench_csv_to_stdout(run):
    rc, out, _ = run("bench", "push", "--sizes", "1", "--repeats", "1", "--seed", "4")
    assert rc == 0
    assert out.startswith("operation,size_mb,repeat,")
    assert "\npush,1,0," in out


def test_bench_pull_takes_the_cache_ttl_from_its_config(run, tmp_path):
    # a pre-confirmation pull runs 10-14 s after its push: the default 24 h cache entry
    # serves it, a 1 s one has expired
    argv = ("bench", "pull", "--offset", "-2", "--sizes", "1", "--repeats", "1")
    csv_path = tmp_path / "pull.csv"
    assert run(*argv, "--csv", str(csv_path))[0] == 0
    rc, out, _ = run("report", str(csv_path))
    assert rc == 0 and re.search(r"^pull +1 +1 .* middleman:1$", out, re.M)

    cfg = tmp_path / "short-ttl.cfg"
    cfg.write_text("middleman_ttl_s = 1\n")
    rc, out, err = run(*argv, "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert re.fullmatch(r"error: pull sample size=1 repeat=0 failed: no counterpart share reachable for sha256:[0-9a-f]{64}\n", err)


def test_bench_removes_its_scratch_store(run, tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    rc, _, _ = run("bench", "push", "--sizes", "1", "--repeats", "1")
    assert rc == 0
    assert list(scratch.iterdir()) == []


def test_report_from_stdin(run, tmp_path, monkeypatch):
    rc, out, _ = run("bench", "push", "--sizes", "1", "--repeats", "1", "--seed", "4")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    rc, out, _ = run("report", "-")
    assert rc == 0
    assert "Phase breakdown" in out


def test_report_of_a_csv_with_a_nan_cell_fails_like_any_csv_that_does_not_parse(run, tmp_path):
    from shardvcs.bench import CSV_COLUMNS

    csv = tmp_path / "bad.csv"
    csv.write_text(",".join(CSV_COLUMNS) + "\npush,1,0,nan,0.1,0.2,0.3,0.4,14.0,,,,,\n")
    rc, out, err = run("report", str(csv))
    assert (rc, out) == (1, "")
    assert err == "usage error: line 2: user_perceived_s must be finite and >= 0, got nan\n"


def test_remote_middleman_roundtrip(run, tmp_path):
    server = MiddlemanServer(ShareCache(ttl_s=3600))
    server.start()
    try:
        state = tmp_path / "state"
        src = tmp_path / "f.bin"
        payload = b"served over http\n"
        src.write_bytes(payload)
        rc, out, _ = run(
            "push", str(src), "--owner", "alice", "--state-dir", str(state),
            "--seed", "2", "--middleman-url", server.url,
        )
        assert rc == 0
        cid, share = _field(out, "cid"), _field(out, "owner-share")
        assert not (state / "middleman.json").exists()  # cache lives in the service

        dest = tmp_path / "back.bin"
        rc, _, err = run(
            "pull", cid, "--as", "alice", "--share", share, "--out", str(dest),
            "--state-dir", str(state), "--middleman-url", server.url,
        )
        assert rc == 0
        assert dest.read_bytes() == payload
        assert "path: middleman" in err
    finally:
        server.stop()


def test_remote_middleman_down_fails_push(run, tmp_path):
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        dead_port = s.getsockname()[1]
    src = tmp_path / "f.bin"
    src.write_bytes(b"x")
    rc, _, err = run(
        "push", str(src), "--owner", "alice", "--state-dir", str(tmp_path / "s"),
        "--middleman-url", f"http://127.0.0.1:{dead_port}",
    )
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("body", [b"{}", b'{"share": 5}', b'{"share": "zz"}'])
def test_pull_from_a_middleman_with_a_malformed_reply_exits_2(run, tmp_path, body):
    state = tmp_path / "state"
    cid, share = push_file(run, tmp_path, state)  # still pending: the pull asks the middleman
    with scripted_middleman([http_reply(body)]) as (url, _):
        rc, _, err = run("pull", cid, "--as", "alice", "--share", share, "--state-dir", str(state), "--middleman-url", url)
    assert rc == 2
    assert err.startswith("error: ")


def test_remote_middleman_commands_close_their_connection(run, tmp_path, monkeypatch):
    closed = []
    original = HttpShareCache.close

    def spy(self):
        closed.append(self.base_url)
        original(self)

    monkeypatch.setattr(HttpShareCache, "close", spy)
    server = MiddlemanServer(ShareCache(ttl_s=3600)).start()
    try:
        src = tmp_path / "f.bin"
        src.write_bytes(b"x")
        world = ("--state-dir", str(tmp_path / "s"), "--middleman-url", server.url)
        assert run("push", str(src), "--owner", "alice", *world)[0] == 0
        assert run("pull", "sha256:" + "00" * 32, "--as", "alice", "--share", "02aa", *world)[0] == 2
    finally:
        server.stop()
    assert closed == [server.url, server.url]  # after success and after failure alike


def test_state_survives_failed_command(run, tmp_path):
    state = tmp_path / "state"
    cid, share = push_file(run, tmp_path, state)
    assert run("advance", "20", "--state-dir", str(state))[0] == 0
    before = json.loads((state / "chain.json").read_text())
    rc, _, _ = run("pull", cid, "--as", "mallory", "--share", share, "--out", str(tmp_path / "x"), "--state-dir", str(state))
    assert rc == 3
    after = json.loads((state / "chain.json").read_text())
    assert after["chain"] == before["chain"]  # a denied pull does not mutate the ledger


def test_state_write_that_fails_part_way_keeps_previous_state(run, tmp_path):
    # A second push runs in a child whose file-size limit stops the new, longer
    # chain.json part-way through its write (EFBIG, with SIGXFSZ ignored).
    state = tmp_path / "state"
    cid, share = push_file(run, tmp_path, state)
    before = (state / "chain.json").read_bytes()
    second = tmp_path / "second.bin"
    second.write_bytes(b"second")
    child = (
        "import resource, signal, sys\n"
        "from shardvcs.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({len(before)}, {len(before)}))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(shardvcs.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", child, "push", str(second), "--owner", "alice", "--state-dir", str(state)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and "File too large" in proc.stderr, proc.stderr
    assert (state / "chain.json").read_bytes() == before
    assert not list(state.rglob(".tmp-*"))
    rc, out, _ = run("pull", cid, "--as", "alice", "--share", share, "--state-dir", str(state))
    assert (rc, out) == (0, "hello shard world\n")


def test_concurrent_pushes_on_one_state_dir_both_keep_their_registration(run, tmp_path):
    # Each child marks that it has loaded the state dir, then waits up to 2 s for the
    # other to do the same before it pushes and saves. Unserialized, both load the
    # same snapshot and the last save drops the other's registration; under the
    # state-dir lock the second child loads only after the first has saved.
    state = tmp_path / "state"
    child = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from shardvcs import cli, protocol\n"
        "mine, theirs = Path(sys.argv[1]), Path(sys.argv[2])\n"
        "real_push = protocol.Client.push\n"
        "def push(self, *args, **kwargs):\n"
        "    mine.touch()\n"
        "    deadline = time.monotonic() + 2.0\n"
        "    while not theirs.exists() and time.monotonic() < deadline:\n"
        "        time.sleep(0.01)\n"
        "    return real_push(self, *args, **kwargs)\n"
        "protocol.Client.push = push\n"
        "sys.exit(cli.main(sys.argv[3:]))\n"
    )
    src = os.path.dirname(os.path.dirname(shardvcs.__file__))
    marks = [tmp_path / "loaded-a", tmp_path / "loaded-b"]
    procs = []
    for i, owner in enumerate(("alice", "bob")):
        payload = tmp_path / f"{owner}.bin"
        payload.write_bytes(f"{owner}'s repository\n".encode())
        procs.append(subprocess.Popen(
            [sys.executable, "-c", child, str(marks[i]), str(marks[1 - i]),
             "push", str(payload), "--owner", owner, "--state-dir", str(state)],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = [proc.communicate(timeout=60) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    rc, out, _ = run("advance", "20", "--state-dir", str(state))
    assert rc == 0
    assert "settled 2 transaction(s)" in out
    for owner, (stdout, _) in zip(("alice", "bob"), outputs):
        rc, _, err = run("pull", _field(stdout, "cid"), "--as", owner, "--share", _field(stdout, "owner-share"),
                         "--out", str(tmp_path / f"{owner}.out"), "--state-dir", str(state))
        assert rc == 0 and "path: on-chain" in err
        assert (tmp_path / f"{owner}.out").read_bytes() == f"{owner}'s repository\n".encode()


# A child that dies with os._exit(9), as a kill would, right after its chain settles
# or right before the state file's rename; each patch is run before the CLI starts.
KILL_AFTER_SETTLEMENT = (
    "real = ledger.SimulatedChain.advance_clock\n"
    "def advance(self, seconds):\n"
    "    real(self, seconds)\n"
    "    os._exit(9)\n"
    "ledger.SimulatedChain.advance_clock = advance\n"
)
KILL_BEFORE_STATE_REPLACE = (
    "real = os.replace\n"
    "def replace(src, dst):\n"
    "    if str(dst).endswith('chain.json'):\n"
    "        os._exit(9)\n"
    "    real(src, dst)\n"
    "os.replace = replace\n"
)


def _run_killed(patch, *argv):
    child = "import os, sys\nfrom shardvcs import cli, ledger\n" + patch + "sys.exit(cli.main(sys.argv[1:]))\n"
    src = os.path.dirname(os.path.dirname(shardvcs.__file__))
    proc = subprocess.run([sys.executable, "-c", child, *argv], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 9, proc.stderr


def _logged_tx_ids(state):
    return [json.loads(line)["tx_id"] for line in (state / "receipts.jsonl").read_text().splitlines()]


def test_kill_after_settlement_before_save_logs_each_receipt_once(run, tmp_path):
    state = tmp_path / "state"
    push_file(run, tmp_path, state)
    _run_killed(KILL_AFTER_SETTLEMENT, "advance", "20", "--state-dir", str(state))
    rc, out, _ = run("advance", "20", "--state-dir", str(state))
    assert rc == 0 and "settled 1 transaction(s)" in out  # the killed settlement was never saved
    assert _logged_tx_ids(state) == ["tx-000000"]


def test_kill_between_log_append_and_state_replace_keeps_log_and_state_in_step(run, tmp_path):
    state = tmp_path / "state"
    push_file(run, tmp_path, state)
    _run_killed(KILL_BEFORE_STATE_REPLACE, "advance", "20", "--state-dir", str(state))
    assert _logged_tx_ids(state) == ["tx-000000"]  # appended, but the state does not account for it

    assert run("advance", "0", "--state-dir", str(state))[0] == 0
    saved = json.loads((state / "chain.json").read_text())
    assert [p["tx_id"] for p in saved["chain"]["pending"]] == ["tx-000000"]
    assert (state / "receipts.jsonl").read_bytes() == b""  # cut back, not padded
    assert saved["log_bytes"] == 0

    rc, out, _ = run("advance", "20", "--state-dir", str(state))
    assert rc == 0 and "settled 1 transaction(s)" in out
    assert _logged_tx_ids(state) == ["tx-000000"]
    saved = json.loads((state / "chain.json").read_text())
    assert saved["chain"]["pending"] == [] and saved["log_bytes"] == (state / "receipts.jsonl").stat().st_size


def test_local_cache_entry_survives_a_remote_middleman_command(run, tmp_path):
    state = tmp_path / "state"
    cid, share = push_file(run, tmp_path, state)
    other = tmp_path / "other.bin"
    other.write_bytes(b"pushed through the service\n")
    server = MiddlemanServer(ShareCache(ttl_s=3600)).start()
    try:
        assert run("push", str(other), "--owner", "bob", "--state-dir", str(state), "--middleman-url", server.url)[0] == 0
    finally:
        server.stop()
    assert list(json.loads((state / "chain.json").read_text())["cache"]) == [cid]
    rc, out, err = run("pull", cid, "--as", "alice", "--share", share, "--state-dir", str(state))
    assert (rc, out) == (0, "hello shard world\n")
    assert "path: middleman" in err


def test_expired_cache_entry_is_not_saved(run, tmp_path):
    state = tmp_path / "state"
    push_file(run, tmp_path, state)
    assert json.loads((state / "chain.json").read_text())["cache"] != {}
    assert run("advance", "90000", "--state-dir", str(state))[0] == 0  # past the 86,400 s TTL
    assert json.loads((state / "chain.json").read_text())["cache"] == {}


def test_state_dir_with_a_separate_middleman_json_keeps_its_cache(run, tmp_path):
    # Older versions kept the cache in middleman.json and wrote chain.json without
    # "cache" or "log_bytes"; rewrite a state dir into that shape and load it.
    state = tmp_path / "state"
    push_file(run, tmp_path, state, b"first\n")
    assert run("advance", "20", "--state-dir", str(state))[0] == 0
    cid, share = push_file(run, tmp_path, state, b"second\n", seed=8)
    saved = json.loads((state / "chain.json").read_text())
    (state / "middleman.json").write_text(json.dumps(saved.pop("cache")))
    del saved["log_bytes"]
    (state / "chain.json").write_text(json.dumps(saved))
    log = (state / "receipts.jsonl").read_bytes()
    assert log

    rc, out, err = run("pull", cid, "--as", "alice", "--share", share, "--state-dir", str(state))
    assert (rc, out) == (0, "second\n")
    assert "path: middleman" in err
    assert (state / "receipts.jsonl").read_bytes() == log  # with no recorded length nothing is cut
    saved = json.loads((state / "chain.json").read_text())
    assert cid in saved["cache"] and saved["log_bytes"] == len(log)


def test_seeded_walkthrough_receipt_log_bytes_are_pinned(run, tmp_path):
    state = tmp_path / "state"
    world = ("--state-dir", str(state), "--seed", "7")
    src = tmp_path / "p.bin"
    src.write_bytes(b"walkthrough payload\n")
    rc, out, _ = run("push", str(src), "--owner", "alice", *world)
    assert rc == 0
    assert run("grant", _field(out, "cid"), "--owner", "carol", "--to", "dave", *world)[0] == 0
    assert run("advance", "20", *world)[0] == 0
    log = (state / "receipts.jsonl").read_bytes()
    assert hashlib.sha256(log).hexdigest() == "af14d0a5226d29284151057ebae0b4c8db49a1cc3238b9e1782f306eff22dae8"
