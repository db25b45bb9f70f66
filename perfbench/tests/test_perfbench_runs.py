"""Short runs on the fast TEST preset: the output contract, and the
checks catching a program that gives wrong outputs.

Each fault test patches one program function to misbehave and asserts
the run reports the problem.  Runs take a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from peacebench import layers, workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
E2E = workloads.END_TO_END_UNITS


def run(workload, seconds=0.3):
    return workloads.run(workload, seed=3, seconds=seconds, preset="TEST")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_is_correct_and_every_metric_positive(workload):
    world = run(workload)
    assert world.problems == []
    assert world.failures == []
    metrics = workloads.end_to_end(world)
    assert set(metrics) == set(E2E)
    assert all(value > 0 for value in metrics.values()), metrics


def test_same_seed_gives_same_inputs():
    first, second = run("roam-join"), run("roam-join")
    shape = [(r.user, r.group, r.router) for r in first.sessions]
    assert shape[:6] == [(r.user, r.group, r.router)
                         for r in second.sessions][:6]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (unit, better)
            for name, (unit, better, _) in layers.PER_LAYER.items()}


def test_command_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roam-join",
         "--seed", "2", "--seconds", "0.3", "--trace", "1",
         "--preset", "TEST"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    assert result["metrics"]["pairing.pairings_per_handshake"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roam-join",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


# -- a program that gives wrong outputs is caught -----------------------------


def test_revoked_key_accepted_is_caught(monkeypatch):
    from repro.core import groupsig
    monkeypatch.setattr(groupsig, "_scan_url", lambda *args, **kw: None)
    assert any("not rejected as revoked" in p
               for p in run("roam-join").problems)


def test_revoked_key_accepted_by_shards_is_caught(monkeypatch):
    from repro.core.revocation import RevocationState
    monkeypatch.setattr(RevocationState, "check", lambda *args: None)
    assert any("not rejected as revoked" in p
               for p in run("metro-revocation").problems)


def test_clean_key_refused_is_caught(monkeypatch):
    from repro.core import groupsig

    def refuse(*args, **kw):
        raise groupsig._revoked_error(0)
    monkeypatch.setattr(groupsig, "_scan_url", refuse)
    world = run("roam-join")
    assert any("clean key rejected" in p for p in world.problems)


def test_wrong_token_index_is_caught(monkeypatch):
    from repro.core import groupsig
    original = groupsig._revoked_error
    monkeypatch.setattr(groupsig, "_revoked_error",
                        lambda index: original(index + 1))
    assert any("token_index" in p for p in run("roam-join").problems)


def test_payload_altered_in_transit_is_caught(monkeypatch):
    from repro.core.protocols.session import SecureSession
    original = SecureSession.receive
    monkeypatch.setattr(SecureSession, "receive",
                        lambda self, packet: original(self, packet)[1:])
    assert any("altered in transit" in p
               for p in run("roam-join").problems)


def test_wrong_audit_group_is_caught(monkeypatch):
    import dataclasses
    from repro.core.operator_entity import NetworkOperator
    original = NetworkOperator.audit_session

    def misattributed(self, payload, signature):
        result = original(self, payload, signature)
        return dataclasses.replace(result, group_name="Golf Club V")
    monkeypatch.setattr(NetworkOperator, "audit_session", misattributed)
    assert any("audit named group" in p for p in run("roam-join").problems)


def test_pre_renewal_credential_accepted_is_caught(monkeypatch):
    """A renewal that keeps the group master secret leaves every old
    credential valid."""
    from repro.core import groupsig
    original = groupsig.keygen_master
    issued = {}

    def reused(group, rng):
        if id(group) not in issued:
            issued[id(group)] = (group, original(group, rng))
        return issued[id(group)][1]
    monkeypatch.setattr(groupsig, "keygen_master", reused)
    problems = run("roam-join").problems
    assert any("pre-renewal credential" in p for p in problems)
