"""Each correctness check rejects a wrong output and passes a right one."""

from types import SimpleNamespace

import pytest

from peacebench import checks
from peacebench.checks import CheckFailure, Ledger
from repro.core.protocols.session import SecureSession
from repro.errors import InvalidSignature, RevokedKeyError, SessionError
from repro.pairing import PairingGroup


def revoked_at(position):
    error = RevokedKeyError(f"token {position}")
    error.token_index = position
    return error


def test_ledger_keeps_publication_order():
    ledger = Ledger()
    for index in [(1, 4), (1, 5), (2, 1), (1, 4)]:
        ledger.revoke(index)
    assert [ledger.position(i) for i in [(1, 4), (1, 5), (2, 1)]] == [0, 1, 2]
    ledger.reinstate((1, 5))
    ledger.revoke((2, 7))
    assert ledger.position((1, 5)) is None
    assert ledger.position((2, 1)) == 1
    assert ledger.position((2, 7)) == 2
    ledger.clear()
    assert len(ledger) == 0


def test_revoked_key_accepted_fails():
    with pytest.raises(CheckFailure):
        checks.check_join_outcome(3, False, None)


def test_revoked_key_wrong_token_index_fails():
    with pytest.raises(CheckFailure):
        checks.check_join_outcome(3, False, revoked_at(2))
    checks.check_join_outcome(3, False, revoked_at(3))


def test_revoked_key_rejected_for_another_reason_fails():
    with pytest.raises(CheckFailure):
        checks.check_join_outcome(3, False, InvalidSignature("bad"))


def test_forged_request_must_fail_as_invalid_signature():
    with pytest.raises(CheckFailure):
        checks.check_join_outcome(None, True, None)
    with pytest.raises(CheckFailure):
        checks.check_join_outcome(None, True, revoked_at(0))
    checks.check_join_outcome(None, True, InvalidSignature("bad"))


def test_clean_key_rejected_fails():
    with pytest.raises(CheckFailure):
        checks.check_join_outcome(None, False, InvalidSignature("bad"))
    checks.check_join_outcome(None, False, None)


@pytest.fixture(scope="module")
def elements():
    group = PairingGroup("TEST")
    import random
    rng = random.Random(5)
    return group.random_g1(rng), group.random_g1(rng)


def test_mismatched_session_keys_fail(elements):
    first, second = elements
    user = SecureSession(b"s" * 16, first, initiator=True)
    router = SecureSession(b"s" * 16, second, initiator=False)
    with pytest.raises(CheckFailure):
        checks.check_session_pair(user, router)
    checks.check_session_pair(user, SecureSession(b"s" * 16, first,
                                                  initiator=False))


def test_mismatched_session_ids_fail(elements):
    first, _ = elements
    with pytest.raises(CheckFailure):
        checks.check_session_pair(
            SecureSession(b"a" * 16, first, initiator=True),
            SecureSession(b"b" * 16, first, initiator=False))


def test_payload_altered_in_transit_fails():
    with pytest.raises(CheckFailure):
        checks.check_payload(b"hello", b"hellp")
    checks.check_payload(b"hello", b"hello")


def test_altered_packet_accepted_fails():
    with pytest.raises(CheckFailure):
        checks.check_altered_rejected(None)
    checks.check_altered_rejected(SessionError("AEAD tag mismatch"))


def test_wrong_audit_group_fails():
    with pytest.raises(CheckFailure):
        checks.check_audit("Company X",
                           SimpleNamespace(group_name="University Z"))
    checks.check_audit("Company X", SimpleNamespace(group_name="Company X"))


def trace_result(group, user, epoch):
    return SimpleNamespace(
        audit=SimpleNamespace(group_name=group, epoch=epoch),
        identity=SimpleNamespace(name=user))


def test_wrong_traced_user_group_or_epoch_fails():
    for wrong in (trace_result("University Z", "u01", 0),
                  trace_result("Company X", "u02", 0),
                  trace_result("Company X", "u01", 1)):
        with pytest.raises(CheckFailure):
            checks.check_trace("Company X", "u01", 0, wrong)
    checks.check_trace("Company X", "u01", 0,
                       trace_result("Company X", "u01", 0))


def test_pre_renewal_credential_accepted_fails():
    with pytest.raises(CheckFailure):
        checks.check_stale_rejected([InvalidSignature("x"), ("confirm",
                                                             "session")])
    with pytest.raises(CheckFailure):
        checks.check_stale_rejected([revoked_at(0)])
    checks.check_stale_rejected([InvalidSignature("x")])


def test_excluded_user_with_credentials_fails():
    with pytest.raises(CheckFailure):
        checks.check_excluded({"Company X": object()})
    checks.check_excluded({})


def test_router_behind_the_operator_fails():
    with pytest.raises(CheckFailure):
        checks.check_lists_current((0, 5), [(0, 5), (0, 4)])
    checks.check_lists_current((0, 5), [(0, 5), (0, 5)])


def test_journal_replaying_to_other_state_fails():
    with pytest.raises(CheckFailure):
        checks.check_journal(b"url-1", 0, b"url-2", 0)
    with pytest.raises(CheckFailure):
        checks.check_journal(b"url-1", 0, b"url-1", 1)
    checks.check_journal(b"url-1", 1, b"url-1", 1)
