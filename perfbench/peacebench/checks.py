"""Correctness checks the workloads apply to the program's outputs.

Every check compares an output against something the benchmark worked
out on its own -- its revocation ledger, the group and user it signed
as, the bytes it sent -- or against a property the protocol must have.
None compares against a stored copy of an earlier run.  Each raises
:class:`CheckFailure` on a wrong output; ``perfbench/tests`` feeds each
one a wrong output to show it does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidSignature, RevokedKeyError, SessionError

KeyIndex = Tuple[int, int]

#: Label both ends derive key material under to compare session keys
#: without spending a data-packet sequence number.
KEY_CHECK_LABEL = b"perfbench/key-check"


class CheckFailure(AssertionError):
    """The program produced an output the benchmark knows is wrong."""


class Ledger:
    """The benchmark's own model of the user revocation list.

    Mirrors the publication order the operator promises: a revoked key
    is appended (once), a reinstated key leaves the list and the rest
    keep their order.  ``position`` is therefore the ``token_index`` a
    correct Eq.3 scan or shard lookup must report.
    """

    def __init__(self) -> None:
        self._indices: List[KeyIndex] = []

    def revoke(self, index: KeyIndex) -> None:
        if index not in self._indices:
            self._indices.append(index)

    def reinstate(self, index: KeyIndex) -> None:
        if index in self._indices:
            self._indices.remove(index)

    def clear(self) -> None:
        """Membership renewal retires every key, so the list empties."""
        self._indices.clear()

    def position(self, index: KeyIndex) -> Optional[int]:
        try:
            return self._indices.index(index)
        except ValueError:
            return None

    def __len__(self) -> int:
        return len(self._indices)

    def __contains__(self, index: KeyIndex) -> bool:
        return index in self._indices


def check_join_outcome(expected_position: Optional[int], forged: bool,
                       error: Optional[BaseException]) -> None:
    """One M.2 decision against the ledger.

    ``error`` is ``None`` when the router accepted.  A forged M.2 must
    be rejected as an invalid signature (never as revoked: the proof is
    checked before the list); a key on the ledger must be rejected as
    revoked with the ledger's position; any other key must be accepted.
    """
    if forged:
        if not isinstance(error, InvalidSignature):
            raise CheckFailure(
                f"forged M.2 not rejected as InvalidSignature: {error!r}")
        return
    if expected_position is not None:
        if not isinstance(error, RevokedKeyError):
            raise CheckFailure(
                f"revoked key (ledger position {expected_position}) "
                f"not rejected as revoked: {error!r}")
        actual = getattr(error, "token_index", None)
        if actual != expected_position:
            raise CheckFailure(
                f"revoked key reported at token_index {actual}, ledger "
                f"position is {expected_position}")
        return
    if error is not None:
        raise CheckFailure(f"clean key rejected: {error!r}")


def check_session_pair(user_session, router_session) -> None:
    """Both ends name the same session and hold the same keys."""
    if user_session.session_id != router_session.session_id:
        raise CheckFailure("the two ends hold different session ids")
    if (user_session.export_key_material(KEY_CHECK_LABEL)
            != router_session.export_key_material(KEY_CHECK_LABEL)):
        raise CheckFailure("the two ends hold different session keys")


def check_payload(sent: bytes, received: bytes) -> None:
    """A delivered payload round-trips byte for byte."""
    if sent != received:
        raise CheckFailure(
            f"payload altered in transit ({len(sent)} B sent, "
            f"{len(received)} B received)")


def check_altered_rejected(error: Optional[BaseException]) -> None:
    """A packet altered in transit must fail authentication."""
    if not isinstance(error, SessionError):
        raise CheckFailure(f"altered packet not rejected: {error!r}")


def check_audit(expected_group: str, result) -> None:
    """NO's audit names the group the user signed under."""
    if result.group_name != expected_group:
        raise CheckFailure(
            f"audit named group {result.group_name!r}, the session was "
            f"signed under {expected_group!r}")


def check_trace(expected_group: str, expected_user: str,
                expected_epoch: int, result) -> None:
    """Law-authority tracing names the group, epoch and the user."""
    check_audit(expected_group, result.audit)
    if result.audit.epoch != expected_epoch:
        raise CheckFailure(
            f"trace matched epoch {result.audit.epoch}, the session was "
            f"signed in epoch {expected_epoch}")
    if result.identity.name != expected_user:
        raise CheckFailure(
            f"trace named {result.identity.name!r}, the session was "
            f"signed by {expected_user!r}")


def check_stale_rejected(outcomes: Sequence[object]) -> None:
    """Every pre-renewal credential is rejected after the renewal."""
    for outcome in outcomes:
        if not isinstance(outcome, InvalidSignature):
            raise CheckFailure(
                "pre-renewal credential not rejected as an invalid "
                f"signature after renewal: {outcome!r}")


def check_excluded(credentials: dict) -> None:
    """The user left out of the renewal holds no usable credential."""
    if credentials:
        raise CheckFailure(
            f"excluded user still holds credentials for "
            f"{sorted(credentials)}")


def check_lists_current(operator_versions: Tuple[int, int],
                        router_versions: Sequence[Tuple[int, int]]) -> None:
    """After a wave every router holds the operator's list versions."""
    for versions in router_versions:
        if versions != operator_versions:
            raise CheckFailure(
                f"router holds list versions {versions}, the operator "
                f"published {operator_versions}")


def check_journal(recovered_url: bytes, recovered_epoch: int,
                  live_url: bytes, live_epoch: int) -> None:
    """A router's journal replays to the lists and epoch it serves."""
    if recovered_epoch != live_epoch:
        raise CheckFailure(
            f"journal replays to epoch {recovered_epoch}, the router is "
            f"in epoch {live_epoch}")
    if recovered_url != live_url:
        raise CheckFailure("journal replays to another URL than the "
                           "router enforces")
