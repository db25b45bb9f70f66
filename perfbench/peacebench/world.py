"""One PEACE deployment as the benchmark drives it.

:class:`World` wraps a :class:`repro.core.deployment.Deployment` with
the operations the workloads are made of -- a join (M.1-M.3 plus one
request/reply), a burst of M.2s decided in one batch, a data transfer,
a revocation wave, a membership renewal and the audits -- and records
the figures the end-to-end metrics are computed from.  Every operation
checks its output with :mod:`peacebench.checks` as it goes.

Messages M.2 and M.3 and every data packet cross the "radio" as bytes:
they are encoded by the sender and decoded by the receiver inside the
timed region.  The beacon (M.1) is handed over as an object, because it
carries the whole URL and decoding 10^3 tokens per beacon would swamp
the join it announces.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro import instrument
from repro.core import audit as audit_protocol
from repro.core.deployment import Deployment
from repro.core.groupsig import GroupSignature
from repro.core.messages import AccessConfirm, AccessRequest, DataPacket
from repro.core.protocols.user_router import UserAuthEngine
from repro.errors import ReproError, SessionError

from peacebench import checks
from peacebench.checks import CheckFailure, KeyIndex, Ledger

Cred = Tuple[str, str]          # (user name, group name)


@dataclasses.dataclass
class SessionRecord:
    """An accepted join: who signed, where, and both session ends."""

    user: str
    group: str
    router: str
    epoch: int
    user_session: object
    router_session: object


@dataclasses.dataclass
class Figures:
    """Raw measurements of one run, before they become metrics."""

    setup_s: List[float] = dataclasses.field(default_factory=list)
    handshake_ms: List[float] = dataclasses.field(default_factory=list)
    #: M.2s decided per second of router time, one entry per single
    #: request or per batch
    router_rates: List[float] = dataclasses.field(default_factory=list)
    decided: int = 0
    #: payload kB per second of data-plane time, one entry per round
    goodputs: List[float] = dataclasses.field(default_factory=list)
    payload_bytes: int = 0
    round_bytes: int = 0
    round_s: float = 0.0
    wave_ms: List[float] = dataclasses.field(default_factory=list)
    rotate_s: List[float] = dataclasses.field(default_factory=list)
    # traced run only: operation counts inside measured handshakes and
    # data transfers, and journal bytes written during waves
    handshake_ops: Dict[str, int] = dataclasses.field(default_factory=dict)
    counted_handshakes: int = 0
    transfer_ops: Dict[str, int] = dataclasses.field(default_factory=dict)
    counted_bytes: int = 0
    wave_journal_bytes: int = 0
    m2_bytes: List[int] = dataclasses.field(default_factory=list)


def _add(totals: Dict[str, int], counter) -> None:
    for event, amount in counter.counts.items():
        totals[event] = totals.get(event, 0) + amount


def flip_signature_bit(group, request: AccessRequest,
                       rng: random.Random) -> AccessRequest:
    """A forged M.2: one bit flipped in the last scalar of the group
    signature (so the signature still decodes and reaches the verifier)."""
    encoded = bytearray(request.group_signature.encode())
    position = len(encoded) - 1 - rng.randrange(8)
    encoded[position] ^= 1 << rng.randrange(8)
    forged = GroupSignature.decode(group, bytes(encoded))
    return dataclasses.replace(request, group_signature=forged)


class World:
    """A deployment plus the benchmark's bookkeeping around it."""

    def __init__(self, deployment: Deployment, rng: random.Random,
                 tracer=None) -> None:
        self.deployment = deployment
        self.group = deployment.group
        self.operator = deployment.operator
        self.users = deployment.users
        self.routers = list(deployment.routers.values())
        self.rng = rng
        self.tracer = tracer
        self.ledger = Ledger()
        self.figures = Figures()
        self.sessions: List[SessionRecord] = []
        self.attempted = 0
        #: Operations that raised where they should have succeeded.
        self.failures: List[str] = []
        #: Outputs the checks found wrong.
        self.problems: List[str] = []
        #: True while the timed phase runs; operations outside it are
        #: checked but feed no metric.
        self.measuring = False
        #: Keys the last wave revoked (the next wave reinstates them).
        self.wave_keys: List[KeyIndex] = []
        #: Unassigned pool keys the metro waves cycle through.
        self.spares: List[KeyIndex] = []
        #: Journal backends by router id (metro-revocation).
        self.storages: Dict[str, object] = {}
        self._handshake_id = 0

    # -- credentials and the ledger -----------------------------------------

    def creds(self) -> List[Cred]:
        """Every (user, group) credential currently held, sorted."""
        return sorted((name, group) for name, user in self.users.items()
                      for group in user.credentials)

    def index_of(self, cred: Cred) -> KeyIndex:
        user, group = cred
        return self.users[user].credentials[group].index

    def clean_creds(self) -> List[Cred]:
        return [c for c in self.creds() if self.index_of(c) not in self.ledger]

    def revoked_creds(self) -> List[Cred]:
        return [c for c in self.creds() if self.index_of(c) in self.ledger]

    def revoke(self, indices: Sequence[KeyIndex]) -> None:
        """Untimed revocation (set-up): operator and ledger only."""
        for index in indices:
            self.operator.revoke_user_key(index)
            self.ledger.revoke(index)

    # -- bookkeeping ----------------------------------------------------------

    def check(self, check, *args) -> None:
        """Run one check; a failure marks the run incorrect."""
        try:
            check(*args)
        except CheckFailure as exc:
            self.problems.append(str(exc))

    def _next_handshake(self) -> None:
        self._handshake_id += 1
        if self.tracer is not None:
            self.tracer.handshake = self._handshake_id

    def _end_handshake(self) -> None:
        if self.tracer is not None:
            self.tracer.handshake = 0

    @contextmanager
    def phase(self, name: str):
        """File the traced run's spans under phase ``name`` meanwhile."""
        if self.tracer is None:
            yield
            return
        previous, self.tracer.phase = self.tracer.phase, name
        try:
            yield
        finally:
            self.tracer.phase = previous

    def _counting(self):
        """Operation counter for the traced run's measured phase."""
        if self.tracer is not None and self.measuring:
            return instrument.count_operations()
        return nullcontext()

    # -- one join: M.1 -> M.2 -> M.3 ------------------------------------------

    def join(self, cred: Cred, router, exchange_sizes=None
             ) -> Optional[SessionRecord]:
        """Run one handshake; on acceptance, one request and one reply.

        The handshake is timed from the beacon to the user's completion.
        Returns the session on acceptance, ``None`` on a rejection (which
        is checked against the ledger).
        """
        user_name, group_name = cred
        user = self.users[user_name]
        expected = self.ledger.position(self.index_of(cred))
        self.attempted += 1
        self._next_handshake()
        with self._counting() as ops:
            start = time.perf_counter()
            beacon = router.make_beacon()
            request, pending = user.connect_to_router(beacon, group_name)
            wire = request.encode()
            received = AccessRequest.decode(self.group, wire)
            decide = time.perf_counter()
            error = router_session = None
            try:
                confirm, router_session = router.process_request(received)
            except ReproError as exc:
                error = exc
            decided = time.perf_counter()
            user_session = None
            if error is None:
                confirm = AccessConfirm.decode(self.group, confirm.encode())
                user_session = user.complete_router_handshake(pending,
                                                              confirm)
            end = time.perf_counter()
        self._end_handshake()
        if self.measuring:
            self.figures.router_rates.append(1.0 / (decided - decide))
            self.figures.decided += 1
            if ops is not None:
                _add(self.figures.handshake_ops, ops)
                self.figures.counted_handshakes += 1
                self.figures.m2_bytes.append(len(wire))
        record = self._settle(cred, router, expected, False, error,
                              user_session, router_session)
        if record is not None and self.measuring:
            self.figures.handshake_ms.append(1e3 * (end - start))
        if record is not None and exchange_sizes is not None:
            self.exchange(record, *exchange_sizes)
        return record

    def _settle(self, cred: Cred, router, expected: Optional[int],
                forged: bool, error, user_session, router_session
                ) -> Optional[SessionRecord]:
        """Check one M.2 decision; keep the session if it was accepted.

        A clean key the router refused is a wrong output, whatever the
        error, so it marks the run incorrect."""
        self.check(checks.check_join_outcome, expected, forged, error)
        if error is not None or user_session is None:
            return None
        self.check(checks.check_session_pair, user_session, router_session)
        record = SessionRecord(user=cred[0], group=cred[1],
                               router=router.router_id,
                               epoch=self.operator.epoch,
                               user_session=user_session,
                               router_session=router_session)
        self.sessions.append(record)
        return record

    # -- a burst of M.2s decided in one batch ---------------------------------

    def burst(self, router, entries: Sequence[Tuple[Cred, bool]],
              exchange_sizes: Sequence[Tuple[int, int]]) -> None:
        """Users send M.2s to one router, which decides them in one batch.

        ``entries`` holds ``(credential, forged)``; accepted requests take
        the ``(request, reply)`` pairs of ``exchange_sizes`` in turn.
        Each accepted request's latency is what its user waits for on
        its own device: its beacon and M.2, the batch decision, and its
        M.3.  Other users' signing happens on their own devices and is
        not counted.
        """
        items = []
        first_id = self._handshake_id + 1
        with self._counting() as ops:
            for cred, forged in entries:
                self.attempted += 1
                self._next_handshake()
                start = time.perf_counter()
                beacon = router.make_beacon()
                request, pending = self.users[cred[0]].connect_to_router(
                    beacon, cred[1])
                own = time.perf_counter() - start
                if forged:
                    request = flip_signature_bit(self.group, request,
                                                 self.rng)
                start = time.perf_counter()
                wire = request.encode()
                received = AccessRequest.decode(self.group, wire)
                own += time.perf_counter() - start
                if ops is not None:
                    self.figures.m2_bytes.append(len(wire))
                items.append([cred, forged, received, pending, own])
            if self.tracer is not None:
                # The shared batch decision is filed under the burst's
                # first handshake.
                self.tracer.handshake = first_id
            start = time.perf_counter()
            outcomes = router.process_request_batch(
                [item[2] for item in items])
            batch_s = time.perf_counter() - start
            for item, outcome in zip(items, outcomes):
                if isinstance(outcome, tuple):
                    confirm, _router_session = outcome
                    start = time.perf_counter()
                    confirm = AccessConfirm.decode(self.group,
                                                   confirm.encode())
                    session = self.users[item[0][0]] \
                        .complete_router_handshake(item[3], confirm)
                    item[4] += time.perf_counter() - start
                    item.append(session)
        self._end_handshake()
        latencies = []
        for (cred, forged, _request, _pending, own, *done), outcome in \
                zip(items, outcomes):
            error = None if isinstance(outcome, tuple) else outcome
            expected = self.ledger.position(self.index_of(cred))
            record = self._settle(cred, router, expected, forged, error,
                                  done[0] if done else None,
                                  outcome[1] if error is None else None)
            if record is not None:
                self.exchange(record, *exchange_sizes[
                    len(latencies) % len(exchange_sizes)])
                latencies.append(own + batch_s)
        if self.measuring:
            self.figures.router_rates.append(len(items) / batch_s)
            self.figures.decided += len(items)
            self.figures.handshake_ms.extend(1e3 * x for x in latencies)
            if ops is not None:
                _add(self.figures.handshake_ops, ops)
                self.figures.counted_handshakes += len(items)

    # -- the data plane -------------------------------------------------------

    def deliver(self, sender, receiver, size: int) -> None:
        """One payload of ``size`` bytes through ``send`` -> wire ->
        ``receive``; timed into goodput, checked byte for byte."""
        payload = self.rng.randbytes(size)
        self.attempted += 1
        with self._counting() as ops:
            start = time.perf_counter()
            wire = sender.send(payload).encode()
            received = receiver.receive(DataPacket.decode(wire))
            elapsed = time.perf_counter() - start
        if self.measuring:
            self.figures.round_s += elapsed
            self.figures.round_bytes += size
            self.figures.payload_bytes += size
            if ops is not None:
                _add(self.figures.transfer_ops, ops)
                self.figures.counted_bytes += size
        self.check(checks.check_payload, payload, received)

    def exchange(self, record: SessionRecord, up: int, down: int) -> None:
        """One request from the user and one reply from the router."""
        self.deliver(record.user_session, record.router_session, up)
        self.deliver(record.router_session, record.user_session, down)

    def close_round(self) -> None:
        """End one round of the timed phase: its goodput is one sample."""
        figures = self.figures
        if self.measuring and figures.round_s > 0:
            figures.goodputs.append(figures.round_bytes / 1e3
                                    / figures.round_s)
        figures.round_bytes = 0
        figures.round_s = 0.0

    def rekey(self, record: SessionRecord) -> None:
        """Both ends ratchet at the same transcript point (timed into
        goodput: a rekey is data-plane work that carries no payload)."""
        self.attempted += 1
        start = time.perf_counter()
        record.user_session.rekey()
        record.router_session.rekey()
        if self.measuring:
            self.figures.round_s += time.perf_counter() - start

    def altered_packet(self, record: SessionRecord, size: int) -> None:
        """One packet altered in transit must be rejected; the intact
        packet is then delivered (the failed open consumed nothing)."""
        payload = self.rng.randbytes(size)
        self.attempted += 1
        packet = record.user_session.send(payload)
        wire = bytearray(packet.encode())
        wire[len(wire) - 1 - self.rng.randrange(16)] ^= 1 \
            << self.rng.randrange(8)
        error = None
        try:
            record.router_session.receive(DataPacket.decode(bytes(wire)))
        except SessionError as exc:
            error = exc
        self.check(checks.check_altered_rejected, error)
        received = record.router_session.receive(packet)
        self.check(checks.check_payload, payload, received)

    # -- revocation waves -----------------------------------------------------

    def wave(self, revoke: Sequence[KeyIndex],
             reinstate: Sequence[KeyIndex]) -> None:
        """One list update, timed until every router enforces it.

        NO reinstates ``reinstate`` and revokes ``revoke``; the first
        router fetches the new lists over its NO channel, the others
        adopt the signed lists from it as gossip would.
        """
        self.attempted += 1
        journal_before = self._journal_bytes()
        start = time.perf_counter()
        for index in reinstate:
            self.operator.unrevoke_user_key(index)
        for index in revoke:
            self.operator.revoke_user_key(index)
        head = self.routers[0]
        head.refresh_lists()
        for router in self.routers[1:]:
            router.adopt_lists(crl=head.crl, url=head.url)
        elapsed = time.perf_counter() - start
        for index in reinstate:
            self.ledger.reinstate(index)
        for index in revoke:
            self.ledger.revoke(index)
        if self.measuring:
            self.figures.wave_ms.append(1e3 * elapsed)
            self.figures.wave_journal_bytes += (self._journal_bytes()
                                                - journal_before)
        self.check(checks.check_lists_current, self.operator.list_versions(),
                   [router.list_versions() for router in self.routers])

    def _journal_bytes(self) -> int:
        """Bytes the routers' journals appended so far (traced run)."""
        if self.tracer is None:
            return 0
        return self.tracer.total("durable.storage").units

    # -- membership renewal ---------------------------------------------------

    def renew(self, exclude: str) -> List[Tuple[Cred, object, object,
                                               Optional[bytes]]]:
        """Time one renewal with ``exclude`` left out (and checked to
        hold no credential after it).

        Returns every pre-renewal credential with the gpk and period it
        signed under, for :meth:`check_stale_rejected`.
        """
        stale = [((name, group), user.credentials[group], user.gpk,
                  user.auth_period)
                 for name, user in sorted(self.users.items())
                 for group in sorted(user.credentials)]
        self.attempted += 1
        with self.phase("renewal"):
            start = time.perf_counter()
            self.deployment.rotate_epoch(exclude=[exclude])
            self.figures.rotate_s.append(time.perf_counter() - start)
        self.ledger.clear()
        self.check(checks.check_excluded, self.users[exclude].credentials)
        return stale

    def check_stale_rejected(self, stale) -> None:
        """Every pre-renewal credential signs an M.2 for a fresh beacon;
        each router decides its share in one batch and must refuse all."""
        operator_key = self.operator.public_key
        for position, router in enumerate(self.routers):
            share = stale[position::len(self.routers)]
            if not share:
                continue
            requests = []
            for _cred, credential, gpk, period in share:
                engine = UserAuthEngine(gpk, operator_key, credential,
                                        clock=self.deployment.clock,
                                        rng=self.rng)
                engine.auth_period = period
                request, _pending = engine.process_beacon(router.make_beacon())
                requests.append(request)
            self.attempted += len(requests)
            outcomes = router.process_request_batch(requests)
            self.check(checks.check_stale_rejected, outcomes)

    # -- audits ---------------------------------------------------------------

    def audit(self, record: SessionRecord) -> None:
        """NO's audit of one session must name its signing group."""
        result = self._audit_call(
            audit_protocol.audit_by_session, self.operator,
            self.deployment.network_log, record.user_session.session_id)
        if result is not None:
            self.check(checks.check_audit, record.group, result)

    def trace(self, record: SessionRecord) -> None:
        """Law-authority tracing must name the group, epoch and user."""
        result = self._audit_call(
            self.deployment.law_authority.trace_session, self.operator,
            self.deployment.network_log, self.deployment.gms,
            record.user_session.session_id)
        if result is not None:
            self.check(checks.check_trace, record.group, record.user,
                       record.epoch, result)

    def _audit_call(self, function, *args):
        """One audit or trace; an ``AuditError`` is a failed operation."""
        for router in self.routers:
            self.deployment.network_log.ingest(router.auth_log)
        self.attempted += 1
        try:
            return function(*args)
        except ReproError as exc:
            self.failures.append(f"audit failed: {exc!r}")
            return None
