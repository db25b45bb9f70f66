"""Span tracing around calls into the program's public functions.

The traced run installs a :class:`Tracer`, which replaces each function
named in :data:`SPANS` with a wrapper that records one span per call:
name, start, end, parent span and the handshake the call belongs to.
Spans are kept in memory and written out when the run ends.  A span's
*self time* is its duration minus the time its child spans cover, so
time spent in G1 arithmetic under ``groupsig.sign`` is charged to the
pairing layer, not to the signature layer.

Spans and their statistics are filed under the phase of the run they
fall in (:data:`PHASES`), so set-up work, renewals and the closing
checks do not blur the timed phase's per-call figures.

Only the benchmark's own process is patched, and only for the traced
run: the untraced runs that give the end-to-end metrics never install
the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The phases of a run: building the deployment, the timed rounds,
#: membership renewals (with the re-seeding that follows one inside the
#: timed phase), and the checks after the timed phase.
PHASES = ("setup", "timed", "renewal", "closing")

#: (module, attribute path, span name, units-of-work extractor).  The
#: extractor maps ``(args, result)`` to the amount of work the call did
#: (items in a batch, bytes sealed); ``None`` counts one per call.
#: Several functions may share a span name: the layer metric is their
#: sum.
SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # core.router / core.user: the four handshake steps
    ("repro.core.router", "MeshRouter.make_beacon", "router.beacon", None),
    ("repro.core.user", "NetworkUser.connect_to_router", "user.request",
     None),
    ("repro.core.router", "MeshRouter.process_request", "router.request",
     None),
    ("repro.core.router", "MeshRouter.process_request_batch",
     "router.batch", lambda args, result: len(args[1])),
    ("repro.core.user", "NetworkUser.complete_router_handshake",
     "user.complete", None),
    # core.groupsig (+ core.batch_core under verify_batch)
    ("repro.core.groupsig", "sign", "groupsig.sign", None),
    ("repro.core.groupsig", "verify", "groupsig.verify", None),
    ("repro.core.groupsig", "verify_batch", "groupsig.verify_batch",
     lambda args, result: len(args[1])),
    # pairing: G1 arithmetic, subgroup tests, cofactor clearing,
    # hashing to the curve, Miller loops, final exponentiation
    ("repro.pairing.curve", "Curve.mul", "pairing.g1_mul", None),
    ("repro.pairing.curve", "Curve.multi_mul_raw", "pairing.g1_mul", None),
    ("repro.pairing.precompute", "FixedBaseTable.mul", "pairing.g1_mul",
     None),
    ("repro.pairing.fastpath", "DualMultiExp.mul", "pairing.g1_mul", None),
    ("repro.pairing.curve", "Curve.in_subgroup", "pairing.subgroup", None),
    ("repro.pairing.curve", "Curve.clear_cofactor", "pairing.cofactor",
     None),
    ("repro.pairing.fastpath", "clear_cofactor_fast", "pairing.cofactor",
     None),
    ("repro.pairing.group", "PairingGroup.hash_to_g1", "pairing.hash_to_g1",
     None),
    ("repro.pairing.group", "PairingGroup.hash_h0", "pairing.hash_to_g1",
     None),
    ("repro.pairing.fastpath", "hash_h0_fast", "pairing.hash_to_g1", None),
    ("repro.pairing.group", "PairingGroup.pair", "pairing.pair", None),
    ("repro.pairing.group", "PairingGroup.pair_with", "pairing.pair", None),
    ("repro.pairing.group", "PairingGroup.pair_product", "pairing.pair",
     None),
    ("repro.pairing.precompute", "PairingTable.pairing", "pairing.pair",
     None),
    ("repro.pairing.precompute", "PairingTable.pairing_each", "pairing.pair",
     None),
    ("repro.pairing.precompute", "PairingTable.miller", "pairing.pair",
     None),
    ("repro.pairing.tate", "miller_loop", "pairing.pair", None),
    ("repro.pairing.fastpath", "fused_miller_subgroup", "pairing.pair",
     None),
    ("repro.pairing.fastpath", "miller_eval", "pairing.pair", None),
    ("repro.pairing.fastpath", "miller_eval_pair", "pairing.pair", None),
    ("repro.pairing.tate", "final_exponentiation", "pairing.final_exp",
     None),
    ("repro.pairing.tate", "final_exponentiation_product",
     "pairing.final_exp", None),
    ("repro.pairing.fastpath", "unitary_pow_h", "pairing.final_exp", None),
    ("repro.pairing.fastpath", "unitary_tag_is_one", "pairing.final_exp",
     None),
    # core.revocation
    ("repro.core.revocation", "RevocationState.check", "revocation.check",
     None),
    ("repro.core.revocation", "RevocationState.update", "revocation.update",
     None),
    ("repro.core.revocation", "RevocationState.rotate", "revocation.rotate",
     None),
    ("repro.core.router", "MeshRouter.adopt_tag_checkpoint",
     "router.checkpoint_adopt", None),
    # core.durable
    ("repro.core.durable", "DurableRouterStore.record_lists",
     "durable.append", None),
    ("repro.core.durable", "DurableRouterStore.record_epoch",
     "durable.append", None),
    ("repro.core.durable", "DurableRouterStore.record_channel",
     "durable.append", None),
    ("repro.core.durable", "DurableRouterStore.record_checkpoint",
     "durable.append", None),
    ("repro.core.durable", "MemoryStorage.append", "durable.storage",
     lambda args, result: len(args[1])),
    # core.operator_entity / core.group_manager / core.user
    ("repro.core.operator_entity", "NetworkOperator.revoke_user_key",
     "operator.revoke", None),
    ("repro.core.router", "MeshRouter.refresh_lists", "router.refresh",
     None),
    ("repro.core.router", "MeshRouter.adopt_lists", "router.adopt_lists",
     None),
    ("repro.core.operator_entity", "NetworkOperator.rotate_system_keys",
     "operator.rotate", None),
    ("repro.core.user", "NetworkUser.enroll_with", "user.enroll", None),
    # sig.ecdsa
    ("repro.sig.ecdsa", "EcdsaKeyPair.sign", "ecdsa.sign", None),
    ("repro.sig.ecdsa", "EcdsaPublicKey.verify", "ecdsa.verify", None),
    # crypto.aead / crypto.kdf
    ("repro.crypto.aead", "AeadKey.seal", "aead.seal",
     lambda args, result: len(args[1])),
    ("repro.crypto.aead", "AeadKey.open", "aead.open",
     lambda args, result: len(result)),
    ("repro.core.protocols.session", "SecureSession.rekey", "kdf.rekey",
     None),
    # core.messages: the wire codec of M.2, M.3 and data packets
    ("repro.core.messages", "AccessRequest.encode", "messages.encode", None),
    ("repro.core.messages", "AccessConfirm.encode", "messages.encode", None),
    ("repro.core.messages", "DataPacket.encode", "messages.encode", None),
    ("repro.core.messages", "AccessRequest.decode", "messages.decode", None),
    ("repro.core.messages", "AccessConfirm.decode", "messages.decode", None),
    ("repro.core.messages", "DataPacket.decode", "messages.decode", None),
    # core.audit
    ("repro.core.audit", "audit_by_session", "audit.audit", None),
    ("repro.core.audit", "LawAuthority.trace_session", "audit.trace", None),
)


class SpanStats:
    """Per span name: calls, units of work, total self time."""

    __slots__ = ("calls", "units", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.units = 0
        self.self_s = 0.0


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self) -> None:
        #: (span id, parent id, handshake id, phase, name, start, end)
        self.spans: List[Tuple[int, int, int, str, str, float, float]] = []
        #: (phase, span name) -> statistics
        self.stats: Dict[Tuple[str, str], SpanStats] = {}
        #: Phase of the run the current calls belong to.
        self.phase = "setup"
        #: Handshake the current calls belong to (0 = none).
        self.handshake = 0
        self.tokens_scanned = 0
        #: (phase, "hit" or "miss") -> tag-cache lookups
        self.cache: Dict[Tuple[str, str], int] = {}
        self._stack: List[list] = []
        self._next_id = 1
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, units: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child_s, span_id, parent = frame
        duration = end - start
        key = (self.phase, name)
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = SpanStats()
        stats.calls += 1
        stats.units += units
        stats.self_s += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((span_id, parent, self.handshake, self.phase,
                           name, start, end))

    def _wrapper(self, function: Callable, name: str,
                 units: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            done = False
            try:
                result = function(*args, **kwargs)
                done = True
                return result
            finally:
                # A call that raised did no countable work.
                amount = 1
                if units is not None:
                    amount = units(args, result) if done else 0
                tracer._exit(frame, amount)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`SPANS` (idempotent per tracer)."""
        for module_name, path, name, units in SPANS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                self._wrap_method(owner, attribute, name, units)
            else:
                self._wrap_function(module, path, name, units)
        self._wrap_open_signature()
        self._wrap_cache_get()

    def _wrap_method(self, owner: type, attribute: str, name: str,
                     units: Optional[Callable]) -> None:
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, name, units))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(raw.__func__, name, units))
        else:
            wrapped = self._wrapper(raw, name, units)
        self._undo.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def _wrap_function(self, module, attribute: str, name: str,
                       units: Optional[Callable]) -> None:
        """Wrap a module-level function and every ``from x import f``
        copy of it, so callers that bound it by name see the wrapper."""
        original = getattr(module, attribute)
        wrapped = self._wrapper(original, name, units)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "") \
                    .startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, key, original))
                    setattr(other, key, wrapped)

    def _wrap_open_signature(self) -> None:
        """Count the grt tokens an audit scans (``audit.tokens_scanned``).

        ``open_signature`` stops at the first matching token, so the
        count is taken from the tokens it draws from the grt iterable.
        """
        from repro.core import groupsig
        original = groupsig.open_signature
        tracer = self

        def counting(gpk, message, signature, grt, period=None):
            def draw():
                for item in grt:
                    tracer.tokens_scanned += 1
                    yield item
            return original(gpk, message, signature, draw(), period)

        self._undo.append((groupsig, "open_signature", original))
        groupsig.open_signature = counting

    def _wrap_cache_get(self) -> None:
        """Count tag-cache hits and misses as ``RevocationTagCache.get``
        decides them (a miss returns ``None``)."""
        from repro.core.revocation import RevocationTagCache
        original = RevocationTagCache.get
        tracer = self

        def counting(cache, epoch, token_encoding):
            tag = original(cache, epoch, token_encoding)
            key = (tracer.phase, "miss" if tag is None else "hit")
            tracer.cache[key] = tracer.cache.get(key, 0) + 1
            return tag

        self._undo.append((RevocationTagCache, "get", original))
        RevocationTagCache.get = counting

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- reading -----------------------------------------------------------

    def total(self, name: str, phases: Iterable[str] = PHASES
              ) -> SpanStats:
        """The statistics of span ``name`` summed over ``phases``."""
        total = SpanStats()
        for phase in phases:
            stats = self.stats.get((phase, name))
            if stats is not None:
                total.calls += stats.calls
                total.units += stats.units
                total.self_s += stats.self_s
        return total

    def self_s(self, phase: str) -> Dict[str, float]:
        """Self time in ``phase`` by span name."""
        return {name: stats.self_s
                for (in_phase, name), stats in self.stats.items()
                if in_phase == phase}

    def write(self, path: str) -> None:
        """Write every span as one JSON line (ids, handshake, phase, name,
        start and end in seconds on the process's perf counter)."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, handshake, phase, name, start, end \
                    in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "parent": parent,
                     "handshake": handshake, "phase": phase, "name": name,
                     "start": round(start, 7), "end": round(end, 7)},
                    separators=(",", ":")))
                out.write("\n")
