"""Per-layer metrics of a traced run.

Times are exclusive self time (a span's duration minus its child spans)
from :class:`peacebench.trace.Tracer`, taken from the phase of the run
the layer's work belongs to.  Handshake, data-plane and wave layers are
read from the timed phase only; renewal layers from the renewals,
enrolment and checkpoint warm-up from set-up and renewals, audits from
the closing checks.  ``_ms`` metrics are the mean per call,
``_item_ms`` the mean per request in a batch, ``_us_per_kB`` the self
time per 1000 payload bytes.  ``setup.*`` metrics split one set-up's
time by layer.  Counts per handshake come from the program's own
counter, ``repro.instrument.count_operations``, opened around each
handshake of the timed phase.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, Sequence, Tuple

from peacebench.trace import Tracer
from peacebench.world import World

Derive = Callable[[Tracer, World], float]

TIMED = ("timed",)
RENEWAL = ("renewal",)
SETUP_AND_RENEWAL = ("setup", "renewal")
CLOSING = ("closing",)


def _per_call(name: str, phases: Sequence[str] = TIMED) -> Derive:
    def derive(tracer: Tracer, world: World) -> float:
        stats = tracer.total(name, phases)
        return 1e3 * stats.self_s / stats.calls if stats.calls else 0.0
    return derive


def _per_unit(name: str) -> Derive:
    def derive(tracer: Tracer, world: World) -> float:
        stats = tracer.total(name, TIMED)
        return 1e3 * stats.self_s / stats.units if stats.units else 0.0
    return derive


def _us_per_kb(name: str) -> Derive:
    # ms per byte * 1e6 = us per kB
    per_byte = _per_unit(name)
    return lambda tracer, world: 1e6 * per_byte(tracer, world)


def _per_handshake(*events: str) -> Derive:
    def derive(tracer: Tracer, world: World) -> float:
        figures = world.figures
        if not figures.counted_handshakes:
            return 0.0
        return (sum(figures.handshake_ops.get(event, 0) for event in events)
                / figures.counted_handshakes)
    return derive


def _aes_blocks_per_kb(tracer: Tracer, world: World) -> float:
    figures = world.figures
    if not figures.counted_bytes:
        return 0.0
    return (figures.transfer_ops.get("aes_block", 0)
            / (figures.counted_bytes / 1e3))


def _cache_hit_ratio(tracer: Tracer, world: World) -> float:
    hits = tracer.cache.get(("timed", "hit"), 0)
    lookups = hits + tracer.cache.get(("timed", "miss"), 0)
    return hits / lookups if lookups else 0.0


def _bytes_per_wave(tracer: Tracer, world: World) -> float:
    waves = len(world.figures.wave_ms)
    return world.figures.wave_journal_bytes / waves if waves else 0.0


def _m2_bytes(tracer: Tracer, world: World) -> float:
    sizes = world.figures.m2_bytes
    return statistics.median(sizes) if sizes else 0.0


def _tokens_per_audit(tracer: Tracer, world: World) -> float:
    audits = tracer.total("audit.audit").calls
    return tracer.tokens_scanned / audits if audits else 0.0


#: Set-up layers: ``setup.<layer>_s`` is the self time of the span names
#: starting with one of the prefixes, per set-up.
SETUP_LAYERS = {
    "pairing": ("pairing.",),
    "groupsig": ("groupsig.",),
    "revocation": ("revocation.", "router.checkpoint_adopt", "durable."),
    "lists": ("operator.revoke", "router.refresh", "router.adopt_lists"),
    "enroll": ("user.enroll",),
    "ecdsa": ("ecdsa.",),
}


def _setup_layer(prefixes: Tuple[str, ...]) -> Derive:
    def derive(tracer: Tracer, world: World) -> float:
        return (sum(self_s for name, self_s in tracer.self_s("setup").items()
                    if name.startswith(prefixes))
                / len(world.figures.setup_s))
    return derive


def _setup_untraced(tracer: Tracer, world: World) -> float:
    """Set-up time outside every traced span, per set-up."""
    return ((sum(world.figures.setup_s)
             - sum(tracer.self_s("setup").values()))
            / len(world.figures.setup_s))


def _traced_p50(tracer: Tracer, world: World) -> float:
    return statistics.median(world.figures.handshake_ms)


#: name -> (unit, better, derivation).  BENCHMARK.json lists the same
#: names; ``perfbench/tests`` holds the two to each other.
PER_LAYER: Dict[str, Tuple[str, str, Derive]] = {
    # core.router / core.protocols.user_router / core.user
    "router.beacon_ms": ("ms", "lower", _per_call("router.beacon")),
    "user.request_ms": ("ms", "lower", _per_call("user.request")),
    "router.request_ms": ("ms", "lower", _per_call("router.request")),
    "router.batch_item_ms": ("ms", "lower", _per_unit("router.batch")),
    "user.complete_ms": ("ms", "lower", _per_call("user.complete")),
    # core.groupsig (+ core.batch_core)
    "groupsig.sign_ms": ("ms", "lower", _per_call("groupsig.sign")),
    "groupsig.verify_ms": ("ms", "lower", _per_call("groupsig.verify")),
    "groupsig.verify_batch_item_ms": (
        "ms", "lower", _per_unit("groupsig.verify_batch")),
    # pairing
    "pairing.g1_mul_ms": ("ms", "lower", _per_call("pairing.g1_mul")),
    "pairing.subgroup_ms": ("ms", "lower", _per_call("pairing.subgroup")),
    "pairing.cofactor_ms": ("ms", "lower", _per_call("pairing.cofactor")),
    "pairing.hash_to_g1_ms": ("ms", "lower",
                              _per_call("pairing.hash_to_g1")),
    "pairing.pair_ms": ("ms", "lower", _per_call("pairing.pair")),
    "pairing.final_exp_ms": ("ms", "lower", _per_call("pairing.final_exp")),
    "pairing.pairings_per_handshake": ("count", "lower",
                                       _per_handshake("pairing")),
    "pairing.exps_per_handshake": ("count", "lower",
                                   _per_handshake("exp", "psi")),
    # core.revocation
    "revocation.check_ms": ("ms", "lower", _per_call("revocation.check")),
    "revocation.update_ms": ("ms", "lower", _per_call("revocation.update")),
    "revocation.rotate_ms": ("ms", "lower",
                             _per_call("revocation.rotate", RENEWAL)),
    "revocation.cache_hit_ratio": ("ratio", "higher", _cache_hit_ratio),
    "router.checkpoint_adopt_ms": (
        "ms", "lower",
        _per_call("router.checkpoint_adopt", SETUP_AND_RENEWAL)),
    # core.durable
    "durable.append_ms": ("ms", "lower", _per_call("durable.append")),
    "durable.bytes_per_wave": ("B", "lower", _bytes_per_wave),
    # core.operator_entity / core.group_manager / core.user
    "operator.revoke_ms": ("ms", "lower", _per_call("operator.revoke")),
    "router.refresh_ms": ("ms", "lower", _per_call("router.refresh")),
    "router.adopt_lists_ms": ("ms", "lower",
                              _per_call("router.adopt_lists")),
    "operator.rotate_ms": ("ms", "lower",
                           _per_call("operator.rotate", RENEWAL)),
    "user.enroll_ms": ("ms", "lower",
                        _per_call("user.enroll", SETUP_AND_RENEWAL)),
    # sig.ecdsa
    "ecdsa.sign_ms": ("ms", "lower", _per_call("ecdsa.sign")),
    "ecdsa.verify_ms": ("ms", "lower", _per_call("ecdsa.verify")),
    "ecdsa.verifies_per_handshake": ("count", "lower",
                                     _per_handshake("ecdsa_verify")),
    # crypto.aes / crypto.aead / crypto.kdf
    "aead.seal_us_per_kB": ("us/kB", "lower", _us_per_kb("aead.seal")),
    "aead.open_us_per_kB": ("us/kB", "lower", _us_per_kb("aead.open")),
    "aes.blocks_per_kB": ("count", "lower", _aes_blocks_per_kb),
    "kdf.rekey_ms": ("ms", "lower", _per_call("kdf.rekey")),
    # core.messages / core.wire
    "messages.encode_ms": ("ms", "lower", _per_call("messages.encode")),
    "messages.decode_ms": ("ms", "lower", _per_call("messages.decode")),
    "messages.m2_bytes": ("B", "lower", _m2_bytes),
    # core.audit
    "audit.audit_ms": ("ms", "lower", _per_call("audit.audit", CLOSING)),
    "audit.trace_ms": ("ms", "lower", _per_call("audit.trace", CLOSING)),
    "audit.tokens_scanned": ("count", "lower", _tokens_per_audit),
    # the traced run's own handshake p50, against the untraced run's
    # handshake_p50_ms it gives the tracing overhead
    "trace.handshake_p50_ms": ("ms", "lower", _traced_p50),
    # one set-up split by layer; what is left is outside every span
    **{f"setup.{layer}_s": ("s", "lower", _setup_layer(prefixes))
       for layer, prefixes in SETUP_LAYERS.items()},
    "setup.untraced_s": ("s", "lower", _setup_untraced),
}


def per_layer(tracer: Tracer, world: World) -> Dict[str, Tuple[float, str]]:
    return {name: (derive(tracer, world), unit)
            for name, (unit, _better, derive) in PER_LAYER.items()}
