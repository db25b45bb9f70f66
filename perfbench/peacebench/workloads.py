"""The workloads: set-up, timed phase, and closing checks.

Each workload runs in one process with one closed-loop client: the next
operation starts when the previous one has finished.  Inputs -- which
credential joins where, which keys a wave revokes, payload sizes and
contents, which bit a forger flips -- come from ``random.Random`` seeded
with the workload name and ``--seed``; the deployment's own keys come
from ``Deployment.build(seed=...)``.  The timed phase is made of whole
rounds, each with the same make-up, repeated until ``--seconds`` have
passed (at least one round always runs).
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.deployment import Deployment
from repro.core.durable import DurableRouterStore, MemoryStorage
from repro.core.revocation import RevocationTagCache, epoch_period

from peacebench import checks
from peacebench.world import World

ROUTERS = ("MR-1", "MR-2", "MR-3", "MR-4")

#: (request, reply) sizes of the exchanges after accepted joins; each
#: round draws a shuffled copy, so every round carries the same bytes.
EXCHANGE_SIZES = ((64, 256), (96, 224), (128, 192), (160, 160),
                  (256, 64))

SETUP_REPEATS = 3
RENEWALS = 3

# roam-join: two groups over four routers on the default linear Eq.3
# path, |URL| = 9 throughout.
ROAM_GROUPS = {"Company X": 10, "University Z": 10}
ROAM_USERS = tuple(
    [(f"u{i:02d}", ("Company X",)) for i in range(6)]
    + [(f"u{i:02d}", ("University Z",)) for i in range(6, 12)]
    + [(f"u{i:02d}", ("Company X", "University Z")) for i in (12, 13)])
ROAM_UNASSIGNED_PER_GROUP = 2
ROAM_REVOKED_PER_GROUP = 2
ROAM_JOINS_PER_ROUND = 6

# metro-revocation: sharded revocation at |URL| ~ 10^3 with journals.
METRO_GROUPS = {"Metro Pool": 1014, "Company X": 6}
METRO_USERS = tuple(
    [(f"m{i:02d}", ("Metro Pool",)) for i in range(12)]
    + [(f"c{i:02d}", ("Company X",)) for i in range(4)])
METRO_SPARES = 8            # unassigned pool keys the waves cycle through
METRO_REVOKED_ENROLLED = 3
METRO_WAVE_SPARES = 3       # a wave: one enrolled key plus three spares
METRO_SHARDS = 16
#: Journal records between compactions.  Bounds each journal to a few
#: waves, so a wave's journal cost does not grow with the run's length
#: (``MemoryStorage.sync`` copies the whole journal on every record).
METRO_COMPACT_EVERY = 8
BURST_CLEAN, BURST_REVOKED, BURST_FORGED = 5, 2, 1


def _inputs(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _shuffled(rng: random.Random, items: Sequence) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


def _unassigned(world: World, pools: Dict[str, int]) -> List:
    """Pool keys NO issued that no user holds, in index order."""
    assigned = {world.index_of(cred) for cred in world.creds()}
    group_ids = {cred[1]: world.index_of(cred)[0] for cred in world.creds()}
    return sorted((group_ids[name], j) for name, size in pools.items()
                  for j in range(size)
                  if (group_ids[name], j) not in assigned)


# -- set-up ------------------------------------------------------------------


def _seed_roam_url(world: World) -> None:
    """Bring |URL| to 9 in the current epoch and re-fetch the lists:
    two unassigned pool keys and two enrolled credentials per group,
    then the key the next wave will reinstate."""
    rng = world.rng
    indices = []
    unassigned = _unassigned(world, ROAM_GROUPS)
    for group in ROAM_GROUPS:
        members = [cred for cred in world.creds() if cred[1] == group]
        group_id = world.index_of(members[0])[0]
        indices += [index for index in unassigned
                    if index[0] == group_id][-ROAM_UNASSIGNED_PER_GROUP:]
        indices += [world.index_of(cred) for cred in
                    rng.sample(members, ROAM_REVOKED_PER_GROUP)]
    world.revoke(indices)
    world.wave_keys = [world.index_of(rng.choice(world.clean_creds()))]
    world.revoke(world.wave_keys)
    for router in world.routers:
        router.refresh_lists()


def _warm_up(world: World) -> None:
    """One untimed join per router: builds the engine tables of the
    current gpk, so no latency sample pays for them."""
    measuring, world.measuring = world.measuring, False
    for router in world.routers:
        world.join(world.rng.choice(world.clean_creds()), router)
    world.measuring = measuring


def setup_roam(workload: str, seed: int, preset: str,
                 tracer=None) -> World:
    """Two groups, 14 users (two in both groups), four routers, |URL| = 9.

    Ends with one warm-up join per router, which builds the lazily made
    engine tables.
    """
    deployment = Deployment.build(
        preset=preset, seed=seed, groups=dict(ROAM_GROUPS),
        users=[(name, list(groups)) for name, groups in ROAM_USERS],
        routers=list(ROUTERS))
    world = World(deployment, _inputs(workload, seed), tracer)
    _seed_roam_url(world)
    _warm_up(world)
    world.sessions.clear()
    return world


def setup_metro(workload: str, seed: int, preset: str,
                tracer=None) -> World:
    """One 1014-key metro pool plus a small group; |URL| = 1001.

    Every router journals into a ``DurableRouterStore`` over
    ``MemoryStorage`` and runs sharded revocation with its own tag
    cache: the first router derives its tags cold, the others warm up
    from its signed ``TagCheckpoint``.  Ends with one warm-up burst of
    one request per router.
    """
    rng = _inputs(workload, seed)
    deployment = Deployment.build(
        preset=preset, seed=seed, groups=dict(METRO_GROUPS),
        users=[(name, list(groups)) for name, groups in METRO_USERS],
        routers=list(ROUTERS))
    world = World(deployment, rng, tracer)
    metro_id = world.index_of(("m00", "Metro Pool"))[0]
    unassigned = [index for index in _unassigned(world, METRO_GROUPS)
                  if index[0] == metro_id]
    world.spares = unassigned[-METRO_SPARES:]
    revoked = rng.sample(world.clean_creds(), METRO_REVOKED_ENROLLED)
    world.revoke(unassigned[:-METRO_SPARES]
                 + [world.index_of(cred) for cred in revoked])
    world.wave_keys = ([world.index_of(rng.choice(world.clean_creds()))]
                       + world.spares[:METRO_WAVE_SPARES])
    world.revoke(world.wave_keys)
    checkpoint = None
    for router in world.routers:
        router.refresh_lists()
        storage = world.storages[router.router_id] = MemoryStorage()
        router.attach_durable(DurableRouterStore(
            storage, router.router_id, compact_every=METRO_COMPACT_EVERY))
        router.enable_sharded_revocation(num_shards=METRO_SHARDS,
                                         cache=RevocationTagCache(),
                                         warm_checkpoint=checkpoint)
        if checkpoint is None:
            checkpoint = router.make_tag_checkpoint()
    period = epoch_period(deployment.operator.gpk.epoch)
    for user in deployment.users.values():
        user.auth_period = period
    for router in world.routers:
        world.burst(router, [(rng.choice(world.clean_creds()), False)],
                    [(64, 64)])
    world.sessions.clear()
    return world


def build(setup: Callable[..., World], workload: str, seed: int,
          preset: str, tracer) -> Tuple[World, List[float]]:
    """Run the set-up :data:`SETUP_REPEATS` times; keep the last world.

    Every repeat starts from the same seed, so the kept world is the one
    each repeat built; ``setup_s`` is the median of the repeats.
    """
    times = []
    world = None
    for _ in range(SETUP_REPEATS):
        world = None                    # let the previous one go first
        gc.collect()
        start = time.perf_counter()
        world = setup(workload, seed, preset, tracer)
        times.append(time.perf_counter() - start)
    return world, times


# -- timed phases -------------------------------------------------------------


def _rounds(world: World, seconds: float,
            body: Callable[[int], None]) -> None:
    """Run ``body(round)`` until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    number = 0
    while True:
        body(number)
        world.close_round()
        number += 1
        if time.perf_counter() >= deadline:
            return


def _roam_wave(world: World) -> None:
    """One-key wave: reinstate the previous wave's key, revoke a new
    clean one, so |URL| stays at 9 and handshake cost stays level."""
    new = [world.index_of(world.rng.choice(world.clean_creds()))]
    world.wave(new, world.wave_keys)
    world.wave_keys = new


def measure_roam(world: World, seconds: float) -> None:
    """Rounds of six joins (one from a revoked key), each followed by a
    one-key wave; renewals split the timed phase into thirds.

    A user roams: each join goes to a router other than the one the
    user last joined.  Each accepted join sends one request and one
    reply, sized from a shuffled copy of :data:`EXCHANGE_SIZES`, after
    which both ends rekey.
    """
    rng = world.rng
    last_router: Dict[str, object] = {}
    altered = []

    def round_(_number: int) -> None:
        sizes = _shuffled(rng, EXCHANGE_SIZES)
        revoked_slot = rng.randrange(ROAM_JOINS_PER_ROUND)
        for slot in range(ROAM_JOINS_PER_ROUND):
            revoked = slot == revoked_slot
            cred = rng.choice(world.revoked_creds() if revoked
                              else world.clean_creds())
            router = rng.choice([r for r in world.routers
                                 if r is not last_router.get(cred[0])])
            last_router[cred[0]] = router
            record = world.join(cred, router,
                                None if revoked else sizes.pop())
            if record is not None:
                world.rekey(record)
                if not altered:
                    altered.append(record)
                    world.altered_packet(record, 64)
            _roam_wave(world)

    world.measuring = True
    for part in range(RENEWALS):
        if part:
            _renew_mid_run(world)
        _rounds(world, seconds / RENEWALS, round_)
    world.measuring = False


def _renew_mid_run(world: World) -> None:
    """A renewal inside roam-join's timed phase, then the new epoch's
    URL and warm-up joins.  Spreading the timed renewals over the run,
    rather than timing them back to back at its end, keeps
    ``epoch_rotate_s`` from riding on one moment of the host's speed."""
    with world.phase("renewal"):
        world.renew(_excluded(world))
        _seed_roam_url(world)
        _warm_up(world)


def measure_metro(world: World, seconds: float) -> None:
    """Rounds of one burst of eight M.2s and one four-key wave.

    A burst goes to the routers in turn and holds five clean, two
    revoked and one forged M.2 in seeded order.  A wave reinstates the
    previous wave's four keys and revokes one clean enrolled key plus
    three spare pool keys, so |URL| stays at 1001.
    """
    rng = world.rng
    altered = []

    def round_(number: int) -> None:
        router = world.routers[number % len(world.routers)]
        clean = rng.sample(world.clean_creds(), BURST_CLEAN + BURST_FORGED)
        revoked = rng.sample(world.revoked_creds(), BURST_REVOKED)
        entries = ([(cred, False) for cred in clean[:BURST_CLEAN]]
                   + [(cred, True) for cred in clean[BURST_CLEAN:]]
                   + [(cred, False) for cred in revoked])
        rng.shuffle(entries)
        sizes = _shuffled(rng, EXCHANGE_SIZES)
        world.burst(router, entries, sizes)
        if not altered and world.sessions:
            altered.append(world.sessions[0])
            world.altered_packet(world.sessions[0], 64)
        spares = [index for index in world.spares
                  if index not in world.ledger]
        new = ([world.index_of(rng.choice(world.clean_creds()))]
               + rng.sample(spares, METRO_WAVE_SPARES))
        world.wave(new, world.wave_keys)
        world.wave_keys = new

    world.measuring = True
    _rounds(world, seconds, round_)
    world.measuring = False


# -- closing checks -----------------------------------------------------------


def _excluded(world: World) -> str:
    """A seeded user holding one credential: every renewal then re-enrols
    the same number of credentials, whatever the seed."""
    return world.rng.choice(sorted(name for name, user in world.users.items()
                                   if len(user.credentials) == 1))


def finish_roam(world: World) -> None:
    """Audit and trace a sample of this epoch's sessions; renew for the
    last time, check the renewal, and trace across it."""
    rng = world.rng
    current = [record for record in world.sessions
               if record.epoch == world.operator.epoch]
    audited = rng.sample(current, min(3, len(current)))
    for record, audit in zip(audited, (world.audit, world.trace)):
        audit(record)
    stale = world.renew(_excluded(world))
    world.check_stale_rejected(stale)
    renewed = [world.join(rng.choice(world.clean_creds()), router, (64, 64))
               for router in world.routers]
    for record in audited[2:]:                    # a retired-epoch session
        world.trace(record)
    for record in renewed:
        if record is not None:
            world.trace(record)
            break


def finish_metro(world: World) -> None:
    """Renew (re-sharding every router), check the renewal and that each
    journal replays to its router's live state; renew again until
    :data:`RENEWALS` renewals are timed.

    No audits: ``NetworkOperator.audit_session`` cannot open signatures
    made in period mode (see the README's known fault).
    """
    rng = world.rng
    stale = world.renew(_excluded(world))
    world.check_stale_rejected(stale)
    for router in world.routers:
        world.burst(router, [(rng.choice(world.clean_creds()), False)],
                    [(64, 64)])
    for _ in range(RENEWALS - 1):
        world.renew(_excluded(world))
    for router in world.routers:
        world.attempted += 1
        recovered = DurableRouterStore(world.storages[router.router_id],
                                       router.router_id).load().state
        world.check(checks.check_journal, recovered.url_blob,
                    recovered.epoch, router.url.encode(),
                    router.engine.gpk.epoch)
    world.check(checks.check_lists_current, world.operator.list_versions(),
                [router.list_versions() for router in world.routers])


WORKLOADS = {
    "roam-join": (setup_roam, measure_roam, finish_roam),
    "metro-revocation": (setup_metro, measure_metro, finish_metro),
}


def run(workload: str, seed: int, seconds: float, preset: str = "SS512",
        tracer=None) -> World:
    """Set up, measure and check one workload; returns the world."""
    setup, measure, finish = WORKLOADS[workload]
    world, setup_times = build(setup, workload, seed, preset, tracer)
    world.figures.setup_s = setup_times
    with world.phase("timed"):
        measure(world, seconds)
    with world.phase("closing"):
        finish(world)
    return world


#: The end-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END_UNITS = {
    "setup_s": "s", "handshake_p50_ms": "ms", "router_auth_per_s": "1/s",
    "goodput_kBps": "kB/s", "list_update_ms": "ms", "epoch_rotate_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(world: World) -> Dict[str, float]:
    """The seven end-to-end metrics of one untraced run."""
    figures = world.figures
    return {
        "setup_s": statistics.median(figures.setup_s),
        "handshake_p50_ms": statistics.median(figures.handshake_ms),
        "router_auth_per_s": statistics.median(figures.router_rates),
        "goodput_kBps": statistics.median(figures.goodputs),
        "list_update_ms": statistics.median(figures.wave_ms),
        "epoch_rotate_s": statistics.median(figures.rotate_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def percentile(values: Sequence[float], share: float) -> Optional[float]:
    """Nearest-rank percentile, or None without enough samples beyond it
    (the tail reported needs at least ten samples above it)."""
    ordered = sorted(values)
    if len(ordered) * (1 - share) < 10:
        return None
    rank = max(0, min(len(ordered) - 1, int(round(share * len(ordered))) - 1))
    return ordered[rank]
