"""Seeded network chaos for the fabric (PR 5's model, at the wire).

The runner's chaos layer (:mod:`repro.chaos`) injects harness faults
-- killed workers, torn journals -- keyed to the completed-trial
count.  This module extends the same idea to the coordinator/worker
wire: faults are keyed to a worker's *granted-lease count* (monotonic
per worker, like the trial count is per campaign), drawn from the
campaign-style named-split RNG, so a chaotic fabric run replays from
``(seed, spec)`` alone.

Fault kinds (:data:`NET_FAULT_KINDS`):

``drop``
    The worker discards a granted lease without executing it or
    heartbeating -- a lost grant reply or a worker crash right after
    the grant.  Recovery: the coordinator's expiry sweep re-queues the
    range and the next lease request steals it.
``dup``
    The worker sends the completion for a finished range twice -- a
    retried POST whose first copy did arrive.  Recovery: the second
    completion is acknowledged ``duplicate`` and merges to nothing.
``partition``
    The worker executes the range but suppresses heartbeats and sits
    out the lease TTL before sending its completion -- a network
    partition that heals after the coordinator has given up.  Recovery:
    the range is re-leased (a steal); whichever completion lands first
    wins and the other is a ``duplicate``/``late`` no-op.

Spec strings reuse the runner grammar: comma-separated
``kind[:count][@at]`` tokens where ``at`` anchors to the worker's nth
granted lease (1-based); unanchored events draw their trigger from the
seed, uniform over ``horizon`` leases.
"""

from dataclasses import dataclass
from typing import Optional

from repro.chaos.schedule import parse_spec

__all__ = ["NET_FAULT_KINDS", "NetChaosEvent", "NetChaosSchedule"]

NET_FAULT_KINDS = ("drop", "dup", "partition")


@dataclass
class NetChaosEvent:
    """One scheduled wire fault."""

    kind: str
    at_lease: int  # fires on the worker's nth granted lease (1-based)
    fired_at: Optional[int] = None

    def render(self):
        if self.fired_at is None:
            return "%s@%d: never fired" % (self.kind, self.at_lease)
        return "%s@%d: fired at lease %d" % (self.kind, self.at_lease,
                                             self.fired_at)


class NetChaosSchedule:
    """A replayable schedule of wire faults for one worker."""

    def __init__(self, events):
        self.events = sorted(events, key=lambda e: (e.at_lease, e.kind))

    @classmethod
    def from_spec(cls, spec, seed, horizon=8):
        """Parse ``kind[:count][@at]`` tokens into a seeded schedule.

        ``horizon`` bounds the unanchored trigger draw -- a worker
        typically holds few leases, so the default keeps seeded events
        likely to fire in a short run (events past the last lease
        simply never fire, and :attr:`pending` reports them).
        """
        return cls([NetChaosEvent(kind=kind, at_lease=at) for kind, at
                    in parse_spec(spec, NET_FAULT_KINDS, seed,
                                  "fabric-chaos", horizon,
                                  what="fabric chaos",
                                  at_means="a lease number")])

    @property
    def pending(self):
        """Events that have not fired yet."""
        return [event for event in self.events if event.fired_at is None]

    def render(self):
        """One line per event: trigger point and firing point."""
        return "\n".join(event.render() for event in self.events)

    def fire(self, kind, lease_number):
        """Consume one due, unfired ``kind`` event; True if one fired.

        The worker asks once per granted lease, in fault-kind priority
        order; at most one event of each kind fires per lease.
        """
        for event in self.events:
            if event.kind == kind and event.fired_at is None \
                    and event.at_lease <= lease_number:
                event.fired_at = lease_number
                return True
        return False
