"""Seeded schedules of harness faults.

A :class:`ChaosSchedule` is a list of :class:`ChaosEvent` values, each
an ``(kind, at_done)`` pair: when the campaign's *completed-trial
count* -- which is monotonic across crashes and resumes, unlike wall
time or scheduling order -- reaches ``at_done``, the event fires.  The
engine calls :meth:`ChaosSchedule.on_trial` after every journaled
trial and :meth:`ChaosSchedule.journal_fault` before every journal
append; everything else (signals, ``os.kill``, cache corruption) the
schedule does itself.

Fault kinds (:data:`FAULT_KINDS`):

``kill``
    SIGKILL a busy pool worker (exercises requeue-and-respawn).
``stall``
    SIGSTOP a busy pool worker (exercises the ``trial_timeout``
    watchdog, including the SIGKILL escalation a stopped process
    needs).
``tear``
    Write *half* of the next journal line via a separate handle, then
    raise :class:`ChaosCrash` -- exactly the on-disk state a power cut
    mid-append leaves (exercises tail repair on resume).
``io``
    Raise transient ``EIO`` from the next journal appends (exercises
    bounded retry-with-backoff).
``cache``
    Flip one bit in the middle of a golden-cache entry on disk
    (exercises checksum detection, quarantine, regeneration).
``sigterm`` / ``sigint``
    Deliver the signal to the engine's own process (exercises the
    graceful drain and resumable exit).

Spec strings (the CLI's ``--chaos``) are comma-separated
``kind[:count][@at]`` tokens: ``kill:2,tear@5,io`` fires two seeded
worker kills, a torn tail right after trial 5, and one seeded burst of
transient I/O errors.  Unanchored events get their trigger points from
the campaign seed via the named-split scheme (``seed -> "chaos" ->
spec -> token``), so a chaos run replays from its seed alone.

An event whose precondition is not met yet -- no live worker to kill,
no cache entry to corrupt -- stays armed and retries on the next
trial; :attr:`ChaosSchedule.pending` reports what never fired.
"""

import errno
import os
import signal
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.utils.rng import SplitRng

__all__ = ["FAULT_KINDS", "ChaosCrash", "ChaosEvent", "ChaosSchedule",
           "parse_spec"]

FAULT_KINDS = ("kill", "stall", "tear", "io", "cache", "sigterm", "sigint")

# Transient appends poisoned per "io" event: strictly below the
# journal writer's retry budget, so retry always recovers and the
# fault is *transient* by construction.
_IO_ERRORS_PER_EVENT = 2


def parse_spec(spec, kinds, seed, namespace, horizon, what="chaos",
               at_means="a trial count"):
    """The ``(kind, at)`` events of a ``kind[:count][@at]`` spec string.

    Tokens are comma-separated; each yields ``count`` (default 1)
    events of ``kind``, which must be one of ``kinds``.  Anchored events
    fire at ``at``; the rest draw it uniformly from ``1..horizon`` via
    the named splits ``seed -> namespace -> spec -> token``, so a seed
    and spec always yield the same events.  ``what`` and ``at_means``
    word the :class:`~repro.errors.ConfigError` messages.
    """
    rng = SplitRng(seed).split(namespace).split(spec)
    events = []
    for position, token in enumerate(spec.split(",")):
        token = token.strip()
        if not token:
            continue
        body, at = token, None
        if "@" in body:
            body, _, at_text = body.partition("@")
            try:
                at = int(at_text)
            except ValueError:
                raise ConfigError("%s token %r: %r is not %s"
                                  % (what, token, at_text, at_means))
        count = 1
        if ":" in body:
            body, _, count_text = body.partition(":")
            try:
                count = int(count_text)
            except ValueError:
                raise ConfigError("%s token %r: %r is not a count"
                                  % (what, token, count_text))
        kind = body.strip()
        if kind not in kinds:
            raise ConfigError("unknown %s fault %r (choose from %s)"
                              % (what, kind, ", ".join(kinds)))
        for index in range(count):
            if at is None:
                token_rng = rng.split("%d/%s/%d" % (position, kind, index))
                events.append((kind, 1 + token_rng.randrange(max(1, horizon))))
            else:
                events.append((kind, at))
    return events


class ChaosCrash(RuntimeError):
    """Simulated abrupt harness death (a torn journal append).

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in
    the harness may catch it, just as nothing catches a real SIGKILL.
    Only the chaos driver (:func:`repro.chaos.run_chaos_campaign`) --
    standing in for the operator restarting a crashed campaign --
    handles it.
    """


@dataclass
class ChaosEvent:
    """One scheduled harness fault."""

    kind: str
    at_done: int  # fires when the completed-trial count reaches this
    fired_at: Optional[int] = None  # done-count at which it fired
    detail: str = ""

    def render(self):
        if self.fired_at is None:
            return "%s@%d: never fired" % (self.kind, self.at_done)
        note = " (%s)" % self.detail if self.detail else ""
        return "%s@%d: fired at %d%s" % (self.kind, self.at_done,
                                         self.fired_at, note)


class ChaosSchedule:
    """A replayable schedule of harness faults for one campaign."""

    def __init__(self, events):
        self.events = sorted(events, key=lambda e: (e.at_done, e.kind))
        self._io_remaining = 0
        self._tear_event = None

    @classmethod
    def from_spec(cls, spec, config, total=None):
        """Parse a ``kind[:count][@at]`` comma-separated spec string.

        Unanchored events draw their trigger points from ``config``'s
        seed (uniform over the sweep of ``total`` trials, default
        ``config.total_trials``), so the same seed and spec always
        yield the same schedule.
        """
        if total is None:
            total = config.total_trials
        return cls([ChaosEvent(kind=kind, at_done=at) for kind, at
                    in parse_spec(spec, FAULT_KINDS, config.seed, "chaos",
                                  total)])

    @property
    def pending(self):
        """Events that have not fired yet."""
        return [event for event in self.events if event.fired_at is None]

    def render(self):
        """One line per event: trigger point, firing point, detail."""
        return "\n".join(event.render() for event in self.events)

    # -- engine hooks ---------------------------------------------------

    def on_trial(self, done, runner):
        """Fire every due, unfired event (engine hook, post-journal).

        Events whose precondition is unmet (no live worker, no cache
        entry yet) stay armed and are retried on the next trial.  A
        ``tear`` fires as a :class:`ChaosCrash` from the *next* journal
        append, so it may propagate out of this call's caller.
        """
        for event in self.events:
            if event.fired_at is not None or event.at_done > done:
                continue
            if self._fire(event, runner):
                event.fired_at = done

    def journal_fault(self, writer, line):
        """The journal writer's pre-append hook (chaos side)."""
        if self._io_remaining > 0:
            self._io_remaining -= 1
            raise OSError(errno.EIO, "chaos: injected transient I/O error")
        event = self._tear_event
        if event is not None:
            self._tear_event = None
            encoded = line.encode("utf-8")
            torn = encoded[:max(1, len(encoded) // 2)]
            # A separate append handle leaves exactly the bytes a crash
            # mid-write would: half a line, no newline, fsynced.
            with open(writer.path, "ab") as handle:
                handle.write(torn)
                handle.flush()
                os.fsync(handle.fileno())
            event.detail = "tore journal tail (%d of %d bytes)" \
                % (len(torn), len(encoded))
            raise ChaosCrash(
                "chaos: simulated crash mid-append (torn journal tail)")

    # -- firing ---------------------------------------------------------

    def _fire(self, event, runner):
        """Attempt one event; returns False to keep it armed."""
        kind = event.kind
        if kind in ("kill", "stall"):
            return self._fire_worker_signal(event, runner)
        if kind == "tear":
            self._tear_event = event
            event.detail = "armed: next append tears mid-line"
            return True
        if kind == "io":
            self._io_remaining += _IO_ERRORS_PER_EVENT
            event.detail = "armed: next %d appends raise EIO" \
                % _IO_ERRORS_PER_EVENT
            return True
        if kind == "cache":
            return self._fire_cache_corruption(event, runner)
        if kind in ("sigterm", "sigint"):
            signum = signal.SIGTERM if kind == "sigterm" else signal.SIGINT
            event.detail = "%s delivered to the engine process" \
                % kind.upper()
            os.kill(os.getpid(), signum)
            return True
        return False

    def _fire_worker_signal(self, event, runner):
        pool = runner.pool
        if pool is None:
            return False  # inline run: no worker process to harm
        alive = [w for w in pool.workers if w.alive()]
        busy = [w for w in alive if w.busy]
        victims = busy or alive
        if not victims:
            return False
        victim = min(victims, key=lambda w: w.worker_id)
        signum = signal.SIGKILL if event.kind == "kill" else signal.SIGSTOP
        try:
            os.kill(victim.process.pid, signum)
        except OSError:
            return False  # raced with the worker's own exit; rearm
        event.detail = "worker %d sent %s" \
            % (victim.worker_id, signal.Signals(signum).name)
        return True

    def _fire_cache_corruption(self, event, runner):
        directory = runner._golden_dir()
        if directory is None or not os.path.isdir(directory):
            return False
        entries = sorted(name for name in os.listdir(directory)
                         if name.endswith(".pkl"))
        if not entries:
            return False
        path = os.path.join(directory, entries[0])
        try:
            with open(path, "rb") as handle:
                blob = bytearray(handle.read())
            if not blob:
                return False
            blob[len(blob) // 2] ^= 0x40
            with open(path, "wb") as handle:
                handle.write(blob)
        except OSError:
            return False
        event.detail = "flipped one bit of golden/%s" % entries[0]
        return True
