"""Wire format of the campaign service (line-delimited JSON).

The scheduler daemon (:mod:`repro.anafault.service`), its workers and its
clients (:mod:`repro.anafault.remote`) speak one tiny protocol: a client
opens a TCP connection to the daemon, writes **one** JSON object terminated
by a newline, reads **one** JSON object terminated by a newline, and closes
the connection.  There is no pipelining and no framing beyond the newline,
so every side of the protocol can be driven with ``nc`` for debugging and
the daemon's request handler is a three-line loop.

This module owns the two serialisation problems the protocol has:

* **campaign identity** — a submitted campaign travels as ``(netlist text,
  LIFT fault-list text, settings dict)``.  The fault-list text is the
  byte-faithful ``FaultList.dumps()`` serialisation, so per-fault defect
  weights (the ``* meta weight.<id>`` lines of generated fault lists) and
  the ``faultgen_*`` provenance metadata cross the wire untouched —
  remote workers compute the same weighted coverage and the same
  fingerprint as a local run.  :func:`settings_to_wire` /
  :func:`settings_from_wire` round-trip a
  :class:`~repro.anafault.simulator.CampaignSettings` (including its nested
  tolerance/fault-model/simulator/timestep dataclasses) through plain JSON
  types **exactly**, so the daemon, every worker and the submitting client
  all derive the same campaign fingerprint from the same wire payload.
  :class:`~repro.anafault.remote.RemoteExecutor` asserts that fingerprint
  equality on submit — wire drift fails loudly instead of mixing results.
* **records** — a finished fault simulation travels as the same per-fault
  payload dict the JSONL checkpoint format persists
  (:data:`repro.anafault.checkpoint.RECORD_FIELDS`), so daemon queue files
  double as campaign checkpoints and ``merge --verify`` applies unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import socket

from ..errors import CampaignError
from ..spice import SimulationOptions, TransientOptions
from .checkpoint import RECORD_FIELDS
from .comparator import ToleranceSettings
from .models import FaultModelOptions
from .simulator import CampaignSettings

#: Nested dataclass fields of :class:`CampaignSettings` and the constructor
#: that rebuilds each one from its JSON-dict wire form.
_NESTED_SETTINGS = {
    "tolerances": ToleranceSettings,
    "fault_model": FaultModelOptions,
    "simulator_options": SimulationOptions,
    "timestep": TransientOptions,
}

#: Settings fields that earlier versions wrote to the wire and that no
#: longer exist.  They only chose between engine paths with identical
#: verdicts and never entered the campaign fingerprint, so payloads (and
#: spooled job descriptors) that still carry them load with them ignored.
RETIRED_SETTINGS = frozenset({"stream_traces", "use_shared_memory",
                              "tail_downsample"})


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------

def settings_to_wire(settings: CampaignSettings) -> dict:
    """``settings`` as a JSON-serialisable dict (field for field).

    Nested dataclasses become dicts, tuples become lists; everything else
    in a :class:`~repro.anafault.simulator.CampaignSettings` is already a
    JSON scalar.  The round trip through :func:`settings_from_wire` is
    exact — Python float ``repr`` survives JSON — so the campaign
    fingerprint computed from the reconstructed settings matches the
    submitter's.
    """
    wire = {}
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            value = dataclasses.asdict(value)
        elif isinstance(value, tuple):
            value = list(value)
        wire[field.name] = value
    return wire


def settings_from_wire(wire: dict) -> CampaignSettings:
    """Rebuild a :class:`~repro.anafault.simulator.CampaignSettings` from
    its :func:`settings_to_wire` dict.

    Unknown keys are rejected (they would silently change what is
    simulated on one side of the wire only); missing keys fall back to the
    library defaults and :data:`RETIRED_SETTINGS` are ignored, so an older
    client can talk to a newer daemon and a newer daemon reloads an older
    spool.
    """
    wire = {name: value for name, value in wire.items()
            if name not in RETIRED_SETTINGS}
    known = {field.name for field in dataclasses.fields(CampaignSettings)}
    unknown = set(wire) - known
    if unknown:
        raise CampaignError(
            f"settings wire payload carries unknown field(s) "
            f"{sorted(unknown)}; both ends of the service protocol must "
            "run the same repro version")
    kwargs = {}
    for name, value in wire.items():
        rebuild = _NESTED_SETTINGS.get(name)
        if rebuild is not None and isinstance(value, dict):
            value = rebuild(**value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return CampaignSettings(**kwargs)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def record_to_wire(record) -> dict:
    """Per-fault payload dict of one finished
    :class:`~repro.anafault.simulator.FaultSimulationRecord` — exactly the
    fields the JSONL checkpoint format persists per record."""
    return {name: getattr(record, name, None) for name in RECORD_FIELDS}


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (the CLI's ``--addr`` format)."""
    host, separator, port = str(text).rpartition(":")
    if not separator or not port.isdigit():
        raise CampaignError(
            f"bad service address {text!r}; expected host:port "
            "(e.g. 127.0.0.1:7901)")
    return (host or "127.0.0.1", int(port))


def request(address: tuple[str, int], payload: dict,
            timeout: float = 30.0) -> dict:
    """One protocol round trip: connect, send ``payload`` as one JSON
    line, read one JSON line back, disconnect.

    Raises :class:`~repro.errors.CampaignError` when the daemon is
    unreachable, closes the connection without answering, or answers with
    an ``{"error": ...}`` object (the daemon's failure convention).
    """
    try:
        with socket.create_connection(address, timeout=timeout) as conn:
            stream = conn.makefile("rwb")
            stream.write(json.dumps(payload).encode("utf-8") + b"\n")
            stream.flush()
            line = stream.readline()
    except OSError as exc:
        raise CampaignError(
            f"campaign service at {address[0]}:{address[1]} is unreachable: "
            f"{exc}") from exc
    if not line:
        raise CampaignError(
            f"campaign service at {address[0]}:{address[1]} closed the "
            "connection without answering")
    try:
        response = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"campaign service sent a non-JSON response: {line[:120]!r}"
        ) from exc
    if isinstance(response, dict) and "error" in response:
        raise CampaignError(f"campaign service refused "
                            f"{payload.get('op', '?')!r}: {response['error']}")
    if not isinstance(response, dict):
        raise CampaignError(
            f"campaign service sent a non-object response: {response!r}")
    return response
