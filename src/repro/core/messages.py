"""Request / assert messages exchanged by the MSJ operator (Algorithm 1).

The repartition-join encoding of a semi-join (Section 4.1) has guard facts
send *request* messages ("does a conditional fact with this join key exist?
if so, output this tuple") and conditional facts send *assert* messages
("a conditional fact with this join key exists").  The MSJ operator of
Section 4.2 multiplexes the messages of many semi-joins into one job, tagging
each message with the semi-join / conditional atom it belongs to.

Message objects know their serialised size (``size_bytes``) so the simulator
can charge communication faithfully, including the two Gumbo optimisations of
Section 5.1:

* *tuple references* (optimisation 2): a request carries an 8-byte tuple id
  instead of the output tuple itself;
* *message packing* (optimisation 1): all messages sharing a key are packed
  into one list value, so the key is shipped once and duplicate asserts are
  collapsed — see :class:`PackedMessages` and :func:`pack_messages`.

The MSJ, 1-ROUND and SEQ-chain jobs all speak this protocol.  Each describes
the messages its input relations emit with one :class:`MessageLayout`, which
the interpreted map, the batch kernels (:mod:`repro.core.exchange`) and the
planner's cost estimates (:mod:`repro.core.costing`) read alike; see
``docs/operators.md`` § Message layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..model.atoms import Atom
from ..model.terms import Variable

#: Serialised size of a message tag (semi-join index / conditional-atom id).
TAG_BYTES = 4

#: Serialised size of a tuple-id reference (optimisation 2).
TUPLE_REFERENCE_BYTES = 8

#: Serialised size of one field of a shipped tuple.
FIELD_BYTES = 10

#: Serialised size of a message that carries tags only: an assert, or an
#: EVAL guard / membership marker.
MARKER_BYTES = TAG_BYTES


def payload_bytes(fields: int, by_reference: bool) -> int:
    """Serialised size of a shipped tuple of *fields* fields.

    An 8-byte tuple id under optimisation (2) (*by_reference*), otherwise
    ``FIELD_BYTES`` per field (at least one).
    """
    return TUPLE_REFERENCE_BYTES if by_reference else max(1, fields) * FIELD_BYTES


class RequestSide(NamedTuple):
    """Facts of *relation* conforming to *atom* send ``Req(index)`` messages.

    The key is ``prefix`` followed by the fact's *join_key* values; the
    payload is its *payload* variables, or the full row when ``None``.
    ``size`` is the serialised request (tag plus payload).
    """

    relation: str
    atom: Atom
    join_key: Tuple[Variable, ...]
    prefix: Tuple[object, ...]
    index: int
    payload: Optional[Tuple[Variable, ...]]
    size: int

    @classmethod
    def build(
        cls,
        relation: str,
        atom: Atom,
        join_key: Tuple[Variable, ...],
        prefix: Tuple[object, ...],
        index: int,
        payload: Optional[Tuple[Variable, ...]],
        by_reference: bool,
    ) -> "RequestSide":
        """The side, its ``size`` derived from the payload's field count."""
        fields = atom.arity if payload is None else len(payload)
        size = TAG_BYTES + payload_bytes(fields, by_reference)
        return cls(relation, atom, join_key, prefix, index, payload, size)


class AssertSide(NamedTuple):
    """Facts of *relation* conforming to *atom* send ``Assert(tag)`` messages,
    keyed by ``prefix`` followed by their *join_key* values."""

    relation: str
    atom: Atom
    join_key: Tuple[Variable, ...]
    prefix: Tuple[object, ...]
    tag: int
    size: int = TAG_BYTES


class MessageLayout(NamedTuple):
    """Every message one request/assert job emits, side by side.

    A fact emits its requests in ``requests`` order, then its asserts in
    ``asserts`` order; the order matters, since the shuffle keeps the first
    representative of equal keys.
    """

    requests: Tuple[RequestSide, ...]
    asserts: Tuple[AssertSide, ...]
    by_reference: bool


@dataclass(frozen=True)
class RequestMessage:
    """``[Req (κ_i, i); Out ā]`` — sent by a guard fact for semi-join *index*.

    ``payload`` is the tuple to output should the semi-join succeed (the
    projected guard tuple, or the full guard row when the MSJ job runs in
    pipeline mode).  When *by_reference* is true the payload is accounted as
    an 8-byte tuple id (Gumbo optimisation 2); the actual values are still
    carried so the simulation remains executable.
    """

    index: int
    payload: Tuple[object, ...]
    by_reference: bool = False

    def size_bytes(self) -> int:
        return TAG_BYTES + payload_bytes(len(self.payload), self.by_reference)

    def __str__(self) -> str:
        return f"Req({self.index}; Out {self.payload!r})"


@dataclass(frozen=True)
class AssertMessage:
    """``[Assert κ]`` — sent by a conditional fact for conditional tag *tag*."""

    tag: int

    def size_bytes(self) -> int:
        return TAG_BYTES

    def __str__(self) -> str:
        return f"Assert({self.tag})"


@dataclass(frozen=True)
class GuardMessage:
    """EVAL-job marker: "this key is a guard tuple of target *target*"."""

    target: int

    def size_bytes(self) -> int:
        return TAG_BYTES

    def __str__(self) -> str:
        return f"Guard({self.target})"


@dataclass(frozen=True)
class MembershipMessage:
    """EVAL-job marker: "this key belongs to intermediate relation *index*"."""

    target: int
    index: int

    def size_bytes(self) -> int:
        return TAG_BYTES

    def __str__(self) -> str:
        return f"Member({self.target}, {self.index})"


class PackedMessages:
    """A list of messages shipped under a single key (message packing).

    Duplicate assert messages are collapsed; requests are preserved.  The
    packed value's size is the sum of its members' sizes — the per-message key
    repetition that unpacked shipping would incur is avoided because the
    simulator charges the key once per *value* and packing produces exactly
    one value per key.
    """

    __slots__ = ("messages",)

    def __init__(self, messages: Sequence[object]) -> None:
        asserts_seen = set()
        packed: List[object] = []
        for message in messages:
            if isinstance(message, AssertMessage):
                if message.tag in asserts_seen:
                    continue
                asserts_seen.add(message.tag)
            packed.append(message)
        self.messages = tuple(packed)

    def size_bytes(self) -> int:
        return sum(m.size_bytes() for m in self.messages)

    def __iter__(self):
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        return f"PackedMessages({list(self.messages)!r})"


def pack_messages(values: Sequence[object]) -> List[object]:
    """Combine a key's message list into a single packed value."""
    return [PackedMessages(values)]


def unpack_messages(values: Sequence[object]):
    """Yield the individual messages of a (possibly packed) value list."""
    for value in values:
        if isinstance(value, PackedMessages):
            yield from value
        else:
            yield value
