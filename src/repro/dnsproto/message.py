"""DNS message framing: header, question, and record sections.

Implements RFC 1035 message encode/decode with name compression plus
EDNS0 via the OPT pseudo-record.  The in-memory transport encodes
every query and response once, for exact byte accounting and UDP
truncation, but hands the message objects over without decoding; the
endpoints' wire entry points and the codec suites exercise decoding
(compression, ECS validation, rejection of malformed input).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.dnsproto.edns import ClientSubnetOption, EdnsOptions, OptRecord
from repro.dnsproto.name import decode_name, encode_name, normalize_name
from repro.dnsproto.rdata import Rdata, decode_rdata
from repro.dnsproto.types import Opcode, QClass, QType, Rcode
from repro.dnsproto.wire import WireFormatError, WireReader, WireWriter


@dataclass(frozen=True, slots=True)
class Flags:
    """Header flag bits (RFC 1035 4.1.1)."""

    qr: bool = False
    opcode: int = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    rcode: int = Rcode.NOERROR

    def encode(self) -> int:
        value = 0
        if self.qr:
            value |= 0x8000
        value |= (self.opcode & 0xF) << 11
        if self.aa:
            value |= 0x0400
        if self.tc:
            value |= 0x0200
        if self.rd:
            value |= 0x0100
        if self.ra:
            value |= 0x0080
        value |= self.rcode & 0xF
        return value

    @classmethod
    def decode(cls, value: int) -> "Flags":
        return cls(
            qr=bool(value & 0x8000),
            opcode=(value >> 11) & 0xF,
            aa=bool(value & 0x0400),
            tc=bool(value & 0x0200),
            rd=bool(value & 0x0100),
            ra=bool(value & 0x0080),
            rcode=value & 0xF,
        )


@dataclass(frozen=True, slots=True)
class Question:
    """One entry of the question section."""

    name: str
    qtype: int = QType.A
    qclass: int = QClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        encode_name(writer, self.name, compress)
        writer.u16(self.qtype)
        writer.u16(self.qclass)

    @classmethod
    def decode(cls, reader: WireReader) -> "Question":
        name = decode_name(reader)
        return cls(name, reader.u16(), reader.u16())


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One resource record with typed RDATA."""

    name: str
    rtype: int
    ttl: int
    rdata: Rdata
    rclass: int = QClass.IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.ttl < 0 or self.ttl > 0x7FFFFFFF:
            raise WireFormatError(f"TTL out of range: {self.ttl}")

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        """Copy with a different TTL (cache aging)."""
        return replace(self, ttl=ttl)

    def encode(self, writer: WireWriter,
               compress: Optional[Dict[str, int]]) -> None:
        encode_name(writer, self.name, compress)
        writer.u16(self.rtype)
        writer.u16(self.rclass)
        writer.u32(self.ttl)
        rdlength_at = writer.offset
        writer.u16(0)  # placeholder, patched below
        rdata_start = writer.offset
        self.rdata.encode(writer, compress)
        writer.patch_u16(rdlength_at, writer.offset - rdata_start)

    @classmethod
    def decode(cls, reader: WireReader) -> "ResourceRecord":
        name = decode_name(reader)
        rtype = reader.u16()
        rclass = reader.u16()
        ttl = reader.u32()
        rdlength = reader.u16()
        rdata = decode_rdata(reader, rtype, rdlength)
        return cls(name, rtype, ttl, rdata, rclass)


@dataclass
class Message:
    """A complete DNS message.

    The OPT pseudo-record lives in ``opt``, not ``additionals``; the
    codec moves it in and out of the additional section on the wire.
    """

    msg_id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)
    opt: Optional[OptRecord] = None

    # -- EDNS / ECS convenience -------------------------------------------

    @property
    def client_subnet(self) -> Optional[ClientSubnetOption]:
        if self.opt is None:
            return None
        return self.opt.options.client_subnet

    def with_client_subnet(self, ecs: ClientSubnetOption) -> "Message":
        """Attach (or replace) the ECS option, adding EDNS if needed."""
        base = self.opt.options if self.opt else EdnsOptions()
        self.opt = OptRecord(replace(base, client_subnet=ecs))
        return self

    @property
    def question(self) -> Question:
        if not self.questions:
            raise WireFormatError("message has no question")
        return self.questions[0]

    # -- codec --------------------------------------------------------------

    def encode(self) -> bytes:
        writer = WireWriter()
        compress: Dict[str, int] = {}
        writer.u16(self.msg_id)
        writer.u16(self.flags.encode())
        writer.u16(len(self.questions))
        writer.u16(len(self.answers))
        writer.u16(len(self.authorities))
        n_additional = len(self.additionals) + (1 if self.opt else 0)
        writer.u16(n_additional)
        for question in self.questions:
            question.encode(writer, compress)
        for record in self.answers:
            record.encode(writer, compress)
        for record in self.authorities:
            record.encode(writer, compress)
        for record in self.additionals:
            record.encode(writer, compress)
        if self.opt is not None:
            self.opt.encode(writer)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        reader = WireReader(data)
        msg_id = reader.u16()
        flags = Flags.decode(reader.u16())
        qdcount = reader.u16()
        ancount = reader.u16()
        nscount = reader.u16()
        arcount = reader.u16()
        questions = [Question.decode(reader) for _ in range(qdcount)]
        answers = [ResourceRecord.decode(reader) for _ in range(ancount)]
        authorities = [ResourceRecord.decode(reader) for _ in range(nscount)]
        additionals: List[ResourceRecord] = []
        opt: Optional[OptRecord] = None
        for _ in range(arcount):
            mark = reader.pos
            name = decode_name(reader)
            rtype = reader.u16()
            if rtype == QType.OPT:
                if name:
                    raise WireFormatError("OPT owner name must be root")
                if opt is not None:
                    raise WireFormatError("duplicate OPT record")
                rclass = reader.u16()
                ttl = reader.u32()
                rdlength = reader.u16()
                opt = OptRecord.decode_body(reader, rclass, ttl, rdlength)
            else:
                reader.seek(mark)
                additionals.append(ResourceRecord.decode(reader))
        if reader.remaining:
            raise WireFormatError(
                f"{reader.remaining} trailing bytes after message")
        return cls(msg_id, flags, questions, answers, authorities,
                   additionals, opt)

    def __str__(self) -> str:
        kind = "response" if self.flags.qr else "query"
        parts = [f"{kind} id={self.msg_id} rcode={self.flags.rcode}"]
        for question in self.questions:
            parts.append(f"  ? {question.name} type={question.qtype}")
        for record in self.answers:
            parts.append(f"  = {record.name} {record.ttl}s {record.rdata}")
        ecs = self.client_subnet
        if ecs is not None:
            parts.append(f"  + {ecs}")
        return "\n".join(parts)


def make_query(
    name: str,
    qtype: int = QType.A,
    msg_id: int = 0,
    ecs: Optional[ClientSubnetOption] = None,
    recursion_desired: bool = True,
) -> Message:
    """Build a query message, optionally carrying an ECS option."""
    message = Message(
        msg_id=msg_id,
        flags=Flags(qr=False, rd=recursion_desired),
        questions=[Question(name, qtype)],
    )
    if ecs is not None:
        message.with_client_subnet(ecs)
    else:
        message.opt = OptRecord()
    return message


def make_response(
    query: Message,
    answers: Sequence[ResourceRecord] = (),
    rcode: int = Rcode.NOERROR,
    authoritative: bool = True,
    scope_prefix_len: Optional[int] = None,
    authorities: Sequence[ResourceRecord] = (),
    additionals: Sequence[ResourceRecord] = (),
) -> Message:
    """Build a response echoing the query's id, question, and ECS.

    ``scope_prefix_len`` sets the RFC 7871 SCOPE PREFIX-LENGTH when the
    query carried an ECS option; None echoes scope 0 (answer valid for
    all clients), which is what a non-ECS-aware authority would do.
    """
    response = Message(
        msg_id=query.msg_id,
        flags=Flags(qr=True, aa=authoritative, rd=query.flags.rd, ra=False,
                    rcode=rcode),
        questions=list(query.questions),
        answers=list(answers),
        authorities=list(authorities),
        additionals=list(additionals),
    )
    query_ecs = query.client_subnet
    if query_ecs is not None:
        response.with_client_subnet(
            query_ecs.for_response(
                scope_prefix_len if scope_prefix_len is not None else 0))
    else:
        response.opt = OptRecord()
    return response
