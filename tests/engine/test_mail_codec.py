"""Round trips of the flat mail codec the multiprocess backend uses
to move cross-worker messages: packets and their transport segments
travel as flat tuples, descriptors as pipe ids."""

import pickle

from repro.core.packet import PacketDescriptor
from repro.engine.parallel import (
    flatten_message,
    flatten_packet,
    restore_message,
    restore_packet,
)
from repro.engine.sync import MSG_HOST, MSG_TUNNEL, DomainMessage
from repro.net.packet import PROTO_TCP, PROTO_UDP, Packet
from repro.net.sockets import UdpDatagram
from repro.net.tcp import TcpSegment


def _over_the_wire(value):
    return pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))


def _tcp_packet():
    segment = TcpSegment(
        sport=4000, dport=80, seq=1_000, ack_seq=77, flags=0x10, wnd=65_535,
        payload_len=1_460,
        messages=[(2_460, {"rpc": "get", "key": 7})],
        sack_blocks=[(3_000, 4_460), (6_000, 7_460)],
    )
    return Packet(3, 9, 1_500, PROTO_TCP, segment=segment, created_at=0.125)


def test_tcp_packet_round_trip_keeps_every_field_and_the_id():
    packet = _tcp_packet()
    copy = restore_packet(_over_the_wire(flatten_packet(packet)))
    assert type(copy) is Packet and copy is not packet
    assert (copy.id, copy.src, copy.dst, copy.size_bytes, copy.proto,
            copy.created_at) == (packet.id, 3, 9, 1_500, PROTO_TCP, 0.125)
    segment = copy.segment
    assert type(segment) is TcpSegment
    assert (segment.sport, segment.dport, segment.seq, segment.ack_seq,
            segment.flags, segment.wnd, segment.payload_len) == (
        4000, 80, 1_000, 77, 0x10, 65_535, 1_460,
    )
    assert segment.messages == [(2_460, {"rpc": "get", "key": 7})]
    assert segment.sack_blocks == [(3_000, 4_460), (6_000, 7_460)]


def test_restoring_does_not_consume_packet_ids():
    packet = _tcp_packet()
    restore_packet(flatten_packet(packet))
    assert Packet(0, 1, 40, PROTO_UDP).id == packet.id + 1


def test_udp_packet_round_trip_keeps_the_app_payload():
    payload = ("lookup", 42, [1, 2, 3])
    packet = Packet(
        1, 2, 92, PROTO_UDP, segment=UdpDatagram(5353, 53, payload, 52)
    )
    copy = restore_packet(_over_the_wire(flatten_packet(packet)))
    assert copy.id == packet.id
    assert type(copy.segment) is UdpDatagram
    assert (copy.segment.sport, copy.segment.dport, copy.segment.payload,
            copy.segment.payload_len) == (5353, 53, payload, 52)


def test_other_segments_travel_as_objects():
    packet = Packet(1, 2, 40, "raw", segment=("opaque", 1))
    assert restore_packet(flatten_packet(packet)).segment == ("opaque", 1)
    bare = Packet(1, 2, 40, "raw")
    assert restore_packet(flatten_packet(bare)).segment is None


class _Pipe:
    def __init__(self, pipe_id):
        self.id = pipe_id


def test_descriptor_message_round_trip_rehydrates_pipes_by_id():
    pipes = {pipe_id: _Pipe(pipe_id) for pipe_id in (4, 8, 15)}
    descriptor = PacketDescriptor.acquire(
        _tcp_packet(), (pipes[4], pipes[8], pipes[15]), 2, 0.5
    )
    descriptor.hop_index = 1
    descriptor.ideal_time = 0.625
    descriptor.tunnel_hops = 3
    message = DomainMessage(0.75, 1, 12, 3, MSG_TUNNEL, 6, descriptor)
    flat = _over_the_wire(flatten_message(message))
    assert flat[:6] == (0.75, 1, 12, 3, MSG_TUNNEL, 6)
    copy = restore_message(flat, pipes)
    assert copy[:6] == message[:6]
    restored = copy.payload
    assert restored is not descriptor
    assert restored.pipes == (pipes[4], pipes[8], pipes[15])
    assert (restored.hop_index, restored.entry_core, restored.entered_at,
            restored.ideal_time, restored.tunnel_hops) == (1, 2, 0.5, 0.625, 3)
    assert restored.packet.id == descriptor.packet.id
    assert restored.packet.segment.sack_blocks == [(3_000, 4_460), (6_000, 7_460)]


def test_host_message_round_trip_and_receiver_order():
    packet = _tcp_packet()
    late = DomainMessage(0.5, 0, 1, 2, MSG_HOST, 4, packet)
    early = DomainMessage(0.5, 0, 0, 2, MSG_HOST, 4, packet)
    batch = _over_the_wire([flatten_message(late), flatten_message(early)])
    restored = [restore_message(flat, {}) for flat in batch]
    # Receivers sort plain tuples: (time, src_domain, seq) decides.
    restored.sort()
    assert [m.seq for m in restored] == [0, 1]
    assert all(m.payload.id == packet.id for m in restored)
