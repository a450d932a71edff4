//! The ThymesisFlow-style network packet format.
//!
//! The disaggregated-memory NIC "transforms the cache miss into a network
//! packet by encapsulating with a packet header for network transmission
//! (such as the destination network address, checksum, etc.)" (§II-A).
//! This module defines that encapsulation: a fixed 32-byte header with an
//! FNV-1a integrity checksum, optionally followed by one cache line of
//! payload, with exact wire-size accounting used by the link and beat
//! models.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Packet header size on the wire.
pub const HEADER_BYTES: u64 = 32;
/// AXI data-path width: one beat moves up to this many payload bytes.
pub const BEAT_BYTES: u64 = 64;

const MAGIC: u16 = 0x7F17;
const VERSION: u8 = 1;

/// Message types exchanged by borrower and lender NICs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketKind {
    /// Cache-line read request (borrower → lender).
    ReadReq = 1,
    /// Read response carrying the line (lender → borrower).
    ReadResp = 2,
    /// Posted cache-line write-back (borrower → lender).
    WriteReq = 3,
    /// Write acknowledgement (lender → borrower).
    WriteAck = 4,
    /// Control-plane configuration read (attach/discovery).
    ConfigRead = 5,
    /// Control-plane configuration response.
    ConfigResp = 6,
}

impl PacketKind {
    fn from_u8(v: u8) -> Option<PacketKind> {
        Some(match v {
            1 => PacketKind::ReadReq,
            2 => PacketKind::ReadResp,
            3 => PacketKind::WriteReq,
            4 => PacketKind::WriteAck,
            5 => PacketKind::ConfigRead,
            6 => PacketKind::ConfigResp,
            _ => return None,
        })
    }
}

/// A fabric packet (header + optional payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    pub kind: PacketKind,
    /// Source node id.
    pub src: u16,
    /// Destination node id.
    pub dst: u16,
    /// Transaction tag matching responses to requests.
    pub tag: u32,
    /// Lender-side byte offset of the target line.
    pub addr: u64,
    /// Payload (empty or one cache line).
    pub payload: Bytes,
}

/// Why a packet failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    TooShort,
    BadMagic,
    BadVersion,
    UnknownKind(u8),
    ChecksumMismatch { expected: u32, actual: u32 },
    LengthMismatch { declared: usize, actual: usize },
}

/// FNV-1a over the wire bytes with the checksum field zeroed.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

impl Packet {
    pub fn read_req(src: u16, dst: u16, tag: u32, addr: u64) -> Packet {
        Packet {
            kind: PacketKind::ReadReq,
            src,
            dst,
            tag,
            addr,
            payload: Bytes::new(),
        }
    }

    pub fn read_resp(req: &Packet, payload: Bytes) -> Packet {
        Packet {
            kind: PacketKind::ReadResp,
            src: req.dst,
            dst: req.src,
            tag: req.tag,
            addr: req.addr,
            payload,
        }
    }

    pub fn write_req(src: u16, dst: u16, tag: u32, addr: u64, payload: Bytes) -> Packet {
        Packet {
            kind: PacketKind::WriteReq,
            src,
            dst,
            tag,
            addr,
            payload,
        }
    }

    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        HEADER_BYTES + self.payload.len() as u64
    }

    /// AXI beats the packet occupies on the NIC's internal stream:
    /// one header beat plus the payload beats.
    pub fn beats(&self) -> u64 {
        1 + (self.payload.len() as u64).div_ceil(BEAT_BYTES)
    }

    /// Serialize to wire format.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity((HEADER_BYTES as usize) + self.payload.len());
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(self.kind as u8);
        b.put_u16(self.src);
        b.put_u16(self.dst);
        b.put_u32(self.tag);
        b.put_u64(self.addr);
        b.put_u16(self.payload.len() as u16);
        b.put_u16(0); // reserved
        b.put_u32(0); // checksum placeholder
        b.put_u32(0); // pad to a 32-byte header
        b.put_slice(&self.payload);
        let sum = fnv1a(&b);
        // Patch the checksum (offset 24..28).
        b[24..28].copy_from_slice(&sum.to_be_bytes());
        b.freeze()
    }

    /// Parse and verify a wire packet.
    pub fn decode(mut wire: Bytes) -> Result<Packet, DecodeError> {
        if wire.len() < HEADER_BYTES as usize {
            return Err(DecodeError::TooShort);
        }
        // Verify checksum over the whole frame with the field zeroed.
        let mut copy = BytesMut::from(&wire[..]);
        let expected = u32::from_be_bytes([copy[24], copy[25], copy[26], copy[27]]);
        copy[24..28].fill(0);
        let actual = fnv1a(&copy);
        if expected != actual {
            return Err(DecodeError::ChecksumMismatch { expected, actual });
        }

        if wire.get_u16() != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if wire.get_u8() != VERSION {
            return Err(DecodeError::BadVersion);
        }
        let kind_raw = wire.get_u8();
        let kind = PacketKind::from_u8(kind_raw).ok_or(DecodeError::UnknownKind(kind_raw))?;
        let src = wire.get_u16();
        let dst = wire.get_u16();
        let tag = wire.get_u32();
        let addr = wire.get_u64();
        let len = wire.get_u16() as usize;
        let _reserved = wire.get_u16();
        let _checksum = wire.get_u32();
        let _pad = wire.get_u32();
        if wire.len() != len {
            return Err(DecodeError::LengthMismatch {
                declared: len,
                actual: wire.len(),
            });
        }
        Ok(Packet {
            kind,
            src,
            dst,
            tag,
            addr,
            payload: wire,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_req_round_trips() {
        let p = Packet::read_req(1, 2, 42, 0xDEAD_C0DE);
        let wire = p.encode();
        assert_eq!(wire.len() as u64, HEADER_BYTES);
        let q = Packet::decode(wire).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn data_packet_round_trips() {
        let payload = Bytes::from(vec![0xABu8; 128]);
        let p = Packet::write_req(3, 4, 7, 4096, payload);
        let q = Packet::decode(p.encode()).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.payload.len(), 128);
    }

    #[test]
    fn wire_sizes_and_beats() {
        let req = Packet::read_req(0, 1, 0, 0);
        assert_eq!(req.wire_bytes(), 32);
        assert_eq!(req.beats(), 1, "read request is a single header beat");
        let wr = Packet::write_req(0, 1, 0, 0, Bytes::from(vec![0u8; 128]));
        assert_eq!(wr.wire_bytes(), 160);
        assert_eq!(wr.beats(), 3, "header + two 64B data beats");
        let resp = Packet::read_resp(&req, Bytes::from(vec![0u8; 128]));
        assert_eq!(resp.beats(), 3);
        assert_eq!(resp.src, req.dst);
        assert_eq!(resp.dst, req.src);
        assert_eq!(resp.tag, req.tag);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let p = Packet::read_req(1, 2, 42, 0x1000);
        let wire = p.encode();
        for i in 0..wire.len() {
            let mut bad = wire.to_vec();
            bad[i] ^= 0x01;
            let r = Packet::decode(Bytes::from(bad));
            assert!(
                r.is_err(),
                "single-bit corruption at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn truncated_packet_rejected() {
        let p = Packet::read_req(1, 2, 3, 4);
        let wire = p.encode();
        let r = Packet::decode(wire.slice(0..16));
        assert_eq!(r, Err(DecodeError::TooShort));
    }

    #[test]
    fn length_mismatch_rejected() {
        // Declare 128 payload bytes but append 64: checksum is computed
        // over our forged frame so it passes; length check must catch it.
        let p = Packet::write_req(0, 1, 9, 0, Bytes::from(vec![1u8; 128]));
        let wire = p.encode();
        let mut forged = wire.to_vec();
        forged.truncate(HEADER_BYTES as usize + 64);
        // Re-patch the checksum so only the length is wrong.
        forged[24..28].fill(0);
        let sum = super::fnv1a(&forged);
        forged[24..28].copy_from_slice(&sum.to_be_bytes());
        match Packet::decode(Bytes::from(forged)) {
            Err(DecodeError::LengthMismatch { declared, actual }) => {
                assert_eq!(declared, 128);
                assert_eq!(actual, 64);
            }
            other => panic!("expected length mismatch, got {other:?}"),
        }
    }

    proptest! {
        #[test]
        fn prop_encode_decode_round_trip(
            kind in 1u8..=6,
            src in any::<u16>(),
            dst in any::<u16>(),
            tag in any::<u32>(),
            addr in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let p = Packet {
                kind: PacketKind::from_u8(kind).unwrap(),
                src, dst, tag, addr,
                payload: Bytes::from(payload),
            };
            let q = Packet::decode(p.encode()).unwrap();
            prop_assert_eq!(p, q);
        }

        #[test]
        fn prop_beat_count_matches_payload(len in 0usize..1024) {
            let p = Packet::write_req(0, 1, 0, 0, Bytes::from(vec![0u8; len]));
            let beats = p.beats();
            prop_assert_eq!(beats, 1 + (len as u64).div_ceil(BEAT_BYTES));
            prop_assert!(beats * BEAT_BYTES + BEAT_BYTES >= p.wire_bytes());
        }
    }
}
