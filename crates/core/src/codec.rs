//! The binary wire codec: length-prefixed frames, tagged encodings,
//! and bit-packed full-state delivery.
//!
//! The line codec ([`proto`]) is the canonical,
//! human-readable form — it remains the debug/compat path and the
//! on-disk store format. This module adds the second wire format a
//! session can negotiate (`hello codec=binary`): every
//! [`ClientFrame`]/[`ServerFrame`] as a tagged binary record inside a
//! `u32`-length-prefixed frame, capped at [`MAX_FRAME`] so a corrupt
//! prefix cannot make a session allocate unboundedly.
//!
//! The payload that motivates the codec is [`StateBlob`]: a full
//! configuration packed at the width its domain needs, reusing the
//! engine's [`Packing`] rules — two-spin models (Ising, hardcore) ship
//! one **bit** per vertex, `q ≤ 256` colorings one **byte**, and only
//! `q > 256` falls back to full `u32` lanes. A 256×256 torus state is
//! thus 8 KB (Ising) to 64 KB (colorings) instead of 256 KB. Blobs ride
//! in `sample` job results and `stream` job events
//! ([`JobEvent::State`]); on the text
//! codec they fall back to a base64url token so text sessions stay
//! fully functional.
//!
//! Both codecs answer bit-identical results — property-tested in
//! `tests/codec_identity.rs` the same way remote-vs-local identity is.

use crate::engine::{Packing, StateSlab};
use crate::proto::{self, ClientFrame, ServerFrame};
use crate::service::JobEvent;
use crate::spec::{CommSummary, JobOutput, JobResult};
use lsl_mrf::Spin;
use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;

/// Upper bound on one binary frame's payload, enforced on both encode
/// and decode. A length prefix above this answers a typed error and the
/// session resynchronizes after the 4 header bytes.
pub const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a binary frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize {
        /// The claimed payload length.
        len: u64,
    },
    /// The payload ended before the record it promised.
    Truncated,
    /// The payload is structurally wrong (bad tag, trailing bytes,
    /// invalid blob, out-of-range spin, …).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Oversize { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            CodecError::Truncated => write!(f, "truncated binary frame"),
            CodecError::Malformed(m) => write!(f, "malformed binary frame: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn malformed(m: impl Into<String>) -> CodecError {
    CodecError::Malformed(m.into())
}

// ---------------------------------------------------------------------
// Codec selection
// ---------------------------------------------------------------------

/// Which wire format a session speaks. Sessions start in [`Codec::Text`]
/// and may switch once via the `hello` handshake.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Codec {
    /// The line-delimited text protocol ([`proto`]) —
    /// canonical, debuggable, and the store format.
    #[default]
    Text,
    /// Length-prefixed tagged binary frames — compact, and the only
    /// format that ships [`StateBlob`]s without base64 overhead.
    Binary,
}

impl fmt::Display for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Codec::Text => write!(f, "text"),
            Codec::Binary => write!(f, "binary"),
        }
    }
}

impl FromStr for Codec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Codec::Text),
            "binary" => Ok(Codec::Binary),
            other => Err(format!("unknown codec {other:?} (expected text | binary)")),
        }
    }
}

// ---------------------------------------------------------------------
// StateBlob: bit-packed configurations on the wire
// ---------------------------------------------------------------------

/// A full configuration packed for the wire at the width its domain
/// needs — the engine's [`Packing::auto_for`] rule applied to transport.
///
/// The packing is a function of `q`, so it is never stored: `q ≤ 2` is
/// one bit per vertex (LSB-first), `q ≤ 256` one byte, larger `q` a
/// `u32` little-endian lane each. Construction validates every spin
/// against `q`, so an unpacked blob is always a legal configuration.
///
/// # Example
/// ```
/// use lsl_core::codec::StateBlob;
/// let blob = StateBlob::pack(&[1, 0, 1, 1], 2);
/// assert_eq!(blob.byte_len(), 1); // four Ising spins in one byte
/// assert_eq!(blob.unpack(), vec![1, 0, 1, 1]);
/// let text = blob.to_token(); // base64url fallback for text sessions
/// assert_eq!(text.parse::<StateBlob>().unwrap(), blob);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateBlob {
    n: usize,
    q: usize,
    bytes: Vec<u8>,
}

impl StateBlob {
    /// Packs a configuration over domain `[0, q)`.
    ///
    /// # Panics
    /// Panics if a spin is `≥ q` (debug builds assert inside the slab;
    /// release builds catch it in the explicit check here).
    pub fn pack(state: &[Spin], q: usize) -> StateBlob {
        let q = q.max(1);
        assert!(
            state.iter().all(|&s| (s as usize) < q),
            "spin out of domain [0, {q})"
        );
        let packing = Packing::auto_for(q);
        let slab = StateSlab::from_spins(packing, state);
        let bytes = match &slab {
            StateSlab::Wide(v) => v.iter().flat_map(|s| s.to_le_bytes()).collect(),
            StateSlab::Byte(v) => v.clone(),
            StateSlab::Bit { words, len } => {
                let mut out = Vec::with_capacity(len.div_ceil(8));
                for word in words {
                    out.extend_from_slice(&word.to_le_bytes());
                }
                out.truncate(len.div_ceil(8));
                out
            }
        };
        StateBlob {
            n: state.len(),
            q,
            bytes,
        }
    }

    /// Rebuilds a blob from wire parts, validating the byte length and
    /// every spin against `q` — a malformed blob is a [`CodecError`],
    /// never a bad configuration.
    pub fn from_parts(n: usize, q: usize, bytes: Vec<u8>) -> Result<StateBlob, CodecError> {
        if q == 0 {
            return Err(malformed("state blob with q=0"));
        }
        let packing = Packing::auto_for(q);
        let expect = match packing {
            Packing::Wide => n.checked_mul(4).ok_or_else(|| malformed("blob overflow"))?,
            Packing::Byte => n,
            Packing::Bit => n.div_ceil(8),
        };
        if bytes.len() != expect {
            return Err(malformed(format!(
                "state blob for n={n} q={q} needs {expect} bytes, got {}",
                bytes.len()
            )));
        }
        let blob = StateBlob { n, q, bytes };
        match packing {
            Packing::Wide | Packing::Byte => {
                for i in 0..n {
                    let s = blob.spin(i);
                    if s as usize >= q {
                        return Err(malformed(format!("spin {s} out of domain [0, {q})")));
                    }
                }
            }
            Packing::Bit => {
                // Spare bits past `n` in the last byte must be zero so
                // blob equality is byte equality.
                let spare = blob.bytes.len() * 8 - n;
                if spare > 0 {
                    let last = blob.bytes[blob.bytes.len() - 1];
                    if last >> (8 - spare) != 0 {
                        return Err(malformed("nonzero spare bits in state blob"));
                    }
                }
                if q == 1 && blob.bytes.iter().any(|&b| b != 0) {
                    return Err(malformed("spin out of domain [0, 1)"));
                }
            }
        }
        Ok(blob)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Domain size the blob was packed against.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The packing width in use (derived from `q`, never stored).
    pub fn packing(&self) -> Packing {
        Packing::auto_for(self.q)
    }

    /// Packed payload size in bytes — what the binary codec ships.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw packed bytes (for `--out` files and size accounting).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The spin at vertex `i`.
    #[inline]
    fn spin(&self, i: usize) -> Spin {
        match self.packing() {
            Packing::Wide => {
                let b = &self.bytes[i * 4..i * 4 + 4];
                u32::from_le_bytes([b[0], b[1], b[2], b[3]])
            }
            Packing::Byte => self.bytes[i] as Spin,
            Packing::Bit => ((self.bytes[i >> 3] >> (i & 7)) & 1) as Spin,
        }
    }

    /// Unpacks back to the flat configuration the sampler produced.
    /// Bit-identical to the packed input (round-trip tested).
    pub fn unpack(&self) -> Vec<Spin> {
        (0..self.n).map(|i| self.spin(i)).collect()
    }
}

/// The text-codec fallback form: `n/q/<base64url>` (no padding). Also
/// what `lsl run --out` writes one-per-line in text mode.
impl fmt::Display for StateBlob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.n, self.q, b64_encode(&self.bytes))
    }
}

impl FromStr for StateBlob {
    type Err = CodecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, '/');
        let (n, q, b64) = match (parts.next(), parts.next(), parts.next()) {
            (Some(n), Some(q), Some(b)) => (n, q, b),
            _ => return Err(malformed(format!("state blob token {s:?}"))),
        };
        let n: usize = n
            .parse()
            .map_err(|_| malformed(format!("blob vertex count {n:?}")))?;
        let q: usize = q
            .parse()
            .map_err(|_| malformed(format!("blob domain size {q:?}")))?;
        StateBlob::from_parts(n, q, b64_decode(b64)?)
    }
}

impl StateBlob {
    /// The `n/q/<base64url>` token — alias for the `Display` form,
    /// spelled out at call sites that embed blobs in text frames.
    pub fn to_token(&self) -> String {
        self.to_string()
    }
}

// ---------------------------------------------------------------------
// base64url (no padding) — the text-codec fallback for blob bytes
// ---------------------------------------------------------------------

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let v = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let chars = [
            B64[(v >> 18) as usize & 63],
            B64[(v >> 12) as usize & 63],
            B64[(v >> 6) as usize & 63],
            B64[v as usize & 63],
        ];
        let keep = 1 + chunk.len(); // 2, 3, or 4 output chars
        for &c in &chars[..keep.min(4)] {
            out.push(c as char);
        }
    }
    out
}

fn b64_val(c: u8) -> Result<u32, CodecError> {
    match c {
        b'A'..=b'Z' => Ok(u32::from(c - b'A')),
        b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
        b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
        b'-' => Ok(62),
        b'_' => Ok(63),
        other => Err(malformed(format!("base64url byte 0x{other:02x}"))),
    }
}

fn b64_decode(s: &str) -> Result<Vec<u8>, CodecError> {
    let bytes = s.as_bytes();
    if bytes.len() % 4 == 1 {
        return Err(malformed("base64url length ≡ 1 (mod 4)"));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3 + 2);
    for chunk in bytes.chunks(4) {
        let mut v = 0u32;
        for &c in chunk {
            v = (v << 6) | b64_val(c)?;
        }
        v <<= 6 * (4 - chunk.len());
        out.push((v >> 16) as u8);
        if chunk.len() >= 3 {
            out.push((v >> 8) as u8);
        }
        if chunk.len() == 4 {
            out.push(v as u8);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new() -> Self {
        Enc(Vec::new())
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("payload under 4 GiB"));
        self.0.extend_from_slice(v);
    }

    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    fn blob(&mut self, b: &StateBlob) {
        self.u64(b.n as u64);
        self.u64(b.q as u64);
        self.bytes(&b.bytes);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| malformed("count overflows usize"))
    }

    fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| malformed("non-UTF-8 string"))
    }

    fn blob(&mut self) -> Result<StateBlob, CodecError> {
        let n = self.usize()?;
        let q = self.usize()?;
        let bytes = self.bytes()?.to_vec();
        StateBlob::from_parts(n, q, bytes)
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after record",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Tagged records
// ---------------------------------------------------------------------

// Client frame tags.
const C_SUBMIT: u8 = 0x01;
const C_CANCEL: u8 = 0x02;
const C_SHUTDOWN: u8 = 0x03;
const C_HELLO: u8 = 0x04;
const C_PING: u8 = 0x05;
const C_SHARD_INIT: u8 = 0x06;
const C_SHARD_SYNC: u8 = 0x07;

// Server frame tags.
const S_SUBMITTED: u8 = 0x81;
const S_EVENT: u8 = 0x82;
const S_ERROR: u8 = 0x83;
const S_HELLO: u8 = 0x84;
const S_PONG: u8 = 0x85;
const S_SHARD_SYNC: u8 = 0x86;
const S_SHARD_DONE: u8 = 0x87;

// Job event tags.
const E_ACCEPTED: u8 = 1;
const E_REJECTED: u8 = 2;
const E_STARTED: u8 = 3;
const E_PROGRESS: u8 = 4;
const E_FINISHED: u8 = 5;
const E_FAILED: u8 = 6;
const E_CANCELLED: u8 = 7;
const E_STATE: u8 = 8;

// Job output tags.
const O_RUN: u8 = 1;
const O_DISTRIBUTION: u8 = 2;
const O_TV: u8 = 3;
const O_COALESCENCE: u8 = 4;
const O_SAMPLE: u8 = 5;
const O_STREAM: u8 = 6;

fn codec_byte(c: Codec) -> u8 {
    match c {
        Codec::Text => 0,
        Codec::Binary => 1,
    }
}

fn codec_from_byte(b: u8) -> Result<Codec, CodecError> {
    match b {
        0 => Ok(Codec::Text),
        1 => Ok(Codec::Binary),
        other => Err(malformed(format!("codec byte 0x{other:02x}"))),
    }
}

/// Encodes a client frame as one tagged binary record (no length
/// prefix — pair with [`write_frame`]).
pub fn encode_client(frame: &ClientFrame) -> Vec<u8> {
    let mut e = Enc::new();
    match frame {
        ClientFrame::Submit { id, spec } => {
            e.u8(C_SUBMIT);
            e.u64(*id);
            e.str(spec);
        }
        ClientFrame::Cancel { id } => {
            e.u8(C_CANCEL);
            e.u64(*id);
        }
        ClientFrame::Shutdown => e.u8(C_SHUTDOWN),
        ClientFrame::Hello { codec } => {
            e.u8(C_HELLO);
            e.u8(codec_byte(*codec));
        }
        ClientFrame::Ping { nonce } => {
            e.u8(C_PING);
            e.u64(*nonce);
        }
        ClientFrame::ShardInit {
            id,
            shard,
            of,
            spec,
        } => {
            e.u8(C_SHARD_INIT);
            e.u64(*id);
            e.u32(*shard);
            e.u32(*of);
            e.str(spec);
        }
        ClientFrame::ShardSync { id, round, blob } => {
            e.u8(C_SHARD_SYNC);
            e.u64(*id);
            e.u64(*round);
            e.blob(blob);
        }
    }
    e.0
}

/// Decodes one client frame record, rejecting trailing bytes.
pub fn decode_client(bytes: &[u8]) -> Result<ClientFrame, CodecError> {
    let mut d = Dec::new(bytes);
    let frame = match d.u8()? {
        C_SUBMIT => ClientFrame::Submit {
            id: d.u64()?,
            spec: d.str()?.to_string(),
        },
        C_CANCEL => ClientFrame::Cancel { id: d.u64()? },
        C_SHUTDOWN => ClientFrame::Shutdown,
        C_HELLO => ClientFrame::Hello {
            codec: codec_from_byte(d.u8()?)?,
        },
        C_PING => ClientFrame::Ping { nonce: d.u64()? },
        C_SHARD_INIT => ClientFrame::ShardInit {
            id: d.u64()?,
            shard: d.u32()?,
            of: d.u32()?,
            spec: d.str()?.to_string(),
        },
        C_SHARD_SYNC => ClientFrame::ShardSync {
            id: d.u64()?,
            round: d.u64()?,
            blob: d.blob()?,
        },
        tag => return Err(malformed(format!("client frame tag 0x{tag:02x}"))),
    };
    d.done()?;
    Ok(frame)
}

/// Encodes a server frame as one tagged binary record.
pub fn encode_server(frame: &ServerFrame) -> Vec<u8> {
    let mut e = Enc::new();
    match frame {
        ServerFrame::Submitted { id, jobs } => {
            e.u8(S_SUBMITTED);
            e.u64(*id);
            e.u64(*jobs);
        }
        ServerFrame::Event { id, index, event } => {
            e.u8(S_EVENT);
            e.u64(*id);
            e.u64(*index);
            encode_event(&mut e, event);
        }
        ServerFrame::Error { id, message } => {
            e.u8(S_ERROR);
            match id {
                Some(id) => {
                    e.u8(1);
                    e.u64(*id);
                }
                None => e.u8(0),
            }
            e.str(message);
        }
        ServerFrame::Hello { codec } => {
            e.u8(S_HELLO);
            e.u8(codec_byte(*codec));
        }
        ServerFrame::Pong { nonce } => {
            e.u8(S_PONG);
            e.u64(*nonce);
        }
        ServerFrame::ShardSync { id, round, blob } => {
            e.u8(S_SHARD_SYNC);
            e.u64(*id);
            e.u64(*round);
            e.blob(blob);
        }
        ServerFrame::ShardDone { id, rounds, blob } => {
            e.u8(S_SHARD_DONE);
            e.u64(*id);
            e.u64(*rounds);
            e.blob(blob);
        }
    }
    e.0
}

/// Decodes one server frame record, rejecting trailing bytes.
pub fn decode_server(bytes: &[u8]) -> Result<ServerFrame, CodecError> {
    let mut d = Dec::new(bytes);
    let frame = match d.u8()? {
        S_SUBMITTED => ServerFrame::Submitted {
            id: d.u64()?,
            jobs: d.u64()?,
        },
        S_EVENT => ServerFrame::Event {
            id: d.u64()?,
            index: d.u64()?,
            event: decode_event(&mut d)?,
        },
        S_ERROR => {
            let id = match d.u8()? {
                0 => None,
                1 => Some(d.u64()?),
                other => return Err(malformed(format!("error id flag 0x{other:02x}"))),
            };
            ServerFrame::Error {
                id,
                message: d.str()?.to_string(),
            }
        }
        S_HELLO => ServerFrame::Hello {
            codec: codec_from_byte(d.u8()?)?,
        },
        S_PONG => ServerFrame::Pong { nonce: d.u64()? },
        S_SHARD_SYNC => ServerFrame::ShardSync {
            id: d.u64()?,
            round: d.u64()?,
            blob: d.blob()?,
        },
        S_SHARD_DONE => ServerFrame::ShardDone {
            id: d.u64()?,
            rounds: d.u64()?,
            blob: d.blob()?,
        },
        tag => return Err(malformed(format!("server frame tag 0x{tag:02x}"))),
    };
    d.done()?;
    Ok(frame)
}

fn encode_event(e: &mut Enc, event: &JobEvent) {
    match event {
        JobEvent::Accepted => e.u8(E_ACCEPTED),
        JobEvent::Rejected { reason } => {
            e.u8(E_REJECTED);
            // Reject reasons and spec errors cross the binary wire as
            // their proto tokens: the token grammar is already proven
            // invertible, so the binary codec inherits the proof.
            e.str(&proto::encode_reject_reason(reason));
        }
        JobEvent::Started => e.u8(E_STARTED),
        JobEvent::Progress { round, of } => {
            e.u8(E_PROGRESS);
            e.u64(*round);
            e.u64(*of);
        }
        JobEvent::Finished(result) => {
            e.u8(E_FINISHED);
            encode_result(e, result);
        }
        JobEvent::Failed(err) => {
            e.u8(E_FAILED);
            e.str(&proto::encode_spec_error(err));
        }
        JobEvent::Cancelled => e.u8(E_CANCELLED),
        JobEvent::State { round, blob } => {
            e.u8(E_STATE);
            e.u64(*round);
            e.blob(blob);
        }
    }
}

fn decode_event(d: &mut Dec<'_>) -> Result<JobEvent, CodecError> {
    Ok(match d.u8()? {
        E_ACCEPTED => JobEvent::Accepted,
        E_REJECTED => JobEvent::Rejected {
            reason: proto::decode_reject_reason(d.str()?).map_err(|e| malformed(e.to_string()))?,
        },
        E_STARTED => JobEvent::Started,
        E_PROGRESS => JobEvent::Progress {
            round: d.u64()?,
            of: d.u64()?,
        },
        E_FINISHED => JobEvent::Finished(decode_result(d)?),
        E_FAILED => JobEvent::Failed(
            proto::decode_spec_error(d.str()?).map_err(|e| malformed(e.to_string()))?,
        ),
        E_CANCELLED => JobEvent::Cancelled,
        E_STATE => JobEvent::State {
            round: d.u64()?,
            blob: d.blob()?,
        },
        tag => return Err(malformed(format!("job event tag 0x{tag:02x}"))),
    })
}

fn encode_result(e: &mut Enc, result: &JobResult) {
    e.str(&result.spec);
    e.f64(result.elapsed_secs);
    match &result.output {
        JobOutput::Run {
            rounds,
            n,
            feasible,
            fingerprint,
            comm,
        } => {
            e.u8(O_RUN);
            e.u64(*rounds);
            e.u64(*n as u64);
            e.u8(u8::from(*feasible));
            e.u64(*fingerprint);
            match comm {
                Some(c) => {
                    e.u8(1);
                    e.u64(c.rounds_seen);
                    e.u64(c.total_messages);
                    e.u64(c.total_bytes);
                    e.u64(c.total_changed);
                }
                None => e.u8(0),
            }
        }
        JobOutput::Distribution { replicas, support } => {
            e.u8(O_DISTRIBUTION);
            e.u64(*replicas);
            e.u64(*support as u64);
        }
        JobOutput::Tv {
            rounds,
            replicas,
            tv,
        } => {
            e.u8(O_TV);
            e.u64(*rounds as u64);
            e.u64(*replicas as u64);
            e.f64(*tv);
        }
        JobOutput::Coalescence {
            trials,
            mean_rounds,
            std_error,
            timeouts,
        } => {
            e.u8(O_COALESCENCE);
            e.u64(*trials as u64);
            e.f64(*mean_rounds);
            e.f64(*std_error);
            e.u64(*timeouts as u64);
        }
        JobOutput::Sample { rounds, states } => {
            e.u8(O_SAMPLE);
            e.u64(*rounds);
            e.u32(u32::try_from(states.len()).expect("replica count fits u32"));
            for blob in states {
                e.blob(blob);
            }
        }
        JobOutput::Stream {
            rounds,
            every,
            n,
            states,
            fingerprint,
        } => {
            e.u8(O_STREAM);
            e.u64(*rounds);
            e.u64(*every as u64);
            e.u64(*n as u64);
            e.u64(*states);
            e.u64(*fingerprint);
        }
    }
}

fn decode_result(d: &mut Dec<'_>) -> Result<JobResult, CodecError> {
    let spec = d.str()?.to_string();
    let elapsed_secs = d.f64()?;
    let output = match d.u8()? {
        O_RUN => {
            let rounds = d.u64()?;
            let n = d.usize()?;
            let feasible = match d.u8()? {
                0 => false,
                1 => true,
                other => return Err(malformed(format!("feasible byte 0x{other:02x}"))),
            };
            let fingerprint = d.u64()?;
            let comm = match d.u8()? {
                0 => None,
                1 => Some(CommSummary {
                    rounds_seen: d.u64()?,
                    total_messages: d.u64()?,
                    total_bytes: d.u64()?,
                    total_changed: d.u64()?,
                }),
                other => return Err(malformed(format!("comm flag 0x{other:02x}"))),
            };
            JobOutput::Run {
                rounds,
                n,
                feasible,
                fingerprint,
                comm,
            }
        }
        O_DISTRIBUTION => JobOutput::Distribution {
            replicas: d.u64()?,
            support: d.usize()?,
        },
        O_TV => JobOutput::Tv {
            rounds: d.usize()?,
            replicas: d.usize()?,
            tv: d.f64()?,
        },
        O_COALESCENCE => JobOutput::Coalescence {
            trials: d.usize()?,
            mean_rounds: d.f64()?,
            std_error: d.f64()?,
            timeouts: d.usize()?,
        },
        O_SAMPLE => {
            let rounds = d.u64()?;
            let count = d.u32()? as usize;
            let mut states = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                states.push(d.blob()?);
            }
            JobOutput::Sample { rounds, states }
        }
        O_STREAM => JobOutput::Stream {
            rounds: d.u64()?,
            every: d.usize()?,
            n: d.usize()?,
            states: d.u64()?,
            fingerprint: d.u64()?,
        },
        tag => return Err(malformed(format!("job output tag 0x{tag:02x}"))),
    };
    Ok(JobResult {
        spec,
        output,
        elapsed_secs,
    })
}

// ---------------------------------------------------------------------
// The frame layer
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame: a little-endian `u32` payload
/// length, then the payload — as a **single** `write_all`, so an
/// unbuffered socket sees one packet, not a 4-byte runt that Nagle +
/// delayed-ACK would stall on. Errors if the payload exceeds
/// [`MAX_FRAME`] — encode-side enforcement of the same cap decoding
/// applies.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            CodecError::Oversize {
                len: payload.len() as u64,
            }
            .to_string(),
        ));
    }
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(payload);
    w.write_all(&framed)
}

/// Incremental frame reassembly for a read loop, in either codec: feed
/// whatever bytes arrive with [`FrameBuffer::extend`], pull complete
/// binary payloads with [`FrameBuffer::next_frame`] or text lines with
/// [`FrameBuffer::next_line`]. One buffer serves both, so bytes
/// buffered behind a `hello` are cut under the codec it switched to.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// `buf[..scanned]` holds no newline: the next line scan resumes
    /// here instead of rescanning the partial line.
    scanned: usize,
    /// Dropping the rest of an over-cap line, up to its newline.
    discarding: bool,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete frames not yet pulled plus
    /// any partial tail).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pops the next complete frame payload, `Ok(None)` if more bytes
    /// are needed. An over-cap length prefix returns
    /// [`CodecError::Oversize`] after consuming only the 4 header
    /// bytes, so the session can answer a typed error and resume
    /// parsing at the next byte.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        self.scanned = 0;
        if len > MAX_FRAME {
            self.buf.drain(..4);
            return Err(CodecError::Oversize { len: len as u64 });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }

    /// Pops the next complete text line (without its `\n`), `Ok(None)`
    /// if more bytes are needed. A line longer than [`MAX_FRAME`]
    /// returns [`CodecError::Oversize`] once; the rest of it is dropped
    /// and parsing resumes after its newline, so a peer that never
    /// sends one cannot make the buffer grow past the cap.
    pub fn next_line(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        loop {
            let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
                let len = self.buf.len();
                if self.discarding || len > MAX_FRAME {
                    self.buf.clear();
                    self.scanned = 0;
                    if !std::mem::replace(&mut self.discarding, true) {
                        return Err(CodecError::Oversize { len: len as u64 });
                    }
                } else {
                    self.scanned = len;
                }
                return Ok(None);
            };
            let mut line: Vec<u8> = self.buf.drain(..=self.scanned + i).collect();
            line.pop();
            self.scanned = 0;
            if std::mem::take(&mut self.discarding) {
                continue;
            }
            if line.len() > MAX_FRAME {
                return Err(CodecError::Oversize {
                    len: line.len() as u64,
                });
            }
            return Ok(Some(line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_packs_at_domain_width() {
        // Ising: bits.
        let ising = StateBlob::pack(&[1, 0, 1, 1, 0, 0, 0, 1, 1], 2);
        assert_eq!(ising.packing(), Packing::Bit);
        assert_eq!(ising.byte_len(), 2);
        assert_eq!(ising.unpack(), vec![1, 0, 1, 1, 0, 0, 0, 1, 1]);
        // Colorings: bytes.
        let col = StateBlob::pack(&[4, 0, 255], 256);
        assert_eq!(col.packing(), Packing::Byte);
        assert_eq!(col.byte_len(), 3);
        assert_eq!(col.unpack(), vec![4, 0, 255]);
        // Huge domains: u32 lanes.
        let wide = StateBlob::pack(&[300, 0], 1000);
        assert_eq!(wide.packing(), Packing::Wide);
        assert_eq!(wide.byte_len(), 8);
        assert_eq!(wide.unpack(), vec![300, 0]);
    }

    #[test]
    fn blob_token_round_trips() {
        for (state, q) in [
            (vec![], 2),
            (vec![0], 1),
            (vec![1, 0, 1], 2),
            (vec![9, 3, 0, 7], 10),
            (vec![70000, 5], 100_000),
        ] {
            let blob = StateBlob::pack(&state, q);
            let token = blob.to_token();
            let back: StateBlob = token.parse().expect("token parses");
            assert_eq!(back, blob, "token {token}");
            assert_eq!(back.unpack(), state);
        }
    }

    #[test]
    fn blob_rejects_bad_parts() {
        assert!(StateBlob::from_parts(4, 0, vec![]).is_err(), "q=0");
        assert!(StateBlob::from_parts(4, 3, vec![1, 2]).is_err(), "short");
        assert!(
            StateBlob::from_parts(2, 3, vec![1, 3]).is_err(),
            "spin ≥ q in byte lanes"
        );
        assert!(
            StateBlob::from_parts(3, 2, vec![0b1111]).is_err(),
            "nonzero spare bits"
        );
        assert!(
            StateBlob::from_parts(8, 1, vec![1]).is_err(),
            "spin ≥ q in bit lanes"
        );
        assert!("2/2".parse::<StateBlob>().is_err(), "missing payload");
        assert!("x/2/AA".parse::<StateBlob>().is_err(), "bad count");
        assert!("8/2/A%".parse::<StateBlob>().is_err(), "bad base64url");
    }

    #[test]
    fn base64url_round_trips() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = b64_encode(&bytes);
            assert!(
                enc.bytes()
                    .all(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_'),
                "alphabet stays URL-safe"
            );
            assert_eq!(b64_decode(&enc).unwrap(), bytes, "len {len}");
        }
        assert!(b64_decode("AAAAA").is_err(), "length 5 is impossible");
    }

    #[test]
    fn frame_buffer_reassembles_and_resyncs() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"second").unwrap();

        let mut fb = FrameBuffer::new();
        // Feed byte by byte: frames reassemble across arbitrary splits.
        let mut got = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![b"first".to_vec(), Vec::new(), b"second".to_vec()]);

        // An over-cap prefix errors once, consumes 4 bytes, and the
        // next well-formed frame still parses.
        fb.extend(&(u32::MAX).to_le_bytes());
        let mut after = Vec::new();
        write_frame(&mut after, b"ok").unwrap();
        fb.extend(&after);
        assert_eq!(
            fb.next_frame(),
            Err(CodecError::Oversize {
                len: u64::from(u32::MAX)
            })
        );
        assert_eq!(fb.next_frame().unwrap(), Some(b"ok".to_vec()));
    }

    #[test]
    fn frame_buffer_cuts_lines_across_codecs_and_resyncs_over_cap() {
        let mut fb = FrameBuffer::new();
        // Lines reassemble across arbitrary splits; a partial tail waits.
        for &b in b"ping nonce=1\nhel" {
            fb.extend(&[b]);
        }
        assert_eq!(fb.next_line().unwrap(), Some(b"ping nonce=1".to_vec()));
        assert_eq!(fb.next_line().unwrap(), None);
        // Bytes behind a switching line are cut under the new framing.
        let mut wire = b"lo codec=binary\n".to_vec();
        write_frame(&mut wire, b"bin").unwrap();
        fb.extend(&wire);
        let hello = fb.next_line().unwrap();
        assert_eq!(hello, Some(b"hello codec=binary".to_vec()));
        assert_eq!(fb.next_frame().unwrap(), Some(b"bin".to_vec()));
        assert!(fb.is_empty());

        // An over-cap line errors once, nothing of it is kept, and the
        // next line parses.
        fb.extend(&vec![b'x'; MAX_FRAME + 1]);
        assert_eq!(
            fb.next_line(),
            Err(CodecError::Oversize {
                len: MAX_FRAME as u64 + 1
            })
        );
        assert!(fb.is_empty());
        fb.extend(b"still the same line\nnext\n");
        assert_eq!(fb.next_line().unwrap(), Some(b"next".to_vec()));
        assert_eq!(fb.next_line().unwrap(), None);
    }

    #[test]
    fn oversize_payload_refuses_to_encode() {
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
        assert!(sink.is_empty(), "nothing written on refusal");
    }

    #[test]
    fn truncated_records_are_truncated_errors() {
        let frame = ClientFrame::Submit {
            id: 7,
            spec: "graph=cycle:8 model=ising:beta=0.2".into(),
        };
        let bytes = encode_client(&frame);
        for cut in 0..bytes.len() {
            let err = decode_client(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Malformed(_)),
                "cut {cut}: {err}"
            );
        }
        assert_eq!(decode_client(&bytes).unwrap(), frame);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_client(&ClientFrame::Shutdown);
        bytes.push(0);
        assert!(matches!(
            decode_client(&bytes),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn codec_names_round_trip() {
        for c in [Codec::Text, Codec::Binary] {
            assert_eq!(c.to_string().parse::<Codec>().unwrap(), c);
        }
        assert!("gzip".parse::<Codec>().is_err());
    }
}
